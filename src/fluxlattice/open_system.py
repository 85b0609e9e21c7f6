"""Lindblad dephasing dynamics and the population-distribution fidelity.

The density matrix lives on the vacuum plus single-excitation space (dimension
L + 1, vacuum at index 0).  Dephasing collapse operators are number-conserving
projectors, so this space is exact for every protocol in the package.
Integration is fixed-step, deterministic and reproducible across platforms,
with the step chosen so the local error stays far below the test tolerances:
RK4 for ``lindblad_evolve``, and for the adiabatic ramp, whose collapse
operators are all diagonal, a fourth-order split step (``_split_step_maps``).
Both ramp walks live here, on one sub-stepping loop (``_substeps``) and one
integrator: the dephased one (``_split_walk``) and the closed one
(``_closed_walk``), which is the same split step without decay.  Both
walks of one ramp draw from one ``_Ramp``: each takes its substep grid and
chunk groups from a plan (``_plan``) and advances through one batcher
(``_batcher``), which applies each chunk's matrices to the state from one
stream per chunk group; the dephased walk may instead loop over the same
steps.  While the two walks step alike, they take one plan, one set of node
unitaries per segment and one table of each kind of Lagrange weights per
chunk group.  Inside a ramp segment H is affine in time, so a
step, and a chunk of steps, is an entire function of its start.  Both walks
take each step from an interpolant through ``SPLIT_NODES`` node steps, and
a group of many short chunks (more than ``CHUNK_NODES``, each of at most a
few dozen steps on the README ramp) as one propagator a chunk, interpolated
in the chunk's start through ``CHUNK_NODES`` node propagators while that
interpolant has converged.  Any other chunk is multiplied out from its
steps (closed) or taken one step map at a time (dephased).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, NumericalError
from .dynamics import PopulationTrace, StateVector, _check_times
from .lattice import HermitianOperator, RhombicLattice, SiteId, as_site

#: h * max(norm(H), max rate) is kept at or below this.  The contract allows
#: up to 0.05; the default runs 5x tighter so the zero-rate limit agrees with
#: the exact unitary propagation to well under 1e-7.  ``lindblad_evolve``,
#: whose H is fixed, steps at this rule; both ramp walks at
#: ``SPLIT_STEP_FACTOR`` times it.
STEP_SAFETY = 0.01

#: Both ramp walks take fourth-order split steps (``_split_step_maps``, and
#: ``_split_step_unitaries`` without decay), which keep the trace at any
#: length, this many times longer than ``rk4_max_step`` (safety 0.1): 1,400
#: steps of the README ramp, whose closed walk is then within 1e-9 of a run
#: at a tenth of the step.
SPLIT_STEP_FACTOR = 10

#: The rate enters the split step's rule this many times over, so a step is
#: at most ``0.02 / rate``.  The split step's error grows with the rate
#: through the decay's commutators with H, and its middle sub-step runs
#: backward, amplifying coherences by ``exp(0.18 * decay * dt)``.  Weighed
#: once, a rate above the norm of H would set steps about 400x less accurate
#: than the H-limited ones (4e-7 against 1e-9 in final populations); weighed
#: 5 times they match.
SPLIT_RATE_WEIGHT = 5

#: Chebyshev nodes of the split steps' interpolant (degree 6), which puts it
#: within about 1e-14 of the exact map or unitary at any step the rule
#: allows, so the batched and looped dephased walks agree to round-off;
#: degree 4 would be 3e-10 off.
SPLIT_NODES = 7

#: Chebyshev nodes of a chunk propagator's interpolant in the chunk's start
#: (degree 14; Trefethen, Approximation Theory and Approximation Practice,
#: SIAM 2013), per group of chunks of one segment, step length and count.  A
#: group of at most this many chunks never tries it: its node propagators
#: would cost as much as the chunks themselves.
CHUNK_NODES = 15

#: A group's chunk interpolant is taken when its last two Chebyshev
#: coefficients are at most this, relative to its largest node entry, for
#: every stack entry.  The interpolant's error is about 1% of its tail:
#: 3e-15 at a tail of 3.7e-13, 9.5e-13 per chunk at 2.4e-10.  Converged
#: tails sit at 2e-15 on the README ramp, from l = 1 to 20; its segment of
#: the detuning ramp stops converging at about duration 60, whose chunks run
#: 27 steps, and the coupling ramp between 27 and 60 steps (dephased) or 60
#: and 120 (closed).
CHUNK_TAIL = 1e-13

#: Yoshida's triple jump (Phys. Lett. A 150, 262, 1990): symmetric
#: second-order sub-steps of ``c1, c0, c1`` times the step, ``c0 < 0``,
#: compose to fourth order.
_C1 = 1 / (2 - 2 ** (1 / 3))
_TRIPLE_JUMP = np.array([_C1, -(2 ** (1 / 3)) * _C1, _C1])

#: Allowed drift of the density-matrix trace over a full integration.
TRACE_TOL = 1e-6

#: Largest RK4 step map ``lindblad_evolve`` builds: 16 MiB, dimension 32 (l = 10).
STEP_MAP_MAX_BYTES = 16 * 2**20

#: Time of one small numpy call in complex multiply-adds, fitted to timed
#: runs of both paths (CHANGES.md) for the least time lost to wrong picks.
CALL_COST = 1600

#: Most substeps ``_substeps`` hands ``advance`` in one call, so per-call
#: arrays stay at most this many substeps' worth whatever the step.
SUBSTEP_CHUNK = 256

#: Most bytes of matrices, per rate set, one piece of a ramp walk's chunk
#: streams (``_batcher``) holds: interpolated steps multiplied into a
#: propagator (``_ordered_products``), or a batch of chunk propagators, or of
#: a stepped chunk's Lagrange weights (8 ``SPLIT_NODES`` bytes a step).  A
#: step of either walk (16 n^2 bytes closed, 16 n^4 per set dephased) that
#: alone needs more is formed by itself, so at any lattice size a piece
#: holds at most the larger of this and one step.  A stepped dephased chunk
#: forms all its step maps at once, as ``_split_walk``'s cost rule allows
#: (``STEP_MAP_MAX_BYTES``).  On the README dephased ramp (l = 1, 4 KiB a
#: step map) a group's 15 node propagators take four pieces at 256 KiB, and
#: the op runs 0.14 ms (5%) slower than at 16 MiB, in one, while its traced
#: peak stays within 1 MiB (0.55 MB).
BATCH_BYTES = 256 * 2**10

#: Most substeps one walk may take (about a minute of the slowest stepping);
#: a longer walk is refused as invalid configuration before any step is taken.
SUBSTEP_BUDGET = 10**7


@dataclass(frozen=True, eq=False)
class DephasingRates:
    """Per-site dephasing rates, aligned with the flat site order."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1:
            raise ConfigError("rates must form a 1-d vector")
        if not np.all((vals >= 0) & (vals < math.inf)):  # also rejects NaN
            raise ConfigError("dephasing rates must be finite and nonnegative")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.shape[0]

    @classmethod
    def uniform(cls, n_sites: int, rate: float) -> "DephasingRates":
        return cls(np.full(n_sites, float(rate)))

    @classmethod
    def from_map(
        cls,
        lattice: RhombicLattice,
        rates: Mapping[SiteId | str, float],
        default: float = 0.0,
    ) -> "DephasingRates":
        vals = np.full(lattice.num_sites, float(default))
        for site, rate in rates.items():
            vals[lattice.site_index(as_site(site))] = float(rate)
        return cls(vals)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated density matrix: Hermitian, unit trace, positive within 1e-8."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigError("density matrix must be square")
        scale = max(float(np.abs(m).max()), 1.0)
        if np.abs(m - m.conj().T).max() > 1e-10 * scale:
            raise ConfigError("density matrix is not Hermitian")
        trace = m.trace().real
        if abs(trace - 1.0) > 1e-8:
            raise ConfigError(f"density matrix trace is {trace}, expected 1")
        if np.linalg.eigvalsh(m).min() < -1e-8:
            raise ConfigError("density matrix has a negative eigenvalue")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_pure(cls, amplitudes: StateVector | Sequence[complex]) -> "DensityMatrix":
        amp = amplitudes.amplitudes if isinstance(amplitudes, StateVector) else np.asarray(amplitudes, dtype=complex)
        return cls(np.outer(amp, amp.conj()))

    @classmethod
    def single_excitation(cls, lattice: RhombicLattice, site: SiteId | str) -> "DensityMatrix":
        """Pure excitation on one site, embedded in the vacuum + 1 space."""
        amp = np.zeros(lattice.num_sites + 1, dtype=complex)
        amp[1 + lattice.site_index(site)] = 1.0
        return cls.from_pure(amp)

    def site_populations(self) -> np.ndarray:
        """Diagonal over the excitation sites (vacuum entry dropped)."""
        return self.matrix.diagonal().real[1:].copy()


def _embed_vacuum(h: np.ndarray) -> np.ndarray:
    """Pad a matrix, or a stack of them, with a leading all-zero vacuum row and column."""
    n = h.shape[-1] + 1
    out = np.zeros(h.shape[:-2] + (n, n), dtype=complex)
    out[..., 1:, 1:] = h
    return out


def with_vacuum(operator: HermitianOperator | np.ndarray) -> HermitianOperator:
    """Embed a single-excitation Hamiltonian as the lower block of vacuum + 1."""
    h = operator.matrix if isinstance(operator, HermitianOperator) else np.asarray(operator, dtype=complex)
    return HermitianOperator(_embed_vacuum(h))


def dephasing_operators(rates: DephasingRates | Sequence[float], dim: int) -> list[np.ndarray]:
    """Collapse operators sqrt(rate) |1_j><1_j| on the vacuum + 1 space."""
    vals = (rates if isinstance(rates, DephasingRates) else DephasingRates(rates)).values
    if vals.shape[0] != dim - 1:
        raise ConfigError(
            f"{vals.shape[0]} rates given for a space with {dim - 1} excitation sites"
        )
    ops = []
    for j, rate in enumerate(vals):
        if rate == 0.0:
            continue
        op = np.zeros((dim, dim), dtype=complex)
        op[j + 1, j + 1] = math.sqrt(rate)
        ops.append(op)
    return ops


_Collapse = tuple[np.ndarray | None, list[tuple[np.ndarray, np.ndarray]]]


def _collapse_terms(ops: Sequence[np.ndarray]) -> _Collapse:
    """Fold the diagonal collapse operators into one decay matrix; pair the rest with ``L^dagger L``.

    A diagonal ``L = diag(l)`` acts elementwise: its dissipator term is
    ``-D * rho`` with ``D_ab = (|l_a|^2 + |l_b|^2) / 2 - l_a conj(l_b)``, and the
    ``D`` of several such operators add.  The decay matrix is None when no
    operator is diagonal.
    """
    decay = None
    general = []
    for op in ops:
        diag = op.diagonal()
        if np.array_equal(op, np.diag(diag)):
            weight = (diag.conj() * diag).real
            term = 0.5 * (weight[:, None] + weight[None, :]) - diag[:, None] * diag.conj()[None, :]
            decay = term if decay is None else decay + term
        else:
            general.append((op, op.conj().T @ op))
    return decay, general


def _lindblad_rhs(h: np.ndarray, rho: np.ndarray, collapse: _Collapse) -> np.ndarray:
    decay, general = collapse
    drho = -1j * (h @ rho - rho @ h)
    if decay is not None:
        drho -= decay * rho
    for op, opd_op in general:
        drho += op @ rho @ op.conj().T - 0.5 * (opd_op @ rho + rho @ opd_op)
    return drho


def _rk4_step(h: np.ndarray, rho: np.ndarray, dt: float, collapse: _Collapse) -> np.ndarray:
    """One classical RK4 step of the master equation with H fixed."""
    k1 = _lindblad_rhs(h, rho, collapse)
    k2 = _lindblad_rhs(h, rho + 0.5 * dt * k1, collapse)
    k3 = _lindblad_rhs(h, rho + 0.5 * dt * k2, collapse)
    k4 = _lindblad_rhs(h, rho + dt * k3, collapse)
    return rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of the last two axes, broadcast over the leading ones."""
    n, m = a.shape[-1], b.shape[-1]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (n * m, n * m))


def _liouvillian(h: np.ndarray, collapse: _Collapse) -> np.ndarray:
    """``_lindblad_rhs`` as one matrix acting on ``rho.reshape(-1)``.

    Row-major flattening turns ``A @ rho @ B`` into ``kron(A, B.T)`` applied to
    the flattened ``rho`` (the ``spre``/``spost`` construction), and the
    elementwise decay ``-D * rho`` into a diagonal.  The one-sided terms of
    every general operator are summed before the Kronecker products, and the
    jump terms ``op @ rho @ op^dagger`` are summed by one tensor contraction.
    """
    dim = h.shape[-1]
    decay, general = collapse
    anti = sum((opd_op for _, opd_op in general), np.zeros_like(h))
    eye = np.eye(dim)
    gen = _kron(-1j * h - 0.5 * anti, eye) + _kron(eye, (1j * h - 0.5 * anti).T)
    if decay is not None:
        gen[np.diag_indices(dim * dim)] -= decay.reshape(-1)
    if general:
        ops = np.array([op for op, _ in general])
        jumps = np.tensordot(ops, ops.conj(), axes=(0, 0))  # [a, b, c, d] = sum op_ab conj(op_cd)
        gen += jumps.transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim)
    return gen


def _rk4_map(generator: np.ndarray, dt: float) -> np.ndarray:
    """``_rk4_step`` of the linear equation ``d vec/dt = L @ vec`` as one matrix.

    The polynomial ``I + A + A^2/2 + A^3/6 + A^4/24`` with ``A = dt L``, built
    in Horner form from three matrix products.
    """
    a = dt * generator
    diag = np.diag_indices_from(a)
    step = a / 24
    step[diag] += 1 / 6
    for c in (0.5, 1.0, 1.0):
        step = a @ step
        step[diag] += c
    return step


def _chebyshev_angles(count: int) -> np.ndarray:
    """The angles ``theta_j`` of the ``count`` Chebyshev points of the first kind, ``cos(theta_j)`` on [-1, 1]."""
    return (2 * np.arange(count) + 1) * math.pi / (2 * count)


def _chebyshev_nodes(start: float, stop: float, count: int = SPLIT_NODES) -> np.ndarray:
    """The ``count`` Chebyshev points of the first kind of ``[start, stop]``: where the interpolants sample."""
    return 0.5 * (start + stop) + 0.5 * (stop - start) * np.cos(_chebyshev_angles(count))


def _chebyshev_tail(values: np.ndarray) -> np.ndarray:
    """How far from converged the interpolant through ``values`` at ``_chebyshev_nodes`` is, per stack entry.

    ``values`` has shape ``(R, N, ...)``: for each of R stack entries, one
    array per node.  The coefficient of ``T_k`` is
    ``2 / N sum_j values[:, j] cos(k theta_j)``.  Returns, for each entry,
    the largest magnitude of the last two coefficients over the largest of
    the values: at round-off once the interpolant has converged.
    """
    count = values.shape[1]
    cosines = np.cos(np.arange(count - 2, count)[:, None] * _chebyshev_angles(count))
    flat = values.reshape(len(values), count, -1)
    return np.abs((2 / count) * cosines @ flat).max(axis=(1, 2)) / np.abs(flat).max(axis=(1, 2))


def _split_unitaries(hamiltonians: Callable[[np.ndarray], np.ndarray], starts: np.ndarray, dt: float) -> np.ndarray:
    """Midpoint unitaries of the three sub-steps of each split step of length ``dt`` starting at ``starts``.

    Sub-step ``k`` of a step starting at ``t`` runs ``c_k dt`` (``_TRIPLE_JUMP``)
    from ``t + (c_0 + ... + c_(k-1)) dt``, with H frozen at its midpoint, which
    lies inside the step.  Shape ``(len(starts), 3, n, n)``, from one stacked
    ``eigh`` of the ``3 len(starts)`` midpoint Hamiltonians.
    """
    midpoints = starts[:, None] + (np.cumsum(_TRIPLE_JUMP) - 0.5 * _TRIPLE_JUMP) * dt
    h = hamiltonians(midpoints.ravel())
    energies, vectors = np.linalg.eigh(h.reshape(*midpoints.shape, *h.shape[1:]))
    phases = np.exp(-1j * energies * (_TRIPLE_JUMP * dt)[:, None])
    return (vectors * phases[..., None, :]) @ vectors.conj().swapaxes(-1, -2)


def _split_decays(decay: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The elementwise factors of a split step of length ``dt``: its two outer ones, then its two inner ones.

    A Strang sub-step of length ``h`` (Strang, SIAM J. Numer. Anal. 5, 506,
    1968) is ``D(h/2) U D(h/2)``, with ``D(h) = exp(-h * decay)`` elementwise
    and U the sub-step's midpoint unitary.  The halves of adjacent sub-steps
    merge, so a step is ``D_out U_3 D_in U_2 D_in U_1 D_out`` with
    ``D_out = D(c1 dt / 2)`` and ``D_in = D((c1 + c0) dt / 2)``, which grows
    (``c1 + c0 < 0``).  The decay has a zero diagonal, so every factor keeps
    the trace.
    """
    c1, c0 = _TRIPLE_JUMP[:2]
    return np.exp(-decay * (0.5 * c1 * dt)), np.exp(-decay * (0.5 * (c1 + c0) * dt))


def _split_step_maps(u: np.ndarray, decay: np.ndarray, dt: float) -> np.ndarray:
    """Liouville-space maps of the split steps of length ``dt`` whose sub-step unitaries are ``u``.

    ``u`` holds the three ``_split_unitaries`` of N steps, shape
    ``(N, 3, n, n)``.  For each decay matrix of the stack ``decay`` (shape
    ``(R, n, n)``) the result holds the ``n^2 x n^2`` maps of those steps,
    shape ``(R, N, n^2, n^2)``, acting on the row-major flattened density
    matrix.  Each sub-step unitary U enters as ``_kron(U, U.conj())``,
    between the diagonal ``_split_decays`` factors.  Where H is affine in
    time a step's map is an entire function of its start, so the maps of
    steps starting at a segment's ``SPLIT_NODES`` Chebyshev points
    (``_Ramp.unitaries``) give, through ``_lagrange_weights``, the map of any
    step starting in the segment.
    """
    k = _kron(u, u.conj())
    outer, inner = (d.reshape(len(decay), 1, 1, -1) for d in _split_decays(decay, dt))
    last = outer.swapaxes(-1, -2) * k[:, 2] * inner
    return last @ (k[:, 1] * inner) @ (k[:, 0] * outer)


def _split_step_unitaries(u: np.ndarray) -> np.ndarray:
    """``_split_step_maps`` without decay: the unitaries ``U_3 U_2 U_1`` of the closed split steps whose sub-steps are ``u``.

    The product of Yoshida's three midpoint sub-steps, shape ``(N, n, n)``;
    at a segment's Chebyshev points, ``_lagrange_weights`` combine them into
    the degree-6 interpolant of any step starting in the segment, within
    about 1e-14 of the exact one at any step the rule allows.
    """
    return u[:, 2] @ u[:, 1] @ u[:, 0]


def _lagrange_weights(nodes: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``w[i, j]``: weight of the value at ``nodes[j]`` in the interpolant at ``times[i]``.

    Every difference is scaled by a power of two near the inverse node
    spread (at most 2^1000, for subnormal spreads), which is exact and keeps
    the products of a tiny interval (a ramp of 1e-200) from underflowing to
    0 / 0.
    """
    k = nodes.size
    others = np.nonzero(~np.eye(k, dtype=bool))[1].reshape(k, k - 1)  # row j: every node but j, in order
    scale = math.ldexp(1.0, min(-math.frexp(np.ptp(nodes))[1], 1000))
    numerators = ((times[:, None] - nodes) * scale)[:, others].prod(axis=2)
    return numerators / ((nodes[:, None] - nodes[others]) * scale).prod(axis=1)


def _batch_pays(
    n_steps: int, loop_calls: float, loop_products: float, step_products: float,
    setup_products: float = 0.0, nbytes: int = 0,
) -> bool:
    """Whether a walk that prepares its substeps in batches beats taking them one at a time.

    Costs count complex multiply-adds, plus ``CALL_COST`` for each numpy
    call.  The loop makes ``loop_calls`` calls and ``loop_products``
    multiply-adds per substep.  The batched walk spends ``setup_products``
    once, then ``step_products`` and at most one call per substep.  A batch
    that holds more than ``STEP_MAP_MAX_BYTES`` is refused whatever the costs
    say.
    """
    if nbytes > STEP_MAP_MAX_BYTES:
        return False
    batched = setup_products + n_steps * (step_products + CALL_COST)
    return batched < n_steps * (loop_calls * CALL_COST + loop_products)


def _interpolant_pays(count: int, chunks: int, sets: int, m: int) -> bool:
    """Whether ``chunks`` dephased chunks of ``count`` steps take less time through their chunk interpolant than stepped.

    Costs are counted as in ``_batch_pays``, for ``sets`` rate sets whose
    step maps are m x m (m = n^2 for n states).  A stepped chunk costs, per
    step, a call and a map of (``SPLIT_NODES`` + 1) m^2 per set.
    Interpolated, the group first multiplies ``CHUNK_NODES`` node
    propagators of ``count`` m^3 products per set, then each chunk costs a
    call and (``CHUNK_NODES`` + 1) m^2 per set; products of maps are charged
    at a third, as in ``_split_walk``.  With one or two sets and 14 or 134
    steps a chunk this pays from 10 to 16 chunks a group at l = 1 (the
    README ramp has 50), 75 to 95 at l = 2 and 180 to 212 at l = 3.
    """
    stepped = chunks * count * (CALL_COST + sets * (SPLIT_NODES + 1) * m**2 / 3)
    return sets * CHUNK_NODES * count * m**3 / 3 + chunks * (CALL_COST + sets * (CHUNK_NODES + 1) * m**2 / 3) < stepped


def spectral_norm(operator: HermitianOperator | np.ndarray) -> float:
    h = operator.matrix if isinstance(operator, HermitianOperator) else np.asarray(operator)
    if h.size == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvalsh(h)).max())


def rk4_max_step(h_norm: float, max_rate: float) -> float:
    return STEP_SAFETY / max(h_norm, max_rate, 1e-12)


def _substep_grid(checkpoints: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start, substep count and substep length of every checkpoint gap ``_substeps`` walks.

    A gap of positive span is cut into ``max(1, ceil(span / step))`` equal
    substeps; any other gap gets none (and a length of 0).

    Raises
    ------
    ConfigError : if the walk needs more than ``SUBSTEP_BUDGET`` substeps.
    """
    starts = np.concatenate(([0.0], checkpoints[:-1]))
    spans = checkpoints - starts
    # A count, or their total, beyond the float range reads inf and is refused below.
    with np.errstate(over="ignore"):
        counts = np.where(spans > 0, np.maximum(1.0, np.ceil(spans / step)), 0.0)
        total = counts.sum()
    if not total <= SUBSTEP_BUDGET:  # also rejects an infinite count
        raise ConfigError(
            f"the walk needs {total:.3g} substeps of at most {step:.3e}, above the budget of "
            f"{SUBSTEP_BUDGET}; shorten the run or lower the rates"
        )
    counts = counts.astype(int)
    lengths = np.divide(spans, counts, out=np.zeros_like(spans), where=counts > 0)
    return starts, counts, lengths


def _chunks(n_sub: int) -> list[np.ndarray]:
    """The substep numbers of each run of substeps ``_substeps`` hands ``advance`` at once, for a gap of ``n_sub``.

    Runs are at most ``SUBSTEP_CHUNK`` long, read at call time, so a walk and
    any work prepared for its chunks in advance cut every gap alike.
    """
    return [np.arange(first, min(first + SUBSTEP_CHUNK, n_sub)) for first in range(0, n_sub, SUBSTEP_CHUNK)]


def _substeps(
    state: np.ndarray,
    checkpoints: np.ndarray,
    grid: tuple[np.ndarray, Sequence[Sequence[np.ndarray]], np.ndarray],
    advance: Callable[[np.ndarray, float, np.ndarray, float], np.ndarray],
) -> Iterator[tuple[int, float, np.ndarray]]:
    """Carry ``state`` from time 0 through sorted checkpoints in short substeps.

    ``grid`` holds the start, the ``_chunks`` and the substep length ``dt``
    of every checkpoint gap, as the caller planned them once: from
    ``_substep_grid``, which refuses a walk above ``SUBSTEP_BUDGET``
    substeps before any is taken, or a ramp walk's ``_plan``, which shares
    round-off-equal lengths.  ``advance(state, start, index, dt)`` takes the
    substeps numbered ``index`` (one chunk, at most ``SUBSTEP_CHUNK``
    consecutive substeps) of the gap that begins at ``start``, in time
    order, and returns the state after them.  Substep ``k`` runs from
    ``start + k * dt``; its midpoint is ``start + (k + 0.5) * dt``.  Every
    chunk of a gap therefore sees the times the whole gap would, while
    ``advance`` batches per-substep work (building or diagonalizing the
    Hamiltonians, forming step maps or unitaries) over a bounded number of
    substeps.  H may be fixed (``lindblad_evolve``), or frozen at the
    midpoints of a split step's three sub-steps (``_closed_walk`` and
    ``_split_walk``).  Yields ``(index, time, state)`` at every checkpoint.
    A density matrix, or a stack of them along the first axis, has every
    trace checked there first.

    Raises
    ------
    NumericalError : if a density-matrix trace drifts by more than
        ``TRACE_TOL`` or stops being finite, which means the step is too
        large; the message gives the length of the gap's substeps.
    """
    for i, (target, start, chunks, dt) in enumerate(zip(checkpoints, *grid)):
        for index in chunks:
            state = advance(state, start, index, dt)
        if state.ndim >= 2:
            drift = abs(state.trace(axis1=-2, axis2=-1).real - 1.0).max()
            if not drift <= TRACE_TOL:  # also rejects NaN
                raise NumericalError(
                    f"density-matrix trace drifted by {drift:.3e} at Jt={target:g} "
                    f"(step {dt:.3e}); reduce the step"
                )
        yield i, target, state


def _ordered_product(u: np.ndarray) -> np.ndarray:
    """Product of the matrices along axis -3 of ``u``, later ones on the left, for every index of the leading axes.

    Pairwise halving: about one matrix product per matrix, in a few stacked
    numpy calls, each a product of single matrices, so a stack entry's
    result does not depend on the others.
    """
    earlier = None  # the product of the matrices peeled off the front
    while u.shape[-3] > 1:
        if u.shape[-3] % 2:
            earlier = u[..., 0, :, :] if earlier is None else u[..., 0, :, :] @ earlier
            u = u[..., 1:, :, :]
        u = u[..., 1::2, :, :] @ u[..., 0::2, :, :]
    return u[..., 0, :, :] if earlier is None else u[..., 0, :, :] @ earlier


def _combine(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``sum_j weights[..., j] values[:, j]``: the values (shape ``(R, N, a, b)``) the ``_lagrange_weights`` give.

    Shape ``(R,) + weights.shape[:-1] + (a, b)``, from one matrix product
    per stack entry, so an entry's result does not depend on the others.
    """
    r, k, a, b = values.shape
    return (weights.reshape(-1, k) @ values.reshape(r, k, a * b)).reshape((r,) + weights.shape[:-1] + (a, b))


def _ordered_products(
    weights: Callable[[slice], np.ndarray], shape: tuple[int, int], values: np.ndarray, room: int
) -> np.ndarray:
    """The propagator of each of ``shape[0]`` rows of ``shape[1]`` steps: the product of the row's steps, later ones on the left.

    ``weights(rows)`` gives the ``_lagrange_weights`` of the steps of a
    slice of the rows, shape ``(rows, count, N)``, which interpolate
    (``_combine``) each step from its node ``values`` (shape
    ``(R, N, a, b)``); the result has shape ``(R, rows, a, b)``.  The steps
    are formed and multiplied (``_ordered_product``) in pieces of at most
    ``room`` of them per stack entry, and at least one: whole rows while a
    row fits, else runs of one row.  Each slice of rows asks ``weights``
    once.
    """
    rows, count = shape
    height, width = max(1, room // count), max(1, min(count, room))
    out = np.empty((len(values), rows) + values.shape[2:], dtype=complex)
    for r in range(0, rows, height):
        step_weights = weights(slice(r, r + height))
        product = None
        for c in range(0, count, width):
            piece = _ordered_product(_combine(step_weights[:, c:c + width], values))
            product = piece if product is None else piece @ product
        out[:, r:r + height] = product
    return out


def _chunk_interpolant(weights: np.ndarray, values: np.ndarray, room: int) -> np.ndarray | None:
    """A group's chunk propagators at its ``CHUNK_NODES`` Chebyshev points, if their interpolant in the chunk start converges.

    ``weights`` (``_Ramp.chunk_weights``, shape ``(CHUNK_NODES, count, N)``)
    are the ``_lagrange_weights`` of the ``count`` steps of the chunk
    starting at each point; a propagator is the ordered product of those
    steps (``_ordered_products`` of the step ``values`` at the step nodes,
    shape ``(R, N, a, b)``), and the result has shape
    ``(R, CHUNK_NODES, a, b)``.  It is multiplied ``CHUNK_NODES`` steps at
    a time, and refused (None) at the first prefix where an entry's
    ``_chebyshev_tail`` exceeds ``CHUNK_TAIL``: the tail grows with the
    prefix, so a refused interpolant costs at most ``CHUNK_NODES`` steps past
    the length at which it stopped converging.  The pieces depend on
    ``count`` alone while a row of them fits ``room``, so a ``room`` that
    changes only how many rows a piece holds multiplies every propagator in
    the same order.
    """
    rows, count = weights.shape[:2]
    propagators, first = None, 0
    while first < count:
        stop = min(count, first + CHUNK_NODES)
        steps = slice(first, stop)
        piece = _ordered_products(lambda r, steps=steps: weights[r, steps], (rows, stop - first), values, room)
        propagators = piece if propagators is None else piece @ propagators
        if not _chebyshev_tail(propagators).max() <= CHUNK_TAIL:  # also refuses NaN
            return None
        first = stop
    return propagators


class _Plan(NamedTuple):
    """A ramp walk's substep grid and the chunk groups ``_batcher`` streams (``_plan``)."""

    starts: np.ndarray
    counts: np.ndarray
    lengths: np.ndarray
    segments: np.ndarray
    #: The chunks (gap start, first substep) by (segment, substep length, count), each in time order.
    groups: dict[tuple[int, float, int], list[tuple[float, int]]]
    #: Each gap's ``_chunks``.
    chunks: list[list[np.ndarray]]
    #: The group of every chunk, in walk order.
    order: list[tuple[int, float, int]]


def _plan(grid: np.ndarray, offsets: np.ndarray, step: float) -> _Plan:
    """A ramp walk's ``_substep_grid`` at ``step``, each gap's segment and chunks, and the walk's chunk groups.

    ``offsets`` are the segment boundaries, from 0 to the ramp's end.  Gaps of
    one segment whose spans differ only by round-off (four ulps of the ramp's
    end) share the shortest of their substep lengths, so a walk forms one node
    set per segment (two on the README ramp), and a gap's substeps end
    within that round-off of its checkpoint.  The walk steps these lengths
    on either side of ``_split_walk``'s cost rule.  The groups are the
    ``_chunks`` of every gap, as (gap start, first substep), by (segment,
    substep length, count), each in time order: what ``_batcher`` takes.
    """
    starts, counts, lengths = _substep_grid(grid, step)
    segments = np.searchsorted(offsets[1:-1], starts, side="right")
    walked = counts > 0
    shared, first, roundoff = {}, (-1, 0.0), 4 * float(np.spacing(grid[-1]))
    for segment, dt, count in sorted(zip(segments[walked].tolist(), lengths[walked].tolist(), counts[walked].tolist())):
        if segment != first[0] or (dt - first[1]) * count > roundoff:
            first = segment, dt
        shared[segment, dt] = first[1]
    lengths = np.array([shared.get(key, 0.0) for key in zip(segments.tolist(), lengths.tolist())])
    groups: dict[tuple[int, float, int], list[tuple[float, int]]] = {}
    chunks, order, cuts = [], [], {}  # gaps of one count share their chunks
    for start, n_sub, dt, segment in zip(starts.tolist(), counts.tolist(), lengths.tolist(), segments.tolist()):
        if n_sub not in cuts:
            gap = _chunks(n_sub)
            cuts[n_sub] = gap, [(int(index[0]), index.size) for index in gap]
        gap, runs = cuts[n_sub]
        chunks.append(gap)
        for first, size in runs:
            key = segment, dt, size
            groups.setdefault(key, []).append((start, first))
            order.append(key)
    return _Plan(starts, counts, lengths, segments, groups, chunks, order)


class _Ramp:
    """What the walks of one ramp are planned from, and the work they share: one per ``adiabatic_ramps`` call.

    ``hamiltonians(times, segment=None)`` is the ramp's H at each time
    (given ``segment``, that segment's line), affine on each segment between
    the ``offsets``; every gap of ``grid`` lies inside one segment, and
    ``norm_bound`` bounds the norm of H on the ramp.  The closed walk steps
    at ``closed_step``, the step rule at zero rate; with a ``max_rate`` the
    dephased walk steps at ``split_step``, the rule of that rate weighed
    ``SPLIT_RATE_WEIGHT`` times.  A walk takes its ``plan``; its steps of
    length ``dt`` on ``segment`` take their interpolants from the
    sub-step ``unitaries`` at the segment's ``nodes``, and a group of its
    chunks that tries the chunk interpolant takes its two
    ``_lagrange_weights`` tables (``chunk_weights``).

    The two walks share all of it only when their steps are equal: while
    ``SPLIT_RATE_WEIGHT * max_rate`` is at most the norm bound.  Then each
    is formed once and kept until the ramp is dropped, so ``_plan`` runs
    once, ``_split_unitaries`` once per (segment, dt) and each table once
    per group, and the closed and dephased walks take bit for bit the node
    unitaries and weights either would alone.  Otherwise (a closed ramp
    alone, or a rate that sets a shorter step) each walk forms its own and
    the ramp keeps nothing, so a walk holds what it did alone.
    """

    def __init__(
        self, hamiltonians: Callable[..., np.ndarray], offsets: np.ndarray, grid: np.ndarray, norm_bound: float,
        max_rate: float | None = None,
    ):
        self.hamiltonians, self.offsets, self.grid = hamiltonians, offsets, grid
        #: Per segment, the ``SPLIT_NODES`` Chebyshev points where its steps' interpolants sample.
        self.nodes = [_chebyshev_nodes(start, stop) for start, stop in zip(offsets[:-1], offsets[1:])]
        self.closed_step = SPLIT_STEP_FACTOR * rk4_max_step(norm_bound, 0.0)
        self.split_step = None if max_rate is None else SPLIT_STEP_FACTOR * rk4_max_step(
            norm_bound, SPLIT_RATE_WEIGHT * max_rate
        )
        self._kept: dict | None = {} if self.split_step == self.closed_step else None

    def _once(self, key: tuple, make: Callable[[], object]):
        """``make()``, formed once and kept while both walks share the ramp's work."""
        if self._kept is None:
            return make()
        if key not in self._kept:
            self._kept[key] = make()
        return self._kept[key]

    def plan(self, step: float) -> _Plan:
        return self._once(("plan",), lambda: _plan(self.grid, self.offsets, step))

    def unitaries(self, segment: int, dt: float) -> np.ndarray:
        """``_split_unitaries`` of the split steps of length ``dt`` starting at the segment's ``nodes``."""
        return self._once(
            ("unitaries", segment, dt),
            lambda: _split_unitaries(partial(self.hamiltonians, segment=segment), self.nodes[segment], dt),
        )

    def chunk_weights(self, plan: _Plan, key: tuple[int, float, int]) -> tuple[np.ndarray, np.ndarray]:
        """The two ``_lagrange_weights`` tables of the chunk interpolant of a group of ``plan``.

        Both sample at the ``CHUNK_NODES`` Chebyshev points of the group's
        chunk starts.  The first, shape ``(CHUNK_NODES, count, SPLIT_NODES)``,
        weighs the segment's ``nodes`` for step ``k`` of the chunk starting
        at point ``j`` in row ``[j, k]``; the second, shape
        ``(chunks, CHUNK_NODES)``, weighs the points for each chunk start.
        Each row is what that time alone would give, so a slice of either
        table is what a slice of its times would.
        """

        def make() -> tuple[np.ndarray, np.ndarray]:
            segment, dt, count = key
            starts = np.array([start + first * dt for start, first in plan.groups[key]])
            chunk_nodes = _chebyshev_nodes(starts.min(), starts.max(), CHUNK_NODES)
            times = chunk_nodes[:, None] + np.arange(count) * dt
            steps = _lagrange_weights(self.nodes[segment], times.ravel()).reshape(CHUNK_NODES, count, SPLIT_NODES)
            return steps, _lagrange_weights(chunk_nodes, starts)

        return self._once(("weights", key), make)


def _batcher(
    ramp: _Ramp,
    plan: _Plan,
    step_nodes: Callable[[int, float], tuple[np.ndarray, np.ndarray]],
    stepping: bool,
    sets: int,
) -> Callable[[np.ndarray, float, np.ndarray, float], np.ndarray]:
    """The ``advance`` of a ramp walk for ``_substeps``: it applies each chunk's matrices to a stack of ``sets`` vectors.

    ``plan`` is the walk's, from ``ramp``: its chunk groups (gap start,
    first substep) by (segment, substep length, count), and the group of
    each chunk in walk order, the order in which ``_substeps`` calls
    ``advance``.  A chunk's matrices, shape ``(R, a, b)`` for R = ``sets``
    stack entries, take the state, reshaped to ``(R, b, 1)`` (the closed
    state vector as one ``(1, n, 1)`` stack, R density matrices flattened to
    ``(R, n^2, 1)``), through it.  ``step_nodes(segment, dt)`` gives the
    segment's ``ramp.nodes`` and, for each stack entry, the step of length
    ``dt`` starting at each node (shape ``(R, N, a, b)``), whose
    ``_lagrange_weights`` give any step of the segment; it is called once
    per (segment, dt).  Each group is one stream, a generator of its chunks'
    matrices in time order that picks the group's form once, on its first
    chunk.  On a segment H is affine in time, so a chunk's propagator is an
    entire function of the chunk's start, as a step is.  A group of more
    than ``CHUNK_NODES`` chunks of ``count`` steps tries
    ``_chunk_interpolant`` if it does not step (the closed walk) or
    ``_interpolant_pays`` for its map dimension ``a``; if that converges for
    every entry, a chunk is the one Lagrange combination of its node
    propagators.  The node unitaries behind ``step_nodes`` and both weight
    tables come from ``ramp``, so a walk that shares the other's plan (only
    when their steps are equal) takes the ones that walk formed.  Any other
    chunk is its interpolated steps in time order if ``stepping``, else
    their ordered product (``_ordered_products``).  A stack entry's result
    therefore depends on the others only where one entry's interpolant is
    refused.  A stream forms its chunks in batches of at most
    ``BATCH_BYTES`` per stack entry (at least one matrix), each when the
    walk reaches its first chunk and dropped once its last is applied; a
    stepped chunk's Lagrange weights are batched alike, and its step maps
    formed when it is taken.  A group's stream is dropped after its last
    chunk, which frees the group's interpolant and last batch.
    """
    step_nodes = cache(step_nodes)

    def stream(key: tuple[int, float, int]) -> Iterator[np.ndarray]:
        # Per chunk, a stack of the matrices it applies in order: its step maps or its one propagator.
        segment, dt, count = key
        members = plan.groups[key]
        nodes, values = step_nodes(segment, dt)
        room = max(1, BATCH_BYTES // values[0, 0].nbytes)
        if len(members) > CHUNK_NODES and (
            not stepping or _interpolant_pays(count, len(members), sets, values.shape[-1])
        ):
            step_weights, chunk_weights = ramp.chunk_weights(plan, key)
            propagators = _chunk_interpolant(step_weights, values, room)
            if propagators is not None:
                for i in range(0, len(members), room):
                    yield from _combine(chunk_weights[i:i + room], propagators).swapaxes(0, 1)[:, None]
                return
        size = max(1, BATCH_BYTES // (8 * nodes.size * count)) if stepping else room
        for i in range(0, len(members), size):
            gap_starts, firsts = (np.array(column) for column in zip(*members[i:i + size]))
            times = gap_starts[:, None] + (firsts[:, None] + np.arange(count)) * dt

            def weights(rows: slice, times: np.ndarray = times) -> np.ndarray:
                return _lagrange_weights(nodes, times[rows].ravel()).reshape(-1, count, nodes.size)

            if stepping:
                yield from (_combine(w, values).swapaxes(0, 1) for w in weights(slice(None)))
            else:
                yield from _ordered_products(weights, times.shape, values, room).swapaxes(0, 1)[:, None]

    def chunks() -> Iterator[np.ndarray]:
        # Every chunk's matrices, in walk order.
        streams = {key: stream(key) for key in plan.groups}  # each starts on its group's first chunk
        left = {key: len(members) for key, members in plan.groups.items()}
        for key in plan.order:
            yield next(streams[key])
            left[key] -= 1
            if not left[key]:
                del streams[key]  # frees the group's interpolant and last batch

    walk = chunks()

    def advance(state: np.ndarray, start: float, index: np.ndarray, dt: float) -> np.ndarray:
        vec = state.reshape(sets, -1, 1)
        for matrices in next(walk):
            vec = matrices @ vec
        return vec.reshape(state.shape)

    return advance


def _closed_walk(ramp: _Ramp, psi0: np.ndarray) -> np.ndarray:
    """The state vector at every point of ``ramp.grid``, walked from ``psi0`` by closed split steps.

    The walk is ``_split_walk`` without decay, at its step rule at zero rate
    (``ramp.closed_step``): each step is Yoshida's triple jump of midpoint
    unitaries, fourth order, an entire function of its start time inside
    its segment, so each is taken from the degree-6 interpolant through
    ``SPLIT_NODES`` exact node unitaries per segment and step length
    (``_split_step_unitaries`` of ``ramp.unitaries``), within about 1e-14
    and without an ``eigh`` per step.  Each chunk comes from ``_batcher``
    as one propagator: in a group of more than ``CHUNK_NODES`` chunks, whose
    node propagators cost no more than that many chunks' products, the
    Lagrange combination of those while they converge (the README ramp's
    two groups of 50 chunks of 14 steps); otherwise the ordered product of
    the chunk's steps (each group of 50 chunks of 134 steps at duration
    300, whose interpolant is refused after 30 to 75), in pieces of at most
    ``BATCH_BYTES``.  A chunk costs one product with the state.  When the
    dephased walk steps as this one does, the ramp keeps this walk's plan,
    node unitaries and chunk-interpolant weights for it.  Each checkpoint's
    state is scaled back to norm 1: the steps are unitary only to
    round-off, which moved the norm by up to 8e-12 over the 13,500 steps
    of a duration-300 ramp, and the walk is linear, so this is the same as
    restoring the norm at every step.
    """
    plan = ramp.plan(ramp.closed_step)

    def closed_nodes(segment: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
        return ramp.nodes[segment], _split_step_unitaries(ramp.unitaries(segment, dt))[None]

    advance = _batcher(ramp, plan, closed_nodes, False, 1)
    states = np.array([psi for _, _, psi in _substeps(psi0, ramp.grid, (plan.starts, plan.chunks, plan.lengths), advance)])
    return states / np.linalg.norm(states, axis=1, keepdims=True)


def _split_walk(ramp: _Ramp, decay: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """The stack of density matrices at every point of ``ramp.grid``, walked from ``stack`` by split steps.

    ``decay`` holds one elementwise decay matrix per density matrix of
    ``stack`` (shape ``(R, n, n)``), and the ramp's ``max_rate`` is the
    largest rate behind them.  Each step is ``_split_step_maps``' (the exact
    elementwise decay between the midpoint unitaries of Yoshida's three
    Strang sub-steps), at ``ramp.split_step``: ``SPLIT_STEP_FACTOR`` times
    the step rule of ``max_rate`` weighed ``SPLIT_RATE_WEIGHT`` times.
    ``_batch_pays`` picks how the walk takes a chunk: one Python loop turn
    per step, or through ``_batcher``, from the interpolant through
    ``SPLIT_NODES`` exact node maps per segment and step length: one product
    with the chunk's Liouville-space propagator where the group's chunk
    interpolant pays and converges, else one matrix-vector product per step
    map.  Both take the steps of one ``_plan``, so each segment's steps have
    one length, and agree to round-off.  While the rate leaves the step at
    the closed walk's, this walk takes the closed walk's plan, and the
    batched branch also its node unitaries and chunk-interpolant weights,
    all from ``ramp``; a rate that shortens the step shares nothing.  Each
    checkpoint's density matrices are scaled back to trace 1, as
    ``_closed_walk`` restores its norm: round-off moved the trace by up to
    2.4e-11 at duration 300.  ``_substeps`` checks the unrestored drift.
    """
    sets, n = decay.shape[:2]

    # Every gap lies inside one segment, where H is affine in time.  The
    # loop forms a chunk's sub-step unitaries from one stacked eigh, then
    # takes each step as U rho U^H per sub-step between the four decays:
    # about 20 numpy calls per step (10 to step, the rest its share of
    # the chunk's work, each LAPACK call charged as a call), 3 * 4.5n^3
    # for the eigh, 3n^3 to form the unitaries and 6n^3 + 4n^2 to step.
    # Batched, a step's n^2 x n^2 map is an entire function of its start,
    # so the batcher combines a chunk's maps from SPLIT_NODES exact node
    # maps per segment and step length (``_split_step_maps``, two n^6
    # products each) with Lagrange weights, SPLIT_NODES n^4 per step, and
    # each step is one matrix-vector product of n^4, all of it once per
    # rate set, while the loop steps every set in the same numpy calls.
    # Those large products run about 3x faster per multiply-add than the
    # loop's small ones, so both batched terms, per step and per node set,
    # are charged at a third.  Fit to both branches timed on the README
    # ramp shape (durations 6-100, l = 2-5, one and two rate sets; any
    # charge from 0.31 to 0.5 picks the faster branch in all 24): the
    # batched walk pays up to l = 2, and at l = 3 for one set from duration
    # 30; two sets at l = 3, and every ramp from l = 4, take the loop.
    # A group of chunks takes its chunk propagators from an interpolant only
    # where ``_interpolant_pays`` finds that cheaper than stepping, so the
    # rule charges every batched chunk its steps: a converged interpolant
    # only makes the batched walk faster, and a refused one costs
    # CHUNK_NODES products a step, for at most CHUNK_NODES steps past the
    # length at which it stopped converging (``_chunk_interpolant``).  Per
    # set, the walk may hold the node maps, a group's node propagators and a
    # stepped chunk's maps at once.
    plan = ramp.plan(ramp.split_step)
    n_maps = len({key[:2] for key in plan.groups})  # one node set per (segment, dt)
    if _batch_pays(
        int(plan.counts.sum()), 20, 22.5 * n**3 + 4 * n * n, sets * (SPLIT_NODES + 1) * n**4 / 3,
        sets * n_maps * SPLIT_NODES * 2 * n**6 / 3,
        16 * n**4 * (SPLIT_NODES + CHUNK_NODES + min(SUBSTEP_CHUNK, int(plan.counts.max()))),
    ):

        def dephased_nodes(segment: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
            return ramp.nodes[segment], _split_step_maps(ramp.unitaries(segment, dt), decay, dt)

        advance = _batcher(ramp, plan, dephased_nodes, True, sets)

    else:

        def advance(rho: np.ndarray, start: float, index: np.ndarray, dt: float) -> np.ndarray:
            outer, inner = _split_decays(decay, dt)
            u = _split_unitaries(ramp.hamiltonians, start + index * dt, dt)
            for (u1, u2, u3), (v1, v2, v3) in zip(u, u.conj().swapaxes(-1, -2)):
                rho = inner * (u1 @ (outer * rho) @ v1)
                rho = outer * (u3 @ (inner * (u2 @ rho @ v2)) @ v3)
            return rho

    rhos = np.array([rhos for _, _, rhos in _substeps(stack, ramp.grid, (plan.starts, plan.chunks, plan.lengths), advance)])
    return rhos / rhos.trace(axis1=-2, axis2=-1).real[..., None, None]


@dataclass(frozen=True, eq=False)
class LindbladResult:
    """Populations plus optional density-matrix snapshots from a Lindblad run."""

    trace: PopulationTrace
    coherence_norms: np.ndarray
    states: tuple[DensityMatrix, ...] | None = None

    @property
    def final_state(self) -> DensityMatrix | None:
        return self.states[-1] if self.states else None


def lindblad_evolve(
    operator: HermitianOperator | np.ndarray,
    rates: DephasingRates | Sequence[float],
    rho0: DensityMatrix,
    times: Sequence[float],
    *,
    extra_collapse: Sequence[np.ndarray] = (),
    max_step: float | None = None,
    keep_states: bool = False,
    site_labels: Sequence[str] = (),
) -> LindbladResult:
    """Integrate the dephasing master equation and sample site populations.

    Parameters
    ----------
    operator : Hamiltonian on the vacuum + single-excitation space.
    rates : one dephasing rate per excitation site (vacuum carries none).
    rho0 : initial density matrix, validated for physicality.
    times : sorted, nonnegative sample times.
    extra_collapse : optional additional collapse operators (hook for
        extensions beyond pure dephasing); rate factors must be folded in.
    max_step : override the automatic step rule; the default keeps
        ``h * max(norm(H), max rate) <= STEP_SAFETY`` (0.01).
    keep_states : also return the density matrix at every sample time.

    With H fixed, one RK4 step is a fixed linear map on the flattened
    density matrix, so each substep can be one matrix-vector product with a
    precomputed ``_rk4_map`` (one per distinct substep length) instead of four
    right-hand-side evaluations.  Both paths take the same RK4 steps on the
    same grid and agree to round-off.  Building a map costs about ``dim^6``
    multiply-adds, while a step costs mostly Python and numpy call overhead,
    so the map only pays for small ``dim``, many substeps or many
    non-diagonal collapse operators.  ``_batch_pays`` weighs the two from
    ``dim``, the number of non-diagonal operators, the substep count and the
    number of distinct substep lengths, and refuses any map larger than
    ``STEP_MAP_MAX_BYTES`` so memory stays bounded at every lattice size.

    Raises
    ------
    NumericalError : if the trace drifts by more than 1e-6 or stops being
        finite, which indicates the step rule was overridden too aggressively.
    """
    h = operator.matrix if isinstance(operator, HermitianOperator) else HermitianOperator(np.asarray(operator)).matrix
    if h.shape[0] != rho0.dim:
        raise ConfigError(f"dimension mismatch: H is {h.shape[0]}, rho is {rho0.dim}")
    t = _check_times(times)
    collapse_ops = dephasing_operators(rates, rho0.dim) + [np.asarray(op, dtype=complex) for op in extra_collapse]
    for op in collapse_ops:
        if op.shape != h.shape:
            raise ConfigError("collapse operator dimension mismatch")
        if not np.all(np.isfinite(op)):
            raise ConfigError("collapse operators must be finite")
    collapse = _collapse_terms(collapse_ops)
    # The step rule sees every decay scale, folded diagonal and general alike.
    rate_scale = max((spectral_norm(op.conj().T @ op) for op in collapse_ops), default=0.0)
    step = max_step if max_step is not None else rk4_max_step(spectral_norm(h), rate_scale)
    if step <= 0:
        raise ConfigError("max_step must be positive")

    populations = np.empty((t.size, rho0.dim - 1))
    coherences = np.empty(t.size)
    snapshots: list[DensityMatrix] = []

    starts, counts, lengths = _substep_grid(t, step)
    n_maps = len(set(lengths[counts > 0].tolist()))
    # One _rk4_step makes 37 + 36 g numpy calls and 4 (2 + 4 g) products of
    # dim x dim matrices, g the number of non-diagonal collapse operators.  A
    # map costs three products of its n x n matrices (n = dim^2), then one
    # matrix-vector product per substep.
    dim, general, n = rho0.dim, len(collapse[1]), rho0.dim**2
    if _batch_pays(
        int(counts.sum()), 37 + 36 * general, 4 * (2 + 4 * general) * dim**3, n * n, n_maps * 3 * n**3, 16 * n * n
    ):
        generator = _liouvillian(h, collapse)
        maps: dict[float, np.ndarray] = {}

        def advance(rho: np.ndarray, start: float, index: np.ndarray, dt: float) -> np.ndarray:
            step_map = maps.get(dt)
            if step_map is None:
                step_map = maps[dt] = _rk4_map(generator, dt)
            vec = rho.reshape(-1)
            for _ in index:
                vec = step_map @ vec
            return vec.reshape(rho.shape)

    else:

        def advance(rho: np.ndarray, start: float, index: np.ndarray, dt: float) -> np.ndarray:
            for _ in index:
                rho = _rk4_step(h, rho, dt, collapse)
            return rho

    grid = starts, [_chunks(n_sub) for n_sub in counts.tolist()], lengths
    for i, _, rho in _substeps(np.array(rho0.matrix, dtype=complex), t, grid, advance):
        populations[i] = rho.diagonal().real[1:]
        off = rho - np.diag(rho.diagonal())
        coherences[i] = float(np.linalg.norm(off))
        if keep_states:
            snapshots.append(DensityMatrix(0.5 * (rho + rho.conj().T)))
    np.clip(populations, 0.0, 1.0, out=populations)
    trace = PopulationTrace(t, populations, tuple(site_labels))
    return LindbladResult(trace, coherences, tuple(snapshots) if keep_states else None)


def fidelity(n: Sequence[float], n_th: Sequence[float]) -> float:
    """Bhattacharyya-type overlap of two population distributions.

    Both inputs must be nonnegative and sum to 1; sums off by up to 1e-3 are
    renormalized with a warning (measured distributions lose a little weight
    to decoherence), anything worse is rejected.
    """
    a = np.asarray(n, dtype=float)
    b = np.asarray(n_th, dtype=float)
    if a.shape != b.shape:
        raise ConfigError("population vectors must have the same length")
    if a.min() < 0 or b.min() < 0:
        raise ConfigError("population vectors must be nonnegative")
    out = []
    for vec in (a, b):
        total = vec.sum()
        if abs(total - 1.0) > 1e-3:
            raise ConfigError(f"population vector sums to {total}, expected 1 within 1e-3")
        if abs(total - 1.0) > 1e-6:
            warnings.warn(
                f"population vector sums to {total:.6f}; renormalizing", stacklevel=2
            )
        out.append(vec / total)
    return _bhattacharyya(*out)


def _bhattacharyya(a: np.ndarray, b: np.ndarray) -> float:
    """``sum(sqrt(a * b))`` of two population vectors as given, capped at 1."""
    return min(float(np.sqrt(a * b).sum()), 1.0)
