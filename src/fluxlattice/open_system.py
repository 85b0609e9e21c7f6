"""Lindblad dephasing dynamics and the population-distribution fidelity.

The density matrix lives on the vacuum plus single-excitation space (dimension
L + 1, vacuum at index 0).  Dephasing collapse operators are number-conserving
projectors, so this space is exact for every protocol in the package.
Integration is fixed-step RK4: deterministic and reproducible across
platforms, with the step chosen so the local error stays far below the test
tolerances.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, NumericalError
from .dynamics import PopulationTrace, StateVector, _check_times
from .lattice import HermitianOperator, RhombicLattice, SiteId, as_site

#: h * max(norm(H), max rate) is kept at or below this.  The contract allows
#: up to 0.05; the default runs 5x tighter so the zero-rate limit agrees with
#: the exact unitary propagation to well under 1e-7.  ``lindblad_evolve`` and
#: the closed ramp, whose H is fixed over each substep, step at this rule.
STEP_SAFETY = 0.01

#: The dephased ramp evaluates H at RK4's stage times, which makes it fourth
#: order in time, and steps this many times longer than ``rk4_max_step``
#: (safety 0.04): it still beats the midpoint-frozen walk at 0.01 in accuracy.
STAGE_TIME_STEP_FACTOR = 4

#: Allowed drift of the density-matrix trace over a full integration.
TRACE_TOL = 1e-6

#: Largest RK4 step map ``lindblad_evolve`` builds: 16 MiB, dimension 32 (l = 10).
STEP_MAP_MAX_BYTES = 16 * 2**20

#: Time of one small numpy call in complex multiply-adds, fitted to timed
#: runs of both paths (CHANGES.md) for the least time lost to wrong picks.
CALL_COST = 1600


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


def _rk4_step(
    h: np.ndarray, rho: np.ndarray, dt: float, collapse: _Collapse,
    h_mid: np.ndarray | None = None, h_end: np.ndarray | None = None,
) -> np.ndarray:
    """One classical RK4 step of the master equation.

    ``h`` is H at the start of the step.  A time-dependent caller also passes
    H at its middle and end, the stage times of non-autonomous RK4, which
    keeps the step fourth order in time; with ``h`` alone H is held fixed.
    """
    h_mid = h if h_mid is None else h_mid
    h_end = h if h_end is None else h_end
    k1 = _lindblad_rhs(h, rho, collapse)
    k2 = _lindblad_rhs(h_mid, rho + 0.5 * dt * k1, collapse)
    k3 = _lindblad_rhs(h_mid, rho + 0.5 * dt * k2, collapse)
    k4 = _lindblad_rhs(h_end, rho + dt * k3, collapse)
    return rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _liouvillian(h: np.ndarray, collapse: _Collapse) -> np.ndarray:
    """``_lindblad_rhs`` as one matrix acting on ``rho.reshape(-1)``.

    Row-major flattening turns ``A @ rho @ B`` into ``kron(A, B.T)`` applied to
    the flattened ``rho`` (the ``spre``/``spost`` construction), and the
    elementwise decay ``-D * rho`` into a diagonal.  The one-sided terms of
    every general operator are summed before the Kronecker products, and the
    jump terms ``op @ rho @ op^dagger`` are summed by one tensor contraction.
    """
    dim = h.shape[0]
    decay, general = collapse
    anti = sum((opd_op for _, opd_op in general), np.zeros_like(h))
    eye = np.eye(dim)
    gen = np.kron(-1j * h - 0.5 * anti, eye) + np.kron(eye, (1j * h - 0.5 * anti).T)
    if decay is not None:
        gen[np.diag_indices_from(gen)] -= decay.reshape(-1)
    if general:
        ops = np.array([op for op, _ in general])
        jumps = np.tensordot(ops, ops.conj(), axes=(0, 0))  # [a, b, c, d] = sum op_ab conj(op_cd)
        gen += jumps.transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim)
    return gen


def _rk4_map(generator: np.ndarray, dt: float) -> np.ndarray:
    """``_rk4_step`` of the linear equation ``d vec/dt = generator @ vec`` as one matrix.

    For a linear right-hand side the four stages collapse to the polynomial
    ``I + A + A^2/2 + A^3/6 + A^4/24`` with ``A = dt * generator``, built in
    Horner form with three matrix products.
    """
    a = dt * generator
    diag = np.diag_indices_from(a)
    step = a / 24
    step[diag] += 1 / 6
    for c in (0.5, 1.0, 1.0):
        step = a @ step
        step[diag] += c
    return step


def _step_map_pays(dim: int, n_general: int, n_steps: int, n_maps: int) -> bool:
    """Whether ``n_maps`` RK4 step maps plus ``n_steps`` products with them beat ``n_steps`` RK4 steps.

    Costs count complex multiply-adds, plus ``CALL_COST`` for each numpy call.
    One ``_rk4_step`` makes ``37 + 36 * n_general`` calls and
    ``4 * (2 + 4 * n_general)`` products of ``dim x dim`` matrices; a map
    costs three products of ``dim^2 x dim^2`` matrices, then one
    matrix-vector product per substep.  A map above ``STEP_MAP_MAX_BYTES`` is
    refused whatever the costs say.
    """
    n = dim * dim
    if 16 * n * n > STEP_MAP_MAX_BYTES:
        return False
    stepping = n_steps * ((37 + 36 * n_general) * CALL_COST + 4 * (2 + 4 * n_general) * dim**3)
    mapping = n_maps * 3 * n**3 + n_steps * (n * n + CALL_COST)
    return mapping < stepping


def spectral_norm(operator: HermitianOperator | np.ndarray) -> float:
    h = operator.matrix if isinstance(operator, HermitianOperator) else np.asarray(operator)
    if h.size == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvalsh(h)).max())


def rk4_max_step(h_norm: float, max_rate: float) -> float:
    return STEP_SAFETY / max(h_norm, max_rate, 1e-12)


def _substeps(
    state: np.ndarray,
    checkpoints: np.ndarray,
    step: float,
    advance: Callable[[np.ndarray, np.ndarray, float], np.ndarray],
) -> Iterator[tuple[int, float, np.ndarray]]:
    """Carry ``state`` from time 0 through sorted checkpoints in short substeps.

    Each gap between checkpoints is cut into ``max(1, ceil(span / step))``
    equal substeps of length ``dt``.  ``advance(state, midpoints, dt)`` is
    called once per gap with the array of that gap's substep midpoints, in
    time order, and returns the state after taking every substep in turn:
    with the Hamiltonian frozen at each midpoint (the closed ramp), fixed
    (``lindblad_evolve``), or evaluated at RK4's stage times around each
    midpoint (the dephased ramp).  Working a gap at a time lets ``advance``
    batch per-substep work (building or diagonalizing the Hamiltonians) while
    its memory stays bounded by one gap.  Yields ``(index, time, state)`` at
    every checkpoint.  A density matrix, or a stack of them along the first
    axis, has every trace checked there first.

    Raises
    ------
    NumericalError : if a density-matrix trace drifts by more than
        ``TRACE_TOL`` or stops being finite, which means the step is too large.
    """
    now = 0.0
    for i, target in enumerate(checkpoints):
        span = target - now
        if span > 0:
            n_sub = max(1, math.ceil(span / step))
            dt = span / n_sub
            state = advance(state, now + (np.arange(n_sub) + 0.5) * dt, dt)
            now = target
        if state.ndim >= 2:
            drift = abs(state.trace(axis1=-2, axis2=-1).real - 1.0).max()
            if not drift <= TRACE_TOL:  # also rejects NaN
                raise NumericalError(
                    f"density-matrix trace drifted by {drift:.3e} at Jt={target:g} "
                    f"(step {step:.3e}); reduce the step"
                )
        yield i, target, state


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
        ``h * max(norm(H), max rate) <= 0.05``.
    keep_states : also return the density matrix at every sample time.

    With H fixed, one RK4 step is a fixed linear map on the flattened
    density matrix, so each substep can be one matrix-vector product with a
    precomputed ``_rk4_map`` (one per distinct substep length) instead of four
    right-hand-side evaluations.  Both paths take the same RK4 steps on the
    same grid and agree to round-off.  Building a map costs about ``dim^6``
    multiply-adds, while a step costs mostly Python and numpy call overhead,
    so the map only pays for small ``dim``, many substeps or many
    non-diagonal collapse operators.  ``_step_map_pays`` weighs the two from
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

    # The substep grid of ``_substeps``: the number and lengths of the substeps.
    spans = np.diff(t, prepend=0.0)
    spans = spans[spans > 0]
    n_sub = np.maximum(1.0, np.ceil(spans / step))
    n_maps = len(set((spans / n_sub).tolist()))
    if _step_map_pays(rho0.dim, len(collapse[1]), int(n_sub.sum()), n_maps):
        generator = _liouvillian(h, collapse)
        maps: dict[float, np.ndarray] = {}

        def advance(rho: np.ndarray, midpoints: np.ndarray, dt: float) -> np.ndarray:
            step_map = maps.get(dt)
            if step_map is None:
                step_map = maps[dt] = _rk4_map(generator, dt)
            vec = rho.reshape(-1)
            for _ in midpoints:
                vec = step_map @ vec
            return vec.reshape(rho.shape)

    else:

        def advance(rho: np.ndarray, midpoints: np.ndarray, dt: float) -> np.ndarray:
            for _ in midpoints:
                rho = _rk4_step(h, rho, dt, collapse)
            return rho

    for i, _, rho in _substeps(np.array(rho0.matrix, dtype=complex), t, step, advance):
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
