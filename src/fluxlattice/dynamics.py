"""Closed-system evolution, population traces, and exact effective-model mappings.

Propagation uses full eigendecomposition (exact up to floating point); the
lattice sizes of interest are small enough that the cubic cost is irrelevant,
and exactness keeps the caging bounds sharp instead of integrator-limited.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, NumericalError
from .lattice import (
    PI,
    HermitianOperator,
    Kind,
    Rail,
    RhombicLattice,
    SiteId,
    as_site,
    config_field,
    csv_text,
    hamiltonian_single_excitation,
    site_labels,
    uniform_flux,
)

SQRT2 = math.sqrt(2.0)

#: Row sums of a population trace may not exceed 1 by more than this.
ROW_SUM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class StateVector:
    """A normalized state in the single-excitation (or any finite) basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.ndim != 1:
            raise ConfigError("state amplitudes must be a 1-d vector")
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-10:
            raise ConfigError(f"state norm is {norm!r}, expected 1 within 1e-10")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @classmethod
    def from_site(cls, lattice: RhombicLattice, site: SiteId | str) -> "StateVector":
        """The excitation localized on one site."""
        amp = np.zeros(lattice.num_sites, dtype=complex)
        amp[lattice.site_index(site)] = 1.0
        return cls(amp)

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True, eq=False)
class PopulationTrace:
    """Per-site occupation probabilities sampled on a time grid (times in 1/J)."""

    times: np.ndarray
    populations: np.ndarray
    site_labels: tuple[str, ...] = ()

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        pops = np.array(self.populations, dtype=float)
        if times.ndim != 1 or pops.ndim != 2 or pops.shape[0] != times.shape[0]:
            raise ConfigError("populations must be a [time x site] matrix")
        if not self.site_labels:
            object.__setattr__(self, "site_labels", tuple(f"s{i}" for i in range(pops.shape[1])))
        elif len(self.site_labels) != pops.shape[1]:
            raise ConfigError("one site label per population column required")
        if pops.min() < -ROW_SUM_TOL or pops.max() > 1 + ROW_SUM_TOL:
            raise ConfigError("populations must lie in [0, 1]")
        if pops.sum(axis=1).max() > 1 + ROW_SUM_TOL:
            raise ConfigError("population row sums exceed 1")
        times.setflags(write=False)
        pops.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "populations", pops)

    @property
    def num_sites(self) -> int:
        return self.populations.shape[1]

    def column(self, label: str) -> np.ndarray:
        try:
            return self.populations[:, self.site_labels.index(label)]
        except ValueError:
            raise ConfigError(f"no trace column for site {label!r}") from None

    def csv_table(self, extra_columns: Mapping[str, np.ndarray] | None = None) -> tuple[list[str], np.ndarray]:
        """Header ``Jt,n_<site>,...`` plus any extra columns, and the rows under it."""
        extras = dict(extra_columns or {})
        header = ["Jt", *(_column_name(lbl) for lbl in self.site_labels), *extras]
        return header, np.column_stack([self.times, self.populations, *extras.values()])

    def write_csv(self, path: str | Path, extra_columns: Mapping[str, np.ndarray] | None = None) -> None:
        """Write ``Jt,n_<site>,...`` rows with fixed 12-digit formatting."""
        Path(path).write_text(csv_text(*self.csv_table(extra_columns)))

    def to_json_dict(self, metadata: Mapping | None = None) -> dict:
        doc = {
            "schema": 1,
            "kind": "population_trace",
            "site_labels": list(self.site_labels),
            "times": self.times.tolist(),
            "populations": self.populations.tolist(),
        }
        if metadata:
            doc["metadata"] = dict(metadata)
        return doc

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "PopulationTrace":
        if not isinstance(doc, Mapping) or doc.get("kind") != "population_trace":
            raise ConfigError("JSON document is not a population trace")
        field = partial(config_field, "population trace", doc)
        return cls(field("times", _ARRAY), field("populations", _ARRAY), field("site_labels", _LABELS))


#: Trace file fields, checked as a whole by ``PopulationTrace``.
_ARRAY = Kind("an array of numbers", None, load=lambda v: np.array(v, dtype=float))
_LABELS = Kind("a list of labels", None, load=tuple)


def _column_name(label: str) -> str:
    return "n_" + label.replace(",", "")


def _as_matrix(operator: HermitianOperator | np.ndarray) -> np.ndarray:
    if isinstance(operator, HermitianOperator):
        return operator.matrix
    return HermitianOperator(np.asarray(operator)).matrix


def _as_vector(state: StateVector | np.ndarray) -> np.ndarray:
    if isinstance(state, StateVector):
        return state.amplitudes
    return StateVector(np.asarray(state)).amplitudes


def _check_times(times: Sequence[float]) -> np.ndarray:
    t = np.array(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ConfigError("times must be a nonempty 1-d vector")
    if not np.all(np.isfinite(t)):
        raise ConfigError("times contain non-finite values")
    if t[0] < 0 or np.any(np.diff(t) < 0):
        raise ConfigError("times must be sorted and nonnegative")
    return t


def evolve_amplitudes(
    operator: HermitianOperator | np.ndarray,
    psi0: StateVector | np.ndarray,
    times: Sequence[float],
) -> np.ndarray:
    """Amplitudes ``psi(t) = exp(-i H t) psi0`` as a [time x dim] array.

    Raises
    ------
    NumericalError : if an amplitude is not finite, as when ``t`` times an
        energy overflows.
    """
    h = _as_matrix(operator)
    psi = _as_vector(psi0)
    if h.shape[0] != psi.shape[0]:
        raise ConfigError(f"dimension mismatch: H is {h.shape[0]}, state is {psi.shape[0]}")
    t = _check_times(times)
    energies, vectors = np.linalg.eigh(h)
    coeff = vectors.conj().T @ psi
    phases = np.exp(-1j * np.outer(t, energies))
    amplitudes = (phases * coeff) @ vectors.T
    if not np.all(np.isfinite(amplitudes)):
        raise NumericalError("propagated amplitudes are not finite: a time or an energy overflows")
    return amplitudes


def evolve_unitary(
    operator: HermitianOperator | np.ndarray,
    psi0: StateVector | np.ndarray,
    times: Sequence[float],
    site_labels: Sequence[str] = (),
) -> PopulationTrace:
    """Exact closed-system populations ``|<site|psi(t)>|^2`` on the time grid."""
    states = evolve_amplitudes(operator, psi0, times)
    pops = np.abs(states) ** 2
    # Guard against eigh round-off pushing a row marginally past 1.
    np.clip(pops, 0.0, 1.0, out=pops)
    return PopulationTrace(np.array(times, dtype=float), pops, tuple(site_labels))


def evolve_lattice(
    lattice: RhombicLattice,
    init_site: SiteId | str,
    times: Sequence[float],
) -> PopulationTrace:
    """Convenience wrapper: evolve a single-site excitation on a lattice."""
    h = hamiltonian_single_excitation(lattice)
    psi0 = StateVector.from_site(lattice, init_site)
    return evolve_unitary(h, psi0, times, site_labels(lattice.l))


def default_time_grid(t_max: float = 4 * PI, n_points: int = 401) -> np.ndarray:
    """The standard reproduction grid, Jt in [0, t_max]."""
    return np.linspace(0.0, t_max, n_points)


# ---------------------------------------------------------------------------
# Bell-pair (+/-) basis
# ---------------------------------------------------------------------------


def pm_labels(l: int) -> tuple[str, ...]:
    """Labels of the transformed basis, (A,1), (+,1), (-,1), (A,2), ..."""
    out: list[str] = []
    for j in range(1, l + 1):
        out += [f"A,{j}", f"+,{j}", f"-,{j}"]
    out.append(f"A,{l + 1}")
    return tuple(out)


def pm_transform_matrix(dim: int) -> np.ndarray:
    """Orthogonal involution mapping each (up, dn) pair to (+, -).

    The A sites are untouched; in flat order the (+, -) states occupy the
    (up, dn) slots.  The matrix is real symmetric, so it is its own inverse.
    """
    if dim < 4 or (dim - 1) % 3 != 0:
        raise ConfigError(f"dimension {dim} is not of the rhombic form 3l+1")
    w = np.zeros((dim, dim))
    l = (dim - 1) // 3
    for j in range(l):
        a = 3 * j
        w[a, a] = 1.0
        w[a + 1, a + 1] = w[a + 1, a + 2] = 1 / SQRT2
        w[a + 2, a + 1] = 1 / SQRT2
        w[a + 2, a + 2] = -1 / SQRT2
    w[dim - 1, dim - 1] = 1.0
    return w


def pm_basis_transform(obj):
    """Change of basis between site ((up, dn)) and Bell ((+, -)) pairs.

    Accepts a ``StateVector``, a ``HermitianOperator``, or a raw 1-d/2-d
    array, and returns the same kind of object.  Applying the transform twice
    returns the original (the transform is an involution).
    """
    if isinstance(obj, StateVector):
        w = pm_transform_matrix(obj.dim)
        return StateVector(w @ obj.amplitudes)
    if isinstance(obj, HermitianOperator):
        w = pm_transform_matrix(obj.dim)
        return HermitianOperator(w @ obj.matrix @ w)
    arr = np.asarray(obj)
    w = pm_transform_matrix(arr.shape[-1])
    if arr.ndim == 1:
        return w @ arr
    if arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
        return w @ arr @ w
    raise ConfigError("expected a state vector or a square operator")


# ---------------------------------------------------------------------------
# Effective models in the Bell basis
# ---------------------------------------------------------------------------


class EffectiveModelKind(enum.Enum):
    CHAIN = "chain"
    BLOCKS = "blocks"
    TRIMER = "trimer"


@dataclass(frozen=True, eq=False)
class EffectiveModel:
    """1-d model equivalent to the rhombic lattice in the Bell basis.

    ``couplings`` holds signed hopping strengths between labelled sites; sites
    absent from every coupling are decoupled (flat-band states).
    """

    kind: EffectiveModelKind
    sites: tuple[str, ...]
    couplings: tuple[tuple[str, str, float], ...]

    def hamiltonian(self) -> HermitianOperator:
        index = {label: i for i, label in enumerate(self.sites)}
        h = np.zeros((len(self.sites), len(self.sites)), dtype=complex)
        for a, b, strength in self.couplings:
            h[index[a], index[b]] += strength
            h[index[b], index[a]] += strength
        return HermitianOperator(h)

    def components(self) -> tuple[frozenset[str], ...]:
        """Connected components of the coupling graph (singletons included)."""
        parent = {s: s for s in self.sites}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b, strength in self.couplings:
            if strength != 0.0:
                parent[find(a)] = find(b)
        groups: dict[str, set[str]] = {}
        for s in self.sites:
            groups.setdefault(find(s), set()).add(s)
        return tuple(frozenset(g) for g in groups.values())


def _expect_antisymmetric(lattice: RhombicLattice, delta: float) -> None:
    scale = max(1.0, abs(delta), lattice.J)
    for site in lattice.sites:
        expected = {Rail.A: 0.0, Rail.UP: delta, Rail.DOWN: -delta}[site.rail]
        if abs(lattice.detunings[site] - expected) > 1e-12 * scale:
            raise ConfigError(
                "lattice detunings are not the anti-symmetric pattern "
                f"(+/-{delta} on the arm rails): site {site.label} has "
                f"{lattice.detunings[site]}"
            )


def antisymmetric_detunings(l: int, delta: float) -> dict[SiteId, float]:
    """Detuning map with +delta on the up rail and -delta on the down rail."""
    out: dict[SiteId, float] = {}
    for j in range(1, l + 1):
        out[SiteId(Rail.UP, j)] = delta
        out[SiteId(Rail.DOWN, j)] = -delta
    return out


def effective_model(lattice: RhombicLattice, delta_antisym: float) -> EffectiveModel:
    """Map a uniform-flux lattice with anti-symmetric detuning to its 1-d model.

    Zero flux gives the spine-plus chain with couplings sqrt(2) J (plus
    detuning-coupled dangling ``-`` sites when delta is nonzero).  Pi flux
    gives decoupled blocks at delta = 0, the homogeneous chain at
    delta = sqrt(2) J, and otherwise a trimer lattice whose inter-cell
    coupling is the detuning.
    """
    flux = uniform_flux(lattice)
    _expect_antisymmetric(lattice, delta_antisym)
    l, j_mag = lattice.l, lattice.J
    labels = pm_labels(l)
    couplings: list[tuple[str, str, float]] = []
    for j in range(1, l + 1):
        couplings.append((f"A,{j}", f"+,{j}", -SQRT2 * j_mag))
        partner = f"+,{j}" if flux == 0.0 else f"-,{j}"
        couplings.append((f"A,{j + 1}", partner, -SQRT2 * j_mag))
        if delta_antisym != 0.0:
            couplings.append((f"+,{j}", f"-,{j}", delta_antisym))
    scale = max(1.0, j_mag, abs(delta_antisym))
    if flux == 0.0:
        kind = EffectiveModelKind.CHAIN
    elif delta_antisym == 0.0:
        kind = EffectiveModelKind.BLOCKS
    elif abs(delta_antisym - SQRT2 * j_mag) <= 1e-12 * scale:
        kind = EffectiveModelKind.CHAIN
    else:
        kind = EffectiveModelKind.TRIMER
    return EffectiveModel(kind, labels, tuple(couplings))


def effective_model_amplitudes(
    lattice: RhombicLattice,
    delta_antisym: float,
    psi0: StateVector | np.ndarray,
    times: Sequence[float],
) -> np.ndarray:
    """Bell-basis amplitudes [time x dim] of a site-basis state under the effective model.

    The state is mapped into the Bell basis and propagated exactly with the
    effective model of ``lattice``; multiply by ``pm_transform_matrix`` on
    the right to return to the site basis.
    """
    model = effective_model(lattice, delta_antisym)
    w = pm_transform_matrix(lattice.num_sites)
    return evolve_amplitudes(model.hamiltonian(), w @ _as_vector(psi0), times)


def verify_equivalence(
    lattice: RhombicLattice,
    delta_antisym: float,
    psi0: StateVector | np.ndarray,
    times: Sequence[float],
) -> float:
    """Max population deviation between the full lattice and its effective model.

    Both sides are propagated exactly; the full-lattice state is mapped into
    the Bell basis before comparing, which keeps the check gauge insensitive.
    """
    pops_eff = np.abs(effective_model_amplitudes(lattice, delta_antisym, psi0, times)) ** 2
    states_full = evolve_amplitudes(hamiltonian_single_excitation(lattice), psi0, times)
    w = pm_transform_matrix(lattice.num_sites)
    pops_full = np.abs(states_full @ w) ** 2  # w is symmetric
    return float(np.abs(pops_full - pops_eff).max())


# ---------------------------------------------------------------------------
# Pi-flux block structure (caging support)
# ---------------------------------------------------------------------------


def pi_flux_blocks(l: int) -> tuple[tuple[str, ...], ...]:
    """Decoupled components of the pi-flux lattice in Bell-basis labels.

    Two-site blocks sit at the edges; each bulk spine site belongs to a
    three-site block with its neighbouring ``-`` and ``+`` states.
    """
    blocks: list[tuple[str, ...]] = [("A,1", "+,1")]
    for j in range(2, l + 1):
        blocks.append((f"-,{j - 1}", f"A,{j}", f"+,{j}"))
    blocks.append((f"-,{l}", f"A,{l + 1}"))
    return tuple(blocks)


def caged_sites(l: int, init_site: SiteId | str) -> frozenset[SiteId]:
    """Sites reachable from an initial excitation when every plaquette has pi flux.

    An A-site excitation lives in one block; an arm-site excitation splits
    over the blocks of its two Bell combinations.  Populations outside the
    returned set stay at zero for all times.
    """
    site = as_site(init_site)
    if site.rail is Rail.A:
        seeds = {f"A,{site.cell}"}
    else:
        seeds = {f"+,{site.cell}", f"-,{site.cell}"}
    reachable: set[str] = set()
    for block in pi_flux_blocks(l):
        if seeds & set(block):
            reachable.update(block)
    out: set[SiteId] = set()
    for label in reachable:
        kind, cell = label.split(",")
        if kind == "A":
            out.add(SiteId(Rail.A, int(cell)))
        else:
            out.add(SiteId(Rail.UP, int(cell)))
            out.add(SiteId(Rail.DOWN, int(cell)))
    return frozenset(out)
