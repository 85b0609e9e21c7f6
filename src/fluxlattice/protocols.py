"""The three experiment procedures: caging benchmark, spectroscopy, adiabatic prep.

Each routine is a pure function of its configuration, so sweeps over drive
detunings or schedules parallelize trivially with order-independent results.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, NumericalError
from .lattice import (
    FINITE,
    NONNEGATIVE,
    PI,
    RhombicLattice,
    SiteId,
    _site_map,
    as_site,
    build_lattice,
    config_field,
    csv_text,
    hamiltonian_single_excitation,
    parse_flux,
    site_labels,
)
from .dynamics import (
    SQRT2,
    PopulationTrace,
    StateVector,
    caged_sites,
    evolve_unitary,
)
from .open_system import (
    DephasingRates,
    _Ramp,
    _bhattacharyya,
    _closed_walk,
    _collapse_terms,
    _embed_vacuum,
    _split_walk,
    dephasing_operators,
    fidelity,
)

#: Flat-order permutation of the analytic single-plaquette basis (A1, up1, A2, dn1).
_RING_TO_FLAT = (0, 1, 3, 2)


def analytic_plaquette_populations(
    flux: float, init_site: SiteId | str, times: Sequence[float], J: float = 1.0
) -> np.ndarray:
    """Closed-form populations of the four-site plaquette, flat site order.

    The l = 1 propagator is known in closed form for both flux values; this
    evaluates it directly (no diagonalization), which makes it an independent
    oracle for the matrix-based evolution.
    """
    t = np.asarray(times, dtype=float) * J
    site = as_site(init_site)
    col = {"A,1": 0, "up,1": 1, "A,2": 2, "dn,1": 3}.get(site.label)
    if col is None:
        raise ConfigError(f"site {site.label} is not on the single plaquette")
    u = np.zeros((t.size, 4, 4), dtype=complex)
    if parse_flux(flux) == 0.0:
        c, s = np.cos(t), np.sin(t)
        sc = -1j * s * c
        u[:, 0], u[:, 1] = np.stack([c**2, sc, -(s**2), sc], 1), np.stack([sc, c**2, sc, -(s**2)], 1)
        u[:, 2], u[:, 3] = np.stack([-(s**2), sc, c**2, sc], 1), np.stack([sc, -(s**2), sc, c**2], 1)
    else:
        cc, ss = np.cos(SQRT2 * t), -1j * np.sin(SQRT2 * t) / SQRT2
        zero = np.zeros_like(cc)
        u[:, 0], u[:, 1] = np.stack([cc, ss, zero, ss], 1), np.stack([ss, cc, ss, zero], 1)
        u[:, 2], u[:, 3] = np.stack([zero, ss, cc, -ss], 1), np.stack([ss, zero, -ss, cc], 1)
    pops_ring = np.abs(u[:, :, col]) ** 2
    return pops_ring[:, _RING_TO_FLAT]


@dataclass(frozen=True, eq=False)
class CagingResult:
    trace: PopulationTrace
    analytic_deviation: float | None
    allowed_sites: frozenset[SiteId] | None


def caging_benchmark(
    l: int, flux: float, init_site: SiteId | str, times: Sequence[float], J: float = 1.0
) -> CagingResult:
    """Evolve a single-site excitation at uniform flux and benchmark it.

    For a single plaquette the result is compared against the closed-form
    propagator and the maximum deviation is reported; at pi flux the set of
    sites the excitation can ever reach is attached for interference checks.
    """
    flux = parse_flux(flux)
    lattice = build_lattice(l, [flux] * l, J=J)
    trace = evolve_unitary(
        hamiltonian_single_excitation(lattice),
        StateVector.from_site(lattice, init_site),
        times,
        site_labels(l),
    )
    deviation = None
    if l == 1:
        exact = analytic_plaquette_populations(flux, init_site, times, J)
        deviation = float(np.abs(trace.populations - exact).max())
    allowed = caged_sites(l, init_site) if flux == PI else None
    return CagingResult(trace, deviation, allowed)


# ---------------------------------------------------------------------------
# Eigenstate spectroscopy
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpectroscopyConfig:
    """Drive parameters for single-excitation spectroscopy.

    The probe tone of amplitude ``drive_amplitude`` couples the vacuum to one
    site; scanning its detuning against the common qubit frequency maps out
    the single-excitation eigenenergies.  ``min_peak_separation`` merges
    detections closer than the given spacing; the default is half the
    smallest level spacing, since the finite pulse window leaves Rabi
    sidelobes around each true peak and the drive cannot resolve structure
    finer than a level spacing anyway.
    """

    drive_site: SiteId | str
    drive_amplitude: float
    drive_detunings: np.ndarray
    duration: float
    n_average: int = 65
    min_peak_separation: float | None = None

    def __post_init__(self):
        grid = np.array(self.drive_detunings, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise ConfigError("drive detuning grid must be a nonempty vector")
        if not np.all(np.isfinite(grid)):
            raise ConfigError("drive detuning grid must be finite")
        if np.any(np.diff(grid) <= 0):
            raise ConfigError("drive detuning grid must be strictly increasing")
        if not 0 <= self.drive_amplitude < math.inf:
            raise ConfigError("drive amplitude must be finite and nonnegative")
        if not 0 < self.duration < math.inf:
            raise ConfigError("drive duration must be finite and positive")
        if self.n_average < 2:
            raise ConfigError("need at least 2 averaging samples")
        grid.setflags(write=False)
        object.__setattr__(self, "drive_detunings", grid)


@dataclass(frozen=True, eq=False)
class SpectroscopyResult:
    detunings: np.ndarray
    excited_population: np.ndarray
    detected_peaks: tuple[float, ...]

    def csv_table(self) -> tuple[list[str], np.ndarray]:
        """Header ``delta_over_J,excited_population`` and the rows under it."""
        return ["delta_over_J", "excited_population"], np.column_stack([self.detunings, self.excited_population])

    def write_csv(self, path: str | Path) -> None:
        Path(path).write_text(csv_text(*self.csv_table()))


def _distinct_gaps(energies: np.ndarray, scale: float) -> float:
    """Smallest spacing between distinct eigenvalues (degeneracies collapsed)."""
    distinct = [energies[0]]
    for e in energies[1:]:
        if e - distinct[-1] > 1e-9 * max(scale, 1.0):
            distinct.append(e)
    if len(distinct) < 2:
        return math.inf
    return float(np.diff(distinct).min())


def spectroscopy(lattice: RhombicLattice, config: SpectroscopyConfig) -> SpectroscopyResult:
    """Scan the probe detuning and record the time-averaged excited population.

    For each detuning the vacuum is evolved under the rotating-frame
    Hamiltonian (lattice block shifted by the detuning, probe coupling the
    vacuum to the drive site) for the configured duration; the total
    single-excitation population is averaged over the last quarter of the
    evolution to suppress Rabi fringes.  Detected peaks are local maxima above
    three times the median background, refined by parabolic interpolation.

    Raises
    ------
    NumericalError : if the response is not finite, as when the drive
        amplitude overflows the propagation.
    """
    if any(v != 0.0 for v in lattice.detunings.values()):
        raise ConfigError("spectroscopy requires all lattice detunings at zero")
    h_lattice = hamiltonian_single_excitation(lattice).matrix
    scale = max(lattice.J, 1e-12)
    min_gap = _distinct_gaps(np.linalg.eigvalsh(h_lattice), scale)
    if config.drive_amplitude > min_gap / 4:
        warnings.warn(
            f"drive amplitude {config.drive_amplitude:g} exceeds a quarter of the "
            f"smallest level spacing {min_gap:g}; peaks may merge",
            stacklevel=2,
        )
    dim = lattice.num_sites + 1
    drive_index = 1 + lattice.site_index(config.drive_site)
    base = _embed_vacuum(h_lattice)
    base[0, drive_index] = base[drive_index, 0] = config.drive_amplitude
    number_diag = np.ones(dim)
    number_diag[0] = 0.0
    t_samples = np.linspace(0.75 * config.duration, config.duration, config.n_average)

    # One stacked eigh; each vacuum amplitude repeats ``evolve_amplitudes``' arithmetic
    # from the vacuum, one detuning at a time so temporaries stay one detuning in size.
    h_rot = base - config.drive_detunings[:, None, None] * np.diag(number_diag)
    energies, vectors = np.linalg.eigh(h_rot)
    response = np.empty(config.drive_detunings.size)
    for i, (e, v) in enumerate(zip(energies, vectors)):
        vacuum = ((np.exp(-1j * np.outer(t_samples, e)) * v[0].conj()) @ v.T)[:, 0]
        response[i] = float(np.mean(1.0 - np.abs(vacuum) ** 2))
    if not np.all(np.isfinite(response)):
        raise NumericalError("spectroscopy response is not finite: a drive amplitude, detuning or time overflows")

    if config.min_peak_separation is not None:
        radius, leak_fraction = config.min_peak_separation, 1.0
    else:
        # Rectangular-window leakage: sidelobes of ~5% of the parent peak
        # within a few lobe widths of it.  Merge only small nearby maxima so
        # genuine peaks of comparable height are never swallowed.
        radius, leak_fraction = 4 * PI / config.duration, 0.15
    peaks = _detect_peaks(config.drive_detunings, response, radius, leak_fraction)
    return SpectroscopyResult(config.drive_detunings, response, tuple(peaks))


def _detect_peaks(
    grid: np.ndarray, values: np.ndarray, radius: float, leak_fraction: float
) -> list[float]:
    """Local maxima above 3x the median, deduplicated and parabolically refined.

    A maximum within ``radius`` of an already-kept taller peak is dropped when
    its height is below ``leak_fraction`` of that peak.
    """
    threshold = 3.0 * float(np.median(values))
    candidates = [
        i
        for i in range(1, len(values) - 1)
        if values[i] > values[i - 1] and values[i] >= values[i + 1] and values[i] > threshold
    ]
    candidates.sort(key=lambda i: values[i], reverse=True)
    kept: list[int] = []
    for i in candidates:
        shadowed = any(
            abs(grid[i] - grid[k]) < radius and values[i] < leak_fraction * values[k]
            for k in kept
        )
        if not shadowed:
            kept.append(i)
    positions = []
    for i in kept:
        # Parabolic refinement through the three points around the maximum.
        y0, y1, y2 = values[i - 1], values[i], values[i + 1]
        denom = y0 - 2 * y1 + y2
        shift = 0.0 if denom == 0 else 0.5 * (y0 - y2) / denom
        spacing = grid[i + 1] - grid[i]
        positions.append(float(grid[i] + np.clip(shift, -1, 1) * spacing))
    return sorted(positions)


# ---------------------------------------------------------------------------
# Adiabatic ground-state preparation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RampSegment:
    """One piecewise-linear leg of a ramp: coupling and detunings move together."""

    duration: float
    j_start: float
    j_end: float
    detuning_start: Mapping[SiteId, float] = field(default_factory=dict)
    detuning_end: Mapping[SiteId, float] = field(default_factory=dict)

    def __post_init__(self):
        if not 0 <= self.duration < math.inf:
            raise ConfigError("segment duration must be finite and nonnegative")
        if not all(0 <= j < math.inf for j in (self.j_start, self.j_end)):
            raise ConfigError("couplings must stay finite and nonnegative")
        for name in ("detuning_start", "detuning_end"):
            values = {as_site(s): float(v) for s, v in getattr(self, name).items()}
            if not all(math.isfinite(v) for v in values.values()):
                raise ConfigError("segment detunings must be finite")
            object.__setattr__(self, name, values)


@dataclass(frozen=True, eq=False)
class RampSchedule:
    """A continuous, piecewise-linear schedule for J(t) and the detunings."""

    segments: tuple[RampSegment, ...]

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ConfigError("schedule needs at least one segment")
        for prev, cur in zip(segs, segs[1:]):
            if abs(prev.j_end - cur.j_start) > 1e-12:
                raise ConfigError("schedule discontinuous in J at a segment boundary")
            sites = set(prev.detuning_end) | set(cur.detuning_start)
            for s in sites:
                if abs(prev.detuning_end.get(s, 0.0) - cur.detuning_start.get(s, 0.0)) > 1e-12:
                    raise ConfigError(
                        f"schedule discontinuous in the detuning of {s.label}"
                    )
        object.__setattr__(self, "segments", segs)

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.segments)

    @property
    def sites(self) -> tuple[SiteId, ...]:
        """Every site the schedule detunes, in order of first appearance."""
        seen: dict[SiteId, None] = {}
        for seg in self.segments:
            seen.update(dict.fromkeys(seg.detuning_start))
            seen.update(dict.fromkeys(seg.detuning_end))
        return tuple(seen)

    def _locate(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Segment index and fraction through it at each time (clamped to the schedule).

        Times at or before 0 sit at the start of the first segment, times past
        the end at the end of the last; a zero-duration segment is entered at
        its end.  Durations are subtracted one segment at a time, so every
        fraction equals that of a scalar walk through the segments bit for bit.
        """
        remaining = np.array(times, dtype=float)
        index = np.zeros(remaining.shape, dtype=int)
        frac = np.zeros(remaining.shape)
        open_ = remaining > 0
        last = len(self.segments) - 1
        for k, seg in enumerate(self.segments):
            hit = open_ & ((remaining <= seg.duration) | (k == last))
            index[hit] = k
            frac[hit] = 1.0 if seg.duration == 0 else np.minimum(remaining[hit] / seg.duration, 1.0)
            open_ &= ~hit
            remaining -= seg.duration
        return index, frac

    def evaluator(
        self, sites: Sequence[SiteId]
    ) -> Callable[..., tuple[np.ndarray, np.ndarray]]:
        """Vectorized schedule over ``sites``: times -> (J per time, detuning per time and site).

        The per-segment coupling and detuning vectors are built here, once;
        the returned function interpolates ``start + frac * (end - start)``
        inside the segment ``_locate`` picks.  Called as
        ``evaluate(times, segment=k)`` it uses segment ``k``'s line at every
        time, extended past the segment's ends.
        """
        column = {site: i for i, site in enumerate(sites)}
        shape = (len(self.segments), len(column))
        d_start, d_end = np.zeros(shape), np.zeros(shape)
        for k, seg in enumerate(self.segments):
            for table, mapping in ((d_start, seg.detuning_start), (d_end, seg.detuning_end)):
                for site, value in mapping.items():
                    if site not in column:
                        raise ConfigError(f"schedule detunes {site.label}, which is not a lattice site")
                    table[k, column[site]] = value
        j_start = np.array([seg.j_start for seg in self.segments])
        j_end = np.array([seg.j_end for seg in self.segments])
        durations = [seg.duration for seg in self.segments]
        offsets = np.cumsum([0.0, *durations])

        def evaluate(times: np.ndarray, segment: int | None = None) -> tuple[np.ndarray, np.ndarray]:
            if segment is None:
                k, frac = self._locate(times)
            else:
                k = segment
                frac = (np.asarray(times, dtype=float) - offsets[segment]) / durations[segment]
            j = j_start[k] + frac * (j_end[k] - j_start[k])
            det = d_start[k] + frac[..., None] * (d_end[k] - d_start[k])
            return j, det

        return evaluate

    def at(self, t: float) -> tuple[float, dict[SiteId, float]]:
        """Coupling and detuning map at time ``t`` (clamped to the schedule)."""
        sites = self.sites
        j, det = self.evaluator(sites)(np.array([t], dtype=float))
        return float(j[0]), dict(zip(sites, det[0].tolist()))


def schedule_to_json(schedule: RampSchedule) -> list[dict]:
    """Schedule as a JSON-ready list of segment objects."""
    return [
        {
            "duration": seg.duration,
            "j_start": seg.j_start,
            "j_end": seg.j_end,
            "detuning_start": {s.label: v for s, v in seg.detuning_start.items()},
            "detuning_end": {s.label: v for s, v in seg.detuning_end.items()},
        }
        for seg in schedule.segments
    ]


def schedule_from_json(doc: Sequence[Mapping]) -> RampSchedule:
    if not isinstance(doc, (list, tuple)) or not all(isinstance(entry, Mapping) for entry in doc):
        raise ConfigError("a ramp schedule must be a JSON list of segment objects")

    def segment(entry: Mapping) -> RampSegment:
        field = partial(config_field, "ramp segment", entry)
        return RampSegment(
            *(field(key, NONNEGATIVE) for key in ("duration", "j_start", "j_end")),
            *(field(key, _site_map(FINITE), {}) for key in ("detuning_start", "detuning_end")),
        )

    return RampSchedule(tuple(segment(entry) for entry in doc))


def two_stage_ramp(
    lattice_final: RhombicLattice,
    init_site: SiteId | str,
    total_duration: float,
    initial_detuning: float | None = None,
) -> RampSchedule:
    """Couplings up first, then the initial-site detuning back to zero.

    The protocol text fixes only the order of the two ramps; equal-length
    linear segments are the simplest schedule consistent with it.  The
    initial detuning defaults to 4 J below the rest of the array, comfortably
    past the 3 J separation the preparation requires.
    """
    site = as_site(init_site)
    j_final = lattice_final.J
    d0 = -4.0 * j_final if initial_detuning is None else float(initial_detuning)
    if d0 >= 0:
        raise ConfigError("the initial site must start detuned below the others")
    half = 0.5 * total_duration
    return RampSchedule(
        (
            RampSegment(half, 0.0, j_final, {site: d0}, {site: d0}),
            RampSegment(half, j_final, j_final, {site: d0}, {site: 0.0}),
        )
    )


@dataclass(frozen=True, eq=False)
class AdiabaticResult:
    """Ramp diagnostics: instantaneous ground-space overlap and final fidelities."""

    times: np.ndarray
    gs_fidelity: np.ndarray
    gaps: np.ndarray
    final_populations: np.ndarray
    ground_populations: np.ndarray
    final_gs_overlap: float
    population_fidelity: float
    population_fidelity_raw: float


def _ground_projectors(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projector onto each (possibly degenerate) ground eigenspace of a stack of H, plus the gaps.

    One stacked ``eigh``.  The ground cluster holds every level within
    ``1e-9`` times the larger of the lowest and highest level's magnitude of
    the lowest; the gap runs to the first level outside it, the scale that
    controls adiabaticity, and is ``inf`` when every level is in it.
    """
    energies, vectors = np.linalg.eigh(h)
    scale = np.maximum(np.maximum(abs(energies[:, 0]), abs(energies[:, -1])), 1e-12)
    members = energies <= (energies[:, 0] + 1e-9 * scale)[:, None]
    ground = vectors * members[:, None, :]
    gaps = np.where(members, math.inf, energies).min(axis=1) - energies[:, 0]
    return ground @ ground.conj().swapaxes(1, 2), gaps


def _ground_weights(projectors: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Weight of each state vector, or vacuum + 1 density matrix, in its projector's space."""
    if states.ndim == 2:
        return np.einsum("ci,cij,cj->c", states.conj(), projectors, states).real
    return np.einsum("cij,cji->c", projectors, states[:, 1:, 1:]).real


def _validate_schedule(
    lattice_final: RhombicLattice, schedule: RampSchedule, init_site: SiteId
) -> None:
    j_ref = lattice_final.J
    j0, det0 = schedule.at(0.0)
    if abs(j0) > 1e-12 * max(j_ref, 1.0):
        raise ConfigError("schedule must start from the decoupled configuration (J = 0)")
    d_init = det0.get(init_site, 0.0)
    for site in lattice_final.sites:
        if site == init_site:
            continue
        if d_init - det0.get(site, 0.0) >= -3.0 * j_ref:
            raise ConfigError(
                "the initial site must start detuned more than 3 J below every "
                f"other site; offending site {site.label}"
            )
    j_end, det_end = schedule.at(schedule.total_duration)
    if abs(j_end - j_ref) > 1e-9 * max(j_ref, 1.0):
        raise ConfigError("schedule must end at the target coupling")
    for site in lattice_final.sites:
        target = lattice_final.detunings[site]
        if abs(det_end.get(site, 0.0) - target) > 1e-9 * max(j_ref, 1.0):
            raise ConfigError(f"schedule must end at the target detuning of {site.label}")


def _ramp_hamiltonians(
    lattice_final: RhombicLattice, schedule: RampSchedule
) -> Callable[..., np.ndarray]:
    """``hamiltonians(times, segment=None)``: the ramp's single-excitation H at each time, stacked.

    Hopping signs come from the final lattice; given ``segment``, its line is
    used at every time (``RampSchedule.evaluator``).
    """
    n = lattice_final.num_sites
    # Hopping pattern at unit coupling, signs taken from the final lattice.
    h_unit = hamiltonian_single_excitation(
        RhombicLattice(lattice_final.l, lattice_final.bonds, {}, 1.0)
    ).matrix
    coefficients = schedule.evaluator(lattice_final.sites)
    diagonal = np.arange(n)

    def hamiltonians(times: np.ndarray, segment: int | None = None) -> np.ndarray:
        j, det = coefficients(times, segment)
        # Exactly the entries ``np.diag`` gives per time; ``det * eye`` would
        # put -0.0 off the diagonal for negative detunings.
        detuning = np.zeros((j.size, n, n))
        detuning[:, diagonal, diagonal] = det
        return j[:, None, None] * h_unit + detuning

    return hamiltonians


def adiabatic_ramps(
    lattice_final: RhombicLattice, schedule: RampSchedule, init_site: SiteId | str,
    rate_sets: Sequence[DephasingRates] = (), *, n_checkpoints: int = 101,
) -> tuple[AdiabaticResult, tuple[AdiabaticResult, ...]]:
    """Ramp from a detuned, uncoupled excitation into the target ground state.

    The state starts as a bare excitation on ``init_site`` (the ground state
    of the decoupled, detuned configuration within the single-excitation
    sector) and is propagated by fourth-order split steps, Yoshida's triple
    jump of unitaries with the Hamiltonian frozen at each sub-step's
    midpoint (``open_system._closed_walk``).  Along the ramp the overlap with
    the instantaneous ground eigenspace is recorded; a gap below 1e-6 J
    triggers a level-crossing warning.  One density matrix per rate set
    follows, all in one stack and without the vacuum, whose row and column
    stay zero, by the same split steps with the exact elementwise decay
    between the unitaries, which keep the trace at any step
    (``open_system._split_walk``), at the step rule of the largest rate (each
    set's own while no rate sets the step).  Returns the closed
    result and one result per rate set, whose fidelities are against the
    closed ground populations.

    Both walks step on one grid, the checkpoints plus every segment boundary
    inside the ramp (a kink inside a substep would cost either walk its
    order), so every walked gap lies inside one segment; the boundaries yield
    no result row.  The closed walk takes each chunk of steps as one
    propagator at every lattice size, its pieces bounded by
    ``open_system.BATCH_BYTES`` and one step; a cost rule picks for the
    dephased walk, which interpolates its steps on small lattices and few
    rate sets (its maps are per set), and where many short chunks make it
    pay (the README ramp at l = 1) takes each as one propagator too.  Both
    walks are planned from one ``open_system._Ramp``.  While the largest
    rate leaves the dephased step at the closed one (the rate times
    ``open_system.SPLIT_RATE_WEIGHT`` at most the norm of H, as on the
    README ramp), the walks share what the closed walk formed: one plan of
    the grid, one set of node unitaries per segment and step length, and
    the Lagrange weight tables of each group of chunks, so the closed result
    is bit for bit the closed ramp's alone.  A rate that shortens the step
    gets a plan and node sets of its own, and nothing is kept past the call.
    The checkpoints are diagnosed after both walks, from one stacked
    ``eigh`` of their Hamiltonians (``_ground_projectors``).  When the final
    closed state has no weight in the target ground space,
    ``ground_populations`` fall back to the lowest eigenvector of the target
    Hamiltonian, with a warning that names the overlap.

    Raises
    ------
    ConfigError : for an invalid schedule, or a walk above
        ``SUBSTEP_BUDGET`` substeps (checked before any substep is taken).
    NumericalError : if a density-matrix trace drifts or stops being finite.
    """
    if n_checkpoints < 1:
        raise ConfigError("a ramp needs at least one checkpoint")
    site = as_site(init_site)
    total = schedule.total_duration
    if total > 0:
        _validate_schedule(lattice_final, schedule, site)

    n = lattice_final.num_sites
    hamiltonians = _ramp_hamiltonians(lattice_final, schedule)
    h_final = hamiltonian_single_excitation(lattice_final).matrix
    checkpoints = np.linspace(0.0, total, n_checkpoints) if total > 0 else np.array([0.0])
    offsets = np.cumsum([0.0] + [seg.duration for seg in schedule.segments])
    # H is affine on each segment and its norm convex there, so the largest
    # norm at a segment boundary is the largest on the ramp.
    norm_bound = float(np.abs(np.linalg.eigvalsh(hamiltonians(offsets))).max())
    # The walks' grid and the row of each checkpoint in it.  Python sets,
    # since ``np.union1d`` imports ``numpy.ma`` (6 MB) on its first call.
    grid = np.array(sorted(set(checkpoints.tolist()).union(
        b for b in offsets[1:].tolist() if 0 < b < checkpoints[-1]
    )))
    rows = np.searchsorted(grid, checkpoints)

    psi0 = np.zeros(n, dtype=complex)
    psi0[lattice_final.site_index(site)] = 1.0
    max_rate = max((float(rates.values.max(initial=0.0)) for rates in rate_sets), default=None)
    ramp = _Ramp(hamiltonians, offsets, grid, norm_bound, max_rate)
    # The state at every checkpoint, one stack per walk: closed, then each rate set.
    walks = [_closed_walk(ramp, psi0)[rows]]
    if rate_sets:
        # One (R, L, L) decay stack without the vacuum, whose row and column
        # of the density matrix stay zero; a set without nonzero rates decays
        # nowhere.
        decays = [_collapse_terms(dephasing_operators(rates, n + 1))[0] for rates in rate_sets]
        decay = np.array([np.zeros((n, n)) if d is None else d[1:, 1:] for d in decays])
        stack = np.repeat(np.outer(psi0, psi0)[None], len(rate_sets), 0)
        rhos = _split_walk(ramp, decay, stack)[rows]
        # The vacuum row and column back in, one contiguous stack per set, so
        # a set's weights take the same arithmetic however many sets were
        # walked with it.
        walks.extend(_embed_vacuum(rhos.swapaxes(0, 1)))

    projectors, gaps = _ground_projectors(hamiltonians(checkpoints))
    low = np.flatnonzero(gaps < 1e-6 * max(lattice_final.J, 1e-12))
    if low.size:
        warnings.warn(
            f"instantaneous gap {gaps[low[0]]:.3e} below 1e-6 J at Jt={checkpoints[low[0]]:g}: "
            "possible level crossing",
            stacklevel=2,
        )

    # Final metrics are always taken against the target Hamiltonian (for a
    # zero-duration schedule the instantaneous one never reaches it).  The
    # ideal ground populations come from the closed state for every result.
    final_projector = _ground_projectors(h_final[None])[0]
    psi = walks[0][-1]
    projected = final_projector[0] @ psi
    weight = np.linalg.norm(projected)
    if weight < 1e-12:
        # Orthogonal to the ground space: fall back to the lowest eigenvector.
        overlap = float(_ground_weights(final_projector, walks[0][-1:])[0])
        warnings.warn(
            f"final closed state has overlap {overlap:.3e} with the target ground space: "
            "ground_populations fall back to the lowest eigenvector of the target Hamiltonian",
            stacklevel=2,
        )
        ground_pops = np.abs(np.linalg.eigh(h_final)[1][:, 0]) ** 2
    else:
        ground_pops = np.abs(projected / weight) ** 2
    results = []
    for states in walks:
        state = states[-1]
        final_pops = np.abs(state) ** 2 if state.ndim == 1 else state.diagonal().real[1:].copy()
        np.clip(final_pops, 0.0, None, out=final_pops)
        results.append(AdiabaticResult(
            times=checkpoints,
            gs_fidelity=_ground_weights(projectors, states),
            gaps=gaps,
            final_populations=final_pops,
            ground_populations=ground_pops,
            final_gs_overlap=float(_ground_weights(final_projector, states[-1:])[0]),
            population_fidelity=fidelity(final_pops, ground_pops),
            population_fidelity_raw=_bhattacharyya(final_pops, ground_pops),
        ))
    return results[0], tuple(results[1:])


def adiabatic_prepare(
    lattice_final: RhombicLattice, schedule: RampSchedule, init_site: SiteId | str,
    rates: DephasingRates | None = None, *, n_checkpoints: int = 101,
) -> AdiabaticResult:
    """The closed ramp of ``adiabatic_ramps``, or its one ramp dephased at ``rates``."""
    rate_sets = () if rates is None else (rates,)
    closed, dephased = adiabatic_ramps(lattice_final, schedule, init_site, rate_sets, n_checkpoints=n_checkpoints)
    return dephased[0] if dephased else closed
