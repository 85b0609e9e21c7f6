"""Device layer: tunable-coupler coupling model, flux tuning curve, crosstalk.

Frequencies at this layer are physical (conventionally GHz or MHz, meaning
omega / 2 pi); every formula is homogeneous in the frequency unit, and the
conversion to lattice units (J = 1) happens at the boundary in the CLI.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import ConfigError, NumericalError
from .lattice import FINITE, MAX_POINTS, OBJECT, SCHEMA, TIME_US, Kind, _integer, _list_of, _number, config_field, read_config_file

#: Detuning-to-coupling ratio below which the dispersive formula is refused.
DISPERSIVE_HARD_RATIO = 5.0
#: Ratio below which a warning is issued.
DISPERSIVE_SOFT_RATIO = 10.0


@dataclass(frozen=True)
class CouplerSpec:
    """Two qubits and the coupler mode between them.

    ``g_ac`` and ``g_bc`` are the qubit-coupler couplings, ``g_ab`` the direct
    qubit-qubit coupling; anharmonicities only matter beyond the
    single-excitation manifold but belong to the mode description.
    """

    omega_a: float
    omega_b: float
    omega_c: float
    g_ac: float
    g_bc: float
    g_ab: float
    u_a: float = 0.0
    u_b: float = 0.0
    u_c: float = 0.0

    def dispersive_ratio(self) -> float:
        g = max(abs(self.g_ac), abs(self.g_bc), 1e-30)
        return min(abs(self.omega_a - self.omega_c), abs(self.omega_b - self.omega_c)) / g


def _g_eff_formula(spec: CouplerSpec) -> float:
    return spec.g_ab + 0.5 * spec.g_ac * spec.g_bc * (
        1.0 / (spec.omega_a - spec.omega_c) + 1.0 / (spec.omega_b - spec.omega_c)
    )


def g_eff(spec: CouplerSpec) -> float:
    """Dispersive effective qubit-qubit coupling for a given coupler frequency.

    Valid only when the coupler is detuned well away from both qubits; the
    ratio of detuning to coupling must exceed 5 (warning below 10).
    """
    ratio = spec.dispersive_ratio()
    if ratio <= DISPERSIVE_HARD_RATIO:
        raise ConfigError(
            f"coupler too close to the qubits for the dispersive formula "
            f"(detuning/coupling ratio {ratio:.2f} <= {DISPERSIVE_HARD_RATIO})"
        )
    if ratio < DISPERSIVE_SOFT_RATIO:
        warnings.warn(
            f"dispersive ratio {ratio:.2f} is below {DISPERSIVE_SOFT_RATIO}; "
            "the effective-coupling formula is marginal here",
            stacklevel=2,
        )
    return _g_eff_formula(spec)


def coupler_off_frequency(spec: CouplerSpec, window: tuple[float, float]) -> float:
    """Coupler frequency at which the effective coupling crosses zero.

    Times ``(omega_a - omega_c)(omega_b - omega_c)``, the dispersive formula
    is a quadratic in ``omega_c``; this returns its root in ``window``.  The
    window must show a sign change and must not contain either qubit
    frequency (the formula has poles there), so exactly one root lies in it.
    """
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ConfigError("search window must satisfy lo < hi")
    for pole in (spec.omega_a, spec.omega_b):
        if lo <= pole <= hi:
            raise ConfigError("search window must not contain a qubit frequency")
    f_lo, f_hi = (_g_eff_formula(replace(spec, omega_c=w)) for w in (lo, hi))
    if f_lo * f_hi > 0 or f_lo == f_hi == 0:
        raise ConfigError("no sign change of the effective coupling in the window")
    # Cleared of its poles: g_ab (a - w)(b - w) + g (a + b - 2 w) / 2 = 0.
    a, b, g = spec.omega_a, spec.omega_b, spec.g_ac * spec.g_bc
    roots = np.roots([spec.g_ab, -spec.g_ab * (a + b) - g, spec.g_ab * a * b + 0.5 * g * (a + b)]).real
    # The other root lies outside the window, so farther from its centre; a
    # root at an end of the window can come out an ulp beyond it.
    root = float(roots[np.argmin(np.abs(roots - 0.5 * (lo + hi)))])
    return min(max(root, lo), hi)


@dataclass(frozen=True)
class VacuumRabiExtraction:
    """Signed coupling extracted from the dressed single-excitation doublet.

    ``sign`` is +1 or -1, or 0 when the splitting is too small to order the
    symmetric and antisymmetric dressed states reliably.
    """

    magnitude: float
    sign: int
    dressed_energies: tuple[float, float]
    coupler_weights: tuple[float, float]

    @property
    def value(self) -> float:
        return self.sign * self.magnitude if self.sign != 0 else 0.0


def three_mode_vacuum_rabi(spec: CouplerSpec, levels: int = 3) -> VacuumRabiExtraction:
    """Extract the qubit-qubit coupling from the exact three-mode spectrum.

    The Hamiltonian of the two qubits plus coupler, truncated at ``levels``
    per mode, conserves total excitation number, so the single-excitation
    manifold is a 3 x 3 block: the mode frequencies on the diagonal and the
    couplings off it, the same at every truncation of 2 or more levels (the
    anharmonicities only act from two excitations on).  The two dressed states with
    the least coupler content form the vacuum-Rabi doublet, whose half
    splitting is the coupling magnitude.  The sign follows from whether the
    symmetric combination is pushed up (positive) or down (negative).

    Raises ``NumericalError`` when either dressed state hybridizes with the
    coupler by more than 20%: outside the dispersive regime the extracted
    number no longer means a qubit-qubit coupling.
    """
    if levels < 2:
        raise ConfigError("each mode needs at least 2 levels")
    # Basis |100>, |010>, |001>; adding 0.0 turns a coupling of -0.0 into
    # the 0.0 that summing the truncated Hamiltonian's terms gives.
    block = np.array([
        [spec.omega_a, spec.g_ab, spec.g_ac],
        [spec.g_ab, spec.omega_b, spec.g_bc],
        [spec.g_ac, spec.g_bc, spec.omega_c],
    ]) + 0.0
    energies, vectors = np.linalg.eigh(block)
    weights = np.abs(vectors[2, :]) ** 2
    qubit_like = np.argsort(weights)[:2]
    lo, hi = sorted(qubit_like, key=lambda i: energies[i])
    if max(weights[lo], weights[hi]) > 0.20:
        raise NumericalError(
            "dressed states hybridize with the coupler by more than 20%; "
            "not in the dispersive regime"
        )
    magnitude = 0.5 * (energies[hi] - energies[lo])
    # Splittings near the eigensolver noise floor cannot order the dressed pair.
    noise_floor = 1e-9 * max(abs(spec.omega_a), abs(spec.omega_b), abs(spec.omega_c), 1e-30)
    if magnitude < noise_floor:
        sign = 0
    else:
        # Symmetric lower state means the coupling pulls it down: negative.
        symmetric = float(np.real(vectors[0, lo] * np.conj(vectors[1, lo])))
        sign = -1 if symmetric > 0 else 1
    return VacuumRabiExtraction(
        float(magnitude),
        sign,
        (float(energies[lo]), float(energies[hi])),
        (float(weights[lo]), float(weights[hi])),
    )


@dataclass(frozen=True)
class TransmonTuneCurve:
    """Flux-tunable mode frequency between its sweet spots.

    The asymmetry parameter ``d = (omega_min / omega_max)**2`` reproduces both
    extremes through the standard two-junction approximation
    ``omega(phi) = omega_max (cos^2(pi phi) + d^2 sin^2(pi phi))^(1/4)``.
    """

    omega_max: float
    omega_min: float

    def __post_init__(self):
        if not 0 < self.omega_min <= self.omega_max:
            raise ConfigError("need 0 < omega_min <= omega_max")

    @property
    def d(self) -> float:
        return (self.omega_min / self.omega_max) ** 2


def tune_curve(curve: TransmonTuneCurve, phi_ext) -> np.ndarray | float:
    """Mode frequency at external flux ``phi_ext`` (in flux quanta)."""
    phi = np.asarray(phi_ext, dtype=float)
    c2 = np.cos(np.pi * phi) ** 2
    s2 = np.sin(np.pi * phi) ** 2
    value = curve.omega_max * (c2 + curve.d**2 * s2) ** 0.25
    return float(value) if np.isscalar(phi_ext) else value


@dataclass(frozen=True, eq=False)
class CrosstalkMatrix:
    """Linear flux-line crosstalk: applied amplitudes map as V' = M V."""

    matrix: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigError("crosstalk matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ConfigError("crosstalk matrix entries must be finite")
        if np.abs(np.diag(m) - 1.0).max() > 1e-12:
            raise ConfigError("crosstalk matrix diagonal must be 1 (normalized lines)")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(f"line{i}" for i in range(m.shape[0])))
        elif len(self.labels) != m.shape[0]:
            raise ConfigError("one label per control line required")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def condition_number(self) -> float:
        return float(np.linalg.cond(self.matrix))


def crosstalk_correct(m: CrosstalkMatrix, v_target: Sequence[float]) -> np.ndarray:
    """Amplitudes to apply so the on-chip values come out as requested."""
    target = np.asarray(v_target, dtype=float)
    if target.shape != (m.dim,):
        raise ConfigError(f"target vector must have length {m.dim}")
    cond = m.condition_number()
    if not math.isfinite(cond) or cond > 1e6:
        raise NumericalError(f"crosstalk matrix is ill-conditioned (cond = {cond:.3e})")
    return np.linalg.solve(m.matrix, target)


def crosstalk_fit(response: Sequence[tuple[float, float]]) -> float:
    """Matrix element from a measured compensation line.

    ``response`` holds (source amplitude, compensating target amplitude)
    pairs taken at fixed target excitation; the element is minus the
    least-squares slope.
    """
    data = np.asarray(response, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 2:
        raise ConfigError("need at least two (source, target) response points")
    if not np.all(np.isfinite(data)):
        raise ConfigError("response points must be finite")
    source, target = data[:, 0], data[:, 1]
    if np.ptp(source) == 0:
        raise ConfigError("response abscissa is degenerate (all source values equal)")
    slope = np.polyfit(source, target, 1)[0]
    return float(-slope)


def simulate_compensation_data(
    element: float,
    source_values: Sequence[float],
    noise_sigma: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Synthetic (source, target) compensation pairs for a known element."""
    source = np.asarray(source_values, dtype=float)
    target = -element * source
    if noise_sigma > 0:
        if rng is None:
            raise ConfigError("noisy synthesis needs an explicit random generator")
        target = target + rng.normal(0.0, noise_sigma, size=source.shape)
        if not np.all(np.isfinite(target)):
            raise NumericalError(f"noise sigma {noise_sigma:g} overflows the synthetic responses")
    return np.column_stack([source, target])


#: Most response points ``synthetic_crosstalk`` simulates, lines * (lines - 1)
#: * points; 100 lines at 25 points make 247,500.
SYNTHETIC_MAX_RESPONSES = 10**6


def synthetic_crosstalk(
    lines: int, points: int, noise_sigma: float, rng: np.random.Generator
) -> tuple[list[str], np.ndarray, dict[tuple[str, str], list[tuple[float, float]]]]:
    """A random crosstalk matrix on lines ``Z1 .. Zn`` and its compensation data.

    Off-diagonal elements are drawn from N(6e-4, 1e-4) and the diagonal is 1.
    Each ordered pair of lines gets ``points`` source amplitudes on [-1, 1]
    with responses from ``simulate_compensation_data``.  Returns the labels,
    the matrix, and the responses keyed by (source, target) label, in the
    form ``crosstalk_fit`` takes.
    """
    size = lines * (lines - 1) * points
    if size > SYNTHETIC_MAX_RESPONSES:
        raise ConfigError(
            f"synthetic crosstalk on {lines} lines with {points} points per pair needs {size} "
            f"response points, above the limit of {SYNTHETIC_MAX_RESPONSES}"
        )
    labels = [f"Z{i + 1}" for i in range(lines)]
    truth = rng.normal(6e-4, 1e-4, size=(lines, lines))
    np.fill_diagonal(truth, 1.0)
    source = np.linspace(-1.0, 1.0, points)
    groups = {}
    for i in range(lines):
        for j in range(lines):
            if i != j:
                data = simulate_compensation_data(truth[i, j], source, noise_sigma, rng)
                groups[(labels[j], labels[i])] = [tuple(row) for row in data]
    return labels, truth, groups


# ---------------------------------------------------------------------------
# Device definition files (JSON, schema 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QubitRecord:
    """Static qubit parameters: tuning range, idle point, coherence times."""

    tune: TransmonTuneCurve
    omega_idle: float
    omega_readout: float | None = None
    t1_us: float | None = None
    tphi_us: float | None = None


@dataclass(frozen=True)
class DeviceConfig:
    qubits: dict[str, QubitRecord]
    coupler: CouplerSpec
    sweep_window: tuple[float, float, int]
    bond_couplers: dict[tuple[str, str], CouplerSpec]


def _coupler_from_entry(c: Mapping) -> CouplerSpec:
    field = partial(config_field, "device coupler", c)
    return CouplerSpec(
        *(field(f"{key}_GHz", FINITE) for key in ("omega_a", "omega_b")),
        field("omega_c_GHz", FINITE, 0.0),
        *(field(f"{key}_GHz", FINITE) for key in ("g_ac", "g_bc", "g_ab")),
        *(field(f"{key}_GHz", FINITE, 0.0) for key in ("u_a", "u_b", "u_c")),
    )


def _bond(value: Any) -> tuple[str, str]:
    """A per-bond coupler's ``bond``: the labels of its two qubits."""
    a, b = value
    if not (isinstance(value, list) and isinstance(a, str) and isinstance(b, str)):
        raise TypeError("expected two labels")
    return a, b


def _sweep(value: Any) -> tuple[float, float, int]:
    start, stop, count = value
    return _number(start), _number(stop), _integer(count)


BOND = Kind("a list of two qubit labels", None, load=_bond)
SWEEP = Kind(f"[start, stop, count] with finite start < stop and 2 to {MAX_POINTS} points", None,
             lambda sweep: -math.inf < sweep[0] < sweep[1] < math.inf and 2 <= sweep[2] <= MAX_POINTS, _sweep)


def device_from_dict(doc) -> DeviceConfig:
    if not isinstance(doc, Mapping):
        raise ConfigError("a device definition must be a JSON object")
    field = partial(config_field, "device file", doc)
    field("schema", SCHEMA, 1)
    table = field("qubits", OBJECT, {})
    qubits = {}
    for label in table:
        qubit = partial(config_field, f"device qubit {label}", config_field("device qubits", table, label, OBJECT))
        tune = TransmonTuneCurve(qubit("omega_max_GHz", FINITE), qubit("omega_min_GHz", FINITE))
        optional = (qubit("omega_r_GHz", FINITE, None), *(qubit(key, TIME_US, None) for key in ("T1_idle_us", "T2_phi_us")))
        qubits[label] = QubitRecord(tune, qubit("omega_idle_GHz", FINITE), *optional)
    c = field("coupler", OBJECT, {})
    coupler = _coupler_from_entry(c)
    bond_couplers = {
        config_field("per-bond coupler", entry, "bond", BOND): _coupler_from_entry({**c, **entry})
        for entry in field("couplers", _list_of(OBJECT), ())
    }
    sweep = field("sweep_GHz", SWEEP, (coupler.omega_c, coupler.omega_c + 1, 11))
    return DeviceConfig(qubits, coupler, sweep, bond_couplers)


def load_device(path) -> DeviceConfig:
    return device_from_dict(read_config_file(path, "device file"))


def _parse_crosstalk_csv(text: str) -> CrosstalkMatrix:
    lines = text.strip().splitlines()
    if len(lines) < 2:
        raise ConfigError("crosstalk CSV needs a header and at least one row")
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    # N labels over N bare rows, as ``crosstalk-fit`` writes; or a corner cell
    # and N labels over N rows that each start with their label.
    labelled = len(header) == len(rows) + 1
    labels = tuple(header[labelled:])
    matrix = np.array([[float(v) for v in row[labelled:]] for row in rows])
    if matrix.shape != (len(labels), len(labels)):
        raise ConfigError("crosstalk CSV is not square against its header")
    return CrosstalkMatrix(matrix, labels)


def load_crosstalk_csv(path) -> CrosstalkMatrix:
    """Read a crosstalk matrix CSV, as ``crosstalk-fit`` writes it or with labelled rows."""
    return read_config_file(path, "crosstalk file", _parse_crosstalk_csv)
