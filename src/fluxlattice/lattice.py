"""Rhombic lattice topology, signed couplings, and the single-excitation Hamiltonian.

A lattice of ``l`` corner-sharing plaquettes has ``L = 3l + 1`` sites on three
rails: the spine sites ``(A, j)`` for ``j = 1..l+1`` and the arm sites
``(up, j)``, ``(dn, j)`` for ``j = 1..l``.  Each plaquette carries four bonds
whose coupling signs encode a synthetic flux of 0 or pi.  Everything here is
immutable after construction; operations are pure functions.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError

PI = math.pi

#: Tolerance for the Hermiticity check, relative to the largest entry.
HERMITICITY_TOL = 1e-12


class Rail(enum.Enum):
    """The three site rails of the rhombic chain."""

    A = "A"
    UP = "up"
    DOWN = "dn"


_RAIL_ALIASES = {
    "a": Rail.A,
    "up": Rail.UP,
    "u": Rail.UP,
    "↑": Rail.UP,
    "down": Rail.DOWN,
    "dn": Rail.DOWN,
    "d": Rail.DOWN,
    "↓": Rail.DOWN,
}


@dataclass(frozen=True)
class SiteId:
    """A single qubit site, addressed by rail and cell index (1-based)."""

    rail: Rail
    cell: int

    def __post_init__(self):
        if not isinstance(self.rail, Rail):
            raise ConfigError(f"rail must be a Rail, got {self.rail!r}")
        if self.cell < 1:
            raise ConfigError(f"cell index must be >= 1, got {self.cell}")

    @property
    def label(self) -> str:
        return f"{self.rail.value},{self.cell}"

    @classmethod
    def parse(cls, text: str) -> "SiteId":
        """Parse labels such as ``"A,2"``, ``"up,1"`` or ``"dn,1"``."""
        parts = text.replace(" ", "").split(",")
        if len(parts) != 2:
            raise ConfigError(f"cannot parse site label {text!r}")
        rail = _RAIL_ALIASES.get(parts[0].lower())
        if rail is None:
            raise ConfigError(f"unknown rail {parts[0]!r} in site label {text!r}")
        try:
            cell = int(parts[1])
        except ValueError:
            raise ConfigError(f"bad cell index in site label {text!r}") from None
        return cls(rail, cell)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label


def as_site(site: "SiteId | str") -> SiteId:
    return site if isinstance(site, SiteId) else SiteId.parse(site)


def num_sites(l: int) -> int:
    return 3 * l + 1


def site_index(site: SiteId, l: int) -> int:
    """Flat index in the documented order (A,1), (up,1), (dn,1), (A,2), ...

    The A rail runs 1..l+1, the arm rails 1..l.
    """
    if site.rail is Rail.A:
        if site.cell > l + 1:
            raise ConfigError(f"site {site.label} out of range for l={l}")
        return 3 * (site.cell - 1)
    if site.cell > l:
        raise ConfigError(f"site {site.label} out of range for l={l}")
    offset = 1 if site.rail is Rail.UP else 2
    return 3 * (site.cell - 1) + offset


def all_sites(l: int) -> tuple[SiteId, ...]:
    """All sites in flat-index order."""
    sites: list[SiteId] = []
    for j in range(1, l + 1):
        sites.append(SiteId(Rail.A, j))
        sites.append(SiteId(Rail.UP, j))
        sites.append(SiteId(Rail.DOWN, j))
    sites.append(SiteId(Rail.A, l + 1))
    return tuple(sites)


def site_labels(l: int) -> tuple[str, ...]:
    return tuple(s.label for s in all_sites(l))


class BondSign(enum.Enum):
    """Sign of the physical coupling on a bond.

    ``MINUS`` is a negative coupling (matrix element ``-J``) and carries a pi
    hopping phase; ``PLUS`` is a positive coupling (matrix element ``+J``).
    Only these two values are representable, so every plaquette flux is 0 or pi.
    """

    PLUS = 1
    MINUS = -1

    @property
    def phase(self) -> float:
        """Hopping phase: 0 for PLUS, pi for MINUS."""
        return 0.0 if self is BondSign.PLUS else PI


@dataclass(frozen=True)
class Bond:
    """A signed nearest-neighbour bond between an A site and an arm site."""

    a_site: SiteId
    arm_site: SiteId
    sign: BondSign = BondSign.MINUS
    magnitude_scale: float = 1.0

    def __post_init__(self):
        if self.a_site.rail is not Rail.A or self.arm_site.rail is Rail.A:
            raise ConfigError(
                f"bond must connect an A site to an arm site, got "
                f"{self.a_site.label} -- {self.arm_site.label}"
            )
        # Rhombic NN structure: A_j or A_{j+1} connects to up_j / dn_j.
        if self.a_site.cell not in (self.arm_site.cell, self.arm_site.cell + 1):
            raise ConfigError(
                f"bond {self.a_site.label} -- {self.arm_site.label} is not "
                "nearest-neighbour on the rhombic chain"
            )
        if self.magnitude_scale < 0:
            raise ConfigError("magnitude_scale must be nonnegative")

    @property
    def plaquette(self) -> int:
        return self.arm_site.cell


def _plaquette_bond_sites(j: int) -> tuple[tuple[SiteId, SiteId], ...]:
    up, dn = SiteId(Rail.UP, j), SiteId(Rail.DOWN, j)
    return (
        (SiteId(Rail.A, j), up),
        (SiteId(Rail.A, j), dn),
        (SiteId(Rail.A, j + 1), up),
        (SiteId(Rail.A, j + 1), dn),
    )


@dataclass(frozen=True, eq=False)
class RhombicLattice:
    """Immutable description of the signed-coupling rhombic chain.

    Attributes
    ----------
    l : number of plaquettes (>= 1).
    bonds : exactly four signed bonds per plaquette.
    detunings : on-site detuning for every site, in the same units as ``J``.
    J : global coupling magnitude; each bond contributes ``J * sign * scale``.
    """

    l: int
    bonds: tuple[Bond, ...]
    detunings: Mapping[SiteId, float] = field(default_factory=dict)
    J: float = 1.0

    def __post_init__(self):
        if self.l < 1:
            raise ConfigError(f"need at least one plaquette, got l={self.l}")
        if self.J < 0:
            raise ConfigError("J must be nonnegative")
        object.__setattr__(self, "bonds", tuple(self.bonds))
        by_plaquette: dict[int, dict[tuple[SiteId, SiteId], Bond]] = {}
        for bond in self.bonds:
            j = bond.plaquette
            if j > self.l:
                raise ConfigError(f"bond in plaquette {j} but lattice has l={self.l}")
            slot = by_plaquette.setdefault(j, {})
            key = (bond.a_site, bond.arm_site)
            if key in slot:
                raise ConfigError(f"duplicate bond {key[0].label} -- {key[1].label}")
            slot[key] = bond
        for j in range(1, self.l + 1):
            expected = _plaquette_bond_sites(j)
            present = by_plaquette.get(j, {})
            if set(present) != set(expected):
                raise ConfigError(f"plaquette {j} must carry exactly its 4 NN bonds")
        full = {site: 0.0 for site in all_sites(self.l)}
        for site, value in dict(self.detunings).items():
            site = as_site(site)
            if site not in full:
                raise ConfigError(f"detuning given for unknown site {site.label}")
            full[site] = float(value)
        object.__setattr__(self, "detunings", MappingProxyType(full))

    @property
    def num_sites(self) -> int:
        return num_sites(self.l)

    @property
    def sites(self) -> tuple[SiteId, ...]:
        return all_sites(self.l)

    def site_index(self, site: SiteId | str) -> int:
        return site_index(as_site(site), self.l)

    def detuning_vector(self) -> np.ndarray:
        return np.array([self.detunings[s] for s in self.sites], dtype=float)

    def plaquette_bonds(self, j: int) -> tuple[Bond, ...]:
        if not 1 <= j <= self.l:
            raise ConfigError(f"plaquette index {j} out of range 1..{self.l}")
        return tuple(b for b in self.bonds if b.plaquette == j)

    def with_detunings(self, detunings: Mapping[SiteId | str, float]) -> "RhombicLattice":
        """A copy with the detuning map replaced."""
        return RhombicLattice(self.l, self.bonds, dict(detunings), self.J)


def parse_flux(value: float | str) -> float:
    """A plaquette flux as exactly ``0.0`` or ``PI``.

    Accepts ``"pi"`` in any case and spacing, and any number or numeric string
    within 1e-12 of 0 or pi; everything else raises ``ConfigError``.
    """
    if isinstance(value, str):
        value = "".join(value.split()).lower()
        if value == "pi":
            return PI
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"plaquette flux must be 0 or pi, got {value!r}") from None
    if abs(number) <= 1e-12:
        return 0.0
    if abs(number - PI) <= 1e-12:
        return PI
    raise ConfigError(f"plaquette flux must be 0 or pi, got {value!r}")


def build_lattice(
    l: int,
    plaquette_fluxes: Iterable[float],
    detunings: Mapping[SiteId | str, float] | None = None,
    J: float = 1.0,
) -> RhombicLattice:
    """Build a lattice with the requested flux through every plaquette.

    The default gauge makes all couplings negative (sign MINUS); a pi-flux
    plaquette flips the single bond ``A_{j+1} -- dn_j`` to positive, which is
    the one bond the Hamiltonian distinguishes.  Any other sign placement with
    the same fluxes is gauge-equivalent (see ``apply_site_gauge``).
    """
    fluxes = [parse_flux(f) for f in plaquette_fluxes]
    if len(fluxes) != l:
        raise ConfigError(f"expected {l} plaquette fluxes, got {len(fluxes)}")
    bonds: list[Bond] = []
    for j, flux in enumerate(fluxes, start=1):
        flipped = (SiteId(Rail.A, j + 1), SiteId(Rail.DOWN, j)) if flux == PI else None
        for a_site, arm_site in _plaquette_bond_sites(j):
            sign = BondSign.PLUS if (a_site, arm_site) == flipped else BondSign.MINUS
            bonds.append(Bond(a_site, arm_site, sign))
    return RhombicLattice(l, tuple(bonds), dict(detunings or {}), J)


def plaquette_flux(lattice: RhombicLattice, j: int) -> float:
    """Sum of the four bond phases around plaquette ``j``, mod 2*pi (0 or pi)."""
    n_minus = sum(1 for b in lattice.plaquette_bonds(j) if b.sign is BondSign.MINUS)
    return PI * (n_minus % 2)


def plaquette_fluxes(lattice: RhombicLattice) -> tuple[float, ...]:
    return tuple(plaquette_flux(lattice, j) for j in range(1, lattice.l + 1))


def uniform_flux(lattice: RhombicLattice) -> float:
    """The common plaquette flux, or raise if the fluxes are mixed."""
    fluxes = set(plaquette_fluxes(lattice))
    if len(fluxes) != 1:
        raise ConfigError("lattice has mixed plaquette fluxes")
    return fluxes.pop()


def apply_site_gauge(
    lattice: RhombicLattice, site_signs: Mapping[SiteId | str, int]
) -> RhombicLattice:
    """Flip bond signs by a per-site gauge transformation (signs +1/-1).

    Plaquette fluxes are invariant under this map, and so are all populations
    for initial states localized on a single site.
    """
    signs = {as_site(s): int(v) for s, v in site_signs.items()}
    if any(v not in (-1, 1) for v in signs.values()):
        raise ConfigError("gauge signs must be +1 or -1")

    def flip(bond: Bond) -> Bond:
        s = signs.get(bond.a_site, 1) * signs.get(bond.arm_site, 1)
        sign = bond.sign if s == 1 else (
            BondSign.PLUS if bond.sign is BondSign.MINUS else BondSign.MINUS
        )
        return Bond(bond.a_site, bond.arm_site, sign, bond.magnitude_scale)

    return RhombicLattice(
        lattice.l, tuple(flip(b) for b in lattice.bonds), dict(lattice.detunings), lattice.J
    )


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A dense Hermitian matrix with its Hermiticity validated on construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigError(f"operator must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise ConfigError("operator has non-finite entries")
        scale = max(np.abs(m).max(), 1.0)
        if np.abs(m - m.conj().T).max() > HERMITICITY_TOL * scale:
            raise ConfigError("matrix is not Hermitian within tolerance")
        m = 0.5 * (m + m.conj().T)
        if not np.all(np.isfinite(m.view(float))):
            raise ConfigError("operator entries overflow when symmetrized")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.matrix, dtype=dtype)


def hamiltonian_single_excitation(lattice: RhombicLattice) -> HermitianOperator:
    """The L x L Hamiltonian on the single-excitation states, vacuum omitted.

    Diagonal entries are the site detunings; each bond contributes the signed
    hopping ``J * sign * magnitude_scale`` between its two sites.
    """
    n = lattice.num_sites
    h = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(h, lattice.detuning_vector())
    for bond in lattice.bonds:
        i = lattice.site_index(bond.a_site)
        k = lattice.site_index(bond.arm_site)
        t = lattice.J * bond.sign.value * bond.magnitude_scale
        h[i, k] += t
        h[k, i] += t
    return HermitianOperator(h)


# ---------------------------------------------------------------------------
# Lattice definition files (JSON, schema 1)
# ---------------------------------------------------------------------------

def read_config_file(path: str | Path, what: str, parse: Callable[[str], Any] = json.loads) -> Any:
    """Read an input file and parse its text, JSON unless ``parse`` says otherwise.

    A missing or unreadable file, and text that ``parse`` rejects with a
    ``ValueError`` (``json.JSONDecodeError`` is one), raise ``ConfigError``.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"{what} {path} is malformed: {exc}") from None


#: Most points a ``--points`` or ``--nk`` option, a range's count or a device
#: file's sweep may ask for, checked before any grid is built.
MAX_POINTS = 10**6

#: Most plaquettes ``--l`` or a lattice file's ``l`` may ask for.  A closed
#: ``dynamics`` run at this size and two time points peaks at about 0.7 GB;
#: other commands need more (a ramp's node set alone holds about 113 matrices
#: of n x n complex entries at once, 16 GB at this size), and no command is
#: refused for it.
MAX_PLAQUETTES = 1000


class Kind(NamedTuple):
    """The values an option or an input-file field takes.

    ``parse`` reads command-line text and ``load`` a file field (None: no
    option, or no file field, has this kind); either raises ``TypeError``,
    ``ValueError`` or ``OverflowError`` on a value of the wrong form.  ``ok``
    says whether a value is in range, and ``what`` describes the values in
    error messages.
    """

    what: str
    parse: Callable[[str], Any] | None
    ok: Callable[[Any], bool] = lambda value: True
    load: Callable[[Any], Any] | None = None


#: ``config_field`` default of a field that must be present.
_REQUIRED = object()


def config_field(what: str, doc: Mapping, key: str, kind: Kind, default: Any = _REQUIRED) -> Any:
    """``doc[key]`` read through ``kind``, or ``default`` when ``doc`` has no ``key``.

    The value is ``kind.load(doc[key])`` once ``kind.ok`` accepts it.  A
    missing field without a default, a value that ``kind.load`` rejects with
    ``TypeError``, ``ValueError`` (``ConfigError`` is one) or ``OverflowError``
    (an integer too large for a float), and a value out of ``kind``'s range
    raise ``ConfigError`` naming ``what``, the field and ``kind.what``.  Bind
    ``what`` and ``doc`` with ``functools.partial`` to read several fields of
    one document.
    """
    if key not in doc:
        if default is _REQUIRED:
            raise ConfigError(f"{what}: missing field {key}")
        return default
    try:
        value = kind.load(doc[key])
        if kind.ok(value):
            return value
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{what}: {key} must be {kind.what}, got {doc[key]!r}")


def _real(value: Any) -> Any:
    """``value`` unchanged if it is a real number (a bool is not one), else ``TypeError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError("expected a number")
    return value


def _number(value: Any) -> float:
    """A file number as a float; a bool or a string is not one."""
    return float(_real(value))


def _integer(value: Any) -> int:
    """A file integer; an integral float such as ``2.0`` is one."""
    number = _real(value)
    if isinstance(number, float) and not number.is_integer():
        raise ValueError("expected an integer")
    return int(number)


def _count(low: int, high: float = math.inf) -> Kind:
    what = f"an integer from {low} to {high}" if high < math.inf else f"an integer of at least {low}"
    return Kind(what, int, lambda n: low <= n <= high, _integer)


def _site(label: Any) -> str:
    """A site label as given, once it parses."""
    if not isinstance(label, str):
        raise TypeError("expected a site label")
    SiteId.parse(label)
    return label


def _list_of(kind: Kind) -> Kind:
    """A JSON list of values of ``kind``, loaded as a tuple."""

    def load(value: Any) -> tuple:
        if not isinstance(value, list):
            raise TypeError("expected a list")
        return tuple(map(kind.load, value))

    return Kind(f"a list of items each {kind.what}", None, lambda items: all(map(kind.ok, items)), load)


def _site_map(kind: Kind) -> Kind:
    """A JSON object of site label -> value of ``kind``, loaded as ``{SiteId: value}``."""

    def load(value: Any) -> dict:
        if not isinstance(value, Mapping):
            raise TypeError("expected an object")
        return {as_site(k): kind.load(v) for k, v in value.items()}

    return Kind(f"an object of site label -> {kind.what}", None, lambda sites: all(map(kind.ok, sites.values())), load)


FINITE = Kind("a finite number", float, math.isfinite, _number)
POSITIVE = Kind("a finite positive number", float, lambda v: 0 < v < math.inf, _number)
NONNEGATIVE = Kind("a finite nonnegative number", float, lambda v: 0 <= v < math.inf, _number)
#: A time in microseconds; an infinite one means the process does not happen.
TIME_US = Kind("a positive time in microseconds", float, lambda t: t > 0, _number)
FLUX = Kind("0 or pi", parse_flux, load=lambda v: parse_flux(v if isinstance(v, str) else _real(v)))
SITE = Kind("a site label such as A,1", _site, load=_site)
OBJECT = Kind("a JSON object", None, lambda v: isinstance(v, Mapping), lambda v: v)
#: The ``schema`` of a lattice or device file.
SCHEMA = Kind("1", None, lambda v: v == 1, _integer)
#: A lattice file's ``J_MHz``: checked, but kept as written, so an integer keeps its config hash.
J_MHZ = Kind(POSITIVE.what, None, lambda v: 0 < float(v) < math.inf, _real)


def _gauge_entry(entry: Any) -> tuple:
    """``[A site, arm site, "plus" or "minus"]`` as its two sites and its sign (None if unknown)."""
    if not (isinstance(entry, list) and all(isinstance(x, str) for x in entry)):
        raise TypeError("expected three labels")
    a_label, arm_label, sign_name = entry
    return SiteId.parse(a_label), SiteId.parse(arm_label), {"plus": BondSign.PLUS, "minus": BondSign.MINUS}.get(sign_name)


GAUGE_ENTRY = Kind("a gauge entry [A site, arm site, plus or minus]", None, lambda entry: entry[2] is not None, _gauge_entry)


def _flux_names(fluxes: Iterable[float]) -> list:
    """Plaquette fluxes as lattice files write them: "pi" or 0."""
    return ["pi" if f == PI else 0 for f in fluxes]


@dataclass(frozen=True)
class LatticeConfig:
    """A lattice plus the device-unit metadata carried by its definition file."""

    lattice: RhombicLattice
    J_MHz: float | None = None
    dephasing_over_J: Mapping[SiteId, float] | None = None

    def config_hash(self) -> str:
        import hashlib

        return hashlib.sha256(
            json.dumps(lattice_to_dict(self), sort_keys=True).encode()
        ).hexdigest()


def lattice_to_dict(config: LatticeConfig) -> dict:
    lattice = config.lattice
    # Detunings are written in MHz when the file carries J_MHz, else in units of J.
    unit = 1.0 if config.J_MHz is None else config.J_MHz
    doc: dict = {
        "schema": 1,
        "l": lattice.l,
        "fluxes": _flux_names(plaquette_fluxes(lattice)),
        "detunings": {s.label: v * unit for s, v in lattice.detunings.items() if v != 0.0},
    }
    if config.J_MHz is not None:
        doc["J_MHz"] = config.J_MHz
    default = build_lattice(lattice.l, plaquette_fluxes(lattice))
    overrides = [
        [b.a_site.label, b.arm_site.label, "plus" if b.sign is BondSign.PLUS else "minus"]
        for b, d in zip(sorted(lattice.bonds, key=lambda b: (b.plaquette, b.a_site.cell, b.arm_site.rail.value)),
                        sorted(default.bonds, key=lambda b: (b.plaquette, b.a_site.cell, b.arm_site.rail.value)))
        if b.sign is not d.sign
    ]
    if overrides:
        doc["gauge"] = overrides
    if config.dephasing_over_J:
        doc["dephasing_over_J"] = {s.label: g for s, g in config.dephasing_over_J.items()}
    return doc


def lattice_from_dict(doc: Mapping) -> LatticeConfig:
    if not isinstance(doc, Mapping):
        raise ConfigError("a lattice definition must be a JSON object")
    field = partial(config_field, "lattice file", doc)
    field("schema", SCHEMA, 1)
    l = field("l", _count(1, MAX_PLAQUETTES))
    fluxes = field("fluxes", _list_of(FLUX))
    j_mhz = field("J_MHz", J_MHZ, None)
    detunings = field("detunings", _site_map(FINITE), {})
    if j_mhz is not None:
        detunings = {s: v / j_mhz for s, v in detunings.items()}
    lattice = build_lattice(l, fluxes, detunings, J=1.0)
    bonds = {(b.a_site, b.arm_site): b for b in lattice.bonds}
    for a_site, arm_site, sign in field("gauge", _list_of(GAUGE_ENTRY), ()):
        if (a_site, arm_site) not in bonds:
            raise ConfigError(f"gauge entry names {a_site.label} -- {arm_site.label}, which is not a bond of the lattice")
        bonds[a_site, arm_site] = Bond(a_site, arm_site, sign, bonds[a_site, arm_site].magnitude_scale)
    lattice = RhombicLattice(l, tuple(bonds.values()), dict(lattice.detunings), lattice.J)
    gauged = plaquette_fluxes(lattice)
    if gauged != fluxes:
        raise ConfigError(
            f"gauge signs give plaquette fluxes {_flux_names(gauged)}, "
            f"but the file declares {_flux_names(fluxes)}"
        )
    dephasing = field("dephasing_over_J", _site_map(NONNEGATIVE), None)
    if dephasing is None and "dephasing_us" in doc:
        if j_mhz is None:
            raise ConfigError("dephasing_us requires J_MHz to fix the time unit")
        if isinstance(doc["dephasing_us"], Mapping):
            times = field("dephasing_us", _site_map(TIME_US))
        else:
            times = dict.fromkeys(lattice.sites, field("dephasing_us", TIME_US))
        dephasing = {s: dephasing_rate(t, j_mhz) for s, t in times.items()}
    return LatticeConfig(lattice, j_mhz, dephasing)


def dephasing_rate(t_us: float, j_mhz: float) -> float:
    """The dephasing rate Gamma/J of a dephasing time ``t_us`` in microseconds, at J/2pi = ``j_mhz`` MHz.

    Gamma/J = 1 / (T_phi[us] * 2*pi * J_MHz): J_MHz is a cyclic frequency.
    An infinite time gives rate 0: that site does not dephase.

    Raises
    ------
    ConfigError : if the rate is infinite, from a product of time and
        coupling that is 0 (it underflowed) or too small to invert.
    """
    product = t_us * 2 * PI * j_mhz
    rate = 1.0 / product if product > 0 else math.inf
    if rate == math.inf:
        raise ConfigError(
            f"a dephasing time of {t_us:g} us at J/2pi = {j_mhz:g} MHz gives an infinite dephasing rate"
        )
    return rate


def load_lattice(path: str | Path) -> LatticeConfig:
    return lattice_from_dict(read_config_file(path, "lattice file"))


def save_lattice(config: LatticeConfig, path: str | Path) -> None:
    Path(path).write_text(json_text(lattice_to_dict(config)) + "\n")


# ---------------------------------------------------------------------------
# Output text: every JSON and CSV file the package writes
# ---------------------------------------------------------------------------

def json_text(doc: Any) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, character for character.

    The stdlib drops its C encoder whenever ``indent`` is set; this one
    follows the same rules (dicts, lists and tuples; sorted keys, with
    float, int, bool and None keys spelled as JSON; ASCII escapes;
    ``int.__repr__``; ``float.__repr__`` with ``NaN`` and ``Infinity``;
    ``TypeError`` for any other type, such as ``np.int64``), but joins a
    list of floats in one ``str.join`` over ``float.__repr__``.  It makes no
    circular-reference check.
    """
    return _json(doc, "\n")


def _json(value: Any, newline: str) -> str:
    """``value`` as indented JSON, each line break followed by ``newline``'s indent."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        separator = "," + inner
        try:
            body = separator.join(map(float.__repr__, value))
        except TypeError:  # not all floats
            body = separator.join([_json(item, inner) for item in value])
        else:
            if "n" in body:  # nan or inf, which JSON spells NaN and Infinity
                body = separator.join([_json_scalar(item, "") for item in value])
        return "[" + inner + body + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [
            encode_basestring_ascii(
                key if isinstance(key, str) else _json_scalar(key, "keys must be str, int, float, bool or None, not {}")
            ) + ": " + _json(item, inner)
            for key, item in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return _json_scalar(value, "Object of type {} is not JSON serializable")


def _json_scalar(value: Any, refusal: str) -> str:
    """JSON spelling of a float, int, bool or None; ``TypeError(refusal)`` naming any other type."""
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(refusal.format(value.__class__.__name__))


def csv_text(header: Sequence[str], rows: Any) -> str:
    """A header line, then one line per row of the 2-d ``rows``, every value as ``%.12e``."""
    table = np.atleast_2d(rows)
    line = ",".join(["%.12e"] * table.shape[1])
    return "\n".join([",".join(header), *[line % tuple(row) for row in table.tolist()]]) + "\n"
