"""Momentum-space models: Bloch Hamiltonians, band structure, and Zak phase.

The unit-cell embedding follows the periodic gauge with every orbital placed
at the cell origin, so the Bloch builders are 2*pi periodic exactly.  Zak
phases are convention dependent; the detuning-driven 0 <-> pi jump of the
trimer lattice is not, and the reported absolute values hold under this
documented convention.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .dynamics import SQRT2
from .errors import ConfigError, NumericalError
from .lattice import PI, parse_flux


def rhombic_bloch(k: float | np.ndarray, J: float = 1.0, flux: float = PI) -> np.ndarray:
    """3x3 Bloch matrix of the rhombic chain in the (A, up, dn) cell basis.

    The spine couples to the up orbital as ``-J (1 + exp(-ik))`` and to the
    down orbital as ``-J (1 + exp(i*flux) exp(-ik))``; the diagonal is zero.
    An array of k gives the matrices stacked along its leading axes.
    """
    phase = 1.0 if parse_flux(flux) == 0.0 else -1.0
    k = np.asarray(k, dtype=float)
    h = np.zeros(k.shape + (3, 3), dtype=complex)
    h[..., 0, 1] = -J * (1 + np.exp(-1j * k))
    h[..., 0, 2] = -J * (1 + phase * np.exp(-1j * k))
    h[..., 1, 0] = h[..., 0, 1].conj()
    h[..., 2, 0] = h[..., 0, 2].conj()
    return h


def trimer_bloch(k: float | np.ndarray, J: float = 1.0, delta: float = 0.0) -> np.ndarray:
    """3x3 Bloch matrix of the trimer chain in the (-, A, +) cell basis.

    Intra-cell hoppings are ``-sqrt(2) J`` on (-, A) and (A, +); the detuning
    couples the + orbital of one cell to the - orbital of the next, entering
    as ``delta * exp(-ik)`` on the (+, -) element.  An array of k gives the
    matrices stacked along its leading axes.
    """
    if not 0 < J < math.inf:  # also rejects NaN
        raise ConfigError("J must be finite and positive")
    if not 0 <= delta < math.inf:
        raise ConfigError("delta must be finite and nonnegative")
    k = np.asarray(k, dtype=float)
    h = np.zeros(k.shape + (3, 3), dtype=complex)
    h[..., 0, 1] = h[..., 1, 0] = -SQRT2 * J
    h[..., 1, 2] = h[..., 2, 1] = -SQRT2 * J
    h[..., 2, 0] = delta * np.exp(-1j * k)
    h[..., 0, 2] = h[..., 2, 0].conj()
    return h


@dataclass(frozen=True, eq=False)
class BlochModel:
    """A k -> Hermitian matrix builder with its basis labels and energy scale.

    The builder takes a scalar k or an array of k; for an array it returns
    the matrices stacked along the array's axes.
    """

    basis_size: int
    builder: Callable[[float | np.ndarray], np.ndarray]
    labels: tuple[str, ...]
    energy_scale: float
    parameters: Mapping[str, float]

    def __post_init__(self):
        if len(self.labels) != self.basis_size:
            raise ConfigError("one label per orbital required")

    def __call__(self, k: float | np.ndarray) -> np.ndarray:
        return self.builder(k)


def rhombic_bloch_model(J: float = 1.0, flux: float = PI) -> BlochModel:
    return BlochModel(
        3,
        lambda k: rhombic_bloch(k, J, flux),
        ("A", "up", "dn"),
        J,
        {"J": J, "flux": flux},
    )


def trimer_bloch_model(J: float = 1.0, delta: float = 0.0) -> BlochModel:
    return BlochModel(
        3,
        lambda k: trimer_bloch(k, J, delta),
        ("-", "A", "+"),
        J,
        {"J": J, "delta": delta},
    )


@dataclass(frozen=True, eq=False)
class BandStructure:
    """Sorted band energies on a uniform momentum grid over [-pi, pi]."""

    k_grid: np.ndarray
    energies: np.ndarray

    def __post_init__(self):
        k = np.array(self.k_grid, dtype=float)
        e = np.array(self.energies, dtype=float)
        if e.ndim != 2 or e.shape[0] != k.shape[0]:
            raise ConfigError("energies must be a [k x band] matrix")
        k.setflags(write=False)
        e.setflags(write=False)
        object.__setattr__(self, "k_grid", k)
        object.__setattr__(self, "energies", e)

    @property
    def num_bands(self) -> int:
        return self.energies.shape[1]

    def bandwidths(self) -> np.ndarray:
        return self.energies.max(axis=0) - self.energies.min(axis=0)


def band_structure(model: BlochModel, n_k: int) -> BandStructure:
    """Diagonalize the Bloch matrix on an inclusive uniform grid."""
    if n_k < 3:
        raise ConfigError("need at least 3 momentum points")
    k_grid = np.linspace(-PI, PI, n_k)
    return BandStructure(k_grid, np.linalg.eigvalsh(model(k_grid)))


def wilson_loop_phase(vectors: np.ndarray) -> float:
    """Phase of the discrete Wilson loop over a closed chain of eigenvectors.

    ``vectors`` has one normalized eigenvector per row, ordered around the
    Brillouin zone; the loop closes back onto the first row.  The result is
    invariant under any per-row phase change.
    """
    overlaps = np.einsum("ij,ij->i", vectors.conj(), np.roll(vectors, -1, axis=0))
    if np.any(np.abs(overlaps) < 1e-12):
        raise NumericalError("adjacent Bloch eigenvectors are orthogonal; grid too coarse")
    product = complex(np.prod(overlaps / np.abs(overlaps)))
    phase = -cmath.phase(product)
    if phase <= -PI:  # fold onto (-pi, pi]
        phase += 2 * PI
    return phase


@dataclass(frozen=True)
class ZakResult:
    raw: float
    snapped: float
    min_gap: float

    @property
    def quantized(self) -> bool:
        return abs(self.raw - self.snapped) <= 0.05 or abs(abs(self.raw) - PI) <= 0.05


def zak_phase(model: BlochModel, band_index: int, n_k: int = 512) -> ZakResult:
    """Wilson-loop Zak phase of one band, snapped to {0, pi} when within 0.05 rad.

    Eigenvectors are taken on the periodic grid ``k_m = -pi + 2 pi m / n_k``
    and the loop closes with the boundary overlap back to the first point,
    which keeps the product gauge robust without derivative estimation.

    Raises ``NumericalError`` if the band is not gapped from its neighbours
    over the whole grid (min gap at or below ``1e-8 * energy_scale``).
    """
    if n_k < 64:
        raise ConfigError("Zak phase needs n_k >= 64")
    if not 0 <= band_index < model.basis_size:
        raise ConfigError(f"band index {band_index} out of range")
    ks = -PI + 2 * PI * np.arange(n_k) / n_k
    energies, eigvecs = np.linalg.eigh(model(ks))
    vectors = eigvecs[:, :, band_index]
    gaps = np.diff(energies, axis=1)[:, max(band_index - 1, 0) : band_index + 1]
    min_gap = float(gaps.min()) if gaps.size else math.inf
    if min_gap <= 1e-8 * model.energy_scale:
        raise NumericalError(
            f"band {band_index} is not gapped over the grid (min gap {min_gap:.3e}); "
            "Zak phase undefined"
        )
    raw = wilson_loop_phase(vectors)
    snapped = raw
    if abs(raw) <= 0.05:
        snapped = 0.0
    elif abs(abs(raw) - PI) <= 0.05:
        snapped = PI
    return ZakResult(raw, snapped, float(min_gap))
