"""Optical constants and modified Beer-Lambert attenuation.

Absorption and reduced scattering coefficients are per millimetre, so every
function here takes distances in millimetres.  The geometry module works in
micrometres; callers convert with UM_PER_MM at the boundary.

absorbance and transmittance take one distance or an array of them; an
array gives, element by element, the bits a scalar call gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT_M_PER_S = 299_792_458.0
UM_PER_MM = 1000.0

# 10/ln(10): converts a natural-log attenuation exponent into decibels.
DB_PER_NEPER = 10.0 / math.log(10.0)


class BeyondPole(ValueError):
    """A distance at or past the diffusion model's pole, where d * DPF(d) diverges."""


@dataclass(frozen=True)
class Medium:
    """Homogeneous optical medium.

    Attributes:
        n: refractive index (dimensionless, >= 1)
        mu_a: absorption coefficient (1/mm)
        mu_s_prime: reduced scattering coefficient (1/mm)
    """

    n: float
    mu_a: float
    mu_s_prime: float

    def __post_init__(self) -> None:
        if self.n < 1.0:
            raise ValueError(f"refractive index must be >= 1, got {self.n}")
        if self.mu_a <= 0.0:
            raise ValueError(f"mu_a must be positive, got {self.mu_a}")
        if self.mu_s_prime <= 0.0:
            raise ValueError(f"mu_s_prime must be positive, got {self.mu_s_prime}")

    @property
    def light_speed_m_per_s(self) -> float:
        """Phase velocity c/n."""
        return SPEED_OF_LIGHT_M_PER_S / self.n


@dataclass(frozen=True)
class Wavelength:
    """Carrier wavelength of the shaped pulse; no attenuation depends on it."""

    nm: float = 456.0

    def __post_init__(self) -> None:
        if self.nm <= 0.0:
            raise ValueError(f"wavelength must be positive, got {self.nm}")

    @property
    def frequency_hz(self) -> float:
        return SPEED_OF_LIGHT_M_PER_S / (self.nm * 1e-9)

    @property
    def omega0_rad_per_s(self) -> float:
        return 2.0 * math.pi * self.frequency_hz


@dataclass(frozen=True)
class Media:
    """The two propagation media of a cell array: intracellular and interstitial."""

    cell: Medium
    tissue: Medium


def dpf(medium: Medium, d_mm: float) -> float:
    """Differential pathlength factor from diffusion theory.

    0.5*sqrt(3*mu_s'/mu_a) * [1 - 1/(1 + d*sqrt(3*mu_a*mu_s'))].
    Strictly increasing in d, 0 at d = 0, bounded by 0.5*sqrt(3*mu_s'/mu_a).
    """
    if d_mm < 0.0:
        raise ValueError(f"distance must be non-negative, got {d_mm}")
    bound = 0.5 * math.sqrt(3.0 * medium.mu_s_prime / medium.mu_a)
    k = math.sqrt(3.0 * medium.mu_a * medium.mu_s_prime)
    return bound * (1.0 - 1.0 / (1.0 + d_mm * k))


def absorbance(medium: Medium, d_mm):
    """Natural-log attenuation exponent mu_a * d * DPF(d).

    Unlike dpf() this accepts slightly negative d: the analytic inter-cell
    average for fusiform arrays can dip below zero, and the product
    d * DPF(d) stays non-negative for d > -1/sqrt(3*mu_a*mu_s').
    """
    k = math.sqrt(3.0 * medium.mu_a * medium.mu_s_prime)
    if np.any(np.asarray(d_mm) * k <= -1.0):
        raise BeyondPole(f"distance {np.min(d_mm)} mm beyond the diffusion-model pole")
    bound = 0.5 * math.sqrt(3.0 * medium.mu_s_prime / medium.mu_a)
    return medium.mu_a * d_mm * bound * (1.0 - 1.0 / (1.0 + d_mm * k))


def transmittance(medium: Medium, d_mm):
    """Intensity ratio exp(-mu_a * d * DPF(d)) through d mm of one medium.

    Equals 1 at d = 0 and is non-increasing in d: every step of absorbance
    is a correctly rounded +, -, * or / of non-negative operands, each
    monotone in d, and exp is monotone.  It is strictly decreasing only
    between distances a resolvable step apart.  The computed value lies
    within about 4 units of 2**-53 of the exact one (absorbance's seven
    roundings, scaled by A*exp(-A) <= 1/e, plus those of exp), so two
    distances come out strictly ordered once their exact transmittances
    differ by more than 2**-49, that is once they are more than about
    2**-49 / |dT/dd| apart.  Near d = 0, A(d) ~ 1.5 mu_a mu_s' d^2 and
    |dT/dd| ~ 3 mu_a mu_s' d: at d = 1e-6 mm the step is ~2e-10 mm while
    neighbouring doubles lie ~2e-22 mm apart, so nearby distances can give
    one value.

    d_mm may be an array.  The exponential then still runs through
    math.exp, one element at a time, because numpy's vectorised exp differs
    from it in the last bit for about 5 % of inputs.
    """
    if np.any(np.asarray(d_mm) < 0.0):
        raise ValueError(f"distance must be non-negative, got {np.min(d_mm)}")
    exponent = absorbance(medium, d_mm)
    if np.ndim(exponent) == 0:
        return math.exp(-exponent)
    return np.fromiter(map(math.exp, (-exponent).tolist()), float, len(exponent))


def total_path_loss(layout, media: Media) -> float:
    """Aggregate path loss in dB for an N-cell array from analytic averages.

    Sums N intracellular terms at the average in-cell chord, max(N-1, 0)
    inter-cell tissue terms at the average gap, and one source/detector
    tissue term, each with its DPF evaluated at its own distance.  The
    channel module uses exact per-ray distances instead; both are exposed
    so the averaging error is measurable.
    """
    from .geometry import avg_distances

    d_a_um, d_e_um = avg_distances(layout.shape, layout.gap)
    n = layout.n_cells
    total = n * absorbance(media.cell, d_a_um / UM_PER_MM)
    total += max(n - 1, 0) * absorbance(media.tissue, d_e_um / UM_PER_MM)
    ends_mm = (layout.source_gap + layout.detector_gap) / UM_PER_MM
    total += absorbance(media.tissue, ends_mm)
    return DB_PER_NEPER * total
