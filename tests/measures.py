"""Measures the tests take of the package's values that no command reads.

energy integrates a waveform's squared field (criterion 9's Parseval check
and the energy inequality), light_speed_m_per_s is a medium's phase
velocity, dpf is the differential pathlength factor that absorbance
multiplies in, and coordinate_clusters splits a detector map at its
coordinate gaps (criterion 8's cluster count).
"""

import math

import numpy as np

from cellray.channel import DetectorMap
from cellray.optics import SPEED_OF_LIGHT_M_PER_S, Medium
from cellray.signal import Waveform


def energy(waveform: Waveform) -> float:
    """Time-integrated squared field."""
    return float(np.sum(waveform.samples**2) * waveform.dt)


def light_speed_m_per_s(medium: Medium) -> float:
    """Phase velocity c/n."""
    return SPEED_OF_LIGHT_M_PER_S / medium.n


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


def coordinate_clusters(dmap: DetectorMap, gap_um: float = 1.0,
                        min_size: int = 2) -> list[np.ndarray]:
    """Group detector samples into clusters split at coordinate gaps > gap_um."""
    splits = np.flatnonzero(np.diff(dmap.samples[:, 0]) > gap_um) + 1
    return [c for c in np.split(dmap.samples, splits) if len(c) >= min_size]
