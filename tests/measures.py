"""Measures the tests take of the package's values that no command reads.

energy integrates a waveform's squared field (criterion 9's Parseval check
and the energy inequality), light_speed_m_per_s is a medium's phase
velocity, and coordinate_clusters splits a detector map at its coordinate
gaps (criterion 8's cluster count).
"""

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


def coordinate_clusters(dmap: DetectorMap, gap_um: float = 1.0,
                        min_size: int = 2) -> list[np.ndarray]:
    """Group detector samples into clusters split at coordinate gaps > gap_um."""
    splits = np.flatnonzero(np.diff(dmap.samples[:, 0]) > gap_um) + 1
    return [c for c in np.split(dmap.samples, splits) if len(c) >= min_size]
