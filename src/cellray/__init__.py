"""cellray: geometric-optics channel simulation through arrays of cell lenses."""

from .channel import (
    DetectorMap,
    EmptyChannel,
    ImpulseResponse,
    PathContribution,
    PathOutsideDetector,
    build_cir,
    detector_map,
    focusing_gain,
    path_contribution,
    power_delay_profile,
)
from .config import Scenario, default_scenario, scenario_from_dict, validate
from .geometry import (
    ArrayLayout,
    CellShape,
    FocusReport,
    Fusiform,
    NoIntersection,
    Pyramidal,
    RayBatch,
    RayPath,
    RayState,
    Spherical,
    TotalInternalReflection,
    avg_distances,
    collimated_bundle,
    trace_array,
    trace_cell,
)
from .optics import Media, Medium, Wavelength, dpf, total_path_loss, transmittance
from .signal import (
    Spectrum,
    Waveform,
    estimate_channel,
    gaussian_pulse,
    propagate,
    received_pulse,
    spectrum,
)

__version__ = "0.1.0"
