"""Scenario configuration: a flat key tree with units spelled into key names.

Defaults reproduce the blue-light cortical setup: 456 nm, an 18-cell line
at 25 um pitch over a 450 um source-detector distance, cell/tissue indices
1.36/1.35, absorption 0.9/1.34 per mm and reduced scattering 3.43 per mm
in both media.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from numbers import Integral, Real
from typing import Any, Optional

from .geometry import ArrayLayout, CellShape, Fusiform, Pyramidal, Spherical
from .optics import Media, Medium, Wavelength

SHAPES = ("fusiform", "spherical", "pyramidal")
GAMMA_MODES = ("per-path", "aggregate")


@dataclass
class Scenario:
    """One run's complete parameter set; every physical value is unit-keyed."""

    shape: str = "fusiform"
    h_c_um: float = 30.0
    w_c_um: float = 20.0
    r_c_um: float = 10.0
    n_cells: int = 18
    d_l_um: float = 5.0
    d_E_um: float = 5.0
    d_R_um: Optional[float] = None   # explicit detector gap, or None to derive
    total_um: Optional[float] = 450.0  # source-detector distance when d_R_um is None
    n_cell: float = 1.36
    mu_a_cell_per_mm: float = 0.9
    mu_s_prime_cell_per_mm: float = 3.43
    n_tissue: float = 1.35
    mu_a_tissue_per_mm: float = 1.34
    mu_s_prime_tissue_per_mm: float = 3.43
    lambda_nm: float = 456.0
    tau_fs: float = 1.0
    e0: float = 1.0
    k_rays: int = 1001
    cir_dt_fs: float = 10.0
    waveform_dt_fs: float = 0.05
    gamma_mode: str = "per-path"
    detector_width_um: float = 40.0
    sweep: Optional[dict] = None

    # -- derived quantities -------------------------------------------------

    def cell_axial_extent_um(self) -> float:
        if self.shape == "spherical":
            return 2.0 * self.r_c_um
        return self.w_c_um

    def detector_gap_um(self) -> float:
        """Explicit d_R, or the remainder of total_um after cells and gaps."""
        if self.d_R_um is not None:
            return self.d_R_um
        if self.total_um is None:
            raise ValueError("either d_R_um or total_um must be set")
        n = self.n_cells
        span = n * self.cell_axial_extent_um() + max(n - 1, 0) * self.d_l_um
        return self.total_um - self.d_E_um - span

    # -- builders -----------------------------------------------------------

    def build_shape(self) -> CellShape:
        if self.shape == "fusiform":
            return Fusiform(h_c=self.h_c_um, w_c=self.w_c_um)
        if self.shape == "spherical":
            return Spherical(r_c=self.r_c_um)
        if self.shape == "pyramidal":
            return Pyramidal(h_c=self.h_c_um, w_c=self.w_c_um)
        raise ValueError(f"unknown shape {self.shape!r}")

    def build_layout(self) -> ArrayLayout:
        return ArrayLayout(shape=self.build_shape(), n_cells=self.n_cells,
                           gap=self.d_l_um, source_gap=self.d_E_um,
                           detector_gap=self.detector_gap_um())

    def build_media(self) -> Media:
        return Media(
            cell=Medium(self.n_cell, self.mu_a_cell_per_mm,
                        self.mu_s_prime_cell_per_mm),
            tissue=Medium(self.n_tissue, self.mu_a_tissue_per_mm,
                          self.mu_s_prime_tissue_per_mm),
        )

    def build_wavelength(self) -> Wavelength:
        return Wavelength(nm=self.lambda_nm)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


# Key types: integer counts, and the real-valued keys (those with a float
# default, plus the detector pair that may be left unset as None).
INTEGER_KEYS = frozenset({"n_cells", "k_rays"})
OPTIONAL_KEYS = frozenset({"d_R_um", "total_um"})
REAL_KEYS = frozenset(f.name for f in fields(Scenario)
                      if isinstance(f.default, float)) | OPTIONAL_KEYS
# Keys that only shape the pulse: a sweep writes CIRs, path loss and ray
# counts, none of which reads them, so sweeping one would repeat one row.
PULSE_KEYS = frozenset({"lambda_nm", "tau_fs", "e0", "waveform_dt_fs"})


def default_scenario(shape: str = "fusiform") -> Scenario:
    if shape not in SHAPES:
        raise ValueError(f"unknown shape {shape!r}")
    return Scenario(shape=shape)


def _is_finite_number(value: Any) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool) \
        and math.isfinite(value)


def _number_violations(s: Scenario) -> list[str]:
    """Type violations of the numeric keys.

    NaN compares False against every bound and the tracer's masks, so
    non-finite values are rejected before any range check runs.
    """
    v: list[str] = []
    for f in fields(s):
        value = getattr(s, f.name)
        if f.name in INTEGER_KEYS:
            if isinstance(value, bool) or not isinstance(value, Integral):
                v.append(f"{f.name}: must be an integer, got {value!r}")
        elif f.name in REAL_KEYS and not (value is None and f.name in OPTIONAL_KEYS):
            if not _is_finite_number(value):
                v.append(f"{f.name}: must be a finite number, got {value!r}")
    return v


def scenario_from_dict(data: dict[str, Any]) -> Scenario:
    """Build a Scenario from a parsed key tree; unknown keys are rejected.

    Values are not judged here: validate() reports every violation, and
    whole-number floats become integers only for the integer keys.
    """
    known = {f.name for f in fields(Scenario)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    merged = {f.name: getattr(Scenario(), f.name) for f in fields(Scenario)}
    merged.update(data)
    for key in INTEGER_KEYS:
        if isinstance(merged[key], float) and merged[key].is_integer():
            merged[key] = int(merged[key])
    return Scenario(**merged)


def validate(scenario: Scenario) -> list[str]:
    """All invariant violations, each naming the offending field."""
    s = scenario
    v = _number_violations(s)
    if s.shape not in SHAPES:
        v.append(f"shape: must be one of {SHAPES}, got {s.shape!r}")
    if v:
        return v

    if s.shape == "spherical":
        if s.r_c_um <= 0.0:
            v.append(f"r_c_um: must be positive, got {s.r_c_um}")
    else:
        if s.h_c_um <= 0.0:
            v.append(f"h_c_um: must be positive, got {s.h_c_um}")
        if s.w_c_um <= 0.0:
            v.append(f"w_c_um: must be positive, got {s.w_c_um}")
        if s.shape == "fusiform" and s.w_c_um > s.h_c_um > 0.0:
            v.append(f"w_c_um: fusiform needs w_c <= h_c, got "
                     f"w_c={s.w_c_um}, h_c={s.h_c_um}")

    if s.n_cells < 0:
        v.append(f"n_cells: must be >= 0, got {s.n_cells}")
    if s.d_l_um < 0.0:
        v.append(f"d_l_um: must be non-negative, got {s.d_l_um}")
    if s.d_E_um < 0.0:
        v.append(f"d_E_um: must be non-negative, got {s.d_E_um}")
    if s.d_R_um is None and s.total_um is None:
        v.append("d_R_um: either d_R_um or total_um must be set")
    elif not v:
        try:
            gap = s.detector_gap_um()
        except ValueError as exc:
            v.append(f"d_R_um: {exc}")
        else:
            if gap < 0.0:
                v.append(f"d_R_um: detector gap resolves to {gap:.6g} um; "
                         "cells do not fit the total length")

    for name in ("n_cell", "n_tissue"):
        if getattr(s, name) < 1.0:
            v.append(f"{name}: refractive index must be >= 1, got {getattr(s, name)}")
    for name in ("mu_a_cell_per_mm", "mu_s_prime_cell_per_mm",
                 "mu_a_tissue_per_mm", "mu_s_prime_tissue_per_mm",
                 "lambda_nm", "tau_fs", "e0", "cir_dt_fs",
                 "waveform_dt_fs", "detector_width_um"):
        if getattr(s, name) <= 0.0:
            v.append(f"{name}: must be positive, got {getattr(s, name)}")
    if s.k_rays < 1:
        v.append(f"k_rays: need at least one ray, got {s.k_rays}")
    if s.waveform_dt_fs > 0.0 and s.tau_fs > 0.0 and \
            s.waveform_dt_fs >= s.tau_fs / 10.0:
        v.append(f"waveform_dt_fs: must be under tau/10 = {s.tau_fs / 10.0} fs "
                 f"to resolve the envelope, got {s.waveform_dt_fs}")
    if s.gamma_mode not in GAMMA_MODES:
        v.append(f"gamma_mode: must be one of {GAMMA_MODES}, got {s.gamma_mode!r}")

    if s.sweep is not None:
        if not isinstance(s.sweep, dict) or "parameter" not in s.sweep:
            v.append("sweep: needs a 'parameter' key")
        else:
            param = s.sweep["parameter"]
            if param not in INTEGER_KEYS | REAL_KEYS:
                v.append(f"sweep: cannot sweep {param!r}")
            elif param in PULSE_KEYS:
                v.append(f"sweep: {param!r} changes no sweep output "
                         "(CIR, path loss, ray counts)")
            if not (("values" in s.sweep) or
                    ("start" in s.sweep and "stop" in s.sweep)):
                v.append("sweep: needs 'values' or 'start'/'stop'")
            values = s.sweep.get("values", [])
            if not isinstance(values, list) or \
                    not all(_is_finite_number(x) for x in values):
                v.append(f"sweep: values must be a list of finite numbers, "
                         f"got {values!r}")
            for key in ("start", "stop", "step"):
                if key in s.sweep and not _is_finite_number(s.sweep[key]):
                    v.append(f"sweep: {key} must be a finite number, "
                             f"got {s.sweep[key]!r}")
            step = s.sweep.get("step", 1)
            if _is_finite_number(step) and step <= 0:
                v.append(f"sweep: step must be positive, got {step!r}")
            if "values" in s.sweep:
                empty = values == []
            else:
                start, stop = s.sweep.get("start"), s.sweep.get("stop")
                # sweep_values' first point is start, kept iff start <= stop + 1e-12.
                empty = _is_finite_number(start) and _is_finite_number(stop) \
                    and start > stop + 1e-12
            if empty:
                v.append(f"sweep: the {param} grid has no points")
            if param in INTEGER_KEYS:
                # Whole start and step make every grid point whole.
                grid = values if "values" in s.sweep else \
                    [s.sweep.get("start"), step]
                if isinstance(grid, list) and not all(
                        float(x).is_integer() for x in grid if _is_finite_number(x)):
                    v.append(f"sweep: {param} takes whole numbers, got {grid!r}")
    return v


def sweep_values(scenario: Scenario) -> list[float]:
    grid = scenario.sweep or {}
    if "values" in grid:
        return list(grid["values"])
    start, step = grid["start"], grid.get("step", 1)
    values: list[float] = []
    # Point i is start + i*step: adding step repeatedly would accumulate rounding.
    while start + len(values) * step <= grid["stop"] + 1e-12:
        values.append(start + len(values) * step)
    return values
