"""Scenario configuration: a flat key tree with units spelled into key names.

Defaults reproduce the blue-light cortical setup: 456 nm, an 18-cell line
at 25 um pitch over a 450 um source-detector distance, cell/tissue indices
1.36/1.35, absorption 0.9/1.34 per mm and reduced scattering 3.43 per mm
in both media.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from itertools import accumulate
from numbers import Integral, Real
from typing import Any, Optional

from .geometry import ArrayLayout, CellShape, Fusiform, Pyramidal, Spherical, center_line
from .optics import Media, Medium, Wavelength
from .signal import pulse_samples

SHAPES = ("fusiform", "spherical", "pyramidal")
GAMMA_MODES = ("per-path", "aggregate")


@dataclass(frozen=True)
class Rule:
    """The rule for one scenario key, kept in its Scenario field (see SCHEMA).

    kind is "integer", "real", "optional" (a real or None) or "choice".
    low is the lower bound, allowed itself when closed, or the choices.
    shapes are the cell shapes whose runs read the key; layout marks the
    keys the cell line reads, pulse the keys only the pulse reads.
    """

    kind: str
    low: Any = None
    closed: bool = True
    shapes: tuple[str, ...] = SHAPES
    layout: bool = False
    pulse: bool = False

    def type_problem(self, value: Any) -> Optional[str]:
        # NaN compares False against every bound: a real must be finite first.
        if self.kind == "integer" and (isinstance(value, bool)
                                       or not isinstance(value, Integral)):
            return f"must be an integer, got {value!r}"
        if (self.kind == "real" or self.kind == "optional" and value is not None) \
                and not _is_finite_number(value):
            return f"must be a finite number, got {value!r}"
        return None

    def range_problem(self, value: Any) -> Optional[str]:
        if self.kind == "choice":
            return None if value in self.low else f"must be one of {self.low}, got {value!r}"
        if self.low is None or value > self.low or (self.closed and value == self.low):
            return None
        return f"must be {'>=' if self.closed else '>'} {self.low:g}, got {value}"

    def coerce(self, value: Any) -> Any:
        """A whole float as an int for an integer key; any other value as is."""
        if self.kind == "integer" and isinstance(value, float) and value.is_integer():
            return int(value)
        return value


def _key(default: Any, kind: str, low: Any = None, **rule: Any) -> Any:
    """A Scenario field: its default, and its Rule in the field's metadata."""
    return field(default=default, metadata={"rule": Rule(kind, low, **rule)})


_HW_SHAPES = ("fusiform", "pyramidal")  # the shapes sized by h_c and w_c


@dataclass
class Scenario:
    """One run's complete parameter set; every physical value is unit-keyed.

    d_R_um is the explicit detector gap, or None to derive it from total_um,
    the source-detector distance.  Every key but sweep carries its Rule.
    """

    shape: str = _key("fusiform", "choice", SHAPES, layout=True)
    h_c_um: float = _key(30.0, "real", 0.0, closed=False, shapes=_HW_SHAPES, layout=True)
    w_c_um: float = _key(20.0, "real", 0.0, closed=False, shapes=_HW_SHAPES, layout=True)
    r_c_um: float = _key(10.0, "real", 0.0, closed=False, shapes=("spherical",), layout=True)
    n_cells: int = _key(18, "integer", 0, layout=True)
    d_l_um: float = _key(5.0, "real", 0.0, layout=True)
    d_E_um: float = _key(5.0, "real", 0.0, layout=True)
    d_R_um: Optional[float] = _key(None, "optional", layout=True)
    total_um: Optional[float] = _key(450.0, "optional", layout=True)
    n_cell: float = _key(1.36, "real", 1.0)
    mu_a_cell_per_mm: float = _key(0.9, "real", 0.0, closed=False)
    mu_s_prime_cell_per_mm: float = _key(3.43, "real", 0.0, closed=False)
    n_tissue: float = _key(1.35, "real", 1.0)
    mu_a_tissue_per_mm: float = _key(1.34, "real", 0.0, closed=False)
    mu_s_prime_tissue_per_mm: float = _key(3.43, "real", 0.0, closed=False)
    lambda_nm: float = _key(456.0, "real", 0.0, closed=False, pulse=True)
    tau_fs: float = _key(1.0, "real", 0.0, closed=False, pulse=True)
    e0: float = _key(1.0, "real", 0.0, closed=False, pulse=True)
    k_rays: int = _key(1001, "integer", 1)
    cir_dt_fs: float = _key(10.0, "real", 0.0, closed=False)
    waveform_dt_fs: float = _key(0.05, "real", 0.0, closed=False, pulse=True)
    gamma_mode: str = _key("per-path", "choice", GAMMA_MODES)
    detector_width_um: float = _key(40.0, "real", 0.0, closed=False)
    sweep: Optional[dict] = None

    # -- derived quantities -------------------------------------------------

    def detector_gap_um(self) -> float:
        """Explicit d_R, or the remainder of total_um after cells and gaps."""
        if self.d_R_um is not None:
            return self.d_R_um
        if self.total_um is None:
            raise ValueError("either d_R_um or total_um must be set")
        n = self.n_cells
        span = n * self.build_shape().axial_extent + max(n - 1, 0) * self.d_l_um
        return self.total_um - self.d_E_um - span

    def pulse_grid_s(self) -> tuple[float, float, float]:
        """The transmitted pulse's FWHM, sample step and span, in seconds.

        The span is the 8 tau minimum that gaussian_pulse accepts.
        """
        tau = self.tau_fs * 1e-15
        return tau, self.waveform_dt_fs * 1e-15, 8.0 * tau

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


# The rule of every Scenario key but sweep, in field order.
SCHEMA: dict[str, Rule] = {f.name: f.metadata["rule"] for f in fields(Scenario)
                           if "rule" in f.metadata}

# The work budget: validate rejects a scenario whose run would exceed a cap.
# Each cap admits the benchmark and test scenarios 100 times over.
MAX_RAY_CELLS = 2_500_000     # k_rays * max(n_cells, 1), the tracer's ray-cell steps
MAX_PULSE_SAMPLES = 100_000   # samples of the transmitted pulse
MAX_PATH_SAMPLES = 100_000    # rows of the center-line path-loss curve
MAX_SWEEP_POINTS = 2_000      # points of a sweep grid


def default_scenario(shape: str = "fusiform") -> Scenario:
    if shape not in SHAPES:
        raise ValueError(f"unknown shape {shape!r}")
    return Scenario(shape=shape)


def _is_finite_number(value: Any) -> bool:
    """A real, not a bool, that converts to a finite float."""
    if isinstance(value, bool) or not isinstance(value, Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def scenario_from_dict(data: dict[str, Any]) -> Scenario:
    """Build a Scenario from a parsed key tree; unknown keys are rejected.

    Values are not judged here: validate() reports every violation, and
    whole-number floats become integers only for the integer keys.
    """
    merged = asdict(Scenario())
    unknown = set(data) - set(merged)
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    merged.update(data)
    for key, rule in SCHEMA.items():
        merged[key] = rule.coerce(merged[key])
    return Scenario(**merged)


def validate(scenario: Scenario) -> list[str]:
    """All invariant violations, each starting with the offending key.

    Ranges, cross-key rules and the sweep are judged once every type and the
    shape are right; the work budget once no other rule is broken.
    """
    s = scenario
    problems = [(key, problem) for key, rule in SCHEMA.items()
                if (problem := rule.type_problem(getattr(s, key)))]
    if s.shape not in SHAPES:  # the shape picks the rows the ranges read
        problems.append(("shape", SCHEMA["shape"].range_problem(s.shape)))
    if not problems:
        problems = _range_problems(s)
    if not problems:
        problems = _budget_problems(s)
    return [f"{key}: {problem}" for key, problem in problems]


def _range_problems(s: Scenario) -> list[tuple[str, str]]:
    problems = [(key, problem) for key, rule in SCHEMA.items()
                if s.shape in rule.shapes
                and (problem := rule.range_problem(getattr(s, key)))]
    if s.shape == "fusiform" and not {key for key, _ in problems} & {"h_c_um", "w_c_um"}:
        if s.w_c_um > s.h_c_um:
            problems.append(("w_c_um", f"fusiform needs w_c <= h_c, got "
                                       f"w_c={s.w_c_um}, h_c={s.h_c_um}"))
        else:
            try:
                radius = s.build_shape().curvature_radius
            except OverflowError:  # h_c squared beyond the float range
                radius = math.inf
            if not 0.0 < radius * radius < math.inf:
                problems.append(("h_c_um", "the square of the fusiform curvature radius "
                                           "(h_c^2 + w_c^2) / (4 w_c) must be positive "
                                           f"and finite, got radius {radius}"))
    if s.d_R_um is None and s.total_um is None:
        problems.append(("d_R_um", "either d_R_um or total_um must be set"))
    elif not any(SCHEMA[key].layout for key, _ in problems):
        try:
            gap = s.detector_gap_um()
        except OverflowError:  # a cell count beyond the float range
            gap = -math.inf
        if gap < 0.0:
            problems.append(("d_R_um", f"detector gap resolves to {gap:.6g} um; "
                                       "cells do not fit the total length"))
    if s.waveform_dt_fs > 0.0 and s.tau_fs > 0.0 and s.waveform_dt_fs >= s.tau_fs / 10.0:
        problems.append(("waveform_dt_fs", f"must be under tau/10 = {s.tau_fs / 10.0} fs to "
                                           f"resolve the envelope, got {s.waveform_dt_fs}"))
    if s.sweep is not None:
        problems += [("sweep", problem) for problem in _sweep_problems(s)]
    return problems


def _sweep_problems(s: Scenario) -> list[str]:
    grid = s.sweep
    if not isinstance(grid, dict) or "parameter" not in grid:
        return ["needs a 'parameter' key"]
    param = grid["parameter"]
    rule = SCHEMA.get(param) if isinstance(param, str) else None
    problems = []
    if rule is None or rule.kind == "choice":
        problems.append(f"cannot sweep {param!r}")
    elif rule.pulse:
        problems.append(f"{param!r} changes no sweep output (CIR, path loss, ray counts)")
    if "values" in grid:
        values = grid["values"]
        if not isinstance(values, list) or not all(map(_is_finite_number, values)):
            problems.append(f"values must be a list of finite numbers, got {values!r}")
    elif "start" not in grid or "stop" not in grid:
        problems.append("needs 'values' or 'start'/'stop'")
    for key in ("start", "stop", "step"):
        if key in grid and not _is_finite_number(grid[key]):
            problems.append(f"{key} must be a finite number, got {grid[key]!r}")
    step = grid.get("step", 1)
    if _is_finite_number(step) and step <= 0:
        problems.append(f"step must be positive, got {step!r}")
    if problems:
        return problems

    points = sweep_values(s)
    if not points:
        return [f"the {param} grid has no points"]
    if len(points) > MAX_SWEEP_POINTS:
        return [f"the {param} grid has more than {MAX_SWEEP_POINTS} points"]
    if rule.kind == "integer":
        broken = [x for x in points if not float(x).is_integer()]
        if broken:
            return [f"{param} takes whole numbers, got {broken[0]!r}"]
    return []


def _budget_problems(s: Scenario) -> list[tuple[str, str]]:
    """The caps, against the sizes the run would allocate, by the formulas it runs."""
    cells = max(s.n_cells, 1)
    if s.k_rays * cells > MAX_RAY_CELLS:
        # The ray-cell cap also bounds the loops over cells below.
        return [("k_rays", f"{s.k_rays} rays through {cells} cells exceed the cap of "
                           f"{MAX_RAY_CELLS} ray-cells")]
    problems = []
    layout = s.build_layout()
    samples = accumulate((n for _, _, n in center_line(layout)), initial=1)
    if not math.isfinite(layout.total_length) or \
            any(total > MAX_PATH_SAMPLES for total in samples):
        problems.append(("total_um" if s.d_R_um is None else "d_R_um",
                         f"the {layout.total_length:.6g} um center line needs more than "
                         f"{MAX_PATH_SAMPLES} path-loss samples"))
    _, dt, span = s.pulse_grid_s()
    if not pulse_samples(span, dt) <= MAX_PULSE_SAMPLES:
        problems.append(("waveform_dt_fs", f"a {span:.6g} s pulse span at {dt:.6g} s steps "
                                           f"needs more than {MAX_PULSE_SAMPLES} samples"))
    return problems


def sweep_values(scenario: Scenario) -> list[float]:
    """The sweep grid's points, at most MAX_SWEEP_POINTS + 1 of them.

    A start/stop grid holds the points start + i*step up to stop, within 1e-12.
    """
    grid = scenario.sweep or {}
    if "values" in grid:
        return list(grid["values"][:MAX_SWEEP_POINTS + 1])
    start, step = grid["start"], grid.get("step", 1)
    values: list[float] = []
    # Point i is start + i*step: adding step repeatedly would accumulate rounding.
    while len(values) <= MAX_SWEEP_POINTS and \
            start + len(values) * step <= grid["stop"] + 1e-12:
        values.append(start + len(values) * step)
    return values
