"""Scenario configuration: a flat key tree with units spelled into key names.

Defaults reproduce the blue-light cortical setup: 456 nm, an 18-cell line
at 25 um pitch over a 450 um source-detector distance, cell/tissue indices
1.36/1.35, absorption 0.9/1.34 per mm and reduced scattering 3.43 per mm
in both media.  These are Scenario's field defaults, the only ones: the
functions a scenario feeds take each value from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from numbers import Integral, Real
from typing import Any, Iterator, Optional

from .geometry import (ArrayLayout, CellShape, Fusiform, Pyramidal, Spherical, cell_line,
                       center_line, span)
from .optics import Media, Medium, Wavelength
from .signal import pulse_samples, resolves_envelope, samples_carrier

SHAPES = ("fusiform", "spherical", "pyramidal")
GAMMA_MODES = ("per-path", "aggregate")


@dataclass(frozen=True)
class Rule:
    """The rule for one scenario key, kept in its Scenario field (see SCHEMA).

    kind is "integer", "real", "optional" (a real or None) or "choice".
    low is the lower bound, or the choices; high, when given, is the upper
    bound.  Both bounds are allowed themselves.
    shapes are the cell shapes whose runs read the key; layout marks the
    keys the cell line reads, pulse the keys only the pulse reads.
    """

    kind: str
    low: Any
    high: Optional[float] = None
    shapes: tuple[str, ...] = SHAPES
    layout: bool = False
    pulse: bool = False

    def type_problem(self, value: Any) -> Optional[str]:
        if self.kind == "choice" and value not in self.low:
            return f"must be one of {self.low}, got {value!r}"
        # NaN compares False against every bound: a real must be finite first.
        if self.kind == "integer" and (isinstance(value, bool)
                                       or not isinstance(value, Integral)):
            return f"must be an integer, got {value!r}"
        if (self.kind == "real" or self.kind == "optional" and value is not None) \
                and not _is_finite_number(value):
            return f"must be a finite number, got {value!r}"
        return None

    def range_problem(self, value: Any) -> Optional[str]:
        if self.kind == "choice" or value is None:  # judged by type, or an unset optional
            return None
        if value < self.low:
            return f"must be >= {self.low:g}, got {value}"
        if self.high is not None and value > self.high:
            return f"must be <= {self.high:g}, got {value}"
        return None

    def coerce(self, value: Any) -> Any:
        """A whole float as an int for an integer key, an int or float as a
        float for a real key (-0.0 as 0.0); any other value as is."""
        if self.kind == "integer" and isinstance(value, float) and value.is_integer():
            return int(value)
        if self.kind in ("real", "optional") and type(value) in (int, float):
            try:
                return float(value) + 0.0
            except OverflowError:  # an int beyond the float range: validate rejects it
                pass
        return value


def _key(default: Any, kind: str, low: Any, **rule: Any) -> Any:
    """A Scenario field: its default, and its Rule in the field's metadata."""
    return field(default=default, metadata={"rule": Rule(kind, low, **rule)})


# The work budget: validate rejects a scenario whose run would exceed a cap.
# Each cap admits the benchmark and test scenarios 100 times over.
# A scenario's runs are charged by the traces they make (ray_cells): a lone
# run max(k_rays, MIN_CHARGED_RAYS) * max(n_cells, 1) ray-cells.
MAX_RAY_CELLS = 2_500_000
# The tracer's cost per cell is about flat below this many rays, so a trace
# is charged for at least this many: at most 2,500 cells at small k_rays.
MIN_CHARGED_RAYS = 1_000
# Multiply-adds of the pulse convolution, pulse samples * CIR bins; checked
# by the pulse command once the CIR is binned.
MAX_CONVOLUTION = 5_000_000_000
MAX_PULSE_SAMPLES = 100_000   # samples of the transmitted pulse
MAX_PATH_SAMPLES = 100_000    # rows of the center-line path-loss curve
MAX_SWEEP_POINTS = MAX_RAY_CELLS // MIN_CHARGED_RAYS  # sweep grid points the charge admits
SWEEP_KEYS = ("parameter", "values", "start", "stop", "step")  # of a sweep block


_HW_SHAPES = ("fusiform", "pyramidal")  # the shapes sized by h_c and w_c


@dataclass
class Scenario:
    """One run's complete parameter set; every physical value is unit-keyed.

    d_R_um is the explicit detector gap, or None to derive it from total_um,
    the source-detector distance.  Every key but sweep carries its Rule.
    """

    shape: str = _key("fusiform", "choice", SHAPES, layout=True)
    # The size range keeps every squared size, the fusiform curvature radius
    # and the chord on the axis positive and finite.
    h_c_um: float = _key(30.0, "real", 1e-6, high=1e6, shapes=_HW_SHAPES, layout=True)
    w_c_um: float = _key(20.0, "real", 1e-6, high=1e6, shapes=_HW_SHAPES, layout=True)
    r_c_um: float = _key(10.0, "real", 1e-6, high=1e6, shapes=("spherical",), layout=True)
    # At most the cells that the ray-cell charge admits a lone run.
    n_cells: int = _key(18, "integer", 0, high=MAX_RAY_CELLS // MIN_CHARGED_RAYS, layout=True)
    # With the sizes and n_cells, keeps the detector gap and the center line finite.
    d_l_um: float = _key(5.0, "real", 0.0, high=1e6, layout=True)
    d_E_um: float = _key(5.0, "real", 0.0, high=1e6, layout=True)
    d_R_um: Optional[float] = _key(None, "optional", 0.0, high=1e6, layout=True)
    total_um: Optional[float] = _key(450.0, "optional", 0.0, high=1e6, layout=True)
    # With n_tissue, keeps every delay, and so every CIR slot, finite.
    n_cell: float = _key(1.36, "real", 1.0, high=1e6)
    # The four coefficients' range keeps the diffusion model's sqrt(3 mu_s'/mu_a)
    # and sqrt(3 mu_a mu_s') finite, and with them every gain and path loss.
    mu_a_cell_per_mm: float = _key(0.9, "real", 1e-6, high=1e6)
    mu_s_prime_cell_per_mm: float = _key(3.43, "real", 1e-6, high=1e6)
    n_tissue: float = _key(1.35, "real", 1.0, high=1e6)
    mu_a_tissue_per_mm: float = _key(1.34, "real", 1e-6, high=1e6)
    mu_s_prime_tissue_per_mm: float = _key(3.43, "real", 1e-6, high=1e6)
    # Keeps the carrier 2 pi c / lambda finite; samples_carrier then bounds its phase.
    lambda_nm: float = _key(456.0, "real", 1e-6, pulse=True)
    # With both steps, keeps the sample counts finite and the seconds normal.
    tau_fs: float = _key(1.0, "real", 1e-6, high=1e6, pulse=True)
    # Squared in the report's peak powers, which must stay finite and normal.
    e0: float = _key(1.0, "real", 1e-100, high=1e100, pulse=True)
    k_rays: int = _key(1001, "integer", 1)
    cir_dt_fs: float = _key(10.0, "real", 1e-6, high=1e6)
    waveform_dt_fs: float = _key(0.05, "real", 1e-6, high=1e6, pulse=True)
    gamma_mode: str = _key("per-path", "choice", GAMMA_MODES)
    detector_width_um: float = _key(40.0, "real", 1e-6, high=1e6)
    sweep: Optional[dict] = None

    # -- derived quantities -------------------------------------------------

    def detector_gap_um(self) -> float:
        """Explicit d_R, or the remainder of total_um after cells and gaps."""
        if self.d_R_um is not None:
            return self.d_R_um
        if self.total_um is None:
            raise ValueError("either d_R_um or total_um must be set")
        return self.total_um - self.d_E_um - span(self.build_shape(), self.n_cells, self.d_l_um)

    def pulse_grid_s(self) -> tuple[float, float]:
        """The transmitted pulse's FWHM and sample step, in seconds."""
        return self.tau_fs * 1e-15, self.waveform_dt_fs * 1e-15

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


# The rule of every Scenario key but sweep, in field order.
SCHEMA: dict[str, Rule] = {f.name: f.metadata["rule"] for f in fields(Scenario)
                           if "rule" in f.metadata}


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

    A given key's value is read in its canonical form (Rule.coerce); a key
    not given keeps its Scenario default.  Values are not judged here:
    validate() reports every violation.
    """
    if unknown := data.keys() - SCHEMA.keys() - {"sweep"}:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    return Scenario(**{key: SCHEMA[key].coerce(value) if key in SCHEMA else value
                       for key, value in data.items()})


def validate(scenario: Scenario) -> list[str]:
    """All invariant violations, each starting with the offending key.

    A scenario is judged as its runs: itself, or a sweep's points, so a
    sweep's base is judged only by its types and grid.  The stages, each once
    the ones before pass: the types, choices included; a sweep's grid; each
    run's ranges and cross-key rules; the work budget (_budget_problems) on
    the runs' trace_groups, built once and walked once per group.  A stage
    over the runs reports the first run that breaks it, as that run alone would.
    """
    s = scenario
    problems = [(key, problem) for key, rule in SCHEMA.items()
                if (problem := rule.type_problem(getattr(s, key)))]
    if not problems and s.sweep is not None:
        problems = [("sweep", problem) for problem in _sweep_problems(s)]
    if not problems:
        runs = [s] if s.sweep is None else sweep_points(s)
        problems = next(filter(None, map(_range_problems, runs)), []) or _budget_problems(s, runs)
    return [f"{key}: {problem}" for key, problem in problems]


def _range_problems(s: Scenario) -> list[tuple[str, str]]:
    problems = [(key, problem) for key, rule in SCHEMA.items()
                if s.shape in rule.shapes
                and (problem := rule.range_problem(getattr(s, key)))]
    broken = {key for key, _ in problems}  # the cross-key rules read only keys in range
    if not broken & {"h_c_um", "w_c_um"} and s.shape == "fusiform" and s.w_c_um > s.h_c_um:
        problems.append(("w_c_um", f"fusiform needs w_c <= h_c, got "
                                   f"w_c={s.w_c_um}, h_c={s.h_c_um}"))
    if s.d_R_um is None and s.total_um is None:
        problems.append(("d_R_um", "either d_R_um or total_um must be set"))
    elif not any(SCHEMA[key].layout for key, _ in problems):
        if (gap := s.detector_gap_um()) < 0.0:
            problems.append(("d_R_um", f"detector gap resolves to {gap:.6g} um; "
                                       "cells do not fit the total length"))
    # Judged in seconds, as gaussian_pulse judges it: the fs values can round apart.
    tau, dt = s.pulse_grid_s()
    if not broken & {"tau_fs", "waveform_dt_fs"} and not resolves_envelope(tau, dt):
        problems.append(("waveform_dt_fs", "must be under tau/10 to resolve the envelope, "
                                           f"got a {dt!r} s step for tau/10 = {tau / 10.0!r} s"))
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
    elif rule.pulse or s.shape not in rule.shapes \
            or param == "total_um" and s.d_R_um is not None:  # the gap ignores total_um
        problems.append(f"{param!r} changes no sweep output (CIR, path loss, ray counts)")
    unknown = [key for key in grid if key not in SWEEP_KEYS]
    if unknown:
        problems.append(f"unknown keys {unknown!r}; a sweep takes {', '.join(SWEEP_KEYS)}")
    if "values" in grid and grid.keys() & {"start", "stop", "step"}:
        problems.append("takes 'values' or 'start'/'stop'/'step', not both")
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
    if rule.kind == "integer":  # each point's value, as read, must pass the type stage
        broken = [x for x in points if rule.type_problem(rule.coerce(x))]
        if broken:
            return [f"{param} takes whole numbers, got {broken[0]!r}"]
    return []


def _budget_problems(s: Scenario, runs: list[Scenario]) -> list[tuple[str, str]]:
    """The work budget, by the formulas the runs run: the ray-cell charge of
    all runs, which bounds _path_rows' walks, then the first run over another
    cap.  Every run has s's pulse keys, so a pulse problem is the first run's."""
    groups = trace_groups(runs)
    if (charged := ray_cells(groups)) > MAX_RAY_CELLS:
        if s.sweep is not None:
            return [("sweep", f"its traces are charged {charged} ray-cells, over "
                              f"the cap of {MAX_RAY_CELLS}")]
        # A lone run in the n_cells range is over only with k_rays > MIN_CHARGED_RAYS.
        return [("k_rays", f"{s.k_rays} rays through {max(s.n_cells, 1)} cells exceed "
                           f"the cap of {MAX_RAY_CELLS} ray-cells")]
    problems = []
    tau, dt = s.pulse_grid_s()
    samples = pulse_samples(tau, dt)
    omega0 = s.build_wavelength().omega0_rad_per_s  # finite: the range stage checks it
    if samples > MAX_PULSE_SAMPLES:
        problems.append(("waveform_dt_fs", f"a {8.0 * tau:.6g} s pulse span at "
                                           f"{dt:.6g} s steps needs more than "
                                           f"{MAX_PULSE_SAMPLES} samples"))
    # gaussian_pulse's own test, in seconds.
    elif not samples_carrier(dt, omega0):
        problems.append(("waveform_dt_fs", f"must be under lambda/(2c) = "
                                           f"{math.pi / omega0!r} s to sample the "
                                           f"{s.lambda_nm:g} nm carrier, got a {dt!r} s step"))
    for i, layout, rows in sorted(_path_rows(groups)):
        if rows > MAX_PATH_SAMPLES:
            problems.insert(0, ("total_um" if runs[i].d_R_um is None else "d_R_um",
                                f"the {layout.total_length:.6g} um center line needs more "
                                f"than {MAX_PATH_SAMPLES} path-loss samples"))
        if problems:
            return problems
    return []


def sweep_values(scenario: Scenario) -> list[float]:
    """The sweep grid's points, at most MAX_SWEEP_POINTS + 1 of them.

    A start/stop grid holds the points start + i*step up to stop, within
    1e-12 times the larger of |start| and |stop|.
    """
    grid = scenario.sweep or {}
    if "values" in grid:
        return list(grid["values"][:MAX_SWEEP_POINTS + 1])
    start, stop, step = grid["start"], grid["stop"], grid.get("step", 1)
    # Compared as a difference: stop + tolerance can overflow and admit every point.
    tolerance = 1e-12 * max(abs(start), abs(stop))
    values: list[float] = []
    # Point i is start + i*step: adding step repeatedly would accumulate rounding.
    while len(values) <= MAX_SWEEP_POINTS and \
            start + len(values) * step - stop <= tolerance:
        values.append(start + len(values) * step)
    return values


def sweep_points(scenario: Scenario) -> list[Scenario]:
    """One scenario per point of the sweep grid, without the sweep block."""
    param = scenario.sweep["parameter"]
    rule = SCHEMA[param]
    return [replace(scenario, sweep=None, **{param: rule.coerce(value)})
            for value in sweep_values(scenario)]


def trace_groups(runs: list[Scenario]) -> list[tuple]:
    """(indices, layouts, media, k_rays) of the runs that share one trace, in
    order of first run: those with one cell line (geometry.cell_line), media
    and ray count.  Each run's layout and media are built here, once."""
    groups: dict[tuple, tuple] = {}
    for i, run in enumerate(runs):
        layout, media = run.build_layout(), run.build_media()
        group = groups.setdefault((cell_line(layout), media, run.k_rays),
                                  ([], [], media, run.k_rays))
        group[0].append(i)
        group[1].append(layout)
    return list(groups.values())


def ray_cells(groups: list[tuple]) -> int:
    """The ray-cells the runs of groups, their trace_groups, are charged.

    Each trace group is charged like one run through its largest cell
    count, plus a cell for each further run: each copies the rays and runs
    them to its own detector plane.  A lone run is charged
    max(k_rays, MIN_CHARGED_RAYS) * max(n_cells, 1).
    """
    total = 0
    for _, layouts, _, k_rays in groups:
        cells = max(max(layout.n_cells for layout in layouts), 1) + len(layouts) - 1
        total += max(k_rays, MIN_CHARGED_RAYS) * cells
    return total


def _path_rows(groups: list[tuple]) -> Iterator[tuple[int, ArrayLayout, int]]:
    """(index, layout, rows) of each run, rows = 1 + its center line's samples,
    from one walk of its group's longest line: its stretches up to a run's
    last cell are that run's, whose last stretch runs on to its detector."""
    for indices, layouts, _, _ in groups:
        rows, shared = 1, [(1, 0.0)]  # the rows, and where the line is, after each cell
        for _, medium, samples, end in center_line(max(layouts, key=lambda x: x.n_cells)):
            rows += samples
            if medium == "cell":
                shared.append((rows, end))
        for i, layout in zip(indices, layouts):
            rows, end = shared[layout.n_cells]
            yield i, layout, rows + math.ceil(max(layout.total_length - end, 0.0))
