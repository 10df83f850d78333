"""The per-ray scalar tracer that geometry.trace_array replaced, kept verbatim.

tests/test_batch_tracer.py compares the batch tracer against it with exact
equality; it is a test oracle, not part of the package.  The per-ray records
(RayState, CellTrace, RefractionEvent, FocusEntry) and the two stop
exceptions are defined here only; tests/cell_step.py builds the same records
from the package's cell step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from cellray.geometry import (
    TOL,
    ArrayLayout,
    CellShape,
    Fusiform,
    Pyramidal,
    Spherical,
)
from cellray.optics import Media


class NoIntersection(Exception):
    """The ray misses the cell surface it was expected to hit."""


class TotalInternalReflection(Exception):
    """Refraction impossible; the ray is terminated by the caller."""


@dataclass(frozen=True)
class RayState:
    """A ray sample: position (x, h), direction theta, running intensity scale."""

    x: float
    h: float
    theta: float
    intensity_scale: float = 1.0

    def __post_init__(self) -> None:
        if not abs(self.theta) < 0.5 * math.pi:
            raise ValueError(f"forward ray requires |theta| < pi/2, got {self.theta}")
        if not 0.0 < self.intensity_scale <= 1.0:
            raise ValueError("intensity_scale must lie in (0, 1]")


@dataclass(frozen=True)
class RefractionEvent:
    """One interface crossing, kept for diagnostics and consistency checks."""

    x: float
    h: float
    normal_angle: float  # direction of the surface normal, rad from +x axis
    theta_in: float      # global ray angle before refraction
    theta_out: float     # global ray angle after refraction
    n_in: float
    n_out: float


@dataclass(frozen=True)
class FocusEntry:
    """Axis-crossing of one exit ray: convergence angle and crossing distance.

    x_f is measured from the cell's exit vertex; +inf means the exit ray is
    parallel to the axis, a negative value a virtual (upstream) crossing.
    """

    theta_f: float
    x_f: float


@dataclass(frozen=True)
class CellTrace:
    """Result of pushing one ray through one cell."""

    tissue_leg: float      # path length from the incoming position to the entry point
    entry: RayState        # at the entry surface, before refraction
    outgoing: RayState     # at the exit surface, after refraction
    chord: float           # geometric in-cell path length
    focus: Optional[FocusEntry]
    events: tuple[RefractionEvent, ...]


@dataclass
class RayPath:
    """Per-ray segment ledger plus termination bookkeeping.

    segments alternate ("tissue", length)/("cell", length); zero-length legs
    (e.g. a zero detector gap) are dropped.  status is "arrived", "leaked"
    or "deviated"; loss_cell is the index of the first cell the ray failed
    to traverse, None for arrived rays.
    """

    ray_index: int
    segments: list[tuple[str, float]]
    status: str
    loss_cell: Optional[int]
    exit: RayState
    trace: list[RayState] = field(default_factory=list)
    events: list[RefractionEvent] = field(default_factory=list)

    def medium_length(self, tag: str) -> float:
        return sum(length for t, length in self.segments if t == tag)

    @property
    def cell_length(self) -> float:
        return self.medium_length("cell")

    @property
    def tissue_length(self) -> float:
        return self.medium_length("tissue")


@dataclass(frozen=True)
class CellFocus:
    """Per-cell focus summary taken from the marginal (outermost) ray."""

    cell_index: int
    theta_f: Optional[float]
    x_f: Optional[float]
    illumination_radius: float  # max |h| over surviving rays at the cell exit


@dataclass
class FocusReport:
    """Illumination radii along the array plus per-cell focus entries."""

    source_radius: float
    cells: list[CellFocus]
    detector_radius: float


def _refract(dx: float, dy: float, nx: float, ny: float,
             n_in: float, n_out: float) -> tuple[float, float]:
    """Refract unit direction (dx, dy) at a surface with normal (nx, ny).

    The normal orientation is irrelevant; it is flipped to face the ray.
    Raises TotalInternalReflection when Snell has no real solution.
    """
    cos_i = -(dx * nx + dy * ny)
    if cos_i < 0.0:
        nx, ny, cos_i = -nx, -ny, -cos_i
    eta = n_in / n_out
    k = 1.0 - eta * eta * (1.0 - cos_i * cos_i)
    if k < 0.0:
        raise TotalInternalReflection
    coeff = eta * cos_i - math.sqrt(k)
    return eta * dx + coeff * nx, eta * dy + coeff * ny


def _quadratic_roots(b: float, c: float) -> Optional[tuple[float, float]]:
    """Roots of t^2 + 2bt + c = 0, smallest first, stable near c = 0."""
    disc = b * b - c
    if disc < 0.0:
        return None
    s = math.sqrt(disc)
    if b >= 0.0:
        q = -(b + s)
    else:
        q = -(b - s)
    if q == 0.0:
        return 0.0, 0.0
    t1, t2 = q, c / q
    return (t1, t2) if t1 <= t2 else (t2, t1)


def _circle_roots(px: float, py: float, dx: float, dy: float,
                  cx: float, cy: float, r: float) -> Optional[tuple[float, float]]:
    """Ray/circle intersection parameters along unit direction (dx, dy)."""
    mx, my = px - cx, py - cy
    return _quadratic_roots(mx * dx + my * dy, mx * mx + my * my - r * r)


def _segment_hit(px: float, py: float, dx: float, dy: float,
                 ax: float, ay: float, bx: float, by: float) -> Optional[tuple[float, float]]:
    """Ray/segment intersection; returns (t, s) with hit = a + s*(b - a)."""
    ex, ey = bx - ax, by - ay
    det = ex * dy - ey * dx
    if abs(det) < 1e-15:
        return None
    t = (ex * (ay - py) - ey * (ax - px)) / det
    s = (dx * (ay - py) - dy * (ax - px)) / det
    return t, s


def _state(x: float, h: float, dx: float, dy: float, scale: float) -> RayState:
    return RayState(x=x, h=h, theta=math.atan2(dy, dx), intensity_scale=scale)


def _event(x, h, nx, ny, theta_in, theta_out, n_in, n_out) -> RefractionEvent:
    return RefractionEvent(x=x, h=h, normal_angle=math.atan2(ny, nx),
                           theta_in=theta_in, theta_out=theta_out,
                           n_in=n_in, n_out=n_out)


def _focus_entry(exit_x: float, exit_h: float, dx: float, dy: float,
                 exit_vertex_x: float) -> FocusEntry:
    theta = math.atan2(dy, dx)
    if abs(dy) < 1e-15:
        return FocusEntry(theta_f=abs(theta), x_f=math.inf)
    x_cross = exit_x - exit_h * dx / dy
    return FocusEntry(theta_f=abs(theta), x_f=x_cross - exit_vertex_x)


def _forward(dx: float) -> None:
    if dx <= 0.0:
        # A refracted ray turning backwards cannot continue along the array.
        raise TotalInternalReflection


def _trace_radial(centers: tuple[tuple[float, float], tuple[float, float]],
                  r: float, mid_x: Optional[float],
                  media: Media, incoming: RayState,
                  exit_vertex_x: float) -> CellTrace:
    """Shared circle-surface trace; fusiform passes two centers and a midplane."""
    (c1x, c1y), (c2x, c2y) = centers
    dx, dy = math.cos(incoming.theta), math.sin(incoming.theta)
    px, py = incoming.x, incoming.h

    roots = _circle_roots(px, py, dx, dy, c1x, c1y, r)
    if roots is None:
        raise NoIntersection
    t_entry, t_far = roots
    if t_entry < -TOL or t_far <= TOL:
        raise NoIntersection
    ex, eh = px + t_entry * dx, py + t_entry * dy
    if mid_x is not None and ex > mid_x + TOL:
        # First hit is beyond the arc's extent: the ray skims past the lens.
        raise NoIntersection
    n1x, n1y = (ex - c1x) / r, (eh - c1y) / r
    theta_in = incoming.theta
    d1x, d1y = _refract(dx, dy, n1x, n1y, media.tissue.n, media.cell.n)
    _forward(d1x)
    entry = _state(ex, eh, dx, dy, incoming.intensity_scale)
    ev1 = _event(ex, eh, n1x, n1y, theta_in, math.atan2(d1y, d1x),
                 media.tissue.n, media.cell.n)

    roots = _circle_roots(ex, eh, d1x, d1y, c2x, c2y, r)
    if roots is None:
        raise NoIntersection
    _, t_exit = roots
    if t_exit <= TOL:
        raise NoIntersection
    xx, xh = ex + t_exit * d1x, eh + t_exit * d1y
    if mid_x is not None and xx < mid_x - TOL:
        raise NoIntersection
    n2x, n2y = (xx - c2x) / r, (xh - c2y) / r
    theta_mid = math.atan2(d1y, d1x)
    d2x, d2y = _refract(d1x, d1y, n2x, n2y, media.cell.n, media.tissue.n)
    _forward(d2x)
    outgoing = _state(xx, xh, d2x, d2y, incoming.intensity_scale)
    ev2 = _event(xx, xh, n2x, n2y, theta_mid, outgoing.theta,
                 media.cell.n, media.tissue.n)

    return CellTrace(
        tissue_leg=max(t_entry, 0.0),
        entry=entry,
        outgoing=outgoing,
        chord=t_exit,
        focus=_focus_entry(xx, xh, d2x, d2y, exit_vertex_x),
        events=(ev1, ev2),
    )


def _trace_pyramidal(shape: Pyramidal, media: Media, incoming: RayState,
                     entry_x: float) -> CellTrace:
    half = shape.half_aperture
    ax, ay = entry_x, -half                      # base-left corner
    bx, by = entry_x + shape.w_c, -half          # base-right corner
    tx_, ty_ = entry_x + 0.5 * shape.w_c, half   # apex
    dx, dy = math.cos(incoming.theta), math.sin(incoming.theta)
    px, py = incoming.x, incoming.h

    hit = _segment_hit(px, py, dx, dy, ax, ay, tx_, ty_)
    if hit is None:
        raise NoIntersection
    t_entry, s = hit
    if t_entry < -TOL or not -1e-12 <= s <= 1.0 + 1e-12:
        raise NoIntersection
    ex, eh = px + t_entry * dx, py + t_entry * dy
    # Left face normal, perpendicular to (apex - base-left).
    fx, fy = tx_ - ax, ty_ - ay
    norm = math.hypot(fx, fy)
    n1x, n1y = fy / norm, -fx / norm
    d1x, d1y = _refract(dx, dy, n1x, n1y, media.tissue.n, media.cell.n)
    _forward(d1x)
    entry = _state(ex, eh, dx, dy, incoming.intensity_scale)
    ev1 = _event(ex, eh, n1x, n1y, incoming.theta, math.atan2(d1y, d1x),
                 media.tissue.n, media.cell.n)

    # Exit through the right face or, for steeply descending rays, the base.
    faces = (
        ((tx_, ty_, bx, by), (fy / norm, fx / norm)),  # right face normal
        ((bx, by, ax, ay), (0.0, -1.0)),               # base normal
    )
    best = None
    for (qax, qay, qbx, qby), normal in faces:
        h2 = _segment_hit(ex, eh, d1x, d1y, qax, qay, qbx, qby)
        if h2 is None:
            continue
        t2, s2 = h2
        if t2 <= TOL or not -1e-12 <= s2 <= 1.0 + 1e-12:
            continue
        if best is None or t2 < best[0]:
            best = (t2, normal)
    if best is None:
        raise NoIntersection
    t_exit, (n2x, n2y) = best
    xx, xh = ex + t_exit * d1x, eh + t_exit * d1y
    theta_mid = math.atan2(d1y, d1x)
    d2x, d2y = _refract(d1x, d1y, n2x, n2y, media.cell.n, media.tissue.n)
    _forward(d2x)
    outgoing = _state(xx, xh, d2x, d2y, incoming.intensity_scale)
    ev2 = _event(xx, xh, n2x, n2y, theta_mid, outgoing.theta,
                 media.cell.n, media.tissue.n)

    return CellTrace(
        tissue_leg=max(t_entry, 0.0),
        entry=entry,
        outgoing=outgoing,
        chord=t_exit,
        focus=None,
        events=(ev1, ev2),
    )


def trace_cell(shape: CellShape, media: Media, incoming: RayState,
               entry_x: float) -> CellTrace:
    """Trace one ray through one cell whose entry vertex sits at entry_x.

    Circle surfaces use the standard quadratic solve, taking the upstream
    root for the entry surface and the downstream root for the exit surface.
    Raises NoIntersection when the ray misses the cell and
    TotalInternalReflection when a surface cannot refract it forward.
    """
    if isinstance(shape, Spherical):
        c = (entry_x + shape.r_c, 0.0)
        return _trace_radial((c, c), shape.r_c, None, media, incoming,
                             entry_x + shape.axial_extent)
    if isinstance(shape, Fusiform):
        r = shape.curvature_radius
        left = (entry_x + r, 0.0)
        right = (entry_x + shape.w_c - r, 0.0)
        return _trace_radial((left, right), r, entry_x + 0.5 * shape.w_c,
                             media, incoming, entry_x + shape.axial_extent)
    if isinstance(shape, Pyramidal):
        return _trace_pyramidal(shape, media, incoming, entry_x)
    raise TypeError(f"unsupported shape {type(shape).__name__}")


def collimated_bundle(shape: CellShape, k: int) -> list[RayState]:
    """K axis-parallel rays of equal intensity spanning the entrance aperture.

    Midpoint spacing keeps the grid uniform while avoiding rays exactly on
    the aperture rim, and makes runs reproducible without any randomness.
    """
    if k < 1:
        raise ValueError("bundle needs at least one ray")
    half = shape.half_aperture
    width = 2.0 * half
    return [
        RayState(x=0.0, h=(i + 0.5) / k * width - half, theta=0.0)
        for i in range(k)
    ]


def trace_array(layout: ArrayLayout, media: Media,
                bundle: list[RayState]) -> tuple[list[RayPath], FocusReport]:
    """Trace a ray bundle through the whole array up to the detector plane.

    Rays that miss a cell are leaked for radial shapes (removed from the
    propagation line) and deviated for pyramidal cells, where the straight
    continuation still travels to the detector plane.  Total internal
    reflection terminates a ray as leaked in every shape.
    """
    if not bundle:
        raise ValueError("empty ray bundle")
    pyramidal = isinstance(layout.shape, Pyramidal)
    d_total = layout.total_length
    n = layout.n_cells

    exit_radius = [0.0] * n
    marginal: list[Optional[tuple[float, FocusEntry]]] = [None] * n
    detector_radius = 0.0
    paths: list[RayPath] = []

    for index, ray in enumerate(bundle):
        segments: list[tuple[str, float]] = []
        states = [ray]
        events: list[RefractionEvent] = []
        pos = ray
        status = "arrived"
        loss: Optional[int] = None

        for cell in range(n):
            try:
                ct = trace_cell(layout.shape, media, pos, layout.cell_entry_x(cell))
            except NoIntersection:
                status = "deviated" if pyramidal else "leaked"
                loss = cell
                break
            except TotalInternalReflection:
                status = "leaked"
                loss = cell
                break
            if ct.tissue_leg > TOL:
                segments.append(("tissue", ct.tissue_leg))
            if ct.chord > TOL:
                segments.append(("cell", ct.chord))
            states.extend((ct.entry, ct.outgoing))
            events.extend(ct.events)
            pos = ct.outgoing
            exit_radius[cell] = max(exit_radius[cell], abs(ct.outgoing.h))
            if ct.focus is not None:
                key = abs(ct.entry.h)
                if marginal[cell] is None or key > marginal[cell][0]:
                    marginal[cell] = (key, ct.focus)

        if status in ("arrived", "deviated"):
            remaining = d_total - pos.x
            leg = remaining / math.cos(pos.theta)
            h_det = pos.h + math.tan(pos.theta) * remaining
            if leg > TOL:
                segments.append(("tissue", leg))
            exit_state = RayState(d_total, h_det, pos.theta, pos.intensity_scale)
            states.append(exit_state)
            detector_radius = max(detector_radius, abs(h_det))
        else:
            exit_state = pos

        paths.append(RayPath(ray_index=index, segments=segments, status=status,
                             loss_cell=loss, exit=exit_state, trace=states,
                             events=events))

    cells = [
        CellFocus(
            cell_index=i,
            theta_f=None if marginal[i] is None else marginal[i][1].theta_f,
            x_f=None if marginal[i] is None else marginal[i][1].x_f,
            illumination_radius=exit_radius[i],
        )
        for i in range(n)
    ]
    report = FocusReport(
        source_radius=max(abs(r.h) for r in bundle),
        cells=cells,
        detector_radius=detector_radius if detector_radius > 0.0 else math.nan,
    )
    return paths, report
