"""The package's cell step run on one ray, returned as the oracle's records.

geometry._cross pushes arrays of rays through one cell.  trace_cell runs it
on a single ray of any angle and returns what scalar_tracer.trace_cell
returns for that ray: its CellTrace, or the same exception.  Single-cell
tests thus check the package's own arithmetic, and
tests/test_batch_tracer.py holds the two to == at any angle.
"""

import math

import numpy as np

from cellray.geometry import CROSSED, MISS, Pyramidal, _cross, _focus
from scalar_tracer import (
    CellTrace,
    FocusEntry,
    NoIntersection,
    RayState,
    RefractionEvent,
    TotalInternalReflection,
)


def trace_cell(shape, media, incoming, entry_x: float) -> CellTrace:
    """Trace one ray through one cell whose entry vertex sits at entry_x.

    incoming is any ray state with x, h and theta.  Raises NoIntersection
    when the ray misses the cell and TotalInternalReflection when a surface
    cannot refract it forward.
    """
    fate, t_entry, ex, eh, n1, d1, t_exit, xx, xh, n2, d2 = _cross(
        shape, media, entry_x, np.array([incoming.x]), np.array([incoming.h]),
        np.array([incoming.theta]))
    if fate[0] == MISS:
        raise NoIntersection
    if fate[0] != CROSSED:
        raise TotalInternalReflection

    def angle(v) -> float:  # of ray 0's (x, h) pair; a face normal may be floats
        return math.atan2(float(np.ravel(v[1])[0]), float(np.ravel(v[0])[0]))

    theta_in, theta_mid, theta_out = incoming.theta, angle(d1), angle(d2)
    x, h = float(xx[0]), float(xh[0])
    return CellTrace(
        tissue_leg=max(float(t_entry[0]), 0.0),
        entry=RayState(float(ex[0]), float(eh[0]),
                       math.atan2(math.sin(theta_in), math.cos(theta_in))),
        outgoing=RayState(x, h, theta_out),
        chord=float(t_exit[0]),
        focus=None if isinstance(shape, Pyramidal)
        else FocusEntry(*_focus(x, h, float(d2[0][0]), float(d2[1][0]), theta_out,
                                entry_x + shape.axial_extent)),
        events=(
            RefractionEvent(float(ex[0]), float(eh[0]), angle(n1), theta_in, theta_mid,
                            media.tissue.n, media.cell.n),
            RefractionEvent(x, h, angle(n2), theta_mid, theta_out,
                            media.cell.n, media.tissue.n),
        ),
    )


def walked_cells(layout, media, h) -> list[CellTrace]:
    """The CellTrace of each cell the axial ray launched at h crosses, by
    trace_cell, up to the cell where it stops."""
    state, cells = RayState(0.0, h, 0.0), []
    for cell in range(layout.n_cells):
        try:
            ct = trace_cell(layout.shape, media, state, layout.cell_entry_x(cell))
        except (NoIntersection, TotalInternalReflection):
            break
        cells.append(ct)
        state = ct.outgoing
    return cells
