#!/usr/bin/env python3
"""One-shot scaling report of the tracer; not a gated workload.

For each shape and K in {1e3, 1e4} rays by N in {1, 6, 18, 36} cells it
times one geometry.trace_array call and reports ns per ray-cell, then
repeats the call under tracemalloc for the peak Python heap. total_um is
raised to 905 um so that 36 cells fit. K = 1e5 is left out: with the
per-ray scalar tracer one point takes about 44 s.

    python3 perfbench/scaling.py          # prints a table, writes JSON
"""

import json
import time
import tracemalloc

import workloads

KS = (1_000, 10_000)
NS = (1, 6, 18, 36)
TOTAL_UM = 905.0


def point(cellray, shape: str, k: int, n: int) -> dict:
    cfg = cellray.config.scenario_from_dict(
        dict(workloads.BASE, shape=shape, n_cells=n, k_rays=k, total_um=TOTAL_UM))
    layout, media = cfg.build_layout(), cfg.build_media()
    bundle = cellray.geometry.collimated_bundle(layout.shape, k)
    start = time.perf_counter()
    cellray.geometry.trace_array(layout, media, bundle)
    seconds = time.perf_counter() - start
    tracemalloc.start()
    cellray.geometry.trace_array(layout, media, bundle)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"shape": shape, "k_rays": k, "n_cells": n, "trace_s": seconds,
            "ns_per_ray_cell": 1e9 * seconds / (k * n),
            "peak_heap_mb": peak / 2**20}


def main() -> None:
    cellray = workloads.import_cellray()
    rows = []
    print(f"{'shape':<10} {'K':>6} {'N':>3} {'trace_s':>9} "
          f"{'ns/ray-cell':>12} {'heap_MB':>8}")
    for shape in workloads.SHAPES:
        for k in KS:
            for n in NS:
                r = point(cellray, shape, k, n)
                rows.append(r)
                print(f"{shape:<10} {k:>6} {n:>3} {r['trace_s']:>9.3f} "
                      f"{r['ns_per_ray_cell']:>12.0f} {r['peak_heap_mb']:>8.1f}",
                      flush=True)
    out = workloads.ROOT / ".perfbench_work" / "scaling.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"K=1e5 not run (about 44 s per point with the scalar tracer). "
          f"Wrote {out.relative_to(workloads.ROOT)}")


if __name__ == "__main__":
    main()
