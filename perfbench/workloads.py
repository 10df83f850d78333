"""Seeded inputs and job lists of the benchmark workloads.

Every workload is a fixed list of `cellray` CLI jobs over three generated
scenario files, one per cell shape. Seed 0 reproduces the default
scenarios exactly; any other seed draws cell size, gap, refractive indices
and the pulse width and sample step from narrow ranges that `validate`
accepts, so the work of one pass stays within a band across seeds.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SHAPES = ("fusiform", "spherical", "pyramidal")
WORKLOADS = ("battery", "wide-shallow", "long-pulse")
BATTERY_COMMANDS = ("trace", "pathloss", "cir", "pulse", "detector")

# The default scenario (scenarios/<shape>.json at the time the benchmark was
# written). The benchmark owns its inputs, so later edits to the repository's
# defaults do not silently change what is measured.
BASE = {
    "cir_dt_fs": 10.0, "d_E_um": 5.0, "d_R_um": None, "d_l_um": 5.0,
    "detector_width_um": 40.0, "e0": 1.0, "gamma_mode": "per-path",
    "h_c_um": 30.0, "k_rays": 1001, "lambda_nm": 456.0,
    "mu_a_cell_per_mm": 0.9, "mu_a_tissue_per_mm": 1.34,
    "mu_s_prime_cell_per_mm": 3.43, "mu_s_prime_tissue_per_mm": 3.43,
    "n_cell": 1.36, "n_cells": 18, "n_tissue": 1.35, "r_c_um": 10.0,
    "shape": "fusiform", "sweep": None, "tau_fs": 1.0, "total_um": 450.0,
    "w_c_um": 20.0, "waveform_dt_fs": 0.05,
}

# Per-workload keys on top of BASE.
WORKLOAD_KEYS = {
    "battery": {},
    "wide-shallow": {"n_cells": 1, "k_rays": 20001},
    "long-pulse": {"k_rays": 101, "waveform_dt_fs": 0.02},
}


@dataclass(frozen=True)
class Job:
    """One `cellray` invocation and the exit code it must return."""

    id: str
    command: str
    scenario: str
    overrides: tuple[str, ...] = ()
    expect: int = 0

    def argv(self, out: Path) -> list[str]:
        args = ["--command", self.command, "--scenario", self.scenario,
                "--out", str(out)]
        for item in self.overrides:
            args += ["--set", item]
        return args


@dataclass
class Plan:
    """The jobs of one workload pass plus the known-defect probes."""

    jobs: list[Job]
    probes: list[Job] = field(default_factory=list)


def import_cellray():
    """Import cellray from the checkout's src/, never from elsewhere."""
    if not (SRC / "cellray" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cellray sources at {SRC}; "
                         "run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import cellray.cli

    if Path(cellray.__file__).resolve().parent != SRC / "cellray":
        raise SystemExit(f"perfbench: imported cellray from {cellray.__file__}, "
                         f"not from {SRC}")
    return cellray


def scenario(workload: str, shape: str, seed: int) -> dict:
    """The scenario key tree of one shape of one workload."""
    s = dict(BASE, shape=shape, **WORKLOAD_KEYS[workload])
    if seed == 0:
        return s
    rng = random.Random(f"{seed}/{shape}")

    def draw(lo: float, hi: float, digits: int = 4) -> float:
        return round(rng.uniform(lo, hi), digits)

    s["h_c_um"] = draw(29.4, 30.6)
    s["w_c_um"] = draw(19.6, 20.4)
    s["r_c_um"] = draw(9.8, 10.2)
    s["d_l_um"] = draw(4.8, 5.2)
    s["n_cell"] = draw(1.3598, 1.3602, 5)
    s["n_tissue"] = draw(1.3498, 1.3502, 5)
    s["tau_fs"] = draw(0.98, 1.02)
    s["waveform_dt_fs"] = round(s["waveform_dt_fs"] * rng.uniform(0.99, 1.01), 6)
    # Keep the default layout rule: 18 cells end at the detector plane, so
    # every cell count of the sweep fits and N=1 sees the same distance.
    extent = 2.0 * s["r_c_um"] if shape == "spherical" else s["w_c_um"]
    span = s["d_E_um"] + 18 * extent + 17 * s["d_l_um"]
    s["total_um"] = math.ceil(span * 1000.0 + 1.0) / 1000.0
    return s


def plan(workload: str, seed: int, scenario_dir: Path) -> Plan:
    """Write the workload's scenario files and return its jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    scenario_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    for shape in SHAPES:
        path = scenario_dir / f"{shape}.json"
        path.write_text(json.dumps(scenario(workload, shape, seed),
                                   indent=2, sort_keys=True) + "\n")
        files[shape] = str(path)

    if workload == "wide-shallow":
        return Plan([Job(f"{shape}-{cmd}", cmd, files[shape])
                     for shape in SHAPES for cmd in ("cir", "detector")])
    if workload == "long-pulse":
        return Plan([Job(f"{shape}-pulse", "pulse", files[shape])
                     for shape in SHAPES])

    # battery: the job list of scripts/run_channel_battery.py plus error paths.
    jobs = []
    for shape in SHAPES:
        jobs += [Job(f"{shape}-{cmd}", cmd, files[shape])
                 for cmd in BATTERY_COMMANDS]
        jobs.append(Job(f"{shape}-sweep", "sweep", files[shape],
                        ("sweep=n_cells=1..18", "k_rays=301")))
    fusiform = files["fusiform"]
    jobs.append(Job("error-negative-gap", "cir", fusiform, ("d_l_um=-3",), 2))
    # tests/test_cli.py: an even ray count and a sub-spacing detector in
    # free space catch no ray.
    jobs.append(Job("error-empty-channel", "cir", fusiform,
                    ("n_cells=0", "k_rays=10", "detector_width_um=0.001"), 3))
    # A NaN gap must be rejected with exit 2; the program raises instead.
    # It runs once per battery run, outside the timed passes, and its
    # outcome is printed, so the defect stays visible without making
    # every pass fail.
    probes = [Job("probe-nan-gap", "cir", fusiform, ("d_l_um=NaN",), 2)]
    return Plan(jobs, probes)
