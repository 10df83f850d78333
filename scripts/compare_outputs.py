#!/usr/bin/env python3
"""Check that this checkout's CLI writes the same bytes as another tree's.

Usage: python scripts/compare_outputs.py OTHER_TREE

Runs one fixed job matrix (jobs(), each job's reason beside it) through
`cellray.cli.main` for each tree, in one subprocess per tree with
PYTHONPATH=<tree>/src and all jobs in one process, so later jobs may reuse
the channel the CLI kept from earlier ones.  The matrix covers every
command on the three shapes in both gamma modes, sweeps, the wide-shallow
and long-pulse benchmark jobs, and the error paths; a job that raises is
recorded with the code "exception" and its traceback.

Every job's exit code, stdout, stderr and output files are compared byte
for byte, and so is whether its --out exists, since a failed run must not
leave even an empty directory.  The jobs that differ are listed.  The exit
status is 0 when every job matches, 1 on any difference and 2 on a bad
argument.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHAPES = ("fusiform", "spherical", "pyramidal")
COMMANDS = ("trace", "pathloss", "cir", "pulse", "detector")
SWEEPS = ("n_cells=0..18", "n_cells=18,3,3,0,7", "total_um=450,460,475,500",
          "d_R_um=0,2.5,10,40", "d_l_um=1,3,5,3")


def jobs() -> dict[str, list[str]]:
    """Job id -> cellray arguments, without --out; built-in scenario defaults."""
    matrix = {
        f"{shape}-{command}-{gamma}": ["--command", command, "--set", f"shape={shape}",
                                       "--set", f"gamma_mode={gamma}"]
        for shape in SHAPES for command in COMMANDS
        for gamma in ("per-path", "aggregate")
    }
    # The matrix above changes gamma_mode from one traced job to the next,
    # on one kept channel per shape; these run on one scenario each, as
    # scripts/run_channel_battery.py does.
    matrix.update({
        f"{shape}-{command}-back-to-back": ["--command", command, "--set", f"shape={shape}"]
        for shape in SHAPES for command in ("trace", "cir", "pulse", "detector")
    })
    matrix.update({
        f"{shape}-sweep-{grid.partition('=')[0]}-{i}-{gamma}": [
            "--command", "sweep", "--set", f"shape={shape}", "--set", f"gamma_mode={gamma}",
            "--set", "k_rays=301", "--set", f"sweep={grid}"]
        for shape in SHAPES for i, grid in enumerate(SWEEPS)
        for gamma in ("per-path", "aggregate")
    })
    matrix.update({
        "k1-pulse": ["--command", "pulse", "--set", "k_rays=1"],
        "n0-cir": ["--command", "cir", "--set", "n_cells=0"],
        # No cells: focus_report.csv's columns are empty, so numpy types them float64.
        "n0-trace": ["--command", "trace", "--set", "n_cells=0"],
        "tiny-detector": ["--command", "detector", "--set", "detector_width_um=0.01"],
        "sweep-3": ["--command", "sweep", "--set", "sweep=n_cells=1..3",
                    "--set", "k_rays=301"],
        # Free space, 10 rays: a 0.001 um detector catches none (exit 3), a
        # 0 um one is invalid (exit 2); an invalid point fails the sweep
        # before any trace, else the first point that fails at run time.
        **{f"sweep-fails-{code}": ["--command", "sweep", "--set", "n_cells=0", "--set",
                                   "k_rays=10", "--set", f"sweep=detector_width_um={grid}"]
           for code, grid in (("exit-3", "40,0.001,0,40"), ("exit-2", "40,0,0.001,40"))},
        **{f"{shape}-pulse-k101-dt0.02": ["--command", "pulse", "--set", f"shape={shape}",
                                          "--set", "k_rays=101", "--set", "waveform_dt_fs=0.02"]
           for shape in SHAPES},
        # One cell, 20,001 rays: detector maps of three blocks, one of which
        # has its sorted coordinates cross zero.
        **{f"wide-{command}-{shape}": ["--command", command, "--set", f"shape={shape}",
                                       "--set", "n_cells=1", "--set", "k_rays=20001"]
           for command in ("cir", "detector") for shape in SHAPES},
        # Free-space path-loss curves of 1,023 and 1,024 rows, one sign run
        # each: one row either side of the writer's MIN_RUN_ROWS.
        **{f"pathloss-{rows}-rows": ["--command", "pathloss", "--set", "n_cells=0",
                                     "--set", f"total_um={rows - 1}"]
           for rows in (1023, 1024)},
        # 10 um of free space and a 10 fs pulse: the one atom lies at bin 901,
        # within the 1,601-sample pulse of bin 0, so the window starts there.
        "window-at-bin-0-pulse": ["--command", "pulse", "--set", "n_cells=0",
                                  "--set", "total_um=10", "--set", "tau_fs=10"],
        # Cells less dense than the tissue: rays stop by miss, TIR and
        # backward turn, so rays.csv maps every leaked fate to its word.
        "index-contrast-trace": ["--command", "trace", "--scenario",
                                 str(ROOT / "scenarios" / "spherical.json"),
                                 "--set", "n_cell=1.0", "--set", "n_tissue=1.6"],
        # Read as 0.0 and 30.0, so they trace and write as those spellings do.
        "signed-zero-trace": ["--command", "trace", "--set", "d_E_um=-0.0"],
        "int-spelled-trace": ["--command", "trace", "--set", "h_c_um=30"],
        "int-spelled-sweep": ["--command", "sweep", "--set", "k_rays=301", "--set",
                              'sweep={"parameter": "h_c_um", "values": [30, 30.0]}'],
        # validate judges every point of a sweep, as the sweep's run does.
        "validate-sweep-negative-gap": ["--command", "validate",
                                        "--set", "sweep=d_l_um=-5..5"],
        "sweep-unread-key": ["--command", "sweep", "--set", "shape=spherical", "--set",
                             "k_rays=301", "--set", "sweep=h_c_um=30,40"],
        "sweep-past-fit": ["--command", "sweep", "--set", "k_rays=301",
                           "--set", "sweep=n_cells=17..19"],
        # A sweep's base is judged by its types and grid, not by the swept value.
        "sweep-base-unfit": ["--command", "sweep", "--set", "k_rays=301", "--set",
                             "n_cells=40", "--set", "sweep=n_cells=1..3"],
        "sweep-grid-and-base": ["--command", "sweep", "--set", "d_l_um=-3",
                                "--set", "sweep=n_cells=3..1"],
        "sweep-unread-total": ["--command", "sweep", "--set", "k_rays=11", "--set", "d_R_um=5",
                               "--set", 'sweep={"parameter": "total_um", "values": [400, 500]}'],
        "cir-sweep-block": ["--command", "cir", "--set", "k_rays=301",
                            "--set", "sweep=n_cells=1..2"],
        # Trace reuse: equal tracer inputs share a trace or the kept channel,
        # other media do not.
        "sweep-media-repeat": ["--command", "sweep", "--set", "k_rays=301",
                               "--set", "sweep=n_cell=1.36,1.40,1.36"],
        "media-change-trace": ["--command", "trace", "--set", "k_rays=301"],
        "media-change-cir": ["--command", "cir", "--set", "k_rays=301",
                             "--set", "mu_a_cell_per_mm=2.0"],
        "unread-key-trace": ["--command", "trace", "--set", "shape=spherical",
                             "--set", "k_rays=301"],
        "unread-key-cir": ["--command", "cir", "--set", "shape=spherical",
                           "--set", "k_rays=301", "--set", "h_c_um=40.0"],
        "sweep-tiny-step": ["--command", "sweep", "--set", "k_rays=11", "--set",
                            'sweep={"parameter": "d_l_um", "start": 0, "stop": 1e-13, '
                            '"step": 1e-14}'],
        "error-negative-gap": ["--command", "cir", "--set", "d_l_um=-3"],
        # Sizes over the 1e6 um range, whose center-line chord overflowed.
        "error-huge-sphere": ["--command", "validate", "--set", "shape=spherical", "--set",
                              "r_c_um=1e155", "--set", "total_um=null", "--set", "d_R_um=0"],
        "error-huge-prism": ["--command", "cir", "--set", "shape=pyramidal", "--set",
                             "w_c_um=1e155", "--set", "h_c_um=1e155", "--set", "total_um=null",
                             "--set", "d_R_um=0"],
        # A 2 m prism, over the size range.
        "range-tall-prism": ["--command", "cir", "--set", "shape=pyramidal",
                             "--set", "h_c_um=2e6"],
        # An index over its range, whose delays overflowed to inf: the range
        # names it, and stderr holds only the JSON record.
        "error-index-overflow": ["--command", "cir", "--set", "n_tissue=1.7e308"],
        "error-empty-channel": ["--command", "cir", "--set", "n_cells=0", "--set",
                                "k_rays=10", "--set", "detector_width_um=0.001"],
        # Under the cir_dt_fs range; it used to meet the bin cap.
        "error-cir-bins": ["--command", "cir", "--set", "k_rays=11",
                           "--set", "cir_dt_fs=1e-12"],
        # In range, over a cap: 2 ps delays in 1e-19 s bins, and a 20 cm
        # center line of one path-loss sample per micrometre.
        "error-cir-bins-in-range": ["--command", "cir", "--set", "k_rays=11",
                                    "--set", "cir_dt_fs=1e-4"],
        "error-path-samples": ["--command", "pathloss", "--set", "total_um=2e5"],
        # 1,250 points charged 2,499,000 ray-cells, just under the cap, in one
        # trace group: the path-sample cap walks one center line for all.
        "validate-nsweep-1250": ["--command", "validate", "--set", "k_rays=1000", "--set",
                                 "total_um=60000", "--set", "sweep=n_cells=1..1250"],
        # The 40th point's line is 99,980.5 um, under 100,000, but its stretches
        # rounded up to whole micrometres need more than 100,000 samples.
        **{f"validate-nsweep-path-cap{suffix}": [
            "--command", "validate", "--set", f"shape={shape}", "--set", "k_rays=11",
            "--set", "d_R_um=99000", "--set", "d_l_um=4.5", "--set", "sweep=n_cells=1..45"]
           for shape, suffix in (("fusiform", ""), ("pyramidal", "-pyramidal"))},
        # One trace group whose points differ only in their last stretch: the
        # third needs 100,001 samples, the two before it exactly 100,000.
        "validate-dR-sweep-path-cap": ["--command", "validate", "--set", "k_rays=11", "--set",
                                       "n_cells=40", "--set", "d_l_um=4.5", "--set",
                                       "sweep=d_R_um=98998.5,98999,98999.25,99000"],
        # 203,892 bins per point: the first 59 points' CIRs need more than
        # one CIR's bin cap in all, so the sweep writes nothing.
        "sweep-cir-bins-cap": ["--command", "sweep", "--set", "k_rays=11", "--set",
                               "cir_dt_fs=0.01", "--set", "sweep=detector_width_um=40..99"],
        # One trace group of 2,001 points charged 2,001,000 ray-cells: under
        # the charge, which bounds a grid's points to 2,500.
        "validate-sweep-2001-points": ["--command", "validate", "--set", "n_cells=0", "--set",
                                       "k_rays=1", "--set", "sweep=detector_width_um=1..2001"],
        "validate-sweep-grid-cap": ["--command", "validate", "--set", "sweep=d_l_um=0..1e9"],
        # 1e-320 fs is 0.0 s: the range names tau_fs, not the tau/10 step rule.
        "error-tau-underflow": ["--command", "pulse", "--set", "tau_fs=1e-320"],
        # 80,001 pulse samples times 509,730 CIR bins.
        "error-convolution-cap": ["--command", "pulse", "--set", "tau_fs=40", "--set",
                                  "waveform_dt_fs=0.004", "--set", "k_rays=11"],
        "error-tiny-wavelength": ["--command", "pulse", "--set", "k_rays=11",
                                  "--set", "lambda_nm=5e-324"],
        "error-phase-overflow": ["--command", "pulse", "--set", "k_rays=11", "--set",
                                 "lambda_nm=1e-289", "--set", "tau_fs=1e20", "--set",
                                 "waveform_dt_fs=1e19"],
        # 5 fs steps, above lambda/(2c) = 0.7605 fs at 456 nm; tau/10 admits them.
        "error-carrier-step": ["--command", "pulse", "--set", "k_rays=11", "--set",
                               "tau_fs=100", "--set", "waveform_dt_fs=5"],
        # Both tissue coefficients are in range; the three free-space rays'
        # transmittance underflows to 0.0.
        **{f"zero-gain-{command}": ["--command", command, "--set", "shape=pyramidal",
                                    "--set", "k_rays=3", "--set", "n_cells=0", "--set",
                                    "mu_s_prime_tissue_per_mm=5103.27", "--set",
                                    "mu_a_tissue_per_mm=528620.19"]
           for command in ("trace", "cir", "pulse", "detector")},
    })
    return matrix


def run_jobs(out: Path) -> None:
    """Run every job in this process; write out/results.json and out/jobs/<id>/."""
    from cellray.cli import main

    results = {"cellray": __import__("cellray").__file__}
    warnings.simplefilter("always")
    for job_id, argv in jobs().items():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main([*argv, "--out", str(out / "jobs" / job_id)])
            except BaseException:  # a crash is an outcome to compare, not to stop at
                code = "exception"
                traceback.print_exc(file=stderr)
        results[job_id] = {"code": code, "stdout": stdout.getvalue(),
                           "stderr": stderr.getvalue()}
    (out / "results.json").write_text(json.dumps(results, indent=1))


def run_tree(tree: Path, out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run([sys.executable, __file__, "--run-jobs", str(out)], env=env, check=True)
    return json.loads((out / "results.json").read_text())


def files(job_dir: Path) -> dict[str, bytes]:
    if not job_dir.is_dir():
        return {}
    return {str(p.relative_to(job_dir)): p.read_bytes()
            for p in sorted(job_dir.rglob("*")) if p.is_file()}


def differences(a_dir: Path, a: dict, b_dir: Path, b: dict) -> tuple[dict[str, list[str]], int]:
    """Job id -> what differs between the two runs of that job; files compared."""
    diff, compared = {}, 0
    for job_id in jobs():
        what = [key for key in ("code", "stdout", "stderr") if a[job_id][key] != b[job_id][key]]
        a_out, b_out = a_dir / "jobs" / job_id, b_dir / "jobs" / job_id
        if a_out.exists() != b_out.exists():
            what.append(f"--out exists in {'this' if a_out.exists() else 'the other'} "
                        "tree only")
        a_files, b_files = files(a_out), files(b_out)
        what += [f"only in one tree: {name}" for name in sorted(a_files.keys() ^ b_files.keys())]
        shared = sorted(a_files.keys() & b_files.keys())
        what += [f"bytes of {name}" for name in shared if a_files[name] != b_files[name]]
        compared += len(shared)
        if what:
            diff[job_id] = what
    return diff, compared


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--run-jobs":
        run_jobs(Path(sys.argv[2]))
        return 0
    if len(sys.argv) != 2 or not (Path(sys.argv[1]) / "src" / "cellray").is_dir():
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    other = Path(sys.argv[1]).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        here_dir, other_dir = Path(tmp) / "this", Path(tmp) / "other"
        here, there = run_tree(ROOT, here_dir), run_tree(other, other_dir)
        print(f"this tree:  {here['cellray']}\nother tree: {there['cellray']}")
        diff, compared = differences(here_dir, here, other_dir, there)
    for job_id, what in diff.items():
        print(f"DIFFERS {job_id}: {'; '.join(what)}")
    print(f"{len(jobs()) - len(diff)} of {len(jobs())} jobs identical "
          f"({compared} output files compared)")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
