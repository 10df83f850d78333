#!/usr/bin/env python3
"""cellray benchmark: CLI workloads run in-process, output-checked.

    python3 perfbench/run.py --workload battery --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; cellray is imported from its src/. One
invocation is one fresh process. It writes the workload's scenario files,
then runs passes over the workload's job list, closed loop in one thread,
until --seconds have passed, timing set-up in a fresh interpreter between
jobs every few seconds. Every job's outputs are checked after it returns,
outside the timed region.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced passes and reports the per-layer metrics, including the tracing
overhead; the spans are written to .perfbench_work/ when the run ends.

Human-readable lines go first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import hostspeed
import spans
import workloads

WORK = workloads.ROOT / ".perfbench_work"
SETUP_EVERY_S = 2.0  # set-up is probed between jobs, at most this often
SUBPROCESS_TIMEOUT_S = 170


class SetupProbe:
    """Times set-up in fresh interpreters: import cellray, load the scenarios."""

    def __init__(self, plan: workloads.Plan, run_dir: Path) -> None:
        specs = run_dir / "setup_specs.json"
        specs.write_text(json.dumps([[job.scenario, list(job.overrides)]
                                     for job in plan.jobs + plan.probes]))
        self.argv = [sys.executable,
                     str(Path(__file__).with_name("setup_probe.py")), str(specs)]
        self.times: list[float] = []
        self.kernel: list[float] = []
        self.last = -math.inf

    def __call__(self) -> None:
        start = time.monotonic()
        done = subprocess.run(self.argv, check=True, capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT_S)
        end, kernel = map(float, done.stdout.split())
        self.times.append(end - start)
        self.kernel.append(kernel)
        self.last = time.monotonic()

    def maybe(self) -> None:
        """Probe once SETUP_EVERY_S have passed since the last probe."""
        if time.monotonic() - self.last >= SETUP_EVERY_S:
            self()


def run_job(cellray, job, out: Path, devnull) -> tuple[object, float]:
    """Run one job through cellray.cli.main; (exit code or exception, seconds)."""
    shutil.rmtree(out, ignore_errors=True)
    argv = job.argv(out)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(devnull), contextlib.redirect_stderr(devnull):
            code = cellray.cli.main(argv)
    except Exception as exc:  # the job boundary: record and go on
        code = f"{type(exc).__name__}: {exc}"
    return code, time.perf_counter() - start


class Runner:
    """Runs passes over a plan and keeps what the metrics need."""

    def __init__(self, cellray, plan, checker, out_dir: Path) -> None:
        self.cellray, self.plan, self.checker = cellray, plan, checker
        self.out_dir = out_dir
        self.attempted = 0
        self.failures: list[str] = []
        self.devnull = open(os.devnull, "w")

    def close(self) -> None:
        self.devnull.close()

    def run_pass(self, tracer=None, between=None) -> tuple[list[float], list[float], dict]:
        """Job latencies, the host-speed kernel's time before each job, and
        the output counts of one pass.

        between, if given, is called after each job, outside its timing.
        """
        latencies, kernel = [], []
        written = {"bytes": 0, "files": 0, "identical": 0}
        for job in self.plan.jobs:
            if tracer is not None:
                tracer.job = job.id
            out = self.out_dir / job.id
            kernel.append(hostspeed.kernel())
            code, seconds = run_job(self.cellray, job, out, self.devnull)
            latencies.append(seconds)
            files = checks.job_outputs(out)
            problems, identical = self.checker.check(job, code, files)
            self.attempted += 1
            if problems:
                self.failures.append(f"{job.id}: " + "; ".join(problems[:3]))
            written["bytes"] += sum(d["bytes"] for d in files.values())
            written["files"] += len(files)
            written["identical"] += identical
            if between is not None:
                between()
        return latencies, kernel, written

    def probe(self) -> list[str]:
        """Outcome lines of the known-defect probes."""
        lines = []
        for job in self.plan.probes:
            code, _ = run_job(self.cellray, job, self.out_dir / job.id, self.devnull)
            verdict = "as required" if code == job.expect else "KNOWN DEFECT"
            lines.append(f"probe {job.id} ({job.command} {' '.join(job.overrides)}): "
                         f"got {code!r}, required exit {job.expect} -> {verdict}")
        return lines


def measure(seconds: float, runner: Runner, setup: SetupProbe) -> dict:
    """End-to-end metrics of untraced passes until --seconds have passed.

    Times are scaled to the baseline host's speed (hostspeed.py): each
    job's latency is divided by the host-speed kernel's time just before it,
    each set-up probe by the kernel's time in the probe's own interpreter,
    and both are multiplied by hostspeed.REF_S. wall_s sums over jobs the
    median of each job's scaled latency; setup_s is the median scaled
    set-up probe. Set-up is probed between jobs throughout the run, not in
    one burst. The raw times are printed alongside.

    job_p50_s is printed, raw, with its sample count but not returned: on a
    shared two-core host its spread across runs is too wide to gate, and
    wall_s carries the same signal.
    """
    scaled, raw, kernels = [], [], []
    start = time.perf_counter()
    setup()
    while not raw or time.perf_counter() - start < seconds:
        lat, kernel, _ = runner.run_pass(between=setup.maybe)
        raw.append(lat)
        kernels += kernel
        scaled.append([hostspeed.REF_S * t / k for t, k in zip(lat, kernel)])
    wall_s = sum(statistics.median(job) for job in zip(*scaled))
    setup_s = statistics.median(hostspeed.REF_S * t / k
                                for t, k in zip(setup.times, setup.kernel))
    latencies = [t for lat in raw for t in lat]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"setup_s {setup_s!r} s (median of {len(setup.times)} fresh interpreters, "
          f"scaled; raw: {' '.join(f'{t:.3f}' for t in setup.times)})")
    print(f"wall_s {wall_s!r} s (sum of each job's median of {len(raw)} passes, "
          f"scaled; raw passes: {' '.join(f'{sum(p):.3f}' for p in raw)})")
    print(f"host-speed kernel {statistics.median(kernels)!r} s (median of "
          f"{len(kernels)} in this process; {hostspeed.REF_S} s on the "
          "baseline host)")
    print(f"job_p50_s {statistics.median(latencies)!r} s "
          f"(median of {len(latencies)} jobs, raw)")
    print(f"peak_rss_mb {peak_rss_mb!r} MB")
    return {"setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB")}


def measure_traced(args, cellray, runner: Runner) -> dict:
    """Per-layer metrics: alternate untraced and traced passes."""
    tracer = spans.Tracer(cellray)
    plain, traced, per_pass = [], [], []
    start = time.perf_counter()
    while not (plain and traced) or time.perf_counter() - start < args.seconds:
        if len(plain) <= len(traced):
            plain.append(sum(runner.run_pass()[0]))
            continue
        first = len(tracer.spans)
        tracer.counts.clear()
        tracer.install()
        try:
            lat, _, written = runner.run_pass(tracer)
        finally:
            tracer.remove()
        traced.append(sum(lat))
        per_pass.append(spans.layer_metrics(tracer.spans[first:], first,
                                            tracer.counts, written))
    WORK.mkdir(exist_ok=True)
    span_file = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(span_file)
    print(f"{len(tracer.spans)} spans of {len(traced)} traced passes "
          f"written to {span_file.relative_to(workloads.ROOT)}")
    metrics = {name: statistics.median(p[name] for p in per_pass)
               for name in per_pass[0]}
    metrics["trace.overhead_frac"] = (statistics.median(traced)
                                      / statistics.median(plain) - 1.0)
    for name in spans.LAYERS:
        print(f"share of traced job time in {name}: "
              f"{metrics[name + '.self_share']:.3f}")
    return {name: (metrics[name], unit) for name, unit, _ in spans.PER_LAYER}


def run_all(args) -> int:
    """Each workload in its own fresh process; prints their summaries."""
    code = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        done = subprocess.run(argv, timeout=SUBPROCESS_TIMEOUT_S + 10 * args.seconds)
        code = code or done.returncode
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)

    cellray = workloads.import_cellray()
    run_dir = WORK / f"run-{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    plan = workloads.plan(args.workload, args.seed, run_dir / "scenarios")
    checker = checks.Checker(checks.load_reference(args.workload, args.seed))
    runner = Runner(cellray, plan, checker, run_dir / "out")
    try:
        print(f"workload {args.workload} seed {args.seed}: "
              f"{len(plan.jobs)} jobs per pass")
        if args.trace:
            metrics = measure_traced(args, cellray, runner)
        else:
            metrics = measure(args.seconds, runner, SetupProbe(plan, run_dir))
        for line in runner.probe():
            print(line)
    finally:
        runner.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = len(runner.failures)
    print(f"failed_frac {failed / runner.attempted!r} ratio "
          f"({failed} of {runner.attempted} jobs)")
    for line in runner.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
