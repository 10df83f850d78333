"""Write reference_seed0.json: each seed-0 job's exit code and outputs.

Run it only when the program's outputs are meant to change, and say so in
the change that updates the manifest:

    python3 perfbench/make_reference.py
"""

import json
import os
import shutil

import checks
import workloads
from run import WORK, run_job


def main() -> None:
    cellray = workloads.import_cellray()
    run_dir = WORK / f"reference-{os.getpid()}"
    jobs = {}
    try:
        with open(os.devnull, "w") as devnull:
            for name in workloads.WORKLOADS:
                plan = workloads.plan(name, 0, run_dir / name / "scenarios")
                jobs[name] = {}
                for job in plan.jobs:
                    out = run_dir / name / "out" / job.id
                    code, _ = run_job(cellray, job, out, devnull)
                    files = checks.job_outputs(out)
                    jobs[name][job.id] = {
                        "exit": code,
                        "sha256": {n: d["sha256"] for n, d in files.items()},
                        "files": checks.comparable(files),
                    }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    checks.REFERENCE.write_text(json.dumps({"seed": 0, "jobs": jobs},
                                           indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, jobs.values()))} jobs to {checks.REFERENCE}")


if __name__ == "__main__":
    main()
