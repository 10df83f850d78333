"""Output check of benchmark jobs.

Every seed is checked against invariants:

* the exit code is the one the job expects, and no exception escapes;
* every file listed in report.json exists;
* arrived + leaked + deviated equals k_rays;
* the sum of cir.csv equals report.json total_gain to 1e-12 relative;
* report.json is byte-identical across repeats of one job.

Seed 0 is also compared with the reference manifest (reference_seed0.json):
the same files, and every parsed number within 1e-9 relative. A column's
signed sums may be near zero while its values are not, so they are compared
within 1e-9 of the matching sum of |x| instead. Byte identity with the
reference is counted, not required.

Files are read in blocks of rows so checking does not raise the peak
resident set the benchmark reports.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
GAIN_REL_TOL = 1e-12
BLOCK_ROWS = 2048  # rows parsed at a time, so memory stays bounded
REFERENCE = Path(__file__).resolve().parent / "reference_seed0.json"


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class _Column:
    """Order-sensitive summary of one CSV column."""

    def __init__(self) -> None:
        self.n = 0
        self.total = 0.0
        self.wsum = 0.0
        self.sum_abs = 0.0
        self.wsum_abs = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.first = None
        self.last = None
        self.text = hashlib.sha256()
        self.text_n = 0

    def add(self, first_row: int, tokens: list[str]) -> None:
        """Fold in the tokens of rows first_row, first_row + 1, ..."""
        try:
            x = np.array(tokens, dtype=float)
        except ValueError:
            for row, token in enumerate(tokens, start=first_row):
                try:
                    value = float(token)
                except ValueError:
                    self.text.update(f"{row}:{token}\n".encode())
                    self.text_n += 1
                else:
                    self.add(row, [value])
            return
        if not len(x):
            return
        ax = np.abs(x)
        rows = np.arange(first_row + 1, first_row + 1 + len(x), dtype=float)
        self.n += len(x)
        self.total += float(x.sum())
        self.wsum += float(rows @ x)
        self.sum_abs += float(ax.sum())
        self.wsum_abs += float(rows @ ax)
        self.min = min(self.min, float(x.min()))
        self.max = max(self.max, float(x.max()))
        if self.first is None:
            self.first = float(x[0])
        self.last = float(x[-1])

    def summary(self) -> dict:
        out = {"n": self.n, "text_n": self.text_n,
               "text_sha256": self.text.hexdigest()}
        if self.n:
            out.update(sum=self.total, wsum=self.wsum,
                       sum_abs=self.sum_abs, wsum_abs=self.wsum_abs,
                       min=self.min, max=self.max,
                       first=self.first, last=self.last)
        return out


def digest(path: Path) -> dict:
    """sha256, size and parsed numbers of one output file."""
    out = {"sha256": sha256(path), "bytes": path.stat().st_size}
    if path.suffix == ".json":
        out["json"] = json.loads(path.read_text())
        return out
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        columns = [_Column() for _ in header]
        rows = ragged = 0
        while block := list(itertools.islice(reader, BLOCK_ROWS)):
            ragged += sum(len(record) != len(header) for record in block)
            for j, col in enumerate(columns):
                col.add(rows, [r[j] if j < len(r) else "" for r in block])
            rows += len(block)
    out.update(header=header, rows=rows, ragged_rows=ragged,
               columns=[c.summary() for c in columns])
    return out


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return abs(a - b) <= rel * max(abs(a), abs(b))


# Signed sums of a column and the sums of |x| that scale their tolerance.
SIGNED = {"sum": "sum_abs", "wsum": "wsum_abs"}


def diff(ref, got, where: str = "") -> list[str]:
    """Differences between two parsed values, numbers within REL_TOL."""
    if isinstance(ref, bool) or isinstance(got, bool) or ref is None or got is None:
        return [] if ref == got else [f"{where}: {got!r} != {ref!r}"]
    if isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        return [] if close(float(ref), float(got)) else [f"{where}: {got!r} != {ref!r}"]
    if isinstance(ref, dict) and isinstance(got, dict):
        if sorted(ref) != sorted(got):
            return [f"{where}: keys {sorted(got)} != {sorted(ref)}"]
        problems = []
        for k in ref:
            scale = SIGNED.get(k)
            if scale in ref and isinstance(ref[k], float) and isinstance(got[k], float):
                if abs(ref[k] - got[k]) > REL_TOL * max(ref[scale], got[scale]):
                    problems.append(f"{where}.{k}: {got[k]!r} != {ref[k]!r}")
            else:
                problems += diff(ref[k], got[k], f"{where}.{k}")
        return problems
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{where}: length {len(got)} != {len(ref)}"]
        return [d for i, (r, g) in enumerate(zip(ref, got))
                for d in diff(r, g, f"{where}[{i}]")]
    return [] if ref == got else [f"{where}: {got!r} != {ref!r}"]


def job_outputs(out: Path) -> dict[str, dict]:
    """Digest of every file a job left in its output directory."""
    if not out.is_dir():
        return {}
    return {p.name: digest(p) for p in sorted(out.iterdir()) if p.is_file()}


def comparable(files: dict[str, dict]) -> dict:
    """A digest without the fields that may differ within REL_TOL."""
    return {name: {k: v for k, v in d.items() if k not in ("sha256", "bytes")}
            for name, d in files.items()}


def load_reference(workload: str, seed: int) -> dict | None:
    """The workload's jobs in the seed-0 manifest; None for other seeds."""
    if seed != 0:
        return None
    return json.loads(REFERENCE.read_text())["jobs"][workload]


class Checker:
    """Checks each job's outputs against the invariants and the reference."""

    def __init__(self, reference: dict | None) -> None:
        self.reference = reference
        self.first_sha: dict[str, dict[str, str]] = {}

    def check(self, job, code, files: dict[str, dict]) -> tuple[list[str], int]:
        """Problems found, and the number of files byte-identical to the reference.

        The reference is the manifest for seed 0 and the job's first run
        otherwise.
        """
        shas = {name: d["sha256"] for name, d in files.items()}
        first = self.first_sha.setdefault(job.id, shas)
        problems = []
        if code != job.expect:
            problems.append(f"exit {code}, expected {job.expect}")
        report_file = files.get("report.json")
        if code == 0 and report_file is not None:
            problems += self._invariants(job, report_file, files)
            if first.get("report.json") != shas["report.json"]:
                problems.append("report.json differs from the job's first run")
        elif code == 0:
            problems.append("no report.json")

        if self.reference is None:
            return problems, sum(first.get(n) == sha for n, sha in shas.items())
        ref = self.reference.get(job.id)
        if ref is None:
            return problems + ["job missing from the reference manifest"], 0
        if ref["exit"] != code:
            problems.append(f"exit {code}, reference {ref['exit']}")
        problems += diff(ref["files"], comparable(files), "files")
        return problems, sum(ref["sha256"].get(n) == sha for n, sha in shas.items())

    def _invariants(self, job, report_file: dict, files: dict) -> list[str]:
        problems = []
        report = report_file["json"]
        for name in report.get("files", []):
            if name not in files:
                problems.append(f"listed file {name} missing")
        counts = report.get("counts")
        if counts is not None:
            k = report["scenario"]["k_rays"]
            total = counts["arrived"] + counts["leaked"] + counts["deviated"]
            if total != k:
                problems.append(f"ray counts sum to {total}, k_rays is {k}")
        if job.command == "cir" and "cir.csv" in files:
            cir_sum = files["cir.csv"]["columns"][1]["sum"]
            if not close(cir_sum, report["total_gain"], GAIN_REL_TOL):
                problems.append(f"cir.csv sums to {cir_sum!r}, "
                                f"total_gain is {report['total_gain']!r}")
        return problems
