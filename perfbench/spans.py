"""Spans and counters around cellray's public entry points, from outside.

Each entry point is wrapped at the binding its caller resolves at call time:
a module attribute such as `cellray.geometry.trace_array`, or a name that
another module imported, such as `cellray.cli.total_path_loss`. A span
records its name, start, end, parent span and job id; spans stay in memory
until the run ends. A layer's self time is its spans' durations minus the
time their child spans cover.

Names start with the layer they time: config, geometry, channel, optics,
signal or cli.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("config", "geometry", "channel", "optics", "signal", "cli")

# (metric, unit, better). A time that is zero on some workload by design
# (signal on wide-shallow, the detector map and channel writers on
# long-pulse) is given as a share of traced job time instead of seconds.
PER_LAYER = [
    ("geometry.trace_array.calls", "count", "lower"),
    ("geometry.trace_array.self_s", "s", "lower"),
    ("geometry.ray_cells", "count", "lower"),
    ("geometry.ns_per_ray_cell", "ns", "lower"),
    ("geometry.delivered_frac", "ratio", "higher"),
    ("channel.contributions.calls", "count", "lower"),
    ("channel.contributions.self_s", "s", "lower"),
    ("channel.contributions_per_trace", "ratio", "lower"),
    ("channel.build_cir.self_s", "s", "lower"),
    ("channel.detector_map.self_share", "ratio", "lower"),
    ("channel.atoms", "count", "lower"),
    ("channel.cir_bins", "count", "lower"),
    ("channel.write_share", "ratio", "lower"),
    ("channel.rows_written", "count", "lower"),
    ("optics.transmittance.calls", "count", "lower"),
    ("optics.total_path_loss.calls", "count", "lower"),
    ("optics.total_path_loss.self_s", "s", "lower"),
    ("signal.propagate.self_share", "ratio", "lower"),
    ("signal.envelope.self_share", "ratio", "lower"),
    ("signal.spectrum.calls", "count", "lower"),
    ("signal.spectrum.self_share", "ratio", "lower"),
    ("signal.write_share", "ratio", "lower"),
    ("signal.rows_written", "count", "lower"),
    ("signal.samples", "count", "lower"),
    ("config.load_s", "s", "lower"),
    ("cli.cmd.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("cli.files_written", "count", "lower"),
    ("cli.outputs_byte_identical", "ratio", "higher"),
    *((f"{layer}.self_share", "ratio", "lower") for layer in LAYERS),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _trace_array(counts, args, kwargs, result):
    layout, _, bundle = args
    paths, _ = result
    counts["launched"] += len(bundle)
    counts["ray_cells"] += len(bundle) * layout.n_cells
    counts["delivered"] += sum(p.status != "leaked" for p in paths)


def _atoms(counts, args, kwargs, result):
    detected, outside = result
    counts["atoms"] += len(detected) + len(outside)


def _cir_bins(counts, args, kwargs, result):
    counts["cir_bins"] += len(result.bins)


def _samples(counts, args, kwargs, result):
    counts["samples"] += len(result.samples)


def _rows(key: str, attr: str):
    """Counter of the rows a writer gets: the length of its first argument's attr."""
    def count(counts, args, kwargs, result):
        counts[key] += len(getattr(args[0], attr))
    return count


def _points(cellray):
    """(object, attribute, span name, counter) for every traced entry point."""
    cli, cfg, geo, ch, sig = (cellray.cli, cellray.config, cellray.geometry,
                              cellray.channel, cellray.signal)
    points = [
        (cli, "main", "cli.main", None),
        (cli, "load_scenario", "config.load_scenario", None),
        (cfg, "validate", "config.validate", None),
        (geo, "collimated_bundle", "geometry.collimated_bundle", None),
        (geo, "trace_array", "geometry.trace_array", _trace_array),
        (ch, "contributions", "channel.contributions", _atoms),
        (ch, "build_cir", "channel.build_cir", _cir_bins),
        (ch, "power_delay_profile", "channel.power_delay_profile", None),
        (ch, "detector_map", "channel.detector_map", None),
        (ch, "write_cir_csv", "channel.write_cir_csv", _rows("channel_rows", "bins")),
        (ch, "write_pdp_csv", "channel.write_pdp_csv", _rows("channel_rows", "bins")),
        (ch, "write_detector_csv", "channel.write_detector_csv",
         _rows("channel_rows", "samples")),
        (cli, "total_path_loss", "optics.total_path_loss", None),
        (sig, "gaussian_pulse", "signal.gaussian_pulse", _samples),
        (sig, "propagate", "signal.propagate", _samples),
        (sig, "received_pulse", "signal.received_pulse", _samples),
        (sig, "envelope", "signal.envelope", None),
        (sig, "spectrum", "signal.spectrum", None),
        (sig, "write_waveform_csv", "signal.write_waveform_csv",
         _rows("signal_rows", "samples")),
        (sig, "write_spectrum_csv", "signal.write_spectrum_csv",
         _rows("signal_rows", "amps")),
    ]
    points += [(cli, name, f"cli.{name}", None) for name in dir(cli)
               if name.startswith("cmd_")]
    return points


class Tracer:
    """Installs the wrappers, keeps the spans, and removes the wrappers again."""

    def __init__(self, cellray) -> None:
        self.cellray = cellray
        self.spans: list[tuple | None] = []   # (name, start, end, parent, job)
        self.counts: Counter = Counter()
        self.job: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        for obj, attr, name, count in _points(self.cellray):
            original = getattr(obj, attr)
            setattr(obj, attr, self._wrap(original, name, count))
            self._undo.append((obj, attr, original))
        # transmittance runs twice per atom: count it, no span.
        ch = self.cellray.channel
        original = ch.transmittance

        def transmittance(*args, **kwargs):
            self.counts["transmittance"] += 1
            return original(*args, **kwargs)

        ch.transmittance = transmittance
        self._undo.append((ch, "transmittance", original))

    def remove(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    def _wrap(self, fn, name, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.job)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "job": job}) + "\n")


def layer_metrics(spans: list[tuple], first_id: int, counts: Counter,
                  written: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    spans holds the pass's spans, whose ids start at first_id; written holds
    the pass's bytes, files and byte-identical files from the output check.
    """
    child = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    self_s = defaultdict(float)
    calls = Counter()
    jobs_s = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans, start=first_id):
        self_s[name] += end - start - child[i]
        calls[name] += 1
        if parent is None:
            jobs_s += end - start
    layer_s = defaultdict(float)
    for name, s in self_s.items():
        layer_s[name.split(".")[0]] += s

    def prefixed(prefix: str) -> float:
        return sum(s for name, s in self_s.items() if name.startswith(prefix))

    def share(seconds: float) -> float:
        return seconds / jobs_s

    traces = calls["geometry.trace_array"]
    m = {
        "geometry.trace_array.calls": traces,
        "geometry.trace_array.self_s": self_s["geometry.trace_array"],
        "geometry.ray_cells": counts["ray_cells"],
        "geometry.ns_per_ray_cell":
            1e9 * self_s["geometry.trace_array"] / counts["ray_cells"],
        "geometry.delivered_frac": counts["delivered"] / counts["launched"],
        "channel.contributions.calls": calls["channel.contributions"],
        "channel.contributions.self_s": self_s["channel.contributions"],
        "channel.contributions_per_trace": calls["channel.contributions"] / traces,
        "channel.build_cir.self_s": self_s["channel.build_cir"],
        "channel.detector_map.self_share": share(self_s["channel.detector_map"]),
        "channel.atoms": counts["atoms"],
        "channel.cir_bins": counts["cir_bins"],
        "channel.write_share": share(prefixed("channel.write_")),
        "channel.rows_written": counts["channel_rows"],
        "optics.transmittance.calls": counts["transmittance"],
        "optics.total_path_loss.calls": calls["optics.total_path_loss"],
        "optics.total_path_loss.self_s": self_s["optics.total_path_loss"],
        "signal.propagate.self_share": share(self_s["signal.propagate"]),
        "signal.envelope.self_share": share(self_s["signal.envelope"]),
        "signal.spectrum.calls": calls["signal.spectrum"],
        "signal.spectrum.self_share": share(self_s["signal.spectrum"]),
        "signal.write_share": share(prefixed("signal.write_")),
        "signal.rows_written": counts["signal_rows"],
        "signal.samples": counts["samples"],
        "config.load_s": layer_s["config"],
        "cli.cmd.self_s": prefixed("cli.cmd_"),
        "cli.bytes_written": written["bytes"],
        "cli.files_written": written["files"],
        "cli.outputs_byte_identical": written["identical"] / written["files"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_share"] = share(layer_s[layer])
    return m
