"""Scenario-driven command line front end.

Commands (via --command): trace, pathloss, cir, pulse, detector, sweep,
validate.  Identical scenario files produce byte-identical output files;
there is no hidden randomness anywhere in the pipeline.

Exit codes: 0 success, 2 validation or input error, 3 physics error (for
example an empty channel).  Only sweep takes a sweep block, since validate
judges a sweep by its points and not by the base the others run.  A
command computes every output, and run checks that no target in --out is
anything but a regular file, before --out is created, so a run that exits
2 or 3 leaves --out as it was; an output error removes what the run
created.  The one exception is pulse's received spectrum: its
transform runs on a second thread, started as soon as the received
waveform exists, while run writes the other pulse files, and run waits
for it on every path.  If the transform raises, run removes what it
created, as for an output error, and lets the exception through.

main may run many times in one process, as scripts/run_channel_battery.py
runs it: every call parses with the one parser _parser builds on first
use, and the CLI keeps the last channel it traced (_channel), keyed on the
layout, media, ray count and detector width it is built from; validate
and a traced command each build a run's layout and media once, in
config.trace_groups, whose groups also hold their ray count.  A sweep row
is written from the few values it holds (counts, dominant delay, total
gain, path loss), not from a report.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import threading
from dataclasses import asdict, dataclass
from functools import cache, partial
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from . import channel as ch
from . import config as cfg
from . import geometry as geo
from . import signal as sig
from .optics import (DB_PER_NEPER, UM_PER_MM, BeyondPole, Media, absorbance,
                     total_path_loss)

COMMANDS = ("trace", "pathloss", "cir", "pulse", "detector", "sweep", "validate")

# What a command returns besides its report: output file name -> writer of
# that file's path, in the order the files are written and listed.
Outputs = dict[str, Callable[[Path], None]]


class CliError(Exception):
    def __init__(self, kind: str, detail, exit_code: int):
        super().__init__(detail)
        self.kind = kind
        self.detail = detail
        self.exit_code = exit_code


def _fmt(value: float) -> str:
    return f"{value:.12e}"


def _fmt_or_empty(values: np.ndarray) -> list[str]:
    """Each value as _fmt text, "" where it is NaN (no such value)."""
    return ["" if math.isnan(v) else _fmt(v) for v in values.tolist()]


def _parse_override(text: str):
    """key=value with the value parsed as JSON when possible."""
    key, sep, raw = text.partition("=")
    if not sep:
        raise CliError("usage", f"--set needs key=value, got {text!r}", 2)
    try:
        value = json.loads(raw)
    except (json.JSONDecodeError, RecursionError):  # too deep a value is text too
        value = raw
    return key.strip(), value


def load_scenario(path: str | None, overrides: list[str]) -> cfg.Scenario:
    data: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise CliError("io", f"cannot read scenario file: {exc}", 2)
        except json.JSONDecodeError as exc:
            raise CliError("io", f"scenario file is not valid JSON: {exc}", 2)
        except UnicodeDecodeError as exc:
            raise CliError("io", f"scenario file is not UTF-8 text: {exc}", 2)
        except RecursionError:
            raise CliError("io", "scenario file nests JSON too deeply to parse", 2)
        if not isinstance(data, dict):
            raise CliError("io", "scenario file must hold a JSON object", 2)
    for item in overrides:
        key, value = _parse_override(item)
        if key == "sweep" and isinstance(value, str):
            value = _parse_sweep_shorthand(value)
        data[key] = value
    try:
        scenario = cfg.scenario_from_dict(data)
    except (ValueError, TypeError) as exc:
        raise CliError("validation", [str(exc)], 2)
    return scenario


def _parse_sweep_shorthand(text: str) -> dict:
    """Compact sweep grammar: 'n_cells=1..18' or 'd_l_um=2,5,10'."""
    key, sep, grid = text.partition("=")
    if not sep:
        raise CliError("usage", f"sweep shorthand needs param=range, got {text!r}", 2)
    try:
        if ".." in grid:
            lo, _, hi = grid.partition("..")
            return {"parameter": key.strip(), "start": float(lo), "stop": float(hi)}
        return {"parameter": key.strip(),
                "values": [float(v) for v in grid.split(",")]}
    except ValueError:
        raise CliError("usage", f"sweep shorthand needs numbers, got {text!r}", 2)


@dataclass(frozen=True, eq=False)
class Channel:
    """One traced channel: what _channels builds it from, and its detected atoms."""

    layout: geo.ArrayLayout
    media: Media
    h0: np.ndarray  # launch heights
    paths: geo.RayBatch
    focus: geo.FocusReport
    detected: ch.Atoms


def _channels(points: list[cfg.Scenario], groups: list[tuple]) -> Iterator[Channel]:
    """The points' channels, in order; each trace group is traced once.

    groups are the points' config.trace_groups, which hold every layout,
    media and ray count; the channels are the ones each point gives when
    traced alone, bit for bit.  Every point's rays are held until the last
    channel is made, which the ray-cell charge (config.ray_cells) bounds.
    """
    traced: list = [None] * len(points)
    for group, layouts, media, k_rays in groups:
        h0 = geo.collimated_bundle(layouts[0].shape, k_rays)
        # A lone layout goes through trace_array, the entry point perfbench times.
        results = geo.trace_arrays(layouts, media, h0) if len(group) > 1 \
            else [geo.trace_array(layouts[0], media, h0)]
        for i, layout, (paths, focus) in zip(group, layouts, results):
            traced[i] = (layout, media, h0, paths, focus)
    for point, (layout, media, h0, paths, focus) in zip(points, traced):
        detected, _ = ch.contributions(paths, media, point.detector_width_um)
        yield Channel(layout, media, h0, paths, focus, detected)


# The last single-scenario channel: at most one entry, its built inputs ->
# its Channel, every array read-only.  Commands run back to back on one
# scenario, as scripts/run_channel_battery.py runs trace, cir, pulse and
# detector, trace it once, and so do scenarios that build equal inputs but
# differ in gamma_mode, cir_dt_fs, the pulse keys or a key the shape ignores.
_last_channel: dict[tuple, Channel] = {}


def _channel(scenario: cfg.Scenario) -> Channel:
    """scenario's channel, traced unless the last call's had the same inputs."""
    groups = cfg.trace_groups([scenario])
    [(_, [layout], media, k_rays)] = groups
    key = (layout, media, k_rays, scenario.detector_width_um)
    if key not in _last_channel:
        _last_channel.clear()
        chan = next(_channels([scenario], groups))
        for array in (chan.h0, *vars(chan.paths).values(), *vars(chan.focus).values(),
                      *vars(chan.detected).values()):
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
        _last_channel[key] = chan
    return _last_channel[key]


def _cir(scenario: cfg.Scenario, chan: Channel, key: str) -> ch.ImpulseResponse:
    """chan's CIR binned at scenario's key, cir_dt_fs or waveform_dt_fs.

    In aggregate mode every bin carries the cumulative focusing ratio, worked
    out here so that a degenerate focus fails only CIR outputs.
    """
    gamma = ch.cumulative_gamma(chan.focus) if scenario.gamma_mode == "aggregate" else None
    try:
        return ch.build_cir(chan.detected, len(chan.paths),
                            getattr(scenario, key) * 1e-15, gamma)
    except ch.BinOverflow as exc:
        raise CliError("validation", [f"{key}: {exc}"], 2)


def _sum_in_order(values: np.ndarray | list[float]) -> float:
    """Left to right from 0.0, as sum() did before Python 3.12 compensated it.

    np.add.accumulate adds in order; the leading 0.0 makes [-0.0] sum to 0.0.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # as the loop, no warning
        return float(np.add.accumulate(np.concatenate(([0.0], values)))[-1])


def _counts(chan: Channel) -> dict[str, int]:
    """The rays that arrived, leaked and deviated: the report's and sweep rows' counts."""
    per_fate = np.bincount(chan.paths.fate, minlength=len(geo.STATUS))
    return {word: int(per_fate[geo.STATUS == word].sum())
            for word in ("arrived", "leaked", "deviated")}


def _base_report(scenario: cfg.Scenario, chan: Channel,
                 cir: ch.ImpulseResponse | None = None) -> dict:
    """The report fields of every traced command; cir is chan's CIR at cir_dt_fs."""
    report = {
        "scenario": asdict(scenario),
        "path_loss_db": total_path_loss(chan.layout, chan.media),
        "counts": _counts(chan),
    }
    if chan.detected.gain.any():  # light reaches the detector
        # Summed in ray order: the report's bytes depend on it.
        report["total_received_fraction"] = \
            _sum_in_order(chan.detected.gain) / len(chan.paths)
        if cir is None:
            cir = _cir(scenario, chan, "cir_dt_fs")
        report["dominant_delay_s"] = cir.dominant_bin()[0]
    else:
        report["total_received_fraction"] = 0.0
        report["dominant_delay_s"] = None
    return report


def cmd_trace(scenario: cfg.Scenario) -> tuple[dict, Outputs]:
    chan = _channel(scenario)
    paths, focus = chan.paths, chan.focus
    report = _base_report(scenario, chan)
    report["source_radius_um"] = focus.source_radius
    report["detector_radius_um"] = None if math.isnan(focus.detector_radius) \
        else focus.detector_radius
    loss = paths.loss_cell
    return report, {
        "rays.csv": partial(
            ch.write_csv,
            header=["ray_index", "status", "loss_cell", "h0_um", "exit_x_um",
                    "exit_h_um", "exit_theta_rad", "cell_path_um", "tissue_path_um"],
            columns=[np.arange(len(paths)), geo.STATUS[paths.fate],
                     np.where(loss < 0, "", loss.astype(str)), chan.h0, paths.exit_x,
                     paths.exit_h, paths.exit_theta, paths.cell_length,
                     paths.tissue_length]),
        "focus_report.csv": partial(
            ch.write_csv,
            header=["cell_index", "theta_f_rad", "x_f_um", "illumination_radius_um"],
            columns=[np.arange(len(focus.radius)), _fmt_or_empty(focus.theta_f),
                     _fmt_or_empty(focus.x_f), focus.radius]),
    }


def center_line_profile(layout: geo.ArrayLayout) -> tuple[np.ndarray, ...]:
    """Distance along the axial ray and the cell and tissue distances so far.

    One row at the source, then the samples of geo.center_line's stretches.
    """
    distance, cell_um, tissue_um = [np.zeros(1)], [np.zeros(1)], [np.zeros(1)]
    pos = 0.0
    done = {"cell": 0.0, "tissue": 0.0}  # per-medium distance before the segment
    for length, tag, samples, _ in geo.center_line(layout):
        frac = np.minimum(np.arange(1, samples + 1) * 1.0, length)
        distance.append(pos + frac)
        for medium, column in (("cell", cell_um), ("tissue", tissue_um)):
            column.append(done[medium] + (frac if medium == tag else np.zeros_like(frac)))
        done[tag] += length
        pos += length
    return tuple(map(np.concatenate, (distance, cell_um, tissue_um)))


def cmd_pathloss(scenario: cfg.Scenario) -> tuple[dict, Outputs]:
    layout, media = scenario.build_layout(), scenario.build_media()
    # Cumulative center-line loss profile, each DPF on the running
    # per-medium total.
    distance, cell_um, tissue_um = center_line_profile(layout)
    pathloss = DB_PER_NEPER * (absorbance(media.cell, cell_um / UM_PER_MM)
                               + absorbance(media.tissue, tissue_um / UM_PER_MM))
    report = {
        "scenario": asdict(scenario),
        "path_loss_db": total_path_loss(layout, media),
        # The value as written to the curve's last row.
        "center_line_path_loss_db": float(_fmt(pathloss[-1])),
    }
    return report, {"pathloss_curve.csv": partial(
        ch.write_csv, header=["distance_um", "pathloss_db"], columns=[distance, pathloss])}


def cmd_cir(scenario: cfg.Scenario) -> tuple[dict, Outputs]:
    chan = _channel(scenario)
    cir = _cir(scenario, chan, "cir_dt_fs")
    report = _base_report(scenario, chan, cir)
    report["total_gain"] = cir.total_gain()
    return report, {"cir.csv": partial(ch.write_cir_csv, cir),
                    "pdp.csv": partial(ch.write_pdp_csv, ch.power_delay_profile(cir))}


class _Background(threading.Thread):
    """fn(*args) on a thread of its own, started at construction.

    result() waits for the thread, then returns fn's value or raises its
    exception.
    """

    def __init__(self, fn: Callable, *args) -> None:
        super().__init__()
        self._fn = partial(fn, *args)
        self._outcome: tuple = (None, None)  # (fn's value, its exception)
        self.start()

    def run(self) -> None:
        try:
            self._outcome = (self._fn(), None)
        except BaseException as exc:  # raised again by result(), on the caller's thread
            self._outcome = (None, exc)

    def result(self):
        self.join()
        value, error = self._outcome
        if error is not None:
            raise error
        return value


def cmd_pulse(scenario: cfg.Scenario,
              background: contextlib.ExitStack) -> tuple[dict, Outputs]:
    """The pulse outputs; rx_spectrum.csv's writer also sets rx_peak_frequency_hz.

    The received spectrum is transformed on a second thread while the rest
    is computed and the files before rx_spectrum.csv are written; closing
    background, which run holds open until its files are written, waits for it.
    """
    tau, dt = scenario.pulse_grid_s()
    tx = sig.gaussian_pulse(scenario.e0, tau, scenario.build_wavelength(), dt)
    chan = _channel(scenario)
    cir = _cir(scenario, chan, "waveform_dt_fs")
    if len(tx.samples) * len(cir.bins) > cfg.MAX_CONVOLUTION:
        raise CliError("validation", [
            f"waveform_dt_fs: convolving {len(tx.samples)} pulse samples with "
            f"{len(cir.bins)} CIR bins exceeds the cap of {cfg.MAX_CONVOLUTION} "
            "multiply-adds"], 2)
    rx = sig.propagate(tx, cir)
    rx_spectrum = _Background(sig.spectrum, rx)
    background.callback(rx_spectrum.join)
    dominant_delay, _ = cir.dominant_bin()
    summary = sig.received_pulse(tx, dominant_delay, cir.total_gain())
    tx_spectrum = sig.spectrum(tx)
    report = _base_report(scenario, chan)
    report["tx_peak_power"] = float(sig.envelope(tx).max() ** 2)
    report["rx_summary_peak_power"] = float(sig.envelope(summary).max() ** 2)
    report["tx_peak_frequency_hz"] = tx_spectrum.peak_frequency()

    def write_rx_spectrum(path: Path) -> None:
        spectrum = rx_spectrum.result()
        report["rx_peak_frequency_hz"] = spectrum.peak_frequency()
        sig.write_spectrum_csv(spectrum, path)

    return report, {
        "tx.csv": partial(sig.write_waveform_csv, tx),
        "rx.csv": partial(sig.write_waveform_csv, rx),
        "rx_summary.csv": partial(sig.write_waveform_csv, summary),
        "tx_spectrum.csv": partial(sig.write_spectrum_csv, tx_spectrum),
        "rx_spectrum.csv": write_rx_spectrum,
    }


def cmd_detector(scenario: cfg.Scenario) -> tuple[dict, Outputs]:
    chan = _channel(scenario)
    report = _base_report(scenario, chan)
    dmap = ch.detector_map(chan.detected)
    report["detected_rays"] = len(dmap.samples)
    if len(dmap.samples):
        best = int(np.argmax(dmap.samples[:, 1]))
        report["max_power_coordinate_um"] = float(dmap.samples[best, 0])
    return report, {"detector_map.csv": partial(ch.write_detector_csv, dmap)}


def cmd_sweep(scenario: cfg.Scenario) -> tuple[dict, Outputs]:
    param = scenario.sweep["parameter"]
    points = cfg.sweep_points(scenario)
    outputs, rows, bins = {}, [], 0
    for i, (point, chan) in enumerate(zip(points, _channels(points, cfg.trace_groups(points)))):
        # The row's fields as _base_report gives them, without its other work;
        # a binned CIR carries light, so its dominant delay is the report's.
        cir = _cir(point, chan, "cir_dt_fs")
        # Every point's bins are held until the write: all of them share one CIR's cap.
        if (bins := bins + len(cir.bins)) > ch.MAX_CIR_BINS:
            raise CliError("validation", [f"sweep: the CIRs of its first {i + 1} points need "
                                          f"{bins} bins, over the cap of {ch.MAX_CIR_BINS}"], 2)
        counts = _counts(chan)
        outputs[f"cir_{i:03d}.csv"] = partial(ch.write_cir_csv, cir)
        rows.append((float(getattr(point, param)), cir.dominant_bin()[0], cir.total_gain(),
                     total_path_loss(chan.layout, chan.media), counts["leaked"],
                     counts["deviated"]))
    outputs["sweep_summary.csv"] = partial(
        ch.write_csv,
        header=[param, "dominant_delay_s", "total_gain", "pathloss_db", "leaked", "deviated"],
        columns=list(zip(*rows)))
    return {"scenario": asdict(scenario), "sweep_parameter": param,
            "points": len(points)}, outputs


def run(command: str, scenario: cfg.Scenario, out: Path) -> str:
    """Run one command, write its outputs and report.json into out.

    Returns report.json's text, which main prints as it is.
    """
    if (scenario.sweep is None) == (command == "sweep"):
        # validate judges a sweep by its points, not by the base the others run.
        raise CliError("validation", ["sweep: command needs a sweep block" if scenario.sweep
                                      is None else f"sweep: {command} takes no sweep block; "
                                      "run the sweep command, or set sweep=null"], 2)
    if violations := cfg.validate(scenario):
        raise CliError("validation", violations, 2)
    # Closed on every path out of run: it waits for the thread pulse starts.
    with contextlib.ExitStack() as background:
        handler = {
            "trace": cmd_trace,
            "pathloss": cmd_pathloss,
            "cir": cmd_cir,
            "pulse": partial(cmd_pulse, background=background),
            "detector": cmd_detector,
            "sweep": cmd_sweep,
        }[command]
        try:
            report, outputs = handler(scenario)
        except (ch.EmptyChannel, ch.DegenerateFocus, sig.UnderResolved, BeyondPole) as exc:
            raise CliError("physics", f"{type(exc).__name__}: {exc}", 3)
        report["files"] = list(outputs)
        for path in (out / name for name in (*outputs, "report.json")):
            if path.exists() and not path.is_file():
                raise CliError("io", f"cannot write outputs: {path} is not a regular file", 2)
        created: list[Path] = []  # the directories the run makes, deepest first
        kept = None  # out's entries before the run, once listed
        try:
            created = [d for d in (out, *out.parents) if not d.exists()]
            out.mkdir(parents=True, exist_ok=True)
            kept = set(out.iterdir())
            for name, write in outputs.items():
                write(out / name)
            # Encoded after the writers, one of which may complete the report.
            text = json.dumps(report, indent=2, sort_keys=True) + "\n"
            with open(out / "report.json", "w") as fh:
                fh.write(text)
        except BaseException as exc:  # an output error, or pulse's transform failed
            # Undo what the run added; a file it overwrote keeps its new bytes.
            if kept is not None:
                with contextlib.suppress(OSError):
                    for path in set(out.iterdir()) - kept:
                        path.unlink()
            for directory in created:
                with contextlib.suppress(OSError):
                    directory.rmdir()
            if isinstance(exc, OSError):
                raise CliError("io", f"cannot write outputs: {exc}", 2)
            raise
    return text


@cache
def _parser() -> argparse.ArgumentParser:
    """main's parser, built on the first call and shared by every later one.

    Parsing leaves it as it was: "append" copies its default list before
    adding to it.
    """
    import argparse  # here, not at the top: only main parses
    parser = argparse.ArgumentParser(
        prog="cellray",
        description="Geometric-optics channel simulator for one-dimensional "
                    "arrays of neuron-shaped cells.",
    )
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--scenario", help="scenario JSON file "
                                           "(built-in defaults when omitted)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a scenario key")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        scenario = load_scenario(args.scenario, args.overrides)
        if args.command == "validate":
            violations = cfg.validate(scenario)
            print(json.dumps({"violations": violations}, indent=2))
            if violations:
                raise CliError("validation", violations, 2)
            return 0
        text = run(args.command, scenario, Path(args.out))
    except CliError as exc:
        record = {"error": exc.kind, "detail": exc.detail}
        print(json.dumps(record, indent=2), file=sys.stderr)
        return exc.exit_code
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
