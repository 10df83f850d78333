"""Scenario-driven command line front end.

Commands (via --command): trace, pathloss, cir, pulse, detector, sweep,
validate.  Identical scenario files produce byte-identical output files;
there is no hidden randomness anywhere in the pipeline.

Exit codes: 0 success, 2 validation or input error, 3 physics error (for
example an empty channel).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import channel as ch
from . import config as cfg
from . import geometry as geo
from . import signal as sig
from .optics import (DB_PER_NEPER, UM_PER_MM, BeyondPole, Media, absorbance,
                     total_path_loss)

COMMANDS = ("trace", "pathloss", "cir", "pulse", "detector", "sweep", "validate")


class CliError(Exception):
    def __init__(self, kind: str, detail, exit_code: int):
        super().__init__(detail)
        self.kind = kind
        self.detail = detail
        self.exit_code = exit_code


def _fmt(value: float) -> str:
    return f"{value:.12e}"


def _parse_override(text: str):
    """key=value with the value parsed as JSON when possible."""
    key, sep, raw = text.partition("=")
    if not sep:
        raise CliError("usage", f"--set needs key=value, got {text!r}", 2)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def load_scenario(path: str | None, overrides: list[str]) -> cfg.Scenario:
    data: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise CliError("io", f"cannot read scenario file: {exc}", 2)
        except json.JSONDecodeError as exc:
            raise CliError("io", f"scenario file is not valid JSON: {exc}", 2)
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


def _require_valid(scenario: cfg.Scenario) -> None:
    violations = cfg.validate(scenario)
    if violations:
        raise CliError("validation", violations, 2)


@dataclass
class Channel:
    """One scenario traced once, with the detected atoms all its outputs read."""

    scenario: cfg.Scenario
    layout: geo.ArrayLayout
    media: Media
    h0: np.ndarray  # launch heights
    paths: geo.RayBatch
    focus: geo.FocusReport
    detected: ch.Atoms

    @cached_property
    def gamma(self) -> float | None:
        """The cumulative focusing ratio in aggregate mode, else None.

        Worked out on first use: a degenerate focus fails only CIR outputs.
        """
        if self.scenario.gamma_mode != "aggregate":
            return None
        return ch.cumulative_gamma(self.focus)

    def cir(self, key: str) -> ch.ImpulseResponse:
        """The CIR binned at the scenario's key, cir_dt_fs or waveform_dt_fs."""
        try:
            return ch.build_cir(self.detected, len(self.paths),
                                getattr(self.scenario, key) * 1e-15, self.gamma)
        except ch.BinOverflow as exc:
            raise CliError("validation", [f"{key}: {exc}"], 2)


def _channel(scenario: cfg.Scenario) -> Channel:
    layout = scenario.build_layout()
    media = scenario.build_media()
    h0 = geo.collimated_bundle(layout.shape, scenario.k_rays)
    paths, focus = geo.trace_array(layout, media, h0)
    detected, _ = ch.contributions(paths, media, scenario.detector_width_um)
    return Channel(scenario, layout, media, h0, paths, focus, detected)


def _base_report(chan: Channel, cir: ch.ImpulseResponse | None = None) -> dict:
    """The report fields of every traced command; cir is chan's CIR at cir_dt_fs."""
    report = {
        "scenario": chan.scenario.to_dict(),
        "path_loss_db": total_path_loss(chan.layout, chan.media),
        "counts": {status: int(np.count_nonzero(chan.paths.status == status))
                   for status in ("arrived", "leaked", "deviated")},
        "files": [],
    }
    if chan.detected:
        # Python's sum, in ray order: the report's bytes depend on it.
        report["total_received_fraction"] = \
            sum(chan.detected.gain.tolist()) / len(chan.paths)
        if cir is None:
            cir = chan.cir("cir_dt_fs")
        report["dominant_delay_s"] = cir.dominant_bin()[0]
    else:
        report["total_received_fraction"] = 0.0
        report["dominant_delay_s"] = None
    return report


def cmd_trace(scenario: cfg.Scenario, out: Path) -> dict:
    chan = _channel(scenario)
    paths, focus = chan.paths, chan.focus
    # Before any file is written: a degenerate focus fails the whole run.
    report = _base_report(chan)
    rays_csv = out / "rays.csv"
    loss = paths.loss_cell
    ch.write_csv(
        rays_csv,
        ["ray_index", "status", "loss_cell", "h0_um", "exit_x_um",
         "exit_h_um", "exit_theta_rad", "cell_path_um", "tissue_path_um"],
        "%d,%s,%s" + ",%.12e" * 6,
        [paths.ray_index, paths.status, np.where(loss < 0, "", loss.astype(str)),
         chan.h0, paths.exit_x, paths.exit_h, paths.exit_theta,
         paths.cell_length, paths.tissue_length],
    )
    focus_csv = out / "focus_report.csv"
    ch.write_csv(
        focus_csv,
        ["cell_index", "theta_f_rad", "x_f_um", "illumination_radius_um"],
        "%d,%s,%s,%.12e",
        [[c.cell_index for c in focus.cells],
         ["" if c.theta_f is None else _fmt(c.theta_f) for c in focus.cells],
         ["" if c.x_f is None else _fmt(c.x_f) for c in focus.cells],
         [c.illumination_radius for c in focus.cells]],
    )
    report["source_radius_um"] = focus.source_radius
    report["detector_radius_um"] = None if math.isnan(focus.detector_radius) \
        else focus.detector_radius
    report["files"] = [rays_csv.name, focus_csv.name]
    return report


def center_line_profile(layout: geo.ArrayLayout) -> tuple[np.ndarray, ...]:
    """Distance along the axial ray and the cell and tissue distances so far.

    One row at the source, then the samples of geo.center_line's stretches.
    """
    distance, cell_um, tissue_um = [np.zeros(1)], [np.zeros(1)], [np.zeros(1)]
    pos = 0.0
    done = {"cell": 0.0, "tissue": 0.0}  # per-medium distance before the segment
    for length, tag, samples in geo.center_line(layout):
        frac = np.minimum(np.arange(1, samples + 1) * 1.0, length)
        distance.append(pos + frac)
        for medium, column in (("cell", cell_um), ("tissue", tissue_um)):
            column.append(done[medium] + (frac if medium == tag else np.zeros_like(frac)))
        done[tag] += length
        pos += length
    return tuple(map(np.concatenate, (distance, cell_um, tissue_um)))


def cmd_pathloss(scenario: cfg.Scenario, out: Path) -> dict:
    layout = scenario.build_layout()
    media = scenario.build_media()
    # Cumulative center-line loss profile, each DPF on the running
    # per-medium total.
    distance, cell_um, tissue_um = center_line_profile(layout)
    pathloss = DB_PER_NEPER * (absorbance(media.cell, cell_um / UM_PER_MM)
                               + absorbance(media.tissue, tissue_um / UM_PER_MM))

    curve_csv = out / "pathloss_curve.csv"
    report = {  # before the curve is written: total_path_loss can raise BeyondPole
        "scenario": scenario.to_dict(),
        "path_loss_db": total_path_loss(layout, media),
        # The value as written to the curve's last row.
        "center_line_path_loss_db": float(_fmt(pathloss[-1])),
        "files": [curve_csv.name],
    }
    ch.write_csv(curve_csv, ["distance_um", "pathloss_db"], "%.12e,%.12e",
                 [distance, pathloss])
    return report


def cmd_cir(scenario: cfg.Scenario, out: Path) -> dict:
    chan = _channel(scenario)
    cir = chan.cir("cir_dt_fs")
    pdp = ch.power_delay_profile(cir)
    report = _base_report(chan, cir)  # before any file is written
    cir_csv, pdp_csv = out / "cir.csv", out / "pdp.csv"
    ch.write_cir_csv(cir, cir_csv)
    ch.write_pdp_csv(pdp, pdp_csv)
    report["total_gain"] = cir.total_gain()
    report["files"] = [cir_csv.name, pdp_csv.name]
    return report


def cmd_pulse(scenario: cfg.Scenario, out: Path) -> dict:
    tau, dt, span = scenario.pulse_grid_s()
    tx = sig.gaussian_pulse(scenario.e0, tau, scenario.build_wavelength(), dt, span_s=span)
    chan = _channel(scenario)
    cir = chan.cir("waveform_dt_fs")
    rx = sig.propagate(tx, cir)
    dominant_delay, _ = cir.dominant_bin()
    summary = sig.received_pulse(tx, dominant_delay,
                                 1.0 if chan.gamma is None else chan.gamma,
                                 cir.total_gain())
    report = _base_report(chan)  # before any file is written
    files = []
    for name, wave in (("tx.csv", tx), ("rx.csv", rx), ("rx_summary.csv", summary)):
        sig.write_waveform_csv(wave, out / name)
        files.append(name)
    tx_spectrum, rx_spectrum = sig.spectrum(tx), sig.spectrum(rx)
    for name, spec in (("tx_spectrum.csv", tx_spectrum), ("rx_spectrum.csv", rx_spectrum)):
        sig.write_spectrum_csv(spec, out / name)
        files.append(name)
    report["tx_peak_power"] = float(sig.envelope(tx).max() ** 2)
    report["rx_summary_peak_power"] = float(sig.envelope(summary).max() ** 2)
    report["tx_peak_frequency_hz"] = tx_spectrum.peak_frequency()
    report["rx_peak_frequency_hz"] = rx_spectrum.peak_frequency()
    report["files"] = files
    return report


def cmd_detector(scenario: cfg.Scenario, out: Path) -> dict:
    chan = _channel(scenario)
    report = _base_report(chan)  # before the map is written, as in cmd_trace
    dmap = ch.detector_map(chan.detected)
    det_csv = out / "detector_map.csv"
    ch.write_detector_csv(dmap, det_csv)
    report["detected_rays"] = len(dmap.samples)
    if len(dmap.samples):
        best = int(np.argmax(dmap.samples[:, 1]))
        report["max_power_coordinate_um"] = float(dmap.samples[best, 0])
    report["files"] = [det_csv.name]
    return report


def cmd_sweep(scenario: cfg.Scenario, out: Path) -> dict:
    if scenario.sweep is None:
        raise CliError("validation", ["sweep: command needs a sweep block"], 2)
    param = scenario.sweep["parameter"]
    values = cfg.sweep_values(scenario)
    # Compute everything first; nothing is written if any point fails.
    results = []
    for value in values:
        point = replace(scenario, sweep=None, **{param: cfg.SCHEMA[param].coerce(value)})
        _require_valid(point)
        chan = _channel(point)
        cir = chan.cir("cir_dt_fs")
        report = _base_report(chan, cir)
        counts = report["counts"]
        results.append((cir, (float(value), report["dominant_delay_s"], cir.total_gain(),
                              report["path_loss_db"], counts["leaked"], counts["deviated"])))

    files = []
    for i, (cir, _) in enumerate(results):
        name = f"cir_{i:03d}.csv"
        ch.write_cir_csv(cir, out / name)
        files.append(name)
    summary_csv = out / "sweep_summary.csv"
    header = [param, "dominant_delay_s", "total_gain", "pathloss_db", "leaked", "deviated"]
    ch.write_csv(summary_csv, header, "%.12e,%.12e,%.12e,%.12e,%d,%d",
                 [[row[j] for _, row in results] for j in range(len(header))])
    files.append(summary_csv.name)
    return {"scenario": scenario.to_dict(), "sweep_parameter": param,
            "points": len(values), "files": files}


def run(command: str, scenario: cfg.Scenario, out: Path) -> dict:
    _require_valid(scenario)
    out.mkdir(parents=True, exist_ok=True)
    handler = {
        "trace": cmd_trace,
        "pathloss": cmd_pathloss,
        "cir": cmd_cir,
        "pulse": cmd_pulse,
        "detector": cmd_detector,
        "sweep": cmd_sweep,
    }[command]
    try:
        report = handler(scenario, out)
    except (ch.EmptyChannel, ch.DegenerateFocus, sig.IllConditioned,
            sig.UnderResolved, BeyondPole) as exc:
        raise CliError("physics", f"{type(exc).__name__}: {exc}", 3)
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def main(argv: list[str] | None = None) -> int:
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
    args = parser.parse_args(argv)

    try:
        scenario = load_scenario(args.scenario, args.overrides)
        if args.command == "validate":
            violations = cfg.validate(scenario)
            print(json.dumps({"violations": violations}, indent=2))
            if violations:
                raise CliError("validation", violations, 2)
            return 0
        report = run(args.command, scenario, Path(args.out))
    except CliError as exc:
        record = {"error": exc.kind, "detail": exc.detail}
        print(json.dumps(record, indent=2), file=sys.stderr)
        return exc.exit_code
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
