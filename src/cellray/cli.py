"""Scenario-driven command line front end.

Commands (via --command): trace, pathloss, cir, pulse, detector, sweep,
validate.  Identical scenario files produce byte-identical output files;
there is no hidden randomness anywhere in the pipeline.

Exit codes: 0 success, 2 validation or input error, 3 physics error (for
example an empty channel).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import channel as ch
from . import config as cfg
from . import geometry as geo
from . import signal as sig
from .optics import DB_PER_NEPER, UM_PER_MM, absorbance, total_path_loss

COMMANDS = ("trace", "pathloss", "cir", "pulse", "detector", "sweep", "validate")


class CliError(Exception):
    def __init__(self, kind: str, detail, exit_code: int):
        super().__init__(detail)
        self.kind = kind
        self.detail = detail
        self.exit_code = exit_code


def _fmt(value: float) -> str:
    return f"{value:.12e}"


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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


def _trace(scenario: cfg.Scenario):
    layout = scenario.build_layout()
    media = scenario.build_media()
    bundle = geo.collimated_bundle(layout.shape, scenario.k_rays)
    paths, report = geo.trace_array(layout, media, bundle)
    return layout, media, bundle, paths, report


def _status_counts(paths: geo.RayBatch) -> dict:
    return {status: int(np.count_nonzero(paths.status == status))
            for status in ("arrived", "leaked", "deviated")}


def _aggregate_gamma(scenario: cfg.Scenario, focus) -> float | None:
    if scenario.gamma_mode != "aggregate":
        return None
    return ch.cumulative_gamma(focus)


def _base_report(scenario: cfg.Scenario, paths, media, focus) -> dict:
    lam = scenario.build_wavelength()
    layout = scenario.build_layout()
    detected, _ = ch.contributions(paths, media, lam, scenario.detector_width_um)
    report = {
        "scenario": scenario.to_dict(),
        "path_loss_db": total_path_loss(layout, media, lam),
        "counts": _status_counts(paths),
        "files": [],
    }
    if detected:
        k = len(paths)
        report["total_received_fraction"] = sum(c.gain for c in detected) / k
        cir = ch.build_cir(paths, media, lam, scenario.cir_dt_fs * 1e-15,
                           scenario.gamma_mode, scenario.detector_width_um,
                           _aggregate_gamma(scenario, focus))
        report["dominant_delay_s"] = cir.dominant_bin()[0]
    else:
        report["total_received_fraction"] = 0.0
        report["dominant_delay_s"] = None
    return report


def cmd_trace(scenario: cfg.Scenario, out: Path) -> dict:
    layout, media, bundle, paths, focus = _trace(scenario)
    rays_csv = out / "rays.csv"
    _write_csv(
        rays_csv,
        ["ray_index", "status", "loss_cell", "h0_um", "exit_x_um",
         "exit_h_um", "exit_theta_rad", "cell_path_um", "tissue_path_um"],
        [
            [i, status, "" if loss < 0 else loss, _fmt(bundle[i].h), _fmt(x), _fmt(h),
             _fmt(theta), _fmt(cell), _fmt(tissue)]
            for i, status, loss, x, h, theta, cell, tissue in zip(
                paths.ray_index.tolist(), paths.status.tolist(),
                paths.loss_cell.tolist(), paths.exit_x.tolist(),
                paths.exit_h.tolist(), paths.exit_theta.tolist(),
                paths.cell_length.tolist(), paths.tissue_length.tolist())
        ],
    )
    focus_csv = out / "focus_report.csv"
    _write_csv(
        focus_csv,
        ["cell_index", "theta_f_rad", "x_f_um", "illumination_radius_um"],
        [
            [c.cell_index,
             "" if c.theta_f is None else _fmt(c.theta_f),
             "" if c.x_f is None else _fmt(c.x_f),
             _fmt(c.illumination_radius)]
            for c in focus.cells
        ],
    )
    report = _base_report(scenario, paths, media, focus)
    report["source_radius_um"] = focus.source_radius
    report["detector_radius_um"] = None if math.isnan(focus.detector_radius) \
        else focus.detector_radius
    report["files"] = [rays_csv.name, focus_csv.name]
    return report


def cmd_pathloss(scenario: cfg.Scenario, out: Path) -> dict:
    layout = scenario.build_layout()
    media = scenario.build_media()
    # Cumulative center-line loss profile: walk the axial ray and account
    # per-medium distances, each DPF on the running per-medium total.  The
    # center line enters the shape pad/2 past the entry vertex when the
    # mid-height chord is shorter than the axial extent (pyramidal cells).
    chord = layout.shape.chord_at(0.0)
    pad = layout.shape.axial_extent - chord
    boundaries: list[tuple[float, str]] = []
    cursor = 0.0
    for i in range(layout.n_cells):
        entry = layout.cell_entry_x(i)
        boundaries.append((entry + 0.5 * pad - cursor, "tissue"))
        boundaries.append((chord, "cell"))
        cursor = entry + 0.5 * pad + chord
    boundaries.append((layout.total_length - cursor, "tissue"))

    rows = []
    pos = 0.0
    d_cell = 0.0
    d_tissue = 0.0
    step = 1.0  # um sampling
    rows.append(["0.000000000000e+00", _fmt(0.0)])
    for length, tag in boundaries:
        if length <= 0.0:
            continue
        n_steps = max(int(math.ceil(length / step)), 1)
        for k in range(1, n_steps + 1):
            frac = min(k * step, length)
            dc = d_cell + (frac if tag == "cell" else 0.0)
            dtis = d_tissue + (frac if tag == "tissue" else 0.0)
            loss = DB_PER_NEPER * (absorbance(media.cell, dc / UM_PER_MM)
                                   + absorbance(media.tissue, dtis / UM_PER_MM))
            rows.append([_fmt(pos + frac), _fmt(loss)])
            if frac >= length:
                break
        if tag == "cell":
            d_cell += length
        else:
            d_tissue += length
        pos += length

    curve_csv = out / "pathloss_curve.csv"
    _write_csv(curve_csv, ["distance_um", "pathloss_db"], rows)
    lam = scenario.build_wavelength()
    report = {
        "scenario": scenario.to_dict(),
        "path_loss_db": total_path_loss(layout, media, lam),
        "center_line_path_loss_db": float(rows[-1][1]),
        "files": [curve_csv.name],
    }
    return report


def cmd_cir(scenario: cfg.Scenario, out: Path) -> dict:
    layout, media, bundle, paths, focus = _trace(scenario)
    lam = scenario.build_wavelength()
    gamma = None
    if scenario.gamma_mode == "aggregate":
        gamma = ch.cumulative_gamma(focus)
    cir = ch.build_cir(paths, media, lam, scenario.cir_dt_fs * 1e-15,
                       scenario.gamma_mode, scenario.detector_width_um, gamma)
    pdp = ch.power_delay_profile(cir)
    cir_csv, pdp_csv = out / "cir.csv", out / "pdp.csv"
    ch.write_cir_csv(cir, cir_csv)
    ch.write_pdp_csv(pdp, pdp_csv)
    report = _base_report(scenario, paths, media, focus)
    report["total_gain"] = cir.total_gain()
    report["files"] = [cir_csv.name, pdp_csv.name]
    return report


def cmd_pulse(scenario: cfg.Scenario, out: Path) -> dict:
    layout, media, bundle, paths, focus = _trace(scenario)
    lam = scenario.build_wavelength()
    tau = scenario.tau_fs * 1e-15
    dt = scenario.waveform_dt_fs * 1e-15
    tx = sig.gaussian_pulse(scenario.e0, tau, lam, dt, span_s=8.0 * tau)
    gamma = None
    if scenario.gamma_mode == "aggregate":
        gamma = ch.cumulative_gamma(focus)
    cir = ch.build_cir(paths, media, lam, dt, scenario.gamma_mode,
                       scenario.detector_width_um, gamma)
    rx = sig.propagate(tx, cir)
    dominant_delay, _ = cir.dominant_bin()
    summary = sig.received_pulse(tx, dominant_delay,
                                 1.0 if gamma is None else gamma,
                                 cir.total_gain())
    files = []
    for name, wave in (("tx.csv", tx), ("rx.csv", rx), ("rx_summary.csv", summary)):
        sig.write_waveform_csv(wave, out / name)
        files.append(name)
    for name, wave in (("tx_spectrum.csv", tx), ("rx_spectrum.csv", rx)):
        sig.write_spectrum_csv(sig.spectrum(wave), out / name)
        files.append(name)
    report = _base_report(scenario, paths, media, focus)
    report["tx_peak_power"] = float(max(sig.envelope(tx)) ** 2)
    report["rx_summary_peak_power"] = float(max(sig.envelope(summary)) ** 2)
    report["tx_peak_frequency_hz"] = sig.spectrum(tx).peak_frequency()
    report["rx_peak_frequency_hz"] = sig.spectrum(rx).peak_frequency()
    report["files"] = files
    return report


def cmd_detector(scenario: cfg.Scenario, out: Path) -> dict:
    layout, media, bundle, paths, focus = _trace(scenario)
    lam = scenario.build_wavelength()
    dmap = ch.detector_map(paths, media, lam, scenario.detector_width_um)
    det_csv = out / "detector_map.csv"
    ch.write_detector_csv(dmap, det_csv)
    report = _base_report(scenario, paths, media, focus)
    report["detected_rays"] = len(dmap.samples)
    if dmap.samples:
        best = max(dmap.samples, key=lambda s: s[1])
        report["max_power_coordinate_um"] = best[0]
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
        if param in cfg.INTEGER_KEYS:
            value = int(value)
        point = replace(scenario, sweep=None, **{param: value})
        _require_valid(point)
        layout, media, bundle, paths, focus = _trace(point)
        lam = point.build_wavelength()
        gamma = None
        if point.gamma_mode == "aggregate":
            gamma = ch.cumulative_gamma(focus)
        cir = ch.build_cir(paths, media, lam, point.cir_dt_fs * 1e-15,
                           point.gamma_mode, point.detector_width_um, gamma)
        results.append((value, cir, total_path_loss(layout, media, lam),
                        _status_counts(paths)))

    files = []
    summary_rows = []
    for i, (value, cir, ploss, counts) in enumerate(results):
        name = f"cir_{i:03d}.csv"
        ch.write_cir_csv(cir, out / name)
        files.append(name)
        summary_rows.append([_fmt(float(value)), _fmt(cir.dominant_bin()[0]),
                             _fmt(cir.total_gain()), _fmt(ploss),
                             counts["leaked"], counts["deviated"]])
    summary_csv = out / "sweep_summary.csv"
    _write_csv(summary_csv,
               [param, "dominant_delay_s", "total_gain", "pathloss_db",
                "leaked", "deviated"],
               summary_rows)
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
            sig.UnderResolved) as exc:
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
