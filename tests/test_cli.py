import contextlib
import csv
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from collections import Counter
from dataclasses import FrozenInstanceError, asdict, fields, replace
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cellray.channel as ch
import cellray.cli as cli
import cellray.config as cfg
import cellray.geometry as geo
import cellray.signal as sig
import channel_oracle as oracle
from cellray.cli import _sum_in_order, center_line_profile, load_scenario, main
from cellray.config import (
    SCHEMA,
    Scenario,
    ray_cells,
    scenario_from_dict,
    sweep_points,
    sweep_values,
    trace_groups,
    validate,
)
from cellray.geometry import (
    ArrayLayout,
    Fusiform,
    Pyramidal,
    Spherical,
    collimated_bundle,
    trace_array,
)
from cellray.optics import Wavelength
from cellray.signal import UnderResolved, gaussian_pulse

FLOAT_KEYS = [f.name for f in fields(Scenario) if "float" in f.type]


def group_indices(runs: list[Scenario]) -> list[list[int]]:
    """The run indices of each of the runs' trace groups."""
    return [indices for indices, _, _, _ in trace_groups(runs)]


class TestScenarioConfig:
    def test_default_is_valid(self):
        for shape in ("fusiform", "spherical", "pyramidal"):
            assert validate(Scenario(shape=shape)) == []

    def test_negative_gap_names_field(self):
        sc = Scenario()
        sc.d_l_um = -1.0
        violations = validate(sc)
        assert len(violations) == 1 and violations[0].startswith("d_l_um")

    def test_fusiform_wide_lens_flagged(self):
        sc = Scenario(shape="fusiform")
        sc.w_c_um = 40.0
        assert any(v.startswith("w_c_um") for v in validate(sc))

    def test_detector_gap_must_fit(self):
        sc = Scenario()
        sc.n_cells = 50  # 50 cells at 25 um pitch cannot fit in 450 um
        assert any("detector gap" in v for v in validate(sc))

    def test_round_trip(self):
        sc = Scenario(shape="spherical")
        again = scenario_from_dict(json.loads(json.dumps(asdict(sc))))
        assert again == sc

    @pytest.mark.parametrize("sweep", [
        None,
        {"parameter": "n_cells", "start": 1, "stop": 18},
        {"parameter": "d_l_um", "values": [1.0, 5.0, 3.0]},
    ])
    def test_asdict_round_trips(self, sweep):
        sc = replace(Scenario(shape="pyramidal"), k_rays=301, sweep=sweep)
        assert scenario_from_dict(json.loads(json.dumps(asdict(sc)))) == sc

    def test_asdict_copies_the_sweep(self):
        sc = replace(Scenario(), sweep={"parameter": "d_l_um", "values": [1.0, 5.0]})
        data = asdict(sc)
        data["sweep"]["values"].append(9.0)
        data["sweep"]["parameter"] = "n_cells"
        data["sweep"]["start"] = 1
        assert sc.sweep == {"parameter": "d_l_um", "values": [1.0, 5.0]}
        assert asdict(sc)["sweep"] == sc.sweep

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            scenario_from_dict({"dl_um": 5.0})

    @pytest.mark.parametrize("call, message", [
        (lambda: Scenario(d_R_um=None, total_um=None).detector_gap_um(),
         "either d_R_um or total_um must be set"),
        (lambda: Scenario(shape="hexagonal").build_shape(), "unknown shape 'hexagonal'"),
    ], ids=["detector-gap-of-no-gap", "build-unknown-shape"])
    def test_scenario_input_checks(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_derived_detector_gap(self):
        sc = Scenario()
        assert sc.detector_gap_um() == pytest.approx(0.0)
        sc.n_cells = 10
        assert sc.detector_gap_um() == pytest.approx(450 - 5 - 10 * 20 - 9 * 5)

    def test_sweep_values(self):
        sc = Scenario()
        sc.sweep = {"parameter": "n_cells", "start": 1, "stop": 4}
        assert sweep_values(sc) == [1, 2, 3, 4]
        sc.sweep = {"parameter": "d_l_um", "values": [2.0, 5.0]}
        assert sweep_values(sc) == [2.0, 5.0]

    def test_sweep_grid_by_index(self):
        sc = Scenario()
        sc.sweep = {"parameter": "d_l_um", "start": 0.0, "stop": 1.0, "step": 0.1}
        grid = sweep_values(sc)
        # Adding 0.1 repeatedly gives 0.7999999999999999 and 0.9999999999999999.
        assert len(grid) == 11 and grid[-1] == 1.0
        assert grid == [i * 0.1 for i in range(11)]
        # The n_cells=1..18 shorthand keeps the points repeated addition gave.
        sc.sweep = {"parameter": "n_cells", "start": 1.0, "stop": 18.0}
        added, x = [], 1.0
        while x <= 18.0 + 1e-12:
            added.append(x)
            x += 1
        assert sweep_values(sc) == added == [float(n) for n in range(1, 19)]

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_floats_rejected(self, key):
        for value in (math.nan, math.inf, -math.inf, True, "5"):
            violations = validate(scenario_from_dict({key: value}))
            assert [v for v in violations if v.startswith(key)], (key, value)

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_real_keys_read_in_canonical_form(self, key):
        value = getattr(scenario_from_dict({key: 3}), key)
        assert value == 3.0 and type(value) is float
        assert math.copysign(1.0, getattr(scenario_from_dict({key: -0.0}), key)) == 1.0
        huge = scenario_from_dict({key: 10**400})
        assert getattr(huge, key) == 10**400
        assert [v for v in validate(huge) if v.startswith(key)]
        assert [v for v in validate(scenario_from_dict({key: True})) if v.startswith(key)]

    @pytest.mark.parametrize("key", ["k_rays", "n_cells"])
    def test_integer_keys_need_integers(self, key):
        for value in (True, False, 2.5, math.nan, math.inf, "3", None):
            violations = validate(scenario_from_dict({key: value}))
            assert [v for v in violations if v.startswith(key)], (key, value)
        assert scenario_from_dict({key: 3.0}) == scenario_from_dict({key: 3})

    def test_sweep_grid_checked(self):
        # Through validate only: sweep_values never ends on a step <= 0.
        for grid in ({"start": 1, "stop": 4, "step": 0},
                     {"start": 1, "stop": 4, "step": -1},
                     {"start": 1, "stop": 4, "step": math.nan},
                     {"start": 1, "stop": math.inf},
                     {"values": [1.0, math.nan]},
                     {"start": 1, "stop": 3, "stepp": 2},  # ran at step 1
                     {"values": [1, 2], "start": 1, "stop": 3}):  # ran the values
            sc = Scenario()
            sc.sweep = {"parameter": "n_cells", **grid}
            assert [v for v in validate(sc) if v.startswith("sweep")], grid

    @pytest.mark.parametrize("param", ["n_cells", "k_rays"])
    def test_integer_sweep_needs_whole_points(self, param):
        for grid in ({"values": [1.5, 2.7]}, {"values": [2, 3.5]},
                     {"start": 1, "stop": 4, "step": 0.5},
                     {"start": 1.5, "stop": 4}):
            sc = Scenario()
            sc.sweep = {"parameter": param, **grid}
            assert [v for v in validate(sc) if v.startswith(f"sweep: {param}")], grid
        for grid in ({"values": [1.0, 3]}, {"start": 1.0, "stop": 4.5, "step": 2.0}):
            sc = Scenario()
            sc.sweep = {"parameter": param, **grid}
            assert validate(sc) == [], grid

    def test_empty_sweep_grid_rejected(self):
        # The check agrees with sweep_values at its inclusion edge: 1e-12
        # times the larger of |start| and |stop| past stop.
        for grid, points in (({"values": []}, 0), ({"start": 5, "stop": 1}, 0),
                             ({"start": 1.0, "stop": 1.0 - 2e-12}, 0),
                             ({"start": 1.0, "stop": 1.0 - 5e-13}, 1),
                             ({"start": 5, "stop": 5}, 1),
                             # An absolute 1e-12 ran this grid to 1.1e-12, 111 points.
                             ({"start": 0, "stop": 1e-13, "step": 1e-14}, 11)):
            sc = Scenario()
            sc.sweep = {"parameter": "d_l_um", **grid}
            assert len(sweep_values(sc)) == points, grid
            named = [v for v in validate(sc) if v.startswith("sweep") and "d_l_um" in v]
            assert bool(named) == (points == 0), grid

    def test_sweep_trace_groups_and_charge(self):
        sc = Scenario()
        sc.k_rays = 301
        sc.sweep = {"parameter": "n_cells", "start": 1, "stop": 18}
        points = sweep_points(sc)
        assert [p.n_cells for p in points] == list(range(1, 19))
        assert group_indices(points) == [list(range(18))]
        # The battery's sweep: one trace through 18 cells, 17 more detector legs.
        assert ray_cells(trace_groups(points)) == 1000 * (18 + 17)
        sc.sweep = {"parameter": "d_l_um", "values": [1.0, 3.0, 1.0]}
        points = sweep_points(sc)
        assert group_indices(points) == [[0, 2], [1]]
        assert ray_cells(trace_groups(points)) == 1000 * 19 + 1000 * 18
        sc.sweep = {"parameter": "total_um", "values": [450.0, 500.0]}
        assert group_indices(sweep_points(sc)) == [[0, 1]]
        # Real keys are read as floats, -0.0 as 0.0: equal spellings share.
        sc.sweep = {"parameter": "h_c_um", "values": [30, 30.0]}
        assert group_indices(sweep_points(sc)) == [[0, 1]]
        sc.sweep = {"parameter": "d_E_um", "values": [0.0, -0.0]}
        assert group_indices(sweep_points(sc)) == [[0, 1]]
        # A spherical cell reads no h_c_um.
        sc = replace(Scenario(shape="spherical"), k_rays=301,
                     sweep={"parameter": "h_c_um", "values": [30.0, 40.0, 50.0]})
        assert group_indices(sweep_points(sc)) == [[0, 1, 2]]

    def test_sweep_over_the_ray_cell_cap_names_sweep(self):
        sc = Scenario()
        sc.k_rays = 10_000
        sc.sweep = {"parameter": "d_l_um", "values": [1.0, 2.0]}
        points = sweep_points(sc)
        assert ray_cells(trace_groups(points)) == 2 * 10_000 * 18
        assert validate(sc) == []
        sc.sweep["values"] = [1.0, 2.0] * 7  # 2 traces, 7 legs each
        assert validate(sc) == []
        # From 5.5 um on, 18 cells do not fit 450 um: the first such point fails.
        sc.sweep["values"] = [0.5 * i for i in range(14)]
        assert [v.split(":")[0] for v in validate(sc)] == ["d_R_um"]
        sc.sweep["values"] = [0.25 * i for i in range(14)]  # 14 traces, all fit
        assert [v.split(":")[0] for v in validate(sc)] == ["sweep"]

    def test_sweep_charges_its_points_not_its_base(self):
        # The base's 200,000 rays through 18 cells are over the cap; the run
        # traces only the points, 200,000 rays through 2 cells and one leg.
        sc = replace(Scenario(), k_rays=200_000,
                     sweep={"parameter": "n_cells", "start": 1, "stop": 2})
        points = sweep_points(sc)
        assert ray_cells(trace_groups(points)) == 600_000
        assert validate(sc) == []

    @pytest.mark.parametrize("shape, k_rays, n_cells", [
        ("fusiform", 1001, 18), ("fusiform", 1, 0), ("pyramidal", 20_001, 1),
        ("spherical", 301, 5), ("fusiform", 200_000, 18)])
    def test_lone_run_charge(self, shape, k_rays, n_cells):
        sc = replace(Scenario(shape=shape), k_rays=k_rays, n_cells=n_cells, d_R_um=5.0)
        assert ray_cells(trace_groups([sc])) == max(k_rays, 1000) * max(n_cells, 1)

    def test_broken_grid_reported_alone(self):
        # No point can be built from an empty grid, so the base's gap is not judged.
        sc = replace(Scenario(), d_l_um=-3.0,
                     sweep={"parameter": "n_cells", "start": 3, "stop": 1})
        assert validate(sc) == ["sweep: the n_cells grid has no points"]

    def test_integer_sweep_point_read_as_an_integer(self):
        # Validate judges no point's types, so the grid admits only values
        # that read as integers; a whole Fraction stays a Fraction.
        sc = replace(Scenario(), sweep={"parameter": "n_cells",
                                                "values": [Fraction(3)]})
        assert validate(sc) == ["sweep: n_cells takes whole numbers, got Fraction(3, 1)"]

    @pytest.mark.parametrize("param", sorted(k for k, rule in SCHEMA.items() if rule.pulse))
    def test_pulse_key_sweep_rejected(self, param):
        sc = Scenario()
        sc.sweep = {"parameter": param, "values": [0.01, 0.02]}
        assert [v for v in validate(sc) if v.startswith("sweep") and param in v]

    @given(st.floats(1.0, 60.0), st.floats(0.1, 1.0), st.integers(0, 30),
           st.floats(0.0, 20.0))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, h, frac, n, gap):
        sc = Scenario(shape="fusiform")
        sc.h_c_um, sc.w_c_um = h, h * frac
        sc.n_cells, sc.d_l_um = n, gap
        sc.total_um, sc.d_R_um = None, 12.5
        assert scenario_from_dict(json.loads(json.dumps(asdict(sc)))) == sc


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def default_gamma_k101() -> float:
    """The default scenario's cumulative focusing ratio at k_rays = 101."""
    scenario = replace(Scenario(), k_rays=101)
    layout = scenario.build_layout()
    _, focus = trace_array(layout, scenario.build_media(),
                           collimated_bundle(layout.shape, 101))
    gamma = ch.cumulative_gamma(focus)
    assert gamma != pytest.approx(1.0)
    return gamma


class TestCliCommands:
    def test_validate_default_ok(self, capsys):
        assert main(["--command", "validate"]) == 0
        assert json.loads(capsys.readouterr().out) == {"violations": []}

    def test_validate_bad_exit_code(self, capsys):
        code = main(["--command", "validate", "--set", "d_l_um=-3"])
        assert code == 2

    def test_invalid_config_machine_readable(self, tmp_path, capsys):
        code = main(["--command", "cir", "--out", str(tmp_path),
                     "--set", "w_c_um=99"])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "validation"
        assert any("w_c_um" in v for v in record["detail"])

    @pytest.mark.parametrize("override", ["d_l_um=NaN", "n_cell=NaN",
                                          "mu_a_cell_per_mm=Infinity",
                                          "k_rays=true", "n_cells=2.5"])
    def test_non_finite_or_mistyped_exit_code(self, tmp_path, capsys, override):
        code = main(["--command", "cir", "--out", str(tmp_path), "--set", override])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "validation"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("grid", ["n_cells=1..x", "d_l_um=2,five", "n_cells"])
    def test_sweep_shorthand_needs_numbers(self, tmp_path, capsys, grid):
        code = main(["--command", "sweep", "--out", str(tmp_path),
                     "--set", f"sweep={grid}"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "usage"

    def test_missing_scenario_file(self, tmp_path, capsys):
        code = main(["--command", "cir", "--scenario", "/nonexistent.json",
                     "--out", str(tmp_path)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "io"

    def test_empty_channel_exit_code(self, tmp_path, capsys):
        # Even ray count: the midpoint bundle has no ray on the axis, so a
        # sub-spacing detector catches nothing.
        code = main(["--command", "cir", "--out", str(tmp_path),
                     "--set", "n_cells=0", "--set", "k_rays=10",
                     "--set", "detector_width_um=0.001"])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "physics"

    def test_free_space_cir_single_spike(self, tmp_path, capsys):
        code = main(["--command", "cir", "--out", str(tmp_path),
                     "--set", "n_cells=0", "--set", "k_rays=51"])
        assert code == 0
        rows = read_csv(tmp_path / "cir.csv")
        assert rows[0] == ["time_s", "amplitude"]
        nonzero = [r for r in rows[1:] if float(r[1]) != 0.0]
        assert len(nonzero) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["counts"]["arrived"] == 51

    def test_scenario_file_and_overrides(self, tmp_path, capsys):
        scenario = asdict(Scenario(shape="spherical"))
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "out"
        code = main(["--command", "trace", "--scenario", str(path),
                     "--out", str(out), "--set", "k_rays=51"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["scenario"]["k_rays"] == 51
        assert (out / "rays.csv").exists() and (out / "focus_report.csv").exists()

    def test_reproducible_outputs(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["--command", "cir", "--out", str(out),
                         "--set", "k_rays=101"]) == 0
        assert (out1 / "cir.csv").read_bytes() == (out2 / "cir.csv").read_bytes()
        assert (out1 / "pdp.csv").read_bytes() == (out2 / "pdp.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_pathloss_curve(self, tmp_path, capsys):
        code = main(["--command", "pathloss", "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "pathloss_curve.csv")
        assert rows[0] == ["distance_um", "pathloss_db"]
        dist = [float(r[0]) for r in rows[1:]]
        loss = [float(r[1]) for r in rows[1:]]
        assert dist[0] == 0.0 and dist[-1] == pytest.approx(450.0)
        assert loss == sorted(loss)  # attenuation only accumulates

    def test_pulse_outputs(self, tmp_path, capsys):
        code = main(["--command", "pulse", "--out", str(tmp_path),
                     "--set", "k_rays=101"])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        for name in ("tx.csv", "rx.csv", "rx_summary.csv",
                     "tx_spectrum.csv", "rx_spectrum.csv"):
            assert (tmp_path / name).exists()
        assert report["tx_peak_frequency_hz"] > 0

    def test_detector_outputs(self, tmp_path, capsys):
        code = main(["--command", "detector", "--out", str(tmp_path),
                     "--set", "shape=\"pyramidal\"", "--set", "k_rays=201"])
        assert code == 0
        rows = read_csv(tmp_path / "detector_map.csv")
        assert rows[0] == ["coordinate_um", "power_norm", "delay_s"]
        assert len(rows) > 1

    def test_sweep_monotone_dominant_delay(self, tmp_path, capsys):
        code = main(["--command", "sweep", "--out", str(tmp_path),
                     "--set", "k_rays=101", "--set", "sweep=n_cells=1..18"])
        assert code == 0
        rows = read_csv(tmp_path / "sweep_summary.csv")
        assert rows[0][0] == "n_cells"
        assert len(rows) == 19
        delays = [float(r[1]) for r in rows[1:]]
        assert delays == sorted(delays)
        cir_files = sorted(tmp_path.glob("cir_*.csv"))
        assert len(cir_files) == 18

    @pytest.mark.parametrize("shape", ["fusiform", "spherical", "pyramidal"])
    @pytest.mark.parametrize("param, grid", [
        ("n_cells", [0, 5, 2, 5]),            # one shared trace
        ("total_um", [450.0, 471.5, 500.0]),  # one shared trace
        ("d_l_um", [1.0, 5.0, 3.0]),          # one trace per point
    ])
    def test_sweep_points_equal_single_runs(self, tmp_path, capsys, shape, param, grid):
        base = ["--set", f"shape={shape}", "--set", "k_rays=101"]
        sweep = tmp_path / "sweep"
        assert main(["--command", "sweep", "--out", str(sweep), *base, "--set",
                     f"sweep={param}={','.join(map(str, grid))}"]) == 0
        rows = read_csv(sweep / "sweep_summary.csv")[1:]
        assert len(rows) == len(grid)
        for i, (value, row) in enumerate(zip(grid, rows)):
            single = tmp_path / f"point-{i}"
            assert main(["--command", "cir", "--out", str(single), *base,
                         "--set", f"{param}={value}"]) == 0
            assert (sweep / f"cir_{i:03d}.csv").read_bytes() == \
                (single / "cir.csv").read_bytes()
            report = json.loads((single / "report.json").read_text())
            assert row == ["%.12e" % value, "%.12e" % report["dominant_delay_s"],
                           "%.12e" % report["total_gain"], "%.12e" % report["path_loss_db"],
                           str(report["counts"]["leaked"]),
                           str(report["counts"]["deviated"])]

    @pytest.mark.parametrize("grid, failing", [
        ([40.0, 0.001, 0.0, 40.0], 2),  # an invalid point fails before any trace
        ([40.0, 0.0, 0.001, 40.0], 1),  # an invalid point before exit 3
        ([40.0, 40.0, 0.001], 2),
    ])
    def test_failing_sweep_reports_its_first_failing_point(self, tmp_path, capsys, grid,
                                                           failing):
        # Free space, 10 rays, none on the axis: a 0.001 um detector catches
        # none (exit 3), and a 0 um one is invalid (exit 2).
        base = ["--set", "n_cells=0", "--set", "k_rays=10"]
        code = main(["--command", "sweep", "--out", str(tmp_path / "sweep"), *base,
                     "--set", f"sweep=detector_width_um={','.join(map(str, grid))}"])
        err = capsys.readouterr().err
        single = main(["--command", "cir", "--out", str(tmp_path / "single"), *base,
                       "--set", f"detector_width_um={grid[failing]}"])
        assert (code, err) == (single, capsys.readouterr().err)
        assert code in (2, 3)
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("sweep, named", [
        ('{"parameter": "n_cells", "values": [1.5, 2.7]}', "n_cells"),
        ('{"parameter": "k_rays", "values": [11, 20.5]}', "k_rays"),
        ('{"parameter": "n_cells", "start": 1, "stop": 3, "step": 0.5}', "n_cells"),
        ("lambda_nm=400,456,600", "lambda_nm"),
    ])
    def test_sweep_rejected_before_running(self, tmp_path, capsys, sweep, named):
        # Non-whole counts used to be truncated by int(), and a wavelength
        # sweep wrote identical rows.
        code = main(["--command", "sweep", "--out", str(tmp_path),
                     "--set", "k_rays=11", "--set", f"sweep={sweep}"])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "validation"
        assert any(v.startswith("sweep") and named in v for v in record["detail"])
        assert not (tmp_path / "sweep_summary.csv").exists()

    def test_aggregate_gamma_scales_cir(self, tmp_path, capsys):
        # 0.1 fs bins spread the K=101 atoms over several bins.
        runs = {}
        for mode in ("per-path", "aggregate"):
            out = tmp_path / mode
            assert main(["--command", "cir", "--out", str(out), "--set", "k_rays=101",
                         "--set", "cir_dt_fs=0.1", "--set", f'gamma_mode="{mode}"']) == 0
            runs[mode] = (read_csv(out / "cir.csv"),
                          json.loads((out / "report.json").read_text()))
        gamma = default_gamma_k101()
        (per_path, per_path_report), (aggregate, aggregate_report) = \
            runs["per-path"], runs["aggregate"]
        assert len(per_path) == len(aggregate)
        assert sum(float(amp) != 0.0 for _, amp in per_path[1:]) > 1
        for (t_p, amp_p), (t_a, amp_a) in zip(per_path[1:], aggregate[1:]):
            assert t_a == t_p
            assert float(amp_a) == pytest.approx(float(amp_p) * gamma, rel=1e-12, abs=0.0)
        assert aggregate_report["dominant_delay_s"] == per_path_report["dominant_delay_s"]
        assert aggregate_report["total_gain"] == pytest.approx(
            gamma * per_path_report["total_gain"], rel=1e-12)

    def test_aggregate_gamma_scales_rx_summary_once(self, tmp_path, capsys):
        # The summary pulse scales with the CIR's total gain, which carries
        # gamma once: its peak power with gamma squared, not gamma**4.
        peaks = {}
        for mode in ("per-path", "aggregate"):
            out = tmp_path / mode
            assert main(["--command", "pulse", "--out", str(out), "--set", "k_rays=101",
                         "--set", f'gamma_mode="{mode}"']) == 0
            peaks[mode] = json.loads((out / "report.json").read_text())["rx_summary_peak_power"]
        gamma = default_gamma_k101()
        assert peaks["aggregate"] == pytest.approx(gamma**2 * peaks["per-path"],
                                                   rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("sweep", ['{"parameter": "d_l_um", "values": []}',
                                       '{"start": 5, "stop": 1, "parameter": "n_cells"}'])
    def test_empty_sweep_grid_writes_nothing(self, tmp_path, capsys, sweep):
        # Both used to exit 0 with a header-only sweep_summary.csv.
        out = tmp_path / "out"
        code = main(["--command", "sweep", "--out", str(out), "--set", f"sweep={sweep}"])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "validation"
        assert any(v.startswith("sweep") and "no points" in v for v in record["detail"])
        assert not out.exists()

    @pytest.mark.parametrize("command", ["trace", "detector"])
    def test_degenerate_focus_writes_nothing(self, tmp_path, capsys, command):
        # One ray on the axis: the source radius is 0, so aggregate mode has
        # no focusing ratio.  Both commands used to write their CSVs first.
        code = main(["--command", command, "--out", str(tmp_path), "--set", "k_rays=1",
                     "--set", 'gamma_mode="aggregate"'])
        assert code == 3
        assert "DegenerateFocus" in json.loads(capsys.readouterr().err)["detail"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["trace", "pathloss", "cir", "pulse", "detector"])
    def test_path_loss_past_the_pole_writes_nothing(self, tmp_path, capsys, command):
        # A flat lens drives the analytic average gap past the diffusion
        # model's pole; every command used to end in a ValueError traceback.
        code = main(["--command", command, "--out", str(tmp_path), "--set", "k_rays=11",
                     "--set", "w_c_um=0.5"])
        assert code == 3
        assert "BeyondPole" in json.loads(capsys.readouterr().err)["detail"]
        assert list(tmp_path.iterdir()) == []

    def test_sweep_requires_block(self, tmp_path, capsys):
        assert main(["--command", "sweep", "--out", str(tmp_path)]) == 2

    def test_csv_uses_crlf_and_12_digits(self, tmp_path, capsys):
        assert main(["--command", "cir", "--out", str(tmp_path),
                     "--set", "n_cells=0", "--set", "k_rays=11"]) == 0
        raw = (tmp_path / "cir.csv").read_bytes()
        assert b"\r\n" in raw
        first_value = read_csv(tmp_path / "cir.csv")[1][1]
        mantissa = first_value.split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa) >= 12


# Inputs that ended in a traceback, or that validate accepted although their
# run would not fit in memory, with the key each is rejected under.
# Checking one against older code: run the tau_fs=1e6, 0..1e300 and k_rays=1e9 cases
# only under a memory limit (ulimit -v), as unguarded they exhaust memory.
REJECTED_INPUTS = [
    ("pathloss", ["total_um=1e300"], "total_um"),
    ("sweep", ["sweep=d_l_um=0..1e300"], "sweep"),
    ("sweep", ["sweep=d_l_um=0..1e9"], "sweep"),
    ("sweep", ['sweep={"parameter": "d_l_um", "start": 0, "stop": 1, "step": 1e-300}'],
     "sweep"),
    ("pulse", ["tau_fs=1e6", "waveform_dt_fs=1e-3"], "waveform_dt_fs"),
    ("pulse", ["waveform_dt_fs=1e-310"], "waveform_dt_fs"),
    ("cir", ["n_cell=1e300"], "n_cell"),
    ("cir", ["n_tissue=1e300"], "n_tissue"),
    ("cir", ["total_um=1e300", "d_R_um=null"], "total_um"),
    ("cir", ["cir_dt_fs=1e-300"], "cir_dt_fs"),
    ("cir", ["cir_dt_fs=1e-310"], "cir_dt_fs"),
    ("pulse", ["tau_fs=1e-300", "waveform_dt_fs=1e-302"], "waveform_dt_fs"),
    ("trace", ["h_c_um=1e-300", "w_c_um=1e-300"], "h_c_um"),
    ("validate", ['sweep={"parameter": [1], "values": [1]}'], "sweep"),
    # Squared into the report's peak powers: Infinity in report.json.
    ("pulse", ["e0=1e300", "k_rays=11"], "e0"),
    # sqrt(3 mu_s'/mu_a) overflows: NaN path loss and received fraction.
    ("trace", ["mu_a_tissue_per_mm=1e-310", "k_rays=1"], "mu_a_tissue_per_mm"),
    # About 0.2 ms per cell at any small ray count.
    ("trace", ["k_rays=1", "n_cells=2501", "total_um=9e4"], "n_cells"),
    # 40,001 pulse samples times 1,019,570 CIR bins to convolve.
    ("pulse", ["tau_fs=10", "waveform_dt_fs=0.002", "k_rays=11"], "waveform_dt_fs"),
    # The carrier 2 pi c / lambda divides by zero (a ZeroDivisionError
    # traceback) or overflows (NaN waveforms and NaN in report.json).
    ("pulse", ["k_rays=11", "lambda_nm=5e-324"], "lambda_nm"),
    ("pulse", ["k_rays=11", "lambda_nm=1e-300"], "lambda_nm"),
    # A finite carrier whose phase omega0 * t overflows at the pulse's last
    # sample: NaN fields in tx.csv and NaN in report.json.
    ("pulse", ["k_rays=11", "lambda_nm=1e-289", "tau_fs=1e20", "waveform_dt_fs=1e19"],
     "lambda_nm"),
    # Under tau/10 in femtoseconds but not in the seconds the pulse is built
    # in: validate passed it and the pulse failed with UnderResolved (exit 3).
    ("pulse", ["tau_fs=76.37982415147164", "waveform_dt_fs=7.637982415147163"],
     "waveform_dt_fs"),
    # Under tau/10, but over lambda/(2c) = 0.7605 fs: the 456 nm carrier
    # aliased and the pulse reported a peak frequency of another signal.
    ("pulse", ["k_rays=11", "tau_fs=100", "waveform_dt_fs=0.7606"], "waveform_dt_fs"),
    # 1,997 points of 2,000,000 ray-cells each: each point fits, the sweep
    # would trace for about 35 minutes.
    ("sweep", ["k_rays=1000", "n_cells=2000", "total_um=60000",
               'sweep={"parameter":"n_cell","start":1.36,"stop":1.37,"step":0.00000501}'],
     "sweep"),
    # A sweep is charged by its points, but these commands run the base:
    # 2,501 cells at small k_rays, and 10^9 rays through 18 cells.
    ("trace", ["k_rays=1", "n_cells=2501", "total_um=9e4", "sweep=n_cells=1..2"], "sweep"),
    ("cir", ["k_rays=1000000000", "sweep=k_rays=11,12"], "sweep"),
    # Sizes over the 1e6 um range.  Their center-line chord overflowed: r_c
    # squared (an OverflowError) and w_c * h_c/2 (an infinite chord that
    # math.ceil cannot take).
    ("validate", ["shape=spherical", "r_c_um=1e155", "total_um=null", "d_R_um=0"], "r_c_um"),
    ("cir", ["shape=pyramidal", "w_c_um=1e155", "h_c_um=1e155", "total_um=null", "d_R_um=0"],
     "w_c_um"),
    # Ran, at sizes or a wavelength outside the micrometre cells and visible
    # light the model is built for: a 2 m prism, a 0.5 pm sphere and 5e-7 nm light.
    ("cir", ["shape=pyramidal", "h_c_um=2e6"], "h_c_um"),
    ("cir", ["shape=spherical", "r_c_um=5e-7", "k_rays=11"], "r_c_um"),
    ("cir", ["lambda_nm=5e-7", "tau_fs=1e-6", "waveform_dt_fs=1e-10", "k_rays=11"],
     "lambda_nm"),
    # Positive, but 0.0 once read in seconds or squared: tau/10 blamed the
    # step for tau, a 0 s bin width was caught only after the trace, and e0
    # squared underflowed in report.json's peak powers.
    ("pulse", ["tau_fs=1e-320"], "tau_fs"),
    ("cir", ["cir_dt_fs=1e-320"], "cir_dt_fs"),
    ("pulse", ["waveform_dt_fs=1e-320"], "waveform_dt_fs"),
    ("pulse", ["e0=1e-300"], "e0"),
    # In range, yet over a cap, so each cap stays reachable: 2 ps delays in
    # 1e-19 s bins, and a 20 cm center line sampled every micrometre.
    ("cir", ["k_rays=11", "cir_dt_fs=1e-4"], "cir_dt_fs"),
    ("pathloss", ["total_um=2e5"], "total_um"),
    # A lone run's ray-cell charge: 3.6 M ray-cells against 2.5 M.
    ("cir", ["k_rays=200000"], "k_rays"),
    ("cir", ["d_R_um=null", "total_um=null"], "d_R_um"),
    ("sweep", ['sweep={"values": [1]}'], "sweep"),
]


@pytest.mark.parametrize("command, overrides, key", REJECTED_INPUTS,
                         ids=[f"{c}:{','.join(o)}" for c, o, _ in REJECTED_INPUTS])
def test_rejected_naming_key_without_files(tmp_path, capsys, command, overrides, key):
    out = tmp_path / "out"
    argv = ["--command", command, "--out", str(out)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "validation"
    assert any(v.startswith(f"{key}:") for v in record["detail"]), record
    assert not out.exists()


@pytest.mark.parametrize("command", ["trace", "cir", "pulse", "detector"])
@pytest.mark.parametrize("key", ["n_cell", "n_tissue"])
def test_overflowing_delays_exit_2_without_a_warning(tmp_path, capsys, command, key):
    # pytest captures warnings, so only an error filter shows one that would
    # print to stderr ahead of the JSON record.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["--command", command, "--out", str(tmp_path / "out"),
                     "--set", "k_rays=11", "--set", f"{key}=1.7e308"])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["detail"][0].startswith(f"{key}:")


@pytest.mark.parametrize("command", ["trace", "pathloss", "cir", "pulse", "detector"])
def test_only_the_sweep_command_takes_a_sweep_block(tmp_path, capsys, monkeypatch, command):
    traced = count_calls(monkeypatch, (geo, "trace_array"), (geo, "trace_arrays"))
    assert main(["--command", command, "--out", str(tmp_path / "out"), "--set", "k_rays=11",
                 "--set", "sweep=n_cells=1..2"]) == 2
    assert [v.split(":")[0] for v in json.loads(capsys.readouterr().err)["detail"]] == \
        ["sweep"]
    assert not (tmp_path / "out").exists()
    assert traced == Counter()
    assert main(["--command", command, "--out", str(tmp_path / "out"), "--set", "k_rays=11",
                 "--set", "sweep=null"]) == 0


def test_sweep_cap_judged_before_any_point_budget(monkeypatch):
    # The budget walks each trace group's longest center line, 2,000 cells
    # here, for the path-sample cap; the sweep's ray-cell cap bounds that work.
    walked = count_calls(monkeypatch, (cfg, "center_line"))
    sc = replace(Scenario(), k_rays=1000, n_cells=2000, total_um=60000.0,
                 sweep={"parameter": "n_cell", "start": 1.36, "stop": 1.37,
                        "step": 0.00000501})
    assert [v.split(":")[0] for v in validate(sc)] == ["sweep"]
    assert walked == Counter()
    sc.sweep = {"parameter": "n_cell", "values": [1.36, 1.37]}
    sc.n_cells = 1000
    assert validate(sc) == []
    assert walked == Counter(center_line=2)  # two media, two trace groups
    sc.sweep = {"parameter": "n_cells", "values": [1000, 500, 1000]}
    assert validate(sc) == []
    assert walked == Counter(center_line=3)  # one trace group


@pytest.mark.parametrize("argv, most", [
    (["--command", "cir"], {"build_layout": 2, "build_media": 2, "detector_gap_um": 3}),
    (["--command", "sweep", "--set", "k_rays=101", "--set", "sweep=n_cells=1..18"],
     {"build_layout": 36, "build_media": 36, "detector_gap_um": 54}),
])
def test_validate_and_the_command_each_build_a_runs_inputs_once(tmp_path, capsys, monkeypatch, argv, most):
    # validate's range stage works out the detector gap; validate and the
    # command then build each run's layout and media once, in trace_groups.
    built = count_calls(monkeypatch, *((Scenario, name) for name in most))
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert all(built[name] <= bound for name, bound in most.items()), built


def test_n_cells_sweep_validates_with_one_walk(monkeypatch):
    # 1,250 points charged 2,499,000 ray-cells, just under the cap, share one
    # trace group, so the path-sample cap walks one center line, not 1,250.
    walked = count_calls(monkeypatch, (cfg, "center_line"))
    sc = load_scenario(None, ["k_rays=1000", "total_um=60000", "sweep=n_cells=1..1250"])
    points = sweep_points(sc)
    assert ray_cells(trace_groups(points)) == 2_499_000
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        assert validate(sc) == []
        seconds.append(time.perf_counter() - start)
    assert walked == Counter(center_line=3)
    assert min(seconds) < 0.3, seconds


@pytest.mark.parametrize("grid", [
    "d_l_um=0..1e9",
    json.dumps({"parameter": "d_l_um", "values": list(range(cfg.MAX_SWEEP_POINTS + 1))}),
], ids=["start-stop", "values"])
def test_sweep_grid_over_the_point_bound_exits_2(tmp_path, capsys, grid):
    # Each point is charged at least MIN_CHARGED_RAYS ray-cells, so the
    # charge admits no more points than the grid bound does.
    assert cfg.MAX_SWEEP_POINTS == cfg.MAX_RAY_CELLS // cfg.MIN_CHARGED_RAYS == 2500
    out = tmp_path / "out"
    assert main(["--command", "sweep", "--out", str(out), "--set", f"sweep={grid}"]) == 2
    assert json.loads(capsys.readouterr().err)["detail"] == \
        ["sweep: the d_l_um grid has more than 2500 points"]
    assert not out.exists()


def test_sweep_of_2001_points_validates_under_the_charge():
    # One trace group of 2,001 points, charged 1000 * 2001 ray-cells: the
    # charge, not the grid bound, judges a grid of up to 2,500 points.
    sc = load_scenario(None, ["n_cells=0", "k_rays=1", "sweep=detector_width_um=1..2001"])
    points = sweep_points(sc)
    assert len(points) == 2001
    assert ray_cells(trace_groups(points)) == 2_001_000
    assert validate(sc) == []


def test_sweep_cirs_share_one_cir_bin_cap(tmp_path, capsys):
    # 203,892 bins per point: the first 58 points' 11,825,736 bins fit the
    # cap, the 59th point's take the sum over it, before any file is written.
    argv = ["--command", "sweep", "--out", str(tmp_path / "out"), "--set", "k_rays=11",
            "--set", "cir_dt_fs=0.01", "--set", "sweep=detector_width_um=40..99"]
    assert main(["--command", "validate", *argv[2:]]) == 0
    capsys.readouterr()
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err)["detail"] == [
        f"sweep: the CIRs of its first 59 points need {59 * 203_892} bins, over the cap "
        f"of {ch.MAX_CIR_BINS}"]
    assert not (tmp_path / "out").exists()


def test_step_just_under_the_carrier_limit_runs(tmp_path, capsys):
    assert main(["--command", "pulse", "--out", str(tmp_path), "--set", "k_rays=11",
                 "--set", "tau_fs=100", "--set", "waveform_dt_fs=0.76"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["tx_peak_frequency_hz"] == pytest.approx(6.574e14, rel=1e-3)


# Three rays through free space, all detected, whose gains all underflow to
# 0.0: a channel that carries no light.
ZERO_GAIN = ["shape=pyramidal", "k_rays=3", "n_cells=0",
             "mu_s_prime_tissue_per_mm=5103.27", "mu_a_tissue_per_mm=528620.19"]


@pytest.mark.parametrize("command, overrides, code", [
    ("cir", ["n_cells=0", "k_rays=10", "detector_width_um=0.001"], 3),  # empty channel
    # 80,001 pulse samples times 509,730 CIR bins, over the convolution cap.
    ("pulse", ["tau_fs=40", "waveform_dt_fs=0.004", "k_rays=11"], 2),
    ("cir", ZERO_GAIN, 3),
    ("pulse", ZERO_GAIN, 3),
    ("detector", ZERO_GAIN, 3),
])
def test_failed_run_leaves_no_directory(tmp_path, capsys, command, overrides, code):
    # validate passes each and the command fails: neither out nor its
    # missing parent is created.
    argv = ["--command", command, "--out", str(tmp_path / "x" / "new")]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == code
    assert not (tmp_path / "x").exists()


def test_zero_gain_trace_reports_no_delay(tmp_path, capsys):
    argv = ["--command", "trace", "--out", str(tmp_path)]
    for item in ZERO_GAIN:
        argv += ["--set", item]
    assert main(argv) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["counts"] == {"arrived": 3, "leaked": 0, "deviated": 0}
    assert report["total_received_fraction"] == 0.0
    assert report["dominant_delay_s"] is None


def _deep_json(depth: int) -> str:
    return "[" * depth + "]" * depth


def _unusable_input(tmp_path: Path, case: str) -> tuple[list[str], str]:
    """(cellray arguments, expected error kind) of one unusable input case."""
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    scenario = tmp_path / "scenario.json"
    if case == "out-is-a-file":
        return ["--command", "pathloss", "--out", str(a_file)], "io"
    if case == "out-under-a-file":
        return ["--command", "pathloss", "--out", str(a_file / "out")], "io"
    if case == "report-json-is-a-directory":
        (tmp_path / "out" / "report.json").mkdir(parents=True)
        return ["--command", "pathloss", "--out", str(tmp_path / "out")], "io"
    if case == "scenario-not-utf8":
        scenario.write_bytes(b'{"d_l_um": "\xff"}')
    elif case == "scenario-nested-200k-deep":
        scenario.write_text(_deep_json(200_000))
    elif case == "set-nested-20k-deep":
        # Too deep to parse, so the value stays text: not a number.
        return ["--command", "pathloss", "--out", str(tmp_path / "out"),
                "--set", f"d_l_um={_deep_json(20_000)}"], "validation"
    elif case == "set-int-of-5000-digits":
        # Over Python's int-string limit, so the value stays text too.
        return ["--command", "pathloss", "--out", str(tmp_path / "out"),
                "--set", f"k_rays={'1' * 5000}"], "validation"
    elif case == "scenario-int-of-5000-digits":
        scenario.write_text(f'{{"k_rays": {"1" * 5000}}}')
    elif case == "set-without-equals":
        return ["--command", "pathloss", "--out", str(tmp_path / "out"), "--set", "foo"], "usage"
    elif case == "scenario-not-json":
        scenario.write_text("{")
    elif case == "scenario-not-an-object":
        scenario.write_text("[1]")
    elif case == "scenario-unknown-key":
        scenario.write_text('{"dl_um": 5}')
        return ["--command", "pathloss", "--scenario", str(scenario),
                "--out", str(tmp_path / "out")], "validation"
    return ["--command", "pathloss", "--scenario", str(scenario),
            "--out", str(tmp_path / "out")], "io"


@pytest.mark.parametrize("case", ["out-is-a-file", "out-under-a-file",
                                  "report-json-is-a-directory", "scenario-not-utf8",
                                  "scenario-nested-200k-deep", "set-nested-20k-deep",
                                  "set-int-of-5000-digits", "scenario-int-of-5000-digits",
                                  "set-without-equals", "scenario-not-json",
                                  "scenario-not-an-object", "scenario-unknown-key"])
def test_unusable_input_exits_2_without_traceback(tmp_path, case):
    argv, kind = _unusable_input(tmp_path, case)
    src = str(Path(ch.__file__).resolve().parent.parent)
    # Python's default int-string limit, whatever the environment sets.
    child = subprocess.run([sys.executable, "-m", "cellray.cli", *argv],
                           env={**os.environ, "PYTHONPATH": src,
                                "PYTHONINTMAXSTRDIGITS": "4300"},
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 2, child.stderr
    assert "Traceback" not in child.stderr
    assert json.loads(child.stderr)["error"] == kind


def test_importing_the_cli_loads_no_heavy_module():
    # Every fresh interpreter pays for what importing cellray.cli loads.
    src = str(Path(ch.__file__).resolve().parent.parent)
    child = subprocess.run([sys.executable, "-c", "import sys, cellray.cli; print(*sys.modules)"],
                           env={**os.environ, "PYTHONPATH": src},
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    heavy = {"argparse", "concurrent.futures", "logging", "scipy", "hypothesis", "pytest"}
    assert heavy.isdisjoint(child.stdout.split())


def disk_full(*args):
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("command, blocked, extra", [("pulse", "rx.csv", ["--set", "k_rays=11"]),
                                                   ("pathloss", "report.json", [])])
def test_output_error_removes_the_runs_files(tmp_path, capsys, monkeypatch, command,
                                            blocked, extra):
    # The run fails on `blocked`, a directory, before writing any file.
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    (out / "notes.txt").write_text("kept")
    written = []
    real_open = open

    def recording_open(file, mode="r", *args, **kwargs):  # every writer opens through it
        if set(mode) & set("wax+"):
            written.append(file)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr("builtins.open", recording_open)
    assert main(["--command", command, "--out", str(out), *extra]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "io"
    assert written == []
    assert sorted(p.name for p in out.iterdir()) == sorted([blocked, "notes.txt"])


def test_output_error_removes_the_files_it_wrote(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sig, "write_spectrum_csv", disk_full)  # after three waveforms
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    assert main(["--command", "pulse", "--out", str(out), "--set", "k_rays=11"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "io"
    assert [p.name for p in out.iterdir()] == ["notes.txt"]
    assert (out / "notes.txt").read_text() == "kept"


def test_rerun_onto_a_blocked_target_leaves_the_old_outputs(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["--command", "cir", "--set", "k_rays=101", "--out", str(out)]) == 0
    cir_sha = hashlib.sha256((out / "cir.csv").read_bytes()).hexdigest()
    (out / "pdp.csv").unlink()
    (out / "pdp.csv").mkdir()
    capsys.readouterr()
    assert main(["--command", "cir", "--set", "k_rays=201", "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "io"
    assert hashlib.sha256((out / "cir.csv").read_bytes()).hexdigest() == cir_sha
    assert json.loads((out / "report.json").read_text())["scenario"]["k_rays"] == 101


def test_failed_rerun_keeps_every_earlier_output(tmp_path, capsys, monkeypatch):
    # Fails on tx_spectrum.csv, after the three waveforms have been staged.
    out = tmp_path / "o"
    assert main(["--command", "pulse", "--set", "k_rays=11", "--out", str(out)]) == 0
    before = file_hashes(out)
    monkeypatch.setattr(sig, "write_spectrum_csv", disk_full)
    capsys.readouterr()
    assert main(["--command", "pulse", "--set", "k_rays=21", "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "io"
    assert file_hashes(out) == before  # no .partial name either


def test_outputs_are_staged_until_every_file_is_written(tmp_path, capsys, monkeypatch):
    out = tmp_path / "o"
    listings, write = [], sig.write_spectrum_csv

    def listing_write(s, path):
        listings.append(sorted(p.name for p in out.iterdir()))
        assert path.parent == out and path.name.startswith(".") and path.suffix == ".partial"
        write(s, path)

    monkeypatch.setattr(sig, "write_spectrum_csv", listing_write)
    assert main(["--command", "pulse", "--set", "k_rays=11", "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [len(names) for names in listings] == [3, 4]  # the waveforms, then tx_spectrum
    assert all(n.startswith(".") and n.endswith(".partial") for names in listings for n in names)
    assert sorted(p.name for p in out.iterdir()) == sorted([*report["files"], "report.json"])


def test_a_linked_target_is_replaced_not_written_through(tmp_path, capsys):
    elsewhere = tmp_path / "elsewhere.csv"
    elsewhere.write_text("mine")
    out = tmp_path / "o"
    out.mkdir()
    (out / "cir.csv").symlink_to(elsewhere)
    assert main(["--command", "cir", "--set", "k_rays=11", "--out", str(out)]) == 0
    assert elsewhere.read_text() == "mine"
    assert not (out / "cir.csv").is_symlink() and (out / "cir.csv").is_file()


def test_unsearchable_out_exits_2_and_creates_nothing(tmp_path, capsys, monkeypatch):
    # Path.exists raises PermissionError under a directory the user cannot search.
    out = tmp_path / "locked" / "out"
    exists = Path.exists

    def denied(path, *args, **kwargs):
        if path.is_relative_to(out):
            raise PermissionError(13, "Permission denied", str(path))
        return exists(path, *args, **kwargs)

    monkeypatch.setattr(Path, "exists", denied)
    assert main(["--command", "pathloss", "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "io"
    assert list(tmp_path.iterdir()) == []


def test_output_error_removes_the_out_it_made(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sig, "write_spectrum_csv", disk_full)  # after three waveforms
    out = tmp_path / "new" / "out"
    assert main(["--command", "pulse", "--out", str(out), "--set", "k_rays=11"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "io"
    assert list(tmp_path.iterdir()) == []


def test_rx_transform_error_removes_the_out_it_made(tmp_path, monkeypatch):
    class TransformFailed(Exception):
        pass

    received = []
    propagate, spectrum = sig.propagate, sig.spectrum

    def keep_rx(*args):
        received.append(propagate(*args))
        return received[-1]

    def fail_on_rx(w):
        if w is received[0]:
            raise TransformFailed("rfft of the received waveform")
        return spectrum(w)

    monkeypatch.setattr(sig, "propagate", keep_rx)
    monkeypatch.setattr(sig, "spectrum", fail_on_rx)
    out = tmp_path / "new" / "out"
    with pytest.raises(TransformFailed):
        main(["--command", "pulse", "--out", str(out), "--set", "k_rays=11"])
    assert list(tmp_path.iterdir()) == []


def test_pulse_runs_on_the_calling_thread(tmp_path, capsys, monkeypatch):
    def no_thread(thread):
        raise AssertionError(f"a thread was started: {thread}")

    received, transformed = [], []
    propagate, spectrum = sig.propagate, sig.spectrum

    def keep_rx(*args):
        received.append(propagate(*args))
        return received[-1]

    def recording_spectrum(w):
        transformed.append((w, threading.current_thread()))
        return spectrum(w)

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    monkeypatch.setattr(sig, "propagate", keep_rx)
    monkeypatch.setattr(sig, "spectrum", recording_spectrum)
    assert main(["--command", "pulse", "--out", str(tmp_path / "o"), "--set", "k_rays=11"]) == 0
    [rx] = received
    assert [w is rx for w, _ in transformed] == [False, True]  # tx, then rx
    assert all(thread is threading.main_thread() for _, thread in transformed)


@given(st.lists(st.floats()))
@example([1e16, 1.0, -1e16])  # 0.0 left to right; a compensated sum gives 1.0
@example([-0.0])  # 0.0 + -0.0 is 0.0: the sum starts from 0.0, not from the first value
@example([math.inf, -math.inf])  # nan, with no warning
def test_received_fraction_sum_is_a_plain_loop(values):
    total = 0.0
    for value in values:
        total += value
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the loop warns of nothing
        got = _sum_in_order(values)
    assert repr(got) == repr(total)


def test_counts_and_status_words_come_from_fate(tmp_path, capsys):
    # Cells less dense than the tissue: rays leak by miss, TIR and backward turn.
    overrides = ["shape=spherical", "n_cell=1.0", "n_tissue=1.6", "k_rays=301"]
    argv = ["--command", "trace", "--out", str(tmp_path)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 0
    scenario = load_scenario(None, overrides)
    layout = scenario.build_layout()
    batch, _ = trace_array(layout, scenario.build_media(),
                           collimated_bundle(layout.shape, scenario.k_rays))
    per_fate = np.bincount(batch.fate, minlength=len(geo.STATUS))
    assert len(per_fate) == len(geo.STATUS) and per_fate.sum() == scenario.k_rays
    assert (per_fate[[geo.MISS, geo.TIR, geo.BACKWARD]] > 0).all()
    leaked = per_fate[[geo.MISS, geo.TIR, geo.BACKWARD]].sum()
    assert json.loads((tmp_path / "report.json").read_text())["counts"] == {
        "arrived": per_fate[geo.CROSSED], "leaked": leaked, "deviated": per_fate[geo.DEVIATED]}
    assert [row[1] for row in read_csv(tmp_path / "rays.csv")[1:]] == \
        geo.STATUS[batch.fate].tolist()


@given(st.floats(1e-3, 1e3), st.sampled_from([-math.inf, math.inf]))
@settings(max_examples=300, deadline=None)
def test_step_rule_agrees_with_gaussian_pulse(tau_fs, side):
    """At one ulp either side of tau_fs/10, validate passes the step exactly
    when gaussian_pulse resolves the pulse on the scenario's grid."""
    scenario = replace(Scenario(), tau_fs=tau_fs,
                       waveform_dt_fs=math.nextafter(tau_fs / 10.0, side))
    tau, dt = scenario.pulse_grid_s()
    try:
        gaussian_pulse(scenario.e0, tau, scenario.build_wavelength(), dt)
    except UnderResolved:
        accepted = False
    else:
        accepted = True
    assert (validate(scenario) == []) == accepted


def test_schema_covers_every_key():
    assert list(SCHEMA) == [f.name for f in fields(Scenario) if f.name != "sweep"]


SIZE = st.floats(SCHEMA["h_c_um"].low, SCHEMA["h_c_um"].high)


@given(SIZE, SIZE, st.floats(SCHEMA["lambda_nm"].low, allow_infinity=False))
@example(1e6, 1e-6, 1e-6)
@example(1e-6, 1e-6, 1.7e308)
@example(1e6, 1e6, 456.0)
def test_ranges_keep_sizes_and_carrier_finite(a, b, lambda_nm):
    """The size and wavelength ranges stand for the overflow rules validate
    no longer holds: a fusiform radius with a positive, finite square, a
    finite chord on the axis for every shape, and a finite carrier."""
    assert SCHEMA["r_c_um"].low == SCHEMA["w_c_um"].low == SCHEMA["h_c_um"].low
    assert SCHEMA["r_c_um"].high == SCHEMA["w_c_um"].high == SCHEMA["h_c_um"].high
    h, w = max(a, b), min(a, b)
    lens = geo.Fusiform(h_c=h, w_c=w)
    assert 0.0 < lens.curvature_radius**2 < math.inf
    for shape in (lens, geo.Spherical(r_c=a), geo.Pyramidal(h_c=a, w_c=b)):
        assert math.isfinite(shape.chord_at(0.0))
    assert 0.0 < Wavelength(nm=lambda_nm).omega0_rad_per_s < math.inf


def range_corners(*keys):
    """Every combination of the keys' range ends, as read from SCHEMA."""
    ends = [(SCHEMA[key].low, SCHEMA[key].high) for key in keys]
    return [dict(zip(keys, corner)) for corner in itertools.product(*ends)]


@pytest.mark.parametrize("shape", cfg.SHAPES)
def test_ranges_keep_lengths_and_sample_counts_finite(shape):
    """The ranges stand for the overflow guards validate and the run no
    longer hold: at every corner the detector gap and the source-detector
    length are finite, and pulse_samples counts an int."""
    assert all(rule.high is not None for key, rule in SCHEMA.items()
               if rule.kind != "choice" and key not in ("k_rays", "lambda_nm"))
    for corner in range_corners("n_cells", "h_c_um", "w_c_um", "r_c_um", "d_l_um", "d_E_um",
                                "total_um", "d_R_um"):
        if shape == "fusiform" and corner["w_c_um"] > corner["h_c_um"]:
            continue  # validate rejects the lens
        s = replace(Scenario(shape=shape), **corner)
        assert math.isfinite(replace(s, d_R_um=None).detector_gap_um())
        assert math.isfinite(s.build_layout().total_length)
    for corner in range_corners("tau_fs", "waveform_dt_fs"):
        tau, dt = replace(Scenario(shape=shape), **corner).pulse_grid_s()
        assert type(sig.pulse_samples(tau, dt)) is int


def test_ranges_admit_every_shipped_and_benchmark_scenario(tmp_path, workloads):
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        assert validate(load_scenario(str(path), [])) == [], path
    for workload in workloads.WORKLOADS:
        for seed in range(12):
            plan = workloads.plan(workload, seed, tmp_path / f"{workload}-{seed}")
            for job in plan.jobs:
                if job.expect == 0:
                    assert validate(load_scenario(job.scenario, list(job.overrides))) == [], \
                        (workload, seed, job.id)


def test_tau_under_its_range_is_the_one_problem():
    # 1e-320 fs is 0.0 s: the tau/10 rule would blame the step for it.
    assert validate(replace(Scenario(), tau_fs=1e-320)) == \
        ["tau_fs: must be >= 1e-06, got 1e-320"]


@pytest.mark.parametrize("command, key, value, cap",
                         [("cir", "cir_dt_fs", 1e-4, "bins of"),
                          ("pathloss", "total_um", 2e5, "path-loss samples")])
def test_caps_stay_reachable_in_range(tmp_path, capsys, command, key, value, cap):
    assert SCHEMA[key].low <= value <= SCHEMA[key].high
    assert main(["--command", command, "--out", str(tmp_path / "out"), "--set", "k_rays=11",
                 "--set", f"{key}={value!r}"]) == 2
    [problem] = json.loads(capsys.readouterr().err)["detail"]
    assert problem.startswith(f"{key}:") and cap in problem, problem


# Values no key may crash on: wrong types, signed zeros, extremes,
# subnormals, non-finite numbers, empty containers and strings.
HOSTILE = st.sampled_from([
    None, True, False, "", "x", "fusiform", "aggregate", [], {}, [1.0], {"a": 1},
    0, 1, -1, 2, 18, 2**63, 10**400, 0.0, -0.0, 0.5, 2.5, 1e300, -1e300, 1e-300,
    -1e-300, 1e-310, 5e-324, -5e-324, 1.7e308, math.nan, math.inf, -math.inf,
])
SWEEP_BLOCK = st.one_of(
    HOSTILE,
    st.fixed_dictionaries(
        {"parameter": st.one_of(st.sampled_from([*SCHEMA, "sweep"]), HOSTILE)},
        optional={"values": st.one_of(HOSTILE, st.lists(HOSTILE, max_size=3)),
                  "start": HOSTILE, "stop": HOSTILE, "step": HOSTILE}),
)


@given(st.sampled_from(["trace", "pathloss", "cir", "pulse", "detector", "sweep",
                        "validate"]),
       st.dictionaries(st.sampled_from(list(SCHEMA)), HOSTILE, max_size=4),
       st.one_of(st.integers(-1, 11), st.sampled_from([None, 2.0, 2.5, "3", True])),
       st.one_of(st.none(), SWEEP_BLOCK))
@example("detector", {"shape": "pyramidal", "n_cells": 0, "mu_s_prime_tissue_per_mm": 5103.27,
                      "mu_a_tissue_per_mm": 528620.19}, 3, None)  # zero gain
@example("pulse", {"lambda_nm": 1e-289, "tau_fs": 1e20, "waveform_dt_fs": 1e19},
         11, None)  # the carrier phase overflows
@example("validate", {"shape": "spherical", "r_c_um": 1e155, "total_um": None, "d_R_um": 0},
         11, None)  # the center-line chord overflows
@example("trace", {"shape": "pyramidal", "w_c_um": 1e155, "h_c_um": 1e155, "total_um": None,
                   "d_R_um": 0}, 11, None)
@example("cir", {"n_tissue": 1.7e308}, 11, None)  # over its range, the delays overflowed
# The corners of the size ranges.
@example("detector", {"h_c_um": 1e6, "w_c_um": 1e-6}, 11, None)
@example("pulse", {"h_c_um": 1e-6, "w_c_um": 1e-6}, 11, None)
@example("pathloss", {"shape": "spherical", "r_c_um": 1e-6}, 11, None)
@example("cir", {"shape": "pyramidal", "h_c_um": 1e6, "w_c_um": 1e-6}, 11, None)
@settings(max_examples=200, deadline=timedelta(seconds=10))
def test_any_scenario_exits_0_2_or_3(command, keys, k_rays, sweep):
    # Every input runs or is rejected: no exception escapes main, no warning
    # is raised (stderr holds only the JSON error record), a report holds
    # only finite numbers, as strict JSON requires, and so does every
    # numeric CSV field of a run that exits 0.
    data = {**keys, "k_rays": k_rays, "sweep": sweep}
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(data))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["--command", command, "--scenario", str(path),
                         "--out", str(Path(tmp) / "out")])
        report = Path(tmp) / "out" / "report.json"
        if report.exists():
            json.loads(report.read_text(), parse_constant=reject_constant)
        if code == 0:
            assert_finite_csv_fields(Path(tmp) / "out")
    assert code in (0, 2, 3)


def assert_finite_csv_fields(out: Path) -> None:
    """Every field of out's CSV files is empty, a status word or a finite float.

    The one exception is focus_report.csv's x_f_um of inf: a marginal ray
    that leaves its cell parallel to the axis focuses at infinity.
    """
    words = set(geo.STATUS.tolist())
    for path in sorted(out.glob("*.csv")):
        header, *rows = read_csv(path)
        for row in rows:
            for name, field in zip(header, row):
                if field == "" or field in words or \
                        (path.name, name, field) == ("focus_report.csv", "x_f_um", "inf"):
                    continue
                assert math.isfinite(float(field)), (path.name, name, field)


def reject_constant(name):
    raise ValueError(f"report.json holds {name}")


def count_calls(monkeypatch, *targets: tuple) -> Counter:
    """Counts calls of each (module, name) of targets, by name, from now on."""
    calls = Counter()

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for module, name in targets:
        monkeypatch.setattr(module, name, counted(module, name))
    return calls


@pytest.fixture
def channel_calls(monkeypatch):
    """Counts calls of cellray.channel.contributions and build_cir."""
    return count_calls(monkeypatch, (ch, "contributions"), (ch, "build_cir"))


@pytest.fixture
def traces(monkeypatch):
    """Counts calls of cellray.geometry.trace_array and channel.contributions."""
    return count_calls(monkeypatch, (geo, "trace_array"), (ch, "contributions"))


@pytest.mark.parametrize("command, cirs", [("trace", 1), ("cir", 1), ("pulse", 2),
                                           ("detector", 1)])
def test_atoms_once_per_trace(tmp_path, capsys, channel_calls, command, cirs):
    # pulse bins the same atoms twice: at waveform_dt_fs for the waveform
    # and at cir_dt_fs for the report's dominant delay.
    assert main(["--command", command, "--out", str(tmp_path),
                 "--set", "k_rays=101"]) == 0
    assert channel_calls == {"contributions": 1, "build_cir": cirs}


def test_atoms_once_per_sweep_point(tmp_path, capsys, channel_calls):
    assert main(["--command", "sweep", "--out", str(tmp_path),
                 "--set", "k_rays=101", "--set", "sweep=n_cells=1..4"]) == 0
    assert channel_calls == {"contributions": 4, "build_cir": 4}


@pytest.mark.parametrize("overrides", [
    ["sweep=d_l_um=-5..5"],                       # an invalid first point
    ["sweep=n_cells=17..19"],                     # 19 cells do not fit 450 um
    ["shape=spherical", "sweep=h_c_um=30,40"],    # a key the shape does not read
    ["sweep=r_c_um=5,10"],                        # the same on a fusiform cell
    ["sweep=detector_width_um=40,0,40"],          # an invalid middle point
])
def test_validate_and_sweep_give_one_verdict(tmp_path, capsys, monkeypatch, overrides):
    traced = count_calls(monkeypatch, (geo, "trace_array"), (geo, "trace_arrays"))
    argv = [item for override in ["k_rays=301", *overrides] for item in ("--set", override)]
    verdicts = []
    for command in ("validate", "sweep"):
        out = tmp_path / command
        assert main(["--command", command, "--out", str(out), *argv]) == 2
        verdicts.append(json.loads(capsys.readouterr().err)["detail"])
        assert not out.exists()
    assert verdicts[0] == verdicts[1]
    assert traced == Counter()


@pytest.mark.parametrize("base, sweep", [
    ("n_cells=40", "n_cells=1..3"),      # 40 cells do not fit 450 um
    ("d_l_um=-3", "d_l_um=1,2"),         # a negative gap
    ("w_c_um=40", "w_c_um=10,20"),       # a fusiform lens wider than it is high
    ("k_rays=0", "k_rays=11,21"),        # no rays
])
def test_sweep_base_value_of_the_swept_key_not_judged(tmp_path, capsys, base, sweep):
    # A sweep runs only its points, each of which sets the swept key.
    argv = ["--set", "k_rays=11", "--set", base, "--set", f"sweep={sweep}"]
    assert main(["--command", "validate", *argv]) == 0
    assert json.loads(capsys.readouterr().out) == {"violations": []}
    assert main(["--command", "sweep", "--out", str(tmp_path), *argv]) == 0
    assert (tmp_path / "sweep_summary.csv").exists()


def test_total_um_sweep_with_an_explicit_gap_exits_2(tmp_path, capsys):
    # It used to write one CIR per point, all equal, and equal summary rows.
    code = main(["--command", "sweep", "--out", str(tmp_path / "out"), "--set", "k_rays=11",
                 "--set", "d_R_um=5", "--set",
                 'sweep={"parameter": "total_um", "values": [400, 500]}'])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["detail"] == [
        "sweep: 'total_um' changes no sweep output (CIR, path loss, ray counts)"]
    assert not (tmp_path / "out").exists()


shape_strategy = st.one_of(
    st.builds(Spherical, r_c=st.floats(1.0, 25.0)),
    st.tuples(st.floats(2.0, 50.0), st.floats(0.05, 1.0)).map(
        lambda t: Fusiform(h_c=t[0], w_c=t[0] * t[1])),
    st.builds(Pyramidal, h_c=st.floats(2.0, 50.0), w_c=st.floats(1.0, 40.0)),
)
gap_strategy = st.one_of(st.just(0.0), st.floats(0.0, 30.0))


@given(shape_strategy, st.integers(0, 18), gap_strategy, gap_strategy, gap_strategy)
@example(Fusiform(h_c=1e6, w_c=1e-3), 3, 5.0, 2.5, 7.25)  # a zero chord on the axis
@settings(max_examples=300, deadline=None)
def test_center_line_grid_matches_walk(shape, n_cells, gap, source_gap, detector_gap):
    # The numpy grid against the 1 um walk it replaced, exactly.
    layout = ArrayLayout(shape, n_cells, gap, source_gap, detector_gap)
    got = center_line_profile(layout)
    assert [column.tolist() for column in got] == \
        list(oracle.center_line_profile(layout))
    # validate's path-sample count is the rows pathloss writes.
    assert list(cfg._path_rows([([0], [layout], None, None)])) == [(0, layout, len(got[0]))]


# Sizes and gaps across their whole ranges: a fusiform w_c/h_c under about
# 7e-9 has a zero chord on the axis.
wide_shape_strategy = st.one_of(
    st.builds(Spherical, r_c=st.floats(1e-6, 1e6)),
    st.tuples(st.floats(1e-6, 1e6), st.floats(1e-12, 1.0)).map(
        lambda t: Fusiform(h_c=t[0], w_c=max(t[0] * t[1], 1e-6))),
    st.builds(Pyramidal, h_c=st.floats(1e-6, 1e6), w_c=st.floats(1e-6, 1e6)),
)
wide_gap_strategy = st.one_of(st.just(0.0), st.floats(0.0, 30.0), st.floats(0.0, 1e6))


@given(st.one_of(shape_strategy, wide_shape_strategy), gap_strategy | wide_gap_strategy,
       gap_strategy | wide_gap_strategy,
       st.lists(st.tuples(st.integers(0, 12), gap_strategy | wide_gap_strategy),
                min_size=1, max_size=8))
@example(Pyramidal(h_c=30.0, w_c=20.0), 0.0, 0.0, [(3, 0.0), (0, 0.0), (3, 7.5), (1, 0.0)])
@example(Fusiform(h_c=1e6, w_c=1e-3), 0.0, 5.0, [(2, 0.0), (4, 0.5), (4, 0.0)])
@example(Spherical(r_c=0.1), 0.0, 0.0, [(12, 0.0), (7, 0.0), (0, 0.0), (12, 0.3)])
@settings(max_examples=500, deadline=None)
def test_one_walk_counts_every_layout_of_a_cell_line(shape, gap, source_gap, runs):
    # Layouts on one cell line: cell counts that repeat or are 0, and their
    # own detector gaps, as explicit d_R_um values give them.
    layouts = [ArrayLayout(shape, n, gap, source_gap, detector_gap)
               for n, detector_gap in runs]
    indices = list(range(len(layouts)))
    assert sorted(cfg._path_rows([(indices, layouts, None, None)])) == \
        [(i, layout, 1 + sum(samples for _, _, samples, _ in geo.center_line(layout)))
         for i, layout in enumerate(layouts)]


ROOT = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "perfbench" / "reference_seed0.json").read_text())
SHAPES = ("fusiform", "spherical", "pyramidal")
BATTERY_COMMANDS = ("trace", "pathloss", "cir", "pulse", "detector")


def file_hashes(directory: Path) -> dict[str, str]:
    """sha256 of every file in directory, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in directory.iterdir()}


@pytest.fixture(scope="module")
def golden_battery():
    """sha256 of every output file of the benchmark's seed-0 battery jobs."""
    return MANIFEST["jobs"]["battery"]


@pytest.mark.parametrize("shape", ["fusiform", "spherical", "pyramidal"])
@pytest.mark.parametrize("command", ["trace", "pathloss", "cir", "pulse", "detector"])
def test_golden_output_bytes(tmp_path, capsys, golden_battery, shape, command):
    # The battery's seed-0 scenarios are the default scenario files.
    assert main(["--command", command, "--out", str(tmp_path),
                 "--scenario", str(ROOT / "scenarios" / f"{shape}.json")]) == 0
    assert file_hashes(tmp_path) == golden_battery[f"{shape}-{command}"]["sha256"]


@pytest.fixture(scope="module")
def workloads():
    """The benchmark's job lists, perfbench/workloads.py, loaded read-only."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


# Every other seed-0 job: the battery's sweeps and error paths, the
# wide-shallow cir/detector runs and the long-pulse pulse runs.
OTHER_JOBS = [(workload, job) for workload, jobs in MANIFEST["jobs"].items()
              for job in jobs
              if not (workload == "battery" and job.split("-", 1)[1] in BATTERY_COMMANDS)]


@pytest.mark.parametrize("workload, job_id", OTHER_JOBS)
def test_golden_output_bytes_other_jobs(tmp_path, capsys, workloads, workload, job_id):
    plan = workloads.plan(workload, 0, tmp_path / "scenarios")
    job = {job.id: job for job in plan.jobs}[job_id]
    out = tmp_path / "out"
    want = MANIFEST["jobs"][workload][job_id]
    assert main(job.argv(out)) == want["exit"]
    assert (file_hashes(out) if out.exists() else {}) == want["sha256"]


# The channel kept between commands: cellray.cli._channel.

@pytest.mark.parametrize("shape", SHAPES)
def test_commands_on_one_scenario_trace_it_once(tmp_path, capsys, golden_battery,
                                                traces, shape):
    # The battery's commands back to back, as scripts/run_channel_battery.py
    # runs them: the later ones reuse the first one's channel, byte for byte.
    for command in BATTERY_COMMANDS:
        out = tmp_path / command
        assert main(["--command", command, "--out", str(out),
                     "--scenario", str(ROOT / "scenarios" / f"{shape}.json")]) == 0
        assert file_hashes(out) == golden_battery[f"{shape}-{command}"]["sha256"]
    assert traces == {"trace_array": 1, "contributions": 1}


@pytest.mark.parametrize("first, second, traced", [
    ([], [], 1),
    # Real keys are read as floats, -0.0 as 0.0.
    (["d_E_um=0.0"], ["d_E_um=-0.0"], 1),
    ([], ["h_c_um=30"], 1),  # the default is 30.0
    # Keys the channel does not read reuse it.
    ([], ["gamma_mode=aggregate"], 1),
    ([], ["tau_fs=2.0"], 1),
    ([], ["lambda_nm=500.0"], 1),
    ([], ["e0=2.0"], 1),
    ([], ["cir_dt_fs=5.0"], 1),
    ([], ["waveform_dt_fs=0.02"], 1),
    # The same layout, its detector gap given rather than derived.
    ([], [f"d_R_um={Scenario().detector_gap_um()!r}"], 1),
    ([], ["detector_width_um=30.0"], 2),
    ([], ["k_rays=103"], 2),
    # A spherical cell reads no h_c_um.
    (["shape=spherical"], ["shape=spherical", "h_c_um=40.0"], 1),
])
def test_channel_kept_for_the_same_values_only(tmp_path, capsys, traces, first, second,
                                               traced):
    for i, overrides in enumerate((first, second)):
        assert main(["--command", "trace", "--out", str(tmp_path / str(i)),
                     "--set", "k_rays=101",
                     *(arg for item in overrides for arg in ("--set", item))]) == 0
    assert traces["trace_array"] == traced


# One other valid value of each SCHEMA key but shape, on every default
# scenario; d_R_um also takes the detector gap total_um leaves, 0.0 on each.
OTHER_VALUES = [
    ("h_c_um", 40.0), ("w_c_um", 15.0), ("r_c_um", 8.0), ("n_cells", 17), ("d_l_um", 4.0),
    ("d_E_um", 4.0), ("d_R_um", 10.0), ("d_R_um", 0.0), ("total_um", 460.0),
    ("n_cell", 1.40), ("mu_a_cell_per_mm", 2.0), ("mu_s_prime_cell_per_mm", 4.0),
    ("n_tissue", 1.33), ("mu_a_tissue_per_mm", 2.0), ("mu_s_prime_tissue_per_mm", 4.0),
    ("lambda_nm", 500.0), ("tau_fs", 2.0), ("e0", 2.0), ("k_rays", 12), ("cir_dt_fs", 5.0),
    ("waveform_dt_fs", 0.02), ("gamma_mode", "aggregate"), ("detector_width_um", 30.0),
]
ONE_KEY_CHANGED = [(shape, key, value) for shape in SHAPES for key, value in OTHER_VALUES]


def one_key_changed(shape: str, key: str, value) -> tuple[Scenario, Scenario]:
    """The shape's default scenario at 11 rays, and the same with key at value."""
    base = replace(Scenario(shape=shape), k_rays=11)
    changed = replace(base, **{key: value})
    assert validate(changed) == [] and base.detector_gap_um() == 0.0
    return base, changed


def test_one_key_changed_covers_every_key():
    assert {key for key, _ in OTHER_VALUES} == SCHEMA.keys() - {"shape"}


def reads_not(shape: str, key: str) -> bool:
    """Whether key changes nothing the rays see: a pulse key or one shape does not read."""
    return SCHEMA[key].pulse or shape not in SCHEMA[key].shapes


@pytest.mark.parametrize("shape, key, value", ONE_KEY_CHANGED)
def test_trace_groups_share_exactly_where_the_cell_line_holds(shape, key, value):
    # The points differ where the rays stop or in what is read off them.
    shared = reads_not(shape, key) or key in ("n_cells", "d_R_um", "total_um",
                                              "detector_width_um", "cir_dt_fs", "gamma_mode")
    assert group_indices(list(one_key_changed(shape, key, value))) == \
        ([[0, 1]] if shared else [[0], [1]])


@pytest.mark.parametrize("shape, key, value", ONE_KEY_CHANGED)
def test_kept_channel_serves_exactly_the_same_inputs(traces, shape, key, value):
    base, changed = one_key_changed(shape, key, value)
    shared = reads_not(shape, key) or key in ("cir_dt_fs", "gamma_mode") \
        or key == "d_R_um" and value == base.detector_gap_um()
    cli._channel(base)
    cli._channel(changed)
    assert traces["trace_array"] == (1 if shared else 2)


def test_kept_channel_arrays_are_read_only():
    scenario = scenario_from_dict({"k_rays": 101})
    for chan in (cli._channel(scenario), cli._channel(scenario)):  # traced, then kept
        arrays = [chan.h0, *(getattr(part, f.name)
                             for part in (chan.paths, chan.focus, chan.detected)
                             for f in fields(part)
                             if isinstance(getattr(part, f.name), np.ndarray))]
        assert len(arrays) == 1 + 7 + 3 + 3
        for array in arrays:
            with pytest.raises(ValueError):
                array[...] = 0


def test_failed_channel_is_not_kept(monkeypatch, traces):
    failures = [RuntimeError("atoms failed")]
    contributions = ch.contributions

    def fails_once(*args, **kwargs):
        if failures:
            raise failures.pop()
        return contributions(*args, **kwargs)

    cli._channel(scenario_from_dict({"k_rays": 11}))
    monkeypatch.setattr(ch, "contributions", fails_once)
    scenario = scenario_from_dict({"k_rays": 101})
    with pytest.raises(RuntimeError):
        cli._channel(scenario)
    assert cli._last_channel == {}  # the earlier scenario's channel is gone too
    cli._channel(scenario)
    cli._channel(scenario)
    assert traces["trace_array"] == 3


def test_kept_channel_serves_another_gamma_mode(tmp_path, capsys, traces):
    # A per-path trace, then an aggregate pulse on the kept channel, writes
    # what the same pulse writes on a fresh trace.
    pulse = ["--command", "pulse", "--set", "k_rays=101", "--set", "gamma_mode=aggregate"]
    assert main(["--command", "trace", "--out", str(tmp_path / "trace"),
                 "--set", "k_rays=101"]) == 0
    assert main([*pulse, "--out", str(tmp_path / "kept")]) == 0
    assert traces["trace_array"] == 1
    cli._last_channel.clear()
    assert main([*pulse, "--out", str(tmp_path / "fresh")]) == 0
    assert traces["trace_array"] == 2
    assert file_hashes(tmp_path / "kept") == file_hashes(tmp_path / "fresh")
    scenario = scenario_from_dict({"k_rays": 101})
    chan = cli._channel(scenario)
    assert cli._channel(replace(scenario, gamma_mode="aggregate")) is chan
    with pytest.raises(FrozenInstanceError):
        chan.paths = None


def test_kept_channel_reports_the_callers_scenario(tmp_path, traces):
    first = scenario_from_dict({"k_rays": 101})
    second = replace(first)
    cli.run("trace", first, tmp_path / "first")
    first.tau_fs = 2.0  # the earlier caller changes its scenario afterwards
    report = json.loads(cli.run("cir", second, tmp_path / "second"))
    assert traces["trace_array"] == 1
    assert report["scenario"] == asdict(second)
    assert report["scenario"]["tau_fs"] == 1.0


@pytest.mark.parametrize("shape", SHAPES)
def test_sweep_rows_equal_the_points_reports(monkeypatch, shape):
    """Each sweep row holds its point's _base_report fields, bit for bit,
    though cmd_sweep builds no report per point."""
    scenario = scenario_from_dict({"shape": shape, "k_rays": 301,
                                   "sweep": {"parameter": "n_cells", "start": 1, "stop": 18}})
    calls = count_calls(monkeypatch, (cli, "_base_report"))
    _, outputs = cli.cmd_sweep(scenario)
    assert calls["_base_report"] == 0
    rows = list(zip(*outputs["sweep_summary.csv"].keywords["columns"]))
    points = sweep_points(scenario)
    assert len(rows) == len(points) == 18
    for point, chan, row in zip(points, cli._channels(points, trace_groups(points)), rows):
        cir = cli._cir(point, chan, "cir_dt_fs")
        report = cli._base_report(point, chan, cir)
        assert row == (float(point.n_cells), report["dominant_delay_s"], cir.total_gain(),
                       report["path_loss_db"], report["counts"]["leaked"],
                       report["counts"]["deviated"])


def test_one_parser_serves_every_call(tmp_path, capsys):
    parser = cli._parser()
    assert main(["--command", "pathloss", "--out", str(tmp_path / "a"),
                 "--set", "k_rays=11"]) == 0
    assert json.loads(capsys.readouterr().out)["scenario"]["k_rays"] == 11
    # --set appends to a copy of its default list, which stays empty.
    assert main(["--command", "pathloss", "--out", str(tmp_path / "b")]) == 0
    assert json.loads(capsys.readouterr().out)["scenario"]["k_rays"] == 1001
    with pytest.raises(SystemExit) as exc:
        main(["--command", "nonsense"])
    assert exc.value.code == 2
    assert main(["--command", "validate"]) == 0
    assert cli._parser() is parser and parser.get_default("overrides") == []


def test_stdout_is_report_json(tmp_path, capsys):
    assert main(["--command", "trace", "--out", str(tmp_path), "--set", "k_rays=101"]) == 0
    assert capsys.readouterr().out == (tmp_path / "report.json").read_text()


def test_channel_battery_script_golden(tmp_path, monkeypatch, capsys, golden_battery,
                                       traces):
    # scripts/run_channel_battery.py writes the battery's bytes, tracing each
    # shape once for its five commands (its sweeps go through trace_arrays).
    spec = importlib.util.spec_from_file_location(
        "run_channel_battery", ROOT / "scripts" / "run_channel_battery.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["run_channel_battery.py", str(tmp_path)])
    assert script.main() == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted([*SHAPES, *(f"{shape}_sweep" for shape in SHAPES)])
    for shape in SHAPES:
        assert sorted(p.name for p in (tmp_path / shape).iterdir()) == \
            sorted(BATTERY_COMMANDS)
        for command in BATTERY_COMMANDS:
            assert file_hashes(tmp_path / shape / command) == \
                golden_battery[f"{shape}-{command}"]["sha256"]
        assert file_hashes(tmp_path / f"{shape}_sweep") == \
            golden_battery[f"{shape}-sweep"]["sha256"]
    assert traces["trace_array"] == 3
