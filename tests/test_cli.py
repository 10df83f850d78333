import csv
import json
import math
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from cellray.cli import main
from cellray.config import (
    Scenario,
    default_scenario,
    scenario_from_dict,
    sweep_values,
    validate,
)

FLOAT_KEYS = [f.name for f in fields(Scenario) if "float" in f.type]


class TestScenarioConfig:
    def test_default_is_valid(self):
        for shape in ("fusiform", "spherical", "pyramidal"):
            assert validate(default_scenario(shape)) == []

    def test_negative_gap_names_field(self):
        sc = default_scenario()
        sc.d_l_um = -1.0
        violations = validate(sc)
        assert len(violations) == 1 and violations[0].startswith("d_l_um")

    def test_fusiform_wide_lens_flagged(self):
        sc = default_scenario("fusiform")
        sc.w_c_um = 40.0
        assert any(v.startswith("w_c_um") for v in validate(sc))

    def test_detector_gap_must_fit(self):
        sc = default_scenario()
        sc.n_cells = 50  # 50 cells at 25 um pitch cannot fit in 450 um
        assert any("detector gap" in v for v in validate(sc))

    def test_round_trip(self):
        sc = default_scenario("spherical")
        again = scenario_from_dict(json.loads(json.dumps(sc.to_dict())))
        assert again == sc

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            scenario_from_dict({"dl_um": 5.0})

    def test_derived_detector_gap(self):
        sc = default_scenario()
        assert sc.detector_gap_um() == pytest.approx(0.0)
        sc.n_cells = 10
        assert sc.detector_gap_um() == pytest.approx(450 - 5 - 10 * 20 - 9 * 5)

    def test_sweep_values(self):
        sc = default_scenario()
        sc.sweep = {"parameter": "n_cells", "start": 1, "stop": 4}
        assert sweep_values(sc) == [1, 2, 3, 4]
        sc.sweep = {"parameter": "d_l_um", "values": [2.0, 5.0]}
        assert sweep_values(sc) == [2.0, 5.0]

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_floats_rejected(self, key):
        for value in (math.nan, math.inf, -math.inf, True, "5"):
            violations = validate(scenario_from_dict({key: value}))
            assert [v for v in violations if v.startswith(key)], (key, value)

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
                     {"values": [1.0, math.nan]}):
            sc = default_scenario()
            sc.sweep = {"parameter": "n_cells", **grid}
            assert [v for v in validate(sc) if v.startswith("sweep")], grid

    @given(st.floats(1.0, 60.0), st.floats(0.1, 1.0), st.integers(0, 30),
           st.floats(0.0, 20.0))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, h, frac, n, gap):
        sc = default_scenario("fusiform")
        sc.h_c_um, sc.w_c_um = h, h * frac
        sc.n_cells, sc.d_l_um = n, gap
        sc.total_um, sc.d_R_um = None, 12.5
        assert scenario_from_dict(json.loads(json.dumps(sc.to_dict()))) == sc


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


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

    @pytest.mark.parametrize("grid", ["n_cells=1..x", "d_l_um=2,five"])
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
        scenario = default_scenario("spherical").to_dict()
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
