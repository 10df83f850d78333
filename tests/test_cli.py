import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import math
import sys
import tempfile
from collections import Counter
from dataclasses import fields, replace
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cellray.channel as ch
import cellray.geometry as geo
import channel_oracle as oracle
from cellray.cli import center_line_profile, main
from cellray.config import (
    SCHEMA,
    Scenario,
    default_scenario,
    scenario_from_dict,
    sweep_values,
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

    def test_sweep_grid_by_index(self):
        sc = default_scenario()
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

    @pytest.mark.parametrize("param", ["n_cells", "k_rays"])
    def test_integer_sweep_needs_whole_points(self, param):
        for grid in ({"values": [1.5, 2.7]}, {"values": [2, 3.5]},
                     {"start": 1, "stop": 4, "step": 0.5},
                     {"start": 1.5, "stop": 4}):
            sc = default_scenario()
            sc.sweep = {"parameter": param, **grid}
            assert [v for v in validate(sc) if v.startswith(f"sweep: {param}")], grid
        for grid in ({"values": [1.0, 3]}, {"start": 1.0, "stop": 4.5, "step": 2.0}):
            sc = default_scenario()
            sc.sweep = {"parameter": param, **grid}
            assert validate(sc) == [], grid

    def test_empty_sweep_grid_rejected(self):
        # The check agrees with sweep_values at its 1e-12 inclusion edge.
        for grid, points in (({"values": []}, 0), ({"start": 5, "stop": 1}, 0),
                             ({"start": 1.0, "stop": 1.0 - 2e-12}, 0),
                             ({"start": 1.0, "stop": 1.0 - 5e-13}, 1),
                             ({"start": 5, "stop": 5}, 1)):
            sc = default_scenario()
            sc.sweep = {"parameter": "d_l_um", **grid}
            assert len(sweep_values(sc)) == points, grid
            named = [v for v in validate(sc) if v.startswith("sweep") and "d_l_um" in v]
            assert bool(named) == (points == 0), grid

    @pytest.mark.parametrize("param", sorted(k for k, rule in SCHEMA.items() if rule.pulse))
    def test_pulse_key_sweep_rejected(self, param):
        sc = default_scenario()
        sc.sweep = {"parameter": param, "values": [0.01, 0.02]}
        assert [v for v in validate(sc) if v.startswith("sweep") and param in v]

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
        scenario = replace(default_scenario(), k_rays=101)
        layout = scenario.build_layout()
        _, focus = trace_array(layout, scenario.build_media(),
                               collimated_bundle(layout.shape, 101))
        gamma = ch.cumulative_gamma(focus)
        assert gamma != pytest.approx(1.0)
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
# Checking one against older code: run the tau_fs=1e6 and 0..1e300 cases
# only under a memory limit (ulimit -v), as unguarded they exhaust memory.
REJECTED_INPUTS = [
    ("pathloss", ["total_um=1e300"], "total_um"),
    ("sweep", ["sweep=d_l_um=0..1e300"], "sweep"),
    ("sweep", ['sweep={"parameter": "d_l_um", "start": 0, "stop": 1, "step": 1e-300}'],
     "sweep"),
    ("pulse", ["tau_fs=1e6", "waveform_dt_fs=1e-3"], "waveform_dt_fs"),
    ("pulse", ["waveform_dt_fs=1e-310"], "waveform_dt_fs"),
    ("cir", ["n_cell=1e300"], "cir_dt_fs"),
    ("cir", ["n_tissue=1e300"], "cir_dt_fs"),
    ("cir", ["total_um=1e300", "d_R_um=null"], "total_um"),
    ("cir", ["cir_dt_fs=1e-300"], "cir_dt_fs"),
    ("cir", ["cir_dt_fs=1e-310"], "cir_dt_fs"),
    ("pulse", ["tau_fs=1e-300", "waveform_dt_fs=1e-302"], "waveform_dt_fs"),
    ("trace", ["h_c_um=1e-300", "w_c_um=1e-300"], "h_c_um"),
    ("validate", ['sweep={"parameter": [1], "values": [1]}'], "sweep"),
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
    assert not out.exists() or list(out.iterdir()) == []


def test_schema_covers_every_key():
    assert list(SCHEMA) == [f.name for f in fields(Scenario) if f.name != "sweep"]


# Values no key may crash on: wrong types, signed zeros, extremes,
# subnormals, non-finite numbers, empty containers and strings.
HOSTILE = st.sampled_from([
    None, True, False, "", "x", "fusiform", "aggregate", [], {}, [1.0], {"a": 1},
    0, 1, -1, 2, 18, 2**63, 10**400, 0.0, -0.0, 0.5, 2.5, 1e300, -1e300, 1e-300,
    -1e-300, 1e-310, 5e-324, -5e-324, math.nan, math.inf, -math.inf,
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
@settings(max_examples=200, deadline=timedelta(seconds=10))
def test_any_scenario_exits_0_2_or_3(command, keys, k_rays, sweep):
    # Every input runs or is rejected: no exception escapes main.
    data = {**keys, "k_rays": k_rays, "sweep": sweep}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(data))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["--command", command, "--scenario", str(path),
                         "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3)


@pytest.fixture
def channel_calls(monkeypatch):
    """Counts calls of cellray.channel.contributions and build_cir."""
    calls = Counter()

    def counted(name):
        original = getattr(ch, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("contributions", "build_cir"):
        monkeypatch.setattr(ch, name, counted(name))
    return calls


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


def test_no_per_ray_objects(tmp_path, capsys, monkeypatch):
    """A CLI run builds no RayState or RayPath: launch and channel are arrays."""
    made = Counter()

    def counting(base):
        def init(self, *args, **kwargs):
            made[base.__name__] += 1
            base.__init__(self, *args, **kwargs)
        return type(base.__name__, (base,), {"__init__": init})

    for name in ("RayState", "RayPath"):
        monkeypatch.setattr(geo, name, counting(getattr(geo, name)))
    for command, extra in (("trace", []), ("cir", []), ("pulse", []), ("detector", []),
                           ("sweep", ["--set", "sweep=n_cells=1..3"])):
        assert main(["--command", command, "--out", str(tmp_path / command),
                     "--set", "k_rays=101", *extra]) == 0
    assert made == Counter()
    geo.RayState(0.0, 0.0, 0.0)  # the counter itself works
    assert made == Counter(RayState=1)


shape_strategy = st.one_of(
    st.builds(Spherical, r_c=st.floats(1.0, 25.0)),
    st.tuples(st.floats(2.0, 50.0), st.floats(0.05, 1.0)).map(
        lambda t: Fusiform(h_c=t[0], w_c=t[0] * t[1])),
    st.builds(Pyramidal, h_c=st.floats(2.0, 50.0), w_c=st.floats(1.0, 40.0)),
)
gap_strategy = st.one_of(st.just(0.0), st.floats(0.0, 30.0))


@given(shape_strategy, st.integers(0, 18), gap_strategy, gap_strategy, gap_strategy)
@settings(max_examples=300, deadline=None)
def test_center_line_grid_matches_walk(shape, n_cells, gap, source_gap, detector_gap):
    # The numpy grid against the 1 um walk it replaced, exactly.
    layout = ArrayLayout(shape, n_cells, gap, source_gap, detector_gap)
    got = center_line_profile(layout)
    assert [column.tolist() for column in got] == \
        list(oracle.center_line_profile(layout))


ROOT = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "perfbench" / "reference_seed0.json").read_text())
BATTERY_COMMANDS = ("trace", "pathloss", "cir", "pulse", "detector")


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
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.iterdir()}
    assert got == golden_battery[f"{shape}-{command}"]["sha256"]


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
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.iterdir()} if out.exists() else {}
    assert got == want["sha256"]
