import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellray import channel
from cellray.channel import (
    CSV_BLOCK_ROWS,
    MIN_RUN_ROWS,
    Atoms,
    DegenerateFocus,
    DetectorMap,
    EmptyChannel,
    ImpulseResponse,
    build_cir,
    contributions,
    cumulative_gamma,
    detector_map,
    focusing_gain,
    format_e12,
    power_delay_profile,
    write_csv,
)
from cellray.config import Scenario
from cellray.geometry import (
    ArrayLayout,
    FocusReport,
    CROSSED,
    MISS,
    RayBatch,
    Spherical,
    collimated_bundle,
    trace_array,
)
from cellray.optics import SPEED_OF_LIGHT_M_PER_S, Media
from conftest import CELL, TISSUE, reversed_batch
from measures import coordinate_clusters

MEDIA = Media(cell=CELL, tissue=TISSUE)


def synthetic_batch(tissue_um, cell_um=0.0, exit_h=0.0, fate=CROSSED):
    """A RayBatch of axial rays with the given per-medium path lengths.

    One ray per entry of tissue_um; the other arguments are broadcast.
    """
    tissue = np.atleast_1d(np.asarray(tissue_um, dtype=float))
    k = len(tissue)

    def column(value, dtype=float):
        return np.broadcast_to(np.asarray(value, dtype=dtype), (k,)).copy()

    fates = column(fate, np.int8)
    cell = column(cell_um)
    return RayBatch(fate=fates, loss_cell=np.where(fates == CROSSED, -1, 0),
                    exit_x=cell + tissue, exit_h=column(exit_h),
                    exit_theta=np.zeros(k), cell_length=cell, tissue_length=tissue)


def atom(batch, detector_extent_um=math.inf):
    """(delay_s, gain) of the batch's only detected atom."""
    detected, _ = contributions(batch, MEDIA, detector_extent_um)
    assert len(detected) == 1
    return float(detected.delay_s[0]), float(detected.gain[0])


def cir_of(batch, dt_s=10e-15, aggregate_gamma=None):
    """The CIR of the batch's detected atoms."""
    detected, _ = contributions(batch, MEDIA, math.inf)
    return build_cir(detected, len(batch), dt_s, aggregate_gamma)


def gain_oracle(d_a_um, d_e_um):
    def leg(mu_a, mu_s, d_mm):
        x = d_mm * math.sqrt(3.0 * mu_a * mu_s)
        return math.exp(-mu_a * d_mm * 0.5 * math.sqrt(3.0 * mu_s / mu_a)
                        * x / (1.0 + x))

    return leg(0.9, 3.43, d_a_um / 1000.0) * leg(1.34, 3.43, d_e_um / 1000.0)


class TestPathContribution:
    """One ray's atom, from contributions on a one-ray batch."""

    def test_single_tissue_segment_delay(self):
        delay_s, _ = atom(synthetic_batch(450.0))
        expected = 450e-6 * 1.35 / SPEED_OF_LIGHT_M_PER_S
        assert delay_s == pytest.approx(expected, rel=1e-15)
        assert delay_s == pytest.approx(2.026e-12, rel=1e-3)

    def test_short_path_limit(self):
        delay_s, gain = atom(synthetic_batch(1e-6))
        assert gain == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < delay_s < 1e-20

    def test_termwise_gain_oracle(self):
        d_a = 18 * 23.561944901923447
        d_e = 450.0 - d_a
        _, gain = atom(synthetic_batch(d_e, cell_um=d_a))
        assert gain == pytest.approx(gain_oracle(d_a, d_e), rel=1e-13)

    def test_rejects_leaked(self):
        # A leaked ray gives no atom, detected or outside.
        batch = synthetic_batch(10.0, fate=MISS)
        assert [len(atoms) for atoms in contributions(batch, MEDIA, 40.0)] == [0, 0]

    def test_detector_extent(self):
        batch = synthetic_batch(450.0, exit_h=25.0)
        kept, outside = contributions(batch, MEDIA, 40.0)
        assert len(kept) == 0 and len(outside) == 1
        assert outside.detector_coordinate_um.tolist() == [25.0]
        assert atom(batch) == atom(synthetic_batch(450.0))


class TestBuildCir:
    def test_single_path_single_bin(self):
        batch = synthetic_batch(450.0)
        cir = cir_of(batch)
        delay_s, gain = atom(batch)
        idx = int(round(delay_s / 10e-15))
        assert np.count_nonzero(cir.bins) == 1
        assert cir.bins[idx] == pytest.approx(gain)
        assert cir.dominant_bin()[0] == pytest.approx(idx * 10e-15)

    def test_gain_split_over_bundle(self):
        cir = cir_of(synthetic_batch([450.0] * 4))
        _, single = atom(synthetic_batch(450.0))
        assert cir.total_gain() == pytest.approx(single, rel=1e-12)

    def test_empty_channel(self):
        with pytest.raises(EmptyChannel, match="^no ray reaches the detector$"):
            cir_of(synthetic_batch(10.0, fate=MISS))
        # Detected rays whose gains all underflow to 0.0 carry no light either.
        zero = Atoms(np.array([1e-12, 2e-12]), np.zeros(2), np.array([-1.0, 1.0]))
        with pytest.raises(EmptyChannel, match="gain is 0.0"):
            build_cir(zero, 2, 10e-15, None)

    def test_aggregate_mode_scales(self):
        batch = synthetic_batch(450.0)
        base = cir_of(batch)
        scaled = cir_of(batch, aggregate_gamma=2.25)
        assert scaled.total_gain() == pytest.approx(2.25 * base.total_gain())
        assert scaled.bins.tolist() == (2.25 * base.bins).tolist()

    def test_merge_order_invariance(self):
        layout = ArrayLayout(Spherical(10.0), 18, 5.0, 5.0, 0.0)
        paths, _ = trace_array(layout, MEDIA, collimated_bundle(layout.shape, 201))
        forward = cir_of(paths)
        backward = cir_of(reversed_batch(paths))
        np.testing.assert_allclose(forward.bins, backward.bins, rtol=1e-12)

    def test_delay_ordering_and_gain_bounds(self):
        layout = ArrayLayout(Spherical(10.0), 18, 5.0, 5.0, 0.0)
        paths, report = trace_array(layout, MEDIA,
                                    collimated_bundle(layout.shape, 201))
        floor = layout.total_length * 1e-6 * 1.35 / SPEED_OF_LIGHT_M_PER_S
        detected, _ = contributions(paths, MEDIA, math.inf)
        assert detected
        assert (detected.delay_s >= floor * (1.0 - 1e-12)).all()
        assert ((0.0 < detected.gain) & (detected.gain < 1.0)).all()
        cir = cir_of(paths)
        assert cir.total_gain() <= 1.0
        assert cir.total_gain() <= cumulative_gamma(report)

    def test_more_cells_arrive_later(self):
        delays = []
        for n in (0, 6, 12, 18):
            span = n * 20.0 + max(n - 1, 0) * 5.0
            layout = ArrayLayout(Spherical(10.0), n, 5.0, 5.0, 450.0 - 5.0 - span)
            paths, _ = trace_array(layout, MEDIA,
                                   collimated_bundle(layout.shape, 201))
            cir = cir_of(paths)
            delays.append(cir.dominant_bin()[0])
        assert delays == sorted(delays)


class TestPowerDelayProfile:
    def test_zero_and_square(self):
        cir = ImpulseResponse(0.0, 1e-14, np.zeros(8))
        assert not power_delay_profile(cir).bins.any()
        cir.bins[3] = 0.5
        pdp = power_delay_profile(cir)
        assert pdp.bins[3] == pytest.approx(0.25)
        assert pdp.dt == cir.dt and pdp.t0 == cir.t0

    def test_energy_matches_per_path_sum(self):
        # Distinct delays, one atom per bin, so PDP energy is sum of g^2/K^2.
        lengths = [100.0 * (i + 1) for i in range(5)]
        cir = cir_of(synthetic_batch(lengths))
        pdp = power_delay_profile(cir)
        k = len(lengths)
        expected = sum((atom(synthetic_batch(d))[1] / k) ** 2 for d in lengths)
        assert pdp.bins.sum() == pytest.approx(expected, rel=1e-12)


class TestFocusingGain:
    def report(self, radii, source=15.0, detector=10.0):
        n = len(radii)
        return FocusReport(source_radius=source, radius=np.array(radii, dtype=float),
                           theta_f=np.full(n, 0.1), x_f=np.full(n, 50.0),
                           detector_radius=detector)

    def test_unit_ratio(self):
        gammas = focusing_gain(self.report([15.0], detector=15.0))
        assert gammas == [pytest.approx(1.0), pytest.approx(1.0)]

    def test_area_ratio(self):
        gammas = focusing_gain(self.report([10.0], source=15.0, detector=10.0))
        assert gammas[0] == pytest.approx(2.25)

    def test_cumulative_telescopes(self):
        report = self.report([12.0, 4.0, 9.0], source=15.0, detector=5.0)
        assert cumulative_gamma(report) == pytest.approx((15.0 / 5.0) ** 2, rel=1e-12)

    def test_degenerate_focus(self):
        with pytest.raises(DegenerateFocus):
            focusing_gain(self.report([1e-5]))

    def test_fusiform_run_alternates(self):
        from cellray.geometry import Fusiform

        layout = ArrayLayout(Fusiform(30.0, 20.0), 18, 5.0, 5.0, 0.0)
        _, report = trace_array(layout, MEDIA, collimated_bundle(layout.shape, 301))
        gammas = focusing_gain(report)
        assert any(g > 1.0 for g in gammas) and any(g < 1.0 for g in gammas)


class TestDetectorMap:
    def test_free_space_uniform(self):
        layout = ArrayLayout(Spherical(10.0), 0, 5.0, 5.0, 445.0)
        paths, _ = trace_array(layout, MEDIA, collimated_bundle(layout.shape, 51))
        dmap = detector_map(contributions(paths, MEDIA, 40.0)[0])
        powers = [p for _, p, _ in dmap.samples]
        assert len(dmap.samples) == 51
        assert all(p == pytest.approx(1.0) for p in powers)
        coords = [c for c, _, _ in dmap.samples]
        assert coords == sorted(coords)

    def test_zero_gain_and_no_atoms(self):
        zero = Atoms(np.array([1e-12, 2e-12]), np.zeros(2), np.array([-1.0, 1.0]))
        with np.errstate(all="raise"), pytest.raises(EmptyChannel, match="gain is 0.0"):
            detector_map(zero)
        assert detector_map(zero.select(np.zeros(2, bool))).samples.shape == (0, 3)

    def test_extent_filters(self):
        layout = ArrayLayout(Spherical(10.0), 0, 5.0, 5.0, 445.0)
        paths, _ = trace_array(layout, MEDIA, collimated_bundle(layout.shape, 51))
        dmap = detector_map(contributions(paths, MEDIA, 10.0)[0])
        assert all(abs(c) <= 5.0 for c, _, _ in dmap.samples)
        assert 0 < len(dmap.samples) < 51

    def test_cluster_splitting(self):
        dmap_samples = [(-18.0, 0.4, 2e-12), (-17.9, 0.4, 2e-12),
                        (-3.0, 1.0, 2e-12), (-2.8, 0.9, 2e-12), (0.0, 1.0, 2e-12)]
        clusters = coordinate_clusters(DetectorMap(dmap_samples), gap_um=1.0)
        assert len(clusters) == 2


def csv_writer_bytes(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308, math.inf, -math.inf,
                     math.nan]))
PLAIN_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126,
                                   blacklist_characters=',"'), max_size=8)
# Finite, with two-digit exponents: a column of one sign drawn from one of
# these has one field width, which write_csv writes by its fixed-width path.
NON_NEGATIVE = st.just(0.0) | st.floats(1e-99, 9e99)
NEGATIVE = st.just(-0.0) | st.floats(-9e99, -1e-99)


def mostly_zero(values):
    """A few values among more zeros, -0.0 among them or not: format_e12 stamps the zeros."""
    return st.tuples(st.lists(values, min_size=1, max_size=3), st.integers(4, 12),
                     st.booleans()).map(lambda t: t[0] + [0.0] * t[1] + [-0.0] * t[2])


E12_FIELDS = st.tuples(
    st.just(np.float64),
    st.one_of(*(st.lists(values, min_size=1, max_size=12) for values in
                (FLOATS, NON_NEGATIVE, NEGATIVE)),
              *(mostly_zero(values) for values in (FLOATS, NON_NEGATIVE, NEGATIVE))),
    st.just(lambda v: f"{v:.12e}"))
INTEGER_FIELDS = st.sampled_from([np.int8, np.int64, np.uint8, np.uint64]).flatmap(
    lambda dtype: st.tuples(
        st.just(dtype),
        st.lists(st.integers(int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)),
                 min_size=1, max_size=12),
        st.just(lambda v: v)))
# (column dtype, values, the field csv.writer gets for a value): the dtype
# sets the format, %.12e for floats, %d for integers and %s for str and bytes.
FIELDS = st.one_of(
    E12_FIELDS,
    INTEGER_FIELDS,
    st.tuples(st.sampled_from([np.str_, np.bytes_]),
              st.lists(PLAIN_TEXT, min_size=1, max_size=12), st.just(lambda v: v)),
)


def through_zero(n, at):
    """n increasing values, -0.0 at row at - 1 and 0.0 at row at: the sign flips at row at."""
    return np.concatenate((-np.linspace(40.0, 1e-3, at - 1), [-0.0, 0.0],
                           np.linspace(1e-3, 40.0, n - at - 1)))


def in_sign_runs(n, runs):
    """n values whose sign alternates over `runs` runs of the first block's rows."""
    column = np.linspace(1.0, 2.0, n)
    edges = np.linspace(0, CSV_BLOCK_ROWS, runs + 1).astype(int)
    for a, b in zip(edges[1::2], edges[2::2]):
        column[a:b] *= -1.0
    return column


def with_value(column, row, value):
    column = column.copy()
    column[row] = value
    return column


TWO_BLOCKS = CSV_BLOCK_ROWS + 37
POWER = np.linspace(1e-3, 1.0, TWO_BLOCKS)
DELAY = np.linspace(2e-12, 3e-12, TWO_BLOCKS)
MID = through_zero(TWO_BLOCKS, 3000)
# (columns, whether each block takes the fixed-width path, run by run)
SIGN_RUN_CASES = {
    "zero-mid-block": ((MID, POWER, DELAY), [True, False]),
    "zero-at-block-edge": ((through_zero(TWO_BLOCKS, CSV_BLOCK_ROWS), POWER, DELAY),
                           [True, False]),
    "two-columns-flip-apart": ((through_zero(TWO_BLOCKS, 100),
                                -through_zero(TWO_BLOCKS, 5000), DELAY), [True, False]),
    "runs-at-cap": ((in_sign_runs(TWO_BLOCKS, CSV_BLOCK_ROWS // MIN_RUN_ROWS), POWER),
                    [True, False]),
    "runs-over-cap": ((in_sign_runs(TWO_BLOCKS, CSV_BLOCK_ROWS // MIN_RUN_ROWS + 1), POWER),
                      [False, False]),
    # The last block's 37 rows cross zero: too few rows for two runs.
    "zero-in-short-block": ((through_zero(TWO_BLOCKS, CSV_BLOCK_ROWS + 20), POWER),
                            [True, False]),
    "alternating": ((np.linspace(1.0, 2.0, TWO_BLOCKS) * (-1.0) ** np.arange(TWO_BLOCKS),),
                    [False, False]),
    "nan-in-a-run": ((MID, with_value(POWER, 5, math.nan), DELAY), [False, False]),
    "inf-in-a-run": ((MID, with_value(POWER, CSV_BLOCK_ROWS + 3, math.inf), DELAY),
                     [True, False]),
    "minus-inf-in-a-run": ((with_value(MID, 10, -math.inf), POWER, DELAY), [False, False]),
    # Among positive values, -inf is a run of its own row: one width.
    "minus-inf-alone": ((MID, POWER, with_value(DELAY, 5000, -math.inf)), [True, False]),
    "three-digit-exponent": ((MID, with_value(POWER, 2999, 1e-120), DELAY), [False, False]),
    # One run is held to the same average as several.
    "one-run-under-min": ((POWER[:MIN_RUN_ROWS - 1], DELAY[:MIN_RUN_ROWS - 1]), [False]),
    "one-run-at-min": ((POWER[:MIN_RUN_ROWS], DELAY[:MIN_RUN_ROWS]), [True]),
}


class TestWriteCsv:
    @pytest.mark.parametrize("n_rows", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                        CSV_BLOCK_ROWS + 1])
    @given(fields=st.lists(FIELDS, min_size=2, max_size=5)
           | st.lists(E12_FIELDS, min_size=1, max_size=4),
           runs=st.lists(st.sampled_from([1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS]),
                         min_size=5, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_same_bytes_as_csv_writer(self, tmp_path_factory, n_rows, fields, runs):
        tmp = tmp_path_factory.mktemp("csv")
        header = [f"c{j}" for j in range(len(fields))]
        # Column j cycles through its drawn values, offset so rows differ,
        # moving on every runs[j] rows: every row, or at or one row before
        # a block edge.
        columns = [[values[(i // run + j) % len(values)] for i in range(n_rows)]
                   for j, ((_, values, _), run) in enumerate(zip(fields, runs))]
        write_csv(tmp / "got.csv", header,
                  [np.array(column, dtype=dtype) for (dtype, _, _), column
                   in zip(fields, columns)])
        rows = [[field(column[i]) for (_, _, field), column in zip(fields, columns)]
                for i in range(n_rows)]
        assert (tmp / "got.csv").read_bytes() == \
            csv_writer_bytes(tmp / "want.csv", header, rows)

    @pytest.mark.parametrize("case", SIGN_RUN_CASES)
    def test_sign_runs_same_bytes_as_csv_writer(self, tmp_path, monkeypatch, case):
        columns, fixed_width = SIGN_RUN_CASES[case]
        taken = []
        sign_runs = channel._sign_runs

        def spy(rows, values):
            runs = sign_runs(rows, values)
            taken.append(runs is not None)
            return runs

        monkeypatch.setattr(channel, "_sign_runs", spy)
        header = [f"c{j}" for j in range(len(columns))]
        write_csv(tmp_path / "got.csv", header, columns)
        assert taken == fixed_width
        rows = [[f"{v:.12e}" for v in row] for row in zip(*(c.tolist() for c in columns))]
        assert (tmp_path / "got.csv").read_bytes() == \
            csv_writer_bytes(tmp_path / "want.csv", header, rows)

    def test_rejects_ragged_columns(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "x.csv", ["a", "b"], [[1, 2], [1]])

    def test_rejects_no_columns(self, tmp_path):
        with pytest.raises(ValueError, match="at least one column"):
            write_csv(tmp_path / "x.csv", [], [])
        assert not (tmp_path / "x.csv").exists()

    def test_rejects_header_of_other_length(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "x.csv", ["a"], [[1], [2]])

    def test_empty_columns_write_the_header(self, tmp_path):
        # numpy types an empty sequence as float64, so it takes %.12e and no row.
        write_csv(tmp_path / "x.csv", ["a", "b"], [[], np.array([], dtype="<U1")])
        assert (tmp_path / "x.csv").read_bytes() == b"a,b\r\n"


def e12_text(values):
    """format_e12's fields as text, after checking that each is right-aligned.

    A right-aligned field has no NUL byte after its first non-NUL byte.
    """
    texts = [row.tobytes().lstrip(b"\0") for row in format_e12(values)]
    assert not any(b"\0" in text for text in texts)
    return [text.decode() for text in texts]


def neighbours(values, ulps):
    """The values with their float64 neighbours up to ulps steps either side."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    return (bits[:, None] + np.arange(-ulps, ulps + 1)).ravel().view(np.float64)


def halfway_points(count, seed=0):
    """Decimals d.dddddddddddd5e+-k, halfway between two 13-digit significands."""
    rng = np.random.default_rng(seed)
    return [float(f"{d}.{m:012d}5e{k}") for d, m, k in
            zip(rng.integers(1, 10, count), rng.integers(0, 10**12, count),
                rng.integers(-99, 100, count))]


_E12_TARGETS = np.concatenate([
    neighbours([float(f"1e{k}") for k in range(-99, 100)], 4),
    # 9.9999999999995e+-k rounds up to a significand of 10: the carry.
    neighbours([float(f"9.9999999999995e{k}") for k in range(-99, 100)], 4),
    neighbours(halfway_points(400), 8),
    [0.0, math.nan, math.inf, 5e-324, 1e-310, 2.2250738585072009e-308,
     2.2250738585072014e-308, 1e-100, 9.99999999999995e-100, 1e100, 9.9999999999999e99,
     1.7976931348623157e308],
])
E12_TARGETS = np.concatenate([_E12_TARGETS, -_E12_TARGETS])


class TestFormatE12:
    def test_targeted_values(self):
        # Powers of ten, the carry, halfway points inside the guard band,
        # subnormals, 3-digit exponents, signed zeros and non-finite values.
        assert e12_text(E12_TARGETS) == ["%.12e" % v for v in E12_TARGETS.tolist()]
        # Mostly zeros of both signs: the zero fields are stamped.
        sparse = np.zeros(3 * len(E12_TARGETS))
        sparse[1::6] = -0.0
        sparse[::3] = E12_TARGETS
        assert e12_text(sparse) == ["%.12e" % v for v in sparse.tolist()]
        # Zeros of one sign alone (no value formatted), and -0.0 among a few
        # non-zeros of both signs, NaN among them.
        for block in (np.zeros(64), np.full(64, -0.0),
                      np.r_[np.full(7, -0.0), -1.5, 0.0, 2.0, -math.nan]):
            assert e12_text(block) == ["%.12e" % v for v in block.tolist()]

    @given(st.lists(st.one_of(
        st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))),
        st.sampled_from(E12_TARGETS.tolist()), st.sampled_from([0.0, -0.0])),
        min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_same_text_as_percent(self, values):
        assert e12_text(values) == ["%.12e" % v for v in values]

    def test_empty(self):
        assert format_e12([]).shape == (0, 5)


@pytest.mark.parametrize("column", [[True], [1 + 2j], np.array([1.0], dtype=object)],
                         ids=["bool", "complex", "object"])
def test_write_csv_rejects_other_dtypes(tmp_path, column):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "x.csv", ["a", "b"], [[1.0], column])
    assert not (tmp_path / "x.csv").exists()


@given(st.sampled_from(["fusiform", "spherical", "pyramidal"]), st.integers(1, 301),
       st.integers(0, 18), st.floats(0.0, 10.0), st.floats(0.0, 100.0),
       st.one_of(st.just(math.inf), st.floats(0.001, 200.0)))
@settings(max_examples=60, deadline=None)
def test_atom_gain_in_unit_interval(shape, k, n_cells, gap, detector_gap, extent):
    # A gain is a product of two transmittances: positive and at most 1.
    scenario = replace(Scenario(shape=shape), n_cells=n_cells, d_l_um=gap,
                       d_R_um=detector_gap, total_um=None)
    layout = scenario.build_layout()
    batch, _ = trace_array(layout, MEDIA, collimated_bundle(layout.shape, k))
    for atoms in contributions(batch, MEDIA, extent):
        assert ((atoms.gain > 0.0) & (atoms.gain <= 1.0)).all()
