import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal import hilbert

import cellray
from cellray.channel import ImpulseResponse, build_cir, contributions
from cellray.geometry import ArrayLayout, Fusiform, collimated_bundle, trace_array
from cellray.optics import SPEED_OF_LIGHT_M_PER_S, Media, Wavelength
from cellray.signal import (
    IllConditioned,
    UnderResolved,
    Waveform,
    envelope,
    estimate_channel,
    gaussian_pulse,
    propagate,
    received_pulse,
    spectrum,
)
from conftest import CELL, TISSUE
from measures import energy

LAM = Wavelength(456.0)
TAU = 1e-15
DT = 0.05e-15


@pytest.fixture
def tx() -> Waveform:
    return gaussian_pulse(1.0, TAU, LAM, DT)


def delta_channel(delay_s: float, gain: float, dt: float = DT) -> ImpulseResponse:
    bins = np.zeros(int(round(delay_s / dt)) + 1)
    bins[-1] = gain
    return ImpulseResponse(0.0, dt, bins)


def envelope_fwhm(w: Waveform) -> float:
    env = envelope(w)
    t = w.times
    above = t[env >= env.max() / 2.0]
    return float(above[-1] - above[0])


class TestGaussianPulse:
    def test_centre_sample_is_peak_field(self, tx):
        assert tx.samples[len(tx.samples) // 2] == pytest.approx(1.0)
        assert tx.times[len(tx.samples) // 2] == pytest.approx(0.0, abs=1e-30)

    def test_envelope_fwhm_is_tau(self, tx):
        assert envelope_fwhm(tx) == pytest.approx(TAU, abs=DT)

    def test_half_maximum_at_half_tau(self, tx):
        # tau/2 = 10 samples from centre at the default grid; the sampled
        # field there is (E0/2) * cos(w0 tau/2) by construction.
        centre = len(tx.samples) // 2
        offset = int(round(TAU / 2 / DT))
        expected = 0.5 * math.cos(LAM.omega0_rad_per_s * TAU / 2.0)
        assert tx.samples[centre + offset] == pytest.approx(expected, rel=1e-12)
        # The analytic-signal envelope approximates E0/2 with the distortion
        # a two-cycle pulse incurs from positive-frequency truncation.
        env = envelope(tx)
        assert env[centre + offset] == pytest.approx(0.5, abs=0.03)

    def test_carrier_frequency(self, tx):
        assert LAM.omega0_rad_per_s / (2 * math.pi) == pytest.approx(6.574e14, rel=1e-3)
        # A long pulse concentrates the spectrum at the carrier.
        long_tx = gaussian_pulse(1.0, 50e-15, LAM, DT)
        sp = spectrum(long_tx)
        assert sp.peak_frequency() == pytest.approx(
            SPEED_OF_LIGHT_M_PER_S / 456e-9, abs=sp.df)

    def test_under_resolved(self):
        with pytest.raises(UnderResolved):
            gaussian_pulse(1.0, TAU, LAM, dt_s=0.2e-15)

    def test_step_must_sample_the_carrier(self):
        # lambda/(2c) is 0.7605 fs at 456 nm; tau/10 admits both steps.
        limit = math.pi / LAM.omega0_rad_per_s
        assert limit == pytest.approx(456e-9 / (2 * SPEED_OF_LIGHT_M_PER_S), rel=1e-15)
        with pytest.raises(UnderResolved):
            gaussian_pulse(1.0, 100e-15, LAM, dt_s=0.7606e-15)
        tx = gaussian_pulse(1.0, 100e-15, LAM, dt_s=0.76e-15)
        assert spectrum(tx).peak_frequency() == pytest.approx(
            SPEED_OF_LIGHT_M_PER_S / 456e-9, abs=spectrum(tx).df)


class TestReceivedPulse:
    def test_identity(self, tx):
        rx = received_pulse(tx, 0.0, 1.0)
        np.testing.assert_array_equal(rx.samples, tx.samples)
        assert rx.t0 == tx.t0

    def test_shift_moves_envelope_peak(self, tx):
        rx = received_pulse(tx, 2e-12, 1.0)
        t_peak = rx.times[int(np.argmax(envelope(rx)))]
        assert t_peak == pytest.approx(2e-12, abs=DT / 2)

    def test_scales_by_gamma_and_attenuation(self, tx):
        # The gain a CIR carries in aggregate mode: gamma times the transmittance.
        rx = received_pulse(tx, 1e-12, 2.25 * 0.8)
        assert rx.samples.max() == pytest.approx(2.25 * 0.8 * tx.samples.max())


@st.composite
def sparse_bins(draw) -> np.ndarray:
    """CIR bins: a zero run, a body of atoms, +-0.0 among them, and a zero tail.

    The runs straddle len(tx.samples) - 1 = 160, where the window starts
    moving off bin 0.
    """
    lead = draw(st.sampled_from([0, 1, 159, 160, 161]) | st.integers(0, 3000))
    body = draw(st.lists(st.sampled_from([0.0, -0.0])
                         | st.floats(-2.0, 2.0, allow_subnormal=False),
                         min_size=1, max_size=40))
    tail = draw(st.sampled_from([0, 1]) | st.integers(0, 300))
    bins = np.zeros(lead + len(body) + tail)
    bins[lead:lead + len(body)] = body
    return bins


# propagate against np.convolve on window edge cases, for a child process
# that runs another BLAS dot kernel or numpy SIMD dispatch.
WINDOW_CHECK = """
import numpy as np
from cellray.channel import ImpulseResponse
from cellray.optics import Wavelength
from cellray.signal import gaussian_pulse, propagate

tx = gaussian_pulse(1.0, 1e-15, Wavelength(456.0), 0.02e-15)
rng = np.random.default_rng(0)
cases = [np.zeros(5000), np.full(5000, -0.0), np.r_[np.zeros(4999), 0.7]]
for lead in (0, 1, 399, 400, 401, 4000, 100000):
    for tail in (0, 1, 777):
        body = rng.uniform(-2.0, 2.0, 38)
        body[rng.integers(0, 38, 10)] = 0.0
        body[[0, 7]] = -0.0, 0.0
        cases.append(np.r_[np.zeros(lead), body, np.zeros(tail)])
for bins in cases:
    got = propagate(tx, ImpulseResponse(0.0, tx.dt, bins)).samples
    want = np.convolve(tx.samples, bins)
    assert np.array_equal(got, want), len(bins)
    assert np.array_equal(np.signbit(got), np.signbit(want)), len(bins)
"""


class TestPropagate:
    def test_unit_delta_identity(self, tx):
        cir = ImpulseResponse(0.0, DT, np.array([1.0]))
        rx = propagate(tx, cir)
        np.testing.assert_allclose(rx.samples, tx.samples)

    def test_scaled_delayed_delta(self, tx):
        rx = propagate(tx, delta_channel(2e-12, 0.5))
        t_peak = rx.times[int(np.argmax(envelope(rx)))]
        assert t_peak == pytest.approx(2e-12, abs=DT)
        assert np.max(np.abs(rx.samples)) == pytest.approx(0.5, rel=1e-9)
        assert len(rx.samples) == len(tx.samples) + 40001 - 1

    def test_two_paths_resolved(self, tx):
        bins = np.zeros(int(round(0.1e-12 / DT)) + 1)
        bins[0] = 0.5
        bins[-1] = 0.5
        rx = propagate(tx, ImpulseResponse(0.0, DT, bins))
        env = envelope(rx)
        peaks = [i for i in range(1, len(env) - 1)
                 if env[i] >= env[i - 1] and env[i] > env[i + 1]
                 and env[i] > 0.4 * env.max()]
        assert len(peaks) == 2
        # Direct two-term superposition oracle.
        direct = np.zeros(len(tx.samples) + len(bins) - 1)
        direct[:len(tx.samples)] += 0.5 * tx.samples
        direct[len(bins) - 1:] += 0.5 * tx.samples
        np.testing.assert_allclose(rx.samples, direct, atol=1e-15)

    def test_mismatched_step_rejected(self, tx):
        with pytest.raises(ValueError):
            propagate(tx, ImpulseResponse(0.0, 1e-14, np.array([1.0])))

    # Subnormal coefficients carry absolute, not relative, precision: with
    # a = 0 and b = 2.2e-313 the inputs themselves round to a few bits and no
    # convolution can be linear to 1e-12 relative, so they are not drawn.
    @given(st.floats(-2.0, 2.0, allow_subnormal=False),
           st.floats(-2.0, 2.0, allow_subnormal=False))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b):
        tx1 = gaussian_pulse(1.0, TAU, LAM, DT)
        tx2 = gaussian_pulse(0.4, TAU, LAM, DT)
        cir = delta_channel(0.5e-12, 0.7)
        mixed = Waveform(tx1.t0, DT, a * tx1.samples + b * tx2.samples)
        lhs = propagate(mixed, cir).samples
        rhs = a * propagate(tx1, cir).samples + b * propagate(tx2, cir).samples
        scale = np.max(np.abs(rhs)) or 1.0
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-12

    @given(sparse_bins())
    @example(np.zeros(400))  # no non-zero bin
    @example(np.full(400, -0.0))
    @example(np.r_[0.5, np.zeros(399)])  # an atom at bin 0
    @example(np.r_[np.zeros(3000), 0.5])  # an atom at the last bin only
    @example(np.r_[np.zeros(3000), -0.0, 0.5, -0.25, 0.0])
    @settings(max_examples=200, deadline=None)
    def test_window_equals_full_convolution(self, bins):
        tx = gaussian_pulse(1.0, TAU, LAM, DT)
        got = propagate(tx, ImpulseResponse(0.0, DT, bins)).samples
        want = np.convolve(tx.samples, bins)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("env", [
        {"OPENBLAS_CORETYPE": "Prescott"},
        {"OPENBLAS_CORETYPE": "Haswell"},
        {"OPENBLAS_CORETYPE": "Sandybridge"},
        {"NPY_DISABLE_CPU_FEATURES": "AVX512_ICL AVX512_SPR X86_V4"},
    ], ids=lambda env: next(iter(env.values())).split()[0])
    def test_window_under_other_kernels(self, env):
        # A dot kernel whose sums depend on the length or alignment of the
        # window would make the windowed samples differ from np.convolve's.
        src = str(Path(cellray.__file__).resolve().parent.parent)
        child = subprocess.run([sys.executable, "-c", WINDOW_CHECK],
                               env={**os.environ, **env, "PYTHONPATH": src},
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr


class TestEstimateChannel:
    def test_self_estimate_is_unit_delta(self, tx):
        h = estimate_channel(tx, tx)
        t, amp = h.dominant_bin()
        assert t == 0.0
        assert amp == pytest.approx(1.0, abs=1e-6)

    def test_synthetic_round_trip(self, tx):
        rx = propagate(tx, delta_channel(2e-12, 0.5))
        h = estimate_channel(tx, rx)
        t, amp = h.dominant_bin()
        assert t == pytest.approx(2e-12, abs=DT)
        assert amp == pytest.approx(0.5, rel=0.01)

    def test_shift_covariance(self, tx):
        rx = propagate(tx, delta_channel(1e-12, 0.6))
        pad = 64
        tx_shift = Waveform(tx.t0 - pad * DT, DT,
                            np.concatenate([np.zeros(pad), tx.samples]))
        rx_shift = Waveform(rx.t0 - pad * DT, DT,
                            np.concatenate([np.zeros(pad), rx.samples]))
        h = estimate_channel(tx, rx)
        h_shift = estimate_channel(tx_shift, rx_shift)
        assert h_shift.dominant_bin()[0] == pytest.approx(h.dominant_bin()[0],
                                                          abs=DT)

    def test_ill_conditioned(self):
        # Narrowband pulses at well-separated carriers share no spectrum.
        tau = 50e-15
        tx = gaussian_pulse(1.0, tau, Wavelength(456.0), DT)
        rx = gaussian_pulse(1.0, tau, Wavelength(228.0), DT)
        with pytest.raises(IllConditioned):
            estimate_channel(tx, rx)

    def test_cross_module_dominant_delay(self, media, lam):
        layout = ArrayLayout(Fusiform(30.0, 20.0), 18, 5.0, 5.0, 0.0)
        paths, _ = trace_array(layout, media, collimated_bundle(layout.shape, 201))
        cir = build_cir(contributions(paths, media, math.inf)[0], len(paths), DT, None)
        tx = gaussian_pulse(1.0, TAU, lam, DT)
        rx = propagate(tx, cir)
        est = estimate_channel(tx, rx)
        # Compare at the coarse channel resolution: nearest coarse bin of the
        # estimated peak matches the built CIR's dominant bin within one bin.
        coarse = build_cir(contributions(paths, media, math.inf)[0], len(paths), 10e-15, None)
        est_t, _ = est.dominant_bin()
        ref_t, _ = coarse.dominant_bin()
        assert abs(est_t - ref_t) <= 10e-15

    def test_energy_inequality(self, media, lam):
        layout = ArrayLayout(Fusiform(30.0, 20.0), 18, 5.0, 5.0, 0.0)
        paths, report = trace_array(layout, media,
                                    collimated_bundle(layout.shape, 201))
        from cellray.channel import cumulative_gamma

        cir = build_cir(contributions(paths, media, math.inf)[0], len(paths), DT, None)
        tx = gaussian_pulse(1.0, TAU, lam, DT)
        rx = propagate(tx, cir)
        assert energy(rx) <= cumulative_gamma(report) * energy(tx)


class TestSpectrum:
    def test_parseval(self, tx):
        full = np.fft.fft(tx.samples)
        freq_energy = np.sum(np.abs(full) ** 2) / len(tx.samples) * tx.dt
        assert energy(tx) == pytest.approx(freq_energy, rel=1e-9)

    def test_broadband_peak_preserved_by_delay(self, tx):
        rx = received_pulse(tx, 2e-12, 0.7)
        assert spectrum(rx).peak_frequency() == spectrum(tx).peak_frequency()

    def test_frequency_axis(self, tx):
        sp = spectrum(tx)
        assert sp.df == pytest.approx(1.0 / (len(tx.samples) * tx.dt))
        assert len(sp.amps) == len(tx.samples) // 2 + 1

    def test_amps_are_the_rfft_magnitudes(self, tx):
        rx = received_pulse(tx, 2e-12, 0.7)
        for w in (tx, rx, Waveform(0.0, DT, np.array([0.0, -0.0, 5e-324, -1.0]))):
            sp = spectrum(w)
            assert sp.amps.tobytes() == np.abs(np.fft.rfft(w.samples)).tobytes()
            assert sp.peak_frequency() == sp.df * int(np.argmax(sp.amps))


@pytest.mark.parametrize("n", [8, 9, 160, 161])
def test_envelope_is_the_analytic_signal_magnitude(tx, n):
    # Every pulse has an odd sample count: the even ones take envelope's other branch.
    start = (len(tx.samples) - n) // 2
    w = Waveform(0.0, DT, tx.samples[start:start + n])
    expected = np.abs(hilbert(w.samples))
    assert np.abs(envelope(w) - expected).max() <= 1e-12 * expected.max()


@pytest.mark.parametrize("call, message", [
    (lambda: gaussian_pulse(1.0, 0.0, LAM, DT), "tau must be positive"),
    (lambda: received_pulse(gaussian_pulse(1.0, TAU, LAM, DT), -1e-15, 1.0),
     "delay must be non-negative"),
    (lambda: estimate_channel(Waveform(0.0, DT, np.ones(4)), Waveform(0.0, 2 * DT, np.ones(4))),
     "waveforms must share one sample step"),
], ids=["pulse-tau-0", "received-pulse-negative-delay", "estimate-unequal-steps"])
def test_signal_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_waveform_validation():
    for dt in (0.0, -0.0, -DT):
        with pytest.raises(ValueError, match="sample step must be positive"):
            Waveform(0.0, dt, np.zeros(100))
