"""Femtosecond Gaussian pulses, channel convolution and spectral estimation.

Waveforms are carrier-resolved real field samples, Re{E0 * exp(-4 ln2
(t/tau)^2 + i w0 t)}, not complex envelopes; the default 0.05 fs step puts
about 30 samples on one 456 nm carrier cycle.  The media are dispersionless
here, so group and phase velocity coincide at c/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ImpulseResponse, write_csv
from .optics import Wavelength

LN2 = math.log(2.0)


class UnderResolved(Exception):
    """The sample step cannot resolve the pulse envelope or sample its carrier."""


class IllConditioned(Exception):
    """The excitation has no energy over most of the band the response occupies."""


@dataclass(eq=False)
class Waveform:
    """Real field samples at the times t0 + k*dt (s), k = 0, 1, ...; dt > 0."""

    t0: float
    dt: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError("sample step must be positive")
        self.samples = np.asarray(self.samples, dtype=float)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.samples))


@dataclass(eq=False)
class Spectrum:
    """One-sided discrete spectrum of a real waveform: each bin's magnitude."""

    df: float
    amps: np.ndarray

    @property
    def frequencies(self) -> np.ndarray:
        return self.df * np.arange(len(self.amps))

    def peak_frequency(self) -> float:
        return self.df * int(np.argmax(self.amps))


def _field(t: np.ndarray, e0: float, tau: float, omega0: float) -> np.ndarray:
    return e0 * np.exp(-4.0 * LN2 * (t / tau) ** 2) * np.cos(omega0 * t)


def pulse_samples(tau_s: float, dt_s: float) -> int:
    """Samples on gaussian_pulse's 8 tau grid: 2*round(4 tau/dt) + 1."""
    return 2 * round(4.0 * tau_s / dt_s) + 1


def samples_carrier(dt_s: float, omega0: float) -> bool:
    """Whether dt_s samples a carrier of omega0 rad/s: dt < pi/omega0 = lambda/(2c).

    A coarser step aliases the carrier, and every pulse output would
    describe another signal.
    """
    return dt_s * omega0 < math.pi


def resolves_envelope(tau_s: float, dt_s: float) -> bool:
    """Whether dt_s resolves the envelope of a tau_s FWHM pulse: dt < tau/10."""
    return dt_s < tau_s / 10.0


def gaussian_pulse(e0: float, tau_s: float, wavelength: Wavelength,
                   dt_s: float) -> Waveform:
    """Carrier-resolved Gaussian pulse centred on t = 0, spanning 8 tau.

    The grid is symmetric and lands exactly on t = 0, where the field
    equals e0.  Raises UnderResolved for a step that cannot resolve the
    envelope (resolves_envelope) or sample the carrier (samples_carrier).
    """
    if tau_s <= 0.0:
        raise ValueError("tau must be positive")
    if not resolves_envelope(tau_s, dt_s):
        raise UnderResolved(f"dt {dt_s} cannot resolve tau {tau_s}")
    if not samples_carrier(dt_s, wavelength.omega0_rad_per_s):
        raise UnderResolved(f"dt {dt_s} cannot sample the {wavelength.nm} nm carrier")
    half = pulse_samples(tau_s, dt_s) // 2
    t = dt_s * np.arange(-half, half + 1)
    return Waveform(t0=-half * dt_s, dt=dt_s,
                    samples=_field(t, e0, tau_s, wavelength.omega0_rad_per_s))


def received_pulse(tx: Waveform, t_d_s: float, gain: float) -> Waveform:
    """Delayed single-copy receive model: gain * pulse(t - t_d).

    gain is the channel's total gain, a CIR's total_gain(): the medium
    transmittance, times the focusing ratio gamma when the CIR carries it.
    The output grid is the transmit grid shifted by exactly t_d, so the
    envelope peak moves by t_d and scales by gain.
    """
    if t_d_s < 0.0:
        raise ValueError("delay must be non-negative")
    return Waveform(t0=tx.t0 + t_d_s, dt=tx.dt, samples=gain * tx.samples)


def propagate(tx: Waveform, cir: ImpulseResponse) -> Waveform:
    """Discrete linear convolution of the waveform with the channel bins.

    Requires matching sample steps.  Only the CIR's bins from
    start = max(first non-zero bin - (len(tx.samples) - 1), 0) on are
    convolved.  Every output sample before start sums only zero bins,
    which np.convolve makes +0.0, and every later one is the dot product
    the full np.convolve takes, over the same values and the same window
    length, so the samples are bit for bit those of
    np.convolve(tx.samples, cir.bins).  A CIR of all zeros gives
    first = 0 and is convolved in full.
    """
    if not math.isclose(tx.dt, cir.dt, rel_tol=1e-12, abs_tol=0.0):
        raise ValueError("waveform and channel must share one sample step")
    first = int(np.argmax(cir.bins != 0.0)) if len(cir.bins) else 0
    start = max(first - (len(tx.samples) - 1), 0)
    samples = np.zeros(len(tx.samples) + len(cir.bins) - 1)
    samples[start:] = np.convolve(tx.samples, cir.bins[start:])
    return Waveform(t0=tx.t0 + cir.t0, dt=tx.dt, samples=samples)


def envelope(w: Waveform) -> np.ndarray:
    """Magnitude of the analytic signal (positive-frequency reconstruction)."""
    n = len(w.samples)
    transform = np.fft.fft(w.samples)
    mask = np.zeros(n)
    mask[0] = 1.0
    if n % 2 == 0:
        mask[n // 2] = 1.0
        mask[1:n // 2] = 2.0
    else:
        mask[1:(n + 1) // 2] = 2.0
    return np.abs(np.fft.ifft(transform * mask))


def spectrum(w: Waveform) -> Spectrum:
    """One-sided discrete Fourier spectrum, the magnitude of each rfft bin."""
    n = len(w.samples)
    return Spectrum(df=1.0 / (n * w.dt), amps=np.abs(np.fft.rfft(w.samples)))


def estimate_channel(tx: Waveform, rx: Waveform) -> ImpulseResponse:
    """Estimate the channel by Fourier-domain deconvolution of rx against tx.

    The division is Wiener-regularized,
        H = RX conj(TX) / (|TX|^2 + eps * max|TX|^2),    eps = 1e-6,
    and rescaled by the regularization window's self-response peak so
    isolated path gains come out unbiased: without the rescale the window's
    band limit would shrink every recovered peak by the occupied-band
    fraction.

    Raises IllConditioned when |TX|^2 sits below the regularization floor
    over more than half of the band occupied by rx.
    """
    if not math.isclose(tx.dt, rx.dt, rel_tol=1e-12, abs_tol=0.0):
        raise ValueError("waveforms must share one sample step")
    n = 1 << max(len(rx.samples), 2 * len(tx.samples)).bit_length()
    tx_f = np.fft.fft(tx.samples, n)
    rx_f = np.fft.fft(rx.samples, n)
    power = np.abs(tx_f) ** 2
    eps_abs = 1e-6 * power.max()

    occupied = np.abs(rx_f) > 1e-3 * np.abs(rx_f).max()
    if occupied.any() and np.mean(power[occupied] < eps_abs) > 0.5:
        raise IllConditioned("excitation spectrum empty over the received band")

    window = power / (power + eps_abs)
    h = np.fft.ifft(rx_f * np.conj(tx_f) / (power + eps_abs)).real
    peak_response = window.mean()
    if peak_response > 0.0:
        h = h / peak_response
    return ImpulseResponse(t0=rx.t0 - tx.t0, dt=tx.dt, bins=h)


def write_waveform_csv(w: Waveform, path) -> None:
    write_csv(path, ("time_s", "field"), (w.times, w.samples))


def write_spectrum_csv(s: Spectrum, path) -> None:
    write_csv(path, ("frequency_hz", "magnitude"), (s.frequencies, s.amps))
