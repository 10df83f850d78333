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
    """The sample step cannot resolve the pulse envelope."""


class IllConditioned(Exception):
    """The excitation has no energy over most of the band the response occupies."""


@dataclass(eq=False)
class Waveform:
    """Sampled real field with its carrier and envelope metadata.

    Attributes:
        t0: time of the first sample (s)
        dt: sample step (s), must resolve the envelope (dt < tau/10)
        samples: real field values
        omega0: carrier angular frequency (rad/s)
        tau: envelope FWHM (s)
        e0: peak field amplitude
    """

    t0: float
    dt: float
    samples: np.ndarray
    omega0: float
    tau: float
    e0: float

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError("sample step must be positive")
        if self.dt >= self.tau / 10.0:
            raise UnderResolved(f"dt {self.dt} cannot resolve tau {self.tau}")
        self.samples = np.asarray(self.samples, dtype=float)
        if len(self.samples) < 8.0 * self.tau / self.dt:
            raise ValueError("waveform must span at least 8 tau")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.samples))

    def energy(self) -> float:
        """Time-integrated squared field."""
        return float(np.sum(self.samples**2) * self.dt)


@dataclass(eq=False)
class Spectrum:
    """One-sided discrete spectrum of a real waveform."""

    f0: float
    df: float
    amps: np.ndarray

    @property
    def frequencies(self) -> np.ndarray:
        return self.f0 + self.df * np.arange(len(self.amps))

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.amps)

    def peak_frequency(self) -> float:
        return self.f0 + self.df * int(np.argmax(np.abs(self.amps)))


def _field(t: np.ndarray, e0: float, tau: float, omega0: float) -> np.ndarray:
    return e0 * np.exp(-4.0 * LN2 * (t / tau) ** 2) * np.cos(omega0 * t)


def pulse_samples(span_s: float, dt_s: float) -> float:
    """Samples on gaussian_pulse's grid: 2*round(span/(2 dt)) + 1.

    A float, so that a step of 0 s or one too fine for the span gives inf
    (NaN when the span is 0 s too) rather than an error.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return 2.0 * float(np.rint(np.float64(0.5 * span_s) / dt_s)) + 1.0


def gaussian_pulse(e0: float, tau_s: float, wavelength: Wavelength,
                   dt_s: float, span_s: float) -> Waveform:
    """Carrier-resolved Gaussian pulse centred on t = 0.

    The grid is symmetric and lands exactly on t = 0, where the field
    equals e0.  Raises UnderResolved for dt >= tau/10 and ValueError for a
    span shorter than 8 tau.
    """
    if tau_s <= 0.0:
        raise ValueError("tau must be positive")
    if dt_s >= tau_s / 10.0:
        raise UnderResolved(f"dt {dt_s} cannot resolve tau {tau_s}")
    if span_s < 8.0 * tau_s:
        raise ValueError("span must cover at least 8 tau")
    half = int(pulse_samples(span_s, dt_s)) // 2
    t = dt_s * np.arange(-half, half + 1)
    omega0 = wavelength.omega0_rad_per_s
    return Waveform(t0=-half * dt_s, dt=dt_s,
                    samples=_field(t, e0, tau_s, omega0),
                    omega0=omega0, tau=tau_s, e0=e0)


def received_pulse(tx: Waveform, t_d_s: float, gamma: float,
                   attenuation: float) -> Waveform:
    """Delayed single-copy receive model: gamma * T * pulse(t - t_d).

    gamma is the focusing area ratio, attenuation the channel transmittance.
    The output grid is the transmit grid shifted by exactly t_d, so the
    envelope peak moves by t_d and scales by gamma * attenuation.
    """
    if t_d_s < 0.0:
        raise ValueError("delay must be non-negative")
    scale = gamma * attenuation
    return Waveform(t0=tx.t0 + t_d_s, dt=tx.dt, samples=scale * tx.samples,
                    omega0=tx.omega0, tau=tx.tau, e0=tx.e0)


def propagate(tx: Waveform, cir: ImpulseResponse) -> Waveform:
    """Discrete linear convolution of the waveform with the channel atoms.

    Requires matching sample steps; re-deposit the channel onto the
    waveform grid first (channel.rebin) when they differ.
    """
    if not math.isclose(tx.dt, cir.dt, rel_tol=1e-12, abs_tol=0.0):
        raise ValueError("waveform and channel must share one sample step")
    samples = np.convolve(tx.samples, cir.bins)
    return Waveform(t0=tx.t0 + cir.t0, dt=tx.dt, samples=samples,
                    omega0=tx.omega0, tau=tx.tau, e0=tx.e0)


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
    """One-sided discrete Fourier spectrum."""
    n = len(w.samples)
    return Spectrum(f0=0.0, df=1.0 / (n * w.dt), amps=np.fft.rfft(w.samples))


def estimate_channel(tx: Waveform, rx: Waveform, eps: float | None = None,
                     regularized: bool = True) -> ImpulseResponse:
    """Estimate the channel by Fourier-domain deconvolution of rx against tx.

    The default is the Wiener-regularized division
        H = RX conj(TX) / (|TX|^2 + eps * max|TX|^2),    eps = 1e-6,
    rescaled by the regularization window's self-response peak so isolated
    path gains come out unbiased: without the rescale the window's band
    limit would shrink every recovered peak by the occupied-band fraction.
    regularized=False performs the literal division RX/TX, exact for
    synthetic noise-free data but fragile outside the pulse band.

    Raises IllConditioned when |TX|^2 sits below the regularization floor
    over more than half of the band occupied by rx.
    """
    if not math.isclose(tx.dt, rx.dt, rel_tol=1e-12, abs_tol=0.0):
        raise ValueError("waveforms must share one sample step")
    eps_rel = 1e-6 if eps is None else eps
    n = 1 << max(len(rx.samples), 2 * len(tx.samples)).bit_length()
    tx_f = np.fft.fft(tx.samples, n)
    rx_f = np.fft.fft(rx.samples, n)
    power = np.abs(tx_f) ** 2
    eps_abs = eps_rel * power.max()

    occupied = np.abs(rx_f) > 1e-3 * np.abs(rx_f).max()
    if occupied.any() and np.mean(power[occupied] < eps_abs) > 0.5:
        raise IllConditioned("excitation spectrum empty over the received band")

    if regularized:
        window = power / (power + eps_abs)
        h = np.fft.ifft(rx_f * np.conj(tx_f) / (power + eps_abs)).real
        peak_response = window.mean()
        if peak_response > 0.0:
            h = h / peak_response
    else:
        ratio = np.divide(rx_f, tx_f, out=np.zeros_like(rx_f), where=tx_f != 0)
        h = np.fft.ifft(ratio).real
    return ImpulseResponse(t0=rx.t0 - tx.t0, dt=tx.dt, bins=h)


def write_waveform_csv(w: Waveform, path) -> None:
    write_csv(path, ("time_s", "field"), "%.12e,%.12e", (w.times, w.samples))


def write_spectrum_csv(s: Spectrum, path) -> None:
    write_csv(path, ("frequency_hz", "magnitude"), "%.12e,%.12e",
              (s.frequencies, s.magnitude))
