"""End-to-end acceptance battery.

One test per criterion, each printing a [PASS]/[FAIL] line with the measured
values (run with -s to see the lines for passing tests too).  Default
scenarios: 18 cells over 450 um, source 5 um from the first cell, cell/tissue
indices 1.36/1.35, absorption 0.9/1.34 per mm, reduced scattering 3.43 per mm,
456 nm, 1 fs pulses, 1001-ray bundles.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from cellray.channel import (
    build_cir,
    contributions,
    coordinate_clusters,
    detector_map,
)
from cellray.config import default_scenario
from cellray.geometry import (
    ArrayLayout,
    Fusiform,
    NoIntersection,
    Pyramidal,
    RayState,
    Spherical,
    TotalInternalReflection,
    avg_distances,
    collimated_bundle,
    trace_array,
    trace_cell,
)
from cellray.optics import (
    SPEED_OF_LIGHT_M_PER_S,
    Media,
    Medium,
    Wavelength,
    dpf,
    total_path_loss,
    transmittance,
)
from cellray.signal import (
    Waveform,
    estimate_channel,
    gaussian_pulse,
    propagate,
    received_pulse,
    spectrum,
)
from cellray.channel import ImpulseResponse

MEDIA = Media(cell=Medium(1.36, 0.9, 3.43), tissue=Medium(1.35, 1.34, 3.43))
LAM = Wavelength(456.0)
SHAPES = ("fusiform", "spherical", "pyramidal")


def record(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


class Run:
    """One traced default scenario with its channel products."""

    def __init__(self, shape: str):
        scenario = default_scenario(shape)
        self.scenario = scenario
        layout = scenario.build_layout()
        media = scenario.build_media()
        bundle = collimated_bundle(layout.shape, scenario.k_rays)
        t0 = time.perf_counter()
        self.paths, self.focus = trace_array(layout, media, bundle)
        self.elapsed = time.perf_counter() - t0
        self.layout, self.media, self.bundle = layout, media, bundle
        self.cir = build_cir(self.paths, media, LAM,
                             scenario.cir_dt_fs * 1e-15,
                             detector_extent_um=scenario.detector_width_um)
        detected, _ = contributions(self.paths, media, LAM,
                                    scenario.detector_width_um)
        self.received_fraction = sum(c.gain for c in detected) / len(self.paths)
        self.dominant_delay = self.cir.dominant_bin()[0]


@pytest.fixture(scope="module")
def runs() -> dict[str, Run]:
    return {shape: Run(shape) for shape in SHAPES}


# ---------------------------------------------------------------------------
# 1. Closed forms against quadrature
# ---------------------------------------------------------------------------

def test_criterion_1_closed_forms_match_quadrature():
    t0 = time.perf_counter()
    worst = 0.0

    def check(value, reference):
        nonlocal worst
        scale = max(abs(reference), 1e-9)
        worst = max(worst, abs(value - reference) / scale)

    for h, w in ((30.0, 20.0), (25.0, 10.0), (40.0, 12.0)):
        shape = Fusiform(h, w)
        r = shape.curvature_radius
        lo, hi = (r - h) / 2.0, r / 2.0
        d_a, d_e = avg_distances(shape, 5.0)
        q_a = 4.0 / h * quad(lambda x: math.sqrt(r * r - x * x) - (r - w / 2.0),
                             lo, hi, epsabs=1e-13, epsrel=1e-13)[0]
        q_e = 5.0 + 2.0 / h * quad(lambda x: w / 2.0 - math.sqrt(r * r - x * x),
                                   lo, hi, epsabs=1e-13, epsrel=1e-13)[0]
        check(d_a, q_a)
        check(d_e, q_e)
    for r_c in (7.5, 10.0, 15.0):
        d_a, d_e = avg_distances(Spherical(r_c), 5.0)
        q_a = 2.0 / r_c * quad(lambda x: math.sqrt(r_c * r_c - x * x), 0, r_c,
                               epsabs=1e-13, epsrel=1e-13)[0]
        q_e = 5.0 + quad(lambda x: r_c - math.sqrt(r_c * r_c - x * x), 0, r_c,
                         epsabs=1e-13, epsrel=1e-13)[0] / r_c
        check(d_a, q_a)
        check(d_e, q_e)
    for h, w in ((30.0, 20.0), (30.0, 30.0), (50.0, 14.0)):
        d_a, d_e = avg_distances(Pyramidal(h, w), 5.0)
        q_a = quad(lambda y: w * (1 - y / h), 0, h,
                   epsabs=1e-13, epsrel=1e-13)[0] / h
        q_e = 5.0 + quad(lambda y: w * (1 - y / h) / 2.0, 0, h,
                         epsabs=1e-13, epsrel=1e-13)[0] / h
        check(d_a, q_a)
        check(d_e, q_e)
    elapsed = time.perf_counter() - t0
    record("criterion 1 closed-form vs quadrature",
           worst < 1e-9 and elapsed < 1.0,
           f"worst relative error {worst:.3e}, runtime {elapsed:.3f} s")


# ---------------------------------------------------------------------------
# 2. Free-space channel
# ---------------------------------------------------------------------------

def test_criterion_2_free_space_channel():
    layout = ArrayLayout(Spherical(10.0), 0, 5.0, 5.0, 445.0)
    paths, _ = trace_array(layout, MEDIA, collimated_bundle(layout.shape, 1001))
    cir = build_cir(paths, MEDIA, LAM, dt_s=10e-15)
    expected_delay = 450e-6 * 1.35 / SPEED_OF_LIGHT_M_PER_S
    spike_time, _ = cir.dominant_bin()
    single = np.count_nonzero(cir.bins) == 1
    within = abs(spike_time - expected_delay) <= 10e-15
    expected_gain = transmittance(MEDIA.tissue, 0.45, LAM)
    gain_err = abs(cir.total_gain() - expected_gain) / expected_gain
    record("criterion 2 free-space channel",
           single and within and gain_err < 1e-12,
           f"spike at {spike_time * 1e12:.4f} ps vs {expected_delay * 1e12:.4f} ps, "
           f"single bin {single}, gain rel err {gain_err:.2e}")


# ---------------------------------------------------------------------------
# 3. Deconvolution round trip
# ---------------------------------------------------------------------------

def test_criterion_3_deconvolution_round_trip():
    dt = 0.05e-15
    tx = gaussian_pulse(1.0, 1e-15, LAM, dt, span_s=8e-15)
    bins = np.zeros(int(round(2e-12 / dt)) + 1)
    bins[-1] = 0.5
    rx = propagate(tx, ImpulseResponse(0.0, dt, bins))
    est = estimate_channel(tx, rx)
    t_peak, amp = est.dominant_bin()
    time_ok = abs(t_peak - 2e-12) <= dt
    amp_ok = abs(amp - 0.5) / 0.5 <= 0.01
    record("criterion 3 deconvolution round trip", time_ok and amp_ok,
           f"peak {t_peak * 1e12:.5f} ps amplitude {amp:.5f} "
           f"(targets 2 ps / 0.5)")


# ---------------------------------------------------------------------------
# 4. Dominant arrival delays
# ---------------------------------------------------------------------------

def test_criterion_4_dominant_delays(runs):
    targets = {"fusiform": 3.4e-12, "spherical": 2.5e-12, "pyramidal": 2.7e-12}
    details = []
    ok = True
    for shape, target in targets.items():
        run = runs[shape]
        delay = run.dominant_delay
        in_band = abs(delay - target) <= 0.2 * target
        fast = run.elapsed < 30.0
        ok = ok and in_band and fast
        details.append(f"{shape} {delay * 1e12:.3f} ps "
                       f"(target {target * 1e12:.1f} ps +-20%, "
                       f"trace {run.elapsed:.1f} s)")
    record("criterion 4 dominant delays", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 5. Received power attenuation
# ---------------------------------------------------------------------------

def test_criterion_5_received_attenuation(runs):
    targets = {"fusiform": 35.0, "spherical": 20.0, "pyramidal": 65.0}
    details = []
    ok = True
    for shape, target in targets.items():
        attenuation = 100.0 * (1.0 - runs[shape].received_fraction)
        in_band = abs(attenuation - target) <= 10.0
        ok = ok and in_band
        details.append(f"{shape} {attenuation:.1f}% (target {target:.0f}% +-10pp)")
    record("criterion 5 received attenuation", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 6. Pyramidal divergence extent
# ---------------------------------------------------------------------------

def test_criterion_6_pyramidal_divergence(runs):
    # Bundle exit point measured as the median number of cells traversed
    # before loss, over the rays that leave the propagation line.
    losses = sorted(p.loss_cell for p in runs["pyramidal"].paths
                    if p.loss_cell is not None)
    lost_fraction = len(losses) / len(runs["pyramidal"].paths)
    median_exit = losses[len(losses) // 2] if losses else math.inf
    ok = 6 <= median_exit <= 8
    record("criterion 6 pyramidal divergence", ok,
           f"median exit after {median_exit} cells "
           f"({lost_fraction:.0%} of rays leave the line; target 6-8 cells)")


# ---------------------------------------------------------------------------
# 7. Spectral invariance
# ---------------------------------------------------------------------------

def test_criterion_7_spectral_invariance(runs):
    dt = 0.05e-15
    tx = gaussian_pulse(1.0, 1e-15, LAM, dt, span_s=8e-15)
    details = []
    ok = True
    for shape in SHAPES:
        run = runs[shape]
        rx = received_pulse(tx, run.dominant_delay, 1.0,
                            run.cir.total_gain())
        f_tx = spectrum(tx).peak_frequency()
        f_rx = spectrum(rx).peak_frequency()
        df = spectrum(tx).df
        same = abs(f_tx - f_rx) <= df
        ok = ok and same
        details.append(f"{shape} tx {f_tx:.3e} Hz rx {f_rx:.3e} Hz")
    record("criterion 7 spectral invariance", ok,
           "; ".join(details) + f" (one bin = {spectrum(tx).df:.2e} Hz)")


# ---------------------------------------------------------------------------
# 8. Detector power maps
# ---------------------------------------------------------------------------

def test_criterion_8_detector_maps(runs):
    fus = runs["fusiform"]
    dmap = detector_map(fus.paths, fus.media, LAM,
                        fus.scenario.detector_width_um)
    best = max(dmap.samples, key=lambda s: s[1])
    centre_ok = abs(best[0]) <= 2.0

    pyr = runs["pyramidal"]
    pmap = detector_map(pyr.paths, pyr.media, LAM,
                        pyr.scenario.detector_width_um)
    clusters = coordinate_clusters(pmap, gap_um=1.0, min_size=2)
    cluster_ok = len(clusters) >= 2

    record("criterion 8 detector maps", centre_ok and cluster_ok,
           f"fusiform max-power coordinate {best[0]:.2f} um (target |x| <= 2); "
           f"pyramidal clusters {len(clusters)} (target >= 2)")


# ---------------------------------------------------------------------------
# 9. Property battery
# ---------------------------------------------------------------------------

def test_criterion_9_property_battery(runs):
    failures = []

    # Snell consistency at 1e-12 over every refraction event of all runs:
    # each bundle ray is walked through the cells with trace_cell, two
    # events per cell crossing the traced paths report, 99,020 on the
    # default scenarios.
    worst_snell = 0.0
    checked = crossings = 0
    for run in runs.values():
        layout = run.layout
        for path in run.paths:
            crossings += layout.n_cells if path.loss_cell is None \
                else path.loss_cell
        for ray in run.bundle:
            for cell in range(layout.n_cells):
                try:
                    ct = trace_cell(layout.shape, run.media, ray,
                                    layout.cell_entry_x(cell))
                except (NoIntersection, TotalInternalReflection):
                    break
                for ev in ct.events:
                    lhs = ev.n_in * math.sin(ev.theta_in - ev.normal_angle)
                    rhs = ev.n_out * math.sin(ev.theta_out - ev.normal_angle)
                    worst_snell = max(worst_snell, abs(lhs - rhs))
                    checked += 1
                ray = ct.outgoing
    if worst_snell >= 1e-12:
        failures.append(f"snell {worst_snell:.2e}")
    if not checked == 2 * crossings == 99_020:
        failures.append(f"snell checked {checked} events over {crossings} "
                        "cell crossings (expected 99020 = 2 x 49510)")

    # Reversibility at 1e-9 um/rad for a deterministic ray battery.
    worst_rev = 0.0
    for shape in (Fusiform(30.0, 20.0), Spherical(10.0), Pyramidal(30.0, 20.0)):
        for h_frac in (-0.8, -0.3, 0.2, 0.7):
            for theta in (-0.1, 0.0, 0.12):
                ray = RayState(0.0, h_frac * shape.half_aperture, theta)
                try:
                    ct = trace_cell(shape, MEDIA, ray, entry_x=4.0)
                except (NoIntersection, TotalInternalReflection):
                    continue
                if ct.outgoing.h <= -shape.half_aperture + 1e-6:
                    continue
                centre = 4.0 + shape.axial_extent / 2.0
                rev = RayState(2 * centre - ct.outgoing.x, ct.outgoing.h,
                               -ct.outgoing.theta)
                back = trace_cell(shape, MEDIA, rev, entry_x=4.0)
                worst_rev = max(
                    worst_rev,
                    abs(2 * centre - back.outgoing.x - ct.entry.x),
                    abs(back.outgoing.h - ct.entry.h),
                    abs(-back.outgoing.theta - ray.theta),
                )
    if worst_rev >= 1e-9:
        failures.append(f"reversibility {worst_rev:.2e}")

    # Path loss monotone in the cell count (growing array, fixed end gaps)
    # and in distance.
    losses = [
        total_path_loss(ArrayLayout(Fusiform(30.0, 20.0), n, 5.0, 5.0, 5.0),
                        MEDIA, LAM)
        for n in range(0, 19, 3)
    ]
    if losses != sorted(losses):
        failures.append("path loss not monotone in N")
    trans = [transmittance(MEDIA.tissue, d) for d in np.linspace(0.0, 2.0, 40)]
    if any(b >= a for a, b in zip(trans, trans[1:])):
        failures.append("transmittance not decreasing in d")
    if not all(0.0 < t <= 1.0 for t in trans):
        failures.append("transmittance out of (0, 1]")

    # DPF bounds: increasing and below its asymptote.
    for medium in (MEDIA.cell, MEDIA.tissue):
        bound = 0.5 * math.sqrt(3.0 * medium.mu_s_prime / medium.mu_a)
        vals = [dpf(medium, d) for d in np.linspace(0.0, 10.0, 30)]
        if vals != sorted(vals) or vals[-1] >= bound:
            failures.append("dpf bounds")

    # Convolution linearity at 1e-12.
    dt = 0.05e-15
    tx1 = gaussian_pulse(1.0, 1e-15, LAM, dt, 8e-15)
    tx2 = gaussian_pulse(0.4, 1e-15, LAM, dt, 8e-15)
    bins = np.zeros(2001)
    bins[700], bins[2000] = 0.4, 0.3
    cir = ImpulseResponse(0.0, dt, bins)
    mixed = Waveform(tx1.t0, dt, 1.7 * tx1.samples - 0.6 * tx2.samples,
                     tx1.omega0, 1e-15, 1.0)
    lhs = propagate(mixed, cir).samples
    rhs = 1.7 * propagate(tx1, cir).samples - 0.6 * propagate(tx2, cir).samples
    lin_err = np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs))
    if lin_err >= 1e-12:
        failures.append(f"linearity {lin_err:.2e}")

    # Parseval at 1e-9.
    full = np.fft.fft(tx1.samples)
    freq_energy = np.sum(np.abs(full) ** 2) / len(tx1.samples) * dt
    parseval = abs(tx1.energy() - freq_energy) / tx1.energy()
    if parseval >= 1e-9:
        failures.append(f"parseval {parseval:.2e}")

    record("criterion 9 property battery", not failures,
           "all invariants hold" if not failures else "; ".join(failures))
