"""End-to-end acceptance checks, one test per shipped criterion.

Run `pytest -v tests/test_acceptance.py`: each test line is the pass/fail
verdict for one criterion.  Detail lines print with -rA or -s.  Criteria
1 and 5 also enforce their wall-clock budgets.
"""

import math
import time

import numpy as np
import pytest

from trionsim.core import (
    MU_B_EV_PER_T,
    PLANCK_EV_S,
    DeviceParams,
    NoiseModel,
    NoiseTarget,
    Pol,
    Subspace,
    larmor_frequency,
)
from trionsim.correlator import bin_lifetime, correlate_cw, lifetime_docp_trace
from trionsim.dynamics import (
    Propagator2,
    envelope_factor,
    lifetime_trace,
    make_propagator,
    rotation_x,
)
from trionsim.fitkit import (
    PARAM_NAMES,
    DampedCosineModel,
    fit_damped_cosine,
    fit_linear_zeeman,
    window_average,
)
from trionsim.montecarlo import EVENT_DTYPE, EventStream, ProtocolConfig, run
from trionsim.pipelines import (
    T2_FIT_WINDOW_S,
    _pump_sweep,
    cw_histograms,
    cw_osc_params,
    delay_sweep_grid,
    fit_heralded_sweep,
    heralded_sweep,
)
from trionsim.rng import derive_seed


def _device(**kw):
    base = dict(g_e=2.09, g_h=0.362, t1_s=300e-12, p_mem=0.865, b_x_t=0.15,
                noise=NoiseModel.quiet())
    base.update(kw)
    return DeviceParams(**base)


def test_criterion_1_electron_g_factor_round_trip():
    # lifetime runs at 50/100/150 mT, 5e5 detected photons each; the
    # fitted beat frequencies plus a linear field fit must return the
    # configured g_e = 2.09 within 2%, in under 60 s
    t_start = time.perf_counter()
    fields = (0.05, 0.10, 0.15)
    freqs, sigmas = [], []
    for i, b_t in enumerate(fields):
        device = _device(b_x_t=b_t)
        config = ProtocolConfig.lifetime(n_shots=500_000,
                                         rng_seed=derive_seed(101, "b", i))
        stream = run(device, config)
        assert len(stream) == 500_000
        trace = lifetime_docp_trace(stream)
        fit = fit_damped_cosine(trace, variant="pulsed",
                                fixed={"t2star": 1.0, "alpha": 1.0})
        assert fit.converged
        freqs.append(fit["frequency"])
        sigmas.append(fit.sigmas["frequency"])
    zfit = fit_linear_zeeman(np.array(fields),
                             PLANCK_EV_S * np.array(freqs),
                             errors_ev=PLANCK_EV_S * np.array(sigmas))
    elapsed = time.perf_counter() - t_start
    print(f"criterion 1: g_e = {zfit.g:.5f} +/- {zfit.sigma_g:.5f} "
          f"(configured 2.09, tol 2%), {elapsed:.1f} s (budget 60 s)")
    assert abs(zfit.g - 2.09) <= 0.02 * 2.09
    assert elapsed < 60.0


def test_criterion_2_polarization_memory():
    """False-failure rate about 2.7e-3: one two-sided 3 sigma check of a
    binomial contrast over 1e6 photons, close to normal at that count."""
    # zero-field ensemble with p_mem = 0.865 and 1e6 shots: the circular
    # contrast must sit within 3 binomial sigma of the configured value
    device = _device(b_x_t=0.0)
    config = ProtocolConfig.docp_zero_field(n_shots=1_000_000, rng_seed=202)
    stream = run(device, config)
    n_r = stream.times(projection=Pol.R).size
    n_l = stream.times(projection=Pol.L).size
    n = n_r + n_l
    memory = (n_r - n_l) / n
    sigma = math.sqrt((1.0 - memory ** 2) / n)
    print(f"criterion 2: memory = {memory:.5f} +/- {sigma:.5f} "
          f"(configured 0.865, tol 3 sigma)")
    assert n == 1_000_000
    assert abs(memory - 0.865) <= 3.0 * sigma


def test_criterion_3_cw_hole_precession():
    # cw pairs at 37.5 mT, g_h = 0.35, jitter targeting tau = 16.51 ns,
    # low pump: f within 2% of the Zeeman value, tau within 10%, and the
    # co/cross oscillations anti-phased to pi +/- 0.1 rad
    f_ref = larmor_frequency(0.35, 0.0375)
    assert f_ref == pytest.approx(183.7e6, rel=1e-3)
    device = _device(g_h=0.35, b_x_t=0.0375,
                     noise=NoiseModel.lorentzian_from_t2star(16.51e-9))
    config = ProtocolConfig.cw(n_segments=49152, rng_seed=303,
                               pump_rate_hz=1e7)
    stream = run(device, config)
    osc = cw_osc_params(*cw_histograms(stream, 100e-9), 100e-9)
    print(f"criterion 3: f = {osc['frequency'] / 1e6:.3f} MHz "
          f"(ref {f_ref / 1e6:.3f}, tol 2%), "
          f"tau = {osc['t2star'] * 1e9:.2f} ns (target 16.51, tol 10%), "
          f"phase gap = {osc['gap']:.3f} rad (target pi, tol 0.1)")
    assert abs(osc["frequency"] - f_ref) <= 0.02 * f_ref
    assert abs(osc["t2star"] - 16.51e-9) <= 0.10 * 16.51e-9
    assert abs(osc["gap"] - math.pi) <= 0.1


def test_criterion_4_tau_decreases_with_pump(tmp_path):
    # fitted decay time must fall monotonically across a 20x pump span
    results = _pump_sweep(tmp_path, 404, 1.0, None)
    pumps = np.array([pump for _, pump, _ in results])
    taus = np.array([osc["t2star"] for _, _, osc in results])
    detail = ", ".join(f"{p:.0e} Hz -> {t * 1e9:.2f} ns"
                       for p, t in zip(pumps, taus))
    print(f"criterion 4: {detail}")
    assert pumps.max() / pumps.min() >= 20.0
    assert np.all(np.diff(pumps) > 0)
    assert np.all(np.diff(taus) < 0)


def test_criterion_5_heralded_dephasing_sweep():
    # delay sweep 0.6-10.5 ns at 150 mT with jitter targeting 15.9 ns,
    # >= 1e5 heralded pairs per delay: the window-averaged per-bin fits
    # must give f within 1% of 760 MHz and T2* within 15%, in < 10 min
    t_start = time.perf_counter()
    device = _device(noise=NoiseModel.lorentzian_from_t2star(15.9e-9))
    delays = delay_sweep_grid()
    assert delays[0] == pytest.approx(0.6e-9) and delays[-1] == \
        pytest.approx(10.5e-9)
    traces, pairs = heralded_sweep(device, delays, 2_400_000, seed=505)
    fits = fit_heralded_sweep(delays, traces)
    t2_centers = [t for t, _ in fits]
    f_avg = window_average(t2_centers,
                           [f["frequency"] for _, f in fits],
                           T2_FIT_WINDOW_S)
    tau_avg = window_average(t2_centers,
                             [f["t2star"] for _, f in fits],
                             T2_FIT_WINDOW_S)
    elapsed = time.perf_counter() - t_start
    print(f"criterion 5: f = {f_avg.mean / 1e6:.2f} MHz "
          f"(target 760, tol 1%), T2* = {tau_avg.mean * 1e9:.2f} ns "
          f"(configured 15.9, tol 15%), min pairs = {min(pairs)}, "
          f"{elapsed:.0f} s (budget 600 s)")
    assert min(pairs) >= 100_000
    assert abs(f_avg.mean - 760e6) <= 0.01 * 760e6
    assert abs(tau_avg.mean - 15.9e-9) <= 0.15 * 15.9e-9
    assert elapsed < 600.0


def test_criterion_6_closed_forms_match_monte_carlo():
    # every dephasing envelope and polarization-resolved decay trace must
    # agree with 1e5-sample ensemble means to 1% absolute
    rng = np.random.default_rng(606)
    n = 100_000
    worst_env = 0.0
    for noise in (NoiseModel.lorentzian_from_t2star(15.9e-9),
                  NoiseModel.gaussian_from_t2star(15.9e-9)):
        df = noise.sample(rng, n)
        for t in (1e-9, 3e-9, 8e-9, 15.9e-9, 40e-9):
            mc = float(np.mean(np.cos(2.0 * math.pi * df * t)))
            err = abs(mc - envelope_factor(noise, t))
            worst_env = max(worst_env, err)
            assert err <= 0.01

    worst_trace = 0.0
    quiet = _device()
    jittery = _device(noise=NoiseModel.lorentzian_from_t2star(
        0.5e-9, applies_to=NoiseTarget.EXCITED))
    for device in (quiet, jittery):
        config = ProtocolConfig.lifetime(n_shots=n, rng_seed=616)
        stream = run(device, config)
        bin_s, span_s, fine = 25e-12, 1.5e-9, 200
        grid = np.arange(0, int(round(span_s / bin_s)) * fine + 1) \
            * (bin_s / fine)
        for pol in (Pol.R, Pol.L):
            hist = bin_lifetime(stream, projection=pol, bin_s=bin_s,
                                span_s=span_s)
            density = lifetime_trace(device, Pol.R, pol, grid) / device.t1_s
            for j in range(hist.counts.size):
                sl = slice(j * fine, j * fine + fine + 1)
                predicted = np.trapezoid(density[sl], grid[sl])
                observed = hist.counts[j] / n
                err = abs(observed - predicted)
                worst_trace = max(worst_trace, err)
                assert err <= 0.01
    print(f"criterion 6: worst envelope gap = {worst_env:.4f}, worst "
          f"binned trace gap = {worst_trace:.4f} (tol 0.01 at 1e5 samples)")


def _synthetic_cw_stream(rng, n0, n1):
    times = np.concatenate([np.sort(rng.uniform(0.0, 1e-6, n0)),
                            np.sort(rng.uniform(0.0, 1e-6, n1))])
    chans = np.concatenate([np.zeros(n0, np.uint8), np.ones(n1, np.uint8)])
    projs = np.where(rng.random(n0 + n1) < 0.6, int(Pol.R),
                     int(Pol.L)).astype(np.uint8)
    events = np.empty(n0 + n1, dtype=EVENT_DTYPE)
    events["shot"] = 0
    events["channel"] = chans
    events["projection"] = projs
    events["time"] = times
    order = np.lexsort((events["time"], events["shot"]))
    config = ProtocolConfig.cw(1, 1, pump_rate_hz=1e6, segment_length_s=1.0)
    return EventStream(events[order], _device(), config)


def test_criterion_7_property_oracles():
    rng = np.random.default_rng(707)

    # correlator equals the O(N^2) brute force, exactly, on <= 1e3 events
    stream = _synthetic_cw_stream(rng, 400, 500)
    ev = stream.events
    for pairing, code in (("RR", int(Pol.R)), ("RL", int(Pol.L))):
        sel0 = ev["time"][(ev["channel"] == 0) & (ev["projection"] == code)]
        sel1 = ev["time"][(ev["channel"] == 1) & (ev["projection"] == code)]
        hist = correlate_cw(stream, pairing, window_s=50e-9, bin_s=10e-9)
        brute = np.zeros(hist.counts.size, dtype=np.int64)
        for t0 in sel0:
            for t1 in sel1:
                idx = np.searchsorted(hist.bin_edges, t1 - t0,
                                      side="right") - 1
                if 0 <= idx < brute.size:
                    brute[idx] += 1
        assert np.array_equal(hist.counts, brute)

    # fitter Jacobian equals central finite differences to 1e-5 relative
    model = DampedCosineModel(variant="cw", t0=0.0)
    t = np.sort(rng.uniform(-30e-9, 30e-9, 120))
    for _ in range(4):
        params = [rng.uniform(-0.4, 0.4), rng.uniform(0.3, 1.0),
                  rng.uniform(4e-9, 30e-9), rng.uniform(0.6, 2.2),
                  rng.uniform(2e8, 1.5e9), rng.uniform(-2.0, 2.0)]
        jac = model.jacobian(params, t)
        for k in range(len(PARAM_NAMES)):
            h = 1e-6 * abs(params[k])
            hi, lo = list(params), list(params)
            hi[k] += h
            lo[k] -= h
            fd = (model.evaluate(hi, t) - model.evaluate(lo, t)) / (2 * h)
            scale = max(np.max(np.abs(jac[:, k])), np.max(np.abs(fd)))
            assert np.max(np.abs(jac[:, k] - fd)) < 1e-5 * scale

    # propagators stay unitary and compose, to 1e-10
    device = _device()
    for subspace in (Subspace.GROUND, Subspace.TRION):
        for _ in range(5):
            dt_a, dt_b = rng.uniform(0.0, 5e-9, 2)
            u_a = make_propagator(device, subspace, dt_a)
            u_b = make_propagator(device, subspace, dt_b)
            u_ab = make_propagator(device, subspace, dt_a + dt_b)
            gram = u_a.matrix @ u_a.matrix.conj().T
            assert np.max(np.abs(gram - np.eye(2))) < 1e-10
            assert np.max(np.abs((u_b @ u_a).matrix - u_ab.matrix)) < 1e-10
    with pytest.raises(ValueError):
        Propagator2(1.001 * rotation_x(0.3), 1e-9, Subspace.GROUND)

    # fixed seed gives identical content digests across 1 and N workers
    jobs = (
        (ProtocolConfig.lifetime(200_000, rng_seed=71), _device()),
        (ProtocolConfig.pulsed(150_000, rng_seed=72, pulse_delay_s=1.6e-9),
         _device(noise=NoiseModel.lorentzian_from_t2star(15.9e-9))),
        (ProtocolConfig.cw(8192, rng_seed=73, pump_rate_hz=1e7),
         _device(g_h=0.35, b_x_t=0.0375)),
    )
    for config, device in jobs:
        one = run(device, config, workers=1)
        many = run(device, config, workers=4)
        assert one.content_digest == many.content_digest
    print("criterion 7: brute-force correlation, Jacobian, unitarity, "
          "composition, and worker-count digests all hold")
