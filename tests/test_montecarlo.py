"""Stochastic engines: determinism, physics round trips, white-box hooks."""

import math
import os

import numpy as np
import pytest

from trionsim.core import DeviceParams, NoiseModel, Pol, larmor_frequency
from trionsim.correlator import lifetime_docp_trace, build_map2d
from trionsim.dynamics import heralded_docp
from trionsim.fitkit import fit_damped_cosine
from trionsim.montecarlo import (
    EVENT_DTYPE,
    ProtocolConfig,
    ProtocolKind,
    resolve_workers,
    run,
)


def _device(g_e=2.09, g_h=0.362, t1_s=300e-12, p_mem=0.865, b_x_t=0.15,
            noise=None):
    return DeviceParams(g_e=g_e, g_h=g_h, t1_s=t1_s, p_mem=p_mem,
                        b_x_t=b_x_t, noise=noise or NoiseModel.quiet())


def test_event_record_layout():
    assert EVENT_DTYPE.itemsize == 14
    assert EVENT_DTYPE.names == ("shot", "channel", "projection", "time")


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig.lifetime(0, 1)
    with pytest.raises(ValueError):
        ProtocolConfig.lifetime(100, -1)
    with pytest.raises(ValueError):
        ProtocolConfig.lifetime(100, 1, exc_pol=Pol.H)
    with pytest.raises(ValueError):
        ProtocolConfig.lifetime(100, 1, detection_efficiency=0.0)
    with pytest.raises(ValueError):
        ProtocolConfig.lifetime(100, 1, det_pols=((Pol.R, Pol.H),))
    with pytest.raises(ValueError):
        ProtocolConfig.cw(100, 1, pump_rate_hz=0.0)
    with pytest.raises(ValueError):
        ProtocolConfig.cw(100, 1, pump_rate_hz=1e7,
                          det_pols=((Pol.R, Pol.L),))
    with pytest.raises(ValueError):
        ProtocolConfig.pulsed(100, 1, pulse_delay_s=13e-9,
                              rep_period_s=12.5e-9)
    with pytest.raises(ValueError):
        ProtocolConfig.pulsed(100, 1, pulse_delay_s=1e-9,
                              exc_pols=(Pol.R, Pol.R))
    with pytest.raises(ValueError):
        ProtocolConfig(ProtocolKind.PULSED_2PC, 100, 1, (Pol.R,),
                       ((Pol.R,), (Pol.R, Pol.L)), pulse_delay_s=1e-9)


def test_worker_count_capped_at_cpu_count(monkeypatch):
    # only the resolved count is checked; no process is started
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert resolve_workers(65536) == 2
    assert resolve_workers(1) == 1
    monkeypatch.setenv("TRIONSIM_WORKERS", "64")
    assert resolve_workers() == 2


def test_config_round_trip():
    config = ProtocolConfig.pulsed(1000, 7, pulse_delay_s=1.6e-9)
    assert ProtocolConfig.from_dict(config.to_dict()) == config
    config = ProtocolConfig.cw(1000, 7, pump_rate_hz=1e7)
    assert ProtocolConfig.from_dict(config.to_dict()) == config


def test_seed_determinism():
    dev = _device()
    a = run(dev, ProtocolConfig.lifetime(20000, 42))
    b = run(dev, ProtocolConfig.lifetime(20000, 42))
    c = run(dev, ProtocolConfig.lifetime(20000, 43))
    assert a.content_digest == b.content_digest
    assert a.content_digest != c.content_digest


def test_events_sorted_by_shot_then_time():
    stream = run(_device(), ProtocolConfig.pulsed(50000, 5,
                                                  pulse_delay_s=1.6e-9))
    ev = stream.events
    key = ev["shot"].astype(np.float64) * 1.0 + 0.0
    order = np.lexsort((ev["time"], ev["shot"]))
    assert np.array_equal(order, np.arange(len(stream)))


def test_worker_count_does_not_change_output():
    dev = _device(noise=NoiseModel.lorentzian_from_t2star(15.9e-9))
    configs = [
        ProtocolConfig.lifetime(150_000, 9),
        ProtocolConfig.pulsed(150_000, 9, pulse_delay_s=2.4e-9),
        ProtocolConfig.cw(20_000, 9, pump_rate_hz=1e7),
    ]
    for config in configs:
        solo = run(dev, config, workers=1)
        multi = run(dev, config, workers=3)
        assert solo.content_digest == multi.content_digest


# sha256 of the merged event records of small fixed-seed runs, two
# batches each (lifetime: a lossy and a splitter channel at efficiency
# 0.8); any change to the random numbers an engine draws, or to how it
# turns them into events, moves one of these
_GOLDEN_RUNS = {
    "lifetime": (0.15, lambda: ProtocolConfig.lifetime(
        70_000, 11, det_pols=((Pol.R,), (Pol.H, Pol.V)),
        detection_efficiency=0.8),
        "6830d3247cfe25e625c9e8bfe9f27c9fae1a984d0b2d72434d6da3af1fd42f00"),
    "docp_zero_field": (0.0, lambda: ProtocolConfig.docp_zero_field(
        70_000, 12),
        "ae4801173a5911edc822fb111befe0618059d7a2164ec5c957991c4cc3465b3a"),
    "cw_g2": (0.0375, lambda: ProtocolConfig.cw(
        8_200, 13, pump_rate_hz=1e7, segment_length_s=2e-6),
        "facbbf2b41173e3445c7eb93fffbf7ec17f5de0f13c810888d3d467033779a3f"),
    "pulsed_2pc": (0.15, lambda: ProtocolConfig.pulsed(
        70_000, 14, pulse_delay_s=1.6e-9, detection_efficiency=0.9),
        "10c1e6efe05b7a8ea1a23368266ea74be440f1957aa335f6854698797d7ec926"),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", sorted(_GOLDEN_RUNS))
def test_golden_content_digests(kind, workers):
    b_x_t, config, digest = _GOLDEN_RUNS[kind]
    dev = _device(b_x_t=b_x_t,
                  noise=NoiseModel.lorentzian_from_t2star(15.9e-9))
    assert run(dev, config(), workers=workers).content_digest == digest


def test_lifetime_t1_recovery():
    """False-failure rate about 1.5e-23: the mean of 1e6 exponential
    delays has a relative sigma of 1e-3, so the 1% bound is 10 sigma."""
    dev = _device(p_mem=1.0, b_x_t=0.0)
    stream = run(dev, ProtocolConfig.lifetime(1_000_000, 31))
    t_rel = stream.events["time"] - stream.events["shot"] * 12.5e-9
    # sample mean is the exponential maximum-likelihood scale
    assert np.mean(t_rel) == pytest.approx(dev.t1_s, rel=0.01)


def test_zero_field_polarization_memory():
    """False-failure rate about 2.7e-3: one two-sided 3 sigma check of a
    binomial contrast over 2e5 photons."""
    dev = _device(b_x_t=0.0)
    n = 200_000
    stream = run(dev, ProtocolConfig.docp_zero_field(n, 17))
    n_co = stream.times(projection=Pol.R).size
    n_cross = stream.times(projection=Pol.L).size
    value = (n_co - n_cross) / (n_co + n_cross)
    sigma = math.sqrt((1.0 - 0.865 ** 2) / (n_co + n_cross))
    assert abs(value - 0.865) <= 3.0 * sigma


def test_lifetime_oscillation_frequency():
    dev = _device()
    stream = run(dev, ProtocolConfig.lifetime(200_000, 23))
    trace = lifetime_docp_trace(stream, bin_s=10e-12, span_s=1.5e-9)
    fit = fit_damped_cosine(trace, variant="pulsed",
                            fixed={"t2star": 1.0, "alpha": 1.0})
    assert fit.converged
    assert fit["frequency"] == pytest.approx(dev.f_e_hz, rel=0.02)


def test_heralding_is_exact():
    # photon-1 circular label pins the post-emission hole state: with no
    # precession in either doublet and perfect memory, pulse 2 lifts the
    # heralded hole to the same trion eigenstate, so photon 2 repeats the
    # label of photon 1 (two circular splitters record every photon's
    # label; a 1 ps T1 keeps every photon 1 before the 1.6 ns pulse 2)
    dev = _device(g_e=0.0, g_h=0.0, t1_s=1e-12, p_mem=1.0)
    n, dt = 50_000, 1.6e-9
    config = ProtocolConfig.pulsed(n, 3, pulse_delay_s=dt,
                                   det_pols=((Pol.R, Pol.L), (Pol.L, Pol.R)))
    events = run(dev, config).events
    photon1 = events["time"] - events["shot"] * config.rep_period_s < dt
    shots, first, counts = np.unique(events["shot"], return_index=True,
                                     return_counts=True)
    two = first[counts == 2]
    assert np.all(photon1[two]) and not np.any(photon1[two + 1])
    assert np.array_equal(events["projection"][two],
                          events["projection"][two + 1])
    # every shot emits photon 1 (addressed) or photon 2, or both
    assert shots.size == n
    # with perfect memory, exactly the addressed half of the shots emit
    # photon 1, and each of them also records photon 2
    n_photon1 = int(np.count_nonzero(photon1))
    assert n_photon1 == two.size
    assert abs(n_photon1 - n / 2) < 5 * math.sqrt(n * 0.25)


def test_cw_antibunching_dip():
    """Single emitter: re-excitation takes a fresh attempt plus a decay,
    so coincidences vanish toward zero delay, in the closed-form shape.

    At zero field every emission takes the R branch and leaves the hole
    in the addressed state, so a bright segment is a renewal process
    whose intervals are an Exp(r) wait for a successful attempt (r =
    pump * p_mem) plus an Exp(1/T1) decay.  Its pair density at delay
    tau is the plateau times 1 - exp(-(r + 1/T1)|tau|): the
    single-emitter dip, r adding the finite-pump factor.  The plateau
    (counts per bin) comes from the bins at |tau| >= 2 ns.  The k = 60
    bins of 30 ps within 3 T1 of zero, on both sides, must match the
    plateau times each bin's average of that shape in one chi^2 over
    their Poisson errors; an excess or a deficit of near-zero pairs both
    raise it.  Bound: chi^2 <= k + 5 sqrt(2k) = 114.8, which a chi^2
    with 60 degrees of freedom exceeds with probability 2.7e-5.  The
    plateau's own Poisson error (about 54,000 counts) adds about 0.3 to
    the mean of chi^2, and the bins' Poisson skew (about 20 counts
    expected in the two zero-delay bins) adds about 0.4 to its variance
    of 2k, so the false-failure rate stays of order 1e-5.
    """
    dev = _device(b_x_t=0.0)
    pump = 3e7
    assert pump * dev.t1_s < 0.01
    stream = run(dev, ProtocolConfig.cw(8192, 101, pump_rate_hz=pump))
    t0 = np.sort(stream.times(channel=0))
    t1 = np.sort(stream.times(channel=1))
    bin_s, half = 30e-12, 4e-9
    edges = bin_s * np.arange(-int(half / bin_s), int(half / bin_s) + 1)
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    lo = np.searchsorted(t1, t0 + edges[0])
    hi = np.searchsorted(t1, t0 + edges[-1])
    for i in np.nonzero(hi > lo)[0]:
        d = t1[lo[i]:hi[i]] - t0[i]
        counts += np.histogram(d, bins=edges)[0]
    centers = 0.5 * (edges[:-1] + edges[1:])
    # each bin's average of 1 - exp(-rate |tau|); zero delay is an edge
    near_end, far_end = np.sort(np.abs([edges[:-1], edges[1:]]), axis=0)
    rate = pump * dev.p_mem + 1.0 / dev.t1_s
    shape = 1.0 - (np.exp(-rate * near_end) - np.exp(-rate * far_end)) \
        / (rate * bin_s)
    plateau = np.abs(centers) >= 2e-9
    level = counts[plateau].sum() / shape[plateau].sum()
    dip = np.abs(centers) < 3.0 * dev.t1_s
    expected = level * shape[dip]
    k = int(np.count_nonzero(dip))
    chi2 = float(np.sum((counts[dip] - expected) ** 2 / expected))
    assert k == 60 and level > 100.0
    assert chi2 <= k + 5.0 * math.sqrt(2.0 * k), chi2


def test_pulsed_ensemble_docp_matches_analytic():
    """False-failure rate about 8e-3: three independent two-sided 3 sigma
    checks, 1 - (1 - 2.7e-3)^3.  The other checks add nothing measurable:
    about 110,800 pairs per delay sit some 30 sigma above the 100,000
    floor, and the three contrasts (0.58, 0.78, -0.75 with sigmas near
    0.002) are ordered by far more than their errors."""
    # a short-lived, non-precessing trion isolates the ground precession,
    # so the heralded contrast must track the closed form
    f_h = larmor_frequency(0.362, 0.15)
    dev = _device(g_e=0.0, t1_s=1e-12,
                  noise=NoiseModel.lorentzian_from_t2star(15.9e-9))
    delays = (1.5e-9, 3.0 / f_h, 0.5 / f_h + 3.0 / f_h)
    edges = np.array([0.0, 100e-12])
    measured = []
    for i, dt in enumerate(delays):
        config = ProtocolConfig.pulsed(1_100_000, 200 + i, pulse_delay_s=dt)
        stream = run(dev, config)
        n_rr, n_rl = (m.counts[0, 0] for m in build_map2d(stream, edges,
                                                          edges))
        n = n_rr + n_rl
        assert n >= 100_000
        value = (n_rr - n_rl) / n
        expected = heralded_docp(dev, dt)
        sigma = math.sqrt((1.0 - expected ** 2) / n)
        assert abs(value - expected) <= 3.0 * sigma
        measured.append(value)
    # integer precession periods give the maximal heralded contrast
    assert measured[1] > measured[0]
    assert measured[1] > measured[2]


def test_detection_efficiency_thins_stream():
    """False-failure rate about 5.7e-7: every photon of the full run is
    recorded, so the thinned count is binomial(1e5, 0.5) and the bound a
    two-sided 5 sigma."""
    dev = _device()
    full = run(dev, ProtocolConfig.lifetime(100_000, 51))
    half = run(dev, ProtocolConfig.lifetime(100_000, 51,
                                            detection_efficiency=0.5))
    ratio = len(half) / len(full)
    assert abs(ratio - 0.5) < 5.0 * math.sqrt(0.25 / len(full))


def test_stream_diagnostics_and_filters():
    dev = _device()
    stream = run(dev, ProtocolConfig.cw(64, 7, pump_rate_hz=1e7))
    assert stream.diagnostics["n_events"] == len(stream)
    assert stream.diagnostics["live_time_s"] == pytest.approx(64 * 20e-6)
    assert stream.diagnostics["n_attempts"] > 0
    ch0 = stream.times(channel=0)
    ch1 = stream.times(channel=1)
    assert ch0.size + ch1.size == len(stream)
    n_r = stream.times(projection=Pol.R).size
    n_l = stream.times(projection=Pol.L).size
    assert n_r + n_l == len(stream)
