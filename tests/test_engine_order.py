"""Engine event order, and the cw and pulsed engines' statistics.

Every engine batch returns its events in (shot, time) order, so `run`
only concatenates batches.  Both the cw attempt loop and the pulsed
engine were rewritten to draw only for what can be recorded, which
changes their random draws, so each is checked against a frozen copy of
the engine it replaced.  `_reference_cw_batch` is the cw loop that
drew every quantity for every segment in every round; the rewrite must
reproduce its attempt, emission and recorded counts, and its RR and RL
pair correlations, within statistical bounds.  `_reference_pulsed_batch`
is the pulsed engine that drew for every shot; the rewrite must
reproduce its counts and heralded contrast within statistical bounds.
At zero field with quiet noise the cw engine has a closed form, which
both cw loops must meet.

The heralded sweep bins each batch's recorded photons straight into its
R and L maps (`count_photon_maps`); those maps must equal exactly the R
and L maps that `build_map2d` pairs from the batch's events.  It draws
photon 2 only for the shots with a recorded photon 1; those photons must
equal exactly the full draw's photon 2 of the same shots.

The detection step `_recorded` reads its pass probability, recorded
label and keep flag from small per-channel tables.  It must equal the
frozen `_detect` that it replaced, plus that step's mask and gather,
exactly: every record and dtype, and the generator state after the call.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trionsim import montecarlo
from trionsim.core import DeviceParams, NoiseModel, NoiseTarget, Pol
from trionsim.correlator import MAP_BIN_S, build_map2d, count_photon_maps
from trionsim.dynamics import addressed_z, precessed_z, r_probability
from trionsim.montecarlo import (_PROJ, CW_REDRAW_WINDOW_S, LIFETIME_BATCH,
                                 EventStream, ProtocolConfig, ProtocolKind,
                                 _cw_batch, make_events, _pulsed_batch,
                                 _pulsed_records, _recorded, batch_tasks,
                                 pulsed_photons, run, run_batch)
from trionsim.pipelines import sliced_docp
from trionsim.rng import substream

from oracles import correlate_stream


def _detect(photon_codes, rng, det_pols, efficiency):
    """The detection step before it was table-driven, kept as it was; the
    frozen engines below call it.

    Route photons over channels and sample the recorded projection.

    Returns (channel, projection, recorded) arrays.  The rng consumption
    pattern depends only on the configuration, never on the data.
    """
    n = photon_codes.shape[0]
    nch = len(det_pols)
    if nch > 1:
        ch = rng.integers(0, nch, n, dtype=np.uint8)
    else:
        ch = np.zeros(n, dtype=np.uint8)
    u = rng.random(n)
    # per channel: the projected label, the label recorded when the photon
    # does not pass (the same one for a lossy projector, which drops it),
    # and whether a non-passing photon is recorded at all
    first = np.array([int(p[0]) for p in det_pols], dtype=np.uint8)[ch]
    second = np.array([int(p[-1]) for p in det_pols], dtype=np.uint8)[ch]
    split = np.array([len(p) == 2 for p in det_pols])[ch]
    passes = u < _PROJ[photon_codes, first]
    proj = np.where(passes, first, second)
    keep = passes | split
    if efficiency < 1.0:
        keep &= rng.random(n) < efficiency
    return ch, proj, keep


def _reference_cw_batch(device, config, batch_index, start_seg, n):
    """The cw engine before it stepped only live segments: every round
    draws every quantity for all n rows.  Kept as it was, except that
    the addressed-state sign comes from `dynamics.addressed_z` and the
    diagnostics also carry each segment's attempt and emission counts,
    for the comparison below; its events come back in (attempt round,
    segment) order.

    Lockstep continuous-excitation segments.

    Poisson excitation attempts at pump_rate succeed with probability
    p_mem * (population of the addressed hole state); a success puts the
    trion exactly on the addressed branch and the emission after an
    exponential decay delay collapses the hole to the branch eigenstate.
    The branch itself is sampled from the time-averaged trion precession
    1/(1+(2 pi f_e T1)^2), not from the per-trajectory decay phase:
    conditioning the branch on the decay delay would lag the RR and RL
    oscillations by different amounts and pull their phase gap off pi.
    Between events the hole phase accumulates f_h plus the
    piecewise-constant jitter of its redraw window.  Segments are spaced
    two segment lengths apart so cross-segment pairs cannot fall inside
    any correlation window up to one segment length.
    """
    rng = substream(config.rng_seed, config.kind.value, batch_index)
    p = device.p_mem
    f_e, f_h = device.f_e_hz, device.f_h_hz
    seg_len = config.segment_length_s
    pump = config.pump_rate_hz
    s_addr = addressed_z(config.exc_pols[0])
    win = CW_REDRAW_WINDOW_S
    n_win = int(math.ceil(seg_len / win)) + 1
    ground_noise = device.noise.affects_ground
    excited_noise = device.noise.affects_excited
    rows = np.arange(n)

    if ground_noise:
        delta = device.noise.sample(rng, (n, n_win))
        cum = np.concatenate(
            [np.zeros((n, 1)), np.cumsum(delta * win, axis=1)], axis=1)

        def noise_phase(t):
            k = np.clip((t / win).astype(np.int64), 0, n_win - 1)
            return 2.0 * math.pi * (cum[rows, k] + delta[rows, k] * (t - k * win))
    else:
        def noise_phase(t):
            return 0.0

    t_clock = np.zeros(n)
    t_reset = np.zeros(n)
    ph_reset = np.zeros(n)
    s = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    active = np.ones(n, dtype=bool)

    ev_shot, ev_code, ev_time = [], [], []
    attempts = 0
    emissions = 0
    seg_attempts = np.zeros(n, dtype=np.int64)
    guard = int(3.0 * seg_len * pump + 10.0 * math.sqrt(seg_len * pump) + 200)
    for _ in range(guard):
        if not active.any():
            break
        t_att = t_clock + rng.exponential(1.0 / pump, n)
        active &= t_att < seg_len
        ph_att = noise_phase(t_att)
        theta = 2.0 * math.pi * f_h * (t_att - t_reset) + (ph_att - ph_reset)
        b_z = s * np.cos(theta)
        u1 = rng.random(n)
        success = active & (u1 < p * 0.5 * (1.0 + s_addr * b_z))
        tau = rng.exponential(device.t1_s, n)
        df_e = device.noise.sample(rng, n) if excited_noise else 0.0
        omega_t1 = 2.0 * math.pi * (f_e + df_e) * device.t1_s
        c_bar = 1.0 / (1.0 + omega_t1 ** 2)
        is_r = rng.random(n) < 0.5 * (1.0 + s_addr * c_bar)
        t_em = t_att + tau
        emit = success & (t_em < seg_len)
        idx = np.flatnonzero(emit)
        if idx.size:
            ev_shot.append(idx.astype(np.uint32))
            ev_code.append(np.where(is_r[idx], int(Pol.R),
                                    int(Pol.L)).astype(np.uint8))
            ev_time.append(t_em[idx])
            emissions += idx.size
        attempts += int(np.count_nonzero(active))
        seg_attempts += active
        # a success consumes the hole until the emission re-creates it
        t_clock = np.where(success, t_em, np.where(active, t_att, t_clock))
        t_reset = np.where(success, t_em, t_reset)
        if ground_noise:
            ph_em = noise_phase(t_em)
            ph_reset = np.where(success, ph_em, ph_reset)
        s = np.where(success, np.where(is_r, 1.0, -1.0), s)
    else:
        raise RuntimeError("cw segment loop exceeded its iteration guard")

    if ev_shot:
        seg_idx = np.concatenate(ev_shot)
        codes = np.concatenate(ev_code)
        t_in_seg = np.concatenate(ev_time)
    else:
        seg_idx = np.zeros(0, dtype=np.uint32)
        codes = np.zeros(0, dtype=np.uint8)
        t_in_seg = np.zeros(0)
    ch, proj, keep = _detect(codes, rng, config.det_pols,
                             config.detection_efficiency)
    shots = (start_seg + seg_idx.astype(np.int64)).astype(np.uint32)
    stride = 2.0 * seg_len
    times = shots * stride + t_in_seg
    events = make_events(shots[keep], ch[keep], proj[keep], times[keep])
    return events, {"n_shots": n, "n_attempts": attempts,
                    "n_emitted": emissions,
                    "per_segment": (seg_attempts,
                                    np.bincount(seg_idx, minlength=n))}


def _reference_pulsed_batch(device, config, batch_index, start_shot, n):
    """The pulsed engine before it drew only for existing photons: every
    quantity is drawn for all n shots.  Kept as it was, except that the
    two kernel calls it used are written out as their one-line bodies
    and its `collect_state` option is gone; the diagnostics also carry
    the recorded count of each photon, for the comparison below.
    """
    rng = substream(config.rng_seed, config.kind.value, batch_index)
    p = device.p_mem
    f_e, f_h = device.f_e_hz, device.f_h_hz
    dt = config.pulse_delay_s
    s1 = addressed_z(config.exc_pols[0])

    z0 = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    correct = rng.random(n) < 0.5 * (1.0 + p)
    tau1 = rng.exponential(device.t1_s, n)
    df_e1 = device.noise.sample(rng, n) if device.noise.affects_excited else 0.0
    df_h = device.noise.sample(rng, n) if device.noise.affects_ground else 0.0
    u_b1 = rng.random(n)
    u_s2 = rng.random(n)
    tau2 = rng.exponential(device.t1_s, n)
    df_e2 = device.noise.sample(rng, n) if device.noise.affects_excited else 0.0
    u_b2 = rng.random(n)

    addressed = z0 == s1
    z_t1 = precessed_z(z0 * np.where(correct, 1.0, -1.0),
                       2.0 * math.pi * (f_e + df_e1) * tau1)
    is_r1 = u_b1 < r_probability(z_t1)
    z_h = np.where(is_r1, 1.0, -1.0)

    # ground-state Bloch vector at the arrival of pulse 2: an addressed
    # shot precesses from its heralded state since photon 1, an
    # unaddressed one from its initial state since pulse 1
    z_g = np.where(addressed, z_h, z0)
    theta_g = 2.0 * math.pi * (f_h + df_h) * np.where(addressed, dt - tau1, dt)
    b_y, b_z = -z_g * np.sin(theta_g), z_g * np.cos(theta_g)
    in_ground = ~addressed | (tau1 < dt)
    success2 = in_ground & (u_s2 < p)

    theta_e = 2.0 * math.pi * (f_e + df_e2) * tau2
    b_z_t = b_z * np.cos(theta_e) + b_y * np.sin(theta_e)
    is_r2 = u_b2 < r_probability(b_z_t)

    code1 = np.where(is_r1, int(Pol.R), int(Pol.L)).astype(np.uint8)
    code2 = np.where(is_r2, int(Pol.R), int(Pol.L)).astype(np.uint8)
    ch1, proj1, keep1 = _detect(code1, rng, config.det_pols,
                                config.detection_efficiency)
    ch2, proj2, keep2 = _detect(code2, rng, config.det_pols,
                                config.detection_efficiency)
    keep1 &= addressed
    keep2 &= success2

    shots = (start_shot + np.arange(n, dtype=np.int64)).astype(np.uint32)
    t0 = shots * config.rep_period_s
    # one (photon 1, photon 2) slot pair per shot keeps the events in
    # (shot, time) order: a shot records both photons only if tau1 < dt
    keep = np.column_stack((keep1, keep2)).ravel()

    def pairs(a, b):
        return np.column_stack((a, b)).ravel()[keep]

    events = make_events(np.repeat(shots, 2)[keep], pairs(ch1, ch2),
                          pairs(proj1, proj2), pairs(t0 + tau1, t0 + dt + tau2))
    diag = {"n_shots": n, "n_emitted": int(np.count_nonzero(addressed))
            + int(np.count_nonzero(success2)),
            "recorded": (int(np.count_nonzero(keep1)),
                         int(np.count_nonzero(keep2)))}
    return events, diag


def _device(noise, b_x_t=0.0375):
    return DeviceParams(g_e=2.09, g_h=0.35, t1_s=300e-12, p_mem=0.865,
                        b_x_t=b_x_t, noise=noise)


def _lexsorted(events):
    return events[np.lexsort((events["time"], events["shot"]))]


_T2 = 15.9e-9
_CW_CASES = {
    "quiet": (NoiseModel.quiet(), {}),
    "ground_lorentzian": (NoiseModel.lorentzian_from_t2star(_T2), {}),
    "excited_only": (NoiseModel.lorentzian_from_t2star(
        _T2, NoiseTarget.EXCITED), {}),
    "both_gaussian": (NoiseModel.gaussian_from_t2star(
        _T2, NoiseTarget.BOTH), {}),
    "l_pump": (NoiseModel.lorentzian_from_t2star(_T2),
               {"exc_pol": Pol.L}),
    "lossy_channel": (NoiseModel.lorentzian_from_t2star(_T2),
                      {"det_pols": ((Pol.R,), (Pol.R, Pol.L)),
                       "detection_efficiency": 0.7}),
}


def _segment_pair_counts(events, pairing, edges, first_seg, n):
    """RR or RL pair counts of each segment, shape (n, bins), for events
    in (segment, time) order: pairs never cross a segment, so the rows
    sum to the `correlate_cw` histogram over the same edges."""
    proj = int(Pol.R if pairing == "RR" else Pol.L)
    mine = events["projection"] == proj
    ev0 = events[mine & (events["channel"] == 0)]
    t0, t1 = ev0["time"], events["time"][mine & (events["channel"] == 1)]
    lo = np.searchsorted(t1, t0 + edges[0], side="left")
    m = np.searchsorted(t1, t0 + edges[-1], side="right") - lo
    i0 = np.repeat(np.arange(t0.size), m)
    j = np.repeat(lo - (np.cumsum(m) - m), m) + np.arange(i0.size)
    bins = np.searchsorted(edges, t1[j] - t0[i0], side="right") - 1
    ok = (bins >= 0) & (bins < edges.size - 1)
    seg = ev0["shot"][i0[ok]].astype(np.int64) - first_seg
    nb = edges.size - 1
    return np.bincount(seg * nb + bins[ok], minlength=n * nb).reshape(n, nb)


def _cw_pair_moments(device, config, events, first_seg, n):
    """Summed RR and RL `correlate_cw` counts (1 ns bins over +/-30 ns)
    and their variances, n times the per-segment sample variance of each
    bin."""
    stream = EventStream(events, device, config)
    totals, variances = [], []
    for pairing in ("RR", "RL"):
        hist = correlate_stream(stream, pairing, window_s=30e-9, bin_s=1e-9)
        per_seg = _segment_pair_counts(events, pairing, hist.bin_edges,
                                       first_seg, n)
        assert np.array_equal(per_seg.sum(axis=0), hist.counts)
        totals.append(hist.counts)
        variances.append(n * per_seg.var(axis=0, ddof=1))
    return np.concatenate(totals), np.concatenate(variances)


@pytest.mark.parametrize("pump, seg_len", [(5e7, 2e-6), (4e8, 5e-7)])
@pytest.mark.parametrize("case", sorted(_CW_CASES))
def test_cw_batch_matches_reference_loop(case, pump, seg_len):
    noise, options = _CW_CASES[case]
    device = _device(noise)
    n, first = 1024, 8192
    config = ProtocolConfig.cw(n, 77, pump_rate_hz=pump,
                               segment_length_s=seg_len, **options)
    # batch 1 of a run, so the shot offset enters the event times
    events, diag = _cw_batch(device, config, 1, first, n)
    ref_events, ref_diag = _reference_cw_batch(device, config, 1, first, n)
    ref_events = _lexsorted(ref_events)
    assert diag["n_shots"] == ref_diag["n_shots"] == n
    # The two loops simulate the same independent segments, so under the
    # hypothesis checked here a count has the same per-segment variance
    # s^2 in both, and the difference of the two n-segment totals has
    # variance 2 n s^2; s^2 is the frozen loop's per-segment sample
    # variance.  Allow 5 sigma of the difference.
    recorded = np.bincount(ref_events["shot"] - first, minlength=n)
    for key, per_seg, new in (
            ("n_attempts", ref_diag["per_segment"][0], diag["n_attempts"]),
            ("n_emitted", ref_diag["per_segment"][1], diag["n_emitted"]),
            ("recorded", recorded, events.shape[0])):
        ref = int(per_seg.sum())
        bound = 5.0 * math.sqrt(2.0 * n * per_seg.var(ddof=1))
        assert abs(new - ref) <= bound, (key, new, ref, bound)
    assert ref_diag["n_attempts"] == int(ref_diag["per_segment"][0].sum())
    # RR and RL pair correlations, bin by bin where both sides hold >= 20
    # pairs: chi^2 over the k bins at most k + 5 sqrt(2k), each side's
    # variance taken from its own per-segment counts
    c_new, v_new = _cw_pair_moments(device, config, events, first, n)
    c_ref, v_ref = _cw_pair_moments(device, config, ref_events, first, n)
    both = (c_new >= 20) & (c_ref >= 20)
    k = int(np.count_nonzero(both))
    assert k >= 30
    chi2 = float(np.sum((c_new - c_ref)[both] ** 2
                        / (v_new + v_ref)[both]))
    assert chi2 <= k + 5.0 * math.sqrt(2.0 * k), (chi2, k)


@pytest.mark.parametrize("engine", [_cw_batch, _reference_cw_batch],
                         ids=["engine", "reference"])
def test_cw_zero_field_closed_form(engine):
    # No field and quiet noise: nothing precesses, and the trion always
    # decays back to the addressed hole state.  A segment whose hole
    # starts opposite to the pump never succeeds; one that starts on it
    # is a renewal process of an exponential wait for a success (rate
    # pump * p_mem) plus an exponential decay (T1), and every attempt
    # falls in the ground time seg_len - (emissions) * T1.
    device = _device(NoiseModel.quiet(), b_x_t=0.0)
    n, pump = 2048, 1e8
    config = ProtocolConfig.cw(n, 29, pump_rate_hz=pump)
    seg_len, t1 = config.segment_length_s, device.t1_s
    events, diag = engine(device, config, 0, 0, n)
    # the default channels split R/L at efficiency 1: every photon counts
    assert events.shape[0] == diag["n_emitted"]
    emitted = np.bincount(events["shot"], minlength=n)
    bright = emitted[emitted > 0]
    assert abs(n - 2 * bright.size) <= 5.0 * math.sqrt(n)
    # renewal count: mean seg_len / (mean cycle), up to an edge term of
    # -ab/(a + b)^2 > -0.03 photons, far inside the bound
    cycle = 1.0 / (pump * device.p_mem) + t1
    assert abs(bright.mean() - seg_len / cycle) <= \
        5.0 * bright.std(ddof=1) / math.sqrt(bright.size)
    # attempts are Poisson at the pump rate over each segment's ground
    # time, whose variance is about T1^2 (mean + variance of emissions)
    mean_emitted = diag["n_emitted"] / n
    var_attempts = diag["n_attempts"] / n + (pump * t1) ** 2 * (
        mean_emitted + emitted.var(ddof=1))
    expected = n * pump * (seg_len - mean_emitted * t1)
    assert abs(diag["n_attempts"] - expected) <= \
        5.0 * math.sqrt(n * var_attempts)


_KINDS = {
    ProtocolKind.LIFETIME: lambda n, seed, eff: ProtocolConfig.lifetime(
        n, seed, det_pols=((Pol.R,), (Pol.H, Pol.V)),
        detection_efficiency=eff),
    ProtocolKind.DOCP_ZERO_FIELD: lambda n, seed, eff:
        ProtocolConfig.docp_zero_field(n, seed, detection_efficiency=eff),
    ProtocolKind.PULSED_2PC: lambda n, seed, eff: ProtocolConfig.pulsed(
        n, seed, pulse_delay_s=0.4e-9, detection_efficiency=eff),
    ProtocolKind.CW_G2: lambda n, seed, eff: ProtocolConfig.cw(
        n, seed, pump_rate_hz=2e8, segment_length_s=1e-6,
        detection_efficiency=eff),
}
_BOTH = NoiseModel.lorentzian_from_t2star(_T2, NoiseTarget.BOTH)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(kind=st.sampled_from(sorted(_KINDS)), n=st.integers(1, 3000),
       seed=st.integers(0, 2 ** 32), eff=st.sampled_from((1.0, 0.6)))
def test_batch_events_come_back_sorted(kind, n, seed, eff):
    # a 0.4 ns pulse delay lets some shots record both photons with
    # tau1 close to the delay
    config = _KINDS[kind](n if kind is not ProtocolKind.CW_G2 else
                          1 + n // 30, seed, eff)
    events, _ = run_batch((_device(_BOTH, 0.15), config, 0, 5000,
                           config.n_shots))
    assert events.tobytes() == _lexsorted(events).tobytes()


@pytest.mark.parametrize("workers", [1, 2])
@settings(max_examples=8, derandomize=True, deadline=None, database=None)
@given(kind=st.sampled_from(sorted(_KINDS)), n=st.integers(1, 5000),
       seed=st.integers(0, 2 ** 32))
def test_run_is_the_concatenation_of_sorted_batches(workers, kind, n, seed):
    config = _KINDS[kind](n if kind is not ProtocolKind.CW_G2 else
                          1 + n // 50, seed, 0.8)
    device = _device(_BOTH, 0.15)
    with pytest.MonkeyPatch.context() as mp:
        # small batches give several of them, the last one partial
        mp.setattr(montecarlo, "LIFETIME_BATCH", 1024)
        mp.setattr(montecarlo, "CW_SEGMENT_BATCH", 16)
        batches = [run_batch(t)[0] for t in batch_tasks(device, config)]
        stream = run(device, config, workers=workers)
    size = 16 if kind is ProtocolKind.CW_G2 else 1024
    assert len(batches) == -(-config.n_shots // size)
    merged = _lexsorted(np.concatenate(batches))
    assert stream.events.tobytes() == merged.tobytes()


# The fig3d device (ground Lorentzian jitter for T2* = 15.9 ns) at a
# pulse delay below and above the typical tau1 of 300 ps, efficiency
# 0.8, one lossy channel heralding R or L and one splitter.  An L herald
# leaves the hole opposite to the state pulse 1 addressed, so photon 2
# must precess from the herald, not from the initial state.
_PULSED_BATCHES = 6
_HERALDS = {"herald_r": Pol.R, "herald_l": Pol.L}


def _pulsed_totals(batch, device, config):
    """Summed counters and R/L maps (one t1 row up to min(dt, 0.4 ns),
    25 ps t2 bins) of the first batches of a run."""
    dt = config.pulse_delay_s
    t1_edges = [0.0, min(dt, 0.4e-9)]
    t2_edges = 25e-12 * np.arange(61)
    totals = {"photon1": 0, "photon2": 0, "n_emitted": 0}
    maps = []
    for b in range(_PULSED_BATCHES):
        start = b * LIFETIME_BATCH
        events, diag = batch(device, config, b, start, LIFETIME_BATCH)
        totals["photon1"] += diag["recorded"][0]
        totals["photon2"] += diag["recorded"][1]
        totals["n_emitted"] += diag["n_emitted"]
        batch_maps = build_map2d(events, config, LIFETIME_BATCH, t1_edges,
                                 t2_edges)
        maps = batch_maps if not maps else \
            [a + m for a, m in zip(maps, batch_maps)]
    for key, m in zip(("shots_used_r", "shots_used_l"), maps):
        totals[key] = m.diagnostics["shots_used"]
    rr, rl = (m.counts[0] for m in maps)
    return totals, sliced_docp(*maps, t1_s=t1_edges[1] / 2,
                               tolerance_s=t1_edges[1] / 2), rr, rl


def _counted_pulsed_batch(device, config, batch_index, start_shot, n):
    """`_pulsed_batch`, with the recorded count of each photon taken from
    its `_recorded` calls (photon 1's, then photon 2's of the heralded
    shots and of the others, summed): the engine detects only photons
    that exist."""
    recorded = []

    def counting_recorded(*args):
        out = _recorded(*args)
        recorded.append(out[0].shape[0])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_recorded", counting_recorded)
        events, diag = _pulsed_batch(device, config, batch_index,
                                     start_shot, n)
    assert len(recorded) == 3
    return events, dict(diag, recorded=(recorded[0], sum(recorded[1:])))


@pytest.mark.parametrize("herald", sorted(_HERALDS))
@pytest.mark.parametrize("dt", [0.2e-9, 3e-9])
def test_pulsed_batch_matches_reference_statistics(dt, herald):
    device = DeviceParams(g_e=2.09, g_h=0.362, t1_s=300e-12, p_mem=0.865,
                          b_x_t=0.15,
                          noise=NoiseModel.lorentzian_from_t2star(_T2))
    config = ProtocolConfig.pulsed(
        _PULSED_BATCHES * LIFETIME_BATCH, 91, pulse_delay_s=dt,
        det_pols=((_HERALDS[herald],), (Pol.R, Pol.L)),
        detection_efficiency=0.8)
    new, docp_new, rr_new, rl_new = _pulsed_totals(_counted_pulsed_batch,
                                                   device, config)
    ref, docp_ref, rr_ref, rl_ref = _pulsed_totals(_reference_pulsed_batch,
                                                   device, config)
    # The bounds follow from the variances alone.  Each count sums
    # independent per-shot indicators, so its variance is at most its
    # mean (twice its mean for n_emitted, 0-2 photons per shot); the two
    # engines share their first draw, which only lowers the variance of
    # the difference.  Allow 5 sigma of the difference.
    for key in ref:
        weight = 2.0 if key == "n_emitted" else 1.0
        bound = 5.0 * math.sqrt(weight * (new[key] + ref[key]))
        assert abs(new[key] - ref[key]) <= bound, (key, new[key], ref[key])
    assert min(ref["shots_used_r"], ref["shots_used_l"]) > 2000
    # The sliced DOCP of each t2 bin holding >= 20 pairs on both sides:
    # the two binomial estimates must agree, chi^2 over the k bins at
    # most k + 5 sqrt(2k).  The variance takes the pooled R fraction with
    # one pseudo-count each way, which stays positive in a bin where
    # every pair is R (or L).
    n_new, n_ref = rr_new + rl_new, rr_ref + rl_ref
    both = (n_new >= 20) & (n_ref >= 20)
    k = int(np.count_nonzero(both))
    assert k >= 10
    p_r = (rr_new + rr_ref + 1.0)[both] / (n_new + n_ref + 2.0)[both]
    var = 4.0 * p_r * (1.0 - p_r) * (1.0 / n_new[both] + 1.0 / n_ref[both])
    diff = docp_new.values[both] - docp_ref.values[both]
    chi2 = float(np.sum(diff ** 2 / var))
    assert chi2 <= k + 5.0 * math.sqrt(2.0 * k), (chi2, k)


# Two-channel layouts: the default (lossy R herald, R/L splitter), both
# split, both lossy, and a channel 1 that records only H or V, so that
# neither map gets a pair.
_PHOTON_CHANNELS = {
    "default": None,
    "both_split": ((Pol.R, Pol.L), (Pol.R, Pol.L)),
    "both_lossy": ((Pol.R,), (Pol.L,)),
    "r_hv": ((Pol.R,), (Pol.H, Pol.V)),
}
_PHOTON_NOISE = {
    "quiet": NoiseModel.quiet(),
    "ground": NoiseModel.lorentzian_from_t2star(_T2),
    "both": _BOTH,
}


@pytest.mark.parametrize("channels", sorted(_PHOTON_CHANNELS))
@pytest.mark.parametrize("noise", sorted(_PHOTON_NOISE))
def test_photon_maps_equal_event_maps(noise, channels):
    # every batch of runs of 1 and 3 batches (the later ones at a
    # non-zero shot offset, the last one partial), at efficiency 1 and
    # 0.6, with a pulse delay below and above the typical tau1
    size = 4096
    device = _device(_PHOTON_NOISE[noise], b_x_t=0.15)
    totals = {"shots_used": 0, "pairs_in_range": 0}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "LIFETIME_BATCH", size)
        for eff, dt, n_batches in itertools.product(
                (1.0, 0.6), (0.2e-9, 3e-9), (1, 3)):
            config = ProtocolConfig.pulsed(
                n_batches * size - 100 * (n_batches - 1), 17,
                pulse_delay_s=dt, det_pols=_PHOTON_CHANNELS[channels],
                detection_efficiency=eff)
            tasks = batch_tasks(device, config)
            assert len(tasks) == n_batches
            for task in tasks:
                _, _, _, start, count = task
                events, _ = run_batch(task)
                photon1, photon2, _ = pulsed_photons(task)
                maps = count_photon_maps(photon1, photon2, config, start,
                                         count)
                for got, want in zip(maps,
                                     build_map2d(events, config, count)):
                    assert got.counts.dtype == want.counts.dtype
                    assert np.array_equal(got.counts, want.counts)
                    assert got.diagnostics == want.diagnostics
                    assert np.array_equal(got.t1_edges, want.t1_edges)
                    assert np.array_equal(got.t2_edges, want.t2_edges)
                    for key in totals:
                        totals[key] += got.diagnostics[key]
    if channels == "r_hv":
        assert totals["shots_used"] == 0
    else:
        # some used shots have photon 1 on channel 1: they count as used
        # but fall out of range
        assert totals["shots_used"] > totals["pairs_in_range"] > 0


def test_photon_maps_bin_times_as_the_events_hold_them():
    # 10^8 shots into a run, shot * rep_period_s + t keeps t to about
    # 2e-16 s, so a time that close to a 10 ps edge can change bins once
    # it is an event time; the photon path must bin it as build_map2d does
    n, start, dt = 4096, 10 ** 8, 3e-9
    config = ProtocolConfig.pulsed(2 * start, 1, pulse_delay_s=dt)
    rng = np.random.default_rng(5)
    edges = MAP_BIN_S * np.arange(1, 200)

    def near_edges():
        return rng.choice(edges, n) + rng.uniform(-1e-15, 1e-15, n)

    shots = np.arange(n)
    photon1 = (shots, np.zeros(n, np.uint8), np.full(n, int(Pol.R), np.uint8),
               near_edges())
    photon2 = (shots, np.ones(n, np.uint8),
               rng.choice([int(Pol.R), int(Pol.L)], n).astype(np.uint8),
               dt + near_edges())
    events = _pulsed_records(start, config.rep_period_s, photon1, photon2)
    maps = count_photon_maps(photon1, photon2, config, start, n)
    for got, want in zip(maps, build_map2d(events, config, n)):
        assert np.array_equal(got.counts, want.counts)
        assert got.diagnostics == want.diagnostics
    # the case has teeth: binned from the drawn times, some pairs move
    held = events["time"][events["channel"] == 0] - \
        (start + shots) * config.rep_period_s
    assert np.any(np.searchsorted(edges, held, side="right")
                  != np.searchsorted(edges, photon1[3], side="right"))


def _heralded_photons(task):
    """`pulsed_photons(task, heralded_only=True)` and the key paths of
    the substreams it built."""
    paths = []

    def keyed(seed, *path):
        paths.append(path)
        return substream(seed, *path)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "substream", keyed)
        return pulsed_photons(task, heralded_only=True), paths


# photon 1 heralds on a lossy R projector or on an R/L splitter
_HERALD_LAYOUTS = {"lossy": None, "splitter": ((Pol.R, Pol.L), (Pol.R, Pol.L))}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("eff", [1.0, 0.6])
@pytest.mark.parametrize("layout", sorted(_HERALD_LAYOUTS))
def test_heralded_only_photons_are_the_full_draw_restricted(layout, eff,
                                                            workers):
    # three batches, the last one partial, with ground and excited
    # jitter: photon 1 and the heralded shots' photon 2 come from the
    # batch's own substream in both modes, and the heralded-only mode
    # never builds the "unpaired" one
    size = 4096
    device = _device(_BOTH, b_x_t=0.15)
    config = ProtocolConfig.pulsed(3 * size - 100, 23, pulse_delay_s=0.4e-9,
                                   det_pols=_HERALD_LAYOUTS[layout],
                                   detection_efficiency=eff)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "LIFETIME_BATCH", size)
        tasks = batch_tasks(device, config)
    assert len(tasks) == 3
    full = list(montecarlo.map_batches(pulsed_photons, tasks, workers))
    heralded = list(montecarlo.map_batches(_heralded_photons, tasks,
                                           workers))
    unpaired = 0
    for task, (photon1, photon2, _), ((h1, h2, counters), paths) in zip(
            tasks, full, heralded):
        assert paths == [(config.kind.value, task[2])]
        assert counters["n_shots"] == task[4]
        mine = np.isin(photon2[0], photon1[0])
        unpaired += int(np.count_nonzero(~mine))
        for got, want in zip(h1 + h2, photon1 + tuple(a[mine]
                                                      for a in photon2)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert h2[0].size > 0
    # the full draw has photon 2s that the heralded-only mode skips
    assert unpaired > 0


def _same_state(a, b):
    """Bit-generator states equal in every field, arrays included."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k])
                                            for k in a)
    return np.array_equal(a, b)


# Channel layouts of the detection step: lossy projectors, splitters and
# linear labels, which pass a circular photon with probability 1/2.
_DETECTORS = {
    "one_lossy": ((Pol.R,),),
    "two_lossy": ((Pol.R,), (Pol.L,)),
    "lossy_splitter": ((Pol.R,), (Pol.R, Pol.L)),
    "two_splitters": ((Pol.R, Pol.L), (Pol.R, Pol.L)),
    "linear_h": ((Pol.H,),),
    "linear_d_splitter": ((Pol.L,), (Pol.D, Pol.A)),
}


@pytest.mark.parametrize("n", [0, 1, 5000])
@pytest.mark.parametrize("eff", [1.0, 0.7])
@pytest.mark.parametrize("detectors", sorted(_DETECTORS))
def test_recorded_equals_frozen_detect(detectors, eff, n):
    # the table-driven step against the frozen `_detect` plus the mask
    # and gather it replaced: the same draws, records and dtypes
    config = ProtocolConfig.lifetime(max(n, 1), 3,
                                     det_pols=_DETECTORS[detectors],
                                     detection_efficiency=eff)
    source = np.random.default_rng(n)
    is_r = source.random(n) < 0.4
    for shot in (np.arange(n), np.arange(n, dtype=np.uint16)):
        t = source.random(n)
        rng, ref_rng = (substream(11, "detect", n) for _ in range(2))
        got = _recorded(rng, config, shot, is_r, t)
        codes = np.where(is_r, int(Pol.R), int(Pol.L)).astype(np.uint8)
        ch, proj, keep = _detect(codes, ref_rng, config.det_pols, eff)
        want = (shot[keep], ch[keep], proj[keep], t[keep])
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()
        assert _same_state(rng.bit_generator.state,
                           ref_rng.bit_generator.state)
