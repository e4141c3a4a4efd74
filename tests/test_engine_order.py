"""Engine event order and the cw attempt loop.

Every engine batch returns its events in (shot, time) order, so `run`
only concatenates batches.  The cw attempt loop was rewritten to make
fewer array passes with the same random draws; `_reference_cw_batch`
below is the loop as it was before, kept verbatim, and the rewrite must
reproduce its events byte for byte.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trionsim import montecarlo
from trionsim.core import DeviceParams, NoiseModel, NoiseTarget, Pol
from trionsim.montecarlo import (CW_REDRAW_WINDOW_S, ProtocolConfig,
                                 ProtocolKind, _cw_batch, _detect,
                                 _exc_sign, _make_events, batch_tasks,
                                 run, run_batch)
from trionsim.rng import substream


def _reference_cw_batch(device, config, batch_index, start_seg, n):
    """Lockstep continuous-excitation segments.

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
    s_addr = _exc_sign(config.exc_pols[0])
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
    events = _make_events(shots[keep], ch[keep], proj[keep], times[keep])
    return events, {"n_shots": n, "n_attempts": attempts,
                    "n_emitted": emissions}



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


@pytest.mark.parametrize("pump, seg_len", [(5e7, 2e-6), (4e8, 5e-7)])
@pytest.mark.parametrize("case", sorted(_CW_CASES))
def test_cw_batch_matches_reference_loop(case, pump, seg_len):
    noise, options = _CW_CASES[case]
    device = _device(noise)
    config = ProtocolConfig.cw(300, 77, pump_rate_hz=pump,
                               segment_length_s=seg_len, **options)
    # batch 1 of a run, so the shot offset enters the event times
    events, diag = _cw_batch(device, config, 1, 8192, 300)
    ref_events, ref_diag = _reference_cw_batch(device, config, 1, 8192, 300)
    assert ref_events.shape[0] > 100
    assert events.tobytes() == _lexsorted(ref_events).tobytes()
    assert diag == ref_diag


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
