"""Histogramming and correlation analysis against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trionsim.core import DeviceParams, NoiseModel, Pol, larmor_frequency
from trionsim.correlator import (
    _bin_values,
    MAP_EDGES,
    DocpTrace,
    Histogram1D,
    bin_lifetime,
    build_map2d,
    correlate_cw,
    cw_window_edges,
    docp,
    lifetime_edges,
    plateau_normalized,
    slice_map,
    write_csv,
    write_map_csv,
)
from trionsim.fitkit import fft_frequency
from trionsim.montecarlo import (EVENT_DTYPE, ProtocolConfig, batch_tasks,
                                 run_batch)
from trionsim.pipelines import histograms

from oracles import (EventStream, correlate_stream, merged_histograms, run,
                     stream_maps)


def _device(**kw):
    base = dict(g_e=2.09, g_h=0.362, t1_s=300e-12, p_mem=0.865, b_x_t=0.15,
                noise=NoiseModel.quiet())
    base.update(kw)
    return DeviceParams(**base)


def _make_stream(ch_times, projections=None, kind="cw"):
    """Synthetic stream; ch_times is a list of per-channel time arrays."""
    times = np.concatenate([np.asarray(t, dtype=float) for t in ch_times])
    chans = np.concatenate([np.full(len(t), c, dtype=np.uint8)
                            for c, t in enumerate(ch_times)])
    if projections is None:
        projs = np.full(times.size, int(Pol.R), dtype=np.uint8)
    else:
        projs = np.concatenate([np.asarray(p, dtype=np.uint8)
                                for p in projections])
    events = np.empty(times.size, dtype=EVENT_DTYPE)
    events["shot"] = 0
    events["channel"] = chans
    events["projection"] = projs
    events["time"] = times
    order = np.lexsort((events["time"], events["shot"]))
    if kind == "cw":
        config = ProtocolConfig.cw(1, 1, pump_rate_hz=1e6,
                                   segment_length_s=1.0)
    else:
        config = ProtocolConfig.pulsed(4, 1, pulse_delay_s=1.6e-9)
    return EventStream(events[order], _device(), config)


def _brute_force(t0s, t1s, edges, start_stop=False):
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    t1s = np.sort(np.asarray(t1s, dtype=float))
    for t0 in t0s:
        if start_stop:
            after = t1s[t1s > t0]
            deltas = [after[0] - t0] if after.size else []
        else:
            deltas = [t1 - t0 for t1 in t1s]
        for d in deltas:
            idx = np.searchsorted(edges, d, side="right") - 1
            if 0 <= idx < edges.size - 1:
                counts[idx] += 1
    return counts


def test_two_click_example():
    stream = _make_stream([[0.0], [1e-9, 3e-9]])
    hist = correlate_stream(stream, "RR", window_s=5e-9, bin_s=1e-9)
    assert hist.total == 2
    nonzero = np.nonzero(hist.counts)[0]
    assert len(nonzero) == 2
    for idx, d in zip(nonzero, (1e-9, 3e-9)):
        assert hist.bin_edges[idx] <= d < hist.bin_edges[idx + 1]
        assert hist.counts[idx] == 1


def test_correlate_matches_brute_force():
    rng = np.random.default_rng(41)
    t0 = np.sort(rng.uniform(0.0, 1e-6, 400))
    t1 = np.sort(rng.uniform(0.0, 1e-6, 500))
    projs = [np.where(rng.random(400) < 0.6, int(Pol.R), int(Pol.L)),
             np.where(rng.random(500) < 0.6, int(Pol.R), int(Pol.L))]
    stream = _make_stream([t0, t1], projs)
    for pairing, code in (("RR", int(Pol.R)), ("RL", int(Pol.L))):
        sel0 = t0[projs[0] == code]
        sel1 = t1[projs[1] == code]
        for start_stop in (False, True):
            hist = correlate_stream(stream, pairing, window_s=50e-9,
                                    bin_s=10e-9, start_stop=start_stop)
            ref = _brute_force(sel0, sel1, hist.bin_edges, start_stop)
            assert np.array_equal(hist.counts, ref)


def test_independent_streams_are_flat():
    rng = np.random.default_rng(42)
    t0 = np.sort(rng.uniform(0.0, 1e-6, 500))
    t1 = np.sort(rng.uniform(0.0, 1e-6, 500))
    stream = _make_stream([t0, t1])
    hist = correlate_stream(stream, "RR", window_s=50e-9, bin_s=10e-9)
    lam = 500 * 500 * 10e-9 / 1e-6
    assert np.abs(hist.counts - lam).max() <= 3.0 * math.sqrt(lam)


def test_correlate_validation():
    stream = _make_stream([[0.0], [1e-9]])
    with pytest.raises(ValueError):
        correlate_stream(stream, "RX", window_s=5e-9)
    with pytest.raises(ValueError):
        correlate_stream(stream, "RR", window_s=5e-9, bin_s=0.0)
    with pytest.raises(ValueError):
        correlate_stream(stream, "RR", window_s=2.0)
    # a window inside a 20 us segment whose whole 12 us bins reach 24 us
    config = ProtocolConfig.cw(1, 1, pump_rate_hz=1e6,
                               segment_length_s=20e-6)
    with pytest.raises(ValueError, match="window exceeds the segment length"):
        cw_window_edges(config, 20e-6, bin_s=12e-6)
    with pytest.raises(ValueError, match="cw_g2"):
        correlate_stream(_make_stream([[0.0], [1e-9]], kind="pulsed"), "RR",
                         window_s=5e-9)
    empty = _make_stream([[], []])
    hist = correlate_stream(empty, "RR", window_s=5e-9, bin_s=1e-9)
    assert hist.total == 0


_R, _L = int(Pol.R), int(Pol.L)
# per batch of segments 0 and 1: (channel, projection, time in segment)
# of each record
_CW_BATCH_LAYOUTS = {
    # neither batch has both channels, the run does
    "ch0_then_ch1": ([(0, _R, 0.1e-6), (0, _R, 0.3e-6)], [(1, _R, 0.2e-6)]),
    "ch1_then_ch0": ([(1, _R, 0.4e-6)], [(0, _R, 0.1e-6), (0, _L, 0.2e-6)]),
    # one channel has no R click in the whole run
    "ch0_only": ([(0, _R, 0.1e-6)], [(0, _R, 0.2e-6), (1, _L, 0.3e-6)]),
    # pairs inside each batch
    "both": ([(0, _R, 0.1e-6), (1, _R, 0.15e-6), (1, _L, 0.2e-6)],
             [(1, _R, 0.05e-6), (0, _R, 0.3e-6), (1, _R, 0.35e-6)]),
}


@pytest.mark.parametrize("layout", sorted(_CW_BATCH_LAYOUTS))
@pytest.mark.parametrize("pairing", ["RR", "RL"])
def test_cw_batch_sums_match_whole_stream(layout, pairing):
    # per-batch pair counts must sum to correlate_cw of the concatenated
    # batches, also when no batch on its own pairs both channels
    config = ProtocolConfig.cw(2, 1, pump_rate_hz=1e6, segment_length_s=1e-6)
    stride = 2.0 * config.segment_length_s
    batches = []
    for seg, records in enumerate(_CW_BATCH_LAYOUTS[layout]):
        records = sorted(records, key=lambda r: r[2])
        ev = np.empty(len(records), dtype=EVENT_DTYPE)
        ev["shot"] = seg
        ev["channel"], ev["projection"], ev["time"] = (
            np.array([r[i] for r in records]) for i in range(3))
        ev["time"] += seg * stride
        batches.append(ev)
    edges = cw_window_edges(config, 0.5e-6, bin_s=0.05e-6)
    summed = sum(correlate_cw(ev["channel"], ev["projection"], ev["time"],
                              pairing, edges).counts for ev in batches)
    whole = correlate_stream(EventStream(np.concatenate(batches), _device(),
                                         config), pairing, 0.5e-6, 0.05e-6)
    assert summed.tobytes() == whole.counts.tobytes()


def test_plateau_normalized_rules():
    def h(counts, window=5.0):
        # bins of 1 over +/-window; the plateau is |center| >= 0.75 window
        counts = np.asarray(counts, dtype=np.int64)
        return Histogram1D(np.arange(-window, window + 1), counts,
                           np.sqrt(counts))

    empty = h(np.zeros(10))
    assert plateau_normalized(empty, 5.0) is empty
    with pytest.raises(ValueError, match="empty plateau"):
        plateau_normalized(h([0, 0, 1, 2, 3, 3, 2, 1, 0, 0]), 5.0)
    # a window of one bin has centers at +/-0.5, none in its outer quarter,
    # whatever the counts
    for counts in ([0, 0], [4, 4]):
        with pytest.raises(ValueError, match="bin of 1 s .* window 1 s"):
            plateau_normalized(h(counts, 1.0), 1.0)
    g2 = plateau_normalized(h([4, 2, 1, 0, 1, 1, 0, 1, 2, 4]), 5.0)
    assert g2.counts.tolist() == [1.0, 0.5, 0.25, 0, 0.25, 0.25, 0, 0.25,
                                  0.5, 1.0]
    assert g2.errors.tolist() == pytest.approx(
        [0.5, np.sqrt(2) / 4, 0.25, 0, 0.25, 0.25, 0, 0.25, np.sqrt(2) / 4,
         0.5])


def test_docp_arithmetic():
    edges = np.array([0.0, 1.0])

    def h(c):
        counts = np.array([c], dtype=float)
        return Histogram1D(edges, counts, np.sqrt(counts))

    assert docp(h(100), h(100)).values[0] == 0.0
    assert docp(h(400), h(0)).values[0] == 1.0
    assert docp(h(373), h(27)).values[0] == pytest.approx(0.865, abs=1e-12)
    trace = docp(h(373), h(27))
    assert trace.errors[0] == pytest.approx(
        math.sqrt((1.0 - 0.865 ** 2) / 400.0), rel=1e-12)
    empty = docp(h(0), h(0))
    assert not empty.valid[0] and np.isnan(empty.values[0])


def test_docp_antisymmetry():
    rng = np.random.default_rng(43)
    edges = np.arange(11.0)
    a_counts = rng.integers(0, 50, 10).astype(float)
    b_counts = rng.integers(0, 50, 10).astype(float)
    a = Histogram1D(edges, a_counts, np.sqrt(a_counts))
    b = Histogram1D(edges, b_counts, np.sqrt(b_counts))
    ab, ba = docp(a, b), docp(b, a)
    ok = ab.valid
    assert np.array_equal(ab.values[ok], -ba.values[ok])
    assert np.array_equal(ab.valid, ba.valid)
    with pytest.raises(ValueError):
        docp(a, Histogram1D(edges * 2.0, a_counts, np.sqrt(a_counts)))


def test_refinement_preserves_totals():
    rng = np.random.default_rng(44)
    t0 = np.sort(rng.uniform(0.0, 1e-6, 300))
    t1 = np.sort(rng.uniform(0.0, 1e-6, 300))
    stream = _make_stream([t0, t1])
    coarse = correlate_stream(stream, "RR", window_s=40e-9, bin_s=10e-9)
    fine = correlate_stream(stream, "RR", window_s=40e-9, bin_s=5e-9)
    assert fine.total == coarse.total
    assert np.array_equal(fine.counts.reshape(-1, 2).sum(axis=1),
                          coarse.counts)


def test_histogram_merge_matches_single_pass():
    dev = _device()
    stream = run(dev, ProtocolConfig.lifetime(20000, 45))
    edges = lifetime_edges(dev, stream.config, 50e-12)
    full = histograms(edges, bin_lifetime(stream.events, stream.config, edges))
    even = stream.events[stream.events["shot"] % 2 == 0]
    odd = stream.events[stream.events["shot"] % 2 == 1]
    parts = [histograms(edges, bin_lifetime(ev, stream.config, edges))
             for ev in (even, odd)]
    for whole, *halves in zip(full, *parts):
        merged = merged_histograms(*halves)
        assert np.array_equal(merged.counts, whole.counts)
        assert np.allclose(merged.errors ** 2, whole.counts)


def test_histogram_validation():
    with pytest.raises(ValueError):
        Histogram1D(np.array([0.0, 1.0, 1.0]), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        Histogram1D(np.array([0.0, 1.0]), np.array([-1.0]), np.zeros(1))
    with pytest.raises(ValueError):
        Histogram1D(np.array([0.0, 1.0]), np.zeros(2), np.zeros(2))


def test_map2d_single_pair():
    t1, t2 = 0.37e-9, 1.903e-9
    delay = 1.6e-9
    events = np.zeros(2, dtype=EVENT_DTYPE)
    events["channel"] = (0, 1)
    events["projection"] = int(Pol.R)
    events["time"] = (t1, delay + t2)
    config = ProtocolConfig.pulsed(1, 1, pulse_delay_s=delay)
    stream = EventStream(events, _device(), config)
    m, m_l = stream_maps(stream)
    assert m.counts.sum() == 1 and m_l.counts.sum() == 0
    i, j = np.nonzero(m.counts)
    assert m.t1_edges[i[0]] <= t1 < m.t1_edges[i[0] + 1]
    assert m.t2_edges[j[0]] <= t2 < m.t2_edges[j[0] + 1]
    assert build_map2d(events, config)[2:] == (1, 0)


def test_map2d_drops_ambiguous_shots():
    delay = 1.6e-9
    rows = [
        (0, 0, 0.1e-9), (0, 1, delay + 0.2e-9),      # good
        (1, 0, 0.1e-9), (1, 0, 0.3e-9), (1, 1, delay + 0.2e-9),  # 2 on ch0
        (2, 0, 0.1e-9),                               # missing ch1
    ]
    events = np.zeros(len(rows), dtype=EVENT_DTYPE)
    for k, (shot, ch, t) in enumerate(rows):
        events[k] = (shot, ch, int(Pol.R), shot * 12.5e-9 + t)
    config = ProtocolConfig.pulsed(3, 1, pulse_delay_s=delay)
    stream = EventStream(events, _device(), config)
    m, _ = stream_maps(stream)
    # one shot used, the other two dropped
    assert build_map2d(events, config)[2:] == (1, 0)
    assert m.counts.sum() == 1
    with pytest.raises(ValueError):
        stream_maps(run(_device(), ProtocolConfig.lifetime(64, 1)))


def test_map2d_pairs_each_shot_of_exactly_two_records():
    # a shot is used when its two adjacent records are one per channel,
    # whichever comes first; a third record on either channel drops it
    delay = 0.2e-9
    rows = [
        (0, 1, int(Pol.L), 0.5e-9), (0, 0, int(Pol.R), 0.9e-9),  # used
        (1, 0, int(Pol.R), 0.1e-9), (1, 1, int(Pol.R), 0.5e-9),
        (1, 1, int(Pol.L), 0.7e-9),                    # 2 on ch1
        (2, 1, int(Pol.R), 0.3e-9), (2, 1, int(Pol.L), 0.4e-9),  # no ch0
    ]
    events = np.zeros(len(rows), dtype=EVENT_DTYPE)
    for k, (shot, ch, proj, t) in enumerate(rows):
        events[k] = (shot, ch, proj, shot * 12.5e-9 + t)
    config = ProtocolConfig.pulsed(4, 1, pulse_delay_s=delay)
    counts_r, counts_l, used_r, used_l = build_map2d(events, config)
    assert counts_r.sum() == 0 and counts_l.sum() == 1
    assert (used_r, used_l) == (0, 1)
    i, j = np.nonzero(counts_l)
    assert MAP_EDGES[i[0]] <= 0.9e-9 < MAP_EDGES[i[0] + 1]
    assert MAP_EDGES[j[0]] <= 0.3e-9 < MAP_EDGES[j[0] + 1]


def test_map2d_counts_equal_a_pair_by_pair_count():
    # one used shot per pair, with t1 and t2 each before, inside and past
    # its edges: a pair counts only where both fall inside, and the maps
    # bin t2 only for the pairs whose t1 does
    rng = np.random.default_rng(8)
    delay, n = 0.3e-9, 3000
    t1_edges = 0.1e-9 + 20e-12 * np.arange(6)
    t2_edges = 0.05e-9 + 37e-12 * np.arange(9)
    t1 = rng.uniform(0.0, 0.3e-9, n)
    t2 = rng.uniform(0.0, 0.5e-9, n)
    proj = np.where(rng.random(n) < 0.5, int(Pol.R), int(Pol.L))
    events = np.zeros(2 * n, dtype=EVENT_DTYPE)
    events["shot"] = np.repeat(np.arange(n), 2)
    events["channel"] = np.tile([0, 1], n)
    events["projection"] = np.column_stack((np.full(n, int(Pol.R)),
                                            proj)).ravel()
    events["time"] = np.column_stack((t1, delay + t2)).ravel() \
        + events["shot"] * 12.5e-9
    config = ProtocolConfig.pulsed(n, 1, pulse_delay_s=delay)
    *maps, used_r, used_l = build_map2d(events, config, t1_edges, t2_edges)
    held1 = events["time"][0::2] - np.arange(n) * 12.5e-9
    held2 = events["time"][1::2] - np.arange(n) * 12.5e-9 - delay
    for label, m, used in zip((Pol.R, Pol.L), maps, (used_r, used_l)):
        want = np.zeros((5, 8), dtype=np.int64)
        for a, b, p in zip(held1, held2, proj):
            i = np.searchsorted(t1_edges, a, side="right") - 1
            j = np.searchsorted(t2_edges, b, side="right") - 1
            if p == int(label) and 0 <= i < 5 and 0 <= j < 8:
                want[i, j] += 1
        assert m.dtype == want.dtype
        assert np.array_equal(m, want)
        assert used == int(np.count_nonzero(proj == int(label)))
        assert 0 < want.sum() < used


@pytest.mark.parametrize("projection", [Pol.R, Pol.L])
def test_map2d_of_batches_sums_to_whole_stream_map(projection):
    # three engine batches, the last one partial; each batch's events
    # come straight from the engine, in (shot, time) order
    dev = _device(noise=NoiseModel.lorentzian_from_t2star(15.9e-9))
    config = ProtocolConfig.pulsed(150_000, 21, pulse_delay_s=1.6e-9)
    tasks = batch_tasks(dev, config)
    assert len(tasks) == 3
    pick = (Pol.R, Pol.L).index(projection)
    parts = [build_map2d(run_batch(t)[0], config)[pick::2] for t in tasks]
    stream = run(dev, config)
    whole_counts, whole_used = build_map2d(stream.events, config)[pick::2]
    total_counts = parts[0][0] + parts[1][0] + parts[2][0]
    assert np.array_equal(total_counts, whole_counts)
    assert total_counts.dtype == whole_counts.dtype
    assert parts[0][1] + parts[1][1] + parts[2][1] == whole_used
    assert whole_used > 0


def test_map2d_slice_and_marginal():
    delay = 1.6e-9
    rows = [
        (0, 0, 0.10e-9), (0, 1, delay + 0.42e-9),
        (1, 0, 0.11e-9), (1, 1, delay + 0.91e-9),
        (2, 0, 0.55e-9), (2, 1, delay + 0.42e-9),
    ]
    events = np.zeros(len(rows), dtype=EVENT_DTYPE)
    for k, (shot, ch, t) in enumerate(rows):
        events[k] = (shot, ch, int(Pol.R), shot * 12.5e-9 + t)
    config = ProtocolConfig.pulsed(3, 1, pulse_delay_s=delay)
    m, _ = stream_maps(EventStream(events, _device(), config))
    assert m.counts.sum() == 3
    # a 10 ps tolerance keeps only the two shots near t1 = 105 ps
    sliced = slice_map(m, 0.105e-9, tolerance_s=10e-12)
    assert sliced.total == 2
    # inside the grid but empty: a valid all-zero slice
    assert slice_map(m, 1.9e-9, tolerance_s=10e-12).total == 0
    with pytest.raises(ValueError):
        slice_map(m, 3e-9, tolerance_s=10e-12)


def test_cw_oscillation_period():
    dev = _device(g_h=0.35, b_x_t=0.0375,
                  noise=NoiseModel.lorentzian_from_t2star(16.51e-9))
    stream = run(dev, ProtocolConfig.cw(4096, 47, pump_rate_hz=1e7))
    trace = docp(correlate_stream(stream, "RR", window_s=60e-9),
                 correlate_stream(stream, "RL", window_s=60e-9))
    est = fft_frequency(trace)
    assert est.found
    period = 1.0 / est.frequency_hz
    assert period == pytest.approx(1.0 / larmor_frequency(0.35, 0.0375),
                                   rel=0.02)


def test_csv_writers(tmp_path):
    hist = Histogram1D(np.array([0.0, 1.0, 2.0]),
                       np.array([1.0 / 3.0, 2.0]),
                       np.array([0.1, 0.2]))
    path = tmp_path / "hist.csv"
    write_csv(path, {"run": "demo"}, ("bin_center_s", "counts", "error"),
              zip(hist.centers, hist.counts, hist.errors))
    lines = path.read_text().splitlines()
    assert lines[0] == "# run = demo"
    assert lines[1] == "bin_center_s,counts,error"
    assert lines[2].split(",")[1] == "0.333333333"  # 9 significant digits

    m_path = tmp_path / "map.csv"
    edges = np.array([0.0, 1e-9, 2e-9])
    counts = np.array([[1, 2], [3, 4]], dtype=np.int64)
    from trionsim.correlator import Map2D
    write_map_csv(m_path, Map2D(edges, edges, counts))
    lines = m_path.read_text().splitlines()
    assert lines[0] == "t1_s,t2_s,counts"
    assert len(lines) == 5
    assert lines[1].split(",")[2] == "1"


def test_docp_trace_bounds():
    with pytest.raises(ValueError):
        DocpTrace(np.array([0.0]), np.array([1.5]), np.array([0.1]),
                  np.array([10.0]), np.array([True]))


def _searchsorted_bins(values, edges):
    idx = np.searchsorted(edges, values, side="right") - 1
    ok = (idx >= 0) & (idx < edges.size - 1)
    return np.bincount(idx[ok], minlength=edges.size - 1).astype(np.int64)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_bin_values_matches_searchsorted(data):
    bin_s = data.draw(st.sampled_from((10e-12, 100e-12, 1e-9, 0.3, 1.0)))
    first = data.draw(st.integers(-3000, 3000))
    n_bins = data.draw(st.integers(1, 2500))
    # the edge grids the analyses build: bin_s times consecutive integers
    edges = bin_s * np.arange(first, first + n_bins + 1)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
    span = edges[-1] - edges[0]
    on_edge = rng.choice(edges, 300)
    values = np.concatenate([
        rng.uniform(edges[0] - 0.1 * span, edges[-1] + 0.1 * span, 2000),
        on_edge,
        np.nextafter(on_edge, np.inf),
        np.nextafter(on_edge, -np.inf),
        [np.nan, np.inf, -np.inf, edges[0] - span, edges[-1] + span],
    ])
    rng.shuffle(values)
    counts = _bin_values(values, edges)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, _searchsorted_bins(values, edges))
