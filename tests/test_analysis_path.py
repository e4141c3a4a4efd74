"""One analysis path: `analyze` on simulated event files writes the same
datasets as the `pipeline` preset run with the same device, protocol and
seed, and the delay-sweep fits reject bins without an oscillation."""

import math
import pickle

import numpy as np
import pytest

from trionsim.cli import main
from trionsim.core import DeviceParams, NoiseModel
from trionsim.correlator import DocpTrace, Map2D, write_docp_csv
from trionsim.events_io import read_events
from trionsim.fitkit import fit_damped_cosine
from trionsim.rng import derive_seed
from trionsim.montecarlo import ProtocolConfig, batch_tasks, run
from trionsim.pipelines import (G_E, P_MEM, REF_G_H_CW, REF_G_H_PULSED,
                                REF_T2STAR_S, REF_TAU_CW_S, T1_S,
                                T1_SLICE_TOL_S, T2_FIT_WINDOW_S,
                                _batch_herald_slices, cw_run_histograms,
                                digest_meta,
                                fit_heralded_sweep, heralded_sweep,
                                lifetime_run_histograms, run_pipeline,
                                sliced_docp)
from trionsim.scenarios import (AnalysisOptions, FitOptions, OutputOptions,
                                Scenario, save_scenario)

from oracles import correlate_stream, lifetime_histograms, stream_maps

SEED = 20260815


def _device(b_t, g_h=REF_G_H_CW, noise=None):
    return DeviceParams(g_e=G_E, g_h=g_h, t1_s=T1_S, p_mem=P_MEM, b_x_t=b_t,
                        noise=noise or NoiseModel.quiet())


def _simulate_and_analyze(tmp_path, device, protocol, analysis=None,
                          delay_sweep=None):
    """`trionsim simulate` then `trionsim analyze` on every file written."""
    events = tmp_path / "events"
    scenario = Scenario(device, protocol, analysis or AnalysisOptions(),
                        OutputOptions(directory=str(events)),
                        delay_sweep)
    path = tmp_path / "scenario.json"
    save_scenario(path, scenario)
    assert main(["simulate", str(path)]) == 0
    out = tmp_path / "analysis"
    code = main(["analyze", *sorted(str(p) for p in events.iterdir()),
                 "-o", str(out), "--scenario", str(path)])
    return code, out


def _assert_same_files(names, preset_dir, analysis_dir):
    for name in names:
        assert (analysis_dir / name).read_bytes() == \
            (preset_dir / name).read_bytes(), name


def test_analyze_lifetime_matches_fig1d_preset(tmp_path):
    scale = 0.02
    run_pipeline("fig1d", tmp_path / "preset", seed=SEED, scale=scale)
    protocol = ProtocolConfig.docp_zero_field(
        n_shots=round(1_000_000 * scale), rng_seed=SEED)
    code, out = _simulate_and_analyze(tmp_path, _device(0.0), protocol)
    assert code == 0
    _assert_same_files(["fig1d_traces.csv"], tmp_path / "preset", out)


def test_analyze_cw_matches_fig2b_preset(tmp_path):
    scale = 0.05
    run_pipeline("fig2b", tmp_path / "preset", seed=SEED, scale=scale)
    device = _device(0.0375,
                     noise=NoiseModel.lorentzian_from_t2star(REF_TAU_CW_S))
    protocol = ProtocolConfig.cw(n_segments=round(49152 * scale),
                                 rng_seed=SEED, pump_rate_hz=1e7)
    analysis = AnalysisOptions(fit=FitOptions(enabled=False))
    code, out = _simulate_and_analyze(tmp_path, device, protocol, analysis)
    assert code == 0
    _assert_same_files(["fig2b_docp.csv"], tmp_path / "preset", out)
    assert (out / "cw_g2.csv").exists()


def test_analyze_pulsed_matches_fig3b_preset(tmp_path):
    scale = 0.1
    run_pipeline("fig3b", tmp_path / "preset", seed=SEED, scale=scale)
    device = _device(0.15, g_h=REF_G_H_PULSED,
                     noise=NoiseModel.lorentzian_from_t2star(REF_T2STAR_S))
    protocol = ProtocolConfig.pulsed(n_shots=round(2_400_000 * scale),
                                     rng_seed=SEED, pulse_delay_s=1.6e-9)
    analysis = AnalysisOptions(fit=FitOptions(enabled=False))
    code, out = _simulate_and_analyze(tmp_path, device, protocol, analysis)
    assert code == 0
    _assert_same_files(["fig3b_map.csv", "fig3b_map_rl.csv"],
                       tmp_path / "preset", out)
    assert (out / "fig3b_slice_docp.csv").exists()


def test_cw_start_stop_shapes_only_the_g2_dataset(tmp_path):
    # start_stop changes cw_g2.csv; the DOCP and its fit always use the
    # all-pairs correlations
    device = _device(0.0375,
                     noise=NoiseModel.lorentzian_from_t2star(REF_TAU_CW_S))
    protocol = ProtocolConfig.cw(n_segments=2048, rng_seed=SEED,
                                 pump_rate_hz=2e7)
    runs = []
    for tag, start_stop in (("all", False), ("start_stop", True)):
        (tmp_path / tag).mkdir()
        runs.append(_simulate_and_analyze(
            tmp_path / tag, device, protocol,
            AnalysisOptions(start_stop=start_stop)))
    (code_a, out_a), (code_b, out_b) = runs
    assert code_a == code_b
    _assert_same_files(["fig2b_docp.csv", "fig2b_fit_report.txt"],
                       out_a, out_b)
    assert (out_a / "cw_g2.csv").read_bytes() != \
        (out_b / "cw_g2.csv").read_bytes()


def test_analyze_honours_an_explicit_zero_t1_slice(tmp_path):
    device = _device(0.15, g_h=REF_G_H_PULSED,
                     noise=NoiseModel.lorentzian_from_t2star(REF_T2STAR_S))
    protocol = ProtocolConfig.pulsed(n_shots=20_000, rng_seed=SEED,
                                     pulse_delay_s=1.6e-9)
    analysis = AnalysisOptions(t1_slice_s=0.0,
                               fit=FitOptions(enabled=False))
    code, out = _simulate_and_analyze(tmp_path, device, protocol, analysis)
    assert code == 0
    stream = read_events(next((tmp_path / "events").iterdir()))
    expected = tmp_path / "expected.csv"
    write_docp_csv(expected,
                   sliced_docp(*stream_maps(stream), 0.0, T1_SLICE_TOL_S),
                   digest_meta(stream.content_digest))
    assert (out / "fig3b_slice_docp.csv").read_bytes() == \
        expected.read_bytes()


def test_analyze_short_delay_sweep_writes_data_then_exits_4(tmp_path):
    # three delays are far too few for a per-bin fit across the delay
    # axis: the dataset is still written, and the sweep fit reports
    # non-convergence rather than a configuration error
    device = _device(0.15, g_h=REF_G_H_PULSED,
                     noise=NoiseModel.lorentzian_from_t2star(REF_T2STAR_S))
    protocol = ProtocolConfig.pulsed(n_shots=20_000, rng_seed=SEED,
                                     pulse_delay_s=1.0e-9)
    code, out = _simulate_and_analyze(tmp_path, device, protocol,
                                      delay_sweep=(1.0e-9, 1.6e-9, 2.2e-9))
    assert code == 4
    lines = (out / "fig3d_docp_vs_delay.csv").read_text().splitlines()
    assert lines[1] == "pulse_delay_s,t2_s,docp,error,n_total"
    delays = {float(line.split(",")[0]) for line in lines[2:]}
    assert delays == {1.0e-9, 1.6e-9, 2.2e-9}


@pytest.mark.parametrize("workers", [1, 2])
def test_heralded_sweep_matches_per_delay_streams(workers):
    # 70,000 shots are one full and one partial engine batch per delay;
    # the sweep reduces batches in the workers, the reference merges each
    # delay's stream and builds its maps whole
    device = _device(0.15, g_h=REF_G_H_PULSED,
                     noise=NoiseModel.lorentzian_from_t2star(REF_T2STAR_S))
    delays = (1.0e-9, 1.6e-9, 2.2e-9)
    traces, pairs = heralded_sweep(device, delays, 70_000, SEED, workers)
    assert len(traces) == len(pairs) == 3
    for i, dt in enumerate(delays):
        stream = run(device, ProtocolConfig.pulsed(
            n_shots=70_000, rng_seed=derive_seed(SEED, "dt", i),
            pulse_delay_s=dt))
        map_r, map_l = stream_maps(stream)
        ref = sliced_docp(map_r, map_l)
        for name in ("times", "values", "errors", "n_total", "valid"):
            assert getattr(traces[i], name).tobytes() == \
                getattr(ref, name).tobytes()
        assert pairs[i] == map_r.diagnostics["shots_used"]


def test_heralded_sweep_workers_send_back_only_slice_counts():
    # each batch result of the sweep is pickled back to the parent: the R
    # and L slice counts over the 200 t2 bins and a pair count, never a
    # whole map (two 200 x 200 int64 grids, about 640 KB)
    device = _device(0.15, g_h=REF_G_H_PULSED,
                     noise=NoiseModel.lorentzian_from_t2star(REF_T2STAR_S))
    config = ProtocolConfig.pulsed(n_shots=70_000, rng_seed=SEED,
                                   pulse_delay_s=1.6e-9)
    result = _batch_herald_slices((batch_tasks(device, config)[0], None))
    counts, events = result
    assert events is None
    assert not any(isinstance(x, Map2D) for x in (counts, *counts))
    assert len(pickle.dumps(result)) < 16 * 1024


def _assert_same_histograms(a, b):
    for name in ("bin_edges", "counts", "errors"):
        assert getattr(a, name).dtype == getattr(b, name).dtype
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_pump_sweep_matches_whole_stream_correlation(workers):
    # the first run is one full and one partial engine batch (8,192
    # segments each); the batches of both runs go through one pool and
    # are correlated where they run, the reference correlates each run's
    # whole stream
    device = _device(0.0375,
                     noise=NoiseModel.lorentzian_from_t2star(REF_TAU_CW_S))
    runs = [(device, ProtocolConfig.cw(8192 + 300, derive_seed(SEED, "p", 0),
                                       pump_rate_hz=4e7,
                                       segment_length_s=1e-6), 100e-9),
            (device, ProtocolConfig.cw(700, derive_seed(SEED, "p", 1),
                                       pump_rate_hz=2e8,
                                       segment_length_s=2e-6), 30e-9)]
    assert len(batch_tasks(device, runs[0][1])) == 2
    results = cw_run_histograms(runs, workers, digest=True)
    for (_, config, window), (h_rr, h_rl, digest) in zip(runs, results):
        stream = run(device, config)
        for got, want in zip((h_rr, h_rl), (correlate_stream(stream, p, window)
                                            for p in ("RR", "RL"))):
            assert want.total > 0
            _assert_same_histograms(got, want)
        assert digest == stream.content_digest


@pytest.mark.parametrize("workers", [1, 2])
def test_lifetime_batch_sums_match_whole_stream_histograms(workers):
    # 70,000 shots are one full and one partial engine batch
    runs = [(_device(b_t), ProtocolConfig.lifetime(
        70_000, derive_seed(SEED, "b", i)))
        for i, b_t in enumerate((0.05, 0.1))]
    for (device, config), (co, cross, digest) in zip(
            runs, lifetime_run_histograms(runs, workers, digest=True)):
        stream = run(device, config)
        for got, want in zip((co, cross), lifetime_histograms(stream)):
            _assert_same_histograms(got, want)
        assert digest == stream.content_digest


def _synthetic_sweep(flat_bin=None):
    """Noiseless heralded DOCP versus delay for 12 t2 bins in the window.

    Every bin oscillates at 760 MHz with T2* = 15.9 ns, except `flat_bin`,
    which reads a constant 0 across all delays.
    """
    delays = np.round(np.arange(0.6e-9, 10.5e-9 + 1e-13, 0.3e-9), 12)
    t2 = np.linspace(T2_FIT_WINDOW_S[0], T2_FIT_WINDOW_S[1], 12)
    traces = []
    for dt in delays:
        values = 0.5 * math.exp(-dt / 15.9e-9) * np.cos(
            2 * math.pi * 760e6 * (dt - 228e-12) + 40e9 * t2)
        if flat_bin is not None:
            values[flat_bin] = 0.0
        traces.append(DocpTrace(t2, values, np.full(t2.size, 0.01),
                                np.full(t2.size, 1e4),
                                np.ones(t2.size, dtype=bool)))
    return delays, traces


def test_fit_heralded_sweep_drops_bins_without_oscillation():
    delays, traces = _synthetic_sweep(flat_bin=5)
    fits = fit_heralded_sweep(delays, traces)
    assert len(fits) == 11
    assert all(f.message != "no-oscillation" for _, f in fits)
    assert traces[0].times[5] not in [t for t, _ in fits]
    for _, fit in fits:
        assert fit["frequency"] == pytest.approx(760e6, rel=1e-6)


@pytest.mark.parametrize("growth_s, sigma_zero", [
    (math.inf, False),  # an undamped cosine: T2* settles, sigma far above
    (30e-9, True),      # a growing one: T2* runs off until sigma reads 0
])
def test_fit_heralded_sweep_drops_bins_whose_t2star_is_undetermined(
        growth_s, sigma_zero):
    delays, traces = _synthetic_sweep()
    t2 = traces[0].times
    for dt, tr in zip(delays, traces):
        tr.values[3] = 0.3 * math.exp(dt / growth_s) * math.cos(
            2 * math.pi * 760e6 * (dt - 228e-12) + 40e9 * t2[3])
    undamped = fit_damped_cosine(
        (delays, np.array([tr.values[3] for tr in traces]),
         np.full(delays.size, 0.01)),
        variant="pulsed", t0=228e-12, fixed={"alpha": 1.0, "offset": 0.0})
    assert undamped.converged and undamped["t2star"] > 1e-3
    sigma = undamped.sigmas["t2star"]
    assert sigma == 0.0 if sigma_zero else undamped["t2star"] < sigma < 1e4
    fits = fit_heralded_sweep(delays, traces)
    assert [t for t, _ in fits] == [t for i, t in enumerate(t2) if i != 3]
    for _, fit in fits:
        assert fit["t2star"] == pytest.approx(15.9e-9, rel=1e-6)


def test_fit_heralded_sweep_needs_three_oscillating_bins():
    delays, traces = _synthetic_sweep()
    for tr in traces:
        tr.values[2:] = 0.0
    with pytest.raises(RuntimeError, match="2 per-bin fits"):
        fit_heralded_sweep(delays, traces)
