"""Named end-to-end presets and the per-protocol analyses they share
with `trionsim analyze`: simulate, correlate, fit, emit datasets.

Each preset runs a full protocol with the published device parameters,
recovers them back out of the synthetic data, and writes plot-ready CSV
datasets plus a summary table (configured vs recovered vs reference).
`scale` multiplies shot/segment counts for quick smoke runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from . import montecarlo
from .core import (ConfigError, DeviceParams, MU_B_EV_PER_T, NoiseModel,
                   PLANCK_EV_S, larmor_frequency)
from .correlator import (CW_BIN_S, MAP_EDGES, Histogram1D, build_map2d,
                         correlate_cw, count_photon_maps, docp,
                         lifetime_docp_trace, lifetime_histograms,
                         plateau_normalized, slice_map, write_csv,
                         write_docp_csv, write_map_csv)
from .fitkit import (fft_frequency, fit_damped_cosine, fit_linear_zeeman,
                     format_fit_report, loglog_trend, window_average)
from .montecarlo import ProtocolConfig
from .rng import derive_seed
from .scenarios import FitOptions

# shared device constants used by every preset
T1_S = 300e-12
P_MEM = 0.865
G_E = 2.09

# slice through the two-photon map at one full trion precession period
# (co-polarized probability maximum at 150 mT), +/- one bin
T1_SLICE_S = 228e-12
T1_SLICE_TOL_S = 10e-12
T2_FIT_WINDOW_S = (50e-12, 270e-12)

# pump sweep: nominal laser powers (uW) with their attempt rates; the
# power-to-rate mapping is a modeling choice, only the 20x span matters
POWER_SWEEP = ((0.5, 2e7), (2.0, 8e7), (5.0, 2e8), (10.0, 4e8))
_SWEEP_SEGMENTS = {2e7: 24576, 8e7: 8192, 2e8: 4096, 4e8: 2048}
_SWEEP_WINDOWS = {2e7: 100e-9, 8e7: 60e-9, 2e8: 40e-9, 4e8: 30e-9}

# reference values quoted for the device this model reproduces
REF_G_E = 2.09
REF_P_MEM = 0.865
REF_G_H_CW = 0.35
REF_TAU_CW_S = 16.51e-9
REF_G_H_PULSED = 0.362
REF_T2STAR_S = 15.9e-9
REF_F_PULSED_HZ = 761e6
REF_POWER_TABLE = {  # power_uw -> (amplitude, tau_ns, alpha)
    0.5: (0.7, 16.51, 1.278),
    2.0: (0.9455, 7.148, 0.8878),
    5.0: (0.9576, 3.548, 0.7531),
    10.0: (0.9635, 2.463, 1.078),
}

NAN = float("nan")


@dataclass
class SummaryRow:
    preset: str
    quantity: str
    configured: float
    recovered: float
    sigma: float
    reference: float


@dataclass
class PipelineResult:
    preset: str
    rows: list
    files: list


def _n_of(scale: float, nominal: int) -> int:
    return max(int(round(nominal * scale)), 64)


def _device(b_t: float, g_h: float = 0.35,
            noise: NoiseModel | None = None) -> DeviceParams:
    return DeviceParams(g_e=G_E, g_h=g_h, t1_s=T1_S, p_mem=P_MEM,
                        b_x_t=b_t, noise=noise or NoiseModel.quiet())


def digest_meta(*streams) -> dict:
    """CSV header block naming the event streams a dataset came from."""
    return {"input_digest": "+".join(s.content_digest[:16] for s in streams)}


def run_pipeline(name: str, outdir, seed: int = 20260815, scale: float = 1.0,
                 workers: int | None = None) -> PipelineResult:
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {name!r} (known: {known})")
    if not 0.0 < scale < math.inf:
        raise ConfigError(f"scale: {scale} is not a finite number > 0")
    outdir = Path(outdir)
    # the directories this call makes, deepest first: a run that fails
    # removes those that it left empty
    made = [d for d in (outdir, *outdir.parents) if not d.exists()]
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        rows, files = PRESETS[name](outdir, seed, scale, workers)
        summary = outdir / "summary.csv"
        write_csv(summary, {"preset": name, "seed": seed,
                            "scale": f"{scale:.9g}"},
                  ("preset", "quantity", "configured", "recovered", "sigma",
                   "reference"),
                  ((r.preset, r.quantity, r.configured, r.recovered,
                    r.sigma, r.reference) for r in rows))
    except BaseException:
        for d in made:
            try:
                d.rmdir()
            except OSError:
                break
        raise
    files.append(str(summary))
    return PipelineResult(name, rows, files)


def beat_fit(trace, opts: FitOptions | None = None):
    """Damped-cosine fit of a beat trace under a scenario's `analysis.fit`
    options, T2* and alpha pinned to 1 unless `opts.fixed` says otherwise."""
    opts = opts or FitOptions()
    return fit_damped_cosine(
        trace, opts.variant or "pulsed", opts.t0, opts.exclusion_window_s,
        {"t2star": 1.0, "alpha": 1.0, **opts.fixed})


def lifetime_traces(outdir, stream, **binning):
    """Co- and cross-polarized decay histograms, written to
    fig1d_traces.csv; `binning` takes bin_s and span_s."""
    co, cross = lifetime_histograms(stream, **binning)
    path = outdir / "fig1d_traces.csv"
    write_csv(path, digest_meta(stream),
              ("bin_center_s", "co_counts", "co_error", "cross_counts",
               "cross_error"),
              zip(co.centers, co.counts, co.errors, cross.counts,
                  cross.errors))
    return path, co, cross


def _run_fig1d(outdir, seed, scale, workers):
    device = _device(b_t=0.0)
    config = ProtocolConfig.docp_zero_field(
        n_shots=_n_of(scale, 1_000_000), rng_seed=seed)
    stream = montecarlo.run(device, config, workers=workers)
    path, co, cross = lifetime_traces(outdir, stream)
    n_r, n_l = co.total, cross.total
    memory = (n_r - n_l) / (n_r + n_l)
    sigma = math.sqrt((1.0 - memory ** 2) / (n_r + n_l))
    rows = [SummaryRow("fig1d", "polarization_memory", P_MEM, memory, sigma,
                       REF_P_MEM)]
    return rows, [str(path)]


def _run_fig1f(outdir, seed, scale, workers):
    fields = (0.05, 0.10, 0.15)
    freqs, f_sigmas = [], []
    for i, b_t in enumerate(fields):
        device = _device(b_t=b_t)
        config = ProtocolConfig.lifetime(n_shots=_n_of(scale, 500_000),
                                         rng_seed=derive_seed(seed, "b", i))
        stream = montecarlo.run(device, config, workers=workers)
        fit = beat_fit(lifetime_docp_trace(stream))
        freqs.append(fit["frequency"])
        f_sigmas.append(fit.sigmas["frequency"])
    freqs, f_sigmas = np.array(freqs), np.array(f_sigmas)
    de_ev = PLANCK_EV_S * freqs
    zfit = fit_linear_zeeman(np.array(fields), de_ev,
                             errors_ev=PLANCK_EV_S * f_sigmas)
    path = outdir / "fig1f_zeeman.csv"
    write_csv(path, {}, ("b_t", "f_hz", "f_sigma_hz", "delta_e_ev"),
              zip(fields, freqs, f_sigmas, de_ev))
    report = outdir / "fig1f_fit_report.txt"
    report.write_text(
        f"linear zeeman fit\ng_e = {zfit.g:.9g} +/- {zfit.sigma_g:.9g}\n"
        f"intercept_ev = {zfit.intercept_ev:.9g}\nsse = {zfit.residual_sse:.9g}\n")
    rows = [SummaryRow("fig1f", "g_e", G_E, zfit.g, zfit.sigma_g, REF_G_E)]
    return rows, [str(path), str(report)]


def _cw_device(b_t: float = 0.0375, g_h: float = REF_G_H_CW,
               t2star_s: float = REF_TAU_CW_S) -> DeviceParams:
    return _device(b_t=b_t, g_h=g_h,
                   noise=NoiseModel.lorentzian_from_t2star(t2star_s))


def _run_cw(device, n_segments, seed, pump_rate_hz, workers):
    config = ProtocolConfig.cw(n_segments=n_segments, rng_seed=seed,
                               pump_rate_hz=pump_rate_hz)
    return montecarlo.run(device, config, workers=workers)


def cw_histograms(stream, window_s, bin_s=CW_BIN_S, start_stop=False):
    """Raw RR and RL pair correlations of a cw stream."""
    return tuple(correlate_cw(stream, p, window_s=window_s, bin_s=bin_s,
                              start_stop=start_stop) for p in ("RR", "RL"))


def write_g2_csv(path, h_rr, h_rl, meta):
    write_csv(path, meta,
              ("delay_s", "g2_rr", "g2_rr_error", "g2_rl", "g2_rl_error"),
              zip(h_rr.centers, h_rr.counts, h_rr.errors, h_rl.counts,
                  h_rl.errors))


def cw_osc_params(h_rr, h_rl, window_s) -> dict:
    """Oscillation parameters from fits of the plateau-normalized raw RR
    and RL correlations.

    Emissions between a pair re-synchronize the phase, skewing the RR
    and RL envelopes in opposite directions; the pair mean cancels the
    skew to first order, so tau/f/alpha are reported as pair means.
    """
    fit_rr, fit_rl = (fit_damped_cosine(plateau_normalized(h, window_s),
                                        variant="cw") for h in (h_rr, h_rl))
    out = {"fit_rr": fit_rr, "fit_rl": fit_rl}
    for name in ("frequency", "t2star", "alpha", "amplitude"):
        out[name] = 0.5 * (fit_rr[name] + fit_rl[name])
        out[name + "_sigma"] = 0.5 * math.hypot(fit_rr.sigmas[name],
                                                fit_rl.sigmas[name])
    out["gap"] = abs(math.remainder(fit_rl["phase"] - fit_rr["phase"],
                                    2.0 * math.pi))
    out["gap_sigma"] = math.hypot(fit_rr.sigmas["phase"],
                                  fit_rl.sigmas["phase"])
    return out


def _run_fig2a(outdir, seed, scale, workers):
    stream = _run_cw(_cw_device(), _n_of(scale, 8192), seed, 1e7, workers)
    h_rr, h_rl = (plateau_normalized(h, 100e-9)
                  for h in cw_histograms(stream, 100e-9))
    path = outdir / "fig2a_g2.csv"
    write_g2_csv(path, h_rr, h_rl, digest_meta(stream))
    center = np.argmin(np.abs(h_rr.centers))
    dip = float(h_rr.counts[center])
    rows = [SummaryRow("fig2a", "g2_rr_zero_delay", 0.0, dip,
                       float(h_rr.errors[center]), 0.0)]
    return rows, [str(path)]


def _run_fig2b(outdir, seed, scale, workers):
    device = _cw_device()
    stream = _run_cw(device, _n_of(scale, 49152), seed, 1e7, workers)
    hists = cw_histograms(stream, 100e-9)
    path = outdir / "fig2b_docp.csv"
    write_docp_csv(path, docp(*hists), digest_meta(stream))
    osc = cw_osc_params(*hists, 100e-9)
    f_hz = osc["frequency"]
    g_h = PLANCK_EV_S * f_hz / (MU_B_EV_PER_T * device.b_x_t)
    g_sigma = (PLANCK_EV_S * osc["frequency_sigma"]
               / (MU_B_EV_PER_T * device.b_x_t))
    report = outdir / "fig2b_fit_report.txt"
    report.write_text(
        format_fit_report(osc["fit_rr"], "cw g2 RR damped cosine",
                          stream.content_digest[:16])
        + format_fit_report(osc["fit_rl"], "cw g2 RL damped cosine",
                            stream.content_digest[:16]))
    rows = [
        SummaryRow("fig2b", "f_hz", device.f_h_hz,
                   f_hz, osc["frequency_sigma"],
                   larmor_frequency(REF_G_H_CW, 0.0375)),
        SummaryRow("fig2b", "g_h", device.g_h, g_h, g_sigma, REF_G_H_CW),
        SummaryRow("fig2b", "tau_s", REF_TAU_CW_S, osc["t2star"],
                   osc["t2star_sigma"], REF_TAU_CW_S),
        SummaryRow("fig2b", "alpha", 1.0, osc["alpha"],
                   osc["alpha_sigma"], 1.278),
        SummaryRow("fig2b", "rr_rl_phase_gap_rad", math.pi, osc["gap"],
                   osc["gap_sigma"], math.pi),
    ]
    return rows, [str(path), str(report)]


def _run_fig2c(outdir, seed, scale, workers):
    fields = (0.025, 0.0375, 0.05, 0.075)
    oscs = []
    for i, b_t in enumerate(fields):
        # jitter width grows linearly with field (frequency-proportional
        # nuclear-field spread), pinned to the 37.5 mT reference point
        t2star = REF_TAU_CW_S * 0.0375 / b_t
        device = _cw_device(b_t=b_t, t2star_s=t2star)
        stream = _run_cw(device, _n_of(scale, 16384),
                         derive_seed(seed, "b", i), 1e7, workers)
        oscs.append(cw_osc_params(*cw_histograms(stream, 100e-9), 100e-9))
    freqs, f_sig, taus = (np.array([o[k] for o in oscs])
                          for k in ("frequency", "frequency_sigma", "t2star"))
    path = outdir / "fig2c_field_sweep.csv"
    write_csv(path, {}, ("b_t", "f_hz", "f_sigma_hz", "tau_s",
                         "tau_sigma_s", "alpha"),
              ((b, o["frequency"], o["frequency_sigma"], o["t2star"],
                o["t2star_sigma"], o["alpha"]) for b, o in zip(fields, oscs)))
    zfit = fit_linear_zeeman(np.array(fields), PLANCK_EV_S * freqs,
                             errors_ev=PLANCK_EV_S * f_sig)
    decreasing = float(all(np.diff(taus) < 0))
    rows = [
        SummaryRow("fig2c", "g_h", REF_G_H_CW, zfit.g, zfit.sigma_g,
                   REF_G_H_CW),
        SummaryRow("fig2c", "tau_decreasing_with_b", 1.0, decreasing, 0.0,
                   1.0),
    ]
    return rows, [str(path)]


def _pump_sweep(outdir, seed, scale, workers):
    """Shared cw power sweep; returns per-power oscillation parameters."""
    device = _cw_device()
    results = []
    for i, (power_uw, pump) in enumerate(POWER_SWEEP):
        n_seg = _n_of(scale, _SWEEP_SEGMENTS[pump])
        stream = _run_cw(device, n_seg, derive_seed(seed, "p", i), pump,
                         workers)
        window = _SWEEP_WINDOWS[pump]
        osc = cw_osc_params(*cw_histograms(stream, window), window)
        results.append((power_uw, pump, osc))
    return results


def _run_fig2d(outdir, seed, scale, workers):
    results = _pump_sweep(outdir, seed, scale, workers)
    taus = [osc["t2star"] for _, _, osc in results]
    pumps = [pump for _, pump, _ in results]
    path = outdir / "fig2d_power.csv"
    write_csv(path, {},
              ("power_uw", "pump_rate_hz", "amplitude", "tau_s",
               "tau_sigma_s", "alpha"),
              ((p, r, o["amplitude"], o["t2star"], o["t2star_sigma"],
                o["alpha"]) for p, r, o in results))
    slope, _ = loglog_trend(pumps, taus)
    rows = [SummaryRow("fig2d", "tau_strictly_decreasing", 1.0,
                       float(all(np.diff(taus) < 0)), 0.0, 1.0),
            SummaryRow("fig2d", "tau_vs_pump_loglog_slope", NAN, slope, 0.0,
                       NAN)]
    for (power_uw, _, osc), tau in zip(results, taus):
        rows.append(SummaryRow("fig2d", f"tau_s_at_{power_uw:g}uw", NAN,
                               tau, osc["t2star_sigma"],
                               REF_POWER_TABLE[power_uw][1] * 1e-9))
    return rows, [str(path)]


def _run_table_s1(outdir, seed, scale, workers):
    results = _pump_sweep(outdir, seed, scale, workers)
    path = outdir / "table_s1.csv"
    write_csv(path, {},
              ("power_uw", "pump_rate_hz", "amplitude", "tau_ns", "alpha"),
              ((p, r, o["amplitude"], o["t2star"] * 1e9, o["alpha"])
               for p, r, o in results))
    rows = []
    for power_uw, _, osc in results:
        ref_a, ref_tau, ref_alpha = REF_POWER_TABLE[power_uw]
        rows.extend([
            SummaryRow("table_s1", f"amplitude_at_{power_uw:g}uw", NAN,
                       osc["amplitude"], osc["amplitude_sigma"], ref_a),
            SummaryRow("table_s1", f"tau_ns_at_{power_uw:g}uw", NAN,
                       osc["t2star"] * 1e9, osc["t2star_sigma"] * 1e9,
                       ref_tau),
            SummaryRow("table_s1", f"alpha_at_{power_uw:g}uw", NAN,
                       osc["alpha"], osc["alpha_sigma"], ref_alpha),
        ])
    return rows, [str(path)]


def _pulsed_device() -> DeviceParams:
    return _device(b_t=0.15, g_h=REF_G_H_PULSED,
                   noise=NoiseModel.lorentzian_from_t2star(REF_T2STAR_S))


def write_herald_maps(outdir, map_r, map_l, meta) -> list:
    paths = [outdir / "fig3b_map.csv", outdir / "fig3b_map_rl.csv"]
    for path, map2d in zip(paths, (map_r, map_l)):
        write_map_csv(path, map2d, meta)
    return paths


def sliced_docp(map_r, map_l, t1_s=T1_SLICE_S, tolerance_s=T1_SLICE_TOL_S):
    """Heralded DOCP versus t2 over the map rows at t1_s +/- tolerance_s."""
    return docp(slice_map(map_r, t1_s, tolerance_s),
                slice_map(map_l, t1_s, tolerance_s))


def _run_fig3b(outdir, seed, scale, workers):
    device = _pulsed_device()
    config = ProtocolConfig.pulsed(n_shots=_n_of(scale, 2_400_000),
                                   rng_seed=seed, pulse_delay_s=1.6e-9)
    stream = montecarlo.run(device, config, workers=workers)
    map_r, map_l = build_map2d(stream)
    paths = write_herald_maps(outdir, map_r, map_l, digest_meta(stream))
    fit = beat_fit(sliced_docp(map_r, map_l))
    f_e = device.f_e_hz
    rows = [SummaryRow("fig3b", "f_e_hz", f_e, fit["frequency"],
                       fit.sigmas["frequency"], f_e)]
    return rows, [str(p) for p in paths]


def write_delay_csv(path, delays, traces, meta, t2_window_s=None):
    """The valid DOCP bins of every delay, with t2 inside the window if
    one is given."""
    lo, hi = t2_window_s or (-math.inf, math.inf)
    write_csv(path, meta,
              ("pulse_delay_s", "t2_s", "docp", "error", "n_total"),
              ((dt, t, v, e, n) for dt, tr in zip(delays, traces)
               for t, v, e, n, ok in zip(tr.times, tr.values, tr.errors,
                                         tr.n_total, tr.valid)
               if ok and lo <= t <= hi))


def _run_fig3c(outdir, seed, scale, workers):
    device = _pulsed_device()
    delays = (3.1e-9, 3.75e-9)
    traces, _ = heralded_sweep(device, delays, _n_of(scale, 1_200_000), seed,
                               workers)
    fits = [beat_fit(tr) for tr in traces]
    path = outdir / "fig3c_docp_vs_t2.csv"
    write_delay_csv(path, delays, traces, {})
    f_h = device.f_h_hz
    configured = 2.0 * math.pi * f_h * (delays[1] - delays[0])
    configured = abs(math.remainder(configured, 2.0 * math.pi))
    shift = abs(math.remainder(fits[0]["phase"] - fits[1]["phase"],
                               2.0 * math.pi))
    rows = [SummaryRow("fig3c", "phase_shift_rad", configured, shift,
                       math.hypot(*(f.sigmas["phase"] for f in fits)),
                       configured)]
    return rows, [str(path)]


def delay_sweep_grid() -> np.ndarray:
    return np.round(np.arange(0.6e-9, 10.5e-9 + 1e-13, 0.3e-9), 12)


def _batch_herald_slices(task):
    """One engine batch's R and L maps, binned where the batch ran
    straight from its recorded photons, as the counts over the t2 bins of
    the rows that `sliced_docp` sums, and the R map's shots used."""
    _, config, _, start, count = task
    photon1, photon2, _ = montecarlo.pulsed_photons(task)
    maps = count_photon_maps(photon1, photon2, config, start, count)
    return (*(slice_map(m, T1_SLICE_S, T1_SLICE_TOL_S).counts for m in maps),
            maps[0].diagnostics["shots_used"])


def heralded_sweep(device, delays, n_shots, seed, workers=None):
    """Per-delay sliced DOCP series, keyed by readout-time bin, and the
    heralded pair count of every delay (fig3c and fig3d).

    The batches of all delays go to one process pool.  Each worker bins
    its batch's recorded photons straight into the R and L maps
    (`count_photon_maps`) and sends back only their slice counts and the
    R map's shots used, a few KB.  Integer counts add exactly, so the
    per-delay sums equal `sliced_docp` of `build_map2d` on the delay's
    whole stream.
    """
    configs = [ProtocolConfig.pulsed(n_shots=n_shots,
                                     rng_seed=derive_seed(seed, "dt", i),
                                     pulse_delay_s=float(dt))
               for i, dt in enumerate(delays)]
    tasks = [t for c in configs for t in montecarlo.batch_tasks(device, c)]
    slices = montecarlo.map_batches(_batch_herald_slices, tasks, workers)
    per_delay, pairs = [], []
    for _ in configs:
        # every delay has the same batch cut, and its batches come in order
        rr, rl, used = (sum(v[1:], v[0]) for v in zip(
            *islice(slices, len(tasks) // len(configs))))
        per_delay.append(docp(*(Histogram1D(MAP_EDGES, c, np.sqrt(c))
                                for c in (rr, rl))))
        pairs.append(used)
    return per_delay, pairs


def fit_heralded_sweep(delays, traces, t2_window_s=T2_FIT_WINDOW_S):
    """Per-t2-bin damped-cosine fits across the delay axis.

    Bins whose fit leaves T2* undetermined are dropped: those whose T2*
    sigma is zero, non-finite or not below T2* itself, so that the decay
    rate 1/T2* is not told apart from zero.  That covers a fit that finds
    no oscillation (the fitter's flat-trace branch, f = 0, sigma 0), one
    whose T2* ran off towards infinity until its derivative underflowed
    (sigma 0), and an undamped bin that settles on some long T2* with a
    far larger sigma.  Fewer than 3 usable bins leave nothing to average
    and raise RuntimeError.
    """
    delays = np.asarray(delays, dtype=float)
    t2 = traces[0].times
    lo, hi = t2_window_s
    fits = []
    for j in np.nonzero((t2 >= lo) & (t2 <= hi))[0]:
        vals = np.array([tr.values[j] for tr in traces])
        errs = np.array([tr.errors[j] for tr in traces])
        ok = np.array([tr.valid[j] for tr in traces])
        if ok.sum() < 32:
            continue
        try:
            fit = fit_damped_cosine((delays[ok], vals[ok], errs[ok]),
                                    variant="pulsed", t0=T1_SLICE_S,
                                    fixed={"alpha": 1.0, "offset": 0.0})
        except ValueError:
            continue
        if fit.converged and \
                0.0 < fit.sigmas["t2star"] < fit["t2star"] < math.inf:
            fits.append((float(t2[j]), fit))
    if len(fits) < 3:
        raise RuntimeError(f"{len(fits)} per-bin fits of the delay sweep "
                           f"converged on an oscillation with a "
                           f"determined T2*; need 3")
    return fits


def delay_sweep_fits(outdir, delays, traces, t2_window_s=T2_FIT_WINDOW_S):
    """Per-bin fits written to fig3d_fits.csv, plus their window averages
    of f and T2*; returns (path, f average, T2* average)."""
    fits = fit_heralded_sweep(delays, traces, t2_window_s)
    t2s = [t for t, _ in fits]
    f_avg = window_average(t2s, [f["frequency"] for _, f in fits],
                           t2_window_s)
    tau_avg = window_average(t2s, [f["t2star"] for _, f in fits],
                             t2_window_s)
    path = outdir / "fig3d_fits.csv"
    write_csv(path, {},
              ("t2_s", "f_hz", "f_sigma_hz", "t2star_s", "t2star_sigma_s"),
              ((t, f["frequency"], f.sigmas["frequency"], f["t2star"],
                f.sigmas["t2star"]) for t, f in fits))
    return path, f_avg, tau_avg


def _run_fig3d(outdir, seed, scale, workers):
    device = _pulsed_device()
    delays = delay_sweep_grid()
    traces, pairs = heralded_sweep(device, delays,
                                   _n_of(scale, 2_400_000), seed, workers)
    path = outdir / "fig3d_docp_vs_delay.csv"
    write_delay_csv(path, delays, traces,
                    {"min_heralded_pairs": min(pairs)}, T2_FIT_WINDOW_S)
    fit_path, f_avg, tau_avg = delay_sweep_fits(outdir, delays, traces)
    f_h = device.f_h_hz
    rows = [
        SummaryRow("fig3d", "f_hz", f_h, f_avg.mean, f_avg.sigma,
                   REF_F_PULSED_HZ),
        SummaryRow("fig3d", "t2star_s", REF_T2STAR_S, tau_avg.mean,
                   tau_avg.sigma, REF_T2STAR_S),
        SummaryRow("fig3d", "min_heralded_pairs", NAN, float(min(pairs)),
                   0.0, 1e5),
    ]
    return rows, [str(path), str(fit_path)]


def _run_figs6(outdir, seed, scale, workers):
    stream = _run_cw(_cw_device(), _n_of(scale, 8192), seed, 1e7, workers)
    est = fft_frequency(docp(*cw_histograms(stream, 100e-9)))
    path = outdir / "figs6_fft.csv"
    write_csv(path, digest_meta(stream), ("frequency_hz", "magnitude"),
              zip(est.freqs_hz, est.magnitude))
    f_ref = larmor_frequency(REF_G_H_CW, 0.0375)
    rows = [SummaryRow("figs6", "fft_peak_hz", f_ref, est.frequency_hz,
                       est.sigma_hz, f_ref)]
    return rows, [str(path)]


PRESETS = {
    "fig1d": _run_fig1d,
    "fig1f": _run_fig1f,
    "fig2a": _run_fig2a,
    "fig2b": _run_fig2b,
    "fig2c": _run_fig2c,
    "fig2d": _run_fig2d,
    "table_s1": _run_table_s1,
    "fig3b": _run_fig3b,
    "fig3c": _run_fig3c,
    "fig3d": _run_fig3d,
    "figs6": _run_figs6,
}
