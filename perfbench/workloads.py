"""The benchmark's workloads, driven through trionsim's public entry points.

Each workload has a `setup(outdir, seed, workers)` that builds its
configs and scenarios and returns a `Pass`: `run()` makes the workload's
calls one after another (a single closed-loop client) and `check()`
judges the outputs afterwards.  Nothing here is timed; see child.py.

- heralded_sweep: the heralded delay sweep of the fig3d preset, 34
  delays of two-pulse heralding with a 2-process pool per delay.  Pulsed
  engine, pool start-up, merge/sort and build_map2d dominate.  It stops
  before fig3d's window average, which keeps per-bin fits that found no
  oscillation (f = 0) and so misses f_hz by 7% or more on about one seed in
  eleven at this scale; the check averages only the fits that oscillate
  and records how many did not.
- cw_pump_sweep: the fig2d preset, the criterion-4 pump sweep at one
  worker.  cw engine and correlate_cw dominate.
- lifetime_files: `trionsim simulate` then `trionsim analyze` on three
  lifetime scenarios written as binary event files and one zero-field
  scenario written as CSV.  The only workload with event-file I/O, the
  lifetime engine, bin_lifetime and the cli analysis path.
"""
from __future__ import annotations

import math
from pathlib import Path

# The scales keep every pass short, so a run holds several passes for its
# median.  At heralded scale 0.05 too few per-bin fits converge for the
# check's average; cw_pump_sweep keeps tau strictly decreasing at 0.125.
HERALDED_SCALE = 0.1
FIG3D_SHOTS = 2_400_000   # shots per delay of the fig3d preset at scale 1
# criterion 5 asks for >= 1e5 heralded pairs per delay at scale 1
HERALDED_PAIRS_FLOOR = 1e5 * HERALDED_SCALE
CW_SCALE = 0.125
LIFETIME_FIELDS_T = (0.05, 0.10, 0.15)
LIFETIME_SHOTS = 500_000
ZERO_FIELD_SHOTS = 100_000


class Pass:
    def __init__(self, run, check):
        self.run = run
        self.check = check


def _rows(result) -> dict:
    return {r.quantity: r for r in result.rows}


def heralded_sweep(outdir, seed, workers):
    import numpy as np
    from trionsim import (DeviceParams, NoiseModel, larmor_frequency,
                          pipelines)
    from trionsim.pipelines import (G_E, P_MEM, REF_G_H_PULSED,
                                    REF_T2STAR_S, T1_S)
    # the device and shot count of the fig3d preset at HERALDED_SCALE
    device = DeviceParams(g_e=G_E, g_h=REF_G_H_PULSED, t1_s=T1_S,
                          p_mem=P_MEM, b_x_t=0.15,
                          noise=NoiseModel.lorentzian_from_t2star(
                              REF_T2STAR_S))
    delays = pipelines.delay_sweep_grid()
    n_shots = round(FIG3D_SHOTS * HERALDED_SCALE)
    state = {}

    def run():
        state["traces"], state["pairs"] = pipelines.heralded_sweep(
            device, delays, n_shots, seed, workers)

    def check():
        traces, pairs = state["traces"], state["pairs"]
        # the sweep writes no file: save what it returns, for the digests
        np.save(Path(outdir) / "heralded_traces.npy", np.stack(
            [np.concatenate([tr.values, tr.errors, tr.n_total, tr.valid])
             for tr in traces]))
        fits = pipelines.fit_heralded_sweep(delays, traces)
        osc = [f for _, f in fits if f.message != "no-oscillation"]
        f_h = larmor_frequency(device.g_h, device.b_x_t)
        f_hz = sum(f["frequency"] for f in osc) / max(len(osc), 1)
        failures = []
        if len(osc) < 3:
            failures.append(f"only {len(osc)} per-bin fits found an "
                            f"oscillation")
        elif not abs(f_hz - f_h) <= 0.01 * f_h:
            failures.append(f"heralded f_hz {f_hz:.6g} not within 1% of "
                            f"{f_h:.6g}")
        if not min(pairs) >= HERALDED_PAIRS_FLOOR:
            failures.append(f"min heralded pairs {min(pairs):g} below "
                            f"{HERALDED_PAIRS_FLOOR:g}")
        # T2* is recorded only: at reduced scale the per-bin fits are
        # biased high (about 23 ns against 15.9 ns at scale 0.1)
        recorded = {"f_hz": f_hz, "min_heralded_pairs": min(pairs),
                    "t2star_s": sum(f["t2star"] for f in osc)
                    / max(len(osc), 1),
                    "no_oscillation_fits": len(fits) - len(osc)}
        return failures, recorded

    return Pass(run, check)


def cw_pump_sweep(outdir, seed, workers):
    from trionsim import pipelines
    state = {}

    def run():
        state["result"] = pipelines.run_pipeline(
            "fig2d", outdir, seed=seed, scale=CW_SCALE, workers=workers)

    def check():
        rows = _rows(state["result"])
        decreasing = rows["tau_strictly_decreasing"].recovered
        slope = rows["tau_vs_pump_loglog_slope"].recovered
        failures = []
        if decreasing != 1.0:
            failures.append("fig2d tau is not strictly decreasing with pump")
        if not slope < 0.0:
            failures.append(f"fig2d log-log slope {slope:.4g} is not negative")
        return failures, {"tau_vs_pump_loglog_slope": slope}

    return Pass(run, check)


def _read_report(path) -> dict:
    out = {}
    for line in Path(path).read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.split(" ")[0]
    return out


def _memory_from_traces(path):
    co = cross = 0.0
    for line in Path(path).read_text().splitlines():
        if line.startswith("#") or line.startswith("bin_center_s"):
            continue
        cells = line.split(",")
        co += float(cells[1])
        cross += float(cells[3])
    n = co + cross
    memory = (co - cross) / n
    return memory, math.sqrt((1.0 - memory ** 2) / n)


def lifetime_files(outdir, seed, workers):
    from trionsim import (DeviceParams, NoiseModel, OutputOptions,
                          ProtocolConfig, Scenario, cli, derive_seed,
                          larmor_frequency, save_scenario)
    from trionsim.pipelines import G_E, P_MEM, REF_G_H_CW, T1_S
    outdir = Path(outdir)
    events_dir = outdir / "events"
    runs = []   # (label, protocol, file format, B field)
    for i, b_t in enumerate(LIFETIME_FIELDS_T):
        label = f"b{round(b_t * 1e3):03d}mt"
        protocol = ProtocolConfig.lifetime(
            n_shots=LIFETIME_SHOTS, rng_seed=derive_seed(seed, "b", i))
        runs.append((label, protocol, "binary", b_t))
    runs.append(("zero_field", ProtocolConfig.docp_zero_field(
        n_shots=ZERO_FIELD_SHOTS, rng_seed=derive_seed(seed, "zf")),
        "csv", 0.0))
    calls = []
    for label, protocol, fmt, b_t in runs:
        device = DeviceParams(g_e=G_E, g_h=REF_G_H_CW, t1_s=T1_S, p_mem=P_MEM,
                              b_x_t=b_t, noise=NoiseModel.quiet())
        scenario = Scenario(device, protocol, outputs=OutputOptions(
            format=fmt, prefix=f"{label}_"))
        path = outdir / f"{label}.json"
        save_scenario(path, scenario)
        ext = "bin" if fmt == "binary" else "csv"
        calls.append((label, b_t, str(path),
                      str(events_dir / f"{label}_events.{ext}"),
                      str(outdir / f"analysis_{label}")))
    codes = {}

    def run():
        for label, _, scenario, _, _ in calls:
            codes[f"simulate {label}"] = cli.main(
                ["simulate", scenario, "-o", str(events_dir),
                 "--workers", str(workers)])
        for label, _, _, events, analysis in calls:
            codes[f"analyze {label}"] = cli.main(
                ["analyze", events, "-o", analysis])

    def check():
        failures = [f"{call} exited {code}" for call, code in codes.items()
                    if code != 0]
        recorded = {}
        if failures:
            return failures, recorded
        for label, b_t, _, _, analysis in calls:
            if b_t == 0.0:
                memory, sigma = _memory_from_traces(
                    Path(analysis) / "fig1d_traces.csv")
                recorded["zero_field_memory"] = memory
                if not abs(memory - P_MEM) <= 3.0 * sigma:
                    failures.append(f"{label} memory {memory:.5f} not within "
                                    f"3 sigma ({sigma:.2g}) of {P_MEM}")
                continue
            report = _read_report(Path(analysis) / "lifetime_fit_report.txt")
            f_fit = float(report["frequency"])
            f_e = larmor_frequency(G_E, b_t)
            recorded[f"{label}_f_hz"] = f_fit
            if report["converged"] != "True":
                failures.append(f"{label} lifetime fit did not converge")
            if not abs(f_fit - f_e) <= 0.02 * f_e:
                failures.append(f"{label} f {f_fit:.6g} not within 2% of "
                                f"f_e {f_e:.6g}")
        return failures, recorded

    return Pass(run, check)


WORKLOADS = {
    "heralded_sweep": (heralded_sweep, 2),
    "cw_pump_sweep": (cw_pump_sweep, 1),
    "lifetime_files": (lifetime_files, 1),
}
