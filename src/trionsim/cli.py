"""Command-line entry point.

Exit codes are a stable contract: 0 success, 2 invalid configuration
(with a field-path diagnostic), 3 I/O failure, 4 numerical
non-convergence.  Worker count comes from --workers or TRIONSIM_WORKERS.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import montecarlo
from .correlator import (CW_BIN_S, LIFETIME_BIN_S, DocpTrace, build_map2d,
                         docp, plateau_normalized, write_docp_csv)
from .events_io import compat_digest, read_events, write_events
from .fitkit import fit_damped_cosine, fit_linear_zeeman, format_fit_report
from .montecarlo import ProtocolKind
from .pipelines import (PRESETS, T1_SLICE_S, T1_SLICE_TOL_S,
                        T2_FIT_WINDOW_S, beat_fit, cw_histograms,
                        delay_sweep_fits, digest_meta, lifetime_traces,
                        run_pipeline, sliced_docp, write_delay_csv,
                        write_g2_csv, write_herald_maps)
from .scenarios import AnalysisOptions, ConfigError, load_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NOCONV = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trionsim",
        description="Four-level trion spin simulator and analysis chain")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario, write events")
    p_sim.add_argument("scenario", help="scenario JSON file")
    p_sim.add_argument("-o", "--outdir", default=None)
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_sim.add_argument("--workers", type=int, default=None)
    p_sim.add_argument("--format", choices=("binary", "csv"), default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_ana = sub.add_parser("analyze", help="event files to CSV datasets")
    p_ana.add_argument("events", nargs="+", help="event stream file(s)")
    p_ana.add_argument("-o", "--outdir", default=".")
    p_ana.add_argument("--scenario", default=None,
                       help="scenario JSON supplying analysis options")
    p_ana.set_defaults(func=cmd_analyze)

    p_fit = sub.add_parser("fit", help="damped-cosine fit of a trace CSV")
    p_fit.add_argument("trace", help="CSV with time, value[, error] columns")
    p_fit.add_argument("--variant", choices=("pulsed", "cw"),
                       default="pulsed")
    p_fit.add_argument("--t0", type=float, default=0.0)
    p_fit.add_argument("--exclusion-window", type=float, default=None)
    p_fit.add_argument("--fixed", action="append", default=[],
                       metavar="NAME=VALUE")
    p_fit.add_argument("-o", "--report", default=None)
    p_fit.set_defaults(func=cmd_fit)

    p_pipe = sub.add_parser("pipeline", help="run a named figure preset")
    p_pipe.add_argument("preset", help=", ".join(sorted(PRESETS)))
    p_pipe.add_argument("-o", "--outdir", default=".")
    p_pipe.add_argument("--seed", type=int, default=20260815)
    p_pipe.add_argument("--scale", type=float, default=1.0)
    p_pipe.add_argument("--workers", type=int, default=None)
    p_pipe.set_defaults(func=cmd_pipeline)

    p_zee = sub.add_parser("zeeman",
                           help="g-factors from four-line energies vs field")
    p_zee.add_argument("table", help="CSV: b_t, e1..e4 line energies (eV)")
    p_zee.add_argument("--through-origin", action="store_true")
    p_zee.add_argument("-o", "--report", default=None)
    p_zee.set_defaults(func=cmd_zeeman)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario.protocol = replace(scenario.protocol, rng_seed=args.seed)
    outdir = Path(args.outdir or scenario.outputs.directory)
    outdir.mkdir(parents=True, exist_ok=True)
    fmt = args.format or scenario.outputs.format
    ext = "bin" if fmt == "binary" else "csv"
    for label, protocol in scenario.expand():
        stream = montecarlo.run(scenario.device, protocol,
                                workers=args.workers)
        suffix = f"_{label}" if label else ""
        path = outdir / f"{scenario.outputs.prefix}events{suffix}.{ext}"
        write_events(path, stream, fmt)
        print(f"wrote {path} ({len(stream)} events, "
              f"digest {stream.content_digest[:16]})")
    return EXIT_OK


def _read_streams(paths):
    """Yield the stream of each file, one at a time, each checked
    against the header of the first."""
    first = None
    for path in paths:
        try:
            stream = read_events(path)
        except ValueError as exc:
            raise OSError(str(exc)) from exc
        digest = compat_digest(stream.device, stream.config)
        first = first or digest
        if digest != first:
            raise ConfigError(
                "event files have mismatched device/config headers")
        yield stream
        del stream  # hold no stream while the next file is read


def cmd_analyze(args) -> int:
    opts = (load_scenario(args.scenario).analysis if args.scenario
            else AnalysisOptions())
    outdir = Path(args.outdir)
    streams = _read_streams(args.events)
    if len(args.events) > 1:
        _refuse_unread(opts, "delay sweep")
        return _analyze_delay_sweep(streams, opts, outdir)
    stream = next(streams)
    name, analysis = {
        ProtocolKind.PULSED_2PC: ("pulsed", _analyze_pulsed),
        ProtocolKind.CW_G2: ("cw", _analyze_cw),
    }.get(stream.config.kind, (
        "lifetime" if stream.device.b_x_t > 0 else "zero-field",
        _analyze_lifetime))
    _refuse_unread(opts, name)
    outdir.mkdir(parents=True, exist_ok=True)
    return analysis(stream, opts, outdir)


# the analysis options each analysis reads, as field paths; "fit" stands
# for every `fit.*` path (a delay sweep's per-bin fits fix the rest, and
# a lifetime file at zero field runs no fit)
_READS = {
    "lifetime": ("bin_s", "span_s", "fit"),
    "zero-field": ("bin_s", "span_s"),
    "cw": ("bin_s", "window_s", "normalize", "start_stop", "fit"),
    "pulsed": ("t1_slice_s", "slice_tolerance_s", "fit"),
    "delay sweep": ("t1_slice_s", "slice_tolerance_s", "t2_fit_window_s",
                    "fit.enabled"),
}


def _refuse_unread(opts, name) -> None:
    """Refuse an option set away from its default that the analysis does
    not read, naming its field path."""
    def by_path(o):
        d = o.to_dict()
        d.update({f"fit.{k}": v for k, v in d.pop("fit").items()})
        return d

    reads, default = _READS[name], by_path(AnalysisOptions())
    for path, value in by_path(opts).items():
        if value != default[path] and path not in reads \
                and path.partition(".")[0] not in reads:
            raise ConfigError(
                f"analysis.{path}: not used by the {name} analysis")


def _emit(text, path) -> None:
    print(text, end="")
    if path:
        Path(path).write_text(text)
        print(f"wrote {path}")


def _emit_report(path, fit, title, digest) -> int:
    _emit(format_fit_report(fit, title, digest), path)
    return EXIT_OK if fit.converged else EXIT_NOCONV


def _analyze_lifetime(stream, opts, outdir) -> int:
    path, co, cross = lifetime_traces(
        outdir, stream, bin_s=opts.bin_s or LIFETIME_BIN_S,
        span_s=opts.span_s)
    trace = docp(co, cross)
    docp_path = outdir / "lifetime_docp.csv"
    write_docp_csv(docp_path, trace, digest_meta(stream))
    print(f"wrote {path}")
    print(f"wrote {docp_path}")
    if not (opts.fit.enabled and stream.device.b_x_t > 0):
        return EXIT_OK  # no beat to fit at zero field
    fit = beat_fit(trace, opts.fit)
    return _emit_report(outdir / "lifetime_fit_report.txt", fit,
                        "lifetime docp damped cosine",
                        stream.content_digest[:16])


def _analyze_cw(stream, opts, outdir) -> int:
    window = opts.window_s or 100e-9
    binning = {"window_s": window, "bin_s": opts.bin_s or CW_BIN_S}
    raw = cw_histograms(stream, **binning)
    g2 = cw_histograms(stream, start_stop=True, **binning) \
        if opts.start_stop else raw
    if opts.normalize:
        g2 = [plateau_normalized(h, window) for h in g2]
    path = outdir / "cw_g2.csv"
    write_g2_csv(path, *g2, digest_meta(stream))
    print(f"wrote {path}")
    trace = docp(*raw)
    docp_path = outdir / "fig2b_docp.csv"
    write_docp_csv(docp_path, trace, digest_meta(stream))
    print(f"wrote {docp_path}")
    if not opts.fit.enabled:
        return EXIT_OK
    fit = fit_damped_cosine(trace, variant=opts.fit.variant or "cw",
                            t0=opts.fit.t0,
                            exclusion_window_s=opts.fit.exclusion_window_s,
                            fixed=opts.fit.fixed)
    return _emit_report(outdir / "fig2b_fit_report.txt", fit,
                        "cw docp damped cosine", stream.content_digest[:16])


def _slicing(opts):
    return (T1_SLICE_S if opts.t1_slice_s is None else opts.t1_slice_s,
            opts.slice_tolerance_s or T1_SLICE_TOL_S)


def _analyze_pulsed(stream, opts, outdir) -> int:
    map_r, map_l = build_map2d(stream)
    meta = digest_meta(stream)
    path, _ = write_herald_maps(outdir, map_r, map_l, meta)
    trace = sliced_docp(map_r, map_l, *_slicing(opts))
    slice_path = outdir / "fig3b_slice_docp.csv"
    write_docp_csv(slice_path, trace, meta)
    print(f"wrote {path}")
    print(f"wrote {slice_path}")
    if not opts.fit.enabled:
        return EXIT_OK
    fit = beat_fit(trace, opts.fit)
    return _emit_report(outdir / "fig3b_fit_report.txt", fit,
                        "map slice damped cosine", stream.content_digest[:16])


class _SweepPoint(NamedTuple):
    delay: float
    content_digest: str
    trace: DocpTrace


def _analyze_delay_sweep(streams, opts, outdir) -> int:
    """Reduce each file of a pulsed delay sweep to its sliced DOCP as it
    is read, so that one stream is held at a time; nothing is written
    before every file has been read and checked."""
    window = opts.t2_fit_window_s or T2_FIT_WINDOW_S
    slicing = _slicing(opts)

    def sweep_point(stream):
        if stream.config.kind is not ProtocolKind.PULSED_2PC:
            raise ConfigError(
                f"{stream.config.kind.value} analysis takes exactly one file")
        return _SweepPoint(stream.config.pulse_delay_s, stream.content_digest,
                           sliced_docp(*build_map2d(stream), *slicing))

    points = list(map(sweep_point, streams))
    meta = digest_meta(*points)
    points.sort(key=lambda p: p.delay)
    delays = [p.delay for p in points]
    for a, b in zip(delays, delays[1:]):
        if a == b:
            raise ConfigError(f"pulse_delay_s = {a:g} s: more than one "
                              f"event file of the sweep has it")
    traces = [p.trace for p in points]
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "fig3d_docp_vs_delay.csv"
    write_delay_csv(path, delays, traces, meta, window)
    print(f"wrote {path}")
    if not opts.fit.enabled:
        return EXIT_OK
    fit_path, f_avg, tau_avg = delay_sweep_fits(outdir, delays, traces,
                                                window)
    report = (f"delay sweep window average over t2 in "
              f"[{window[0]:.3g}, {window[1]:.3g}] s\n"
              f"f_hz = {f_avg.mean:.9g} +/- {f_avg.sigma:.9g}\n"
              f"t2star_s = {tau_avg.mean:.9g} +/- {tau_avg.sigma:.9g}\n"
              f"n_bins = {f_avg.n}\n")
    report_path = outdir / "fig3d_fit_report.txt"
    report_path.write_text(report)
    print(report, end="")
    print(f"wrote {fit_path}")
    print(f"wrote {report_path}")
    return EXIT_OK


def _read_trace_csv(path):
    cols = None
    data = []
    with open(path, "r") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if cols is None and any(not _is_float(p) for p in parts):
                cols = parts
                continue
            data.append([float(p) for p in parts])
    if not data:
        raise OSError(f"{path}: no data rows")
    table = np.asarray(data)
    if table.shape[1] < 2:
        raise OSError(f"{path}: need at least two columns")
    sigma = table[:, 2] if table.shape[1] > 2 else None
    return table[:, 0], table[:, 1], sigma


def _is_float(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def cmd_fit(args) -> int:
    t, y, sigma = _read_trace_csv(args.trace)
    fixed = {}
    for item in args.fixed:
        name, _, value = item.partition("=")
        if not value:
            raise ConfigError(f"--fixed {item!r}: expected NAME=VALUE")
        fixed[name.strip()] = float(value)
    trace = (t, y, sigma) if sigma is not None else (t, y)
    fit = fit_damped_cosine(trace, variant=args.variant, t0=args.t0,
                            exclusion_window_s=args.exclusion_window,
                            fixed=fixed)
    return _emit_report(args.report, fit, f"{args.variant} damped cosine",
                        str(args.trace))


def cmd_pipeline(args) -> int:
    result = run_pipeline(args.preset, args.outdir, seed=args.seed,
                          scale=args.scale, workers=args.workers)
    widths = (10, 28, 14, 14, 12, 14)
    header = ("preset", "quantity", "configured", "recovered", "sigma",
              "reference")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in result.rows:
        cells = (r.preset, r.quantity, f"{r.configured:.6g}",
                 f"{r.recovered:.6g}", f"{r.sigma:.6g}",
                 f"{r.reference:.6g}")
        print("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    for path in result.files:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_zeeman(args) -> int:
    with open(args.table, "r") as fh:
        rows = []
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if all(_is_float(p) for p in parts):
                rows.append([float(p) for p in parts])
    table = np.asarray(rows)
    if table.ndim != 2 or table.shape[1] != 5:
        raise ConfigError("zeeman table must have columns b_t, e1..e4")
    b_t = table[:, 0]
    energies = np.sort(table[:, 1:], axis=1)
    outer = energies[:, 3] - energies[:, 0]
    inner = energies[:, 2] - energies[:, 1]
    de_big = 0.5 * (outer + inner)
    de_small = 0.5 * (outer - inner)
    fit_e = fit_linear_zeeman(b_t, de_big, through_origin=args.through_origin)
    fit_h = fit_linear_zeeman(b_t, de_small,
                              through_origin=args.through_origin)
    text = ("four-line zeeman fit (larger splitting -> excited doublet)\n"
            f"g_e = {fit_e.g:.9g} +/- {fit_e.sigma_g:.9g}\n"
            f"g_h = {fit_h.g:.9g} +/- {fit_h.sigma_g:.9g}\n")
    _emit(text, args.report)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
