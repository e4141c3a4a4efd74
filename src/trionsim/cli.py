"""Command-line entry point.

Exit codes are a stable contract: 0 success, 2 invalid configuration
(with a field-path diagnostic), 3 I/O failure, 4 numerical
non-convergence.  Worker count comes from --workers or TRIONSIM_WORKERS.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import montecarlo
from .correlator import (CW_BIN_S, LIFETIME_BIN_S, bin_lifetime, build_map2d,
                         cw_window_edges, docp, lifetime_edges,
                         plateau_normalized, write_docp_csv)
from .events_io import compat_digest, read_events, write_events
from .fitkit import fit_damped_cosine, fit_linear_zeeman, format_fit_report
from .montecarlo import ProtocolKind
from .pipelines import (PRESETS, T1_SLICE_S, T1_SLICE_TOL_S,
                        T2_FIT_WINDOW_S, beat_fit, cw_histograms,
                        delay_sweep_fits, digest_meta, lifetime_traces,
                        output_directory, run_pipeline, sliced_docp,
                        write_delay_csv, write_g2_csv, write_herald_maps)
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
    fmt = args.format or scenario.outputs.format
    ext = "bin" if fmt == "binary" else "csv"
    with output_directory(args.outdir or scenario.outputs.directory) as outdir:
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
    streams = _read_streams(args.events)
    stream = next(streams) if len(args.events) == 1 else None
    name = "delay sweep" if stream is None else {
        ProtocolKind.PULSED_2PC: "pulsed", ProtocolKind.CW_G2: "cw"}.get(
            stream.config.kind,
            "lifetime" if stream.device.b_x_t > 0 else "zero-field")
    run, reads, report = _ANALYSES[name]
    _read_options(opts, reads, name)
    with output_directory(args.outdir) as outdir:
        if stream is None:
            return run(streams, opts, outdir)
        digest = stream.content_digest
        paths, trace = run(stream, opts, outdir, digest_meta(digest))
        for path in paths:
            print(f"wrote {path}")
        if "fit" not in reads or not opts.fit.enabled:
            return EXIT_OK
        file, title, fit = report
        return _emit_report(outdir / file, fit(trace, opts.fit), title,
                            digest[:16])


def _read_options(opts, reads, name) -> None:
    """Refuse an option set away from its default that the analysis does
    not read, naming its field path, and give each unset (None) option
    the value `reads` holds for it."""
    def by_path(o):   # each option by its field path, as (holder, field)
        return {**{f.name: (o, f.name) for f in fields(o) if f.name != "fit"},
                **{f"fit.{f.name}": (o.fit, f.name) for f in fields(o.fit)}}

    default = by_path(AnalysisOptions())
    for path, (holder, field) in by_path(opts).items():
        value = getattr(holder, field)
        if path not in reads and path.partition(".")[0] not in reads \
                and value != getattr(*default[path]):
            raise ConfigError(
                f"analysis.{path}: not used by the {name} analysis")
        if value is None and reads.get(path) is not None:
            setattr(holder, field, reads[path])


def _emit(text, path) -> None:
    print(text, end="")
    if path:
        Path(path).write_text(text)
        print(f"wrote {path}")


def _emit_report(path, fit, title, digest) -> int:
    _emit(format_fit_report(fit, title, digest), path)
    return EXIT_OK if fit.converged else EXIT_NOCONV


def _analyze_lifetime(stream, opts, outdir, meta):
    co, cross = bin_lifetime(stream.events, stream.config, lifetime_edges(
        stream.device, stream.config, opts.bin_s, opts.span_s))
    paths = [lifetime_traces(outdir, co, cross, meta),
             outdir / "lifetime_docp.csv"]
    trace = docp(co, cross)
    write_docp_csv(paths[1], trace, meta)
    return paths, trace


def _analyze_cw(stream, opts, outdir, meta):
    edges = cw_window_edges(stream.config, opts.window_s, opts.bin_s)
    ev = stream.events
    records = (ev["channel"], ev["projection"], ev["time"])
    raw = cw_histograms(*records, edges)
    g2 = cw_histograms(*records, edges, start_stop=True) \
        if opts.start_stop else raw
    if opts.normalize:
        g2 = [plateau_normalized(h, opts.window_s) for h in g2]
    paths = [outdir / "cw_g2.csv", outdir / "fig2b_docp.csv"]
    write_g2_csv(paths[0], *g2, meta)
    trace = docp(*raw)
    write_docp_csv(paths[1], trace, meta)
    return paths, trace


def _cw_fit(trace, opts):
    return fit_damped_cosine(trace, opts.variant, opts.t0,
                             opts.exclusion_window_s, opts.fixed)


def _analyze_pulsed(stream, opts, outdir, meta):
    map_r, map_l = build_map2d(stream.events, stream.config,
                               stream.config.n_shots)
    paths = write_herald_maps(outdir, map_r, map_l, meta)
    trace = sliced_docp(map_r, map_l, opts.t1_slice_s,
                        opts.slice_tolerance_s)
    paths.append(outdir / "fig3b_slice_docp.csv")
    write_docp_csv(paths[-1], trace, meta)
    return paths, trace


def _analyze_delay_sweep(streams, opts, outdir) -> int:
    """Reduce each file of a pulsed delay sweep to its sliced DOCP as it
    is read, so that one stream is held at a time; no file is written
    before every file has been read and checked."""
    window = opts.t2_fit_window_s

    def sweep_point(stream):
        if stream.config.kind is not ProtocolKind.PULSED_2PC:
            raise ConfigError(
                f"{stream.config.kind.value} analysis takes exactly one file")
        maps = build_map2d(stream.events, stream.config,
                           stream.config.n_shots)
        return (stream.config.pulse_delay_s, stream.content_digest,
                sliced_docp(*maps, opts.t1_slice_s, opts.slice_tolerance_s))

    points = list(map(sweep_point, streams))
    meta = digest_meta(*(digest for _, digest, _ in points))
    delays, _, traces = zip(*sorted(points, key=lambda p: p[0]))
    for a, b in zip(delays, delays[1:]):
        if a == b:
            raise ConfigError(f"pulse_delay_s = {a:g} s: more than one "
                              f"event file of the sweep has it")
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
    for path in (fit_path, report_path):
        print(f"wrote {path}")
    return EXIT_OK


# each analysis `analyze` runs: its function, which returns the paths it
# wrote and the trace to fit (the delay sweep's, given all the streams,
# its exit code); each option path it reads with its value when unset
# (None: none, or the edge builder's own; "fit" stands for every `fit.*`
# path); and the file name, title and fit of its fit report
_ANALYSES = {
    "lifetime": (
        _analyze_lifetime,
        {"bin_s": LIFETIME_BIN_S, "span_s": None, "fit": None},
        ("lifetime_fit_report.txt", "lifetime docp damped cosine", beat_fit)),
    "zero-field": (
        _analyze_lifetime, {"bin_s": LIFETIME_BIN_S, "span_s": None}, None),
    "cw": (
        _analyze_cw,
        {"bin_s": CW_BIN_S, "window_s": 100e-9, "normalize": None,
         "start_stop": None, "fit": None, "fit.variant": "cw"},
        ("fig2b_fit_report.txt", "cw docp damped cosine", _cw_fit)),
    "pulsed": (
        _analyze_pulsed,
        {"t1_slice_s": T1_SLICE_S, "slice_tolerance_s": T1_SLICE_TOL_S,
         "fit": None},
        ("fig3b_fit_report.txt", "map slice damped cosine", beat_fit)),
    "delay sweep": (
        _analyze_delay_sweep,
        {"t1_slice_s": T1_SLICE_S, "slice_tolerance_s": T1_SLICE_TOL_S,
         "t2_fit_window_s": T2_FIT_WINDOW_S, "fit.enabled": None}, None),
}


def _read_table(path) -> np.ndarray:
    """The data rows of a CSV of numbers as a 2-D array.  Blank lines and
    `#` comments are skipped and one header line is taken before the
    first data row; a second one, a row without as many numbers as the
    first, or a number that is not finite makes OSError name its
    `path:line`."""
    header, data = False, []
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            numeric = all(map(_is_float, parts))
            if data and not (numeric and len(parts) == len(data[0])):
                raise OSError(f"{path}:{lineno}: expected {len(data[0])} "
                              f"numbers, got {line!r}")
            if not numeric:
                if header:
                    raise OSError(f"{path}:{lineno}: a second header line, "
                                  f"got {line!r}")
                header = True
                continue
            row = [float(p) for p in parts]
            if not all(map(math.isfinite, row)):
                raise OSError(f"{path}:{lineno}: expected finite numbers, "
                              f"got {line!r}")
            data.append(row)
    if not data:
        raise OSError(f"{path}: no data rows")
    return np.asarray(data)


def _is_float(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def cmd_fit(args) -> int:
    table = _read_table(args.trace)
    if table.shape[1] < 2:
        raise OSError(f"{args.trace}: need at least two columns")
    fixed = {}
    for item in args.fixed:
        name, _, value = item.partition("=")
        if not value:
            raise ConfigError(f"--fixed {item!r}: expected NAME=VALUE")
        fixed[name.strip()] = float(value)
    trace = tuple(table.T[:3])
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
    table = _read_table(args.table)
    if table.shape[1] != 5:
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
