"""Scenario schema strictness and command-line exit-code contract."""

import contextlib
import errno
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trionsim
from trionsim import cli, events_io
from trionsim.cli import main
from trionsim.core import MU_B_EV_PER_T
from trionsim.correlator import MAX_BINS
from trionsim.fitkit import PARAM_NAMES
from trionsim.rng import derive_seed
from trionsim.scenarios import ConfigError, Scenario, load_scenario

from oracles import read_stream


def _scenario_dict(kind="docp_zero_field", **proto):
    d = {
        "device": {"g_e": 2.09, "g_h": 0.362, "t1_s": 3e-10, "p_mem": 0.865,
                   "b_x_t": 0.0,
                   "noise": {"kind": "none", "width_hz": 0.0,
                             "applies_to": "ground"}},
        "protocol": {"kind": kind, "n_shots": 20_000, "rng_seed": 13},
    }
    d["protocol"].update(proto)
    return d


def _write_scenario(path, d):
    path.write_text(json.dumps(d))
    return str(path)


def test_scenario_round_trip():
    d = _scenario_dict("pulsed_2pc", pulse_delay_s=1.6e-9,
                       detection_efficiency=0.5)
    d["analysis"] = {"bin_s": 20e-12,
                     "fit": {"variant": "pulsed",
                             "fixed": {"alpha": 1.0}}}
    d["outputs"] = {"format": "csv", "prefix": "run_"}
    scenario = Scenario.from_dict(d)
    back = Scenario.from_dict(scenario.to_dict())
    assert back.device.to_dict() == scenario.device.to_dict()
    assert back.protocol.to_dict() == scenario.protocol.to_dict()
    assert back.analysis.to_dict() == scenario.analysis.to_dict()
    assert back.outputs.to_dict() == scenario.outputs.to_dict()


def test_unknown_keys_name_the_field_path():
    cases = [
        (dict(_scenario_dict(), extras=1), "$.extras"),
        (_scenario_dict(gg=1), "protocol.gg"),
        (_scenario_dict(), "device.gee"),
        (_scenario_dict(), "device.noise.hue"),
        (_scenario_dict(), "analysis.fit.fixed.zeta"),
        (_scenario_dict(), "analysis.pairings"),
    ]
    cases[2][0]["device"]["gee"] = 2.0
    cases[3][0]["device"]["noise"]["hue"] = "red"
    cases[4][0]["analysis"] = {"fit": {"fixed": {"zeta": 1.0}}}
    cases[5][0]["analysis"] = {"pairings": ["RR"]}
    for d, path in cases:
        with pytest.raises(ConfigError, match=rf"{path.replace('$', '[$]')}"):
            Scenario.from_dict(d)


def test_missing_required_key_names_the_field():
    d = _scenario_dict()
    del d["protocol"]["rng_seed"]
    with pytest.raises(ConfigError, match="protocol.rng_seed: missing"):
        Scenario.from_dict(d)
    d = _scenario_dict()
    del d["device"]["noise"]
    with pytest.raises(ConfigError, match="device.noise: missing"):
        Scenario.from_dict(d)


def test_type_checks_reject_bools_and_floats():
    d = _scenario_dict()
    d["device"]["g_e"] = True
    with pytest.raises(ConfigError, match="device.g_e: expected a number"):
        Scenario.from_dict(d)
    d = _scenario_dict(n_shots=100.5)
    with pytest.raises(ConfigError, match="protocol.n_shots: expected an"):
        Scenario.from_dict(d)
    d = _scenario_dict()
    d["analysis"] = {"normalize": "yes"}
    with pytest.raises(ConfigError, match="analysis.normalize"):
        Scenario.from_dict(d)
    for key, value in (("bin_s", 0), ("span_s", -1e-9), ("window_s", 0.0),
                       ("slice_tolerance_s", 0)):
        d = _scenario_dict()
        d["analysis"] = {key: value}
        with pytest.raises(ConfigError, match=f"analysis.{key}: must be > 0"):
            Scenario.from_dict(d)
    for window in ([2.7e-10, 5e-11], [1e-10, 1e-10]):
        d = _scenario_dict()
        d["analysis"] = {"t2_fit_window_s": window}
        with pytest.raises(ConfigError,
                           match=r"analysis.t2_fit_window_s: .* lo < hi"):
            Scenario.from_dict(d)
    d = _scenario_dict()
    d["analysis"] = {"t1_slice_s": 0}
    assert Scenario.from_dict(d).analysis.t1_slice_s == 0.0


def test_out_of_range_numbers_are_config_errors(tmp_path, capsys):
    d = _scenario_dict()
    d["device"]["g_e"] = 10 ** 400   # no float holds it
    with pytest.raises(ConfigError, match="device.g_e: out of range"):
        Scenario.from_dict(d)
    assert main(["simulate", _write_scenario(tmp_path / "g.json", d)]) == 2
    assert "device.g_e: out of range" in capsys.readouterr().err
    d = _scenario_dict(rep_period_s=float("inf"))
    with pytest.raises(ConfigError, match="rep_period_s must be finite"):
        Scenario.from_dict(d)


def test_oversized_cw_segments_exit_2(tmp_path, capsys):
    # 8192 segments of 1 s would draw an 8192 x 1e7 jitter matrix per
    # batch (about 650 GB); the config is refused before any allocation
    d = _scenario_dict("cw_g2", n_shots=8192, pump_rate_hz=1e6,
                       segment_length_s=1.0)
    with pytest.raises(ConfigError, match="protocol.segment_length_s"):
        Scenario.from_dict(d)
    scn = _write_scenario(tmp_path / "big.json", d)
    assert main(["simulate", scn, "-o", str(tmp_path)]) == 2
    assert "protocol.segment_length_s" in capsys.readouterr().err
    # one 1 s segment, as in the correlator oracle's stream, stays legal
    d["protocol"]["n_shots"] = 1
    assert Scenario.from_dict(d).protocol.segment_length_s == 1.0


@pytest.mark.parametrize("kind, key", [
    ("lifetime", "pulse_delay_s"), ("docp_zero_field", "pulse_delay_s"),
    ("cw_g2", "pulse_delay_s"), ("lifetime", "pump_rate_hz"),
    ("docp_zero_field", "pump_rate_hz"), ("pulsed_2pc", "pump_rate_hz"),
    ("cw_g2", "rep_period_s"), ("lifetime", "segment_length_s"),
    ("docp_zero_field", "segment_length_s"),
    ("pulsed_2pc", "segment_length_s")])
def test_run_keys_of_other_kinds_exit_2(tmp_path, capsys, kind, key):
    # a timing field the engine of this kind never reads is refused, not
    # ignored, unless it holds its default
    needed = {"cw_g2": {"pump_rate_hz": 1e7},
              "pulsed_2pc": {"pulse_delay_s": 1.6e-9}}.get(kind, {})
    value = {"pulse_delay_s": 5e-9, "rep_period_s": 5e-9,
             "segment_length_s": 1.0}.get(key, 1e7)
    d = _scenario_dict(kind, **{**needed, key: value})
    with pytest.raises(ConfigError, match=f"protocol.{key}: not used by "
                                          f"{kind}"):
        Scenario.from_dict(d)
    scn = _write_scenario(tmp_path / "unused.json", d)
    assert main(["simulate", scn, "-o", str(tmp_path)]) == 2
    assert f"protocol.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("kind, key", [("cw_g2", "pump_rate_hz"),
                                       ("pulsed_2pc", "pulse_delay_s")])
def test_missing_field_of_the_kind_exits_2(tmp_path, capsys, kind, key):
    # a timing field without a default that the kind reads is required
    d = _scenario_dict(kind)
    with pytest.raises(ConfigError, match=f"protocol.{key}: required by "
                                          f"{kind}"):
        Scenario.from_dict(d)
    scn = _write_scenario(tmp_path / "missing.json", d)
    assert main(["simulate", scn, "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"protocol.{key}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_infinite_pump_rate_exits_2(tmp_path, capsys):
    # the cw engine sizes its loop guard from a finite pump rate
    d = _scenario_dict("cw_g2", n_shots=10, pump_rate_hz=float("inf"))
    scn = _write_scenario(tmp_path / "inf.json", d)
    assert main(["simulate", scn, "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "pump_rate_hz must be finite and > 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("n_shots, analysis, field", [
    (64, {}, "protocol.n_shots"),
    (20_000, {"bin_s": 2e-10}, "analysis.bin_s"),
    (20_000, {"fit": {"exclusion_window_s": 2.9e-9}},
     "analysis.fit.exclusion_window_s")])
def test_trace_too_short_for_the_fit_names_its_field(tmp_path, capsys,
                                                     n_shots, analysis,
                                                     field):
    # the lifetime fit needs 32 valid bins: 64 shots give too few counts,
    # 0.2 ns bins over the 3 ns span too few bins, and a 2.9 ns exclusion
    # window leaves too few bins outside it; each refusal names its field
    d = _scenario_dict("lifetime", n_shots=n_shots)
    d["device"]["b_x_t"] = 0.15
    d["analysis"] = analysis
    scn = _write_scenario(tmp_path / "short.json", d)
    assert main(["simulate", scn, "-o", str(tmp_path / "ev")]) == 0
    capsys.readouterr()
    code = main(["analyze", str(tmp_path / "ev" / "events.bin"),
                 "-o", str(tmp_path / "an"), "--scenario", scn])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"config error: {field}: ") and \
        "need at least 32 valid bins" in err


def test_event_time_resolution_bounded_at_validation():
    # event times are float64 shot * stride + t: from 2^13 s on their
    # ULP exceeds 1 ps; the stride is the repetition period, or twice
    # the segment length for cw (exact binary values, configs only)
    for kind, proto, n_max in (
            ("lifetime", {"rep_period_s": 2.0 ** -10}, 2 ** 23),
            ("cw_g2", {"pump_rate_hz": 1e7, "segment_length_s": 2.0 ** -15},
             2 ** 27)):
        d = _scenario_dict(kind, n_shots=n_max, **proto)
        with pytest.raises(ConfigError, match=r"^protocol\.n_shots: "):
            Scenario.from_dict(d)
        d["protocol"]["n_shots"] = n_max - 1
        assert Scenario.from_dict(d).protocol.n_shots == n_max - 1


def test_delay_sweep_expands_with_derived_seeds():
    d = _scenario_dict("pulsed_2pc", pulse_delay_s=[0.6e-9, 1.0e-9, 2.5e-9])
    scenario = Scenario.from_dict(d)
    runs = scenario.expand()
    assert [label for label, _ in runs] == ["dt0.6ns", "dt1ns", "dt2.5ns"]
    assert [p.pulse_delay_s for _, p in runs] == [0.6e-9, 1.0e-9, 2.5e-9]
    seeds = [p.rng_seed for _, p in runs]
    assert seeds == [derive_seed(13, "delay_sweep", i) for i in range(3)]
    assert len(set(seeds)) == 3

    single = Scenario.from_dict(_scenario_dict())
    assert single.expand() == [("", single.protocol)]


def test_delay_sweep_requires_pulsed_kind():
    d = _scenario_dict("lifetime", pulse_delay_s=[1e-9, 2e-9])
    with pytest.raises(ConfigError,
                       match="protocol.pulse_delay_s: not used by lifetime"):
        Scenario.from_dict(d)


def test_load_scenario_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match=r"[$]: invalid JSON"):
        load_scenario(path)


def test_cli_simulate_is_deterministic(tmp_path):
    scn = _write_scenario(tmp_path / "s.json", _scenario_dict())
    assert main(["simulate", scn, "-o", str(tmp_path / "a")]) == 0
    assert main(["simulate", scn, "-o", str(tmp_path / "b")]) == 0
    blob_a = (tmp_path / "a" / "events.bin").read_bytes()
    blob_b = (tmp_path / "b" / "events.bin").read_bytes()
    assert blob_a == blob_b
    stream = read_stream(tmp_path / "a" / "events.bin")
    assert len(stream) > 0

    # a seed override must change the stream
    assert main(["simulate", scn, "-o", str(tmp_path / "c"),
                 "--seed", "99"]) == 0
    assert (tmp_path / "c" / "events.bin").read_bytes() != blob_a


def test_cli_simulate_writes_one_file_per_sweep_delay(tmp_path):
    d = _scenario_dict("pulsed_2pc", n_shots=5000,
                       pulse_delay_s=[0.6e-9, 1.0e-9])
    scn = _write_scenario(tmp_path / "s.json", d)
    assert main(["simulate", scn, "-o", str(tmp_path)]) == 0
    for label, delay in (("dt0.6ns", 0.6e-9), ("dt1ns", 1.0e-9)):
        stream = read_stream(tmp_path / f"events_{label}.bin")
        assert stream.config.pulse_delay_s == delay


def test_cli_exit_codes(tmp_path, capsys):
    # 2: configuration problem with a field-path diagnostic
    bad = _scenario_dict()
    bad["protocol"]["bogus"] = 1
    scn = _write_scenario(tmp_path / "bad.json", bad)
    assert main(["simulate", scn]) == 2
    assert "protocol.bogus" in capsys.readouterr().err

    # 3: missing input file
    assert main(["simulate", str(tmp_path / "absent.json")]) == 3

    # 3: corrupt event file
    scn = _write_scenario(tmp_path / "ok.json",
                          _scenario_dict(n_shots=2000))
    assert main(["simulate", scn, "-o", str(tmp_path)]) == 0
    blob = bytearray((tmp_path / "events.bin").read_bytes())
    blob[-5] ^= 0xFF
    (tmp_path / "events.bin").write_bytes(bytes(blob))
    assert main(["analyze", str(tmp_path / "events.bin"),
                 "-o", str(tmp_path)]) == 3
    assert "digest mismatch" in capsys.readouterr().err


def test_cli_analyze_rejects_mismatched_headers(tmp_path, capsys):
    for tag, g_e in (("a", 2.09), ("b", 2.10)):
        d = _scenario_dict("pulsed_2pc", n_shots=2000, pulse_delay_s=1e-9)
        d["device"]["g_e"] = g_e
        d["device"]["b_x_t"] = 0.15
        scn = _write_scenario(tmp_path / f"{tag}.json", d)
        assert main(["simulate", scn, "-o", str(tmp_path / tag)]) == 0
    assert main(["analyze", str(tmp_path / "a" / "events.bin"),
                 str(tmp_path / "b" / "events.bin"),
                 "-o", str(tmp_path)]) == 2
    assert "mismatched device/config" in capsys.readouterr().err


def _simulate_sweep(tmp_path, tag, delays, g_e=2.09):
    d = _scenario_dict("pulsed_2pc", n_shots=2000, pulse_delay_s=delays)
    d["device"]["g_e"] = g_e
    d["device"]["b_x_t"] = 0.15
    scn = _write_scenario(tmp_path / f"{tag}.json", d)
    assert main(["simulate", scn, "-o", str(tmp_path / tag)]) == 0
    return sorted(str(p) for p in (tmp_path / tag).iterdir())


def test_cli_analyze_checks_every_sweep_file_before_writing(tmp_path,
                                                            capsys):
    files = _simulate_sweep(tmp_path, "a", [0.6e-9, 1.0e-9])
    other = _simulate_sweep(tmp_path, "b", [1.4e-9], g_e=2.10)
    out = tmp_path / "out"
    assert main(["analyze", *files, *other, "-o", str(out)]) == 2
    assert "mismatched device/config" in capsys.readouterr().err
    blob = bytearray((tmp_path / "a" / "events_dt1ns.bin").read_bytes())
    blob[-5] ^= 0xFF
    (tmp_path / "damaged.bin").write_bytes(bytes(blob))
    assert main(["analyze", *files, str(tmp_path / "damaged.bin"),
                 "-o", str(out)]) == 3
    assert "digest mismatch" in capsys.readouterr().err
    assert not out.exists()


def test_cli_analyze_holds_one_sweep_file_at_a_time(tmp_path, monkeypatch):
    files = _simulate_sweep(tmp_path, "a", [0.6e-9, 1.0e-9, 1.4e-9])
    alive = []

    def read_events(path):
        # every stream read before must be freed by now
        assert all(ref() is None for ref in alive)
        stream = read_events_unpatched(path)
        alive.append(weakref.ref(stream))
        return stream

    read_events_unpatched = cli.read_events
    monkeypatch.setattr(cli, "read_events", read_events)
    # three delays are too few for the per-bin fits (exit 4), after the
    # dataset is written
    assert main(["analyze", *files, "-o", str(tmp_path / "out")]) == 4
    assert len(alive) == 3
    assert (tmp_path / "out" / "fig3d_docp_vs_delay.csv").exists()


def test_cli_analyze_lifetime_writes_trace_csv(tmp_path):
    d = _scenario_dict("lifetime", n_shots=20_000)
    d["device"]["b_x_t"] = 0.15
    scn = _write_scenario(tmp_path / "s.json", d)
    assert main(["simulate", scn, "-o", str(tmp_path)]) == 0
    assert main(["analyze", str(tmp_path / "events.bin"),
                 "-o", str(tmp_path)]) == 0
    trace = (tmp_path / "fig1d_traces.csv").read_text()
    assert "co_counts" in trace and "cross_counts" in trace
    assert (tmp_path / "lifetime_docp.csv").exists()


def test_cli_analyze_sweep_honours_fit_disabled(tmp_path):
    d = _scenario_dict("pulsed_2pc", pulse_delay_s=[0.6e-9, 1.0e-9, 1.4e-9])
    d["device"]["b_x_t"] = 0.15
    d["analysis"] = {"fit": {"enabled": False}}
    scn = _write_scenario(tmp_path / "s.json", d)
    assert main(["simulate", scn, "-o", str(tmp_path / "events")]) == 0
    files = sorted(str(p) for p in (tmp_path / "events").iterdir())
    out = tmp_path / "out"
    # with the fit enabled these three delays exit 4 (too few per-bin fits)
    assert main(["analyze", *files, "-o", str(out), "--scenario", scn]) == 0
    assert sorted(p.name for p in out.iterdir()) == \
        ["fig3d_docp_vs_delay.csv"]


def test_cli_analyze_lifetime_fit_takes_exclusion_window(tmp_path):
    d = _scenario_dict("lifetime", n_shots=50_000)
    d["device"]["b_x_t"] = 0.15
    scn = _write_scenario(tmp_path / "s.json", d)
    assert main(["simulate", scn, "-o", str(tmp_path)]) == 0
    points = {}
    for window in (None, 0.5e-9):
        d["analysis"] = {"fit": {"exclusion_window_s": window}}
        scn = _write_scenario(tmp_path / "s.json", d)
        out = tmp_path / f"out_{window}"
        assert main(["analyze", str(tmp_path / "events.bin"),
                     "-o", str(out), "--scenario", scn]) == 0
        report = (out / "lifetime_fit_report.txt").read_text()
        points[window] = int(re.search(r"points = (\d+)", report)[1])
    assert points[0.5e-9] < points[None]


def test_cli_fit_flags_non_convergence(tmp_path):
    # growing envelope: no damped cosine exists, the solver must give up
    rng = np.random.default_rng(7)
    t = np.arange(200) * 0.1e-9
    y = np.exp(t / 8e-9) * np.cos(2 * np.pi * 0.75e9 * t)
    y += 0.01 * rng.standard_normal(t.size)
    path = tmp_path / "trace.csv"
    with open(path, "w") as fh:
        fh.write("time_s,value\n")
        for ti, yi in zip(t, y):
            fh.write(f"{ti:.9g},{yi:.9g}\n")
    assert main(["fit", str(path), "--variant", "pulsed"]) == 4


def test_cli_fit_recovers_clean_trace(tmp_path, capsys):
    t = np.arange(1, 300) * 0.1e-9
    y = 0.3 * np.exp(-t / 12e-9) * np.cos(2 * np.pi * 0.76e9 * t)
    path = tmp_path / "trace.csv"
    with open(path, "w") as fh:
        fh.write("time_s,value\n")
        for ti, yi in zip(t, y):
            fh.write(f"{ti:.12g},{yi:.12g}\n")
    report = tmp_path / "report.txt"
    assert main(["fit", str(path), "--variant", "pulsed",
                 "--fixed", "offset=0", "-o", str(report)]) == 0
    out = capsys.readouterr().out
    assert "frequency" in out
    assert report.exists()


@pytest.mark.parametrize("row", ["2e-10", "2e-10,abc"])
def test_cli_fit_refuses_malformed_rows(tmp_path, capsys, row):
    # a row short of a cell, or with a cell that is no number, after the
    # header and two good rows (the bad row is line 4)
    path = tmp_path / "trace.csv"
    path.write_text(f"time_s,value\n0,0.1\n1e-10,0.2\n{row}\n3e-10,0.3\n")
    assert main(["fit", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"{path}:4: expected 2 numbers" in err
    assert "Traceback" not in err
    # a second non-numeric line before the first data row is a second
    # header line, refused with no width taken from its own cells
    path.write_text("h1\nh2\n0.1,1,2,3,4\n")
    for command in ("fit", "zeeman"):
        assert main([command, str(path)]) == 3
        err = capsys.readouterr().err
        assert f"{path}:2: a second header line" in err
        assert "expected" not in err and "Traceback" not in err


def test_cli_zeeman_recovers_g_factors(tmp_path, capsys):
    g_e, g_h, center = 2.09, 0.362, 1.30
    rows = []
    for b in (0.05, 0.10, 0.15, 0.20, 0.30):
        de = MU_B_EV_PER_T * g_e * b
        dh = MU_B_EV_PER_T * g_h * b
        rows.append((b, center - (de + dh) / 2, center - (de - dh) / 2,
                     center + (de - dh) / 2, center + (de + dh) / 2))
    path = tmp_path / "lines.csv"
    with open(path, "w") as fh:
        fh.write("b_t,e1,e2,e3,e4\n")
        for row in rows:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
    assert main(["zeeman", str(path)]) == 0
    out = capsys.readouterr().out
    assert "larger splitting -> excited doublet" in out
    fitted = {line.split(" = ")[0]: float(line.split(" = ")[1].split()[0])
              for line in out.splitlines() if " = " in line}
    assert fitted["g_e"] == pytest.approx(g_e, rel=1e-9)
    assert fitted["g_h"] == pytest.approx(g_h, rel=1e-9)

    bad = tmp_path / "short.csv"
    bad.write_text("b_t,e1\n0.1,1.0\n")
    assert main(["zeeman", str(bad)]) == 2


@pytest.mark.parametrize("cell", ["nan", "inf"])
@pytest.mark.parametrize("command", ["fit", "zeeman"])
def test_cli_table_refuses_a_non_finite_cell(tmp_path, capsys, command,
                                             cell):
    # a cell that reads as a float but is not finite (line 4) is refused
    # by its path:line, as a cell that is no number is
    path = tmp_path / "table.csv"
    rows = [f"{0.05 * i:g},1.29,1.295,1.305,1.31" for i in range(1, 6)]
    rows[2] = f"0.15,{cell},1.295,1.305,1.31"
    path.write_text("b_t,e1,e2,e3,e4\n" + "\n".join(rows) + "\n")
    assert main([command, str(path)]) == 3
    err = capsys.readouterr().err
    assert f"{path}:4: expected finite numbers" in err
    assert "Traceback" not in err


def test_cli_zeeman_refuses_a_row_with_a_non_number(tmp_path, capsys):
    # the table reader of `fit`: a non-numeric cell after the header and
    # a good row (the bad row is line 3) is refused, not dropped
    path = tmp_path / "lines.csv"
    path.write_text("b_t,e1,e2,e3,e4\n0.1,1.29,1.295,1.305,1.31\n"
                    "0.12,abc,1.3,1.3,1.3\n0.2,1.28,1.29,1.31,1.32\n")
    assert main(["zeeman", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"{path}:3: expected 5 numbers" in err
    assert "Traceback" not in err


def test_cli_analyze_sweep_refuses_a_repeated_pulse_delay(tmp_path, capsys):
    d = _scenario_dict("pulsed_2pc", pulse_delay_s=[0.6e-9, 1.0e-9])
    d["device"]["b_x_t"] = 0.15
    scn = _write_scenario(tmp_path / "s.json", d)
    assert main(["simulate", scn, "-o", str(tmp_path / "events")]) == 0
    first, second = sorted(str(p) for p in (tmp_path / "events").iterdir())
    capsys.readouterr()
    # one file passed twice holds the same pulse delay twice; every file
    # is read and checked before anything is written
    out = tmp_path / "out"
    assert main(["analyze", first, second, first, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: pulse_delay_s = 6e-10 s" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1"])
def test_cli_pipeline_refuses_a_scale_that_is_not_finite_and_positive(
        tmp_path, capsys, scale):
    out = tmp_path / "out"
    assert main(["pipeline", "fig1d", "--scale", scale, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: scale:")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("option", [["--workers", "0"], ["--seed", "-5"],
                                    ["--scale", "1e300"]])
def test_cli_pipeline_that_fails_validation_leaves_no_directory(
        tmp_path, capsys, option):
    # each is refused once the preset builds its config, after the output
    # directory was made: the empty directories this call created must go,
    # and one that was already there must stay with its contents
    out = tmp_path / "new" / "out"
    assert main(["pipeline", "fig1d", *option, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not (tmp_path / "new").exists()
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "note.txt").write_text("mine")
    assert main(["pipeline", "fig1d", *option, "-o", str(kept)]) == 2
    assert [p.name for p in kept.iterdir()] == ["note.txt"]


def test_cli_pipeline_keeps_what_a_failed_fit_wrote(tmp_path):
    # at scale 0.01 fig3d writes its dataset, then finds too few per-bin
    # fits (exit 4): the file stays, in the directories this call made
    out = tmp_path / "new" / "out"
    assert main(["pipeline", "fig3d", "--scale", "0.01", "-o", str(out)]) == 4
    assert [p.name for p in out.iterdir()] == ["fig3d_docp_vs_delay.csv"]


@pytest.fixture(scope="module")
def analysis_files(tmp_path_factory):
    """Small event files for each analysis `analyze` runs."""
    root = tmp_path_factory.mktemp("analysis_files")
    lifetime_field = _scenario_dict("lifetime")
    lifetime_field["device"]["b_x_t"] = 0.1
    protocols = {
        "lifetime": _scenario_dict("lifetime"),
        "zero_field": _scenario_dict(),
        "lifetime_field": lifetime_field,
        "cw": _scenario_dict("cw_g2", n_shots=16, pump_rate_hz=1e7),
        "pulsed": _scenario_dict("pulsed_2pc", n_shots=2000,
                                 pulse_delay_s=1.6e-9),
        "delay_sweep": _scenario_dict("pulsed_2pc", n_shots=2000,
                                      pulse_delay_s=[0.6e-9, 1.0e-9]),
    }
    files = {}
    for name, d in protocols.items():
        scn = _write_scenario(root / f"{name}.json", d)
        assert main(["simulate", scn, "-o", str(root / name)]) == 0
        files[name] = sorted(str(p) for p in (root / name).iterdir())
    return files


@pytest.mark.parametrize("analysis, options, refused", [
    ("lifetime", {"window_s": 1e-7}, "window_s"),
    ("zero_field", {"t2_fit_window_s": [0.0, 1e-9]}, "t2_fit_window_s"),
    ("cw", {"span_s": 2e-9}, "span_s"),
    ("cw", {"t1_slice_s": 0.1e-9}, "t1_slice_s"),
    ("pulsed", {"window_s": 1e-7}, "window_s"),
    ("pulsed", {"normalize": False}, "normalize"),
    ("delay_sweep", {"fit": {"fixed": {"alpha": 1.0}}}, "fit.fixed"),
    ("delay_sweep", {"fit": {"variant": "cw"}}, "fit.variant"),
    ("delay_sweep", {"bin_s": 20e-12}, "bin_s"),
    # options the analysis reads, and others left at their defaults, pass
    ("lifetime_field", {"bin_s": 20e-12, "normalize": True,
                        "fit": {"enabled": False}}, None),
    ("cw", {"window_s": 50e-9, "start_stop": True,
            "fit": {"enabled": False, "t0": 0.0}}, None),
    ("pulsed", {"slice_tolerance_s": 20e-12, "t2_fit_window_s": None,
                "fit": {"enabled": False, "fixed": {}}}, None),
    ("delay_sweep", {"t2_fit_window_s": [0.0, 1e-9],
                     "fit": {"enabled": False}}, None),
    # a lifetime or zero-field file at zero field runs no fit, so every
    # fit option is refused there; with a field it is read
    ("lifetime", {"fit": {"enabled": False}}, "fit.enabled"),
    ("lifetime", {"fit": {"t0": 1e-9}}, "fit.t0"),
    ("zero_field", {"fit": {"fixed": {"alpha": 1.0}}}, "fit.fixed"),
    ("zero_field", {"bin_s": 20e-12, "span_s": 2e-9,
                    "fit": {"t0": 0.0, "fixed": {}}}, None),
    ("lifetime_field", {"fit": {"enabled": False, "t0": 1e-9,
                                "fixed": {"alpha": 1.0}}}, None),
])
def test_cli_analyze_refuses_options_its_analysis_does_not_read(
        tmp_path, capsys, analysis_files, analysis, options, refused):
    # an option set away from its default that the analysis never reads
    # is refused with its field path, not parsed and ignored
    d = _scenario_dict()
    d["analysis"] = options
    scn = _write_scenario(tmp_path / "s.json", d)
    out = tmp_path / "out"
    code = main(["analyze", *analysis_files[analysis], "-o", str(out),
                 "--scenario", scn])
    if refused is None:
        assert code == 0
        return
    assert code == 2
    err = capsys.readouterr().err
    assert f"analysis.{refused}: not used by" in err
    if analysis in ("lifetime", "zero_field"):
        assert err.rstrip().endswith("not used by the zero-field analysis")
    assert not out.exists()


def test_cli_analyze_cw_refuses_a_window_without_plateau(
        tmp_path, capsys, analysis_files):
    # a window of one bin has no bin center in its outer quarter, so the
    # g2 cannot be normalized; unnormalized, the same file analyzes
    d = _scenario_dict()
    d["analysis"] = {"window_s": 100e-12, "bin_s": 100e-12,
                     "fit": {"enabled": False}}
    scn = _write_scenario(tmp_path / "s.json", d)
    out = tmp_path / "out"
    assert main(["analyze", *analysis_files["cw"], "-o", str(out),
                 "--scenario", scn]) == 2
    assert "window 1e-10 s" in capsys.readouterr().err
    assert not out.exists()
    d["analysis"]["normalize"] = False
    scn = _write_scenario(tmp_path / "s.json", d)
    assert main(["analyze", *analysis_files["cw"], "-o", str(out),
                 "--scenario", scn]) == 0


def _cli(*args):
    """`trionsim` with `args` in a fresh process, as a user runs it, so
    that any warning numpy prints reaches its stderr: (exit code,
    stderr)."""
    src = str(Path(trionsim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-m", "trionsim.cli", *args],
                          capture_output=True, text=True, env=env)
    return done.returncode, done.stderr


@pytest.mark.parametrize("analysis, options", [
    ("lifetime_field", {"bin_s": 1.0}),
    ("lifetime_field", {"span_s": 1e-300}),
    ("lifetime_field", {"bin_s": 1e-300}),
    ("lifetime", {"bin_s": 1e-300}),
    ("cw", {"window_s": 1e-9, "bin_s": 1e-300}),
    ("cw", {"window_s": 1e-9, "bin_s": 2e-9}),
])
def test_cli_analyze_refuses_a_bin_count_out_of_range(
        tmp_path, analysis_files, analysis, options):
    # fewer than one bin or more than MAX_BINS, refused with exit 2 under
    # the option's path before any record is read, and with no numpy
    # warning on the way
    d = _scenario_dict()
    d["analysis"] = options
    scn = _write_scenario(tmp_path / "s.json", d)
    out = tmp_path / "out"
    code, err = _cli("analyze", *analysis_files[analysis], "-o", str(out),
                     "--scenario", scn)
    assert code == 2
    assert err.startswith("config error: analysis.bin_s: ")
    bound = MAX_BINS // 2 if analysis == "cw" else MAX_BINS
    assert err.rstrip().endswith(f"need 1 to {bound}")
    assert "Warning" not in err and "Traceback" not in err
    assert not out.exists()


def test_cli_simulate_refuses_a_larmor_frequency_that_is_not_finite(
        tmp_path):
    # 1e300 T is a finite field whose Larmor frequencies overflow to inf
    d = _scenario_dict("lifetime", n_shots=200)
    d["device"]["b_x_t"] = 1e300
    scn = _write_scenario(tmp_path / "s.json", d)
    code, err = _cli("simulate", scn, "-o", str(tmp_path / "out"))
    assert code == 2
    assert err.startswith("config error: device.b_x_t: ")
    assert "not finite" in err
    assert "Warning" not in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("times, line", [
    ([1e-9] * 100, 3),
    ([0.0, 1e-10, 2e-10, 1.5e-10, 3e-10], 5),
])
def test_cli_fit_refuses_times_that_do_not_strictly_increase(
        tmp_path, times, line):
    path = tmp_path / "trace.csv"
    path.write_text("time_s,value\n" + "".join(
        f"{t!r},{0.1 * (i % 3)}\n" for i, t in enumerate(times)))
    code, err = _cli("fit", str(path))
    assert code == 3
    assert err.startswith(f"i/o error: {path}:{line}: expected a first "
                          f"column that strictly increases")
    assert "Warning" not in err and "Traceback" not in err


@pytest.mark.parametrize("big", [[40], [40, 41]])
def test_cli_fit_refuses_a_trace_whose_sum_of_squares_is_not_finite(
        tmp_path, big):
    # one value of 1e308 squares past float range, and two overflow the
    # mean as well; the fit once reported such a trace converged, sse inf
    t = np.arange(100) * 1e-11
    y = 0.5 * np.cos(2 * np.pi * 5e9 * t)
    y[big] = 1e308
    path = tmp_path / "trace.csv"
    path.write_text("".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(t, y)))
    report = tmp_path / "report.txt"
    code, err = _cli("fit", str(path), "-o", str(report))
    assert code == 4
    assert err == ("did not converge: the trace's weighted sum of squares "
                   "is not finite\n")
    assert not report.exists()


@pytest.mark.parametrize("args, message", [
    (["--fixed", "t2star=0"], "--fixed t2star: must be finite and > 0, got 0"),
    (["--fixed", "alpha=inf"],
     "--fixed alpha: must be finite and in (0, 3], got inf"),
    (["--fixed", "alpha=abc"],
     "--fixed 'alpha=abc': expected NAME=VALUE, VALUE a number"),
    (["--fixed", "bogus=1"], "--fixed bogus: not a parameter"),
    (["--t0", "nan"], "--t0: must be finite, got nan"),
    (["--t0", "1e-9"], "--t0: 1e-09 s is after the first valid time 1e-10 s"),
    (["--exclusion-window=-1"],
     "--exclusion-window: must be finite and >= 0, got -1"),
    (["--exclusion-window", "nan"],
     "--exclusion-window: must be finite and >= 0, got nan"),
    (["--exclusion-window", "1"],
     "--exclusion-window: need at least 40 valid bins, have 0"),
])
def test_cli_fit_refuses_an_option_by_its_flag(tmp_path, capsys, args,
                                               message):
    # each once printed numpy warnings and exited 4, exited 2 without
    # naming the option, or (a negative or nan window) was read as none
    path = _fit_trace(tmp_path / "trace.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["fit", str(path), "--fixed", "offset=0", *args])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")


def test_cli_reads_a_negative_exponent_form_as_the_option_value(tmp_path,
                                                                  capsys):
    # a value given as its own argument, as `-1e-300` and `-1e300`: argparse
    # once took either for an unknown option and exited 2 with "expected
    # one argument"
    path = _fit_trace(tmp_path / "trace.csv")
    report = tmp_path / "report.txt"
    assert main(["fit", str(path), "--t0", "-1e-300", "-o",
                 str(report)]) == 0
    assert report.exists()
    capsys.readouterr()
    assert main(["fit", str(path), "--exclusion-window", "-1e300"]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: --exclusion-window: must be finite and >= 0, "
        "got -1e+300")
    args = cli.build_parser().parse_args(
        ["pipeline", "fig1d", "--scale", "-2.5E-3", "--seed", "-5"])
    assert (args.scale, args.seed) == (-2.5e-3, -5)


@pytest.mark.parametrize("fit, message", [
    ('{"fixed": {"alpha": Infinity}}',
     "analysis.fit.fixed.alpha: must be finite and in (0, 3], got inf"),
    ('{"t0": NaN}', "analysis.fit.t0: must be finite, got nan"),
    ('{"exclusion_window_s": -1}',
     "analysis.fit.exclusion_window_s: must be finite and >= 0, got -1"),
    ('{"exclusion_window_s": NaN}',
     "analysis.fit.exclusion_window_s: must be finite and >= 0, got nan"),
])
def test_scenario_refuses_a_fit_option_outside_its_domain(tmp_path, fit,
                                                          message):
    # Python's json reads Infinity and NaN without complaint
    text = (json.dumps(_scenario_dict())[:-1]
            + f', "analysis": {{"fit": {fit}}}}}')
    path = tmp_path / "s.json"
    path.write_text(text)
    with pytest.raises(ConfigError) as exc:
        load_scenario(path)
    assert str(exc.value) == message


def test_cli_analyze_pulsed_fit_refuses_a_t0_after_the_trace(
        tmp_path, capsys, analysis_files):
    d = _scenario_dict()
    d["analysis"] = {"fit": {"t0": 1e-9}}
    scn = _write_scenario(tmp_path / "s.json", d)
    assert main(["analyze", *analysis_files["lifetime_field"], "-o",
                 str(tmp_path / "out"), "--scenario", scn]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: analysis.fit.t0: 1e-09 s is after the first valid "
        "time")


@pytest.mark.parametrize("args, env, message", [
    (["--workers", "0"], None, "--workers: worker count must be >= 1, got 0"),
    (["--workers", "-5"], None,
     "--workers: worker count must be >= 1, got -5"),
    ([], "abc", "TRIONSIM_WORKERS: invalid literal for int() with base 10: "
                "'abc'"),
    ([], "0", "TRIONSIM_WORKERS: worker count must be >= 1, got 0"),
])
@pytest.mark.parametrize("command", ["simulate", "pipeline"])
def test_cli_worker_count_refusal_names_its_source(
        tmp_path, capsys, monkeypatch, command, args, env, message):
    if env is None:
        monkeypatch.delenv("TRIONSIM_WORKERS", raising=False)
    else:
        monkeypatch.setenv("TRIONSIM_WORKERS", env)
    target = (_write_scenario(tmp_path / "s.json", _scenario_dict())
              if command == "simulate" else "fig1d")
    out = tmp_path / "out"
    assert main([command, target, "-o", str(out), *args]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def _fit_trace(path):
    """A small valid trace CSV: a damped cosine with errors, 60 rows from
    t = 0.1 ns."""
    t = np.arange(1, 61) * 1e-10
    y = 0.3 * np.exp(-t / 3e-9) * np.cos(2 * np.pi * 0.76e9 * t)
    y += 0.01 * np.random.default_rng(3).standard_normal(t.size)
    path.write_text("time_s,value,error\n" + "".join(
        f"{a!r},{b!r},0.01\n" for a, b in zip(t.tolist(), y.tolist())))
    return path


def _main_on_fd2(args):
    """main(args) in this process with its Python warnings recorded and
    file descriptor 2 sent to a file, since LAPACK writes there directly:
    (exit code, what reached stderr or fd 2, the warnings)."""
    err = io.StringIO()
    with tempfile.TemporaryFile() as fd2, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        saved = os.dup(2)
        try:
            os.dup2(fd2.fileno(), 2)
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(args)
        finally:
            os.dup2(saved, 2)
            os.close(saved)
        fd2.seek(0)
        text = err.getvalue() + fd2.read().decode(errors="replace")
    return code, text, caught


_FIT_OPTIONS = ["--t0", "--exclusion-window",
              *(f"--fixed {name}" for name in PARAM_NAMES)]


@pytest.fixture(scope="module")
def fit_trace(tmp_path_factory):
    return _fit_trace(tmp_path_factory.mktemp("fit") / "trace.csv")


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(variant=st.sampled_from(["pulsed", "cw"]),
       flag=st.sampled_from(_FIT_OPTIONS),
       value=st.sampled_from(["0", "1e-300", "-1e-300", "1e300", "-1e300",
                              "nan", "inf", "-inf", "-1"]))
def test_fit_option_values_keep_the_exit_contract(fit_trace, variant, flag,
                                                  value):
    """One `fit` option of a small valid trace set to an edge value: the
    exit code is 0, 2, 3 or 4, nothing reaches stderr but the exit line,
    with no traceback and no warning, and an exit-2 line names the
    option."""
    option = (f"--fixed={flag.split()[1]}={value}" if " " in flag
              else f"{flag}={value}")
    code, err, caught = _main_on_fd2(["fit", str(fit_trace), "--variant",
                                      variant, option])
    assert code in (0, 2, 3, 4), (option, err)
    assert not caught, (option, [str(w.message) for w in caught])
    assert "Traceback" not in err and "Warning" not in err, (option, err)
    assert err.count("\n") <= 1, (option, err)
    if code == 2:
        assert err.startswith(f"config error: {flag}: "), (option, err)


class _FillingFile:
    """A file opened for writing that takes `room` bytes, then fails as
    a full disk does, after writing what fits."""

    def __init__(self, fh, room):
        self._fh, self._room = fh, room

    def write(self, data):
        data = bytes(data)
        if len(data) > self._room:
            self._fh.write(data[:self._room])
            raise OSError(errno.ENOSPC, "No space left on device")
        self._room -= len(data)
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.mark.parametrize("fmt", ["binary", "csv"])
def test_cli_simulate_that_fails_mid_write_leaves_no_event_file(
        tmp_path, monkeypatch, capsys, fmt):
    def filling_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return _FillingFile(fh, 20_000) if "w" in mode else fh

    monkeypatch.setattr(events_io, "open", filling_open, raising=False)
    scn = _write_scenario(tmp_path / "s.json", _scenario_dict(n_shots=5000))
    made = tmp_path / "new" / "dir"
    assert main(["simulate", scn, "-o", str(made), "--format", fmt]) == 3
    assert "No space left on device" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()
    kept = tmp_path / "kept"
    kept.mkdir()
    assert main(["simulate", scn, "-o", str(kept), "--format", fmt]) == 3
    assert list(kept.iterdir()) == []


@pytest.mark.parametrize("delays, index, rule", [
    ([1e-9, 20e-9], 1, "below rep_period_s"),
    ([0.0, 1e-9], 0, "finite and > 0"),
    ([1e-9, 0.0], 1, "finite and > 0"),
    ([20e-9], 0, "below rep_period_s"),
])
def test_delay_sweep_refuses_a_bad_delay_under_its_index(
        tmp_path, capsys, delays, index, rule):
    # every delay of the list is checked when the scenario is read, the
    # first included, and the refusal names the delay's field path
    d = _scenario_dict("pulsed_2pc", pulse_delay_s=delays)
    path = rf"^protocol\.pulse_delay_s\[{index}\]: "
    with pytest.raises(ConfigError, match=path + f".*{re.escape(rule)}"):
        Scenario.from_dict(d)
    scn = _write_scenario(tmp_path / "s.json", d)
    out = tmp_path / "new" / "dir"
    assert main(["simulate", scn, "-o", str(out)]) == 2
    assert f"protocol.pulse_delay_s[{index}]" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_cli_simulate_that_fails_leaves_no_directory(tmp_path, capsys):
    scn = _write_scenario(tmp_path / "s.json", _scenario_dict(n_shots=2000))
    out = tmp_path / "new" / "dir"
    assert main(["simulate", scn, "-o", str(out), "--workers", "0"]) == 2
    assert "worker count" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("analysis", ["lifetime", "zero_field",
                                      "lifetime_field", "cw", "pulsed",
                                      "delay_sweep"])
def test_cli_analyze_prints_a_wrote_line_for_every_file_it_writes(
        tmp_path, capsys, analysis_files, analysis):
    # whatever the exit code (these small files leave some fits without
    # enough bins), the `wrote` lines name exactly the files written
    out = tmp_path / "out"
    main(["analyze", *analysis_files[analysis], "-o", str(out)])
    wrote = [line.removeprefix("wrote ")
             for line in capsys.readouterr().out.splitlines()
             if line.startswith("wrote ")]
    assert sorted(wrote) == sorted(str(p) for p in out.iterdir())
    assert len(set(wrote)) == len(wrote)


@pytest.mark.parametrize("analysis, kind", [
    ("cw", "cw_g2"), ("lifetime_field", "lifetime"),
    ("zero_field", "docp_zero_field"),
])
def test_cli_analyze_takes_one_file_of_a_kind_without_sweeps(
        tmp_path, capsys, analysis_files, analysis, kind):
    # two files with one header are a sweep only for pulsed files
    [path] = analysis_files[analysis]
    out = tmp_path / "out"
    assert main(["analyze", path, path, "-o", str(out)]) == 2
    assert f"{kind} analysis takes exactly one file" in \
        capsys.readouterr().err
    assert not out.exists()


def _readme_value(text):
    """A value of the README analysis table's last column: seconds for
    `N ps` / `N ns` or `[lo, hi] ps`, a string for a quoted name, and
    None for prose (a default worked out from the run)."""
    unit = {"ps": 1e-12, "ns": 1e-9}
    number = re.fullmatch(r"([\d.]+) (ps|ns)", text)
    pair = re.fullmatch(r"\[([\d.]+), ([\d.]+)\] (ps|ns)", text)
    name = re.fullmatch(r"`(\w+)`", text)
    if number:
        return float(number[1]) * unit[number[2]]
    if pair:
        return (float(pair[1]) * unit[pair[3]], float(pair[2]) * unit[pair[3]])
    return name[1] if name else None


def _same_value(a, b) -> bool:
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same_value, a, b))
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12)
    return a == b


def test_readme_analysis_table_matches_the_cli_table():
    # each row of the README's analysis table names the option paths its
    # analysis reads and their defaults as `cli._ANALYSES` holds them
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    head = "| analysis | reads | default when unset |"
    assert readme.count(head) == 1
    lines = readme[readme.index(head):].splitlines()[2:]
    rows = [[c.strip() for c in line.strip("|").split("|")]
            for line in itertools.takewhile(lambda l: l.startswith("|"),
                                            lines)]
    assert sorted(re.match(r"`([^`]+)`", r[0])[1] for r in rows) == \
        sorted(cli._ANALYSES)
    for name_cell, reads_cell, defaults_cell in rows:
        name = re.match(r"`([^`]+)`", name_cell)[1]
        _, reads, _ = cli._ANALYSES[name]
        listed = {p.removesuffix(".*") for p in re.findall(r"`([^`]+)`",
                                                           reads_cell)}
        assert listed == {p for p in reads
                          if p.partition(".")[0] == p
                          or p.partition(".")[0] not in reads}, name
        defaults = dict(re.fullmatch(r"`([^`]+)`: (.+)", d.strip()).groups()
                        for d in defaults_cell.split(";"))
        documented = {p: _readme_value(v) for p, v in defaults.items()}
        assert set(documented) <= set(reads), name
        assert {p for p, v in documented.items() if v is not None} == \
            {p for p, v in reads.items() if v is not None}, name
        for path, value in documented.items():
            assert _same_value(value, reads[path]), (name, path)
