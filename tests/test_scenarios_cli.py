"""Scenario schema strictness and command-line exit-code contract."""

import itertools
import json
import math
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from trionsim import cli
from trionsim.cli import main
from trionsim.core import MU_B_EV_PER_T
from trionsim.events_io import read_events
from trionsim.rng import derive_seed
from trionsim.scenarios import ConfigError, Scenario, load_scenario


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
    with pytest.raises(ConfigError, match="only valid for pulsed_2pc"):
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
    stream = read_events(tmp_path / "a" / "events.bin")
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
        stream = read_events(tmp_path / f"events_{label}.bin")
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
