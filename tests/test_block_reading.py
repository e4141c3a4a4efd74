"""`analyze` reads an event file a block of whole shots at a time: the
outputs do not depend on where the raw reads end, and a bad record is
refused by its index in the file wherever its block falls."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from trionsim import events_io
from trionsim.cli import main
from trionsim.montecarlo import EVENT_DTYPE

# "# sha256 = <64 hex>\n", the last line of every event file
_TRAILER_LEN = len("# sha256 = \n") + 64

_DEVICE = {"g_e": 2.09, "g_h": 0.362, "t1_s": 3e-10, "p_mem": 0.865,
           "b_x_t": 0.15,
           "noise": {"kind": "lorentzian_jitter", "width_hz": 2e7,
                     "applies_to": "ground"}}
# each kind's protocol block; a few hundred to a few thousand records
_PROTOCOLS = {
    "lifetime": {"kind": "lifetime", "n_shots": 3000, "rng_seed": 3},
    "zero_field": {"kind": "docp_zero_field", "n_shots": 3000,
                   "rng_seed": 4},
    "cw": {"kind": "cw_g2", "n_shots": 48, "rng_seed": 5,
           "pump_rate_hz": 1e7},
    "pulsed": {"kind": "pulsed_2pc", "n_shots": 3000, "rng_seed": 6,
               "pulse_delay_s": 1.6e-9},
    "sweep": {"kind": "pulsed_2pc", "n_shots": 2000, "rng_seed": 7,
              "pulse_delay_s": [0.6e-9, 1.0e-9, 1.4e-9]},
}
# (files, analysis options) of every analysis that `analyze` runs
_ANALYSES = {
    "lifetime": ("lifetime", {}),
    "zero_field": ("zero_field", {}),
    "cw": ("cw", {}),
    "cw_start_stop": ("cw", {"start_stop": True, "normalize": False,
                             "window_s": 6e-8, "bin_s": 2e-10}),
    "pulsed": ("pulsed", {}),
    "pulsed_t1_slice_0": ("pulsed", {"t1_slice_s": 0.0}),
    "sweep": ("sweep", {}),
    "sweep_no_fit": ("sweep", {"fit": {"enabled": False}}),
}


@pytest.fixture(scope="module")
def event_files(tmp_path_factory):
    """The event files of every protocol, in both formats."""
    root = tmp_path_factory.mktemp("block_files")
    files = {}
    for fmt in ("binary", "csv"):
        for name, protocol in _PROTOCOLS.items():
            device = dict(_DEVICE, b_x_t=0.0 if name == "zero_field"
                          else 0.0375 if name == "cw" else 0.15)
            scenario = root / f"{name}.json"
            scenario.write_text(json.dumps({
                "device": device, "protocol": protocol,
                "outputs": {"format": fmt}}))
            out = root / fmt / name
            assert main(["simulate", str(scenario), "-o", str(out)]) == 0
            files[fmt, name] = sorted(str(p) for p in out.iterdir())
    return files


def _analyze(files, options, outdir, capsys):
    """(exit code, stdout with `outdir` written as OUT, {file: bytes})."""
    scenario = outdir.parent / f"{outdir.name}.json"
    scenario.write_text(json.dumps({
        "device": _DEVICE, "protocol": _PROTOCOLS["lifetime"],
        "analysis": options}))
    code = main(["analyze", *files, "-o", str(outdir),
                 "--scenario", str(scenario)])
    out = capsys.readouterr().out.replace(str(outdir), "OUT")
    return code, out, {p.name: p.read_bytes() for p in outdir.iterdir()}


def _blocks_of(monkeypatch, records):
    monkeypatch.setattr(events_io, "_CHECK_BLOCK", records)
    monkeypatch.setattr(events_io, "_CSV_BLOCK", records)


@pytest.mark.parametrize("analysis", sorted(_ANALYSES))
def test_outputs_do_not_depend_on_the_block_size(
        tmp_path, monkeypatch, capsys, event_files, analysis):
    # reads of 5 records split shots, cw segments and pulsed pairs over
    # several raw reads; the outputs of both formats must be byte for
    # byte those of one block that holds each whole file, and so are the
    # exit code and stdout (a fit of these small files may fail)
    name, options = _ANALYSES[analysis]
    _blocks_of(monkeypatch, 10 ** 9)
    whole = _analyze(event_files["binary", name], options,
                     tmp_path / "whole", capsys)
    assert whole[2]
    _blocks_of(monkeypatch, 5)
    for fmt in ("binary", "csv"):
        assert _analyze(event_files[fmt, name], options, tmp_path / fmt,
                        capsys) == whole, fmt


def _set_last_time(path, fmt, time):
    """Set the time of the last record of an event file to `time`, and
    sign the new bytes."""
    blob = path.read_bytes()[:-_TRAILER_LEN]
    if fmt == "binary":
        last = np.frombuffer(blob[-EVENT_DTYPE.itemsize:],
                             dtype=EVENT_DTYPE).copy()
        last["time"] = time
        blob = blob[:-EVENT_DTYPE.itemsize] + last.tobytes()
    else:
        head, _, row = blob[:-1].rpartition(b"\n")
        shot, channel, projection, _ = row.split(b",")
        blob = head + b"\n" + b",".join(
            (shot, channel, projection, repr(time).encode())) + b"\n"
    digest = hashlib.sha256(blob).hexdigest()
    path.write_bytes(blob + f"# sha256 = {digest}\n".encode())


@pytest.mark.parametrize("fmt", ["binary", "csv"])
def test_a_bad_record_in_the_last_block_is_refused_by_its_index(
        tmp_path, monkeypatch, capsys, event_files, fmt):
    [source] = event_files[fmt, "pulsed"]
    n = sum(block.size for block in events_io.read_events(source).blocks())
    path = tmp_path / f"events.{fmt}"
    path.write_bytes(Path(source).read_bytes())
    _set_last_time(path, fmt, float("nan"))
    _blocks_of(monkeypatch, 7)
    out = tmp_path / "out"
    assert main(["analyze", str(path), "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"i/o error: {path}: record {n - 1} ")
    assert err.rstrip().endswith("time not finite")
    assert not out.exists()


def test_a_malformed_csv_row_is_named_by_its_row_in_the_file(
        tmp_path, capsys):
    # the bad row lies past the first block that the CSV reader parses;
    # its message counts rows from the first data row of the file, as a
    # parse of the whole body does
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({
        "device": _DEVICE,
        "protocol": dict(_PROTOCOLS["lifetime"], n_shots=12_000),
        "outputs": {"format": "csv"}}))
    assert main(["simulate", str(scenario), "-o", str(tmp_path)]) == 0
    path = tmp_path / "events.csv"
    lines = path.read_bytes()[:-_TRAILER_LEN].split(b"\n")
    first = lines.index(b"shot,channel,projection,time_s") + 1
    assert len(lines) - first > 10_005
    # data row 10005, counted from 1
    shot, channel, projection, _ = lines[first + 10_004].split(b",")
    lines[first + 10_004] = b",".join((shot, channel, projection, b"abc"))
    blob = b"\n".join(lines)
    path.write_bytes(
        blob + f"# sha256 = {hashlib.sha256(blob).hexdigest()}\n".encode())
    capsys.readouterr()
    assert main(["analyze", str(path), "-o", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        f"i/o error: {path}: unreadable body (could not convert string "
        f"'abc' to float64 at row 10004, column 4.)\n")
