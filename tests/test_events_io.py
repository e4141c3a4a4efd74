"""Event file formats: exact round trips, layout, and corruption checks."""

import contextlib
import hashlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trionsim.cli import main
from trionsim.core import DeviceParams, NoiseModel
from trionsim.events_io import (
    MAGIC,
    compat_digest,
    read_events,
    write_events,
    write_events_binary,
    write_events_csv,
)
from trionsim.montecarlo import EVENT_DTYPE, ProtocolConfig, run

# "# sha256 = <64 hex>\n", the last line of every event file
_TRAILER_LEN = len("# sha256 = \n") + 64


def _device(**kw):
    base = dict(g_e=2.09, g_h=0.362, t1_s=300e-12, p_mem=0.865, b_x_t=0.15,
                noise=NoiseModel.quiet())
    base.update(kw)
    return DeviceParams(**base)


@pytest.fixture(scope="module")
def stream():
    return run(_device(), ProtocolConfig.lifetime(2000, rng_seed=11))


def _assert_streams_equal(a, b):
    assert np.array_equal(a.events, b.events)
    assert a.device.to_dict() == b.device.to_dict()
    assert a.config.to_dict() == b.config.to_dict()
    assert a.diagnostics == b.diagnostics
    assert a.content_digest == b.content_digest


def test_binary_round_trip_exact(tmp_path, stream):
    path = tmp_path / "events.bin"
    write_events_binary(path, stream)
    _assert_streams_equal(read_events(path), stream)


def test_csv_round_trip_exact(tmp_path, stream):
    path = tmp_path / "events.csv"
    write_events_csv(path, stream)
    _assert_streams_equal(read_events(path), stream)


def test_read_events_detects_format(tmp_path, stream):
    write_events(tmp_path / "a.bin", stream, fmt="binary")
    write_events(tmp_path / "a.csv", stream, fmt="csv")
    _assert_streams_equal(read_events(tmp_path / "a.bin"), stream)
    _assert_streams_equal(read_events(tmp_path / "a.csv"), stream)
    with pytest.raises(ValueError):
        write_events(tmp_path / "a.xyz", stream, fmt="xyz")


def test_binary_payload_layout(tmp_path, stream):
    # magic line, one JSON header line, then packed 14-byte records:
    # u32 shot, u8 channel, u8 projection, f64 time, all little endian,
    # then a trailer line with the sha256 of every byte before it
    path = tmp_path / "events.bin"
    write_events_binary(path, stream)
    blob = path.read_bytes()
    blob, trailer = blob[:-_TRAILER_LEN], blob[-_TRAILER_LEN:]
    assert blob.startswith(MAGIC)
    digest = hashlib.sha256(blob).hexdigest()
    assert trailer == f"# sha256 = {digest}\n".encode()
    payload = blob[blob.index(b"\n", len(MAGIC)) + 1:]
    assert len(payload) == 14 * len(stream)
    records = np.frombuffer(
        payload,
        dtype=[("shot", "<u4"), ("channel", "u1"), ("projection", "u1"),
               ("time", "<f8")],
    )
    assert np.array_equal(records["shot"], stream.events["shot"])
    assert np.array_equal(records["channel"], stream.events["channel"])
    assert np.array_equal(records["projection"], stream.events["projection"])
    assert np.array_equal(records["time"], stream.events["time"])


def test_corrupt_payload_rejected(tmp_path, stream):
    path = tmp_path / "events.bin"
    write_events_binary(path, stream)
    blob = bytearray(path.read_bytes())
    blob[-_TRAILER_LEN - 3] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="digest mismatch"):
        read_events(path)


def test_truncated_payload_rejected(tmp_path, stream):
    path = tmp_path / "events.bin"
    write_events_binary(path, stream)
    blob = path.read_bytes()
    path.write_bytes(blob[:-14])
    with pytest.raises(ValueError, match="corrupt or truncated"):
        read_events(path)


def test_foreign_file_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_text("not,an,event,file\n1,2,3,4\n")
    with pytest.raises(ValueError, match="not an event stream file"):
        read_events(path)


@pytest.mark.parametrize("magic", ["TRIONSIM-EVENTS 1\n",
                                   "# trionsim-events 1\n"])
def test_format_1_file_exits_3(tmp_path, magic, capsys):
    path = tmp_path / "old.events"
    path.write_text(magic + '{"n_events":0}\n')
    assert main(["analyze", str(path), "-o", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and "format 1" in err
    assert "Traceback" not in err


def test_compat_digest_ignores_run_only_fields():
    dev = _device()
    base = ProtocolConfig.pulsed(10_000, rng_seed=1, pulse_delay_s=1.0e-9)
    retake = ProtocolConfig.pulsed(50_000, rng_seed=99, pulse_delay_s=4.2e-9)
    assert compat_digest(dev, base) == compat_digest(dev, retake)

    other_field = ProtocolConfig.pulsed(10_000, rng_seed=1,
                                        pulse_delay_s=1.0e-9,
                                        rep_period_s=25e-9)
    assert compat_digest(dev, base) != compat_digest(dev, other_field)
    assert compat_digest(_device(g_e=2.10), base) != compat_digest(dev, base)


def test_empty_stream_round_trips(tmp_path):
    # detection_efficiency cannot be zero, so make a legal stream and
    # empty it by hand; digests are recomputed from the event array
    full = run(_device(), ProtocolConfig.lifetime(100, rng_seed=5))
    empty = type(full)(events=full.events[:0].copy(), device=full.device,
                       config=full.config, diagnostics=full.diagnostics)
    for fmt, name in (("binary", "e.bin"), ("csv", "e.csv")):
        path = tmp_path / name
        write_events(path, empty, fmt=fmt)
        back = read_events(path)
        assert len(back) == 0
        assert back.content_digest == empty.content_digest


def _edit_file(path, fmt, header=None, records=None, sign=True):
    """Rewrite the header block of an event file through `header(header)`
    and its records through `records(events)`, either edit in place,
    then sign the new bytes, or keep the old trailer if `sign` is false."""
    blob = path.read_bytes()
    blob, trailer = blob[:-_TRAILER_LEN], blob[-_TRAILER_LEN:]
    if fmt == "binary":
        end = blob.index(b"\n", len(MAGIC))
        head = json.loads(blob[len(MAGIC):end])
        events = np.frombuffer(blob[end + 1:], dtype=EVENT_DTYPE).copy()
    else:
        first, *rest = blob.decode().splitlines(keepends=True)
        head = {}
        for line in rest:
            if line.startswith("# "):
                key, _, value = line[2:].partition(" = ")
                head[key] = json.loads(value)
        columns, *rows = (x for x in rest if not x.startswith("#"))
        events = np.loadtxt(io.StringIO("".join(rows)), dtype=EVENT_DTYPE,
                            delimiter=",", ndmin=1)
    if header:
        header(head)
    if records:
        records(events)
    if fmt == "binary":
        blob = MAGIC + json.dumps(head).encode() + b"\n" + events.tobytes()
    else:
        blob = (first
                + "".join(f"# {k} = {json.dumps(v)}\n"
                          for k, v in head.items())
                + columns
                + "".join("%d,%d,%d,%.17g\n" % tuple(r)
                          for r in events.tolist())).encode()
    if sign:
        trailer = f"# sha256 = {hashlib.sha256(blob).hexdigest()}\n".encode()
    path.write_bytes(blob + trailer)


def _drop_diagnostics(header):
    del header["diagnostics"]


def _mistype_g_e(header):
    header["device"]["g_e"] = "fast"


def _change_g_e(header):
    header["device"]["g_e"] = 9.99


def _set(path, value):
    """Header edit that sets the dotted key `path` to `value`."""
    *blocks, key = path.split(".")

    def edit(header):
        for block in blocks:
            header = header[block]
        header[key] = value
    return edit


@pytest.mark.parametrize("fmt", ["binary", "csv"])
def test_tampered_header_rejected(tmp_path, stream, fmt, capsys):
    # a missing, unknown or ill-typed key in a re-signed file and an
    # edited physics block in an unsigned one are all refused with the
    # file named, and `analyze` exits 3 (i/o failure)
    for edit, message in (
            (_drop_diagnostics, "malformed header"),
            (_set("n_events", 2000), "$.n_events: unknown key"),
            (_mistype_g_e, "malformed header"),
            (_change_g_e, "digest mismatch"),
            (_set("device.g_e", "2.09"), "device.g_e: expected a number"),
            (_set("config.n_shots", 2000.7),
             "config.n_shots: expected an integer"),
            (_set("device.colour", "red"), "device.colour: unknown key"),
            (_set("config.detection_efficiency", True),
             "config.detection_efficiency: expected a number"),
            (_set("config.exc_pols", ["X"]),
             "config.exc_pols[0]: expected one of"),
            (_set("config.pulse_delay_s", 5e-9),
             "config.pulse_delay_s: not used by lifetime"),
            (_set("config.pump_rate_hz", 1e7),
             "config.pump_rate_hz: not used by lifetime"),
            (_set("config.segment_length_s", 1.0),
             "config.segment_length_s: not used by lifetime")):
        path = tmp_path / f"events.{fmt}"
        write_events(path, stream, fmt=fmt)
        _edit_file(path, fmt, header=edit, sign=edit is not _change_g_e)
        with pytest.raises(ValueError, match=re.escape(message)) as info:
            read_events(path)
        assert str(path) in str(info.value)
        assert main(["analyze", str(path), "-o", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


def _wrong_types(value):
    """JSON values of a type that cannot stand where `value` does; a null
    optional field would take a default the writer did not store."""
    if isinstance(value, dict):
        return [[], "x", 1.5, None]
    if isinstance(value, list):
        return ["R", 1.5, {}, None]
    if isinstance(value, str):
        return [1.5, True, [], None]
    if isinstance(value, int):
        return [float(value), value + 0.5, str(value), True, None]
    if isinstance(value, float):
        return [int(value), str(value), True, [], None]
    return ["x", True, [], {}]


# header blocks whose keys are damaged
_BLOCKS = ((), ("device",), ("device", "noise"), ("config",),
           ("diagnostics",))


def _header_block(header, names):
    for name in names:
        header = header[name]
    return header


_base_files = {}


def _base_file(stream, fmt, tmp_path_factory):
    if fmt not in _base_files:
        path = tmp_path_factory.mktemp("base") / f"events.{fmt}"
        write_events(path, stream, fmt=fmt)
        _base_files[fmt] = path.read_bytes()
    return _base_files[fmt]


@pytest.mark.parametrize("fmt", ["binary", "csv"])
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_damaged_event_file_exits_3(stream, fmt, tmp_path_factory, data):
    """Truncation at any offset, any byte flipped by any mask, or a
    deleted or re-typed header key left unsigned: `analyze` exits 3 and
    prints no traceback."""
    blob = _base_file(stream, fmt, tmp_path_factory)
    path = tmp_path_factory.mktemp("damaged") / f"events.{fmt}"
    path.write_bytes(blob)
    change = data.draw(st.sampled_from(
        ["truncate", "flip", "delete", "retype"]))
    if change == "truncate":
        path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
    elif change == "flip":
        damaged = bytearray(blob)
        damaged[data.draw(st.integers(0, len(blob) - 1))] ^= \
            data.draw(st.integers(1, 255))
        path.write_bytes(bytes(damaged))
    else:
        def edit(header):
            block = _header_block(header, data.draw(st.sampled_from(_BLOCKS)))
            key = data.draw(st.sampled_from(sorted(block)))
            if change == "delete":
                del block[key]
            else:
                block[key] = data.draw(st.sampled_from(
                    _wrong_types(block[key])))
        _edit_file(path, fmt, header=edit, sign=False)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["analyze", str(path), "-o", str(path.parent / "out")])
    assert code == 3, (change, err.getvalue())
    assert err.getvalue().startswith("i/o error: ")
    assert "Traceback" not in err.getvalue()



def _set_record(k, field, value):
    def edit(events):
        events[field][k] = value
    return edit


def _reverse(events):
    events[:] = events[::-1].copy()


def _swap(k):
    def edit(events):
        events[[k, k + 1]] = events[[k + 1, k]]
    return edit


_RUNS = {
    "pulsed": (_device(),
               ProtocolConfig.pulsed(2000, 3, pulse_delay_s=1.6e-9)),
    "cw": (_device(b_x_t=0.0375, g_h=0.35),
           ProtocolConfig.cw(16, 7, pump_rate_hz=1e7, segment_length_s=2e-6)),
    # one record per shot, over two blocks of the record check
    "lifetime": (_device(), ProtocolConfig.lifetime(70_000, 4)),
}

def _into_dead_half(k):
    """Move record k of the cw run past its segment's end, before the
    next segment's start."""
    config = _RUNS["cw"][1]

    def edit(events):
        events["time"][k] = (float(events["shot"][k]) * config.stride_s
                             + 1.5 * config.segment_length_s)
    return edit


# (run, record edit, the record refused, what the message says of it)
_RECORD_EDITS = {
    "pulsed_shot_4e9": ("pulsed", _set_record(5, "shot", 4e9), 5,
                        "shot past n_shots"),
    "cw_channel_7": ("cw", _set_record(5, "channel", 7), 5,
                     "channel or projection not in det_pols"),
    "cw_projection_200": ("cw", _set_record(5, "projection", 200), 5,
                          "channel or projection not in det_pols"),
    "cw_time_nan": ("cw", _set_record(5, "time", np.nan), 5,
                    "time not finite"),
    "cw_time_1e300": ("cw", _set_record(5, "time", 1e300), 5,
                      "time past its segment's end"),
    "cw_time_in_dead_half": ("cw", _into_dead_half(5), 5,
                             "time past its segment's end"),
    "cw_time_before_start": ("cw", _set_record(0, "time", -1e-9), 0,
                             "time before its shot's start"),
    "cw_shot_past_n_shots": ("cw", _set_record(5, "shot", 16), 5,
                             "shot past n_shots"),
    "cw_reversed": ("cw", _reverse, 1, "out of (shot, time) order"),
    "cw_swap": ("cw", _swap(5), 6, "out of (shot, time) order"),
    "lifetime_swap_across_blocks": ("lifetime", _swap(65535), 65536,
                                    "out of (shot, time) order"),
}


@pytest.mark.parametrize("fmt", ["binary", "csv"])
@pytest.mark.parametrize("case", sorted(_RECORD_EDITS))
def test_resigned_record_edit_exits_3(tmp_path, fmt, case, capsys):
    """A record that its header rules out, or one out of (shot, time)
    order, in a re-signed file: `analyze` exits 3 and names the record."""
    kind, edit, k, reason = _RECORD_EDITS[case]
    path = tmp_path / f"events.{fmt}"
    write_events(path, run(*_RUNS[kind]), fmt=fmt)
    _edit_file(path, fmt, records=edit)
    assert main(["analyze", str(path), "-o", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"i/o error: {path}: record {k} ")
    assert reason in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fmt", ["binary", "csv"])
def test_simulated_files_read_back(tmp_path, fmt):
    """Every kind of file `simulate` writes reads back as `run` made it,
    a lifetime run with t1_s = rep_period_s too: over a third of its
    photons land past the next shot's start, and only cw times are
    bounded by their shot's stride."""
    rep = 12.5e-9
    cases = dict(_RUNS, lifetime=(_device(t1_s=rep),
                                  ProtocolConfig.lifetime(3000, 9)))
    for name, (device, config) in cases.items():
        scenario = tmp_path / f"{name}.json"
        scenario.write_text(json.dumps({
            "device": device.to_dict(), "protocol": config.to_dict(),
            "outputs": {"format": fmt, "prefix": f"{name}_"}}))
        assert main(["simulate", str(scenario), "-o", str(tmp_path)]) == 0
        ext = "bin" if fmt == "binary" else "csv"
        back = read_events(tmp_path / f"{name}_events.{ext}")
        _assert_streams_equal(back, run(device, config))
        if name == "lifetime":
            late = back.events["time"] >= (back.events["shot"] + 1.0) * rep
            assert np.count_nonzero(late) > 0.3 * len(back)
