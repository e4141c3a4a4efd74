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
from trionsim.montecarlo import ProtocolConfig, run

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


def _edit_header(path, fmt, edit, sign=True):
    """Rewrite the header block of an event file through `edit(header)`,
    then sign the new bytes, or keep the old trailer if `sign` is false."""
    blob = path.read_bytes()
    blob, trailer = blob[:-_TRAILER_LEN], blob[-_TRAILER_LEN:]
    if fmt == "binary":
        end = blob.index(b"\n", len(MAGIC))
        header = json.loads(blob[len(MAGIC):end])
        edit(header)
        blob = MAGIC + json.dumps(header).encode() + blob[end:]
    else:
        first, *rest = blob.decode().splitlines(keepends=True)
        header = {}
        for line in rest:
            if line.startswith("# "):
                key, _, value = line[2:].partition(" = ")
                header[key] = json.loads(value)
        edit(header)
        blob = (first
                + "".join(f"# {k} = {json.dumps(v)}\n"
                          for k, v in header.items())
                + "".join(x for x in rest if not x.startswith("#"))).encode()
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
             "config.pump_rate_hz: not used by lifetime")):
        path = tmp_path / f"events.{fmt}"
        write_events(path, stream, fmt=fmt)
        _edit_header(path, fmt, edit, sign=edit is not _change_g_e)
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
        _edit_header(path, fmt, edit, sign=False)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["analyze", str(path), "-o", str(path.parent / "out")])
    assert code == 3, (change, err.getvalue())
    assert err.getvalue().startswith("i/o error: ")
    assert "Traceback" not in err.getvalue()

