"""Event stream files: packed binary with a JSON header, or CSV.

Binary layout is a magic line, one line of canonical JSON carrying the
device/config/diagnostics block and digests, then raw little-endian
records (u32 shot, u8 channel, u8 projection, f64 time in seconds).
Both formats round-trip bit-exactly and are deterministic for a given
stream, so file digests are reproducible across reruns.
"""
from __future__ import annotations

import hashlib
import io
import json

import numpy as np

from .core import (ConfigError, DeviceParams, as_int, as_str,
                   check_keys)
from .montecarlo import EVENT_DTYPE, EventStream, ProtocolConfig

MAGIC = b"TRIONSIM-EVENTS 1\n"

# per-run knobs that may legitimately differ between files analyzed together
_RUN_ONLY_KEYS = ("rng_seed", "n_shots", "pulse_delay_s")

_CSV_COLUMNS = "shot,channel,projection,time_s"

_HEADER_KEYS = ("compat_digest", "config", "content_digest", "device",
                "diagnostics", "n_events")


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def compat_digest(device: DeviceParams, config: ProtocolConfig) -> str:
    """Digest of the physics-relevant header block.

    Seed, shot count, and pulse delay are excluded: a delay sweep is
    analyzed as one group, and only those fields vary across it.
    """
    cfg = config.to_dict()
    for key in _RUN_ONLY_KEYS:
        cfg.pop(key, None)
    blob = _canonical({"config": cfg, "device": device.to_dict()})
    return hashlib.sha256(blob.encode()).hexdigest()


def _header_dict(stream: EventStream) -> dict:
    return {
        "compat_digest": compat_digest(stream.device, stream.config),
        "config": stream.config.to_dict(),
        "content_digest": stream.content_digest,
        "device": stream.device.to_dict(),
        "diagnostics": stream.diagnostics,
        "n_events": int(len(stream)),
    }


def write_events(path, stream: EventStream, fmt: str = "binary") -> None:
    if fmt == "binary":
        write_events_binary(path, stream)
    elif fmt == "csv":
        write_events_csv(path, stream)
    else:
        raise ValueError(f"unknown event file format {fmt!r}")


def read_events(path) -> EventStream:
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) == MAGIC:
            return _read_binary_body(fh)
    return read_events_csv(path)


def write_events_binary(path, stream: EventStream) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_canonical(_header_dict(stream)).encode() + b"\n")
        fh.write(stream.events.tobytes())


def _read_binary_body(fh) -> EventStream:
    header = json.loads(fh.readline().decode())
    events = np.frombuffer(fh.read(), dtype=EVENT_DTYPE).copy()
    return _assemble(header, events, fh.name)


def _assemble(header: dict, events: np.ndarray, name) -> EventStream:
    """Check every header key against the schema scenario files use, and
    the payload and physics blocks against their digests."""
    try:
        check_keys(header, "$", _HEADER_KEYS)
        n_events = as_int(header["n_events"], "$.n_events")
        content = as_str(header["content_digest"], "$.content_digest")
        compat = as_str(header["compat_digest"], "$.compat_digest")
        if not isinstance(header["diagnostics"], dict):
            raise ConfigError("$.diagnostics: expected an object")
        stream = EventStream(
            events=events,
            device=DeviceParams.from_dict(header["device"], "device"),
            config=ProtocolConfig.from_dict(header["config"], "config"),
            diagnostics=header["diagnostics"],
        )
        # a block must be exactly what its writer stores, so that a
        # dropped key or a re-typed value is not read back as a default
        for key in ("config", "device"):
            if _canonical(header[key]) != \
                    _canonical(getattr(stream, key).to_dict()):
                raise ConfigError(f"{key}: not as written")
    except ConfigError as exc:
        raise ValueError(f"{name}: malformed header ({exc})") from exc
    if len(events) != n_events:
        raise ValueError(f"{name}: truncated event block")
    if stream.content_digest != content:
        raise ValueError(f"{name}: content digest mismatch (corrupt file)")
    if compat_digest(stream.device, stream.config) != compat:
        raise ValueError(f"{name}: header digest mismatch (corrupt header)")
    return stream


def write_events_csv(path, stream: EventStream) -> None:
    header = _header_dict(stream)
    with open(path, "w", newline="") as fh:
        fh.write("# trionsim-events 1\n")
        for key in sorted(header):
            fh.write(f"# {key} = {_canonical(header[key])}\n")
        fh.write(_CSV_COLUMNS + "\n")
        ev = stream.events
        for i in range(len(ev)):
            fh.write(f"{ev['shot'][i]},{ev['channel'][i]},"
                     f"{ev['projection'][i]},{ev['time'][i]:.17g}\n")


def read_events_csv(path) -> EventStream:
    header = {}
    rows = io.StringIO()
    with open(path, "r") as fh:
        line = fh.readline()
        if not line.startswith("# trionsim-events"):
            raise ValueError(f"{path}: not an event stream file")
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                header[key.strip()] = json.loads(value)
            elif line.strip() and line.strip() != _CSV_COLUMNS:
                rows.write(line)
    if not line.endswith("\n"):
        raise ValueError(f"{path}: truncated file")
    rows.seek(0)
    if rows.getvalue().strip():
        table = np.loadtxt(rows, delimiter=",", ndmin=2)
    else:
        table = np.zeros((0, 4))
    events = np.zeros(table.shape[0] if table.size else 0, dtype=EVENT_DTYPE)
    if table.size:
        events["shot"] = table[:, 0].astype(np.uint32)
        events["channel"] = table[:, 1].astype(np.uint8)
        events["projection"] = table[:, 2].astype(np.uint8)
        events["time"] = table[:, 3]
    return _assemble(header, events, path)
