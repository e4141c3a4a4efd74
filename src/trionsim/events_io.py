"""Event stream files, format 2: packed binary or CSV, each signed.

Binary: a magic line, one canonical JSON line of the `config`, `device`
and `diagnostics` blocks, then little-endian records (u32 shot, u8
channel, u8 projection, f64 time in s).  CSV: a magic line, a `# key =
json` line per block, the column line, one row per event.  Both end in
`# sha256 = <64 hex>\n` over every byte before it, checked before any
parsing, and round-trip bit-exactly.  Format-1 files are refused.
"""
from __future__ import annotations

import hashlib
import io
import json
from itertools import chain

import numpy as np

from .core import ConfigError, DeviceParams, check_keys
from .montecarlo import EVENT_DTYPE, EventStream, ProtocolConfig, ProtocolKind

MAGIC = b"TRIONSIM-EVENTS 2\n"
_CSV_MAGIC = b"# trionsim-events 2\n"

_CSV_COLUMNS = b"shot,channel,projection,time_s\n"
_CSV_ROW = "%d,%d,%d,%.17g\n"
_CSV_CHUNK = 2048  # rows formatted per call

_CHECK_BLOCK = 65536  # records checked per vectorised pass

_TRAILER = "# sha256 = {}\n"
_TRAILER_LEN = len(_TRAILER.format("0" * 64))

# per-run knobs that may legitimately differ between files analyzed together
_RUN_ONLY_KEYS = ("rng_seed", "n_shots", "pulse_delay_s")


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def compat_digest(device: DeviceParams, config: ProtocolConfig) -> str:
    """Digest of the physics-relevant header block, without the seed, shot
    count and pulse delay that vary across the files of a delay sweep."""
    cfg = config.to_dict()
    for key in _RUN_ONLY_KEYS:
        cfg.pop(key, None)
    blob = _canonical({"config": cfg, "device": device.to_dict()})
    return hashlib.sha256(blob.encode()).hexdigest()


def _header_dict(stream: EventStream) -> dict:
    return {"config": stream.config.to_dict(),
            "device": stream.device.to_dict(),
            "diagnostics": stream.diagnostics}


def _write_signed(path, parts) -> None:
    """Write each bytes-like part, then the trailer that signs them all."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for part in parts:
            digest.update(part)
            fh.write(part)
        fh.write(_TRAILER.format(digest.hexdigest()).encode())


def write_events(path, stream: EventStream, fmt: str = "binary") -> None:
    writers = {"binary": write_events_binary, "csv": write_events_csv}
    if fmt not in writers:
        raise ValueError(f"unknown event file format {fmt!r}")
    writers[fmt](path, stream)


def write_events_binary(path, stream: EventStream) -> None:
    header = _canonical(_header_dict(stream)).encode() + b"\n"
    _write_signed(path, (MAGIC, header,
                         np.ascontiguousarray(stream.events).view(np.uint8)))


def write_events_csv(path, stream: EventStream) -> None:
    def parts():
        yield _CSV_MAGIC
        for key, block in sorted(_header_dict(stream).items()):
            yield f"# {key} = {_canonical(block)}\n".encode()
        yield _CSV_COLUMNS
        for start in range(0, len(stream), _CSV_CHUNK):
            rows = stream.events[start:start + _CSV_CHUNK].tolist()
            yield (_CSV_ROW * len(rows) % tuple(chain(*rows))).encode()
    _write_signed(path, parts())


def read_events(path) -> EventStream:
    """Read an event file of either format once its trailer checks out."""
    with open(path, "rb") as fh:
        magic = fh.readline(len(_CSV_MAGIC))
        if magic in (b"TRIONSIM-EVENTS 1\n", b"# trionsim-events 1\n"):
            raise ValueError(f"{path}: event file format 1 is no longer "
                             f"read; regenerate it with `trionsim simulate`")
        if magic not in (MAGIC, _CSV_MAGIC):
            raise ValueError(f"{path}: not an event stream file")
        end = _signed_length(fh, path)
        fh.seek(len(magic))
        try:
            header, events = _parse(fh, magic == MAGIC, end)
        except ValueError as exc:
            raise ValueError(f"{path}: unreadable body ({exc})") from exc
    stream = _assemble(header, events, path)
    _check_records(stream, path)
    return stream


def _signed_length(fh, path) -> int:
    """Length of the file before its trailer, once the trailer holds the
    sha256 of all those bytes (streamed a block at a time)."""
    end = fh.seek(0, io.SEEK_END) - _TRAILER_LEN
    digest = hashlib.sha256()
    fh.seek(0)
    while fh.tell() < end:
        digest.update(fh.read(min(1 << 20, end - fh.tell())))
    if end < 0 or fh.read() != _TRAILER.format(digest.hexdigest()).encode():
        raise ValueError(f"{path}: corrupt or truncated (digest mismatch)")
    return end


def _parse(fh, binary, end):
    """Header and events of a checked file (loadtxt skips the trailer)."""
    if binary:
        header = json.loads(fh.readline())
        n, rest = divmod(end - fh.tell(), EVENT_DTYPE.itemsize)
        if n < 0 or rest:
            raise ValueError("not a whole number of records")
        return header, np.fromfile(fh, dtype=EVENT_DTYPE, count=n)
    header, line = {}, fh.readline()
    while line.startswith(b"# "):
        key, _, value = line[2:].partition(b" = ")
        header[key.decode()] = json.loads(value)
        line = fh.readline()
    if line != _CSV_COLUMNS:
        raise ValueError("no column line")
    if fh.tell() == end:
        return header, np.zeros(0, dtype=EVENT_DTYPE)
    return header, np.loadtxt(fh, dtype=EVENT_DTYPE, delimiter=",", ndmin=1)


def _assemble(header: dict, events: np.ndarray, name) -> EventStream:
    """Check every header key against the schema scenario files use."""
    try:
        check_keys(header, "$", ("config", "device", "diagnostics"))
        if not isinstance(header["diagnostics"], dict):
            raise ConfigError("$.diagnostics: expected an object")
        stream = EventStream(
            events, DeviceParams.from_dict(header["device"], "device"),
            ProtocolConfig.from_dict(header["config"], "config"),
            header["diagnostics"])
        # a block must be exactly what its writer stores, so that a
        # dropped key or a re-typed value is not read back as a default
        for key in ("config", "device"):
            if _canonical(header[key]) != \
                    _canonical(getattr(stream, key).to_dict()):
                raise ConfigError(f"{key}: not as written")
    except ConfigError as exc:
        raise ValueError(f"{name}: malformed header ({exc})") from exc
    return stream


def _check_records(stream: EventStream, name) -> None:
    """Refuse the first record that its header rules out, a block at a
    time: a shot past `n_shots`, a (channel, projection) that is not a
    channel of `det_pols` and one of its labels, a time that is not finite
    or is before its shot's start (or, for cw, at or past the next
    segment's start), or a record out of (shot, time) order.

    A shot starts at shot * stride_s, the engine's own expression, so that
    start + tau never rounds below it.  Only cw times are bounded above:
    a decay delay may carry a lifetime or pulsed photon past the next
    shot's start.
    """
    config = stream.config
    # allowed[256 * channel + projection]
    allowed = np.zeros(256 * 256, dtype=bool)
    for ch, pols in enumerate(config.det_pols):
        allowed[[256 * ch + int(p) for p in pols]] = True
    events = stream.events
    for lo in range(0, len(events), _CHECK_BLOCK):
        # from the record before the block on, for the order check
        first = max(lo - 1, 0)
        block = events[first:lo + _CHECK_BLOCK]
        # aligned copies of the packed fields, which the checks read often
        shot = block["shot"].astype(np.int64)
        time = block["time"].copy()
        later = np.zeros(block.size, dtype=bool)
        later[1:] = (shot[1:] < shot[:-1]) | (
            (shot[1:] == shot[:-1]) & (time[1:] < time[:-1]))
        checks = [
            (shot >= config.n_shots, f"shot past n_shots = {config.n_shots}"),
            (~allowed.take(256 * block["channel"].astype(np.intp)
                           + block["projection"]),
             "channel or projection not in det_pols"),
            (~np.isfinite(time), "time not finite"),
            (time < shot * config.stride_s, "time before its shot's start"),
            (later, "out of (shot, time) order"),
        ]
        if config.kind is ProtocolKind.CW_G2:
            checks.append((time >= (shot + 1.0) * config.stride_s,
                           "time past its segment's stride"))
        bad = np.zeros(block.size, dtype=bool)
        for mask, _ in checks:
            bad |= mask
        if bad.any():
            k = int(np.argmax(bad))
            reason = next(why for mask, why in checks if mask[k])
            rec = block[k]
            raise ValueError(
                f"{name}: record {first + k} (shot {rec['shot']}, channel "
                f"{rec['channel']}, projection {rec['projection']}, time "
                f"{rec['time']:.17g} s): {reason}")
