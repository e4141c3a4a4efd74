"""Event stream files, format 2: packed binary or CSV, each signed.

Binary: a magic line, one canonical JSON line of the `config`, `device`
and `diagnostics` blocks, then little-endian records (u32 shot, u8
channel, u8 projection, f64 time in s).  CSV: a magic line, a `# key =
json` line per block, the column line, one row per event.  Both end in
`# sha256 = <64 hex>\n` over every byte before it, checked before any
parsing, and round-trip bit-exactly.  Format-1 files are refused.

`write_events` is the one writer: it writes a stream's records a block
at a time, under a temporary name that replaces the file once it is
signed.  `read_events` is the one reader: it checks the trailer and the
header, and hands out the records in checked blocks of whole shots, so
that a reader holds one block of a file at a time.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import re
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .core import ConfigError, DeviceParams, check_keys
from .montecarlo import EVENT_DTYPE, EventStream, ProtocolConfig

MAGIC = b"TRIONSIM-EVENTS 2\n"
_CSV_MAGIC = b"# trionsim-events 2\n"

_CSV_COLUMNS = b"shot,channel,projection,time_s\n"
_CSV_ROW = "%d,%d,%d,%.17g\n"
_CSV_CHUNK = 2048  # rows formatted per call

_CHECK_BLOCK = 65536  # binary records read and checked per block
_CSV_BLOCK = 8192  # CSV lines parsed and checked per block

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


def _write_signed(path, parts) -> None:
    """Write each bytes-like part, then the trailer that signs them all,
    to a temporary name beside `path` that replaces `path` once the
    trailer is written, so a write that fails leaves no file there."""
    path = Path(path)
    part_path = path.with_name(f".{path.name}.{os.getpid()}.part")
    digest = hashlib.sha256()
    try:
        with open(part_path, "wb") as fh:
            for part in parts:
                digest.update(part)
                fh.write(part)
            fh.write(_TRAILER.format(digest.hexdigest()).encode())
        os.replace(part_path, path)
    except BaseException:
        part_path.unlink(missing_ok=True)
        raise


def _csv_rows(blocks):
    """The CSV rows of each block of records, _CSV_CHUNK rows per part."""
    for block in blocks:
        for start in range(0, block.size, _CSV_CHUNK):
            rows = block[start:start + _CSV_CHUNK].tolist()
            yield (_CSV_ROW * len(rows) % tuple(chain(*rows))).encode()


def write_events(path, stream: EventStream, fmt: str = "binary") -> None:
    """Write a stream as a signed event file of format `fmt`: the magic,
    the header (the stream's `diagnostics` are complete by then), the
    records one block of `stream.blocks()` at a time, and the trailer."""
    header = {"config": stream.config.to_dict(),
              "device": stream.device.to_dict(),
              "diagnostics": stream.diagnostics}
    if fmt == "binary":
        head = (MAGIC, _canonical(header).encode() + b"\n")
        body = stream.blocks()
    elif fmt == "csv":
        head = (_CSV_MAGIC,
                *(f"# {key} = {_canonical(block)}\n".encode()
                  for key, block in sorted(header.items())),
                _CSV_COLUMNS)
        body = _csv_rows(stream.blocks())
    else:
        raise ValueError(f"unknown event file format {fmt!r}")
    _write_signed(path, chain(head, body))


class EventFileError(ValueError):
    """An event file that cannot be read, or whose header or records do
    not check out; the message names the file."""


class EventFile:
    """An event file whose trailer and header check out: its `device`,
    `config` and `diagnostics`, and its records, which `blocks` reads
    once.  `content_digest` is None until the last block is out.  The
    file stays open until its last block is out, or until a `with` block
    on it ends."""

    def __init__(self, fh, binary, end, name, header):
        self._fh, self._binary, self._end, self._name = fh, binary, end, name
        self.device, self.config, self.diagnostics = header
        self.content_digest = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def blocks(self):
        """Yield the records in blocks of whole shots, in file order; the
        last block may be empty.

        Each raw read is checked against the header (`_check_records`),
        from the record before it on, before any of it is yielded.  The
        records of a shot that a read splits are held back for the next
        block.  `content_digest` is then the sha256 of all the records,
        as `EventStream.content_digest` is of a stream's.
        """
        digest = hashlib.sha256()
        carry = np.zeros(0, dtype=EVENT_DTYPE)
        read = 0    # records read
        with self._fh:
            for raw in self._reads():
                digest.update(raw)
                data = np.concatenate((carry, raw))
                _check_records(data, read - carry.size, self.config,
                               self._name)
                read += raw.size
                cut = int(np.searchsorted(data["shot"], data["shot"][-1]))
                if cut:
                    yield data[:cut]
                carry = data[cut:]
        self.content_digest = digest.hexdigest()
        yield carry

    def _reads(self):
        """The records, _CHECK_BLOCK at a time (binary) or parsed from
        _CSV_BLOCK lines at a time (CSV), never an empty read."""
        fh, end = self._fh, self._end
        if self._binary:
            n = (end - fh.tell()) // EVENT_DTYPE.itemsize
            for lo in range(0, n, _CHECK_BLOCK):
                yield np.fromfile(fh, dtype=EVENT_DTYPE,
                                  count=min(_CHECK_BLOCK, n - lo))
            return
        rows = 0
        while fh.tell() < end:
            lines = list(islice(fh, _CSV_BLOCK))
            past = fh.tell() - end
            if past > 0:   # the trailer, in the last line read
                lines[-1] = lines[-1][:-past]
            try:
                block = np.loadtxt(lines, dtype=EVENT_DTYPE, delimiter=",",
                                   ndmin=1)
            except ValueError as exc:
                raise EventFileError(
                    f"{self._name}: unreadable body "
                    f"({_renumbered(exc, rows)})") from exc
            rows += block.size
            if block.size:
                yield block


def _renumbered(exc, rows) -> str:
    """The message of a `loadtxt` error in a block, its row numbers
    counted from the first data row of the file, past `rows` rows of
    earlier blocks, as a parse of the whole body gives them."""
    return re.sub(r"\bat row (\d+)",
                  lambda m: f"at row {int(m[1]) + rows}", str(exc))


def read_events(path) -> EventFile:
    """Open an event file of either format once its trailer checks out,
    and parse and check its header; the records are read by
    `EventFile.blocks`."""
    fh = open(path, "rb")
    try:
        magic = fh.readline(len(_CSV_MAGIC))
        if magic in (b"TRIONSIM-EVENTS 1\n", b"# trionsim-events 1\n"):
            raise EventFileError(
                f"{path}: event file format 1 is no longer read; "
                f"regenerate it with `trionsim simulate`")
        if magic not in (MAGIC, _CSV_MAGIC):
            raise EventFileError(f"{path}: not an event stream file")
        end = _signed_length(fh, path)
        fh.seek(len(magic))
        try:
            header = _parse_header(fh, magic == MAGIC, end)
        except ValueError as exc:
            raise EventFileError(f"{path}: unreadable body ({exc})") from exc
        return EventFile(fh, magic == MAGIC, end, path,
                         _assemble(header, path))
    except BaseException:
        fh.close()
        raise


def _signed_length(fh, path) -> int:
    """Length of the file before its trailer, once the trailer holds the
    sha256 of all those bytes (streamed a block at a time)."""
    end = fh.seek(0, io.SEEK_END) - _TRAILER_LEN
    digest = hashlib.sha256()
    fh.seek(0)
    while fh.tell() < end:
        digest.update(fh.read(min(1 << 20, end - fh.tell())))
    if end < 0 or fh.read() != _TRAILER.format(digest.hexdigest()).encode():
        raise EventFileError(f"{path}: corrupt or truncated "
                             f"(digest mismatch)")
    return end


def _parse_header(fh, binary, end) -> dict:
    """The header of a checked file, leaving `fh` at its first record."""
    if binary:
        header = json.loads(fh.readline())
        if (end - fh.tell()) % EVENT_DTYPE.itemsize or fh.tell() > end:
            raise ValueError("not a whole number of records")
        return header
    header, line = {}, fh.readline()
    while line.startswith(b"# "):
        key, _, value = line[2:].partition(b" = ")
        header[key.decode()] = json.loads(value)
        line = fh.readline()
    if line != _CSV_COLUMNS:
        raise ValueError("no column line")
    return header


def _assemble(header: dict, name) -> tuple:
    """The device, config and diagnostics of a header, once every key
    checks against the schema scenario files use."""
    try:
        check_keys(header, "$", ("config", "device", "diagnostics"))
        if not isinstance(header["diagnostics"], dict):
            raise ConfigError("$.diagnostics: expected an object")
        device = DeviceParams.from_dict(header["device"], "device")
        config = ProtocolConfig.from_dict(header["config"], "config")
        # a block must be exactly what its writer stores, so that a
        # dropped key or a re-typed value is not read back as a default
        for key, block in (("config", config), ("device", device)):
            if _canonical(header[key]) != _canonical(block.to_dict()):
                raise ConfigError(f"{key}: not as written")
    except ConfigError as exc:
        raise EventFileError(f"{name}: malformed header ({exc})") from exc
    return device, config, header["diagnostics"]


def _check_records(events, first, config, name) -> None:
    """Refuse the first of `events`, records `first` on of the file, that
    its header rules out: a shot past `n_shots`, a (channel, projection)
    that is not a channel of `det_pols` and one of its labels, a time that
    is not finite or is before its shot's start (or, for cw, past its
    segment's end), or a record out of (shot, time) order with the one
    before it.

    A shot starts at shot * stride_s, the engine's own expression, so that
    start + tau never rounds below it.  A cw segment ends at start +
    `segment_s`; the engine records only t < segment_s, and start + t
    never rounds above that end.  Other kinds have no `segment_s`: a decay
    delay may carry a photon past the next shot's start.
    """
    # allowed[256 * channel + projection]
    allowed = np.zeros(256 * 256, dtype=bool)
    for ch, pols in enumerate(config.det_pols):
        allowed[[256 * ch + int(p) for p in pols]] = True
    # aligned copies of the packed fields, which the checks read often
    shot = events["shot"].astype(np.int64)
    time = events["time"].copy()
    later = np.zeros(events.size, dtype=bool)
    later[1:] = (shot[1:] < shot[:-1]) | (
        (shot[1:] == shot[:-1]) & (time[1:] < time[:-1]))
    checks = [
        (shot >= config.n_shots, f"shot past n_shots = {config.n_shots}"),
        (~allowed.take(256 * events["channel"].astype(np.intp)
                       + events["projection"]),
         "channel or projection not in det_pols"),
        (~np.isfinite(time), "time not finite"),
        (time < shot * config.stride_s, "time before its shot's start"),
        (later, "out of (shot, time) order"),
    ]
    if config.segment_s is not None:
        checks.append((time > shot * config.stride_s + config.segment_s,
                       "time past its segment's end"))
    bad = np.zeros(events.size, dtype=bool)
    for mask, _ in checks:
        bad |= mask
    if bad.any():
        k = int(np.argmax(bad))
        reason = next(why for mask, why in checks if mask[k])
        rec = events[k]
        raise EventFileError(
            f"{name}: record {first + k} (shot {rec['shot']}, channel "
            f"{rec['channel']}, projection {rec['projection']}, time "
            f"{rec['time']:.17g} s): {reason}")
