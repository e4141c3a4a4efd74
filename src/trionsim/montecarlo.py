"""Stochastic experiment engine producing time-tagged detection events.

Four protocols share one event wire format: pulsed lifetime traces,
cw polarization-resolved autocorrelation, pulsed two-photon heralding,
and the zero-field circular-memory measurement.

Spin bookkeeping: every precession and selection rule, and the Bloch
sign convention, comes from the kernel in `dynamics`.  A branch or
success probability is a squared cosine of a half angle, which the
kernel takes from numpy's vectorised tangent; the cw loop keeps half its
hole phase and folds a hole's sign into its stored half-phase reference.

Determinism: work is cut into fixed-size batches and every batch draws
from its own counter-based stream keyed by (seed, protocol, batch index).
A pulsed batch has a second one, keyed (seed, protocol, batch index,
"unpaired"), for photon 2 of the shots without a recorded photon 1, so
that the heralded sweep can skip it.  Batch boundaries depend only on
n_shots, so the merged event stream is bit-identical for any worker
count.  Shots (and cw segments) are statistically independent of each
other.  The pulsed engine draws only for the photons that exist, and the
cw engine only for its live segments and its successes, so their later
draw sizes follow counts taken from earlier draws, within the same
stream.  Every draw is one uniform double per value, turned into its
distribution by a transform in `rng` (exponential delays, Lorentzian or
Gaussian jitter, channels), so the events depend on the Philox words and
those transforms, not on numpy's `Generator` methods.

Detection: every engine ends in one step, `_recorded`, which routes
each photon to a channel and draws whether it passes that channel's
projector and whether it is detected.  It reads the pass probability,
the recorded label and the keep flag from small lookup tables of the
config's channels, so a photon costs its draws and a few table reads.
The engines select entries by index (`flatnonzero`, `take`, or
`compress` in place of a boolean mask), and the heralded sweep builds no
array over a batch's shots but the initial-state draw.

Order: every engine returns its recorded photons as the four field
arrays of their events in (shot, time) order, and `run_batch` makes the
records.  The batches cover increasing shot ranges, so `run` appends
them to its spool as they come and never sorts a whole stream.  A pulsed
or cw engine orders its field arrays with one stable sort on the
in-batch shot; a lifetime batch records at most one photon per shot and
needs no sort.

Workers: `map_batches` runs a per-batch function over a task list, in
task order, in this process at one worker and otherwise through one
process pool for the whole list.  `run` maps the engine over the batches
of one config and writes each batch's events, as it comes back, to an
unnamed temporary file (the spool), keeping only the counters and a
running sha256; it serves `simulate` and the tests.  Every `pipeline`
preset instead submits the batches of all its configs to one
`map_batches` call and reduces each batch where it runs: a cw batch's
recorded photons (`cw_photons`) become RR and RL pair counts, a pulsed
batch's (`pulsed_photons`, photon 2 drawn only for the heralded shots)
the two-photon map rows of the heralded slice, and a lifetime batch's
events decay histograms.  Only integer counts reach the parent, plus,
for the presets that name their input stream by its digest, the batch's
events to feed a running sha256.
"""
from __future__ import annotations

import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from enum import Enum
from hashlib import sha256

import numpy as np

from .core import (CIRCULAR, ConfigError, DeviceParams, Pol, as_enum,
                   as_int, as_number, as_pols, check_keys, construct,
                   jones_vector, orthogonal, pol_from_label, project)
from .dynamics import (addressed_z, cw_branch_contrast, half_angle_shift,
                       half_angle_weight, precessed_r_probability,
                       r_probability)
from .rng import channels, exponential, substream

EVENT_DTYPE = np.dtype([
    ("shot", "<u4"),
    ("channel", "u1"),
    ("projection", "u1"),
    ("time", "<f8"),
])

LIFETIME_BATCH = 65536
CW_SEGMENT_BATCH = 8192
# records read back from a run's spool per block, and photons per block
# of `_recorded`'s uniform draws
_SPOOL_BLOCK = 65536
# a cw batch sorts its events on a uint16 in-batch segment index
assert CW_SEGMENT_BATCH < 2 ** 16

# Quasi-static jitter redraw interval for cw runs.  One draw per shot is
# used for the pulsed protocols.
CW_REDRAW_WINDOW_S = 100e-9

# Bound on the rows x redraw-windows jitter matrix of one cw batch
# (128 MiB of float64); 8192 segments of 1 s would need about 650 GB.
CW_JITTER_CELLS_MAX = 2 ** 24

# Event times are stored as float64 shot * stride + t; from 2^13 s on
# their ULP exceeds 1 ps, a tenth of the finest (10 ps) analysis bins.
EVENT_TIME_MAX_S = 2.0 ** 13

# Bloch z of a hole eigenstate, indexed by whether it is the R one
_SIGN = np.array([-1.0, 1.0])
_SIGN.setflags(write=False)

# |<b|a>|^2 for all label pairs, indexed by the Pol wire codes.
_PROJ = np.array([[project(jones_vector(a), b) for b in Pol] for a in Pol])
_PROJ.setflags(write=False)

class ProtocolKind(str, Enum):
    LIFETIME = "lifetime"
    CW_G2 = "cw_g2"
    PULSED_2PC = "pulsed_2pc"
    DOCP_ZERO_FIELD = "docp_zero_field"


# the timing fields and their values when unset (None: no default)
_TIMING = {"rep_period_s": 12.5e-9, "pulse_delay_s": None,
           "pump_rate_hz": None, "segment_length_s": 20e-6}


def _as_pol_tuple(pols) -> tuple:
    return tuple(pol_from_label(p) if isinstance(p, str) else Pol(p)
                 for p in pols)


@dataclass(frozen=True)
class ProtocolConfig:
    """Protocol selection plus every knob the engines read.

    `exc_pols` holds one entry per excitation pulse (two for the
    two-photon protocol).  `det_pols` holds one tuple per detection
    channel: a single label is a lossy projector (non-passing photons are
    dropped), an orthogonal pair is a polarizing splitter recording every
    photon with its outcome label.  Photons route uniformly over the
    channels.  For cw runs `n_shots` counts independent segments of
    `segment_length_s` live time each, and shots start `stride_s` apart.

    Every kind reads the polarizations, `detection_efficiency` and the
    timing fields (`_TIMING`) its `_KINDS` row lists, each finite and >
    0.  A field left as None takes its default; a field the kind does not
    read is refused unless it holds its default.
    """

    kind: ProtocolKind
    n_shots: int
    rng_seed: int
    exc_pols: tuple | None = None
    det_pols: tuple | None = None
    rep_period_s: float | None = None
    pulse_delay_s: float | None = None
    pump_rate_hz: float | None = None
    segment_length_s: float | None = None
    detection_efficiency: float | None = None

    def __post_init__(self):
        kind = ProtocolKind(self.kind)
        row = _KINDS[kind]
        for name, value in dict(_TIMING, detection_efficiency=1.0,
                                exc_pols=row.exc_pols,
                                det_pols=row.det_pols).items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "exc_pols", _as_pol_tuple(self.exc_pols))
        object.__setattr__(self, "det_pols",
                           tuple(_as_pol_tuple(ch) for ch in self.det_pols))
        if not (isinstance(self.n_shots, int) and 0 < self.n_shots < 2 ** 32):
            raise ValueError("n_shots must be a positive integer below 2^32")
        if not isinstance(self.rng_seed, int) or self.rng_seed < 0:
            raise ValueError("rng_seed must be a non-negative integer")
        if not (0.0 < self.detection_efficiency <= 1.0):
            raise ValueError("detection_efficiency must lie in (0, 1]")
        if not self.det_pols:
            raise ValueError("at least one detection channel is required")
        for ch in self.det_pols:
            if len(ch) == 2:
                if ch[1] is not orthogonal(ch[0]):
                    raise ValueError("two-label channels must be an orthogonal pair")
            elif len(ch) != 1:
                raise ValueError("each channel takes 1 or 2 polarization labels")
        # each pulse is circular where the kind's default pulse is
        circular = [p in CIRCULAR for p in row.exc_pols]
        if [p in CIRCULAR for p in self.exc_pols] != circular:
            names = ", ".join("circular" if c else "linear" for c in circular)
            raise ValueError(f"{kind.value} takes {len(circular)} "
                             f"excitation pulse(s): {names}")
        if row.channels and len(self.det_pols) != row.channels:
            raise ValueError(f"{kind.value} needs exactly {row.channels} "
                             f"detection channels")
        for name, default in _TIMING.items():
            value = getattr(self, name)
            if name not in row.reads:
                if value != default:
                    raise ConfigError(f"{name}: not used by {kind.value}")
            elif value is None:
                raise ConfigError(f"{name}: required by {kind.value}")
            elif not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if "pulse_delay_s" in row.reads and \
                self.pulse_delay_s >= self.rep_period_s:
            raise ValueError("pulse_delay_s must be below rep_period_s")
        if self.segment_s is not None:
            cells = min(self.n_shots, row.batch()) * (
                math.ceil(self.segment_s / CW_REDRAW_WINDOW_S) + 1)
            if cells > CW_JITTER_CELLS_MAX:
                raise ConfigError(
                    f"segment_length_s: {cells:.3g} jitter values per cw "
                    f"batch exceed the limit of {CW_JITTER_CELLS_MAX}")
        stride = self.stride_s
        if self.n_shots * stride >= EVENT_TIME_MAX_S:
            raise ConfigError(
                f"n_shots: {self.n_shots} shots {stride:.3g} s apart reach "
                f"{self.n_shots * stride:.3g} s, where float64 event times "
                f"are coarser than 1 ps (limit {EVENT_TIME_MAX_S:g} s)")

    @property
    def segment_s(self) -> float | None:
        """The live time after which a shot records nothing:
        `segment_length_s` for a kind that reads it (cw), else None."""
        reads = "segment_length_s" in _KINDS[self.kind].reads
        return self.segment_length_s if reads else None

    @property
    def stride_s(self) -> float:
        """Time from one shot's start to the next: `rep_period_s`, or for
        cw two segment lengths, so that no pair within one segment length
        crosses segments.  Event times are shot * stride_s + t in shot."""
        if self.segment_s is not None:
            return 2.0 * self.segment_s
        return self.rep_period_s

    @classmethod
    def lifetime(cls, n_shots, rng_seed, exc_pol=None, det_pols=None,
                 rep_period_s=None, detection_efficiency=None):
        return cls(ProtocolKind.LIFETIME, n_shots, rng_seed,
                   None if exc_pol is None else (exc_pol,), det_pols,
                   rep_period_s, detection_efficiency=detection_efficiency)

    @classmethod
    def docp_zero_field(cls, n_shots, rng_seed, exc_pol=None, det_pols=None,
                        rep_period_s=None, detection_efficiency=None):
        return cls(ProtocolKind.DOCP_ZERO_FIELD, n_shots, rng_seed,
                   None if exc_pol is None else (exc_pol,), det_pols,
                   rep_period_s, detection_efficiency=detection_efficiency)

    @classmethod
    def cw(cls, n_segments, rng_seed, pump_rate_hz, exc_pol=None,
           det_pols=None, segment_length_s=None, detection_efficiency=None):
        return cls(ProtocolKind.CW_G2, n_segments, rng_seed,
                   None if exc_pol is None else (exc_pol,), det_pols,
                   pump_rate_hz=pump_rate_hz,
                   segment_length_s=segment_length_s,
                   detection_efficiency=detection_efficiency)

    @classmethod
    def pulsed(cls, n_shots, rng_seed, pulse_delay_s, exc_pols=None,
               det_pols=None, rep_period_s=None, detection_efficiency=None):
        return cls(ProtocolKind.PULSED_2PC, n_shots, rng_seed, exc_pols,
                   det_pols, rep_period_s, pulse_delay_s=pulse_delay_s,
                   detection_efficiency=detection_efficiency)

    def to_dict(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "kind": self.kind.value,
                "exc_pols": [p.name for p in self.exc_pols],
                "det_pols": [[p.name for p in ch] for ch in self.det_pols]}

    @classmethod
    def from_dict(cls, d: dict, path: str = "protocol") -> "ProtocolConfig":
        """Strict parse of a config block; an absent or null field takes
        its default."""
        names = [f.name for f in fields(cls)]
        check_keys(d, path, names[:3], names[3:])
        kw = {"kind": as_enum(d["kind"], f"{path}.kind", ProtocolKind),
              "n_shots": as_int(d["n_shots"], f"{path}.n_shots"),
              "rng_seed": as_int(d["rng_seed"], f"{path}.rng_seed")}
        for key in names[3:]:
            value = d.get(key)
            if value is None:
                continue
            if key == "exc_pols":
                kw[key] = as_pols(value, f"{path}.{key}")
            elif key == "det_pols":
                if not isinstance(value, list) or not value:
                    raise ConfigError(f"{path}.{key}: expected a list")
                kw[key] = tuple(as_pols(ch, f"{path}.{key}[{i}]")
                                for i, ch in enumerate(value))
            else:
                kw[key] = as_number(value, f"{path}.{key}")
        return construct(cls, path, **kw)


class EventStream:
    """The detection events of one run in (shot, time) order, spooled to
    an unnamed temporary file by `run`, with the configuration that
    produced them, the run's summed counters (`diagnostics`) and the
    sha256 of all the records (`content_digest`).

    `blocks` reads the records back, `_SPOOL_BLOCK` at a time.  The spool
    is deleted when a `with` block on the stream ends, when the stream is
    garbage-collected, or when the process dies.
    """

    def __init__(self, spool, device: DeviceParams, config: ProtocolConfig,
                 diagnostics: dict, content_digest: str):
        self._spool = spool
        self.device, self.config = device, config
        self.diagnostics, self.content_digest = diagnostics, content_digest

    def __len__(self):
        return self.diagnostics["n_events"]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._spool.close()

    def blocks(self):
        """Yield the records in file order, at most `_SPOOL_BLOCK` at a
        time; a stream with no events yields none."""
        self._spool.seek(0)
        for lo in range(0, len(self), _SPOOL_BLOCK):
            yield np.fromfile(self._spool, dtype=EVENT_DTYPE,
                              count=min(_SPOOL_BLOCK, len(self) - lo))


def make_events(shots, channels, projections, times) -> np.ndarray:
    """Event records of the four field arrays, in their order."""
    out = np.empty(shots.shape[0], dtype=EVENT_DTYPE)
    out["shot"] = shots
    out["channel"] = channels
    out["projection"] = projections
    out["time"] = times
    return out


def _recorded(rng, config, shot, is_r, t):
    """The recorded photons of one emission per entry of `shot`, on the
    R branch where the bool `is_r`, as (shot, channel, projection, time)
    arrays.

    A photon goes to a uniformly drawn channel and passes its projector
    with the probability of its branch's label.  The draws are the
    channels (with more than one channel), the pass uniforms, then the
    efficiency uniforms (efficiency below 1), n of each, one word each
    (`rng`), so the stream consumption depends only on the config and n.
    Each kind is drawn `_SPOOL_BLOCK` at a time, which holds no
    photon-long float array and draws what one call would.  The table
    cells stay uint8, one byte a photon, and are widened to index the
    tables (`take`) a block at a time, so no photon-long index array is
    made either.  Records are taken with `np.compress`; when every
    photon is recorded the inputs come back as they are.
    """
    det_pols = config.det_pols
    n, nch = shot.shape[0], len(det_pols)
    # lookup tables over cells row * nch + channel: the pass probability
    # with the row the branch (0 L, 1 R); the recorded label and the keep
    # flag with the row whether the photon passed.  A splitter records a
    # photon that does not pass with its second label, a lossy projector
    # drops it; with only splitters every photon is kept.
    first = [int(p[0]) for p in det_pols]
    split = [len(p) == 2 for p in det_pols]
    p_pass = np.concatenate([_PROJ[int(Pol.L), first],
                             _PROJ[int(Pol.R), first]])
    label = np.array([int(p[-1]) for p in det_pols] + first, dtype=np.uint8)
    keep_table = None if all(split) else np.array(split + [True] * nch)

    blocks = [slice(lo, lo + _SPOOL_BLOCK) for lo in range(0, n, _SPOOL_BLOCK)]
    ch = np.zeros(n, dtype=np.uint8)
    if nch > 1:
        for b in blocks:
            ch[b] = channels(rng, nch, ch[b].size)
    # the branch cell of each photon, then in place its pass cell
    cell = is_r.view(np.uint8) * nch + ch
    for b in blocks:
        passes = rng.random(ch[b].size) < p_pass.take(cell[b].astype(np.intp))
        cell[b] = passes.view(np.uint8) * nch + ch[b]
    proj = np.empty(n, dtype=np.uint8)
    keep = None if keep_table is None else np.empty(n, dtype=bool)
    for b in blocks:
        at = cell[b].astype(np.intp)
        label.take(at, out=proj[b])
        if keep is not None:
            keep_table.take(at, out=keep[b])
    del cell
    if config.detection_efficiency < 1.0:
        detected = np.empty(n, dtype=bool)
        for b in blocks:
            np.less(rng.random(ch[b].size), config.detection_efficiency,
                    out=detected[b])
        keep = detected if keep is None else np.logical_and(
            keep, detected, out=keep)
    if keep is None:
        return shot, ch, proj, t
    return tuple(np.compress(keep, a) for a in (shot, ch, proj, t))


def _decay(rng, device, z, turns=None):
    """(decay delay, R branch) of trions that precess from Bloch z `z`:
    by `turns` in the ground state first (None for photon 1), then at
    f_e (plus the excited jitter) until they decay, one rotation by the
    summed angle, whose end picks the branch."""
    n = z.size
    tau = exponential(rng, device.t1_s, n)
    theta = device.noise.sample(rng, n) if device.noise.affects_excited \
        else np.zeros(n)
    theta += device.f_e_hz
    theta *= tau
    if turns is not None:
        theta += turns
    theta *= 2.0 * math.pi
    p_r = precessed_r_probability(z, theta, out=theta)
    return tau, rng.random(n) < p_r


def _photon1(rng, device, s, n):
    """(decay delay, R branch) of n trions excited from the hole state of
    Bloch z `s`: the depolarizing preparation gives the correct trion
    eigenstate with (1+p)/2, which then decays (`_decay`)."""
    correct = rng.random(n) < 0.5 * (1.0 + device.p_mem)
    return _decay(rng, device, (s * _SIGN).take(correct.view(np.uint8)))


def _event_fields(start_shot, stride_s, shot, ch, proj, t):
    """Event fields of recorded photons given by in-batch shot and time
    in shot."""
    shots = (start_shot + shot).astype(np.uint32)
    return shots, ch, proj, shots * stride_s + t


def _lifetime_batch(task):
    """Independent excite-and-decay shots (lifetime and zero-field DOCP).
    A shot records at most one photon, so the fields need no sort."""
    device, config, batch_index, start_shot, n = task
    rng = substream(config.rng_seed, config.kind.value, batch_index)
    tau, is_r = _photon1(rng, device, addressed_z(config.exc_pols[0]), n)
    photons = _recorded(rng, config, np.arange(n), is_r, tau)
    return _event_fields(start_shot, config.stride_s, *photons), {
        "n_shots": n, "n_emitted": n}


def _pulsed_fields(start_shot, stride_s, photon1, photon2):
    """Event fields of a pulsed batch's recorded photons 1 and 2, each
    given as (in-batch shot, channel, projection, time in shot), photon 1
    in shot order.  A shot records at most one photon 2, so photon 2 may
    come in any shot order.  Photon 1 goes first and one stable sort on
    the in-batch shot puts them in (shot, time) order: a shot records
    both photons only if tau1 < dt."""
    order = np.argsort(np.concatenate((photon1[0], photon2[0])), kind="stable")
    return _event_fields(start_shot, stride_s, *(
        np.concatenate(a)[order] for a in zip(photon1, photon2)))


def _photon2(rng, device, config, shot, z_g, t_g):
    """The recorded photon 2 of the entries of `shot` (in shot order)
    whose hole sits in the ground state at pulse 2 (`t_g` > 0) and is
    excited there, and the count of those emissions.  `z_g` and `t_g`
    hold, per entry, the hole Bloch z the precession starts from and its
    time in the ground state before pulse 2, where it precesses at f_h
    (plus the ground jitter)."""
    at = np.flatnonzero(t_g > 0.0)
    at = at.take(np.flatnonzero(rng.random(at.size) < device.p_mem))
    shot, z_g, t_g = (a.take(at) for a in (shot, z_g, t_g))
    turns = device.noise.sample(rng, shot.size) \
        if device.noise.affects_ground else np.zeros(shot.size)
    turns += device.f_h_hz
    turns *= t_g
    tau2, is_r = _decay(rng, device, z_g, turns)
    tau2 += config.pulse_delay_s
    return _recorded(rng, config, shot, is_r, tau2), shot.size


def pulsed_photons(task, heralded_only=False):
    """The recorded photons 1 and 2 of a two-pulse heralding batch task,
    each as (in-batch shot, channel, projection, time in shot) arrays,
    and the batch counters.

    Pulse 1 is spin-selective circular: it excites only the addressed
    hole eigenstate, through the depolarizing preparation channel.  The
    first photon's circular label heralds the post-emission hole state
    exactly.  Pulse 2 coherently lifts the (possibly precessed) hole
    Bloch vector to the trion doublet with probability p_mem and does
    nothing otherwise.  Unexcited shots keep precessing and can still
    yield a (useless) photon 2; the map analysis drops them.  Photon 2
    precesses about x in the ground doublet and then in the trion
    doublet, one rotation by the summed angle.

    Only photons that exist are drawn.  The batch's own substream draws
    the initial states, photon 1 of the addressed shots and its
    detection, then photon 2 of the heralded shots, those with a
    recorded photon 1.  Photon 2 of every other shot comes from a second
    substream keyed (seed, kind, batch index, "unpaired").  Detection
    does not act on the spin, so the split changes no shot's physics.
    Draw sizes follow counts taken from earlier draws of the same
    substream, so the events still depend only on (seed, batch index).

    Photon 1 comes in shot order.  Photon 2 holds the heralded shots in
    shot order, then the others in shot order.  With `heralded_only`
    the second substream is never built: photon 2 holds the heralded
    shots alone, the only ones that can form a pair, and `n_emitted`
    counts photon 1 and the heralded shots' photon 2.  That path holds
    no array over all n shots but the initial-state draw: the heralded
    shots' photon 2 starts from photon 1's recorded entries.
    """
    device, config, batch_index, _, n = task
    rng = substream(config.rng_seed, config.kind.value, batch_index)
    dt = config.pulse_delay_s
    s1 = addressed_z(config.exc_pols[0])

    # the initial hole Bloch z is +1 where the uniform is below 1/2;
    # pulse 1 excites the shots that start in s1
    up = rng.random(n) < 0.5
    shot1 = np.flatnonzero(up if s1 > 0.0 else ~up)
    tau1, is_r1 = _photon1(rng, device, s1, shot1.size)
    # photon 1 recorded, with its entry of shot1 in place of the shot
    at1, ch1, proj1, t1 = _recorded(rng, config, np.arange(shot1.size),
                                    is_r1, tau1)
    photon1 = (shot1.take(at1), ch1, proj1, t1)

    # ground state at pulse 2: an addressed shot precesses from its herald
    # for dt - tau1 (still in the trion if not positive), an unaddressed
    # one from its initial state for dt
    herald = _SIGN.take(is_r1.view(np.uint8))
    photon2, n2 = _photon2(rng, device, config, photon1[0],
                           herald.take(at1), dt - t1)
    if not heralded_only:
        z_g = _SIGN.take(up.view(np.uint8))
        z_g[shot1] = herald
        t_g = np.full(n, dt)
        t_g[shot1] = dt - tau1
        rest = np.ones(n, dtype=bool)
        rest[photon1[0]] = False
        rest = np.flatnonzero(rest)
        unpaired = substream(config.rng_seed, config.kind.value,
                             batch_index, "unpaired")
        others, n_rest = _photon2(unpaired, device, config, rest,
                                  z_g.take(rest), t_g.take(rest))
        photon2 = tuple(np.concatenate(a) for a in zip(photon2, others))
        n2 += n_rest
    return photon1, photon2, {"n_shots": n, "n_emitted": shot1.size + n2}


def _pulsed_batch(task):
    """Event fields and counters of a two-pulse heralding batch task,
    from `pulsed_photons`."""
    _, config, _, start_shot, _ = task
    photon1, photon2, counters = pulsed_photons(task)
    return _pulsed_fields(start_shot, config.stride_s, photon1,
                          photon2), counters


def _hole_half_phase(rng, device, n, n_win):
    """Half the hole phase, half_phase(t, base), of the n rows of a cw
    batch, `base` a row's first cell, its jitter matrix drawn from `rng`
    when the ground state jitters.  The matrix lives only in the
    function."""
    w_h = math.pi * device.f_h_hz
    win = CW_REDRAW_WINDOW_S
    if not device.noise.affects_ground:
        return lambda t, base: w_h * t
    # half the hole phase in window k of row r: rate[r, k] t + off[r, k],
    # that is w_h t + pi (jitter cycles before k + delta[r, k] (t - k win))
    rate = device.noise.sample(rng, (n, n_win))
    off = np.cumsum(rate, axis=1)
    rows = max(1, _SPOOL_BLOCK // n_win)  # a block of rows at a time
    for lo in range(0, n, rows):
        off[lo:lo + rows] -= rate[lo:lo + rows] * np.arange(1, n_win + 1)
    off *= math.pi * win
    rate *= math.pi
    rate += w_h
    rate, off = rate.ravel(), off.ravel()

    def half_phase(t, base):
        j = base + np.minimum((t * (1.0 / win)).astype(np.int64), n_win - 1)
        return rate[j] * t + off[j]
    return half_phase


def _grown(a, used):
    """`a` at twice its size, its first `used` entries copied; the pages
    of the new half stay untouched until written.  The cw loop collects
    its emissions in such buffers, sized for the expected count so that
    they seldom grow: each doubling leaves the old buffer as a hole in
    the heap (about 9 MB more peak RSS for fig2d at scale 0.125 when
    they started at 16 entries a segment), and a list of small per-round
    arrays, kept alive among each round's temporaries, fragments it
    (12 MB more)."""
    out = np.empty(2 * a.size, dtype=a.dtype)
    out[:used] = a[:used]
    return out


def cw_photons(task):
    """The recorded photons of a cw batch task as the field arrays of its
    events (segment, channel, projection, event time) in (segment, time)
    order, and the batch counters.

    The segments run in lockstep.  Poisson excitation attempts at
    pump_rate succeed with probability
    p_mem * (population of the addressed hole state); a success puts the
    trion exactly on the addressed branch and the emission after an
    exponential decay delay collapses the hole to the branch eigenstate.
    The branch itself is sampled from the time-averaged trion precession
    1/(1+(2 pi f_e T1)^2), not from the per-trajectory decay phase:
    conditioning the branch on the decay delay would lag the RR and RL
    oscillations by different amounts and pull their phase gap off pi.
    Between events the hole phase accumulates f_h plus the
    piecewise-constant jitter of its redraw window.  Segments are spaced
    two segment lengths apart so cross-segment pairs cannot fall inside
    any correlation window up to one segment length.

    A round draws the gap and success uniform for the live segments, and
    the decay delay, branch and excited jitter for the successes only; a
    segment leaves the arrays in the round its next attempt lands past
    its end, and an emission past its segment's end is never stored.
    Draw sizes follow earlier draws of the batch's own substream, so the
    events depend only on (seed, batch index).  Each segment emits in
    time order, so a stable sort on the in-batch segment index
    interleaves the rounds: the channels and projections are put in its
    order, while the segments and event times, which it leaves sorted,
    are sorted in place.  A batch holds about 23 bytes per recorded
    photon at its peak, and returns about 14.
    """
    device, config, batch_index, start_seg, n = task
    rng = substream(config.rng_seed, config.kind.value, batch_index)
    seg_len = config.segment_length_s
    pump = config.pump_rate_hz
    s_addr = addressed_z(config.exc_pols[0])
    n_win = int(math.ceil(seg_len / CW_REDRAW_WINDOW_S)) + 1

    half_phase = _hole_half_phase(rng, device, n, n_win)
    if not device.noise.affects_excited:
        p_r = r_probability(s_addr * cw_branch_contrast(device.f_e_hz,
                                                        device.t1_s))

    # per live segment: in-batch index, jitter-row base, clock, and the
    # half-phase reference: half the hole phase at the last emission (0
    # at the start) less the half-angle shift of the success amplitude
    # s_addr * (hole Bloch z), so that an attempt succeeds with
    # p_mem cos^2(half_phase - ref), p_mem (1 + amp cos(phase delta))/2
    seg = np.arange(n, dtype=np.uint16)
    base = np.arange(n) * n_win
    clock = np.zeros(n)
    # the shift of a hole of Bloch z -1 (as an L emission leaves it) and
    # +1 (an R one); a segment's hole starts in either with 1/2
    shifts = half_angle_shift(s_addr * _SIGN)
    ref = -shifts.take((rng.random(n) >= 0.5).view(np.uint8))

    # emissions in round order, in buffers that double when full, sized
    # 5% over the expected count: attempts at the pump rate succeed with
    # p_mem / 2 on average, and a success holds its segment for T1
    p_half = device.p_mem * 0.5
    hit_hz = pump * p_half / (1.0 + pump * p_half * device.t1_s)
    size = int(1.05 * n * seg_len * hit_hz) + 16 * n
    ev_seg, ev_is_r, ev_time = (np.empty(size, dtype=t)
                                for t in (np.uint16, bool, float))
    attempts = n_ev = 0
    guard = int(3.0 * seg_len * pump + 10.0 * math.sqrt(seg_len * pump) + 200)
    for _ in range(guard):
        if not seg.size:
            break
        t_att = clock + exponential(rng, 1.0 / pump, seg.size)
        if t_att.max() >= seg_len:
            live = t_att < seg_len
            seg, base, ref, t_att = (np.compress(live, a)
                                     for a in (seg, base, ref, t_att))
        attempts += seg.size
        half = half_phase(t_att, base)
        half -= ref
        p_hit = half_angle_weight(half, device.p_mem, out=half)
        hit = (rng.random(seg.size) < p_hit).nonzero()[0]
        t_em = t_att[hit] + exponential(rng, device.t1_s, hit.size)
        if device.noise.affects_excited:
            p_r = r_probability(s_addr * cw_branch_contrast(
                device.f_e_hz + device.noise.sample(rng, hit.size),
                device.t1_s))
        is_r = rng.random(hit.size) < p_r
        # only the emissions inside their segment are stored
        emitted = seg[hit], is_r, t_em
        if hit.size and t_em.max() >= seg_len:
            in_seg = t_em < seg_len
            emitted = [np.compress(in_seg, a) for a in emitted]
        end = n_ev + emitted[0].size
        if end > ev_time.size:
            ev_seg, ev_is_r, ev_time = (_grown(a, n_ev)
                                        for a in (ev_seg, ev_is_r, ev_time))
        ev_seg[n_ev:end], ev_is_r[n_ev:end], ev_time[n_ev:end] = emitted
        n_ev = end
        # a success consumes the hole until the emission re-creates it
        clock = t_att
        clock[hit] = t_em
        ref[hit] = half_phase(t_em, base[hit]) - shifts[is_r.view(np.uint8)]
    else:
        raise RuntimeError("cw segment loop exceeded its iteration guard")

    del half_phase  # and with it the jitter matrices

    seg_idx, ch, proj, t = _recorded(rng, config, ev_seg[:n_ev],
                                     ev_is_r[:n_ev], ev_time[:n_ev])
    del ev_seg, ev_is_r, ev_time
    # (segment, time) order: each segment emits in time order, so it is
    # the order of the unique keys (segment, position), which sort in
    # place; a stable argsort would hold a work buffer as large as its
    # result.  t becomes the event times in the same pass.
    key = np.arange(t.size, dtype=np.uint64)
    for lo in range(0, t.size, _SPOOL_BLOCK):
        b = slice(lo, lo + _SPOOL_BLOCK)
        key[b] |= seg_idx[b].astype(np.uint64) << np.uint64(48)
        t[b] += (seg_idx[b] + np.uint32(start_seg)) * config.stride_s
    key.sort()
    key &= np.uint64(2 ** 48 - 1)
    ch, proj = ch[key.view(np.int64)], proj[key.view(np.int64)]
    del key
    # the segments lie a stride apart, so the event times and segments
    # in that order are their own sorted values
    t.sort()
    seg_idx.sort()
    return (seg_idx + np.uint32(start_seg), ch, proj, t), {
        "n_shots": n, "n_attempts": attempts, "n_emitted": n_ev}


def batch_tasks(device: DeviceParams, config: ProtocolConfig) -> list:
    """The fixed batch cut of one run, as (device, config, batch index,
    first shot, shot count) tasks for `run_batch`."""
    size = _KINDS[config.kind].batch()
    return [(device, config, b, b * size, min(size, config.n_shots - b * size))
            for b in range((config.n_shots + size - 1) // size)]


def run_batch(task):
    """(events, counters) of one batch task, the events in (shot, time)
    order: the records of its engine's field arrays."""
    fields, counters = _KINDS[task[1].kind].engine(task)
    return make_events(*fields), counters


def resolve_workers(workers=None) -> int:
    """Worker count with the TRIONSIM_WORKERS environment override,
    capped at the CPU count."""
    if workers is None:
        env = os.environ.get("TRIONSIM_WORKERS", "").strip()
        workers = int(env) if env else 1
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return min(workers, os.cpu_count() or 1)


def map_batches(fn, tasks: list, workers=None):
    """Yield fn(task) for every task, in task order.

    At one worker (or one task) the tasks run in this process; otherwise
    one process pool serves the whole list, which may hold the tasks of
    several configs.  `fn` must be a module-level function.
    """
    workers = min(resolve_workers(workers), len(tasks))
    if workers < 2:
        yield from map(fn, tasks)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, tasks)


def run(device: DeviceParams, config: ProtocolConfig, workers=None) -> EventStream:
    """Simulate one protocol into a spooled stream in (shot, time) order.

    Batches cover increasing shot ranges and each comes back sorted, so
    each is appended to the spool as `map_batches` yields it and dropped
    before the next is drawn; only its counters and the running digest
    stay.  Every batch is drawn before this returns.
    """
    spool = tempfile.TemporaryFile()
    try:
        digest, diagnostics, n_events = sha256(), {}, 0
        for events, counters in map_batches(
                run_batch, batch_tasks(device, config), workers):
            spool.write(events)
            digest.update(events)
            n_events += events.shape[0]
            del events  # hold no batch while the next one is drawn
            for key, val in counters.items():
                if isinstance(val, (int, np.integer)):
                    diagnostics[key] = diagnostics.get(key, 0) + int(val)
    except BaseException:
        spool.close()
        raise
    diagnostics["n_events"] = n_events
    if config.segment_s is not None:
        diagnostics["live_time_s"] = config.n_shots * config.segment_s
    return EventStream(spool, device, config, diagnostics, digest.hexdigest())


@dataclass(frozen=True)
class _Kind:
    """The facts of one protocol kind, which the config and run read."""

    reads: tuple     # the `_TIMING` fields it reads
    exc_pols: tuple  # its default pulses, which fix each one's class
    det_pols: tuple  # its default detection channels
    channels: int    # its detection channel count, 0 for any
    batch: object    # its batch size, read from the constant when called
    engine: object   # a batch task -> (its event fields, counters)


_KINDS = {
    ProtocolKind.LIFETIME: _Kind(
        reads=("rep_period_s",), exc_pols=(Pol.R,),
        det_pols=((Pol.R, Pol.L),), channels=0,
        batch=lambda: LIFETIME_BATCH, engine=_lifetime_batch),
    ProtocolKind.CW_G2: _Kind(
        reads=("pump_rate_hz", "segment_length_s"), exc_pols=(Pol.R,),
        det_pols=((Pol.R, Pol.L), (Pol.R, Pol.L)), channels=2,
        batch=lambda: CW_SEGMENT_BATCH, engine=cw_photons),
    ProtocolKind.PULSED_2PC: _Kind(
        reads=("rep_period_s", "pulse_delay_s"), exc_pols=(Pol.R, Pol.H),
        det_pols=((Pol.R,), (Pol.R, Pol.L)), channels=2,
        batch=lambda: LIFETIME_BATCH, engine=_pulsed_batch),
}
_KINDS[ProtocolKind.DOCP_ZERO_FIELD] = _KINDS[ProtocolKind.LIFETIME]
