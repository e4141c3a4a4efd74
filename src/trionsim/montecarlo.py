"""Stochastic experiment engine producing time-tagged detection events.

Four protocols share one event wire format: pulsed lifetime traces,
cw polarization-resolved autocorrelation, pulsed two-photon heralding,
and the zero-field circular-memory measurement.

Spin bookkeeping: every precession and selection rule, and the Bloch
sign convention, comes from the kernel in `dynamics`.

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
stream.

Detection: every engine ends in one step, `_recorded`, which routes
each photon to a channel and draws whether it passes that channel's
projector and whether it is detected.  It reads the pass probability,
the recorded label and the keep flag from small lookup tables of the
config's channels, so a photon costs its draws and a few table reads.

Order: every batch returns its events in (shot, time) order, and the
batches cover increasing shot ranges, so `run` concatenates them and
never sorts a whole stream.  A pulsed or cw batch orders its photons'
field arrays with one stable sort on the in-batch shot before it builds
records; a lifetime batch records at most one photon per shot and needs
no sort.

Workers: `map_batches` runs a per-batch function over a task list, in
task order, in this process at one worker and otherwise through one
process pool for the whole list.  `run` maps the engine over the batches
of one config and concatenates the events in the parent; it serves
`simulate`, `analyze` and the tests.  Every `pipeline` preset instead
submits the batches of all its configs to one `map_batches` call and
reduces each batch where it runs: a cw batch's recorded photons
(`cw_photons`) become RR and RL pair counts, a pulsed batch's
(`pulsed_photons`, photon 2 drawn only for the heralded shots) the
two-photon map rows of the heralded slice, and a lifetime batch's events
decay histograms.  Only integer counts reach the parent, plus, for the
presets that name their input stream by its digest, the batch's events
to feed a running sha256.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from enum import Enum
from hashlib import sha256

import numpy as np

from .core import (CIRCULAR, ConfigError, DeviceParams, Pol, as_enum,
                   as_int, as_number, as_pols, check_keys, construct,
                   jones_vector, orthogonal, pol_from_label, project)
from .dynamics import (addressed_z, cw_branch_contrast, precessed_z,
                       r_probability)
from .rng import substream

EVENT_DTYPE = np.dtype([
    ("shot", "<u4"),
    ("channel", "u1"),
    ("projection", "u1"),
    ("time", "<f8"),
])

LIFETIME_BATCH = 65536
CW_SEGMENT_BATCH = 8192
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

    Every kind reads the polarizations and `detection_efficiency`; of
    the timing fields (`_TIMING`), lifetime and docp_zero_field read
    `rep_period_s`, pulsed_2pc also `pulse_delay_s`, and cw_g2
    `pump_rate_hz` and `segment_length_s`, each finite and > 0.  A field
    left as None takes its default (none for those two); a field the
    kind does not read is refused unless it holds its default.
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
        if "segment_length_s" in row.reads:
            cells = min(self.n_shots, row.batch()) * (
                math.ceil(self.segment_length_s / CW_REDRAW_WINDOW_S) + 1)
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
    def stride_s(self) -> float:
        """Time from one shot's start to the next: `rep_period_s`, or for
        cw two segment lengths, so that no pair within one segment length
        crosses segments.  Event times are shot * stride_s + t in shot."""
        if "segment_length_s" in _KINDS[self.kind].reads:
            return 2.0 * self.segment_length_s
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


@dataclass
class EventStream:
    """Detection events in (shot, time) order plus the configuration that
    produced them; `run` builds one by concatenating sorted batches."""

    events: np.ndarray
    device: DeviceParams
    config: ProtocolConfig
    diagnostics: dict = field(default_factory=dict)

    def __len__(self):
        return self.events.shape[0]

    @property
    def content_digest(self) -> str:
        return sha256(np.ascontiguousarray(self.events)).hexdigest()


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
    efficiency uniforms (efficiency below 1), n of each, so the stream
    consumption depends only on the config and n.  Records are taken
    with boolean masks; when every photon is recorded the inputs come
    back as they are.
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

    ch = rng.integers(0, nch, n, dtype=np.uint8) if nch > 1 \
        else np.zeros(n, dtype=np.uint8)
    passes = rng.random(n) < p_pass[is_r.view(np.uint8) * nch + ch]
    cell = passes.view(np.uint8) * nch + ch
    keep = None if keep_table is None else keep_table[cell]
    if config.detection_efficiency < 1.0:
        detected = rng.random(n) < config.detection_efficiency
        keep = detected if keep is None else keep & detected
    if keep is None:
        return shot, ch, label[cell], t
    cell = cell[keep]
    return shot[keep], cell % nch, label[cell], t[keep]


def _decay(rng, device, s, n):
    """(decay delay, R branch) of n trions excited from the hole state of
    Bloch z `s`: the depolarizing preparation gives the correct trion
    eigenstate with (1+p)/2, which precesses at f_e (plus the excited
    jitter) until it decays."""
    z_t0 = np.where(rng.random(n) < 0.5 * (1.0 + device.p_mem), s, -s)
    tau = rng.exponential(device.t1_s, n)
    df = device.noise.sample(rng, n) if device.noise.affects_excited else 0.0
    z_t = precessed_z(z_t0, 2.0 * math.pi * (device.f_e_hz + df) * tau)
    return tau, rng.random(n) < r_probability(z_t)


def _lifetime_batch(device, config, batch_index, start_shot, n):
    """Independent excite-and-decay shots (lifetime and zero-field DOCP).
    A shot records at most one photon, so the records need no sort."""
    rng = substream(config.rng_seed, config.kind.value, batch_index)
    tau, is_r = _decay(rng, device, addressed_z(config.exc_pols[0]), n)
    shot, ch, proj, t = _recorded(rng, config, np.arange(n), is_r, tau)
    shots = (start_shot + shot).astype(np.uint32)
    events = make_events(shots, ch, proj, shots * config.stride_s + t)
    return events, {"n_shots": n, "n_emitted": n}


def _pulsed_records(start_shot, stride_s, photon1, photon2):
    """Events of a pulsed batch's recorded photons 1 and 2, each given as
    (in-batch shot, channel, projection, time in shot), photon 1 in shot
    order.  A shot records at most one photon 2, so photon 2 may come in
    any shot order.  Photon 1 goes first and one stable sort on the
    in-batch shot puts the field arrays in (shot, time) order before the
    records are built: a shot records both photons only if tau1 < dt."""
    order = np.argsort(np.concatenate((photon1[0], photon2[0])), kind="stable")
    shot, ch, proj, t = (np.concatenate(a)[order]
                         for a in zip(photon1, photon2))
    shots = (start_shot + shot).astype(np.uint32)
    return make_events(shots, ch, proj, shots * stride_s + t)


def _photon2(rng, device, config, shot, z_g, t_g):
    """The recorded photon 2 of the entries of `shot` (in shot order)
    whose hole sits in the ground state at pulse 2 (`t_g` > 0) and is
    excited there, and the count of those emissions.  `z_g` and `t_g`
    hold, per in-batch shot, the hole Bloch z the precession starts from
    and its time in the ground state before pulse 2."""
    shot = shot[t_g[shot] > 0.0]
    shot = shot[rng.random(shot.size) < device.p_mem]
    n2 = shot.size
    noise = device.noise
    df_h = noise.sample(rng, n2) if noise.affects_ground else 0.0
    tau2 = rng.exponential(device.t1_s, n2)
    df_e = noise.sample(rng, n2) if noise.affects_excited else 0.0
    theta = (2.0 * math.pi * (device.f_h_hz + df_h) * t_g[shot]
             + 2.0 * math.pi * (device.f_e_hz + df_e) * tau2)
    is_r = rng.random(n2) < r_probability(precessed_z(z_g[shot], theta))
    return _recorded(rng, config, shot, is_r, config.pulse_delay_s + tau2), n2


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
    counts photon 1 and the heralded shots' photon 2.
    """
    device, config, batch_index, _, n = task
    rng = substream(config.rng_seed, config.kind.value, batch_index)
    dt = config.pulse_delay_s
    s1 = addressed_z(config.exc_pols[0])

    # hole Bloch z from the initial eigenstate; pulse 1 addresses s1
    z_g = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    shot1 = np.flatnonzero(z_g == s1)
    tau1, is_r1 = _decay(rng, device, s1, shot1.size)
    photon1 = _recorded(rng, config, shot1, is_r1, tau1)

    # ground state at pulse 2: an addressed shot precesses from its herald
    # for dt - tau1 (still in the trion if not positive), an unaddressed
    # one from its initial state for dt
    z_g[shot1] = np.where(is_r1, 1.0, -1.0)
    t_g = np.full(n, dt)
    t_g[shot1] = dt - tau1
    heralded = np.zeros(n, dtype=bool)
    heralded[photon1[0]] = True
    photon2, n2 = _photon2(rng, device, config, np.flatnonzero(heralded),
                           z_g, t_g)
    if not heralded_only:
        unpaired = substream(config.rng_seed, config.kind.value,
                             batch_index, "unpaired")
        rest, n_rest = _photon2(unpaired, device, config,
                                np.flatnonzero(~heralded), z_g, t_g)
        photon2 = tuple(np.concatenate(a) for a in zip(photon2, rest))
        n2 += n_rest
    return photon1, photon2, {"n_shots": n, "n_emitted": shot1.size + n2}


def _pulsed_batch(device, config, batch_index, start_shot, n):
    """Events of a two-pulse heralding batch, from `pulsed_photons`."""
    photon1, photon2, counters = pulsed_photons(
        (device, config, batch_index, start_shot, n))
    return _pulsed_records(start_shot, config.stride_s, photon1,
                           photon2), counters


def _grown(a, used):
    """`a` at twice its size, its first `used` entries copied; the pages
    of the new half stay untouched until written.  The cw loop collects
    its emissions in such buffers: a list of small per-round arrays, kept
    alive among each round's temporaries, fragments the heap (12 MB more
    peak RSS for fig2d at scale 0.125)."""
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
    its end.  Draw sizes follow earlier draws of the batch's own
    substream, so the events depend only on (seed, batch index).  Each
    segment emits in time order, and one stable sort on the in-batch
    segment index interleaves the rounds; the field arrays are put in that
    order before the event times are taken from them.
    """
    device, config, batch_index, start_seg, n = task
    rng = substream(config.rng_seed, config.kind.value, batch_index)
    p_half = device.p_mem * 0.5
    w_h = 2.0 * math.pi * device.f_h_hz
    seg_len = config.segment_length_s
    pump = config.pump_rate_hz
    s_addr = addressed_z(config.exc_pols[0])
    win = CW_REDRAW_WINDOW_S
    n_win = int(math.ceil(seg_len / win)) + 1

    if device.noise.affects_ground:
        # hole phase in window k of row r: rate[r, k] t + off[r, k], that
        # is w_h t + 2 pi (jitter cycles before k + delta[r, k] (t - k win))
        rate = device.noise.sample(rng, (n, n_win))
        off = np.cumsum(rate, axis=1)
        off -= rate * np.arange(1, n_win + 1)
        off *= 2.0 * math.pi * win
        rate *= 2.0 * math.pi
        rate += w_h
        rate, off = rate.ravel(), off.ravel()

        def phase(t, base):
            j = base + np.minimum((t * (1.0 / win)).astype(np.int64),
                                  n_win - 1)
            return rate[j] * t + off[j]
    else:
        def phase(t, base):
            return w_h * t

    if not device.noise.affects_excited:
        p_r = r_probability(s_addr * cw_branch_contrast(device.f_e_hz,
                                                        device.t1_s))

    # per live segment: in-batch index, jitter-row base, clock, reference
    # phase and the signed success amplitude s_addr * (hole Bloch z)
    seg = np.arange(n, dtype=np.uint16)
    base = np.arange(n) * n_win
    clock, ref = np.zeros(n), np.zeros(n)
    amp = s_addr * np.where(rng.random(n) < 0.5, -1.0, 1.0)
    signs = np.array([-s_addr, s_addr])  # amp after an L, an R emission

    # emissions in round order, in buffers that double when full
    ev_seg, ev_is_r, ev_time = (np.empty(16 * n, dtype=t)
                                for t in (np.uint16, bool, float))
    attempts = n_ev = 0
    guard = int(3.0 * seg_len * pump + 10.0 * math.sqrt(seg_len * pump) + 200)
    for _ in range(guard):
        if not seg.size:
            break
        t_att = clock + rng.exponential(1.0 / pump, seg.size)
        if t_att.max() >= seg_len:
            live = t_att < seg_len
            seg, base, ref, amp, t_att = (
                a[live] for a in (seg, base, ref, amp, t_att))
        attempts += seg.size
        hit = (rng.random(seg.size) < p_half * (
            1.0 + precessed_z(amp, phase(t_att, base) - ref))).nonzero()[0]
        t_em = t_att[hit] + rng.exponential(device.t1_s, hit.size)
        if device.noise.affects_excited:
            p_r = r_probability(s_addr * cw_branch_contrast(
                device.f_e_hz + device.noise.sample(rng, hit.size),
                device.t1_s))
        is_r = rng.random(hit.size) < p_r
        end = n_ev + hit.size
        if end > ev_time.size:
            ev_seg, ev_is_r, ev_time = (_grown(a, n_ev)
                                        for a in (ev_seg, ev_is_r, ev_time))
        ev_seg[n_ev:end], ev_is_r[n_ev:end] = seg[hit], is_r
        ev_time[n_ev:end], n_ev = t_em, end
        # a success consumes the hole until the emission re-creates it
        clock = t_att
        clock[hit] = t_em
        ref[hit] = phase(t_em, base[hit])
        amp[hit] = signs[is_r.view(np.uint8)]
    else:
        raise RuntimeError("cw segment loop exceeded its iteration guard")

    in_seg = ev_time[:n_ev] < seg_len
    seg_idx, is_r, t_in_seg = (a[:n_ev][in_seg]
                               for a in (ev_seg, ev_is_r, ev_time))
    del ev_seg, ev_is_r, ev_time, in_seg
    emissions = seg_idx.shape[0]
    seg_idx, ch, proj, t_in_seg = _recorded(rng, config, seg_idx, is_r,
                                            t_in_seg)
    del is_r
    order = np.argsort(seg_idx, kind="stable")
    shots = (start_seg + seg_idx[order].astype(np.int64)).astype(np.uint32)
    times = shots * config.stride_s + t_in_seg[order]
    return (shots, ch[order], proj[order], times), {
        "n_shots": n, "n_attempts": attempts, "n_emitted": emissions}


def _cw_batch(device, config, batch_index, start_seg, n):
    """Events of a cw batch, from `cw_photons`."""
    photons, counters = cw_photons((device, config, batch_index, start_seg, n))
    return make_events(*photons), counters


def batch_tasks(device: DeviceParams, config: ProtocolConfig) -> list:
    """The fixed batch cut of one run, as (device, config, batch index,
    first shot, shot count) tasks for `run_batch`."""
    size = _KINDS[config.kind].batch()
    return [(device, config, b, b * size, min(size, config.n_shots - b * size))
            for b in range((config.n_shots + size - 1) // size)]


def run_batch(task):
    """(events, counters) of one batch task, the events in (shot, time)
    order."""
    return _KINDS[task[1].kind].engine(*task)


def resolve_workers(workers=None) -> int:
    """Worker count with the TRIONSIM_WORKERS environment override,
    capped at the CPU count."""
    if workers is None:
        env = os.environ.get("TRIONSIM_WORKERS", "").strip()
        workers = int(env) if env else 1
    if workers < 1:
        raise ValueError("worker count must be >= 1")
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
    """Simulate one protocol and return the stream in (shot, time) order.

    Batches cover increasing shot ranges and each comes back sorted, so
    the stream is their concatenation.
    """
    results = list(map_batches(run_batch, batch_tasks(device, config),
                               workers))
    events = results[0][0] if len(results) == 1 else \
        np.concatenate([ev for ev, _ in results])
    diagnostics: dict = {}
    for _, diag in results:
        for key, val in diag.items():
            if isinstance(val, (int, np.integer)):
                diagnostics[key] = diagnostics.get(key, 0) + int(val)
    diagnostics["n_events"] = int(events.shape[0])
    if "segment_length_s" in _KINDS[config.kind].reads:
        diagnostics["live_time_s"] = config.n_shots * config.segment_length_s
    return EventStream(events, device, config, diagnostics)


@dataclass(frozen=True)
class _Kind:
    """The facts of one protocol kind, which the config and run read."""

    reads: tuple     # the `_TIMING` fields it reads
    exc_pols: tuple  # its default pulses, which fix each one's class
    det_pols: tuple  # its default detection channels
    channels: int    # its detection channel count, 0 for any
    batch: object    # its batch size, read from the constant when called
    engine: object   # a batch task's fields -> (events, counters)


_KINDS = {
    ProtocolKind.LIFETIME: _Kind(
        reads=("rep_period_s",), exc_pols=(Pol.R,),
        det_pols=((Pol.R, Pol.L),), channels=0,
        batch=lambda: LIFETIME_BATCH, engine=_lifetime_batch),
    ProtocolKind.CW_G2: _Kind(
        reads=("pump_rate_hz", "segment_length_s"), exc_pols=(Pol.R,),
        det_pols=((Pol.R, Pol.L), (Pol.R, Pol.L)), channels=2,
        batch=lambda: CW_SEGMENT_BATCH, engine=_cw_batch),
    ProtocolKind.PULSED_2PC: _Kind(
        reads=("rep_period_s", "pulse_delay_s"), exc_pols=(Pol.R, Pol.H),
        det_pols=((Pol.R,), (Pol.R, Pol.L)), channels=2,
        batch=lambda: LIFETIME_BATCH, engine=_pulsed_batch),
}
_KINDS[ProtocolKind.DOCP_ZERO_FIELD] = _KINDS[ProtocolKind.LIFETIME]
