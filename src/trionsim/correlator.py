"""Event-stream reduction: histograms, correlations, maps, and DOCP.

All binning is half-open [edge_i, edge_{i+1}); a value exactly on the
last edge is dropped.  This makes pair counting exactly reproducible,
merge-associative, and invariant under bin refinement.

Each protocol kind has one reducer, which the `pipeline` workers call on
an engine batch and `analyze` on a file's records: `bin_lifetime`,
`correlate_cw` and `build_map2d`.  Each takes a run of whole shots and
explicit edges, and returns raw counts that add over disjoint shot
ranges.

The reducers rely on the order of every run of records where it enters
(`montecarlo.run_batch` builds it, `events_io.read_events` checks it):
records in (shot, time) order, each time at or after its shot's start
and, for cw, at most one segment length after it.  So `build_map2d`
pairs a shot's adjacent records in one pass, and `correlate_cw` takes
each channel's times as sorted.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Pol, orthogonal
from .montecarlo import ProtocolKind

MAP_BIN_S = 10e-12
MAP_SPAN_S = 2e-9
# the default edges of both map axes: MAP_BIN_S bins over [0, MAP_SPAN_S]
MAP_EDGES = MAP_BIN_S * np.arange(0, int(round(MAP_SPAN_S / MAP_BIN_S)) + 1)
MAP_EDGES.setflags(write=False)
LIFETIME_BIN_S = 10e-12
CW_BIN_S = 100e-12

_PAIR_CHUNK = 200_000


@dataclass
class Histogram1D:
    """Binned counts with per-bin errors.

    `counts` is integer for raw histograms and float after plateau
    normalization; errors always propagate in quadrature.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    errors: np.ndarray

    def __post_init__(self):
        self.bin_edges = np.asarray(self.bin_edges, dtype=float)
        if self.bin_edges.ndim != 1 or self.bin_edges.size < 2:
            raise ValueError("need at least one bin")
        if not np.all(np.diff(self.bin_edges) > 0):
            raise ValueError("bin edges must be strictly increasing")
        self.counts = np.asarray(self.counts)
        self.errors = np.asarray(self.errors, dtype=float)
        if self.counts.shape != (self.bin_edges.size - 1,) or \
                self.errors.shape != self.counts.shape:
            raise ValueError("counts/errors must match the bin count")
        if np.any(np.asarray(self.counts, dtype=float) < 0):
            raise ValueError("counts must be >= 0")

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def total(self):
        return self.counts.sum()

    def __add__(self, other: "Histogram1D") -> "Histogram1D":
        if not np.array_equal(self.bin_edges, other.bin_edges):
            raise ValueError("histograms have different binning")
        return Histogram1D(self.bin_edges, self.counts + other.counts,
                           np.sqrt(self.errors ** 2 + other.errors ** 2))

    def scaled(self, factor: float) -> "Histogram1D":
        return Histogram1D(self.bin_edges, self.counts * factor,
                           self.errors * factor)


@dataclass
class DocpTrace:
    """Degree of circular polarization per time bin with binomial errors.

    Bins without any counts are flagged invalid and carry NaN values
    rather than zeros.
    """

    times: np.ndarray
    values: np.ndarray
    errors: np.ndarray
    n_total: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        ok = self.valid
        if np.any(np.abs(self.values[ok]) > 1.0 + 1e-12):
            raise ValueError("|DOCP| must not exceed 1")


@dataclass
class Map2D:
    """Two-photon coincidence map over (t1, t2) within-shot times."""

    t1_edges: np.ndarray
    t2_edges: np.ndarray
    counts: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.counts.shape != (self.t1_edges.size - 1,
                                 self.t2_edges.size - 1):
            raise ValueError("counts matrix does not match the bin grid")

    @property
    def t1_centers(self) -> np.ndarray:
        return 0.5 * (self.t1_edges[:-1] + self.t1_edges[1:])

    @property
    def t2_centers(self) -> np.ndarray:
        return 0.5 * (self.t2_edges[:-1] + self.t2_edges[1:])

    def __add__(self, other: "Map2D") -> "Map2D":
        """Counts and diagnostics of two maps of disjoint shot ranges."""
        if not (np.array_equal(self.t1_edges, other.t1_edges)
                and np.array_equal(self.t2_edges, other.t2_edges)):
            raise ValueError("maps have different binning")
        keys = {**self.diagnostics, **other.diagnostics}
        return Map2D(self.t1_edges, self.t2_edges, self.counts + other.counts,
                     {k: self.diagnostics.get(k, 0) + other.diagnostics.get(k, 0)
                      for k in keys})


def _bin_values(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Counts per half-open bin of the uniform `edges` (a bin width times
    consecutive integers); values outside [edges[0], edges[-1]), NaN
    included, are dropped.

    The bin is guessed from the spacing and corrected by one against
    `edges`, which gives the `searchsorted` bins at a fraction of the cost.
    """
    n = edges.size - 1
    lo, hi = edges[0], edges[-1]
    v = values[(values >= lo) & (values < hi)]
    # the guess is off by at most one bin either way
    idx = np.minimum(((v - lo) * (n / (hi - lo))).astype(np.intp), n - 1)
    idx -= v < edges[idx]
    idx += v >= edges[idx + 1]
    return np.bincount(idx, minlength=n).astype(np.int64)


def cw_window_edges(config, window_s: float,
                    bin_s: float = CW_BIN_S) -> np.ndarray:
    """The pair-delay bin edges over +/-window_s of a cw correlation of a
    run with `config`.  The edges must stay within one segment length:
    segments lie two lengths apart, so then no pair crosses a segment, and
    per-batch pair counts sum to the whole stream's."""
    if config.kind is not ProtocolKind.CW_G2:
        raise ValueError("cw correlations need a cw_g2 stream")
    if window_s > config.segment_length_s:
        raise ValueError("window exceeds the segment length")
    if bin_s <= 0:
        raise ValueError("bin width must be > 0")
    if window_s < bin_s:
        raise ValueError("window must cover at least one bin")
    half = int(round(window_s / bin_s))
    edges = bin_s * np.arange(-half, half + 1)
    # rounding to whole bins may widen the window past the segment
    if edges[-1] > config.segment_length_s:
        raise ValueError("window exceeds the segment length")
    return edges


def _pair_deltas_binned(t0: np.ndarray, t1: np.ndarray,
                        edges: np.ndarray) -> np.ndarray:
    """Counts of t1-t0 over all pairs within the edge span, in chunks of
    about _PAIR_CHUNK pairs."""
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    lo_all = np.searchsorted(t1, t0 + edges[0], side="left")
    n_pairs = np.searchsorted(t1, t0 + edges[-1], side="right") - lo_all
    cum = np.cumsum(n_pairs)
    # chunk k ends after the first t0 whose running pair count reaches
    # k * _PAIR_CHUNK, so it holds below _PAIR_CHUNK + max(n_pairs) pairs
    stops = np.searchsorted(
        cum, np.arange(_PAIR_CHUNK, cum[-1] if cum.size else 0, _PAIR_CHUNK))
    bounds = np.unique(np.concatenate(([0], stops + 1, [t0.size])))
    for start, stop in zip(bounds[:-1], bounds[1:]):
        m = n_pairs[start:stop]
        total = int(m.sum())
        if total:
            # flat indices of each [lo_i, lo_i + m_i) run
            j = np.repeat(lo_all[start:stop] - (np.cumsum(m) - m), m)
            j += np.arange(total)
            d = t1[j]
            d -= np.repeat(t0[start:stop], m)
            counts += _bin_values(d, edges)
    return counts


def correlate_cw(channel, projection, time, pairing: str, edges,
                 start_stop: bool = False) -> Histogram1D:
    """Raw pair correlation over `edges` of cw records given as field
    arrays in (segment, time) order.

    `pairing` follows the excitation/detection naming: "RR" correlates
    the R-projected clicks of both channels, "RL" the L-projected ones.
    All channel-0 x channel-1 pairs within the edges are counted (or,
    with start_stop, only each channel-0 click's next channel-1 click).
    The counts of the batches of one run add up to those of the whole
    run (see `cw_window_edges`).
    """
    pairing = pairing.upper()
    if pairing not in ("RR", "RL"):
        raise ValueError("pairing must be 'RR' or 'RL'")
    proj = int(Pol.R if pairing == "RR" else Pol.L)
    mine = projection == proj
    # compress, not a boolean index: about 4x faster on these masks,
    # which select around a third of the records with no pattern
    t0 = np.compress(mine & (channel == 0), time)
    t1 = np.compress(mine & (channel == 1), time)
    if t0.size == 0 or t1.size == 0:
        c = np.zeros(edges.size - 1, dtype=np.int64)
    elif start_stop:
        nxt = np.searchsorted(t1, t0, side="right")
        ok = nxt < t1.size
        c = _bin_values(t1[nxt[ok]] - t0[ok], edges)
    else:
        c = _pair_deltas_binned(t0, t1, edges)
    return Histogram1D(edges, c, np.sqrt(c))


def plateau_normalized(hist: Histogram1D, window_s: float) -> Histogram1D:
    """Rescale a cw correlation to the plateau level of its outer quarter.

    That quarter must hold a bin center.  A histogram without counts (no
    pair, as when a channel has no click) is returned as it is.
    """
    plateau = np.abs(hist.centers) >= 0.75 * window_s
    if not plateau.any():
        raise ValueError(
            f"cannot normalize: no bin of {np.diff(hist.bin_edges)[0]:g} s "
            f"in the outer quarter of window {window_s:g} s")
    if hist.total == 0:
        return hist
    level = hist.counts[plateau].mean()
    if level <= 0:
        raise ValueError("cannot normalize: empty plateau")
    return hist.scaled(1.0 / level)


def docp(h_rr: Histogram1D, h_rl: Histogram1D) -> DocpTrace:
    """Per-bin (RR - RL) / (RR + RL) with binomial errors."""
    if not np.array_equal(h_rr.bin_edges, h_rl.bin_edges):
        raise ValueError("histograms have different binning")
    a = np.asarray(h_rr.counts, dtype=float)
    b = np.asarray(h_rl.counts, dtype=float)
    n = a + b
    valid = n > 0
    values = np.full(a.shape, np.nan)
    errors = np.full(a.shape, np.nan)
    values[valid] = (a[valid] - b[valid]) / n[valid]
    errors[valid] = np.sqrt((1.0 - values[valid] ** 2) / n[valid])
    return DocpTrace(h_rr.centers, values, errors, n, valid)


def lifetime_edges(device, config, bin_s: float = LIFETIME_BIN_S,
                   span_s: float | None = None) -> np.ndarray:
    """The within-shot time bin edges of `bin_lifetime` for a run of
    `device` with `config`; the span defaults to the shorter of the
    repetition period and 10 T1."""
    if span_s is None:
        span_s = min(config.rep_period_s, 10.0 * device.t1_s)
    return bin_s * np.arange(0, int(round(span_s / bin_s)) + 1)


def bin_lifetime(events: np.ndarray, config, edges) -> tuple:
    """Raw co- and cross-polarized (to the excitation) histograms over
    `edges` of the within-shot detection times of `events`, records of a
    run with `config`, taken in one pass."""
    exc = config.exc_pols[0]
    # time - shot * stride_s, with no second record-long array
    t_rel = events["shot"] * config.stride_s
    np.subtract(events["time"], t_rel, out=t_rel)
    proj = events["projection"]
    counts = (_bin_values(t_rel[proj == int(p)], edges)
              for p in (exc, orthogonal(exc)))
    return tuple(Histogram1D(edges, c, np.sqrt(c)) for c in counts)


def build_map2d(events: np.ndarray, config, n_shots: int,
                t1_edges=None, t2_edges=None) -> tuple:
    """The R and L maps of the events of `n_shots` shots of a run with
    `config`, in (shot, time) order, paired in one pass.

    t1 is the channel-0 click time after pulse 1, t2 the channel-1 click
    time after pulse 2, and the channel-1 click's projection picks the
    map.  A shot is used when it has exactly two records, one on each
    channel; every other shot is dropped and tallied.  Maps of disjoint
    shot ranges add up (`Map2D.__add__`) to the map of their union, so
    each engine batch can be reduced on its own.
    """
    if config.kind is not ProtocolKind.PULSED_2PC:
        raise ValueError("two-photon maps need a pulsed_2pc stream")
    shot, ch = events["shot"], events["channel"]
    # the first record of each shot's run of records, then the end
    starts = np.concatenate(
        ([0], np.flatnonzero(shot[1:] != shot[:-1]) + 1, [shot.size]))
    first = starts[:-1][np.diff(starts) == 2]
    i0 = first + (ch[first] != 0)
    i1 = first + (ch[first] == 0)
    apart = (ch[i0] == 0) & (ch[i1] == 1)
    i0, i1 = i0[apart], i1[apart]
    t1 = events["time"][i0] - shot[i0] * config.stride_s
    t2 = (events["time"][i1] - shot[i1] * config.stride_s
          - config.pulse_delay_s)
    return _pair_maps(t1, t2, events["projection"][i1], n_shots,
                      t1_edges, t2_edges)


def count_photon_maps(photon1, photon2, config, first_shot: int,
                      n_shots: int, t1_edges=None) -> tuple:
    """The R and L maps (`build_map2d`) of one pulsed batch, taken from
    its recorded photons 1 and 2 as `montecarlo.pulsed_photons` returns
    them, with no events built.

    A shot has exactly one click per channel when both its photons are
    recorded on different channels; the channel-1 photon's projection
    picks its map.  Times are taken with the same float arithmetic as
    the events' and `build_map2d`'s, so the maps equal `build_map2d` of
    the batch's events (over the same edges) bit for bit.
    """
    shot1, ch1, proj1, tau1 = photon1
    shot2, ch2, proj2, tau2 = photon2
    # position of each shot's photon 2, -1 where none was recorded
    at2 = np.full(n_shots, -1, dtype=np.int64)
    at2[shot2] = np.arange(shot2.size)
    j = at2[shot1]
    i = np.flatnonzero(j >= 0)
    j = j[i]
    apart = ch1[i] != ch2[j]
    i, j = i[apart], j[apart]
    first_on_0 = ch1[i] == 0
    # within-shot times as (event time) - shot * stride_s
    base = (first_shot + shot1[i]) * config.stride_s
    w1 = (base + tau1[i]) - base
    w2 = (base + tau2[j]) - base
    t1 = np.where(first_on_0, w1, w2)
    t2 = np.where(first_on_0, w2, w1) - config.pulse_delay_s
    proj = np.where(first_on_0, proj2[j], proj1[i])
    return _pair_maps(t1, t2, proj, n_shots, t1_edges)


def _pair_maps(t1, t2, proj, n_shots, t1_edges=None, t2_edges=None) -> tuple:
    """The R and L maps of the (t1, t2) pairs of the shots used out of
    `n_shots`, each pair in the map of its channel-1 projection `proj`;
    edges left as None take MAP_EDGES."""
    t1_edges = MAP_EDGES if t1_edges is None else np.asarray(t1_edges, float)
    t2_edges = MAP_EDGES if t2_edges is None else np.asarray(t2_edges, float)
    k1 = np.searchsorted(t1_edges, t1, side="right") - 1
    k2 = np.searchsorted(t2_edges, t2, side="right") - 1
    n1, n2 = t1_edges.size - 1, t2_edges.size - 1
    ok = (k1 >= 0) & (k1 < n1) & (k2 >= 0) & (k2 < n2)
    flat = k1 * n2 + k2

    def one(mine):
        hit = mine & ok
        counts = np.bincount(flat[hit], minlength=n1 * n2)
        used = int(np.count_nonzero(mine))
        return Map2D(t1_edges, t2_edges,
                     counts.reshape(n1, n2).astype(np.int64),
                     {"shots_used": used, "shots_dropped": int(n_shots - used),
                      "pairs_in_range": int(np.count_nonzero(hit))})
    return one(proj == int(Pol.R)), one(proj == int(Pol.L))


def slice_map(map2d: Map2D, t1_fixed: float,
              tolerance_s: float | None = None) -> Histogram1D:
    """Marginalize rows with |t1 - t1_fixed| <= tolerance down to t2."""
    widths = np.diff(map2d.t1_edges)
    if tolerance_s is None:
        tolerance_s = float(widths.max())
    rows = np.abs(map2d.t1_centers - t1_fixed) <= tolerance_s * (1 + 1e-9)
    if not rows.any():
        raise ValueError("no map rows inside the slice tolerance")
    counts = map2d.counts[rows].sum(axis=0)
    return Histogram1D(map2d.t2_edges, counts, np.sqrt(counts))


def _fmt(x) -> str:
    return x if isinstance(x, str) else f"{x:.9g}"


def write_csv(path, meta: dict | None, column_names, rows):
    """CSV with one `# key = value` comment line per meta entry."""
    with open(path, "w") as f:
        for key, value in (meta or {}).items():
            f.write(f"# {key} = {value}\n")
        f.write(",".join(column_names) + "\n")
        for row in rows:
            f.write(",".join(_fmt(x) for x in row) + "\n")


def write_docp_csv(path, trace: DocpTrace, meta: dict | None = None):
    rows = ((t, v, e, n) for t, v, e, n, ok in
            zip(trace.times, trace.values, trace.errors, trace.n_total,
                trace.valid) if ok)
    write_csv(path, meta, ("time_s", "docp", "error", "n_total"), rows)


def write_map_csv(path, map2d: Map2D, meta: dict | None = None):
    rows = ((t1, t2, map2d.counts[i, j])
            for i, t1 in enumerate(map2d.t1_centers)
            for j, t2 in enumerate(map2d.t2_centers))
    write_csv(path, meta, ("t1_s", "t2_s", "counts"), rows)
