"""Test oracles: the spinor layer and the closed-form traces that the
`dynamics` kernel and the engines are checked against.

The spinor layer holds spin-1/2 states of the hole (ground) and trion
doublets, their 2x2 Larmor propagators and the circular-selection-rule
emission branches.  The closed forms are the dephasing envelope, the
polarization-resolved decay trace with its contrast, and the heralded
contrast env(dt) cos(2 pi f_h dt).  Nothing in `trionsim` runs them;
only the tests import this module.

The stream helpers at the end apply each kind's reducer to a whole
`EventStream`, over the edges that `analyze` builds from the same
options.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from trionsim.core import (PLANCK_EV_S, DeviceParams, NoiseKind, NoiseModel,
                           Pol, jones_vector, larmor_frequency, orthogonal,
                           zeeman_splitting)
from trionsim.correlator import (CW_BIN_S, LIFETIME_BIN_S, DocpTrace,
                                 Histogram1D, bin_lifetime, build_map2d,
                                 correlate_cw, cw_window_edges, docp,
                                 lifetime_edges)
from trionsim.montecarlo import EventStream


class Subspace(enum.Enum):
    """Which two-level subspace a spinor lives in."""

    GROUND = "ground_z"
    TRION = "trion_z"


@dataclass(frozen=True, eq=False)
class SpinHalfState:
    """Pure state of one spin-1/2 subspace, amplitudes in the z basis.

    Index 0 is the spin-up eigenstate (hole spin-up / trion spin-up),
    index 1 spin-down.  The norm must be 1 within 1e-12.
    """

    amplitudes: np.ndarray
    basis_tag: Subspace

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (2,):
            raise ValueError("a spin-1/2 state needs exactly 2 amplitudes")
        norm2 = float(np.real(np.vdot(amps, amps)))
        if abs(norm2 - 1.0) > 1e-12:
            raise ValueError(f"state norm^2 = {norm2!r} violates normalization")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "basis_tag", Subspace(self.basis_tag))

    @classmethod
    def hole_up(cls):
        return cls(np.array([1.0, 0.0]), Subspace.GROUND)

    @classmethod
    def hole_down(cls):
        return cls(np.array([0.0, 1.0]), Subspace.GROUND)

    @classmethod
    def trion_up(cls):
        return cls(np.array([1.0, 0.0]), Subspace.TRION)

    @classmethod
    def trion_down(cls):
        return cls(np.array([0.0, 1.0]), Subspace.TRION)

    def population_up(self) -> float:
        return float(abs(self.amplitudes[0]) ** 2)

    def population_down(self) -> float:
        return float(abs(self.amplitudes[1]) ** 2)


def larmor_halfperiod(g: float, b_t: float) -> float:
    """Time to precess between the two z eigenstates, h / (2 dE).

    Returns math.inf when the splitting vanishes: no precession.
    """
    de = zeeman_splitting(g, b_t)
    if de == 0.0:
        return math.inf
    return PLANCK_EV_S / (2.0 * de)


_UNITARITY_ATOL = 1e-10


@dataclass(frozen=True, eq=False)
class Propagator2:
    """A 2x2 unitary acting on one doublet for a fixed duration."""

    matrix: np.ndarray
    duration_s: float
    subspace: Subspace

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("propagator must be 2x2")
        dev = np.abs(m @ m.conj().T - np.eye(2)).max()
        if dev > _UNITARITY_ATOL:
            raise ValueError(f"propagator deviates from unitarity by {dev:.3e}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __matmul__(self, other: "Propagator2") -> "Propagator2":
        if self.subspace is not other.subspace:
            raise ValueError("cannot compose propagators of different subspaces")
        return Propagator2(self.matrix @ other.matrix,
                           self.duration_s + other.duration_s, self.subspace)

    def apply(self, state: SpinHalfState) -> SpinHalfState:
        if state.basis_tag is not self.subspace:
            raise ValueError("state subspace does not match propagator")
        return SpinHalfState(self.matrix @ state.amplitudes, state.basis_tag)


def rotation_x(angle: float) -> np.ndarray:
    """exp(-i angle sigma_x / 2)."""
    c = math.cos(angle / 2.0)
    s = math.sin(angle / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def make_propagator(params: DeviceParams, subspace: Subspace, dt_s: float) -> Propagator2:
    """Larmor propagator of one doublet over dt_s (noise-free)."""
    if dt_s < 0:
        raise ValueError("dt must be >= 0")
    subspace = Subspace(subspace)
    g = params.g_h if subspace is Subspace.GROUND else params.g_e
    f = larmor_frequency(g, params.b_x_t)
    return Propagator2(rotation_x(2.0 * math.pi * f * dt_s), dt_s, subspace)


@dataclass(frozen=True, eq=False)
class EmissionBranch:
    ground: SpinHalfState
    photon_pol: Pol
    photon_jones: np.ndarray
    weight: float


def emit_amplitudes(trion: SpinHalfState) -> tuple[EmissionBranch, EmissionBranch]:
    """Decay branches of a trion state per the circular selection rules.

    Returns the (spin-up -> L) branch and the (spin-down -> R) branch with
    their probabilities.  The branch weights sum to 1; sampling a branch
    reproduces the statistics of the photon-hole entangled decay for any
    detection in the circular basis.
    """
    if trion.basis_tag is not Subspace.TRION:
        raise ValueError("emission requires a trion-subspace state")
    a_up, a_down = trion.amplitudes
    up = EmissionBranch(SpinHalfState.hole_up(), Pol.L, jones_vector(Pol.L),
                        float(abs(a_up) ** 2))
    down = EmissionBranch(SpinHalfState.hole_down(), Pol.R, jones_vector(Pol.R),
                          float(abs(a_down) ** 2))
    return up, down


def envelope_factor(noise: NoiseModel, t_s):
    """Ensemble dephasing envelope <cos(2 pi df t)> of the jitter model.

    Lorentzian jitter of HWHM gamma gives exp(-2 pi gamma t) (exponent
    alpha = 1, T2* = 1/(2 pi gamma)); Gaussian jitter of width sigma gives
    exp(-2 pi^2 sigma^2 t^2) (alpha = 2, T2* = 1/(sqrt(2) pi sigma)).
    """
    t = np.asarray(t_s, dtype=float)
    if np.any(t < 0):
        raise ValueError("envelope time must be >= 0")
    if noise.kind is NoiseKind.NONE or noise.width_hz == 0.0:
        out = np.ones_like(t)
    elif noise.kind is NoiseKind.LORENTZIAN:
        out = np.exp(-2.0 * math.pi * noise.width_hz * t)
    else:
        out = np.exp(-2.0 * (math.pi * noise.width_hz * t) ** 2)
    return out if out.ndim else float(out)


def lifetime_trace(params: DeviceParams, exc_pol: Pol, det_pol: Pol, t_s):
    """Polarization-resolved decay trace after a circular excitation pulse.

    I(t) = exp(-t/T1) * (1 +/- C * env(t) * cos(2 pi f_e t)) / 2 with the
    plus sign for co-polarized detection and minus for cross-polarized.
    The contrast C equals p_mem and env(t) is the excited-subspace jitter
    envelope (1 if the noise does not touch the excited doublet).
    """
    exc_pol = Pol(exc_pol)
    det_pol = Pol(det_pol)
    if exc_pol not in (Pol.R, Pol.L):
        raise ValueError("excitation must be circular")
    if det_pol not in (exc_pol, orthogonal(exc_pol)):
        raise ValueError("detection must be co- or cross-circular")
    t = np.asarray(t_s, dtype=float)
    if np.any(t < 0):
        raise ValueError("trace times must be >= 0")
    sign = 1.0 if det_pol is exc_pol else -1.0
    env = envelope_factor(params.noise, t) if params.noise.affects_excited else 1.0
    osc = np.cos(2.0 * math.pi * params.f_e_hz * t)
    out = np.exp(-t / params.t1_s) * 0.5 * (1.0 + sign * params.p_mem * env * osc)
    return out if out.ndim else float(out)


def lifetime_docp(params: DeviceParams, t_s):
    """Circular contrast (co - cross)/(co + cross) of the decay trace."""
    t = np.asarray(t_s, dtype=float)
    env = envelope_factor(params.noise, t) if params.noise.affects_excited else 1.0
    out = params.p_mem * env * np.cos(2.0 * math.pi * params.f_e_hz * t)
    return out if out.ndim else float(out)


def heralded_docp(params: DeviceParams, dt_s):
    """Expected circular contrast after a heralded ground spin precessed dt.

    A detection-heralded hole eigenstate precesses at f_h; re-reading it
    through the upper state yields DOCP = env(dt) * cos(2 pi f_h dt).
    """
    t = np.asarray(dt_s, dtype=float)
    env = envelope_factor(params.noise, t) if params.noise.affects_ground else 1.0
    out = env * np.cos(2.0 * math.pi * params.f_h_hz * t)
    return out if out.ndim else float(out)


def lifetime_docp_trace(stream: EventStream, bin_s: float = LIFETIME_BIN_S,
                        span_s: float | None = None) -> DocpTrace:
    """Co/cross circular contrast of a lifetime stream versus decay time."""
    return docp(*lifetime_histograms(stream, bin_s, span_s))


def lifetime_histograms(stream: EventStream, bin_s: float = LIFETIME_BIN_S,
                        span_s: float | None = None) -> tuple:
    """Co- and cross-polarized `bin_lifetime` histograms of a whole
    lifetime stream over its `lifetime_edges`."""
    return bin_lifetime(stream.events, stream.config, lifetime_edges(
        stream.device, stream.config, bin_s, span_s))


def correlate_stream(stream: EventStream, pairing: str, window_s: float,
                     bin_s: float = CW_BIN_S,
                     start_stop: bool = False) -> Histogram1D:
    """`correlate_cw` of a whole cw stream over +/-window_s."""
    ev = stream.events
    return correlate_cw(ev["channel"], ev["projection"], ev["time"], pairing,
                        cw_window_edges(stream.config, window_s, bin_s),
                        start_stop)


def stream_maps(stream: EventStream, t1_edges=None, t2_edges=None) -> tuple:
    """The R and L maps (`build_map2d`) of a whole pulsed stream."""
    return build_map2d(stream.events, stream.config, stream.config.n_shots,
                       t1_edges, t2_edges)
