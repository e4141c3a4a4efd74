"""Spin dynamics: the precession and selection-rule kernel the engines
call, the spinor layer it is checked against, and the closed-form traces.

The in-plane field B_x drives Larmor precession about x in each doublet,
H = (dE/2) sigma_x, so the propagator over dt is exp(-i pi f dt sigma_x)
with f the doublet's Larmor frequency.  Recombination follows the
circular selection rules: the spin-up trion decays to the spin-up hole
emitting L, the spin-down trion to the spin-down hole emitting R.

Kernel: the engines track a doublet as (b_y, b_z) of its Bloch vector,
with b_z = |a_dn|^2 - |a_up|^2 (+1 for the hole |dn> and the trion
|Tdn>, the pair R light couples) and b_y = 2 Im(conj(a_dn) a_up).
Precession by th = 2 pi f dt rotates (b_y, b_z) about x, taking an
eigenstate z0 to (-z0 sin th, z0 cos th).  A pulse that lifts the hole
amplitudes to the trion keeps the rotation axis, so precession in the
ground doublet and then in the trion doublet is one rotation by the sum
of the angles.  The engines' events depend on the kernel's expressions
bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DeviceParams, NoiseKind, NoiseModel, Pol, SpinHalfState, Subspace,
    jones_vector, larmor_frequency, orthogonal,
)

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


def addressed_z(pol: Pol) -> float:
    """Bloch z of the hole and trion states a circular pulse couples:
    R drives |dn> -> |Tdn> (z = +1), L the spin-up pair (z = -1)."""
    return 1.0 if pol is Pol.R else -1.0


def precessed_z(z0, theta):
    """Bloch z of an eigenstate of Bloch z `z0` precessed by `theta`."""
    return z0 * np.cos(theta)


def r_probability(b_z):
    """Probability that a trion of Bloch z `b_z` decays through |Tdn>,
    emitting R."""
    return 0.5 * (1.0 + b_z)


def cw_branch_contrast(f_e_hz, t1_s):
    """Trion Bloch z at emission from the excited eigenstate z = 1, averaged
    over the decay delay: <cos(2 pi f_e t)>_T1 = 1/(1 + (2 pi f_e T1)^2)."""
    omega_t1 = 2.0 * math.pi * f_e_hz * t1_s
    return 1.0 / (1.0 + omega_t1 ** 2)


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
