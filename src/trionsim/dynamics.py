"""Spin dynamics: the precession and selection-rule kernel the engines
call.

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
amplitudes to the trion doublet keeps the rotation axis, so precession in
the ground doublet and then in the trion doublet is one rotation by the
sum of the angles.

The selection rule then weighs such a state by (1 + z0 cos th)/2, which
is cos^2(th/2) for z0 = +1 and sin^2(th/2) = cos^2(th/2 + pi/2) for z0 =
-1.  The kernel takes cos^2 from the half-angle tangent, 1/(1 + tan^2):
numpy's float64 tan is vectorised and its cos is not, so this is several
times cheaper than a cosine.  The engines' events depend on the kernel's
expressions bit for bit.
"""
from __future__ import annotations

import math

import numpy as np

from .core import Pol


def addressed_z(pol: Pol) -> float:
    """Bloch z of the hole and trion states a circular pulse couples:
    R drives |dn> -> |Tdn> (z = +1), L the spin-up pair (z = -1)."""
    return 1.0 if pol is Pol.R else -1.0


def half_angle_weight(half, scale=1.0, out=None):
    """scale cos^2(half), as scale / (1 + tan^2(half)), as an array (out,
    if given, may be `half` itself).  The tangent of a finite double is
    finite (about 1e16 next to an odd multiple of pi/2, where cos^2 is
    near 0), so the weight lies in [0, scale] with no NaN."""
    w = np.tan(half, out=np.empty(np.shape(half)) if out is None else out)
    w *= w
    w += 1.0
    return np.divide(scale, w, out=w)


def half_angle_shift(z0):
    """The half-angle shift of the weight of an eigenstate of Bloch z
    `z0`: 0 for z0 = +1 and pi/2 for z0 = -1, so that half_angle_weight
    of theta/2 plus the shift is (1 + z0 cos theta)/2."""
    return np.where(np.asarray(z0) < 0.0, 0.5 * math.pi, 0.0)


def precessed_r_probability(z0, theta, out=None):
    """Probability that a trion precessed by `theta` from the eigenstate
    of Bloch z `z0` (+1 or -1) decays through |Tdn>, emitting R:
    (1 + z0 cos theta)/2, as an array (out, if given, may be `theta`
    itself).  It is taken as cos^2(theta/2) or 1 - cos^2, not as a
    shifted half angle, so it stays exact to about 1e-16 where adding
    pi/2 to a large half angle would round."""
    p = np.multiply(theta, 0.5,
                    out=np.empty(np.shape(theta)) if out is None else out)
    half_angle_weight(p, out=p)
    p -= 0.5
    p *= z0
    p += 0.5
    return p


def r_probability(b_z):
    """Probability that a trion of Bloch z `b_z` decays through |Tdn>,
    emitting R."""
    return 0.5 * (1.0 + b_z)


def cw_branch_contrast(f_e_hz, t1_s):
    """Trion Bloch z at emission from the excited eigenstate z = 1, averaged
    over the decay delay: <cos(2 pi f_e t)>_T1 = 1/(1 + (2 pi f_e T1)^2)."""
    omega_t1 = 2.0 * math.pi * f_e_hz * t1_s
    return 1.0 / (1.0 + omega_t1 ** 2)
