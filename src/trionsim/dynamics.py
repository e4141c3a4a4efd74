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
amplitudes to the trion keeps the rotation axis, so precession in the
ground doublet and then in the trion doublet is one rotation by the sum
of the angles.  The engines' events depend on the kernel's expressions
bit for bit.
"""
from __future__ import annotations

import math

import numpy as np

from .core import Pol


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
