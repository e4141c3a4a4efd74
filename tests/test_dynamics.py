"""Analytic propagators, selection rules, the engines' precession and
selection-rule kernel, and closed-form traces."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from trionsim.core import (
    DeviceParams,
    NoiseModel,
    NoiseTarget,
    Pol,
    jones_vector,
    larmor_frequency,
)
from trionsim.dynamics import (
    addressed_z,
    cw_branch_contrast,
    half_angle_shift,
    half_angle_weight,
    precessed_r_probability,
    r_probability,
)

from oracles import (
    Propagator2,
    SpinHalfState,
    Subspace,
    emit_amplitudes,
    envelope_factor,
    gaussian_from_t2star,
    heralded_docp,
    larmor_halfperiod,
    lifetime_docp,
    lifetime_trace,
    make_propagator,
    precessed_z,
    rotation_x,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _device(g_e=2.09, g_h=0.362, t1_s=300e-12, p_mem=0.865, b_x_t=0.15,
            noise=None):
    return DeviceParams(g_e=g_e, g_h=g_h, t1_s=t1_s, p_mem=p_mem,
                        b_x_t=b_x_t, noise=noise or NoiseModel.quiet())


def _random_state(rng, subspace):
    amps = rng.normal(size=2) + 1j * rng.normal(size=2)
    amps /= np.linalg.norm(amps)
    return SpinHalfState(amps, subspace)


def _propagate(state, dev, dt):
    return make_propagator(dev, state.basis_tag, dt).apply(state)


def _bloch_yz(state):
    """(b_y, b_z) of a spinor in the kernel's convention: b_z = +1 for the
    spin-down states, b_y = 2 Im(conj(a_dn) a_up)."""
    a_up, a_dn = state.amplitudes
    return 2.0 * (np.conj(a_dn) * a_up).imag, abs(a_dn) ** 2 - abs(a_up) ** 2


def _larmor(dev, subspace):
    return dev.f_h_hz if subspace is Subspace.GROUND else dev.f_e_hz


def test_propagator_validation():
    with pytest.raises(ValueError):
        Propagator2(np.array([[1.0, 0.0], [0.0, 2.0]]), 1e-9,
                    Subspace.GROUND)
    with pytest.raises(ValueError):
        Propagator2(np.eye(3), 1e-9, Subspace.GROUND)
    u = Propagator2(rotation_x(0.3), 1e-9, Subspace.GROUND)
    v = Propagator2(rotation_x(0.5), 2e-9, Subspace.GROUND)
    w = u @ v
    assert w.duration_s == pytest.approx(3e-9)
    with pytest.raises(ValueError):
        u @ Propagator2(rotation_x(0.5), 1e-9, Subspace.TRION)


def test_propagator_matches_matrix_exponential():
    rng = np.random.default_rng(21)
    for _ in range(20):
        g_e, g_h = rng.uniform(0.05, 3.0, 2)
        b = rng.uniform(0.0, 0.5)
        dt = rng.uniform(0.0, 20e-9)
        dev = _device(g_e=g_e, g_h=g_h, b_x_t=b)
        for sub, g in ((Subspace.GROUND, g_h), (Subspace.TRION, g_e)):
            f = larmor_frequency(g, b)
            ref = expm(-1j * math.pi * f * dt * SIGMA_X)
            got = make_propagator(dev, sub, dt).matrix
            assert np.abs(got - ref).max() < 1e-12


def test_propagate_zero_field_is_identity():
    dev = _device(b_x_t=0.0)
    state = SpinHalfState.trion_up()
    out = _propagate(state, dev, 7e-9)
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_propagate_half_period_flips_trion():
    dev = _device()
    dt = larmor_halfperiod(dev.g_e, dev.b_x_t)
    assert dt == pytest.approx(113.95e-12, rel=1e-3)
    out = _propagate(SpinHalfState.trion_up(), dev, dt)
    overlap = abs(np.vdot(SpinHalfState.trion_down().amplitudes,
                          out.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_propagate_half_period_flips_hole():
    dev = _device(g_h=0.35, b_x_t=0.0375)
    dt = 0.5 / larmor_frequency(0.35, 0.0375)
    assert dt == pytest.approx(2.7218e-9, rel=1e-3)
    out = _propagate(SpinHalfState.hole_down(), dev, dt)
    overlap = abs(np.vdot(SpinHalfState.hole_up().amplitudes,
                          out.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_propagate_preserves_norm():
    rng = np.random.default_rng(22)
    for _ in range(30):
        dev = _device(g_e=rng.uniform(0.05, 3.0), g_h=rng.uniform(0.05, 3.0),
                      b_x_t=rng.uniform(0.0, 0.5))
        sub = Subspace.GROUND if rng.random() < 0.5 else Subspace.TRION
        state = _random_state(rng, sub)
        out = _propagate(state, dev, rng.uniform(0.0, 50e-9))
        norm = float(np.vdot(out.amplitudes, out.amplitudes).real)
        assert abs(norm - 1.0) < 1e-10


def test_propagate_composition():
    rng = np.random.default_rng(23)
    for _ in range(30):
        dev = _device(g_h=rng.uniform(0.05, 3.0), b_x_t=rng.uniform(0.0, 0.5))
        state = _random_state(rng, Subspace.GROUND)
        dt1, dt2 = rng.uniform(0.0, 20e-9, 2)
        once = _propagate(state, dev, dt1 + dt2)
        twice = _propagate(_propagate(state, dev, dt1), dev, dt2)
        assert np.abs(once.amplitudes - twice.amplitudes).max() < 1e-10


def test_emission_selection_rules():
    up, down = emit_amplitudes(SpinHalfState.trion_up())
    assert up.weight == pytest.approx(1.0, abs=1e-12)
    assert down.weight == pytest.approx(0.0, abs=1e-12)
    assert up.photon_pol is Pol.L
    assert np.array_equal(up.photon_jones, jones_vector(Pol.L))
    assert up.ground.population_up() == 1.0

    up, down = emit_amplitudes(SpinHalfState.trion_down())
    assert down.weight == pytest.approx(1.0, abs=1e-12)
    assert down.photon_pol is Pol.R
    assert down.ground.population_down() == 1.0


def test_emission_weights_sum_to_one():
    rng = np.random.default_rng(24)
    equal = SpinHalfState(np.array([1.0, 1.0]) / math.sqrt(2.0),
                          Subspace.TRION)
    up, down = emit_amplitudes(equal)
    assert up.weight == pytest.approx(0.5, abs=1e-12)
    assert down.weight == pytest.approx(0.5, abs=1e-12)
    for _ in range(20):
        up, down = emit_amplitudes(_random_state(rng, Subspace.TRION))
        assert up.weight + down.weight == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        emit_amplitudes(SpinHalfState.hole_up())


def test_lifetime_trace_perfect_memory_zero_field():
    dev = _device(p_mem=1.0, b_x_t=0.0)
    t = np.linspace(0.0, 2e-9, 101)
    co = lifetime_trace(dev, Pol.R, Pol.R, t)
    cross = lifetime_trace(dev, Pol.R, Pol.L, t)
    assert np.abs(co - np.exp(-t / dev.t1_s)).max() < 1e-12
    assert np.abs(cross).max() < 1e-12


def test_lifetime_trace_co_plus_cross_is_decay():
    rng = np.random.default_rng(25)
    t = np.linspace(0.0, 3e-9, 200)
    for _ in range(10):
        dev = _device(g_e=rng.uniform(0.1, 3.0), p_mem=rng.uniform(0.0, 1.0),
                      b_x_t=rng.uniform(0.0, 0.3))
        total = lifetime_trace(dev, Pol.R, Pol.R, t) \
            + lifetime_trace(dev, Pol.R, Pol.L, t)
        assert np.abs(total - np.exp(-t / dev.t1_s)).max() < 1e-12


def test_lifetime_trace_first_minimum_at_half_period():
    dev = _device()
    t = np.arange(0.0, 250e-12, 0.05e-12)
    co = lifetime_trace(dev, Pol.R, Pol.R, t)
    # local minimum of the oscillating factor, not the decaying product
    osc = co / np.exp(-t / dev.t1_s)
    t_min = t[np.argmin(osc)]
    assert t_min == pytest.approx(113.95e-12, abs=0.5e-12)


def test_lifetime_trace_contrast_is_memory():
    dev = _device(p_mem=0.865)
    co0 = lifetime_trace(dev, Pol.R, Pol.R, 0.0)
    cross0 = lifetime_trace(dev, Pol.R, Pol.L, 0.0)
    assert (co0 - cross0) / (co0 + cross0) == pytest.approx(0.865, abs=1e-12)
    assert lifetime_docp(dev, 0.0) == pytest.approx(0.865, abs=1e-12)


def test_lifetime_trace_branch_complementarity():
    # R- and L-detected ground precession probabilities stay complementary
    dev = _device(p_mem=1.0)
    t = np.linspace(0.0, 1e-9, 97)
    f = dev.f_e_hz
    p_co = 0.5 * (1.0 + np.cos(2.0 * math.pi * f * t))
    p_cross = 0.5 * (1.0 - np.cos(2.0 * math.pi * f * t))
    assert np.abs(p_co + p_cross - 1.0).max() < 1e-12
    decay = np.exp(-t / dev.t1_s)
    assert np.abs(lifetime_trace(dev, Pol.R, Pol.R, t) - decay * p_co).max() \
        < 1e-12


def test_lifetime_trace_input_validation():
    dev = _device()
    with pytest.raises(ValueError):
        lifetime_trace(dev, Pol.H, Pol.R, 0.0)
    with pytest.raises(ValueError):
        lifetime_trace(dev, Pol.R, Pol.H, 0.0)
    with pytest.raises(ValueError):
        lifetime_trace(dev, Pol.R, Pol.R, -1e-12)


def test_envelope_factor_closed_forms():
    quiet = NoiseModel.quiet()
    assert envelope_factor(quiet, 5e-9) == 1.0
    lor = NoiseModel.lorentzian_from_t2star(16.51e-9)
    assert envelope_factor(lor, 16.51e-9) == pytest.approx(math.exp(-1.0),
                                                           rel=1e-12)
    gauss = gaussian_from_t2star(15.9e-9)
    assert envelope_factor(gauss, 15.9e-9) == pytest.approx(math.exp(-1.0),
                                                            rel=1e-12)
    with pytest.raises(ValueError):
        envelope_factor(lor, -1e-9)


def test_envelope_factor_matches_sampled_mean():
    """Closed forms against the jitter ensemble they are meant to
    summarize.

    False-failure rate, from the closed form: the mean of cos(2 pi df t)
    over 1e5 draws has the standard error sqrt(((1 + env(2t))/2 -
    env(t)^2) / 1e5), at most 0.0022, so 0.01 is at least 4.47 of them;
    the normal tails of the 8 checks sum to about 2e-5.
    """
    rng = np.random.default_rng(26)
    n = 100_000
    for noise in (NoiseModel.lorentzian_from_t2star(16.51e-9),
                  gaussian_from_t2star(15.9e-9)):
        draws = noise.sample(rng, n)
        for t in (1e-9, 5e-9, 15e-9, 40e-9):
            sampled = np.mean(np.cos(2.0 * math.pi * draws * t))
            assert abs(sampled - envelope_factor(noise, t)) < 0.01


def test_heralded_docp_closed_form():
    dev = _device(noise=NoiseModel.lorentzian_from_t2star(15.9e-9))
    dt = np.array([0.0, 1e-9, 3.3e-9])
    expected = envelope_factor(dev.noise, dt) \
        * np.cos(2.0 * math.pi * dev.f_h_hz * dt)
    assert np.abs(heralded_docp(dev, dt) - expected).max() < 1e-12
    # excited-only noise leaves the ground precession envelope-free
    dev2 = _device(noise=NoiseModel.lorentzian_from_t2star(
        15.9e-9, applies_to=NoiseTarget.EXCITED))
    assert heralded_docp(dev2, 1e-9) == pytest.approx(
        math.cos(2.0 * math.pi * dev2.f_h_hz * 1e-9), rel=1e-12)


def test_addressed_z_follows_the_selection_rules():
    # the trion eigenstate that emits a circular label, and the hole it
    # leaves, are the states a pulse of that label addresses
    for trion in (SpinHalfState.trion_up(), SpinHalfState.trion_down()):
        branch = max(emit_amplitudes(trion), key=lambda b: b.weight)
        assert addressed_z(branch.photon_pol) == _bloch_yz(trion)[1]
        assert addressed_z(branch.photon_pol) == _bloch_yz(branch.ground)[1]
    assert addressed_z(Pol.R) == 1.0
    assert addressed_z(Pol.L) == -1.0


def test_r_probability_is_the_r_branch_weight():
    rng = np.random.default_rng(27)
    states = [SpinHalfState.trion_up(), SpinHalfState.trion_down()] \
        + [_random_state(rng, Subspace.TRION) for _ in range(30)]
    b_z = np.array([_bloch_yz(t)[1] for t in states])
    p_r = r_probability(b_z)
    for t, p in zip(states, p_r):
        up, down = emit_amplitudes(t)
        assert down.photon_pol is Pol.R and up.photon_pol is Pol.L
        assert abs(p - down.weight) < 1e-12
        assert abs((1.0 - p) - up.weight) < 1e-12


def test_precessed_eigenstates_match_the_propagator():
    rng = np.random.default_rng(28)
    for sub in (Subspace.GROUND, Subspace.TRION):
        dev = _device(g_e=rng.uniform(0.05, 3.0), g_h=rng.uniform(0.05, 3.0))
        eigen = (SpinHalfState(np.array([1.0, 0.0]), sub),
                 SpinHalfState(np.array([0.0, 1.0]), sub))
        z0, theta, want_z = [], [], []
        for dt in rng.uniform(0.0, 20e-9, 40):
            for state in eigen:
                z0.append(_bloch_yz(state)[1])
                theta.append(2.0 * math.pi * _larmor(dev, sub) * dt)
                want_z.append(_bloch_yz(_propagate(state, dev, dt))[1])
        z0, theta, want_z = np.array(z0), np.array(theta), np.array(want_z)
        assert np.abs(precessed_z(z0, theta) - want_z).max() < 1e-12
        assert np.abs(precessed_r_probability(z0, theta)
                      - r_probability(want_z)).max() < 1e-12


def test_ground_then_trion_precession_is_one_rotation():
    # the pulsed photon 2: a hole eigenstate precesses in the ground
    # doublet, pulse 2 lifts its amplitudes to the trion doublet, and the
    # trion precesses until it emits; both rotate about x, so the trion
    # emits R with precessed_r_probability(z0, theta_h + theta_e)
    rng = np.random.default_rng(29)
    z0, theta, want = [], [], []
    for _ in range(60):
        dev = _device(g_e=rng.uniform(0.05, 3.0), g_h=rng.uniform(0.05, 3.0))
        dt_h, dt_e = rng.uniform(0.0, 20e-9), rng.uniform(0.0, 3e-9)
        for hole in (SpinHalfState.hole_up(), SpinHalfState.hole_down()):
            ground = _propagate(hole, dev, dt_h)
            trion = SpinHalfState(ground.amplitudes, Subspace.TRION)
            want.append(emit_amplitudes(_propagate(trion, dev, dt_e))[1]
                        .weight)
            z0.append(_bloch_yz(hole)[1])
            theta.append(2.0 * math.pi * (dev.f_h_hz * dt_h
                                          + dev.f_e_hz * dt_e))
    z0, theta = np.array(z0), np.array(theta)
    assert np.abs(r_probability(precessed_z(z0, theta)) - want).max() < 1e-12
    assert np.abs(precessed_r_probability(z0, theta) - want).max() < 1e-12


def _kernel_angles(rng):
    """Angles for the exact kernel checks: 0 (the tangent is 0), odd
    multiples of pi (the tangent of the half angle is near 1e16, its
    square near 1e32), and magnitudes from 1e-6 to 1e12 of either sign."""
    mag = 10.0 ** rng.uniform(-6.0, 12.0, 3000)
    return np.concatenate([
        [0.0, -0.0, 1e12, -1e12],
        (2.0 * np.arange(-40, 41) + 1.0) * math.pi,
        (2.0 * rng.integers(-10 ** 9, 10 ** 9, 40) + 1.0) * math.pi,
        np.where(rng.random(mag.size) < 0.5, -mag, mag)])


@pytest.mark.parametrize("z0", [1.0, -1.0])
def test_half_angle_kernel_is_exact(z0):
    # (1 + z0 cos theta)/2 from the half-angle tangent, against numpy's
    # cosine and the spinor layer, within 1e-12 for |theta| up to 1e12
    theta = _kernel_angles(np.random.default_rng(30))
    got = precessed_r_probability(np.full(theta.size, z0), theta)
    assert not np.any(np.isnan(got))
    assert np.all((got >= 0.0) & (got <= 1.0))
    assert np.abs(got - r_probability(precessed_z(z0, theta))).max() < 1e-12
    assert got[0] == got[1] == r_probability(z0)
    odd = np.arange(4, 4 + 81 + 40)
    assert np.abs(got[odd] - r_probability(-z0)).max() < 1e-12
    # the spinor layer: the trion eigenstate of Bloch z z0 rotated by
    # theta about x, weighed by the selection rules (the R branch)
    trion = SpinHalfState.trion_down() if z0 > 0 else \
        SpinHalfState.trion_up()
    assert _bloch_yz(trion)[1] == z0
    for th, p in zip(theta[::7], got[::7]):
        state = Propagator2(rotation_x(th), 0.0, Subspace.TRION).apply(trion)
        assert abs(p - emit_amplitudes(state)[1].weight) < 1e-12
    # a scalar angle and a scalar z0 give the same value as a 0-d array
    assert float(precessed_r_probability(z0, 1e12)) == got[2]


def test_shifted_half_angle_weight_is_the_r_weight():
    # the cw loop's form: scale cos^2(theta/2 + shift(z0)) is
    # scale (1 + z0 cos theta)/2; adding the shift rounds the half angle
    # to its ulp, so the check runs to |theta| of 1e3
    rng = np.random.default_rng(31)
    theta = rng.uniform(-1e3, 1e3, 4000)
    theta[:81] = (2.0 * np.arange(-40, 41) + 1.0) * math.pi
    z0 = np.where(rng.random(theta.size) < 0.5, -1.0, 1.0)
    got = half_angle_weight(0.5 * theta + half_angle_shift(z0), 0.7)
    assert np.all((got >= 0.0) & (got <= 0.7))
    assert np.abs(got - 0.7 * r_probability(precessed_z(z0, theta))).max() \
        < 1e-12
    assert half_angle_shift(1.0) == 0.0
    assert half_angle_shift(-1.0) == 0.5 * math.pi
    half = np.array([0.0, 0.25, 1e300])
    out = half_angle_weight(half, out=half)
    assert out is half and out[0] == 1.0 and 0.0 <= out[2] <= 1.0


@pytest.mark.parametrize("f_t1", [0.02, 0.1, 0.3, 1.0, 3.0])
def test_cw_branch_contrast_is_the_t1_weighted_lifetime_docp(f_t1):
    # at p_mem = 1 with no noise lifetime_docp(t) = cos(2 pi f_e t); the
    # branch contrast is its mean over the decay delays, density
    # exp(-t/T1)/T1.  Integrated in u = t/T1 up to u_max, the dropped tail
    # is at most exp(-u_max).
    f_e = _device().f_e_hz
    dev = _device(p_mem=1.0, t1_s=f_t1 / f_e)
    u_max = 60.0
    mean, abserr = quad(
        lambda u: math.exp(-u) * lifetime_docp(dev, u * dev.t1_s),
        0.0, u_max, limit=1000, epsabs=1e-13, epsrel=0.0)
    got = cw_branch_contrast(dev.f_e_hz, dev.t1_s)
    assert abs(got - mean) <= abserr + math.exp(-u_max)
