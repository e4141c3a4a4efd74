"""Constants, polarization algebra, Zeeman arithmetic, noise models."""

import math

import numpy as np
import pytest

from trionsim.core import (
    CIRCULAR,
    MU_B_EV_PER_T,
    PLANCK_EV_S,
    DeviceParams,
    NoiseKind,
    NoiseModel,
    NoiseTarget,
    Pol,
    jones_vector,
    larmor_frequency,
    orthogonal,
    pol_from_label,
    project,
    zeeman_splitting,
)

from oracles import (SpinHalfState, Subspace, gaussian_from_t2star,
                     larmor_halfperiod, noise_t2star)

# Independently evaluated reference points, frozen to full precision.
ZEEMAN_209_150MT_EV = 1.8146576943e-05
F_0362_150MT_HZ = 759996099.4061452
F_209_150MT_HZ = 4387822783.864208
F_035_375MT_HZ = 183700714.63546327
HALFPERIOD_209_150MT_S = 1.13951730648444e-10
GAMMA_TAU_1651NS_HZ = 9639911.756020311
GAMMA_T2_159NS_HZ = 10009744.848546876


def test_constants_frozen():
    assert MU_B_EV_PER_T == 5.7883818e-5
    assert PLANCK_EV_S == 4.135667696e-15


def test_zeeman_reference_point():
    assert zeeman_splitting(2.09, 0.15) == pytest.approx(
        ZEEMAN_209_150MT_EV, rel=1e-10)


def test_zeeman_linearity_is_exact():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g, b, a = rng.uniform(0.01, 5.0, 3)
        assert zeeman_splitting(a * g, b) == pytest.approx(
            a * zeeman_splitting(g, b), rel=1e-14)
        assert zeeman_splitting(g, a * b) == pytest.approx(
            a * zeeman_splitting(g, b), rel=1e-14)


def test_zeeman_rejects_bad_input():
    with pytest.raises(ValueError):
        zeeman_splitting(math.nan, 0.1)
    with pytest.raises(ValueError):
        zeeman_splitting(2.0, -0.1)


def test_larmor_frequency_consistent_with_splitting():
    rng = np.random.default_rng(12)
    for _ in range(50):
        g, b = rng.uniform(0.01, 5.0, 2)
        assert larmor_frequency(g, b) * PLANCK_EV_S == pytest.approx(
            zeeman_splitting(g, b), rel=1e-12)


def test_larmor_frequency_reference_points():
    assert larmor_frequency(0.362, 0.15) == pytest.approx(
        F_0362_150MT_HZ, rel=1e-12)
    assert larmor_frequency(2.09, 0.15) == pytest.approx(
        F_209_150MT_HZ, rel=1e-12)
    assert larmor_frequency(0.35, 0.0375) == pytest.approx(
        F_035_375MT_HZ, rel=1e-12)
    # rounded sanity: 760 MHz hole line, 228 ps trion period, 184 MHz line
    assert larmor_frequency(0.362, 0.15) == pytest.approx(7.600e8, rel=1e-3)
    assert 1.0 / larmor_frequency(2.09, 0.15) == pytest.approx(228e-12,
                                                               rel=2e-3)
    assert larmor_frequency(0.35, 0.0375) == pytest.approx(1.837e8, rel=1e-3)


def test_larmor_halfperiod():
    assert larmor_halfperiod(2.09, 0.15) == pytest.approx(
        HALFPERIOD_209_150MT_S, rel=1e-12)
    assert larmor_halfperiod(2.09, 0.0) == math.inf
    assert larmor_halfperiod(0.0, 0.15) == math.inf


def test_basis_vectors_unit_norm():
    for pol in Pol:
        v = jones_vector(pol)
        assert np.vdot(v, v).real == pytest.approx(1.0, abs=1e-12)


def test_bases_mutually_unbiased():
    bases = ((Pol.H, Pol.V), (Pol.D, Pol.A), (Pol.R, Pol.L))
    for i, b1 in enumerate(bases):
        for b2 in bases[i + 1:]:
            for p in b1:
                for q in b2:
                    assert project(jones_vector(p), q) == pytest.approx(
                        0.5, abs=1e-12)


def test_projection_examples():
    assert project(jones_vector(Pol.R), Pol.R) == pytest.approx(1.0,
                                                                abs=1e-12)
    assert project(jones_vector(Pol.R), Pol.L) == pytest.approx(0.0,
                                                                abs=1e-12)
    assert project(jones_vector(Pol.H), Pol.R) == pytest.approx(0.5,
                                                                abs=1e-12)


def test_projection_completeness():
    rng = np.random.default_rng(13)
    for _ in range(20):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps /= np.linalg.norm(amps)
        for pol in Pol:
            total = project(amps, pol) + project(amps, orthogonal(pol))
            assert total == pytest.approx(1.0, abs=1e-12)


def test_projection_rejects_unnormalized():
    with pytest.raises(ValueError):
        project(np.array([1.0, 1.0]), Pol.H)


def test_polarization_labels():
    for pol in Pol:
        assert pol_from_label(pol.name) is pol
    assert orthogonal(Pol.H) is Pol.V
    assert orthogonal(Pol.D) is Pol.A
    assert orthogonal(Pol.R) is Pol.L
    assert orthogonal(orthogonal(Pol.R)) is Pol.R
    assert CIRCULAR == (Pol.R, Pol.L)
    with pytest.raises(ValueError):
        pol_from_label("X")


def test_spin_state_normalization_enforced():
    with pytest.raises(ValueError):
        SpinHalfState(np.array([1.0, 1.0]), Subspace.GROUND)
    with pytest.raises(ValueError):
        SpinHalfState(np.array([1.0, 0.0, 0.0]), Subspace.GROUND)
    state = SpinHalfState.hole_up()
    assert state.population_up() == 1.0
    assert state.population_down() == 0.0
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_noise_model_lorentzian_width():
    noise = NoiseModel.lorentzian_from_t2star(16.51e-9)
    assert noise.kind is NoiseKind.LORENTZIAN
    assert noise.width_hz == pytest.approx(GAMMA_TAU_1651NS_HZ, rel=1e-12)
    noise = NoiseModel.lorentzian_from_t2star(15.9e-9)
    assert noise.width_hz == pytest.approx(GAMMA_T2_159NS_HZ, rel=1e-12)


def test_noise_model_t2star_round_trip():
    for t2 in (1e-9, 15.9e-9, 16.51e-9, 120e-9):
        for make in (NoiseModel.lorentzian_from_t2star,
                     gaussian_from_t2star):
            assert noise_t2star(make(t2)) == pytest.approx(t2, rel=1e-12)


def test_noise_model_quiet():
    noise = NoiseModel.quiet()
    assert noise.kind is NoiseKind.NONE
    assert noise.width_hz == 0.0
    rng = np.random.default_rng(0)
    assert np.all(noise.sample(rng, 100) == 0.0)


def test_noise_model_sampling_statistics():
    rng = np.random.default_rng(14)
    gauss = gaussian_from_t2star(15.9e-9)
    draws = gauss.sample(rng, 200_000)
    assert np.std(draws) == pytest.approx(gauss.width_hz, rel=0.02)
    lor = NoiseModel.lorentzian_from_t2star(16.51e-9)
    draws = lor.sample(rng, 200_000)
    # half-Cauchy median equals the HWHM
    assert np.median(np.abs(draws)) == pytest.approx(lor.width_hz, rel=0.02)


def test_noise_model_validation_and_round_trip():
    with pytest.raises(ValueError):
        NoiseModel(NoiseKind.LORENTZIAN, -1.0, NoiseTarget.GROUND)
    noise = NoiseModel.lorentzian_from_t2star(15.9e-9,
                                              applies_to=NoiseTarget.GROUND)
    assert NoiseModel.from_dict(noise.to_dict()) == noise


def test_device_params_validation():
    good = dict(g_e=2.09, g_h=0.362, t1_s=300e-12, p_mem=0.865, b_x_t=0.15)
    DeviceParams(**good)
    for bad in (dict(good, t1_s=0.0), dict(good, p_mem=1.5),
                dict(good, b_x_t=-0.1), dict(good, g_e=-1.0),
                dict(good, noise="loud")):
        with pytest.raises(ValueError):
            DeviceParams(**bad)


def test_device_params_derived_frequencies():
    dev = DeviceParams(g_e=2.09, g_h=0.362, t1_s=300e-12, p_mem=0.865,
                       b_x_t=0.15)
    assert dev.f_e_hz == pytest.approx(F_209_150MT_HZ, rel=1e-12)
    assert dev.f_h_hz == pytest.approx(F_0362_150MT_HZ, rel=1e-12)
    assert dev.delta_e_ev == pytest.approx(ZEEMAN_209_150MT_EV, rel=1e-10)


def test_device_params_round_trip():
    dev = DeviceParams(g_e=2.09, g_h=0.35, t1_s=300e-12, p_mem=0.865,
                       b_x_t=0.0375,
                       noise=NoiseModel.lorentzian_from_t2star(16.51e-9))
    assert DeviceParams.from_dict(dev.to_dict()) == dev
