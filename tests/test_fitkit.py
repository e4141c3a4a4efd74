"""Deterministic fitting: recovery, Jacobians, seeding, linear fits."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trionsim.core import MU_B_EV_PER_T
from trionsim.fitkit import (
    PARAM_NAMES,
    DampedCosineModel,
    fft_frequency,
    fit_damped_cosine,
    fit_linear_zeeman,
    format_fit_report,
    loglog_trend,
    window_average,
)

# collinear synthetic line; slope/mu_B frozen to full precision
ZEEMAN_SYNTH_B = (0.05, 0.10, 0.15)
ZEEMAN_SYNTH_E = (6.049e-6, 12.098e-6, 18.147e-6)
ZEEMAN_SYNTH_G = 2.0900487248439625


def _vec(params: dict):
    return [params[name] for name in PARAM_NAMES]


def _model_values(t, params, variant="pulsed", t0=0.0):
    model = DampedCosineModel(variant=variant, t0=t0)
    return model.evaluate(_vec(params), np.asarray(t, dtype=float))


def test_noiseless_pulsed_recovery():
    true = {"offset": 0.0, "amplitude": 0.9, "t2star": 16e-9, "alpha": 1.0,
            "frequency": 0.761e9, "phase": 0.0}
    t = np.arange(1, 800) * 50e-12
    y = _model_values(t, true)
    fit = fit_damped_cosine((t, y), variant="pulsed")
    assert fit.converged
    assert abs(fit["offset"]) < 1e-6 * true["amplitude"]
    for name in ("amplitude", "t2star", "alpha", "frequency"):
        assert fit[name] == pytest.approx(true[name], rel=1e-6)
    assert abs(fit["phase"]) < 1e-6


def test_noiseless_cw_recovery():
    true = {"offset": 0.1, "amplitude": 0.8, "t2star": 16.51e-9,
            "alpha": 1.278, "frequency": 183.7e6, "phase": 0.3}
    t = (np.arange(-600, 601) + 0.5) * 100e-12
    y = _model_values(t, true, variant="cw")
    fit = fit_damped_cosine((t, y), variant="cw")
    assert fit.converged
    for name in ("offset", "amplitude", "t2star", "alpha", "frequency",
                 "phase"):
        assert fit[name] == pytest.approx(true[name], rel=1e-5)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(61)
    for variant in ("pulsed", "cw"):
        model = DampedCosineModel(variant=variant, t0=0.0)
        t = np.sort(rng.uniform(0.2e-9, 30e-9, 80))
        if variant == "cw":
            t = np.concatenate([-t[::-1], t])
        for _ in range(8):
            params = {
                "offset": rng.uniform(-0.5, 0.5),
                "amplitude": rng.uniform(0.2, 1.0),
                "t2star": rng.uniform(2e-9, 40e-9),
                "alpha": rng.uniform(0.5, 2.5),
                "frequency": rng.uniform(1e8, 2e9),
                "phase": rng.uniform(-2.0, 2.0),
            }
            jac = model.jacobian(_vec(params), t)
            for k, name in enumerate(PARAM_NAMES):
                h = 1e-6 * abs(params[name])
                hi = dict(params, **{name: params[name] + h})
                lo = dict(params, **{name: params[name] - h})
                fd = (model.evaluate(_vec(hi), t)
                      - model.evaluate(_vec(lo), t)) / (2 * h)
                # normalize by the column scale: pointwise ratios blow up
                # from FD roundoff wherever an entry crosses zero
                scale = max(np.max(np.abs(jac[:, k])), np.max(np.abs(fd)))
                assert np.max(np.abs(jac[:, k] - fd)) < 1e-5 * scale


def test_sse_never_increases():
    rng = np.random.default_rng(62)
    t = np.arange(1, 400) * 100e-12
    y = _model_values(t, {"offset": 0.05, "amplitude": 0.85, "t2star": 16e-9,
                          "alpha": 1.0, "frequency": 0.76e9, "phase": 0.2})
    y = y + 0.05 * rng.normal(size=t.size)
    fit = fit_damped_cosine((t, y, np.full(t.size, 0.05)), variant="pulsed")
    assert fit.converged
    history = np.asarray(fit.sse_history)
    assert np.all(np.diff(history) <= 1e-12 * history[0])


def test_fixed_parameters_are_honored():
    t = np.arange(1, 400) * 100e-12
    y = _model_values(t, {"offset": 0.0, "amplitude": 0.9, "t2star": 16e-9,
                          "alpha": 1.0, "frequency": 0.76e9, "phase": 0.0})
    fit = fit_damped_cosine((t, y), variant="pulsed",
                            fixed={"alpha": 1.0, "offset": 0.0})
    assert fit.converged
    assert fit["alpha"] == 1.0 and fit["offset"] == 0.0
    assert "alpha" not in fit.free_names
    assert fit.sigmas["alpha"] == 0.0
    with pytest.raises(ValueError):
        fit_damped_cosine((t, y), fixed={"tau": 1.0})


def test_too_few_valid_bins_rejected():
    t = np.arange(10) * 1e-9
    y = np.cos(2 * math.pi * 0.2e9 * t)
    with pytest.raises(ValueError):
        fit_damped_cosine((t, y), variant="pulsed")


def test_flat_trace_reports_no_oscillation():
    t = np.arange(1, 200) * 100e-12
    y = np.full(t.size, 0.37)
    fit = fit_damped_cosine((t, y), variant="pulsed")
    assert fit.converged
    assert fit.message == "no-oscillation"
    assert fit["frequency"] == 0.0
    assert fit["offset"] == pytest.approx(0.37, abs=1e-9)


def test_exclusion_window_removes_points():
    t = (np.arange(-300, 301) + 0.5) * 100e-12
    y = _model_values(t, {"offset": 0.0, "amplitude": 0.9, "t2star": 16e-9,
                          "alpha": 1.0, "frequency": 0.2e9, "phase": 0.0},
                      variant="cw")
    default = fit_damped_cosine((t, y), variant="cw")
    n_inside = int(np.count_nonzero(np.abs(t) < 150e-12))
    assert n_inside > 0
    assert default.n_points == t.size - n_inside
    wide = fit_damped_cosine((t, y), variant="cw",
                             exclusion_window_s=1e-9)
    assert wide.n_points == t.size - int(np.count_nonzero(np.abs(t) < 1e-9))


def test_non_convergent_fit_is_flagged():
    # a growing envelope pushes t2star to the domain boundary until the
    # damping parameter saturates
    t = np.arange(200) * 0.1e-9
    rng = np.random.default_rng(7)
    y = np.exp(t / 8e-9) * np.cos(2 * math.pi * 0.75e9 * t) \
        + 0.01 * rng.normal(size=t.size)
    fit = fit_damped_cosine((t, y), variant="pulsed")
    assert not fit.converged
    assert fit.message in ("stalled", "max iterations reached")


def test_linear_zeeman_synthetic_line():
    fit = fit_linear_zeeman(ZEEMAN_SYNTH_B, ZEEMAN_SYNTH_E)
    assert fit.g == pytest.approx(ZEEMAN_SYNTH_G, rel=1e-12)
    assert fit.residual_sse < 1e-24
    # collinear to one ulp of the decimal literals
    assert fit.sigma_g < 1e-12


def test_linear_zeeman_zero_and_errors():
    fit = fit_linear_zeeman((0.05, 0.10, 0.15), (0.0, 0.0, 0.0))
    assert fit.g == 0.0
    with pytest.raises(ValueError):
        fit_linear_zeeman((0.1, 0.1), (1e-6, 2e-6))
    with pytest.raises(ValueError):
        fit_linear_zeeman((0.1,), (1e-6,))


def test_linear_zeeman_weighting_and_origin():
    b = np.array([0.05, 0.10, 0.15, 0.20])
    e = ZEEMAN_SYNTH_G * MU_B_EV_PER_T * b
    e_noisy = e.copy()
    e_noisy[3] += 5e-6
    # a tight error on the clean points pulls the slope back to the line
    errs = np.array([1e-9, 1e-9, 1e-9, 1e-3])
    fit = fit_linear_zeeman(b, e_noisy, errors_ev=errs)
    assert fit.g == pytest.approx(ZEEMAN_SYNTH_G, rel=1e-6)
    through = fit_linear_zeeman(b, e, through_origin=True)
    assert through.g == pytest.approx(ZEEMAN_SYNTH_G, rel=1e-12)
    assert through.intercept_ev == 0.0


def test_fft_frequency_single_tone():
    t = np.arange(0, 20e-9, 10e-12)
    y = np.cos(2 * math.pi * 0.5e9 * t)
    est = fft_frequency((t, y))
    assert est.found
    assert abs(est.frequency_hz - 0.5e9) <= 1.0 / 20e-9


def test_fft_frequency_flat_and_weighted():
    t = np.arange(0, 20e-9, 10e-12)
    est = fft_frequency((t, np.full(t.size, 2.0)))
    assert not est.found
    y = np.cos(2 * math.pi * 0.2e9 * t) + 3.0 * np.cos(2 * math.pi * 0.8e9 * t)
    est = fft_frequency((t, y))
    assert est.found
    assert est.frequency_hz == pytest.approx(0.8e9, rel=0.01)


def test_fft_frequency_scale_offset_invariant():
    t = np.arange(0, 20e-9, 10e-12)
    y = np.cos(2 * math.pi * 0.43e9 * t) * np.exp(-t / 8e-9)
    a = fft_frequency((t, y))
    b = fft_frequency((t, 5.0 * y + 7.0))
    assert a.found and b.found
    assert b.frequency_hz == pytest.approx(a.frequency_hz, rel=1e-12)


def test_fft_frequency_requires_uniform_grid():
    t = np.array([0.0, 1e-9, 3e-9, 4e-9, 5e-9, 6e-9, 7e-9, 8e-9])
    with pytest.raises(ValueError):
        fft_frequency((t, np.cos(2 * math.pi * 0.5e9 * t)))


def test_window_average():
    res = window_average((1.0, 2.0, 3.0), (0.759e9, 0.761e9, 0.763e9),
                         (0.5, 3.5))
    assert res.mean == pytest.approx(0.761e9, rel=1e-12)
    assert res.sigma == pytest.approx(0.002e9 / math.sqrt(3.0), rel=1e-9)
    assert res.n == 3
    same = window_average((1.0, 2.0, 3.0), (5.0, 5.0, 5.0), (0.0, 4.0))
    assert same.mean == 5.0 and same.sigma == 0.0
    with pytest.raises(ValueError):
        window_average((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), (10.0, 20.0))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(values=st.lists(st.one_of(st.just(0.0), st.floats(1e-100, 1e100),
                                 st.floats(-1e100, -1e-100)),
                       min_size=3, max_size=40))
def test_window_average_equals_plain_mean_and_std(values):
    # the power-of-two scaling is exact, so wherever the plain squares
    # neither overflow nor underflow the results are the plain ones
    values = np.asarray(values)
    res = window_average(np.zeros(values.size), values, (0.0, 0.0))
    assert res.mean == float(values.mean())
    assert res.sigma == float(values.std(ddof=1) / math.sqrt(values.size))


def test_window_average_does_not_overflow():
    # a runaway T2* of 9.8e252 s among ordinary ones, as a per-bin fit of
    # the delay sweep once returned
    values = (1.6e-8, 9.8e252, 1.5e-8, 1.7e-8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = window_average((1.0, 2.0, 3.0, 4.0), values, (0.0, 5.0))
    assert res.mean == pytest.approx(9.8e252 / 4.0, rel=1e-12)
    assert res.sigma == pytest.approx(9.8e252 / 4.0, rel=1e-9)
    assert math.isfinite(res.sigma)


def test_loglog_trend():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    y = 3.0 * x ** -0.5
    slope, intercept = loglog_trend(x, y)
    assert slope == pytest.approx(-0.5, rel=1e-12)
    assert math.exp(intercept) == pytest.approx(3.0, rel=1e-12)


def test_fit_report_contents():
    t = np.arange(1, 400) * 100e-12
    y = _model_values(t, {"offset": 0.0, "amplitude": 0.9, "t2star": 16e-9,
                          "alpha": 1.0, "frequency": 0.76e9, "phase": 0.0})
    fit = fit_damped_cosine((t, y), variant="pulsed")
    text = format_fit_report(fit, "pulsed damped cosine", "unit-test")
    for token in ("pulsed damped cosine", "t2star", "frequency", "sse",
                  "iterations", "converged"):
        assert token in text
    assert "unit-test" in text or "input" in text


def test_model_domain_checks():
    model = DampedCosineModel(variant="pulsed", t0=1e-9)
    vec = _vec({"offset": 0.0, "amplitude": 1.0, "t2star": 1e-9,
                "alpha": 1.0, "frequency": 1e9, "phase": 0.0})
    with pytest.raises(ValueError):
        model.evaluate(vec, np.array([0.0]))
    with pytest.raises(ValueError):
        DampedCosineModel(variant="chirped")
