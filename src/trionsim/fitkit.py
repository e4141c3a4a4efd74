"""Parameter extraction: damped-cosine fits, Zeeman line fits, FFT seeding.

The damped cosine is C + A0 exp(-(u/T2*)^alpha) cos(2 pi f u + phi) with
u = t - t0 for one-sided (pulsed) data and u = |t - t0| for two-sided
correlation traces.  Fitting is a damped Gauss-Newton with the analytic
Jacobian.  It declares convergence as soon as the curvature-normalized
gradient |g_i|/sqrt(H_ii*(1+SSE)) is at most 1e-4 at an iterate (a
scale-free optimality check); no SSE condition is also required.  The
test runs at the top of every iteration, and again right after an
accepted step whose SSE fell by at most 1e-9 relative.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import MU_B_EV_PER_T, ConfigError

PARAM_NAMES = ("offset", "amplitude", "t2star", "alpha", "frequency", "phase")
# the domains of a fit's numbers past being finite, as (test, text): the
# fit's steps keep each parameter in its own, and `fixed` pins inside it
_ANY = (lambda v: True, "")
_NON_NEGATIVE = (lambda v: v >= 0.0, " and >= 0")
_DOMAIN = {"offset": _ANY, "amplitude": _NON_NEGATIVE,
           "t2star": (lambda v: v > 0.0, " and > 0"),
           "alpha": (lambda v: 0.0 < v <= 3.0, " and in (0, 3]"),
           "frequency": _NON_NEGATIVE, "phase": _ANY}

_GRAD_TOL = 1e-4
_SSE_RTOL = 1e-9
_MAX_ITER = 200


class FitOptionError(ConfigError):
    """A fit option that the fit refuses: `option` ("t0",
    "exclusion_window_s" or "fixed.<parameter>") and the `reason`."""

    def __init__(self, option: str, reason: str):
        super().__init__(f"{option}: {reason}")
        self.option, self.reason = option, reason


class ShortTraceError(ValueError):
    """A trace with fewer valid bins than a fit needs.  `grid` counts its
    bins, and `outside` those outside the exclusion window, valid or
    not."""

    def __init__(self, need: int, have: int, grid: int, outside: int):
        super().__init__(f"need at least {need} valid bins, have {have}")
        self.need, self.grid, self.outside = need, grid, outside


def _norm_grad(grad, hess_diag, sse) -> float:
    """Gradient in curvature units, invariant under parameter rescaling."""
    scale = np.sqrt(np.maximum(hess_diag, 1e-300) * (1.0 + sse))
    return float(np.max(np.abs(grad) / scale))


@dataclass(frozen=True)
class DampedCosineModel:
    """Damped cosine over u, with the variant choosing u's sign handling."""

    variant: str = "pulsed"
    t0: float = 0.0

    def __post_init__(self):
        if self.variant not in ("pulsed", "cw"):
            raise ValueError("variant must be 'pulsed' or 'cw'")

    def _u(self, t: np.ndarray) -> np.ndarray:
        u = np.asarray(t, dtype=float) - self.t0
        if self.variant == "cw":
            u = np.abs(u)
        elif np.any(u < 0):
            raise ValueError("pulsed variant requires t >= t0")
        return u

    def evaluate(self, params, t) -> np.ndarray:
        c, a0, t2, alpha, f, phi = params
        u = self._u(t)
        r = u / t2
        env = np.exp(-np.power(r, alpha, where=r > 0, out=np.zeros_like(r)))
        return c + a0 * env * np.cos(2.0 * math.pi * f * u + phi)

    def jacobian(self, params, t) -> np.ndarray:
        c, a0, t2, alpha, f, phi = params
        u = self._u(t)
        r = u / t2
        pos = r > 0
        r_a = np.power(r, alpha, where=pos, out=np.zeros_like(r))
        env = np.exp(-r_a)
        arg = 2.0 * math.pi * f * u + phi
        osc = np.cos(arg)
        sin = np.sin(arg)
        log_r = np.log(r, where=pos, out=np.zeros_like(r))
        j = np.empty((u.size, 6))
        j[:, 0] = 1.0
        j[:, 1] = env * osc
        j[:, 2] = a0 * env * osc * alpha * r_a / t2
        j[:, 3] = -a0 * env * osc * r_a * log_r
        j[:, 4] = -a0 * env * sin * 2.0 * math.pi * u
        j[:, 5] = -a0 * env * sin
        return j


@dataclass
class FitResult:
    params: dict
    sigmas: dict
    covariance: np.ndarray
    free_names: tuple
    residual_sse: float
    n_iterations: int
    converged: bool
    message: str
    n_points: int
    sse_history: list = field(default_factory=list)

    def __getitem__(self, name: str) -> float:
        return self.params[name]


@dataclass
class FrequencyEstimate:
    frequency_hz: float
    sigma_hz: float
    found: bool
    freqs_hz: np.ndarray
    magnitude: np.ndarray


@dataclass
class ZeemanFit:
    g: float
    sigma_g: float
    intercept_ev: float
    residual_sse: float


@dataclass
class WindowAverage:
    mean: float
    sigma: float
    n: int


def _as_xy(trace):
    """Accept a DocpTrace, a Histogram1D, or a (t, y[, sigma]) tuple.

    Returns (t, y, sigma_or_none, valid) over the full uniform grid.
    """
    if hasattr(trace, "valid"):
        sig = np.asarray(trace.errors, dtype=float)
        valid = np.asarray(trace.valid, dtype=bool) & (sig > 0)
        return (np.asarray(trace.times, dtype=float),
                np.asarray(trace.values, dtype=float), sig, valid)
    if hasattr(trace, "bin_edges"):
        y = np.asarray(trace.counts, dtype=float)
        sig = np.asarray(trace.errors, dtype=float).copy()
        floor = sig[sig > 0].min() if np.any(sig > 0) else 1.0
        sig[sig <= 0] = floor
        return trace.centers, y, sig, np.isfinite(y)
    t = np.asarray(trace[0], dtype=float)
    y = np.asarray(trace[1], dtype=float)
    sig = np.asarray(trace[2], dtype=float) if len(trace) > 2 else None
    valid = np.isfinite(y) & (np.isfinite(sig) & (sig > 0)
                              if sig is not None else True)
    return t, y, sig, valid


def fft_frequency(times, values=None) -> FrequencyEstimate:
    """Locate the dominant non-DC spectral peak of a uniform trace.

    The peak center and width come from a log-parabola through the peak
    bin and its neighbors (a Gaussian fit in log magnitude).  Peaks are
    searched from the second bin up, so the span must hold at least two
    full periods.  If no peak clears 3x the median spectral floor the
    result is flagged not-found with zero frequency.
    """
    if values is None:
        trace = times
        times, values, _, valid = _as_xy(trace)
        values = np.where(valid, values, np.nanmean(values[valid]))
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size < 8:
        raise ValueError("need at least 8 samples")
    steps = np.diff(times)
    dt = steps.mean()
    if np.any(np.abs(steps - dt) > 1e-6 * abs(dt)):
        raise ValueError("fft_frequency requires uniform sampling")
    mag = np.abs(np.fft.rfft(values - values.mean()))
    freqs = np.fft.rfftfreq(times.size, dt)
    if mag.size < 4:
        raise ValueError("trace too short for a spectrum")
    floor = np.median(mag[1:])
    k = 2 + int(np.argmax(mag[2:]))
    if mag[k] <= 3.0 * floor:
        return FrequencyEstimate(0.0, 0.0, False, freqs, mag)
    lo = max(k - 1, 1)
    hi = min(k + 1, mag.size - 1)
    if hi - lo == 2 and mag[lo] > 0 and mag[hi] > 0:
        lm, l0, lp = np.log(mag[lo]), np.log(mag[k]), np.log(mag[hi])
        curv = lm + lp - 2.0 * l0
        delta = 0.5 * (lm - lp) / curv if curv < 0 else 0.0
        delta = float(np.clip(delta, -0.5, 0.5))
        df = freqs[1] - freqs[0]
        sigma = df * math.sqrt(-1.0 / (2.0 * curv)) if curv < 0 else df
        return FrequencyEstimate(freqs[k] + delta * df, sigma, True,
                                 freqs, mag)
    df = freqs[1] - freqs[0]
    return FrequencyEstimate(freqs[k], df, True, freqs, mag)


def _seed(model, t, y, sig, f_fixed=None, alpha0=1.0):
    u = model._u(t)
    order = np.argsort(u)
    tail = order[int(0.75 * u.size):]
    c0 = float(y[tail].mean()) if tail.size else float(y.mean())
    a0 = max(0.5 * (y.max() - y.min()), 1e-12)
    if f_fixed is not None:
        f0 = f_fixed
    else:
        # regrid onto the underlying uniform grid; masked bins sit at c0
        ts = np.sort(t)
        dt = float(np.median(np.diff(ts)))
        n = int(round((ts[-1] - ts[0]) / dt)) + 1
        y_grid = np.full(n, c0)
        y_grid[np.rint((t - ts[0]) / dt).astype(np.int64)] = y
        est = fft_frequency(ts[0] + dt * np.arange(n), y_grid - c0)
        if not est.found:
            return None
        f0 = est.frequency_hz
    span = u.max() - u.min() + 1e-300
    # crude envelope decay from per-period rectified maxima
    t2 = span
    if f0 > 0:
        res = np.abs(y - c0)
        blocks = np.floor(u * f0).astype(np.int64)
        uniq = np.unique(blocks)
        if uniq.size >= 3:
            bu, bm = [], []
            for b in uniq:
                m = blocks == b
                bu.append(u[m].mean())
                bm.append(res[m].max())
            bu, bm = np.array(bu), np.array(bm)
            good = bm > 0
            if good.sum() >= 3:
                slope = np.polyfit(bu[good], np.log(bm[good]), 1)[0]
                if slope < -1e-300:
                    t2 = float(np.clip(-1.0 / slope, 0.05 * span, 100.0 * span))
    env = np.exp(-np.clip(u / t2, 0, 50) ** alpha0)
    cw_ = np.cos(2.0 * math.pi * f0 * u)
    sw = np.sin(2.0 * math.pi * f0 * u)
    phi0 = math.atan2(-np.sum((y - c0) * env * sw),
                      np.sum((y - c0) * env * cw_))
    return np.array([c0, a0, t2, alpha0, f0, phi0])


def _domain_ok(p) -> bool:
    return all(math.isfinite(v) and _DOMAIN[name][0](v)
               for name, v in zip(PARAM_NAMES, p))


def check_fit_options(t0: float = 0.0, exclusion_window_s=None,
                      fixed: dict | None = None) -> None:
    """Refuse, as FitOptionError, a `t0` that is not finite, an
    `exclusion_window_s` that is not finite and >= 0, and a `fixed` entry
    that names no parameter or pins one outside its domain."""
    for name in fixed or ():
        if name not in _DOMAIN:
            raise FitOptionError(f"fixed.{name}", "not a parameter")
    for option, v, (test, text) in [
            ("t0", t0, _ANY),
            ("exclusion_window_s", exclusion_window_s or 0.0, _NON_NEGATIVE),
            *((f"fixed.{n}", v, _DOMAIN[n]) for n, v in (fixed or {}).items())]:
        if not (math.isfinite(v) and test(v)):
            raise FitOptionError(option, f"must be finite{text}, got {v:g}")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def fit_damped_cosine(trace, variant: str = "pulsed", t0: float = 0.0,
                      exclusion_window_s: float | None = None,
                      fixed: dict | None = None) -> FitResult:
    """Weighted least-squares damped-cosine fit of a trace.

    `fixed` pins parameters by name (e.g. {"alpha": 1.0}).  For the cw
    variant an exclusion window of 150 ps on each side of t0 is applied
    by default, removing the correlation bins distorted by antibunching.
    Flat traces without a spectral peak return the degenerate f=0 branch
    flagged by message "no-oscillation".  Options outside their domain
    (`check_fit_options`), or a pulsed t0 after the first valid time,
    raise FitOptionError; a trace with too few valid bins ShortTraceError;
    and one whose weighted sum of squares about its mean, or at the
    starting values, is not finite RuntimeError.  Floating-point warnings
    are off: those checks catch what overflows.
    """
    check_fit_options(t0, exclusion_window_s, fixed)
    model = DampedCosineModel(variant, t0)
    if exclusion_window_s is None:
        exclusion_window_s = 150e-12 if variant == "cw" else 0.0
    fixed = dict(fixed or {})
    t, y, sig, valid = _as_xy(trace)
    grid = t.size
    outside = np.abs(t - t0) >= exclusion_window_s
    valid = valid & outside
    free = [n for n in PARAM_NAMES if n not in fixed]
    n_free = len(free)
    t, y = t[valid], y[valid]
    sig = sig[valid] if sig is not None else None
    if variant == "pulsed" and t.size and t.min() < t0:
        raise FitOptionError("t0", f"{t0:g} s is after the first valid "
                             f"time {t.min():g} s; the pulsed variant "
                             f"needs every time >= t0")
    if t.size < 8 * max(n_free, 1):
        raise ShortTraceError(8 * n_free, t.size, grid,
                              int(np.count_nonzero(outside)))
    # refuse a trace whose weighted sum of squares about its mean (the
    # flat fit's sse) overflows, before any sse is computed from it
    weights = 1.0 / sig if sig is not None else np.ones_like(y)
    mean = float(np.sum(weights ** 2 * y) / np.sum(weights ** 2))
    spread = np.sum((weights * (y - mean)) ** 2)
    if not np.isfinite(spread):
        raise RuntimeError("the trace's weighted sum of squares is not "
                           "finite")

    seed = _seed(model, t, y, sig, f_fixed=fixed.get("frequency"),
                 alpha0=fixed.get("alpha", 1.0))
    if seed is None:
        params = dict(zip(PARAM_NAMES, [mean, 0.0, 1.0, 1.0, 0.0, 0.0]))
        params.update(fixed)
        sse = float(np.sum((weights * (y - params["offset"])) ** 2))
        sigmas = {n: 0.0 for n in PARAM_NAMES}
        sigmas["offset"] = float(1.0 / math.sqrt(np.sum(weights ** 2)))
        return FitResult(params, sigmas, np.zeros((0, 0)), tuple(free),
                         sse, 0, True, "no-oscillation", t.size, [sse])
    for i, name in enumerate(PARAM_NAMES):
        if name in fixed:
            seed[i] = fixed[name]

    idx_free = [PARAM_NAMES.index(n) for n in free]

    def eval_at(theta):
        p = seed.copy()
        p[idx_free] = theta
        return p

    def sse_of(p):
        return float(np.sum((weights * (model.evaluate(p, t) - y)) ** 2))

    def jac_grad(p):   # the weighted Jacobian of the free parameters, J^T r
        jac = (weights[:, None] * model.jacobian(p, t))[:, idx_free]
        return jac, jac.T @ (weights * (model.evaluate(p, t) - y))

    theta = seed[idx_free].copy()
    p_cur = eval_at(theta)
    sse = sse_of(p_cur)
    if not math.isfinite(sse):
        raise RuntimeError("the weighted sum of squares at the starting "
                           "values is not finite")
    history = [sse]
    lam = 1e-3
    message = "max iterations reached"
    n_iter = 0
    while n_iter < _MAX_ITER:
        n_iter += 1
        jac, grad = jac_grad(p_cur)
        hess = jac.T @ jac
        if _norm_grad(grad, np.diag(hess), sse) <= _GRAD_TOL:
            message = "converged"
            break
        damped = hess + lam * np.diag(np.diag(hess).clip(min=1e-300))
        try:
            step = np.linalg.solve(damped, -grad)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        theta_new = theta + step
        for _ in range(32):
            if _domain_ok(eval_at(theta_new)):
                break
            step *= 0.5
            theta_new = theta + step
        else:
            lam *= 10.0
            continue
        p_new = eval_at(theta_new)
        sse_new = sse_of(p_new)
        if sse_new < sse:
            small = (sse - sse_new) <= _SSE_RTOL * sse
            theta, p_cur, sse = theta_new, p_new, sse_new
            history.append(sse)
            lam = max(lam / 3.0, 1e-12)
            if small:
                jac, grad = jac_grad(p_cur)
                if _norm_grad(grad, np.sum(jac * jac, axis=0),
                              sse) <= _GRAD_TOL:
                    message = "converged"
                    break
        else:
            lam *= 10.0
            if lam > 1e14:
                message = "stalled"
                break

    jac, _ = jac_grad(p_cur)
    hess = jac.T @ jac
    try:
        cov = np.linalg.inv(hess)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(hess)
    if sig is None and t.size > n_free:
        cov = cov * sse / (t.size - n_free)
    params = dict(zip(PARAM_NAMES, p_cur))
    params["phase"] = math.remainder(params["phase"], 2.0 * math.pi)
    sigmas = {n: 0.0 for n in PARAM_NAMES}
    for i, name in enumerate(free):
        sigmas[name] = float(math.sqrt(max(cov[i, i], 0.0)))
    return FitResult(params, sigmas, cov, tuple(free), sse, n_iter,
                     message == "converged", message, t.size, history)


def fit_linear_zeeman(b_t, delta_e_ev, errors_ev=None,
                      through_origin: bool = False) -> ZeemanFit:
    """Weighted linear fit of splitting vs field; g is slope over mu_B.

    The intercept is free by default.  The uncertainty is scaled by the
    reduced chi-square unless per-point errors are given, so exactly
    collinear input yields sigma_g = 0.
    """
    b = np.asarray(b_t, dtype=float)
    de = np.asarray(delta_e_ev, dtype=float)
    if b.shape != de.shape or b.ndim != 1:
        raise ValueError("field and splitting arrays must match")
    if np.unique(b).size < 2:
        raise ValueError("need at least 2 distinct field values")
    w = np.ones_like(b) if errors_ev is None else 1.0 / np.asarray(errors_ev)
    cols = [b] if through_origin else [b, np.ones_like(b)]
    design = np.stack(cols, axis=1) * w[:, None]
    rhs = de * w
    coef, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    resid = rhs - design @ coef
    sse = float(resid @ resid)
    cov = np.linalg.inv(design.T @ design)
    ndof = b.size - len(cols)
    if errors_ev is None and ndof > 0:
        cov = cov * sse / ndof
    slope = float(coef[0])
    intercept = 0.0 if through_origin else float(coef[1])
    sigma_slope = math.sqrt(max(cov[0, 0], 0.0))
    return ZeemanFit(slope / MU_B_EV_PER_T, sigma_slope / MU_B_EV_PER_T,
                     intercept, sse)


def window_average(times, values, window) -> WindowAverage:
    """Unweighted mean and standard error over points inside [lo, hi].

    The values are scaled by a power of two near their largest magnitude,
    which is exact, so that squaring them cannot overflow.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = window
    m = (times >= lo) & (times <= hi) & np.isfinite(values)
    n = int(np.count_nonzero(m))
    if n < 3:
        raise ValueError("need at least 3 points inside the window")
    _, exp = np.frexp(np.abs(values[m]).max())
    scaled = np.ldexp(values[m], -exp)
    mean = float(np.ldexp(scaled.mean(), exp))
    sigma = float(np.ldexp(scaled.std(ddof=1), exp) / math.sqrt(n))
    return WindowAverage(mean, sigma, n)


def loglog_trend(x, y) -> tuple:
    """Slope and intercept of ln y vs ln x (power-trend convenience)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log fit needs positive values")
    slope, intercept = np.polyfit(np.log(x), np.log(y), 1)
    return float(slope), float(intercept)


def format_fit_report(result: FitResult, title: str,
                      input_digest: str = "") -> str:
    lines = [f"fit report: {title}",
             f"converged = {result.converged} ({result.message})",
             f"iterations = {result.n_iterations}",
             f"points = {result.n_points}",
             f"sse = {result.residual_sse:.9g}"]
    for name in PARAM_NAMES:
        lines.append(f"{name} = {result.params[name]:.9g}"
                     f" +/- {result.sigmas[name]:.9g}")
    if result.covariance.size:
        lines.append("covariance (" + ", ".join(result.free_names) + ")")
        for row in result.covariance:
            lines.append("  " + " ".join(f"{v:+.3e}" for v in row))
    if input_digest:
        lines.append(f"input_digest = {input_digest}")
    return "\n".join(lines) + "\n"
