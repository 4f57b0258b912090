"""Truncated normal predictive distribution on [0, inf), as vectorized
functions of its parameters.

The distribution has center ``mu`` (any real) and scale ``sigma > 0``; all
probability mass sits on the nonnegative half line, matching a nonnegative
wind speed. ``cdf_values``, ``quantile_values`` and ``crps_values`` take
arrays (or scalars) of mu, sigma and the argument, broadcast together.
Everything here is written against the complementary form of the normal CDF
so that heavily truncated cases (mu << 0) stay accurate:

    1 - F(y) = Phi(-(y - mu)/sigma) / Phi(mu/sigma)

which is evaluated through ``log_ndtr`` and never divides two underflowing
tails. ``ndtr``/``ndtri_exp`` provide the standard-normal CDF and quantile
primitives (complementary-error-function based, abs error < 1e-12).
``scipy.special`` is imported by the functions that use it, on first call,
so stages that never evaluate a distribution (geowind, persistence-only
forecasts) do not load it.

``crps_values`` is the closed-form continuous ranked probability score.
``_crps_grad`` adds the analytic first and second derivatives in mu and
sigma that the minimum-CRPS fit needs for its Newton steps.
"""

from __future__ import annotations

import math
import numpy as np

from .errors import InvalidDistributionError, InvalidInputError

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_SQRT2 = math.sqrt(2.0)
#: mu/sigma below which the CRPS and its gradient come from the tail law
TAIL_A = -100.0
#: mu/sigma below which the second derivatives come from the tail law
HESSIAN_TAIL_A = -30.0


def _check_params(mu, sigma):
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if np.any(~np.isfinite(mu)) or np.any(~np.isfinite(sigma)) or np.any(sigma <= 0.0):
        raise InvalidDistributionError("require finite mu and sigma > 0")
    return mu, sigma


def cdf_values(mu, sigma, y):
    """CDF of N+(mu, sigma) at y (vectorized); 0 below the truncation point."""
    mu, sigma = _check_params(mu, sigma)
    return _cdf_core(mu, sigma, np.asarray(y, dtype=float))


def _cdf_core(mu, sigma, y):
    """CDF algebra without argument validation (quadrature integrands)."""
    from scipy.special import log_ndtr

    w = (y - mu) / sigma
    out = -np.expm1(log_ndtr(-w) - log_ndtr(mu / sigma))
    return np.where(y < 0.0, 0.0, np.clip(out, 0.0, 1.0))


def quantile_values(mu, sigma, p):
    """Quantile function of N+(mu, sigma) (vectorized).

    Solves F(y) = p through the complementary tail, so the inversion
    round-trips with the CDF essentially to machine precision.
    """
    from scipy.special import log_ndtr, ndtri_exp

    mu, sigma = _check_params(mu, sigma)
    p = np.asarray(p, dtype=float)
    if np.any(~((p > 0.0) & (p < 1.0))):
        raise InvalidInputError("quantile level must lie strictly in (0, 1)")
    # 1 - F(y) = (1 - p)  =>  Phi(-w) = (1 - p) * Phi(mu/sigma)
    return mu - sigma * ndtri_exp(np.log1p(-p) + log_ndtr(mu / sigma))


def _truncation_terms(a, w):
    """Ratios shared by the CRPS and its derivatives, with P = Phi(a):

        g = -2 (1 - Phi(w)) / P,   t2 = 2 phi(w) / P,
        t3 = Phi(sqrt(2) a) / (sqrt(pi) P^2),   m = phi(a) / P.

    Rows of mild truncation (a > -5, the operating regime) take direct ndtr
    evaluations; rows of heavier truncation go through log-space ratios. The
    regime is chosen row by row, so a row's terms do not depend on the
    other rows of the call.
    """
    from scipy.special import log_ndtr, ndtr

    heavy = a <= -5.0
    if not np.any(heavy):
        p_inv = 1.0 / ndtr(a)
        g = (2.0 * ndtr(w) - 2.0) * p_inv
        t2 = 2.0 * np.exp(-0.5 * w * w - _LOG_SQRT_2PI) * p_inv
        t3 = _INV_SQRT_PI * ndtr(_SQRT2 * a) * p_inv * p_inv
        m = np.exp(-0.5 * a * a - _LOG_SQRT_2PI) * p_inv
        return g, t2, t3, m
    with np.errstate(over="ignore", invalid="ignore"):
        log_p = log_ndtr(a)
        g = -2.0 * np.exp(log_ndtr(-w) - log_p)
        t2 = 2.0 * np.exp(-0.5 * w * w - _LOG_SQRT_2PI - log_p)
        t3 = _INV_SQRT_PI * np.exp(log_ndtr(_SQRT2 * a) - 2.0 * log_p)
        m = np.exp(-0.5 * a * a - _LOG_SQRT_2PI - log_p)
    if np.all(heavy):
        return g, t2, t3, m
    # the mild rows again, directly; a = 0 keeps the heavy rows' ndtr(a) off 0
    mild = _truncation_terms(np.where(heavy, 0.0, a), w)
    return tuple(np.where(heavy, log_term, direct)
                 for log_term, direct in zip((g, t2, t3, m), mild))


def _exponential_tail(mu, sigma, y, rows):
    """The CRPS of ``rows`` as an exponential tail at 0 with rate
    lam = |mu|/sigma^2, the limit of the law as mu/sigma -> -inf:
    y + (2 exp(-lam y) - 1.5) / lam, exact to O(sigma^2/mu^2).

    Returns (crps, d crps/d lam, d2 crps/d lam2, lam); other rows get lam = 1.
    """
    lam = np.where(rows, np.abs(mu) / sigma**2, 1.0)
    decay = np.exp(-np.minimum(lam * y, 7.0e2))
    spread = (2.0 * decay - 1.5) / lam
    crps = y + spread
    d_lam = -(2.0 * y * decay + spread) / lam
    d2_lam = 2.0 * (y * y * decay + (2.0 * y * decay + spread) / lam) / lam
    return crps, d_lam, d2_lam, lam


def _crps_grad(mu, sigma, y, hessian=False):
    """CRPS and its partial derivatives: (crps, d crps/d mu, d crps/d sigma),
    followed with ``hessian=True`` by the second derivatives
    (d2/d mu2, d2/d mu d sigma, d2/d sigma2).

    With crps = sigma f(a, w), a = mu/sigma and w = (y - mu)/sigma,

        f_w = 1 + g,   f_a = m (2 t3 - w g - t2 - 2 m),
        d/d mu = f_a - f_w,   d/d sigma = t2 - t3 - a f_a,

        f_ww = t2,   f_aw = -m g,
        f_aa = m (a (w g + t2 - 2 t3 + 4 m) + 2 m (w g + t2 - 3 t3 + 4 m)),
        d2/d mu2 = (f_aa - 2 f_aw + f_ww) / sigma,
        d2/d mu d sigma = -(a (f_aa - f_aw) + w (f_aw - f_ww)) / sigma,
        d2/d sigma2 = (a^2 f_aa + 2 a w f_aw + w^2 f_ww) / sigma.

    ``_truncation_terms`` gives (g, t2, t3, m) in its two regimes. Even its
    log-space ratios lose the cancellation of their a^2 terms as mu/sigma
    falls: d/d mu drifts from the CRPS by 1e-3 to 3e-3 relative at -100 and
    by about 1 at -300, where the exponential tail law, good to about
    13 sigma^2/mu^2, is closer. Past mu/sigma = TAIL_A the value and gradient
    come from the tail law. The second derivatives cancel terms of size
    m^3 ~ |a|^3 and drift sooner (about 1e-3 relative at mu/sigma = -30), so
    they come from the tail law already past HESSIAN_TAIL_A.
    """
    inv = 1.0 / sigma
    a = mu * inv
    w = (y - mu) * inv
    g, t2, t3, m = _truncation_terms(a, w)
    with np.errstate(over="ignore", invalid="ignore"):
        f_w = g + 1.0
        f_a = m * (2.0 * t3 - w * g - t2 - 2.0 * m)
        crps = sigma * (w * f_w + t2 - t3)
        d_mu = f_a - f_w
        d_sigma = t2 - t3 - a * f_a
        if hessian:
            f_aw = -m * g
            wgt = w * g + t2
            f_aa = m * (a * (wgt - 2.0 * t3 + 4.0 * m) + 2.0 * m * (wgt - 3.0 * t3 + 4.0 * m))
            d_mumu = (f_aa - 2.0 * f_aw + t2) * inv
            d_musigma = -(a * (f_aa - f_aw) + w * (f_aw - t2)) * inv
            d_sigmasigma = (a * a * f_aa + 2.0 * a * w * f_aw + w * w * t2) * inv
    tail_rows = a < (HESSIAN_TAIL_A if hessian else TAIL_A)
    if np.any(tail_rows):
        tail_crps, d_lam, d2_lam, lam = _exponential_tail(mu, sigma, y, tail_rows)
        # lam = -mu / sigma^2 on these rows (mu < 0): d lam/d mu = -1/sigma^2,
        # d lam/d sigma = -2 lam/sigma
        extreme = a < TAIL_A
        crps = np.where(extreme, tail_crps, crps)
        d_mu = np.where(extreme, -d_lam * inv * inv, d_mu)
        d_sigma = np.where(extreme, -2.0 * d_lam * lam * inv, d_sigma)
        if hessian:
            inv2 = inv * inv
            d_mumu = np.where(tail_rows, d2_lam * inv2 * inv2, d_mumu)
            d_musigma = np.where(tail_rows, 2.0 * (d2_lam * lam + d_lam) * inv2 * inv,
                                 d_musigma)
            d_sigmasigma = np.where(tail_rows, (4.0 * d2_lam * lam + 6.0 * d_lam) * lam * inv2,
                                    d_sigmasigma)
    if hessian:
        return crps, d_mu, d_sigma, d_mumu, d_musigma, d_sigmasigma
    return crps, d_mu, d_sigma


def crps_values(mu, sigma, y):
    """Closed-form CRPS of N+(mu, sigma) against observations y >= 0 (vectorized)."""
    mu, sigma = _check_params(mu, sigma)
    y = np.asarray(y, dtype=float)
    if np.any(y < 0.0):
        raise InvalidInputError("observed wind speed must be nonnegative")
    return _crps_grad(mu, sigma, y)[0]
