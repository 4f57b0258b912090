"""Truncated normal distribution: CDF/quantile/CRPS against independent oracles."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from windcast.errors import InvalidDistributionError, InvalidInputError
from windcast.predictive import (
    _crps_grad,
    _exponential_tail,
    cdf_values,
    crps_values,
    quantile_values,
)

from oracles import crps_numeric

# standard-normal facts, frozen from erf tables: 2*Phi(1)-1 = erf(1/sqrt(2)),
# Phi^-1(0.75) = sqrt(2)*erfinv(0.5)
HALF_NORMAL_CDF_AT_1 = 0.6826894921370859
STD_NORMAL_Q75 = 0.6744897501960817

PARAM_GRID = [(-5.0, 0.1), (-3.0, 2.0), (0.0, 1.0), (2.0, 0.5), (5.0, 1.0),
              (8.0, 3.0), (15.0, 5.0)]


class TestCdf:
    def test_zero_at_origin(self):
        assert cdf_values(3.0, 2.0, [0.0, -1.0]).tolist() == [0.0, 0.0]

    def test_tends_to_one(self):
        assert cdf_values(0.0, 1.0, 40.0) == pytest.approx(1.0, abs=1e-12)

    def test_half_normal_value(self):
        # mu=0 truncated at 0 doubles the density: F(1) = 2*Phi(1) - 1
        assert cdf_values(0.0, 1.0, 1.0) == pytest.approx(HALF_NORMAL_CDF_AT_1, abs=1e-12)

    @pytest.mark.parametrize("mu,sigma", PARAM_GRID)
    def test_strictly_increasing(self, mu, sigma):
        # strict growth over the representable bulk of the distribution
        ys = np.linspace(quantile_values(mu, sigma, 1e-3),
                         quantile_values(mu, sigma, 1 - 1e-3), 200)
        vals = cdf_values(mu, sigma, ys)
        assert np.all(np.diff(vals) > 0)

    def test_invalid_sigma(self):
        for law in (cdf_values, quantile_values, crps_values, crps_numeric):
            with pytest.raises(InvalidDistributionError):
                law(1.0, 0.0, 0.5)
        with pytest.raises(InvalidDistributionError):
            cdf_values(1.0, -2.0, 1.0)
        with pytest.raises(InvalidDistributionError):  # one bad row in an array
            crps_values([1.0, 2.0], [1.0, 0.0], 1.0)


class TestQuantile:
    def test_median_far_from_truncation(self):
        # truncation mass Phi(-5) ~ 2.9e-7 barely shifts the median off mu;
        # root-finding on the cdf is the independent oracle
        median = quantile_values(5.0, 1.0, 0.5)
        oracle = brentq(lambda y: cdf_values(5.0, 1.0, y) - 0.5, 0.0, 20.0, xtol=1e-13)
        assert median == pytest.approx(oracle, abs=1e-10)
        assert median == pytest.approx(5.0, abs=1e-4)

    def test_half_normal_median(self):
        assert quantile_values(0.0, 1.0, 0.5) == pytest.approx(STD_NORMAL_Q75, abs=1e-12)

    @pytest.mark.parametrize("mu,sigma", PARAM_GRID)
    def test_quantile_ordering(self, mu, sigma):
        lo, median, hi = quantile_values(mu, sigma, [0.05, 0.5, 0.95])
        assert lo < median < hi

    @pytest.mark.parametrize("mu,sigma", PARAM_GRID)
    def test_inversion(self, mu, sigma):
        ps = np.linspace(0.01, 0.99, 99)
        qs = quantile_values(mu, sigma, ps)
        assert np.max(np.abs(cdf_values(mu, sigma, qs) - ps)) < 1e-10

    def test_domain_errors(self):
        for p in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InvalidInputError):
                quantile_values(1.0, 1.0, p)
            with pytest.raises(InvalidInputError):  # one bad level in an array
                quantile_values(1.0, 1.0, [0.5, p])


class TestCrps:
    def test_point_mass_limit(self):
        # sigma -> 0 collapses to a point mass at max(mu, 0)
        for mu, y in [(1.0, 3.0), (4.0, 4.0)]:
            assert crps_values(mu, 1e-9, y) == pytest.approx(abs(y - max(mu, 0.0)), abs=1e-6)
        # negative center: all mass piles up at the truncation point
        for sigma in (1e-4, 1e-7, 1e-9):
            assert crps_values(-2.0, sigma, 0.5) == pytest.approx(0.5, abs=1e-6)

    def test_against_quadrature_origin(self):
        assert crps_values(0.0, 1.0, 0.0) == pytest.approx(crps_numeric(0.0, 1.0, 0.0),
                                                           abs=1e-7)

    @pytest.mark.parametrize("mu,sigma", PARAM_GRID)
    def test_against_quadrature_grid(self, mu, sigma):
        ys = [0.0, 1.0, max(0.0, mu), max(0.0, mu) + 2 * sigma, 15.0]
        oracle = [crps_numeric(mu, sigma, y) for y in ys]
        np.testing.assert_allclose(crps_values(mu, sigma, ys), oracle, rtol=0, atol=1e-6)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        mu = rng.uniform(-5, 15, 300)
        sigma = rng.uniform(0.1, 5, 300)
        y = rng.uniform(0, 20, 300)
        assert np.all(crps_values(mu, sigma, y) >= 0.0)

    def test_propriety_shape(self):
        # minimized near the center of the distribution, unbounded far away
        med = float(quantile_values(5.0, 1.0, 0.5))
        at_med, above, below = crps_values(5.0, 1.0, [med, med + 3.0, max(med - 3.0, 0.0)])
        assert at_med < above and at_med < below
        big = crps_values(5.0, 1.0, [20.0, 50.0, 100.0])
        assert big[0] < big[1] < big[2]

    def test_rejects_negative_observation(self):
        with pytest.raises(InvalidInputError):
            crps_values(1.0, 1.0, -0.1)
        with pytest.raises(InvalidInputError):
            crps_values(1.0, 1.0, [0.5, -0.1])
        with pytest.raises(InvalidInputError):
            crps_numeric(1.0, 1.0, -0.1)


class TestCrpsGradient:
    """``_crps_grad`` against central differences of ``crps_values``, one
    array per regime."""

    @staticmethod
    def _grid(a_values):
        a, sigma, y = np.meshgrid(np.asarray(a_values, dtype=float), [0.3, 1.0, 2.5],
                                  [0.0, 0.4, 3.0, 9.0], indexing="ij")
        return (a * sigma).ravel(), sigma.ravel(), y.ravel()

    @pytest.mark.parametrize("a_values,rel_step", [
        ([-4.5, -2.0, -0.8, 0.0, 1.5, 4.0, 8.0], 1e-4),  # direct, mu/sigma > -5
        ([-5.5, -8.0, -15.0, -30.0], 1e-4),  # log-space, -100 <= mu/sigma <= -5
        ([-2e6, -1e7, -1e9], 1e-2),  # exponential tail, mu/sigma < -100
    ])
    def test_matches_central_differences(self, a_values, rel_step):
        mu, sigma, y = self._grid(a_values)
        _, d_mu, d_sigma = _crps_grad(mu, sigma, y)
        h_mu = rel_step * np.maximum(np.abs(mu), sigma)
        h_sigma = rel_step * sigma
        fd_mu = (crps_values(mu + h_mu, sigma, y)
                 - crps_values(mu - h_mu, sigma, y)) / (2 * h_mu)
        fd_sigma = (crps_values(mu, sigma + h_sigma, y)
                    - crps_values(mu, sigma - h_sigma, y)) / (2 * h_sigma)
        np.testing.assert_allclose(d_mu, fd_mu, rtol=1e-3)
        np.testing.assert_allclose(d_sigma, fd_sigma, rtol=1e-3)

    def test_untruncated_limit(self):
        # far from the truncation point the law is N(mu, sigma), whose CRPS has
        # d/dmu = 1 - 2 Phi(w) = -erf(w/sqrt(2)) and d/dsigma = 2 phi(w) - 1/sqrt(pi)
        w = np.array([-1.5, 0.0, 0.7])
        _, d_mu, d_sigma = _crps_grad(np.full(3, 40.0), np.ones(3), 40.0 + w)
        np.testing.assert_allclose(d_mu, [-math.erf(v / math.sqrt(2)) for v in w],
                                   atol=1e-12)
        phi = np.exp(-0.5 * w * w) / np.sqrt(2 * np.pi)
        np.testing.assert_allclose(d_sigma, 2 * phi - 1 / np.sqrt(np.pi), atol=1e-12)


    @pytest.mark.parametrize("a", [-300.0, -1e3, -1e4])
    def test_heavy_truncation_follows_the_tail_law(self, a):
        # the exponential-tail law is within about 13 sigma^2/mu^2 of the CRPS
        # here; the log-space ratios are not (d/dmu is off by about 1 at -300)
        sigma, y_lam = np.meshgrid([0.3, 1.0, 2.5], [0.0, 0.5, 2.0], indexing="ij")
        sigma, y_lam = sigma.ravel(), y_lam.ravel()
        mu = a * sigma
        y = y_lam * sigma / abs(a)  # y lam with the tail's rate lam = |mu|/sigma^2
        crps, d_mu, _ = _crps_grad(mu, sigma, y)
        tail_crps, d_lam, _, _ = _exponential_tail(mu, sigma, y, np.ones(mu.size, bool))
        np.testing.assert_allclose(crps, tail_crps, rtol=20 / a**2, atol=0)
        np.testing.assert_allclose(d_mu, -d_lam / sigma**2, rtol=20 / a**2, atol=0)


class TestRowsAreIndependent:
    """A row's CRPS and derivatives do not depend on the other rows of the
    call: ``_truncation_terms`` picks its regime row by row."""

    @staticmethod
    def _rows(n=1000, seed=3):
        rng = np.random.default_rng(seed)
        sigma = rng.uniform(0.3, 3.0, n)
        return rng.uniform(0.0, 4.0, n) * sigma, sigma, rng.uniform(0.0, 10.0, n)

    def test_a_heavy_row_leaves_mild_rows_unchanged(self):
        mu, sigma, y = self._rows()
        extra = np.append(mu, -6.0 * 1.2), np.append(sigma, 1.2), np.append(y, 0.3)
        assert crps_values(*extra)[:-1].tobytes() == crps_values(mu, sigma, y).tobytes()
        for alone, mixed in zip(_crps_grad(mu, sigma, y, hessian=True),
                                _crps_grad(*extra, hessian=True)):
            assert mixed[:-1].tobytes() == alone.tobytes()

    def test_heavy_rows_match_their_own_call(self):
        mu, sigma, y = self._rows(n=20)
        a = np.array([-6.0, -12.0, -45.0, -400.0])
        heavy = a * sigma[:4], sigma[:4], y[:4]
        mixed = [np.concatenate(pair) for pair in zip(heavy, (mu, sigma, y))]
        for alone, both in zip(_crps_grad(*heavy, hessian=True),
                               _crps_grad(*mixed, hessian=True)):
            assert both[:4].tobytes() == alone.tobytes()
            assert np.all(np.isfinite(both))

    @pytest.mark.parametrize("a", [2.0, -6.0])
    def test_scalar_inputs_give_scalars(self, a):
        assert np.ndim(crps_values(a * 1.5, 1.5, 0.7)) == 0
        assert all(np.ndim(v) == 0 for v in _crps_grad(a * 1.5, 1.5, 0.7, hessian=True))


class TestCrpsHessian:
    """Second derivatives from ``_crps_grad(..., hessian=True)`` against
    central differences of its gradient, Richardson-extrapolated over two
    steps. Each regime is held to the accuracy its algebra reaches."""

    @staticmethod
    def _differences(mu, sigma, y, rel_step):
        def central(h_mu, h_sigma):
            _, mu_hi, sig_hi = _crps_grad(mu + h_mu, sigma, y)
            _, mu_lo, sig_lo = _crps_grad(mu - h_mu, sigma, y)
            _, mu_up, sig_up = _crps_grad(mu, sigma + h_sigma, y)
            _, mu_dn, sig_dn = _crps_grad(mu, sigma - h_sigma, y)
            return np.array([(mu_hi - mu_lo) / (2 * h_mu), (sig_hi - sig_lo) / (2 * h_mu),
                             (mu_up - mu_dn) / (2 * h_sigma),
                             (sig_up - sig_dn) / (2 * h_sigma)])

        h_mu = rel_step * np.maximum(np.abs(mu), sigma)
        h_sigma = rel_step * sigma
        return (4 * central(h_mu / 2, h_sigma / 2) - central(h_mu, h_sigma)) / 3

    @pytest.mark.parametrize("a_values,rel_step,rtol,floor", [
        ([-3.0, -2.0, -0.8, 0.0, 1.5, 4.0, 8.0], 3e-3, 1e-6, 1e-6),  # direct
        ([-4.5], 1e-2, 3e-5, 1e-6),  # direct, near the regime edge
        ([-5.5, -8.0], 3e-3, 1e-6, 1e-6),  # log-space
        ([-15.0, -25.0], 3e-3, 2e-3, 1e-6),  # log-space, m^3 terms cancelling
        ([-31.0, -40.0, -60.0], 3e-3, 2e-2, 1e-6),  # tail law, O(sigma^2/mu^2) off
        ([-2e6, -1e7, -1e9], 1e-3, 1e-9, 0.0),  # tail law, as the gradient
    ])
    def test_matches_central_differences(self, a_values, rel_step, rtol, floor):
        mu, sigma, y = TestCrpsGradient._grid(a_values)
        _, _, _, d_mumu, d_musigma, d_sigmasigma = _crps_grad(mu, sigma, y, hessian=True)
        analytic = np.array([d_mumu, d_musigma, d_musigma, d_sigmasigma])
        fd = self._differences(mu, sigma, y, rel_step)
        # second derivatives are of order 1/sigma in the bulk of the law
        np.testing.assert_array_less(np.abs(analytic - fd), rtol * (np.abs(fd) + floor / sigma))

    def test_untruncated_limit(self):
        # the CRPS of N(mu, sigma) has d2/dmu2 = 2 phi(w)/sigma,
        # d2/dmu dsigma = 2 w phi(w)/sigma and d2/dsigma2 = 2 w^2 phi(w)/sigma
        w = np.array([-1.5, 0.0, 0.7])
        for sigma in (1.0, 2.0):
            out = _crps_grad(np.full(3, 40.0 * sigma), np.full(3, sigma), (40.0 + w) * sigma,
                             hessian=True)
            phi = np.exp(-0.5 * w * w) / np.sqrt(2 * np.pi)
            np.testing.assert_allclose(out[3], 2 * phi / sigma, rtol=1e-12)
            np.testing.assert_allclose(out[4], 2 * w * phi / sigma, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(out[5], 2 * w * w * phi / sigma, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("a_values", [[-4.5, 0.0, 4.0], [-2e6, -100.0, -15.0]])
    def test_value_and_gradient_unchanged(self, a_values):
        mu, sigma, y = TestCrpsGradient._grid(a_values)
        for first, second in zip(_crps_grad(mu, sigma, y), _crps_grad(mu, sigma, y, hessian=True)):
            assert np.array_equal(first, second)


class TestDensityAndInterval:
    def test_interval_matches_normal_quantiles(self):
        lo, hi = quantile_values(5.0, 1.0, [0.05, 0.95])
        z = 1.6448536269514722  # Phi^-1(0.95)
        assert lo == pytest.approx(5.0 - z, abs=1e-3)
        assert hi == pytest.approx(5.0 + z, abs=1e-3)

    @pytest.mark.parametrize("mu,sigma", PARAM_GRID)
    def test_interval_properties(self, mu, sigma):
        lo, lo_half, hi_half, hi = quantile_values(mu, sigma, [0.05, 0.25, 0.75, 0.95])
        assert hi - lo > 0.0
        assert hi - lo > hi_half - lo_half
