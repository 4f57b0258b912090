"""Reference implementations that the package is checked against."""

from windcast.errors import InvalidInputError
from windcast.predictive import _cdf_core, _check_params


def crps_numeric(mu: float, sigma: float, y: float, tol: float = 1e-8) -> float:
    """CRPS of N+(mu, sigma) at y by adaptive quadrature of
    integral((F(x) - 1{x>=y})^2 dx).

    The oracle for the closed form ``predictive.crps_values``, and the
    authority whenever the two disagree; deliberately routed through the
    generic integrand rather than the CRPS algebra.
    """
    from scipy.integrate import quad

    _check_params(mu, sigma)
    if y < 0.0:
        raise InvalidInputError("observed wind speed must be nonnegative")

    def below(x):
        return _cdf_core(mu, sigma, x) ** 2

    def above(x):
        f = _cdf_core(mu, sigma, x)
        return (f - 1.0) * (f - 1.0)

    hi = max(y, mu + 12.0 * sigma, 1.0) + 12.0 * sigma
    left, _ = quad(below, 0.0, y, epsabs=tol, epsrel=tol, limit=300)
    right, _ = quad(above, y, hi, epsabs=tol, epsrel=tol, limit=300)
    return left + right
