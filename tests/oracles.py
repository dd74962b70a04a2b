"""Oracles used by the test suite.

The high-precision oracles are brute force on purpose: plain 50-digit mpmath
sums of the defining series, never calling into the library under test.  The
two plain-float oracles, the classical two-variable Hermite and Laguerre
polynomials by their factorial sums, are the ones ``mlpoly.verify`` checks
against, defined once there.
"""

import mpmath as mp

from mlpoly.verify import _classical_hermite, _laguerre_explicit

classical_hermite = _classical_hermite
laguerre_explicit = _laguerre_explicit

DPS = 50


def _ctx():
    mp.mp.dps = DPS
    return mp


def lngamma_mp(x):
    _ctx()
    return float(mp.loggamma(mp.mpf(x)))


def rgamma_mp(x):
    _ctx()
    return float(mp.rgamma(mp.mpf(x)))


def ml_series_mp(alpha, beta, z, terms=300):
    """sum z**r / Gamma(beta + alpha r) at 50 digits."""
    _ctx()
    alpha, beta, z = (mp.mpf(v) for v in (alpha, beta, z))
    total = mp.mpf(0)
    for r in range(terms):
        total += z ** r * mp.rgamma(beta + alpha * r)
    return float(total)


def prabhakar_mp(alpha, beta, gamma, z, terms=300):
    """sum (gamma)_r z**r / (r! Gamma(beta + alpha r)) at 50 digits."""
    _ctx()
    alpha, beta, gamma, z = (mp.mpf(v) for v in (alpha, beta, gamma, z))
    total = mp.mpf(0)
    for r in range(terms):
        total += mp.rf(gamma, r) / mp.factorial(r) * z ** r * mp.rgamma(beta + alpha * r)
    return float(total)


def wright_mp(alpha, mu, z, terms=300):
    """sum z**r / (r! Gamma(mu + alpha r)) at 50 digits."""
    _ctx()
    alpha, mu, z = (mp.mpf(v) for v in (alpha, mu, z))
    total = mp.mpf(0)
    for r in range(terms):
        total += z ** r / mp.factorial(r) * mp.rgamma(mu + alpha * r)
    return float(total)


def fhp_mp(n, alpha, x, y):
    """n! sum_r x**(n-2r) y**r / ((n-2r)! Gamma(1+alpha r)) at 50 digits."""
    _ctx()
    alpha, x, y = (mp.mpf(v) for v in (alpha, x, y))
    total = mp.mpf(0)
    for r in range(n // 2 + 1):
        total += (
            mp.factorial(n) / mp.factorial(n - 2 * r)
            * x ** (n - 2 * r) * y ** r * mp.rgamma(1 + alpha * r)
        )
    return float(total)


def mlp_mp(n, alpha, beta, x, y):
    """sum_r C(n,r) (-x)**r y**(n-r) / Gamma(beta+alpha r) at 50 digits."""
    _ctx()
    alpha, beta, x, y = (mp.mpf(v) for v in (alpha, beta, x, y))
    total = mp.mpf(0)
    for r in range(n + 1):
        total += mp.binomial(n, r) * (-x) ** r * y ** (n - r) * mp.rgamma(beta + alpha * r)
    return float(total)


def caputo_monomial_mp(gamma_exp, alpha, t=1.0):
    """Gamma(1+g)/Gamma(1+g-a) * t**(g-a) at 50 digits."""
    _ctx()
    g, a, t = (mp.mpf(v) for v in (gamma_exp, alpha, t))
    return float(mp.gamma(1 + g) / mp.gamma(1 + g - a) * t ** (g - a))
