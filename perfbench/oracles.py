"""Reference values computed without the program under test.

Each oracle sums the defining series or closed-form sum in mpmath at
``DPS`` digits and returns ``(value, abs_sum)``: the value, and the sum of
the absolute values of the terms, which bounds how much cancellation a
double-precision evaluation of the same sum may suffer.  mpmath is imported
here only, so that the timed phase of a run never loads it.
"""

import mpmath as mp

DPS = 30
_STOP = mp.mpf(10) ** (-(DPS + 4))
_MAX_TERMS = 2000


def _sum(terms):
    """Sum an infinite series whose terms eventually decrease, to DPS digits."""
    mp.mp.dps = DPS
    total = mp.mpf(0)
    abs_sum = mp.mpf(0)
    small = 0
    for r, term in enumerate(terms):
        total += term
        abs_sum += abs(term)
        small = small + 1 if abs(term) <= _STOP * max(abs(total), 1) else 0
        if small >= 3 and r >= 8:
            return total, abs_sum
        if r >= _MAX_TERMS:
            raise ArithmeticError("oracle series did not settle")
    return total, abs_sum


def _as_float(pair):
    value, abs_sum = pair
    return float(value), float(abs_sum)


def _mpf(*values):
    mp.mp.dps = DPS
    return [mp.mpf(v) for v in values]


def prabhakar(alpha, beta, gamma, z):
    """sum_r (gamma)_r z**r / (r! Gamma(beta + alpha r)); gamma = 1 is E_{alpha,beta}."""
    alpha, beta, gamma, z = _mpf(alpha, beta, gamma, z)

    def terms():
        weight = mp.mpf(1)  # (gamma)_r z**r / r!
        r = 0
        while True:
            yield weight * mp.rgamma(beta + alpha * r)
            weight *= (gamma + r) * z / (r + 1)
            r += 1

    return _as_float(_sum(terms()))


def ml_two(alpha, beta, z):
    return prabhakar(alpha, beta, 1.0, z)


def wright(alpha, mu, z):
    """sum_r z**r / (r! Gamma(mu + alpha r))."""
    alpha, mu, z = _mpf(alpha, mu, z)

    def terms():
        weight = mp.mpf(1)  # z**r / r!
        r = 0
        while True:
            yield weight * mp.rgamma(mu + alpha * r)
            r += 1
            weight *= z / r

    return _as_float(_sum(terms()))


def cole_cole(alpha, tau, t):
    """E_alpha(-(t/tau)**alpha)."""
    alpha, tau, t = _mpf(alpha, tau, t)
    return prabhakar(alpha, 1, 1, -((t / tau) ** alpha))


def havriliak_negami(alpha, beta, tau, t):
    """1 - u**beta E^beta_{alpha,1+alpha beta}(-u) with u = (t/tau)**alpha.

    The returned abs_sum is that of the Prabhakar series times u**beta, plus 1.
    """
    alpha, beta, tau, t = _mpf(alpha, beta, tau, t)
    u = (t / tau) ** alpha
    value, abs_sum = prabhakar(alpha, 1 + alpha * beta, beta, -u)
    scale = float(u ** beta)
    return 1.0 - scale * value, 1.0 + scale * abs_sum


def fhp(n, alpha, x, y):
    """H[alpha]_n(x, y) = n! sum_r x**(n-2r) y**r / ((n-2r)! Gamma(1+alpha r))."""
    return _as_float(_fhp_mp(n, *_mpf(alpha, x, y)))


def _fhp_mp(n, alpha, x, y):
    total = mp.mpf(0)
    abs_sum = mp.mpf(0)
    for r in range(n // 2 + 1):
        term = mp.factorial(n) / mp.factorial(n - 2 * r) * x ** (n - 2 * r) * y ** r * mp.rgamma(1 + alpha * r)
        total += term
        abs_sum += abs(term)
    return total, abs_sum


def fhp_coefficient(n, r, alpha, y):
    """Coefficient of x**(n-2r) in H[alpha]_n(x, y)."""
    alpha, y = _mpf(alpha, y)
    return float(mp.factorial(n) / mp.factorial(n - 2 * r) * y ** r * mp.rgamma(1 + alpha * r))


def mlp(n, alpha, beta, x, y):
    """E^{-n}_{alpha,beta}(x, y) = sum_r C(n,r) (-x)**r y**(n-r) / Gamma(beta+alpha r)."""
    alpha, beta, x, y = _mpf(alpha, beta, x, y)
    total = mp.mpf(0)
    abs_sum = mp.mpf(0)
    for r in range(n + 1):
        term = mp.binomial(n, r) * (-x) ** r * y ** (n - r) * mp.rgamma(beta + alpha * r)
        total += term
        abs_sum += abs(term)
    return float(total), float(abs_sum)


def _combine(parts):
    total = mp.mpf(0)
    abs_sum = mp.mpf(0)
    for weight, (value, part_abs) in parts:
        total += weight * value
        abs_sum += abs(weight) * part_abs
    return float(total), float(abs_sum)


def tf_diffusion(coeffs, alpha, k, x, t):
    """sum_r c_r H[alpha]_r(x, k t**alpha): the series-datum solution."""
    alpha, k, x, t = _mpf(alpha, k, x, t)
    y = k * t ** alpha
    return _combine((mp.mpf(c), _fhp_mp(r, alpha, x, y)) for r, c in enumerate(coeffs))


def case_i(n, a, alpha, k, x, t):
    """n! sum_r a**r H[alpha]_{n-2r}(x, w) / (r! (n-2r)!), w = k t**alpha."""
    a, alpha, k, x, t = _mpf(a, alpha, k, x, t)
    w = k * t ** alpha
    return _combine(
        (mp.factorial(n) / (mp.factorial(r) * mp.factorial(n - 2 * r)) * a ** r,
         _fhp_mp(n - 2 * r, alpha, x, w))
        for r in range(n // 2 + 1)
    )


def case_ii(n, a, alpha, k, x, t):
    """n! sum_r a**r H[alpha]_{n-2r}(x, w) / ((n-2r)! Gamma(1+alpha r)), w = k t**alpha."""
    a, alpha, k, x, t = _mpf(a, alpha, k, x, t)
    w = k * t ** alpha
    return _combine(
        (mp.factorial(n) / mp.factorial(n - 2 * r) * a ** r * mp.rgamma(1 + alpha * r),
         _fhp_mp(n - 2 * r, alpha, x, w))
        for r in range(n // 2 + 1)
    )


def laguerre_monomial(n, alpha, beta, b, x, t):
    """sum_r (n!/r!) (-x**alpha)**r (b t**beta)**(n-r) / (Gamma(1+alpha r) Gamma(1+beta(n-r)))."""
    alpha, beta, b, x, t = _mpf(alpha, beta, b, x, t)
    xa = x ** alpha
    u = b * t ** beta
    total = mp.mpf(0)
    abs_sum = mp.mpf(0)
    for r in range(n + 1):
        term = (mp.factorial(n) / mp.factorial(r) * (-xa) ** r * u ** (n - r)
                * mp.rgamma(1 + alpha * r) * mp.rgamma(1 + beta * (n - r)))
        total += term
        abs_sum += abs(term)
    return float(total), float(abs_sum)


def laguerre_wright(y, alpha, beta, b, x, t):
    """W_{alpha,1}(-y x**alpha) * E_beta(b y t**beta)."""
    y, alpha, beta, b, x, t = _mpf(y, alpha, beta, b, x, t)
    w_value, w_abs = wright(alpha, 1, -y * x ** alpha)
    e_value, e_abs = prabhakar(beta, 1, 1, b * y * t ** beta)
    return w_value * e_value, w_abs * e_abs


def exp(z):
    mp.mp.dps = DPS
    return float(mp.exp(mp.mpf(z)))


def cos(x):
    mp.mp.dps = DPS
    return float(mp.cos(mp.mpf(x)))


def exp_sq_erfc(x):
    """exp(x**2) erfc(x), the closed form of E_{1/2}(-x)."""
    mp.mp.dps = DPS
    x = mp.mpf(x)
    return float(mp.exp(x * x) * mp.erfc(x))
