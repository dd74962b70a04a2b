"""Mittag-Leffler polynomials: Konhauser regularization, generating
functions, the operational construction, and the space-fractional evolution.

Run:  python demos/03_ml_polynomials_and_konhauser.py
"""

import math

from mlpoly import (
    LaguerreMonomialInitial,
    LaguerreProblem,
    konhauser,
    mlp_egf_closed,
    mlp_eval,
    mlp_ogf_closed,
    mlp_operational_check,
    residual,
    solve_laguerre_monomial,
    solve_laguerre_wright,
)

print("=== the regularized polynomials reach classical Laguerre at alpha=beta=1 ===")
print(" x      Z_2(x)          L_2(x) = (x^2-4x+2)/2")
for x in [0.5 * i for i in range(7)]:
    z = konhauser(2, 1.0, 1.0, x, 1.0)
    l2 = (x * x - 4.0 * x + 2.0) / 2.0
    print(f"{x:4.1f}   {z:+.10f}   {l2:+.10f}")

print()
print("=== generating functions: partial sums against the closed forms ===")
alpha, beta, x, y, lam = 0.5, 1.0, 0.8, 0.9, 0.25
ogf_partial = sum(lam ** n * mlp_eval(n, alpha, beta, x, y) for n in range(41))
ogf_closed = mlp_ogf_closed(lam, alpha, beta, x, y)
print(f"OGF: partial sum = {ogf_partial:.12f}, closed form = {ogf_closed:.12f}")
egf_partial = sum(
    lam ** n / math.factorial(n) * mlp_eval(n, alpha, beta, x, y) for n in range(31)
)
egf_closed = mlp_egf_closed(lam, alpha, beta, x, y)
print(f"EGF: partial sum = {egf_partial:.12f}, closed form = {egf_closed:.12f}")

print()
print("=== operational construction via the fractional Laguerre generator ===")
for n in (1, 3, 5):
    lhs, rhs = mlp_operational_check(n, 0.5, 1.0)
    print(f"n={n}: operator exponential matches the polynomial, "
          f"max gap = {max(abs(a - b) for a, b in zip(lhs, rhs)):.2e} (exact truncation after {n} steps)")

print()
print("=== space-fractional evolution with Caputo time derivative ===")
n, alpha, beta, b = 3, 0.5, 0.7, 1.0
print(f"datum (-x**{alpha})**{n}/Gamma(1+{alpha}*{n}); solution on a t-grid at x = 0.7:")
for t in (0.1, 0.4, 1.0, 2.0):
    g = solve_laguerre_monomial(n, alpha, beta, b, 0.7, t)
    print(f"  t={t:4.1f}: G = {g:+.10f}")
print(f"algebraic residual of the equation at n={n}: "
      f"{residual(LaguerreProblem(alpha, beta, b, LaguerreMonomialInitial(n))):.2e}")

print()
print("=== a Wright-function datum factorizes into space and time parts ===")
for t in (0.2, 0.6, 1.2):
    g = solve_laguerre_wright(0.5, 0.5, 0.7, 1.0, 1.0, t)
    print(f"  t={t:4.1f}: G = {g:.10f}")
