"""Fractional Hermite polynomials and the time-fractional diffusion problem.

The polynomial family solves  D_t^alpha F = k d2F/dx2  with Caputo time
derivative: the monomial datum x**n evolves into H[alpha]_n(x, k t**alpha).

Run:  python demos/02_fractional_hermite_diffusion.py
"""

from mlpoly import (
    DiffusionProblem,
    MonomialInitial,
    fhp_at_zero,
    fhp_coeffs,
    fhp_eval,
    residual,
    solve_case_i,
    solve_case_ii,
    solve_tf_diffusion,
    umbral_hermite_shift,
)

alpha, k = 0.5, 1.0

print("=== low-order polynomials (alpha = 0.5, y as the second variable) ===")
for n in range(5):
    print(f"H[{alpha}]_{n}(x, y=1):  {fhp_coeffs(n, alpha, 1.0)}")

print()
print("=== evolution of the monomial datum x**4 ===")
prob = DiffusionProblem(alpha, k, MonomialInitial(4))
xs = [-2.0 + 0.5 * i for i in range(9)]
print(" x      t=0 (x**4)    t=0.5          t=1.0")
for x in xs:
    v0 = x ** 4
    v1 = solve_tf_diffusion(prob, x, 0.5)
    v2 = solve_tf_diffusion(prob, x, 1.0)
    print(f"{x:+.2f}   {v0:12.6f}  {v1:12.6f}  {v2:12.6f}")

print()
print("=== the solution stays a polynomial identity: algebraic residuals ===")
for n in (2, 6, 10):
    gap = residual(DiffusionProblem(alpha, k, MonomialInitial(n)))
    print(f"n={n:2d}: max normalized residual = {gap:.2e}")

print()
print("=== a Hermite-polynomial datum evolves by the convolution formula ===")
n, a, x, t = 4, 0.2, 0.3, 0.7
by_sum = solve_case_i(n, a, alpha, k, x, t)
by_umbral = umbral_hermite_shift(n, x, a, k * t ** alpha, alpha)
print(f"convolution route:  {by_sum:.12f}")
print(f"umbral-shift route: {by_umbral:.12f}")
print(f"agreement: {abs(by_sum - by_umbral):.2e}")

print()
print("=== a fractional-Hermite datum: two closed forms, checked on each call ===")
value = solve_case_ii(5, 0.3, 0.6, 1.0, 0.4, 0.5)
print(f"solution value = {value:.12f} (deformed-addition form agreed internally)")

print()
print("=== zero-argument values follow the parity rule ===")
for n in range(7):
    print(f"H[{alpha}]_{n}(0, y=2) = {fhp_at_zero(n, alpha, 2.0):.6f}"
          f"   (direct evaluation: {fhp_eval(n, alpha, 0.0, 2.0):.6f})")
