import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlpoly.errors import DomainError, FloatOverflowError
from mlpoly.fracpoly import FracPoly


class TestNormalization:
    def test_sorting_and_merging(self):
        p = FracPoly([(1.0, 2.0), (3.0, 0.5), (2.0, 2.0)])
        assert p.terms == ((3.0, 0.5), (3.0, 2.0))

    def test_exact_zero_dropped(self):
        p = FracPoly([(1.0, 1.0), (-1.0, 1.0), (2.0, 0.0)])
        assert p.terms == ((2.0, 0.0),)

    def test_close_exponents_stay_apart(self):
        p = FracPoly([(1.0, 0.5 + 1e-12), (1.0, 0.5)])
        assert p.terms == ((1.0, 0.5), (1.0, 0.5 + 1e-12))

    def test_tiny_negative_exponent_rejected(self):
        with pytest.raises(DomainError, match=r"^negative exponent -1e-12 not representable$"):
            FracPoly([(1.0, -1e-12)])

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            FracPoly([(1.0, -0.3)])

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            FracPoly([(float("nan"), 1.0)])
        with pytest.raises(DomainError):
            FracPoly([(1.0, float("inf"))])
        with pytest.raises(DomainError):
            FracPoly([(float("inf"), float("nan"))])

    def test_infinite_coefficient_is_an_overflow(self):
        # a coefficient that overflowed is a numerical failure, not bad input
        with pytest.raises(FloatOverflowError) as info:
            FracPoly([(1.0, 0.0), (-float("inf"), 2.5)])
        assert str(info.value) == "the coefficient of x**2.5 exceeds the double-precision range"


class TestAlgebra:
    def test_add_sub(self):
        p = FracPoly([(1.0, 0.0), (2.0, 1.5)])
        q = FracPoly([(3.0, 1.5), (1.0, 2.0)])
        assert (p + q).terms == ((1.0, 0.0), (5.0, 1.5), (1.0, 2.0))
        assert (p - p).is_zero()

    def test_scale(self):
        p = FracPoly([(2.0, 1.0)])
        assert (3.0 * p).terms == ((6.0, 1.0),)
        assert p.scale(0.0).is_zero()

    def test_multiplication_by_scalars_only(self):
        p = FracPoly([(2.0, 1.0)])
        assert (2.0 * p).terms == (p * 2.0).terms == ((4.0, 1.0),)
        with pytest.raises(TypeError, match="unsupported operand"):
            p * p

    def test_times_x(self):
        p = FracPoly([(1.0, 0.0), (1.0, 0.5)])
        assert p.times_x().exponents == (1.0, 1.5)

    def test_derivative(self):
        p = FracPoly([(5.0, 0.0), (2.0, 1.0), (1.0, 3.0)])
        assert p.derivative().terms == ((2.0, 0.0), (3.0, 2.0))

    def test_derivative_fractional_low_exponent_rejected(self):
        with pytest.raises(DomainError):
            FracPoly([(1.0, 0.5)]).derivative()


class TestEvaluation:
    def test_zero_power_zero(self):
        assert FracPoly([(1.0, 0.0)])(0.0) == 1.0
        assert FracPoly([(1.0, 0.5)])(0.0) == 0.0

    def test_negative_x_integer_exponents(self):
        p = FracPoly([(1.0, 2.0), (1.0, 3.0)])
        assert p(-2.0) == pytest.approx(4.0 - 8.0)

    def test_negative_x_fractional_rejected(self):
        with pytest.raises(DomainError):
            FracPoly([(1.0, 0.5)])(-1.0)

    def test_fractional_value(self):
        p = FracPoly([(2.0, 0.5)])
        assert p(4.0) == pytest.approx(4.0)


class TestSerialization:
    def test_json_shape(self):
        p = FracPoly([(1.5, 0.0), (-2.0, 0.7)])
        obj = p.to_json_obj()
        assert obj == [{"c": 1.5, "mu": 0.0}, {"c": -2.0, "mu": 0.7}]
        assert [item["mu"] for item in obj] == sorted(item["mu"] for item in obj)


@st.composite
def _polys(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    terms = [
        (
            draw(st.floats(min_value=-10, max_value=10, allow_nan=False)),
            draw(st.floats(min_value=0, max_value=8, allow_nan=False)),
        )
        for _ in range(n)
    ]
    return FracPoly(terms)


class TestProperties:
    @given(_polys())
    @settings(max_examples=100, deadline=None)
    def test_construction_idempotent(self, p):
        assert FracPoly(p.terms) == p

    @given(_polys(), _polys(), st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=100, deadline=None)
    def test_addition_is_pointwise(self, p, q, x):
        lhs = (p + q)(x)
        rhs = p(x) + q(x)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)
