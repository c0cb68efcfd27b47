"""Exercises exact integer truncated-series arithmetic, including the
order-shrinking semantics of division and negative shifts."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airpockets import series
from airpockets.errors import (
    BadConstantTerm,
    DivisionByZeroSeries,
    NonInvertible,
    OrderMismatch,
    ValuationUnderflow,
)
from airpockets.series import TruncatedSeries, _div, _mul, _pow


def S(coeffs, order):
    return TruncatedSeries(coeffs, order)


# ---------- construction and inspection ----------

def test_construction_pads_and_truncates():
    s = S([1, 2], 4)
    assert s.coeffs == (1, 2, 0, 0, 0)
    t = S([1, 2, 3, 4, 5, 6, 7], 4)
    assert t.coeffs == (1, 2, 3, 4, 5)


def test_only_integer_inputs_are_accepted():
    # an integral Fraction is still not an int
    for bad in (Fraction(1, 2), Fraction(3), 3.0):
        with pytest.raises(TypeError):
            S([1, bad], 3)


def test_coefficients_are_plain_ints():
    # a bool, like any int subclass, is stored as the int it stands for
    from_bool = S([True, 0, -2, 1], 3)
    assert from_bool == S([1, 0, -2, 1], 3)
    assert hash(from_bool) == hash(S([1, 0, -2, 1], 3))
    assert str(from_bool) == "1 + -2*x^2 + x^3"
    assert all(type(c) is int for c in from_bool.coeffs)


def test_coefficient_out_of_range():
    with pytest.raises(IndexError):
        S([1], 3).coefficient(4)
    with pytest.raises(IndexError):
        S([1], 3).coefficient(-1)


def test_valuation_and_zero():
    assert S([0, 0, 5], 6).valuation == 2
    assert S([], 6).valuation == 7
    assert S([], 6).is_zero()
    assert not S([0, 1], 6).is_zero()


def test_monomial_beyond_order_is_zero():
    assert TruncatedSeries.monomial(7, 4).is_zero()


def test_integer_coefficients():
    assert S([3, 0, -2], 2).integer_coefficients() == (3, 0, -2)


def test_immutability():
    s = S([1], 2)
    with pytest.raises(AttributeError):
        s.order = 5


# ---------- ring operations ----------

def test_product_of_binomials():
    one_plus = S([1, 1], 4)
    one_minus = S([1, -1], 4)
    assert (one_plus * one_minus).coeffs == (1, 0, -1, 0, 0)


def test_product_can_vanish_under_truncation():
    x2 = TruncatedSeries.monomial(2, 4)
    x3 = TruncatedSeries.monomial(3, 4)
    assert (x2 * x3).is_zero()
    assert (x2 * x3).order == 4


def test_square_of_low_order_series():
    a = S([0, 0, 1, 1, 2, 4, 8], 6)
    assert (a * a).coeffs == (0, 0, 0, 0, 1, 2, 5)


def test_scalar_mixing():
    s = S([1, 2], 3)
    assert (2 * s).coeffs == (2, 4, 0, 0)
    assert (s + 1).coeffs == (2, 2, 0, 0)
    assert (1 - s).coeffs == (0, -2, 0, 0)
    assert (S([2, 4], 3) / 2).coeffs == (1, 2, 0, 0)
    with pytest.raises(NonInvertible):
        s / 2


def test_order_mismatch_rejected():
    with pytest.raises(OrderMismatch):
        S([1], 3) + S([1], 4)
    with pytest.raises(OrderMismatch):
        S([1], 3) * S([1], 4)


# ---------- division ----------

def test_geometric_series():
    one = S([1], 6)
    g = one / S([1, -1], 6)
    assert g.coeffs == (1, 1, 1, 1, 1, 1, 1)


def test_division_cancels_valuation_and_shrinks_order():
    x2 = TruncatedSeries.monomial(2, 10)
    x5 = TruncatedSeries.monomial(5, 10)
    q = x5 / x2
    assert q.order == 8
    assert q.coeffs[3] == 1 and q.valuation == 3


def test_division_valuation_underflow():
    x = TruncatedSeries.monomial(1, 8)
    x2 = TruncatedSeries.monomial(2, 8)
    with pytest.raises(ValuationUnderflow):
        x / x2


def test_division_by_zero_series():
    with pytest.raises(DivisionByZeroSeries):
        S([1], 5) / S([], 5)


def test_division_roundtrip_with_valuation():
    a = S([0, 0, 3, 1, 4, 1, 5, 9, 2, 6, 5], 10)
    for lead in (1, -1):
        b = S([0, 0, lead, 7, 1, 8, 2, 8, 1, 8, 2], 10)
        q = a / b
        assert q.order == 8
        assert q * b.truncate(8) == a.truncate(8)
    with pytest.raises(NonInvertible):
        a / S([0, 0, 2, 7, 1, 8, 2, 8, 1, 8, 2], 10)


def test_zero_power_is_one_and_negative_is_refused():
    s = S([1, 1], 6)
    assert s ** 0 == S([1], 6)
    with pytest.raises(ValueError):
        s ** -1


# ---------- sqrt ----------

def test_sqrt_of_quartic_radicand():
    r = S([1, -2, -1, -2, 1], 12)
    w = r.sqrt()
    assert w.coeffs[:6] == (1, -1, -1, -2, -2, -4)
    assert w * w == r


def test_sqrt_requires_unit_constant():
    with pytest.raises(BadConstantTerm):
        S([4], 4).sqrt()
    with pytest.raises(BadConstantTerm):
        S([0, 1], 4).sqrt()


# ---------- shift and truncation ----------

def test_shift_up_preserves_order():
    s = S([1, 2, 3], 4)
    assert s.shift(2).coeffs == (0, 0, 1, 2, 3)
    assert s.shift(2).order == 4


def test_shift_past_the_order_pads_no_further():
    s = S([1, 2, 3], 4)
    assert s.shift(5) == S([], 4)
    tracemalloc.start()
    try:
        assert s.shift(10**6) == S([], 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000, f"shift allocated {peak} bytes"


def test_shift_down_shrinks_order():
    s = S([0, 0, 0, 7, 5], 6)
    t = s.shift(-3)
    assert t.order == 3
    assert t.coeffs == (7, 5, 0, 0)
    with pytest.raises(ValuationUnderflow):
        s.shift(-4)


def test_truncate_only_downward():
    s = S([1, 2, 3], 5)
    assert s.truncate(2).coeffs == (1, 2, 3)
    with pytest.raises(OrderMismatch):
        s.truncate(6)


def test_agrees_through():
    a = S([1, 2, 3, 9], 3)
    b = S([1, 2, 3, 0], 3)
    assert a.agrees_through(b, 2)
    assert not a.agrees_through(b, 3)
    with pytest.raises(OrderMismatch):
        a.agrees_through(b, 4)


# ---------- algebraic laws ----------

coeff = st.integers(min_value=-9, max_value=9)
series20 = st.lists(coeff, min_size=0, max_size=21).map(
    lambda cs: TruncatedSeries(cs, 20))
unit20 = st.lists(coeff, min_size=0, max_size=20).map(
    lambda cs: TruncatedSeries([1] + cs, 20))


@settings(max_examples=100)
@given(series20, series20, series20)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + S([], 20) == a
    assert a * S([1], 20) == a
    assert a - a == S([], 20)


@settings(max_examples=100)
@given(series20, unit20)
def test_division_inverts_multiplication(a, u):
    assert (a * u) / u == a
    assert (a / u) * u == a


@settings(max_examples=50)
@given(unit20)
def test_sqrt_squares_back(u):
    s = u * u
    shifted = s / s.coefficient(0)
    root = shifted.sqrt()
    assert root * root == shifted


# ---------- the integer contract ----------

# each operation below is checked against a schoolbook computation on
# lists of ints: the values must agree and every coefficient must be an
# int; a result that is not an integer series raises NonInvertible
ORDER = 8
dense = st.lists(coeff, min_size=ORDER + 1, max_size=ORDER + 1)


def _ref_mul(a, b):
    return [sum(a[i] * b[n - i] for i in range(n + 1))
            for n in range(ORDER + 1)]


def _ref_div(a, b):
    # b[0] is 1 or -1, its own inverse
    q = []
    for n in range(ORDER + 1):
        q.append((a[n] - sum(q[i] * b[n - i] for i in range(n))) * b[0])
    return q


def _ref_sqrt(a):
    # a[0] == 1; 2·s_n = a_n - (s_1·s_{n-1} + ... + s_{n-1}·s_1)
    s = [1]
    for n in range(1, ORDER + 1):
        twice = a[n] - sum(s[i] * s[n - i] for i in range(1, n))
        assert twice % 2 == 0
        s.append(twice // 2)
    return s


def assert_exact(got, want):
    assert got.order == ORDER
    assert got.coeffs == tuple(want)
    assert all(type(c) is int for c in got.coeffs)


def _schoolbook_mul(a, b, order):
    a, b = a + [0] * (order + 1), b + [0] * (order + 1)
    return [sum(a[i] * b[n - i] for i in range(n + 1))
            for n in range(order + 1)]


def _schoolbook_div(a, b, order):
    a, b = a + [0] * (order + 1), b + [0] * (order + 1)
    q = []
    for n in range(order + 1):
        q.append((a[n] - sum(q[i] * b[n - i] for i in range(n))) * b[0])
    return q


# coefficient lists with trailing zeros, and divisors of degree 0 to 6
# with constant term ±1, padded with zeros as a series of them would be
padded = st.builds(lambda cs, pad: cs + [0] * pad,
                   st.lists(st.integers(-9, 9), max_size=45),
                   st.integers(0, 12))
poly_divisor = st.builds(lambda lead, tail, pad: [lead] + tail + [0] * pad,
                         st.sampled_from([1, -1]),
                         st.lists(st.integers(-9, 9), max_size=6),
                         st.integers(0, 40))


@settings(max_examples=200)
@given(st.integers(0, 40), padded, padded, poly_divisor, st.integers(0, 5))
def test_extent_bounded_loops_match_the_schoolbook(order, a, b, d, e):
    # the one kernel that TruncatedSeries and the catalog share, on lists
    # and tuples alike: all-zero operands, an operand that runs past
    # order + 1, products whose degree passes the order, and divisors
    # with trailing zeros
    zero = [0] * len(a)
    long = a + [0] * (order + 1) + [1]
    for x, y in ((a, b), (d, a), (a, d), (zero, b), (b, zero), (zero, zero),
                 (long, b), (b, long)):
        want = _schoolbook_mul(x, y, order)
        assert _mul(x, y, order) == want
        assert _mul(tuple(x), tuple(y), order) == want
    for x in (a, b, zero, long):
        want = _schoolbook_div(x, d, order)
        assert _div(x, d, order) == want
        assert _div(tuple(x), tuple(d), order) == want
    power = _schoolbook_mul([1], [1], order)
    for _ in range(e):
        power = _schoolbook_mul(power, b, order)
    assert _pow(b, e, order) == power
    assert _pow(tuple(b), e, order) == power


@pytest.mark.parametrize("e", range(10))
def test_power_squares_once_per_bit_below_the_top(monkeypatch, e):
    # square and multiply: e.bit_length() - 1 squarings and one product
    # per set bit of e, and no squaring after the last bit
    base = S([1, 2, -1, 3], 12)
    want = S([1], 12)
    for _ in range(e):
        want = want * base
    calls = []
    kernel = series._mul

    def counted(a, b, order):
        calls.append(a is b)
        return kernel(a, b, order)

    monkeypatch.setattr(series, "_mul", counted)
    assert base ** e == want
    assert calls.count(True) == max(e.bit_length() - 1, 0)
    assert calls.count(False) == bin(e).count("1")


@settings(max_examples=100)
@given(dense, dense, st.sampled_from([1, -1]),
       st.integers(-6, 6).filter(bool), st.integers(1, 3))
def test_integer_contract(a, b, lead, d, e):
    b = [lead] + b[1:]
    sa, sb = S(a, ORDER), S(b, ORDER)
    assert_exact(sa + sb, [x + y for x, y in zip(a, b)])
    assert_exact(sa - sb, [x - y for x, y in zip(a, b)])
    assert_exact(sa * sb, _ref_mul(a, b))
    assert_exact(sa / sb, _ref_div(a, b))
    assert_exact((sa * d) / d, a)
    power = b
    for _ in range(e - 1):
        power = _ref_mul(power, b)
    assert_exact(sb ** e, power)
    u = [1] + a[1:]
    square = _ref_mul(u, u)
    assert _ref_sqrt(square) == u
    assert_exact(S(square, ORDER).sqrt(), u)
    with pytest.raises(NonInvertible):
        sa / S([2] + b[1:], ORDER)
    with pytest.raises(NonInvertible):
        (sa * (2 * d) + d) / (2 * d)
    with pytest.raises(NonInvertible):
        S([1, 1], ORDER).sqrt()
