"""The series catalog against frozen expansions, brute-force counts, printed
closed forms, and its own dual-route plumbing (determinants, band systems)."""

import json
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airpockets import catalog
from airpockets import reference as ref
from airpockets import series
from airpockets import verify
from airpockets.catalog import (
    GDAP_NAMES,
    NamedSeries,
    band_cramer_numerators,
    band_poly_matrix,
    cramer_numerators,
    evaluate,
    gf_H,
    gf_H_bounded,
    gf_bounded_0t,
    gf_bounded_sym,
    gf_bounded_sym_ordinate,
    gf_dap,
    gf_gdap,
    gf_minorized,
    gf_prefix_negative,
    gf_prefix_positive,
    gf_prefix_positive_total,
    poly_D,
    poly_N,
    poly_det,
    series_names,
    solve_series_system,
)
from airpockets.enumeration import (
    FamilySpec,
    count_paths,
    count_paths_upto,
    enum_h,
)
from airpockets.errors import (
    BadParams,
    ConsistencyError,
    IndexOutOfRange,
    InfeasibleSpec,
    NonInvertible,
    OrderMismatch,
    SingularToOrder,
    UnknownName,
)
from airpockets.series import TruncatedSeries


def ints(series):
    return series.integer_coefficients()


def trim(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def conv(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return trim(out)


def lifted_band(lo, hi, order):
    # the band system of band_poly_matrix, (matrix, rhs), with its entries
    # lifted to TruncatedSeries
    rows, rhs = band_poly_matrix(lo, hi)
    return ([[TruncatedSeries(e, order) for e in row] for row in rows],
            [TruncatedSeries(e, order) for e in rhs])


def ratio(num, den, order):
    return TruncatedSeries(num, order) / TruncatedSeries(den, order)


def counts(order, **spec_fields):
    spec = FamilySpec(**spec_fields)
    out = []
    for n in range(order + 1):
        try:
            out.append(count_paths(n, spec))
        except InfeasibleSpec:
            out.append(0)  # unreachable endpoint for this length
    return tuple(out)


# ---------- frozen polynomials ----------

# band determinants, ascending coefficients
D_POLYS = {
    0: (1,),
    1: (1, 0, -1),
    2: (1, 0, -2, -1, 1),
    3: (1, 0, -3, -2, 2, 2, -1),
    6: (1, 0, -6, -5, 11, 17, -4, -19, -4, 10, 4, -5, 1),
}

# band Cramer numerators, keyed (k, t)
N_TABLE = {
    (0, 0): (1,),
    (1, 0): (),
    (0, 1): (1, 0, -1),
    (1, 1): (0, 1),
    (2, 1): (0, 0, 1),
    (3, 1): (),
    (0, 2): (1, 0, -2, -1, 1),
    (1, 2): (0, 1, 0, -1),
    (2, 2): (0, 0, 1),
    (3, 2): (0, 0, 1, 1, -1),
    (4, 2): (0, 0, 0, 1),
    (5, 2): (),
    (0, 3): (1, 0, -3, -2, 2, 2, -1),
    (1, 3): (0, 1, 0, -2, -1, 1),
    (2, 3): (0, 0, 1, 0, -1),
    (3, 3): (0, 0, 0, 1),
    (4, 3): (0, 0, 1, 1, -1, -2, 1),
    (5, 3): (0, 0, 0, 1, 1, -1),
    (6, 3): (0, 0, 0, 0, 1),
    (7, 3): (),
}

# axis series of the height-limited bands, as (numerator, denominator)
G0T_RATIONALS = {
    1: ((0, 0, 1), (1, 0, -1)),
    2: ((0, 0, 1, 1, -1), (1, 0, -2, -1, 1)),
    3: ((0, 0, 1, 1, -1, -2, 1), conv((1, -1, -2, 1), (1, 1, 0, -1))),
    4: ((0, 0, 1, 1, -2, -3, 0, 3, -1), (1, 0, -4, -3, 4, 5, -1, -3, 1)),
}

# axis totals of the centered bands, same shape
SYM_RATIONALS = {
    1: ((1,), (1, 0, -2, -1, 1)),
    2: ((-1, -1, 1, 1), (-1, -1, 3, 6, 2, -3, -2, 1)),
    3: (conv((1, 0, -2, -1, 1), (1, 0, -2, -1, 1)),
        (1, 0, -6, -5, 11, 17, -4, -19, -4, 10, 4, -5, 1)),
}

# centered-band Cramer numerators, keyed (tilde index, t); the tilde index
# j names the column j + t of the doubled band
TILDE_SPOTS = {
    (2, 1): (0, 1, 1, -1),
    (-1, 2): (0, 0, 1, 1, -1, -2, 1),
    (0, 2): (1, 0, -3, -1, 3, 1, -1),
    (4, 2): (0, 1, 1, -2, -3, 2, 2, -1),
    (6, 2): (0, 0, 0, 1, 0, -1),
    (0, 3): (1, 0, -5, -3, 9, 9, -6, -8, 2, 3, -1),
    (7, 3): (0, 0, 1, 1, -3, -5, 3, 6, -1, -3, 1),
    (9, 3): (0, 0, 0, 0, 1, 0, -2, -1, 1),
}


# ---------- polynomial determinants ----------

def test_det_empty_and_scalar():
    assert poly_det([]) == (1,)
    assert poly_det([[(0, 5)]]) == (0, 5)


def test_det_two_by_two_is_ad_minus_bc():
    a, b, c, d = (1, 2), (0, 1), (3,), (1, 1, 1)
    want = trim([x - y for x, y in
                 zip(list(conv(a, d)) + [0] * 5, list(conv(b, c)) + [0] * 5)])
    assert poly_det([[a, b], [c, d]]) == want


def test_det_row_swap_sign():
    # leading zero pivot forces a swap; determinant of [[0,1],[1,0]] is -1
    assert poly_det([[(), (1,)], [(1,), ()]]) == (-1,)


def test_det_singular_matrix_is_zero():
    assert poly_det([[(1, 1), (1, 1)], [(1, 1), (1, 1)]]) == ()


def test_det_non_square_rejected():
    with pytest.raises(ValueError):
        poly_det([[(1,), (2,)]])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.lists(st.integers(-3, 3), max_size=3).map(trim),
                         min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_det_transpose_invariant(rows):
    transposed = [[rows[j][i] for j in range(3)] for i in range(3)]
    assert poly_det(rows) == poly_det(transposed)


# ---------- series systems ----------

def test_system_identity_solve():
    one = TruncatedSeries([1], 6)
    zero = TruncatedSeries([], 6)
    rhs = (TruncatedSeries((1, 2, 3), 6), TruncatedSeries((0, 1), 6))
    assert solve_series_system(((one, zero), (zero, one)), rhs) == list(rhs)


def test_system_triangular_solve():
    one = TruncatedSeries([1], 8)
    x = TruncatedSeries.monomial(1, 8)
    zero = TruncatedSeries([], 8)
    # u + x v = x, v = 1  =>  u = x - x = 0... use rhs v = x so u = x - x^2
    u, v = solve_series_system(((one, x), (zero, one)), (x, x))
    assert v == x
    assert u == x - x * x


def test_system_band_matches_cramer_quotients():
    solved = solve_series_system(*lifted_band(0, 2, 12))
    den = TruncatedSeries(D_POLYS[2], 12)
    for k in range(6):
        want = TruncatedSeries(N_TABLE[(k, 2)], 12) / den
        assert solved[k] == want


def test_system_singular_to_order():
    x = TruncatedSeries.monomial(1, 5)
    one = TruncatedSeries([1], 5)
    with pytest.raises(SingularToOrder):
        solve_series_system(((x, one), (x, one)), (one, one))


def test_system_non_unit_pivot_raises():
    # 2u + v = 1, u + (3 + x)v = x: the constant terms alone give 3/5, -1/5,
    # and the first pivot, 2, has no integer inverse
    order = 6
    one = TruncatedSeries([1], order)
    x = TruncatedSeries.monomial(1, order)
    a = ((2 * one, one), (one, 3 + x))
    rhs = (one, x)
    with pytest.raises(NonInvertible):
        solve_series_system(a, rhs)


def test_system_pivots_past_a_positive_valuation():
    # x·u + v = 1, u + v = 2: column 0 pivots on the second row, and
    # u = 1/(1 - x), v = 2 - 1/(1 - x)
    order = 8
    one = TruncatedSeries([1], order)
    x = TruncatedSeries.monomial(1, order)
    u, v = solve_series_system(((x, one), (one, one)), (one, 2 * one))
    geometric = one / (one - x)
    assert (u, v) == (geometric, 2 - geometric)


def test_system_singular_after_elimination():
    # the second column's pivot loses its constant term to the first
    order = 5
    one = TruncatedSeries([1], order)
    x = TruncatedSeries.monomial(1, order)
    with pytest.raises(SingularToOrder):
        solve_series_system(((one, one), (one, one + x)), (one, one))


def test_wrong_elimination_fails_the_substitution(monkeypatch):
    # the solution is checked against the original series system, so a
    # wrong pivot inverse cannot slip through
    divide = series._div

    def off_at_the_top(a, b, order):
        quotient = divide(a, b, order)
        quotient[-1] += 1
        return quotient

    monkeypatch.setattr(series, "_div", off_at_the_top)
    with pytest.raises(ConsistencyError, match="fails to reproduce"):
        solve_series_system(*lifted_band(0, 2, 8))


@pytest.mark.parametrize("name", ["_mul", "_div", "_pow"])
def test_catalog_shares_the_series_kernel(name):
    # one product, one quotient and one power on coefficient lists, so
    # the catalog and TruncatedSeries cannot drift apart
    assert getattr(catalog, name) is getattr(series, name)


@pytest.mark.parametrize("lo, hi", [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4),
                                    (-1, 1), (-2, 2), (-3, 3)])
def test_system_matches_gauss_jordan_on_bands(lo, hi):
    # the band solved by plain Gauss-Jordan on series objects
    matrix, rhs = lifted_band(lo, hi, 14)
    n = len(matrix)
    a = [list(row) for row in matrix]
    b = list(rhs)
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col].coefficient(0))
        a[col], a[pivot], b[col], b[pivot] = a[pivot], a[col], b[pivot], b[col]
        inv = TruncatedSeries([1], 14) / a[col][col]
        a[col] = [e * inv for e in a[col]]
        b[col] = b[col] * inv
        for r in range(n):
            if r != col:
                f = a[r][col]
                a[r] = [e - f * p for e, p in zip(a[r], a[col])]
                b[r] = b[r] - f * b[col]
    assert solve_series_system(matrix, rhs) == b


def _column_replaced(rows, rhs, column):
    return [row[:column] + [b] + row[column + 1:] for row, b in zip(rows, rhs)]


@pytest.mark.parametrize("lo, hi", [(0, t) for t in range(5)]
                         + [(-t, t) for t in range(1, 4)])
def test_band_cramer_numerators_are_column_determinants(lo, hi):
    rows, rhs = band_poly_matrix(lo, hi)
    det, numerators = band_cramer_numerators(lo, hi)
    assert det == poly_det(rows)
    assert numerators == [poly_det(_column_replaced(rows, rhs, c))
                          for c in range(len(rows))]


@pytest.mark.parametrize("lo, hi", [(0, t) for t in range(9)]
                         + [(-t, t) for t in range(1, 6)])
def test_schur_route_matches_the_full_band_elimination(lo, hi):
    assert band_cramer_numerators(lo, hi) == \
        cramer_numerators(*band_poly_matrix(lo, hi))


@pytest.mark.parametrize("lo, hi", [(0, 3), (-2, 2)])
def test_bumped_g_numerator_fails_the_full_system(monkeypatch, lo, hi):
    # the g numerators are lifted from the f ones, outside the Schur
    # elimination's own check, so only the check of the full band system
    # can catch a wrong one
    lift, m = catalog._lift_schur, hi - lo + 1
    for k in range(m):
        for j in (0, 1, 4):
            def bumped(det, nums):
                det, full = lift(det, nums)
                full[m + k] = catalog._padd(full[m + k], (0,) * j + (1,))
                return det, full

            monkeypatch.setattr(catalog, "_lift_schur", bumped)
            with pytest.raises(ConsistencyError, match="A·N = det"):
                band_cramer_numerators(lo, hi)


@pytest.mark.parametrize("rows, rhs", [
    # a zero leading entry: one row swap
    ([[(), (1,), (2, 1)], [(1, 1), (0, 1), ()], [(3,), (), (1, 0, 1)]],
     [(1,), (0, 2), (-1, 1)]),
    # zeros on the diagonal in two columns: two swaps
    ([[(), (), (1,)], [(), (1, 1), (2,)], [(1, -1), (0, 1), ()]],
     [(2,), (), (0, 0, 3)]),
    ([[(0, 2)]], [(1, 1)]),
])
def test_cramer_numerators_of_generic_matrices(rows, rhs):
    det, numerators = cramer_numerators(rows, rhs)
    assert det == poly_det(rows)
    assert numerators == [poly_det(_column_replaced(rows, rhs, c))
                          for c in range(len(rows))]


# det and Cramer numerators of the bands (0, t), t <= 7, and (-t, t),
# t <= 3, as the elimination that updated every entry computed them
BAND_ELIMINATIONS = json.loads(
    (Path(__file__).parent / "golden" / "band_cramer.json").read_text())


@pytest.mark.parametrize("case", BAND_ELIMINATIONS,
                         ids=lambda case: "band{}".format(tuple(case["band"])))
def test_band_eliminations_are_pinned(case):
    lo, hi = case["band"]
    want = tuple(case["det"])
    assert poly_det(band_poly_matrix(lo, hi)[0]) == want
    assert band_cramer_numerators(lo, hi) == \
        (want, [tuple(num) for num in case["numerators"]])


@pytest.mark.parametrize("case", BAND_ELIMINATIONS,
                         ids=lambda case: "band{}".format(tuple(case["band"])))
def test_series_solver_gives_the_pinned_cramer_quotients(case):
    # every unknown of the lifted band system is its numerator over det
    order = 20
    den = TruncatedSeries(case["det"], order)
    solved = solve_series_system(*lifted_band(*case["band"], order))
    assert solved == [TruncatedSeries(num, order) / den
                      for num in case["numerators"]]


def test_generic_elimination_with_a_row_swap_is_pinned():
    # a zero leading entry, zeros in and beside the pivot columns, and a
    # zero right-hand entry
    rows = [[(), (0, 1), (1,), (2, 0, 1)],
            [(1, 1), (2,), (0, 1), ()],
            [(0, 1), (), (3,), (1, -1)],
            [(), (0, 0, 1), (), (1,)]]
    rhs = [(1,), (), (0, 1), (-1, 2)]
    det = (0, -5, 2, 7, 2, 3, -1)
    assert poly_det(rows) == det
    assert cramer_numerators(rows, rhs) == (det, [
        (16, -20, 3, -13, -1, 0, -1), (-8, 2, 12, 1, 7, -2),
        (0, -7, 8, 0, 5, 1, 1), (0, 5, -4, -5)])
    permutation = [[(), (1,), ()], [(), (), (1,)], [(1,), (), ()]]
    assert cramer_numerators(permutation, [(1,), (0, 1), (0, 0, 1)]) == \
        ((1,), [(0, 0, 1), (1,), (0, 1)])


def test_cramer_numerators_reject_singular_and_misshapen():
    with pytest.raises(ValueError):
        cramer_numerators([[(1,), (0, 1)], [(2,), (0, 2)]], [(1,), ()])
    with pytest.raises(ValueError):
        cramer_numerators([[(1,), (0, 1)]], [(1,)])
    with pytest.raises(ValueError):
        cramer_numerators([[(1,)]], [(1,), (2,)])
    assert cramer_numerators([], []) == ((1,), [])


def test_corrupted_cramer_elimination_is_caught(monkeypatch):
    # shifting the last right-hand entry by the product of the diagonal
    # keeps every back-substitution division exact, so only the check
    # A·N = det(A)·b can catch it
    eliminate = catalog._eliminate

    def corrupted(m):
        sign = eliminate(m)
        shift = (1,)
        for i in range(len(m)):
            shift = catalog._pmul(shift, m[i][i])
        m[-1][-1] = catalog._padd(m[-1][-1], shift)
        return sign

    monkeypatch.setattr(catalog, "_eliminate", corrupted)
    with pytest.raises(ConsistencyError):
        band_cramer_numerators(0, 2)


def test_system_rejects_mixed_orders():
    one5, one6 = TruncatedSeries([1], 5), TruncatedSeries([1], 6)
    with pytest.raises(OrderMismatch):
        solve_series_system(((one5,),), (one6,))
    with pytest.raises(OrderMismatch):
        solve_series_system(((one5, one5), (one5, one6)), (one5, one5))


def test_system_rejects_bad_shapes():
    one = TruncatedSeries([1], 4)
    with pytest.raises(ValueError, match="shape"):
        solve_series_system(((one, one),), (one,))
    with pytest.raises(ValueError, match="dimension must be positive"):
        solve_series_system((), ())
    with pytest.raises(ValueError, match="right-hand side"):
        solve_series_system(((one,),), (one, one))


def test_band_matrix_requires_zero_inside():
    with pytest.raises(ValueError):
        band_poly_matrix(1, 3)
    with pytest.raises(ValueError):
        band_poly_matrix(-3, -1)


# ---------- the axis-to-axis series ----------

def test_dap_frozen_counts():
    assert ints(gf_dap(10)) == ref.DAP_COUNTS


def test_dap_against_oracle():
    assert ints(gf_dap(12)) == counts(12, kind="dap")


def test_dap_functional_equation():
    a = gf_dap(30)
    x = TruncatedSeries.monomial(1, 30)
    x2 = TruncatedSeries.monomial(2, 30)
    assert a == x2 + x2 * a + x * a + x * (a * a)


def test_dap_needs_two_steps():
    assert ints(gf_dap(1)) == (0, 0)


# ---------- whole paths ----------

WHOLE_PATH_FROZEN = {
    "G": ref.GDAP_COUNTS,
    "Gp": ref.GDAP_UP_COUNTS,
    "Gp1": ref.GDAP_UP_DOWN_COUNTS,
    "Gp2": ref.GDAP_UP_UP_COUNTS,
    "Gm": ref.GDAP_DOWN_COUNTS,
    "Gm1": ref.GDAP_DOWN_DOWN_COUNTS,
    "Gm2": ref.GDAP_DOWN_UP_COUNTS,
    "f0": tuple(a + b for a, b in
                zip(ref.GDAP_UP_UP_COUNTS, ref.GDAP_DOWN_UP_COUNTS)),
    "g0": tuple(a + b for a, b in
                zip(ref.GDAP_UP_DOWN_COUNTS, ref.GDAP_DOWN_DOWN_COUNTS)),
}


@pytest.mark.parametrize("name", sorted(WHOLE_PATH_FROZEN))
def test_whole_path_frozen_counts(name):
    assert ints(gf_gdap(name, 10)) == WHOLE_PATH_FROZEN[name]


def test_whole_path_against_oracle():
    assert ints(gf_gdap("G", 11)) == counts(11, kind="gdap")
    up = counts(11, kind="gdap", start_step="up")
    assert ints(gf_gdap("Gp", 11)) == (up[0] + 1,) + up[1:]
    assert ints(gf_gdap("Gm1", 11)) == counts(
        11, kind="gdap", start_step="down", end_step="down")


def test_whole_path_splits():
    g = gf_gdap("G", 25)
    assert g == gf_gdap("Gp", 25) + gf_gdap("Gm", 25)
    assert g == 1 + gf_gdap("f0", 25) + gf_gdap("g0", 25)
    assert gf_gdap("Gp", 25) == 1 + gf_gdap("Gp1", 25) + gf_gdap("Gp2", 25)
    assert gf_gdap("Gm", 25) == gf_gdap("Gm1", 25) + gf_gdap("Gm2", 25)
    assert gf_gdap("Gm2", 25) == gf_gdap("Gp1", 25)


def test_whole_path_unknown_name():
    with pytest.raises(UnknownName):
        gf_gdap("Gq", 5)


# ---------- prefixes above the axis ----------

def test_climb_series_is_shifted_dap():
    assert evaluate("s2", 14).series == 1 + gf_dap(14)
    assert evaluate("r2", 14).series == evaluate("s2", 14).series


@pytest.mark.parametrize("name, order, quadratic", [
    # x·s^2 - (1+x-x^2)·s + 1 = 0
    ("s2", 300, ((1,), (-1, -1, 1), (0, 1))),
    # x^2·b^2 - (1-x^3)·b + 1 = 0
    ("B", 300, ((1,), (-1, 0, 0, 1), (0, 0, 1))),
    # W^2 - R = 0, R = 1 - 2x - x^2 - 2x^3 + x^4 the kernel radicand
    ("W", 1000, ((-1, 2, 1, 2, -1), (), (1,))),
], ids=["s", "b", "W"])
def test_climb_quadratic(name, order, quadratic):
    root = evaluate(name, order).series
    c0, c1, c2 = (TruncatedSeries(c, order) for c in quadratic)
    assert c2 * (root * root) + c1 * root + c0 == TruncatedSeries([], order)


def _root_coefficient_off_by_one(monkeypatch, n):
    # coefficient n of every square root comes out of its exact division
    # one too big
    def perturbed(a, b):
        q, rem = divmod(a, b)
        return q + (b == 2 * n), rem
    monkeypatch.setattr(catalog, "divmod", perturbed, raising=False)


RADICANDS = pytest.mark.parametrize(
    "radicand", [catalog.KERNEL_RADICAND, catalog.CEILING_RADICAND],
    ids=["kernel", "ceiling"])


@RADICANDS
def test_early_root_coefficient_off_by_one_fails_division(monkeypatch,
                                                          radicand):
    _root_coefficient_off_by_one(monkeypatch, 3)
    with pytest.raises(ConsistencyError, match="is not integral"):
        catalog._sqrt(radicand, 30)


@RADICANDS
def test_last_root_coefficient_off_by_one_fails_square(monkeypatch,
                                                       radicand):
    # no later coefficient reads the last one, so only the square sees it
    _root_coefficient_off_by_one(monkeypatch, 30)
    with pytest.raises(ConsistencyError, match=r"fails its square at x\^30"):
        catalog._sqrt(radicand, 30)


def test_radicand_without_integral_root_fails_division():
    # sqrt(1 + x) = 1 + x/2 - ...
    with pytest.raises(ConsistencyError, match="is not integral"):
        catalog._sqrt((1, 1), 5)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_prefix_positive_against_oracle(k):
    assert ints(gf_prefix_positive(k, 10)) == counts(
        10, kind="prefix_gdap", end_ordinate=k)


@pytest.mark.parametrize("name", ["Tk", "prefix_pos"])
def test_ordinate_far_above_the_order_is_zero(name):
    assert evaluate(name, 3, k=10**6).series == TruncatedSeries([], 3)


def test_prefix_positive_first_climb():
    assert gf_prefix_positive(1, 6).coefficient(1) == 1


def test_prefix_positive_rejects_axis():
    with pytest.raises(ValueError):
        gf_prefix_positive(0, 5)


def test_prefix_positive_total_frozen():
    assert ints(gf_prefix_positive_total(10)) == ref.PREFIX_POSITIVE_COUNTS


def test_prefix_positive_total_is_ordinate_sum():
    total = gf_prefix_positive_total(9)
    acc = TruncatedSeries([], 9)
    for k in range(1, 10):
        acc = acc + gf_prefix_positive(k, 9)
    assert total == acc


# ---------- prefixes below the axis ----------

def test_prefix_negative_frozen():
    assert ints(gf_prefix_negative(-1, 10)) == ref.PREFIX_END_MINUS1_COUNTS
    assert ints(gf_prefix_negative(-2, 10)) == ref.PREFIX_END_MINUS2_COUNTS


@pytest.mark.parametrize("k", [-1, -2, -3])
def test_prefix_negative_against_oracle(k):
    assert ints(gf_prefix_negative(k, 10)) == counts(
        10, kind="prefix_gdap", end_ordinate=k)


def test_prefix_negative_shift_correspondences():
    assert gf_prefix_negative(-1, 30).shift(1) == gf_gdap("Gp", 30) - 1
    assert gf_prefix_negative(-2, 30).shift(2) == gf_gdap("Gp2", 30)


def test_prefix_negative_rejects_axis():
    with pytest.raises(ValueError):
        gf_prefix_negative(0, 5)


# ---------- floored prefixes ----------

@pytest.mark.parametrize("m", [-1, -2])
def test_minorized_frozen(m):
    assert ints(gf_minorized(m, 10)) == ref.FLOORED_PREFIX_COUNTS[m]


@pytest.mark.parametrize("m", [0, -1, -2, -3])
def test_minorized_against_oracle(m):
    order = 12 if m == 0 else 10
    assert ints(gf_minorized(m, order)) == counts(
        order, kind="prefix_gdap", min_y=m)


def test_minorized_rejects_positive_floor():
    with pytest.raises(ValueError):
        gf_minorized(1, 5)


# ---------- band determinants ----------

@pytest.mark.parametrize("t", sorted(D_POLYS))
def test_det_polynomials_frozen(t):
    assert trim(ints(poly_D(t, 2 * t))) == D_POLYS[t]


def test_det_three_term_recurrence():
    for t in range(5):
        lhs = poly_D(t + 2, 30)
        rhs = TruncatedSeries((1, 1, -1), 30) * poly_D(t + 1, 30) \
            - poly_D(t, 30).shift(1)
        assert lhs == rhs


def test_det_rejects_negative_height():
    with pytest.raises(ValueError):
        poly_D(-1, 5)


@pytest.mark.parametrize("k,t", sorted(N_TABLE))
def test_num_polynomials_frozen(k, t):
    assert trim(ints(poly_N(k, t, max(2 * t + 1, 1)))) == N_TABLE[(k, t)]


def test_num_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        poly_N(-1, 2, 5)
    with pytest.raises(IndexOutOfRange):
        poly_N(6, 2, 5)
    with pytest.raises(IndexOutOfRange):
        poly_N(0, -1, 5)


# ---------- height-limited paths ----------

@pytest.mark.parametrize("t", sorted(G0T_RATIONALS))
def test_bounded_axis_rationals(t):
    num, den = G0T_RATIONALS[t]
    assert gf_bounded_0t(0, t, "g", 12) == ratio(num, den, 12)


@pytest.mark.parametrize("t", sorted(ref.BAND_LOW_COUNTS))
def test_bounded_axis_frozen(t):
    assert ints(gf_bounded_0t(0, t, "g", 10)) == ref.BAND_LOW_COUNTS[t]


@pytest.mark.parametrize("t", [1, 2, 3])
def test_bounded_per_ordinate_against_oracle(t):
    for k in range(t + 1):
        up = counts(9, kind="prefix_gdap", min_y=0, max_y=t,
                    end_ordinate=k, end_step="up")
        if k == 0:
            up = (up[0] + 1,) + up[1:]  # the empty prefix sits in f_0
        assert ints(gf_bounded_0t(k, t, "f", 9)) == up
        assert ints(gf_bounded_0t(k, t, "g", 9)) == counts(
            9, kind="prefix_gdap", min_y=0, max_y=t,
            end_ordinate=k, end_step="down")


@pytest.mark.parametrize("t", range(1, 7))
def test_bounded_matches_its_cramer_quotients(t):
    # N_col / D_t, each factor from its own sweep
    for order in (5, 2 * t, 4 * t + 3):
        for kind, offset in (("f", 0), ("g", t + 1)):
            for k in range(t + 1):
                quotient = poly_N(offset + k, t, order) / poly_D(t, order)
                assert gf_bounded_0t(k, t, kind, order) == quotient


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_bounded_matches_cramer_quotients(t):
    # the catalog's forward substitution against the band elimination
    solved = solve_series_system(*lifted_band(0, t, 30))
    for k in range(t + 1):
        assert gf_bounded_0t(k, t, "f", 30) == solved[k]
        assert gf_bounded_0t(k, t, "g", 30) == solved[t + 1 + k]


def test_bounded_rejects_bad_params():
    with pytest.raises(IndexOutOfRange):
        gf_bounded_0t(3, 2, "f", 5)
    with pytest.raises(ValueError):
        gf_bounded_0t(0, 0, "f", 5)
    with pytest.raises(ValueError):
        gf_bounded_0t(0, 2, "h", 5)


# ---------- centered bands ----------

@pytest.mark.parametrize("t", sorted(SYM_RATIONALS))
def test_sym_axis_rationals(t):
    num, den = SYM_RATIONALS[t]
    assert gf_bounded_sym(t, 12) == ratio(num, den, 12)


@pytest.mark.parametrize("t", sorted(ref.BAND_SYM_COUNTS))
def test_sym_frozen(t):
    assert ints(gf_bounded_sym(t, 10)) == ref.BAND_SYM_COUNTS[t]


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_sym_determinant_is_doubled_band(t):
    assert poly_det(band_poly_matrix(-t, t)[0]) \
        == trim(ints(poly_D(2 * t, 4 * t)))


@pytest.mark.parametrize("t", [1, 2, 3])
def test_sym_numerators_factor(t):
    d_prev = trim(ints(poly_D(t - 1, 2 * t)))
    numerators = band_cramer_numerators(-t, t)[1]
    assert numerators[t] == conv(d_prev, trim(ints(poly_D(t, 2 * t))))
    assert numerators[3 * t + 1] \
        == conv(d_prev, trim(ints(poly_N(t + 1, t, 2 * t + 2))))
    # the outermost ordinates admit no path of their ending kind
    assert numerators[0] == ()
    assert numerators[4 * t + 1] == ()


@pytest.mark.parametrize("j,t", sorted(TILDE_SPOTS))
def test_sym_numerator_spot_values(j, t):
    assert band_cramer_numerators(-t, t)[1][j + t] == TILDE_SPOTS[(j, t)]


@pytest.mark.parametrize("t", [1, 2])
def test_sym_per_ordinate_against_oracle(t):
    for k in range(-t, t + 1):
        up = counts(9, kind="prefix_gdap", min_y=-t, max_y=t,
                    end_ordinate=k, end_step="up")
        if k == 0:
            up = (up[0] + 1,) + up[1:]
        assert ints(gf_bounded_sym_ordinate(k, t, "f", 9)) == up
        assert ints(gf_bounded_sym_ordinate(k, t, "g", 9)) == counts(
            9, kind="prefix_gdap", min_y=-t, max_y=t,
            end_ordinate=k, end_step="down")


@pytest.mark.parametrize("lo, hi", [(0, 0), (0, 3), (-1, 4), (-2, 9),
                                    (-3, 3)])
def test_band_walk_matches_the_band_elimination(lo, hi):
    # the forward substitution on any band, lopsided ones included,
    # against the same band system solved by elimination
    order = 16
    steps = list(catalog._band_walk(lo, hi, order))
    solved = solve_series_system(*lifted_band(lo, hi, order))
    width = hi - lo + 1
    for i in range(width):
        assert TruncatedSeries([f[i] for f, _ in steps], order) == solved[i]
        assert TruncatedSeries([g[i] for _, g in steps], order) \
            == solved[width + i]


def test_sym_total_is_axis_sum():
    total = gf_bounded_sym(2, 12)
    f0 = gf_bounded_sym_ordinate(0, 2, "f", 12)
    g0 = gf_bounded_sym_ordinate(0, 2, "g", 12)
    assert total == f0 + g0


@pytest.mark.parametrize("t", range(1, 13))
def test_sym_one_sweep_matches_its_closed_form(t):
    # D_{t-1}·(D_t + N_{t+1}^t) / D_{2t}, each factor from its own sweep
    for order in (5, 2 * t, 4 * t + 3):
        num = poly_D(t - 1, order) * (poly_D(t, order)
                                      + poly_N(t + 1, t, order))
        assert gf_bounded_sym(t, order) == num / poly_D(2 * t, order)


# ---------- the reachable window ----------

# confined name -> (the band's floor in units of t, "k" when the ending
# ordinate is a parameter or 0 when it is the axis, the ending step); sym
# pools both kinds on the axis
CONFINED = {
    "fkt": (0, "k", "up"), "gkt": (0, "k", "down"),
    "f0t": (0, 0, "up"), "g0t": (0, 0, "down"),
    "sym": (-1, 0, None),
    "sym_f": (-1, "k", "up"), "sym_g": (-1, "k", "down"),
}


def _confined_brute(name, k, t, order):
    floor, _, step = CONFINED[name]
    spec = FamilySpec("prefix_gdap", min_y=floor * t, max_y=t,
                      end_ordinate=k, end_step=step)
    out = count_paths_upto(order, spec)
    if k == 0 and step == "up":
        out[0] += 1    # the empty prefix sits in f_0
    return tuple(out)


@pytest.mark.parametrize("name", sorted(CONFINED))
def test_confined_window_thresholds_against_brute_force(name):
    # the band clipped to the reachable window, at a ceiling just below,
    # at and just above the order, with k at and next to both band edges;
    # k = t = order + 1 lies above the order, where both series read zero
    floor, pinned, _ = CONFINED[name]
    for order in range(13):
        for t in (order - 1, order, order + 1):
            if t < 1:
                continue
            ks = {-t, -t + 1, 0, t - 1, t} if pinned == "k" else {0}
            for k in sorted(ks):
                if not floor * t <= k <= t:
                    continue
                params = {"k": k, "t": t} if pinned == "k" else {"t": t}
                got = ints(evaluate(name, order, **params).series)
                assert got == _confined_brute(name, k, t, order), \
                    (name, k, t, order)


def test_confined_window_is_not_a_clamp_of_the_height():
    # t = 25 admits paths that rise above 5, or dip below -5 and climb
    # back, before they end at -5 by length 12: the window comes from k
    # and the order, not from clamping t
    narrow = gf_bounded_sym_ordinate(-5, 5, "f", 12)
    wide = gf_bounded_sym_ordinate(-5, 25, "f", 12)
    assert narrow != wide
    assert ints(wide) == _confined_brute("sym_f", -5, 25, 12)


def test_confined_height_past_the_order_is_cheap():
    # the walk covers the ordinates a path can reach, whatever the band's
    # height; a route that sweeps every level to t takes seconds here
    start = time.perf_counter()
    evaluate("sym", 400, t=20000)
    evaluate("f0t", 400, t=20000)
    evaluate("sym_g", 400, k=0, t=20000)
    assert time.perf_counter() - start < 3.0


def test_sym_rejects_bad_params():
    with pytest.raises(ValueError):
        gf_bounded_sym(0, 5)
    with pytest.raises(IndexOutOfRange):
        gf_bounded_sym_ordinate(3, 2, "f", 5)


# ---------- the special-height family ----------

def test_special_height_frozen():
    assert ints(gf_H(12)) == ref.SPECIAL_H_COUNTS


def test_special_height_quadratic():
    b = gf_H(30)
    lhs = 2 * b.shift(2) - TruncatedSeries((1, 0, 0, -1), 30)
    assert lhs * lhs == TruncatedSeries((1, 0, -4, -2, 0, 0, 1), 30)


def test_special_height_against_enumerator():
    got = ints(gf_H(12))
    assert got == tuple(len(enum_h(n)) for n in range(13))


def test_ceiling_zero_is_empty_only():
    assert ints(gf_H_bounded(0, 10)) == (1,) + (0,) * 10


def test_ceiling_one_alternates():
    assert ints(gf_H_bounded(1, 10)) == (1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1)


def test_ceiling_agrees_with_full_series_low_down():
    b = gf_H(12)
    for k in range(1, 6):
        assert gf_H_bounded(k, 12).agrees_through(b, k + 1)


def test_ceiling_heights_nest():
    lower, higher = gf_H_bounded(3, 12), gf_H_bounded(4, 12)
    assert all(a <= b for a, b in zip(ints(lower), ints(higher)))


def test_ceiling_slices_sum():
    total = TruncatedSeries([], 10)
    for k in range(5):
        total = total + evaluate("Ak", 10, k=k).series
    assert total == gf_H_bounded(4, 10)


def test_high_ceilings_are_cheap():
    # each ceiling is one step of a linear recurrence on the order's
    # coefficients, then one division per level asked for; a route that
    # divides at every ceiling takes seconds here
    start = time.perf_counter()
    evaluate("Bk", 400, k=399)
    evaluate("Ak", 400, k=399)
    assert time.perf_counter() - start < 3.0


def test_whole_path_closed_forms_are_cheap():
    # each of the ten is one product by a polynomial and one division by
    # the kernel radicand after the shared root; a route that divides by
    # whole series at every step takes seconds here
    start = time.perf_counter()
    for name in (*GDAP_NAMES, "prefix_pos_total"):
        evaluate(name, 1000)
    assert time.perf_counter() - start < 0.5


def test_ceiling_rejects_negative():
    with pytest.raises(ValueError):
        gf_H_bounded(-1, 5)


@pytest.mark.parametrize("order", [10, 33, 60])
def test_ceiling_levels_past_the_order_match_the_uncapped_loop(order):
    # B_i = B_{i-1} / (1 - w_i·(B_{i-1} - B_{i-2})), w_1 = x^2, w_i = x
    # above, run through every level up to order + 400 with no early stop
    wanted = {0, 1, order - 1, order, order + 1, order + 2, order + 7,
              order + 400}
    one = TruncatedSeries([1], order)
    previous, level = TruncatedSeries([], order), one
    arch = level
    full = evaluate("B", order).series
    for k in range(order + 401):
        if k:
            weight = TruncatedSeries.monomial(2 if k == 1 else 1, order)
            previous, level = level, level / (one - weight * arch)
            arch = level - previous
        if k not in wanted:
            continue
        assert evaluate("Bk", order, k=k).series == level, k
        assert evaluate("Ak", order, k=k).series == level - previous, k
        if k >= order:
            assert level == full, k


# ---------- the catalog surface ----------

def test_series_route_signatures_name_their_parameters():
    from inspect import signature

    routes = {name: tuple(signature(fn).parameters)
              for name, fn in vars(catalog).items() if hasattr(fn, "ints")}
    assert routes == {
        "gf_dap": ("order",),
        "gf_gdap": ("name", "order"),
        "gf_prefix_positive": ("k", "order"),
        "gf_prefix_positive_total": ("order",),
        "gf_prefix_negative": ("k", "order"),
        "gf_minorized": ("m", "order"),
        "poly_D": ("t", "order"),
        "poly_N": ("k", "t", "order"),
        "gf_bounded_0t": ("k", "t", "kind", "order"),
        "gf_bounded_sym": ("t", "order"),
        "gf_bounded_sym_ordinate": ("k", "t", "kind", "order"),
        "gf_H": ("order",),
        "gf_H_bounded": ("k", "order"),
        "gf_H_exact": ("k", "order"),
    }


def test_catalog_names_are_sorted_and_complete():
    names = series_names()
    assert names == tuple(sorted(names))
    for expected in ("G", "dap", "D", "N", "g0t", "sym", "B", "minorized"):
        assert expected in names


def test_evaluate_returns_named_series():
    got = evaluate("g0t", 10, t=1)
    assert isinstance(got, NamedSeries)
    assert got.name == "g0t"
    assert got.params == (1,)
    assert ints(got.series) == (0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1)


def test_evaluate_unknown_name():
    with pytest.raises(UnknownName):
        evaluate("nosuch", 5)


def test_evaluate_parameter_mismatches():
    with pytest.raises(BadParams):
        evaluate("G", 5, k=1)
    with pytest.raises(BadParams):
        evaluate("D", 5)
    with pytest.raises(BadParams):
        evaluate("N", 5, k=1)
    with pytest.raises(BadParams):
        evaluate("minorized", 5, k=-1)


def test_evaluate_maps_range_errors_to_bad_params():
    with pytest.raises(BadParams):
        evaluate("prefix_pos", 5, k=0)
    with pytest.raises(BadParams):
        evaluate("minorized", 5, m=1)
    with pytest.raises(BadParams):
        evaluate("N", 5, k=99, t=2)
    with pytest.raises(BadParams):
        evaluate("G", -1)


def test_evaluate_is_deterministic():
    first = evaluate("sym", 12, t=2)
    second = evaluate("sym", 12, t=2)
    assert first == second


@pytest.mark.parametrize("name,params", [
    ("dap", {}), ("G", {}), ("W", {}), ("s2", {}), ("prefix_pos_total", {}),
    ("Tk", {"k": 2}), ("Rk", {"k": -2}), ("prefix_neg", {"k": -1}),
    ("minorized", {"m": -1}), ("D", {"t": 3}), ("N", {"k": 2, "t": 2}),
    ("fkt", {"k": 1, "t": 2}), ("g0t", {"t": 2}), ("sym", {"t": 1}),
    ("sym_g", {"k": -1, "t": 1}), ("B", {}), ("Bk", {"k": 3}),
    ("Ak", {"k": 2}), ("P", {}),
])
def test_evaluate_integrality(name, params):
    got = evaluate(name, 12, **params)
    ints(got.series)  # raises on any non-integer coefficient


def test_evaluate_concurrent_consistency():
    jobs = [("sym", {"t": 2}), ("g0t", {"t": 3}), ("G", {}),
            ("minorized", {"m": -2}), ("B", {}), ("prefix_neg", {"k": -1})]
    with ThreadPoolExecutor(max_workers=8) as pool:
        futures = [pool.submit(evaluate, name, 16, **kw)
                   for name, kw in jobs * 4]
        results = [f.result() for f in futures]
    for i in range(len(results)):
        assert results[i] == results[i % len(jobs)]


# one parameter set for every catalog name
REPRESENTATIVE_PARAMS = {
    "dap": {}, "P": {}, "W": {}, "G": {}, "Gp": {}, "Gp1": {}, "Gp2": {},
    "Gm": {}, "Gm1": {}, "Gm2": {}, "f0": {}, "g0": {}, "s2": {}, "r2": {},
    "Tk": {"k": 2}, "Rk": {"k": -2}, "prefix_pos": {"k": 1},
    "prefix_pos_total": {}, "prefix_neg": {"k": -2}, "minorized": {"m": -2},
    "D": {"t": 3}, "N": {"k": 5, "t": 2}, "fkt": {"k": 1, "t": 2},
    "gkt": {"k": 2, "t": 3}, "f0t": {"t": 2}, "g0t": {"t": 3},
    "sym": {"t": 2}, "sym_f": {"k": 1, "t": 2}, "sym_g": {"k": -1, "t": 1},
    "B": {}, "Bk": {"k": 3}, "Ak": {"k": 2},
}


def test_evaluate_runs_no_dual_derivation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dual derivation ran inside evaluate")

    for pairs in verify.DUAL_PATHS.values():
        for _, derive in pairs:
            monkeypatch.setattr(verify, derive.__name__, refuse)
    # the Bareiss determinant and the series solver serve the tests (and
    # the benchmark's tracer) alone, and every route runs on integer
    # lists, not on series
    monkeypatch.setattr(catalog, "poly_det", refuse)
    monkeypatch.setattr(catalog, "solve_series_system", refuse)
    for method in ("sqrt", "__mul__", "__rmul__", "__truediv__", "__pow__"):
        monkeypatch.setattr(TruncatedSeries, method, refuse)
    assert set(REPRESENTATIVE_PARAMS) == set(catalog.CATALOG)
    for name, params in REPRESENTATIVE_PARAMS.items():
        evaluate(name, 12, **params)


# ---------- call history ----------

@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(REPRESENTATIVE_PARAMS)),
       st.lists(st.integers(0, 60), min_size=1, max_size=8))
def test_order_sequences_match_cold_evaluation(name, orders):
    # repeats, lower and higher orders give what a lone call gives
    params = REPRESENTATIVE_PARAMS[name]
    history = [evaluate(name, order, **params).series for order in orders]
    for order, got in zip(orders, history):
        assert got == evaluate(name, order, **params).series
