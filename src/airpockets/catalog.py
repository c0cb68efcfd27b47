"""Every named counting series, evaluated exactly to a requested order.

Each evaluator returns a TruncatedSeries all of whose coefficients are
exact at the requested order: intermediate steps that shrink the order
(division by x, x^2 or x^3) are padded internally and truncated back down
at the end, so callers never receive fewer coefficients than asked for.

Each catalog name has one route, and a call runs that route alone.  The
independent derivations that tie a family to a second route (fixed
points, first-return systems, band eliminations, radical closed forms,
Bareiss determinants, the ceiling recurrence run backward) live in
verify.DUAL_PATHS and run in `verify --suite paper-series` and the tests.
Three checks on an algorithm's own output stay in the call: the series
solver substitutes its solution back into the system, and the climb and
special-height roots are checked against their quadratics.  A failed
check raises ConsistencyError and always means a bug in this package,
never bad input.

Evaluations are pure; results are memoized per (parameters, order) with
lru_cache, which is safe under concurrent lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    BadParams,
    ConsistencyError,
    IndexOutOfRange,
    OrderMismatch,
    SingularToOrder,
    UnknownName,
    _require,
)
from .series import TruncatedSeries

# An integer polynomial is a tuple of coefficients, ascending, no trailing
# zeros; the zero polynomial is the empty tuple.
Poly = tuple[int, ...]

P_ZERO: Poly = ()
P_ONE: Poly = (1,)
P_X: Poly = (0, 1)


# ---------- integer polynomial arithmetic ----------

def _ptrim(coeffs) -> Poly:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _ptrim(out)


def _pneg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def _psub(a: Poly, b: Poly) -> Poly:
    return _padd(a, _pneg(b))


def _pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return P_ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _ptrim(out)


def _pdiv_exact(a: Poly, b: Poly) -> Poly:
    # exact division only: fraction-free elimination guarantees it, so any
    # remainder (or a non-integer quotient coefficient) is a bug
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return P_ZERO
    if len(a) < len(b):
        raise ConsistencyError("inexact polynomial division (degree underflow)")
    rem = list(a)
    lead = b[-1]
    quot = [0] * (len(a) - len(b) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(b) - 1]
        if c % lead:
            raise ConsistencyError("inexact polynomial division (leading term)")
        q = c // lead
        quot[k] = q
        if q:
            for j, bj in enumerate(b):
                rem[k + j] -= q * bj
    if any(rem):
        raise ConsistencyError("inexact polynomial division (remainder)")
    return _ptrim(quot)


def poly_det(rows: list[list[Poly]]) -> Poly:
    """Fraction-free determinant of a square matrix of integer polynomials.

    Bareiss elimination: every intermediate entry stays in the integer
    polynomial ring, with exact divisions by the previous pivot.
    """
    n = len(rows)
    if n == 0:
        return P_ONE
    m = [[_ptrim(entry) for entry in row] for row in rows]
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    prev: Poly = P_ONE
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return P_ZERO
        pivot = m[k][k]
        for i in range(k + 1, n):
            left = m[i][k]
            row_i, row_k = m[i], m[k]
            for j in range(k + 1, n):
                num = _psub(_pmul(row_i[j], pivot), _pmul(left, row_k[j]))
                row_i[j] = _pdiv_exact(num, prev)
            row_i[k] = P_ZERO
        prev = pivot
    det = m[n - 1][n - 1]
    return _pneg(det) if sign < 0 else det


# ---------- linear systems over series ----------

@dataclass(frozen=True)
class SeriesSystem:
    """A square linear system A·x = b with TruncatedSeries entries.

    All entries and right-hand sides must share one truncation order.
    """

    dimension: int
    matrix: tuple[tuple[TruncatedSeries, ...], ...]
    rhs: tuple[TruncatedSeries, ...]

    def __post_init__(self):
        n = self.dimension
        if n < 1:
            raise ValueError("system dimension must be positive")
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise ValueError("matrix shape does not match the dimension")
        if len(self.rhs) != n:
            raise ValueError("right-hand side length does not match")
        order = self.rhs[0].order
        for row in self.matrix:
            for entry in row:
                if entry.order != order:
                    raise OrderMismatch("system entries must share one order")
        for entry in self.rhs:
            if entry.order != order:
                raise OrderMismatch("system entries must share one order")

    @classmethod
    def build(cls, matrix, rhs) -> "SeriesSystem":
        rows = tuple(tuple(row) for row in matrix)
        return cls(len(rows), rows, tuple(rhs))

    @property
    def order(self) -> int:
        return self.rhs[0].order


def solve_series_system(system: SeriesSystem) -> list[TruncatedSeries]:
    """Gauss-Jordan elimination, pivoting on the lowest-valuation entry.

    A column whose remaining entries all have positive valuation means the
    determinant's constant term is zero: SingularToOrder.  The solution is
    substituted back into the original system before being returned.
    """
    n = system.dimension
    a = [list(row) for row in system.matrix]
    b = list(system.rhs)
    one = TruncatedSeries.one(system.order)
    for col in range(n):
        pivot = min(range(col, n), key=lambda r: a[r][col].valuation)
        if a[pivot][col].valuation > 0:
            raise SingularToOrder(
                f"no unit pivot in column {col}; "
                "the determinant has zero constant term")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            b[col], b[pivot] = b[pivot], b[col]
        inv = one / a[col][col]
        a[col] = [entry * inv for entry in a[col]]
        b[col] = b[col] * inv
        for r in range(n):
            factor = a[r][col]
            if r == col or factor.is_zero():
                continue
            pivot_row = a[col]
            a[r] = [er - factor * ep for er, ep in zip(a[r], pivot_row)]
            b[r] = b[r] - factor * b[col]
    for i in range(n):
        acc = TruncatedSeries.zero(system.order)
        for j in range(n):
            entry = system.matrix[i][j]
            if not entry.is_zero() and not b[j].is_zero():
                acc = acc + entry * b[j]
        _require(acc == system.rhs[i],
                 f"solution fails to reproduce equation {i}")
    return b


# ---------- the ordinate-band transfer system ----------

def band_poly_matrix(lo: int, hi: int) -> tuple[list[list[Poly]], list[Poly]]:
    """The band system between ordinates lo and hi, as integer polynomials.

    Unknown layout is f_lo..f_hi then g_lo..g_hi, where f_k collects the
    prefixes ending at ordinate k with an up step (the empty path counts in
    f_0) and g_k those ending with a down step.  The f equation at k reads
    x·f_{k-1} - f_k + x·g_{k-1} = -[k = 0]; the g equation reads
    x·(f_{k+1} + ... + f_hi) - g_k = 0.  Terms whose ordinate leaves the
    band are dropped.
    """
    if lo > 0 or hi < 0:
        raise ValueError("the band must contain ordinate 0")
    m = hi - lo + 1
    size = 2 * m
    neg_one: Poly = (-1,)
    rows = [[P_ZERO] * size for _ in range(size)]
    rhs: list[Poly] = [P_ZERO] * size
    for k in range(lo, hi + 1):
        i = k - lo
        rows[i][i] = neg_one
        if k - 1 >= lo:
            rows[i][i - 1] = P_X
            rows[i][m + i - 1] = P_X
        if k == 0:
            rhs[i] = neg_one
        gi = m + i
        rows[gi][gi] = neg_one
        for j in range(k + 1, hi + 1):
            rows[gi][j - lo] = P_X
    return rows, rhs


def band_series_system(lo: int, hi: int, order: int) -> SeriesSystem:
    """The same band system with entries lifted to TruncatedSeries."""
    rows, rhs = band_poly_matrix(lo, hi)
    return SeriesSystem.build(
        [[TruncatedSeries.polynomial(e, order) for e in row] for row in rows],
        [TruncatedSeries.polynomial(e, order) for e in rhs])


def band_cramer_numerator(lo: int, hi: int, column: int) -> Poly:
    """Determinant of the band matrix with one column replaced by the
    right-hand side: the Cramer numerator of that unknown."""
    rows, rhs = band_poly_matrix(lo, hi)
    if not 0 <= column < len(rows):
        raise IndexOutOfRange(f"column {column} outside 0..{len(rows) - 1}")
    for i, row in enumerate(rows):
        row[column] = rhs[i]
    return poly_det(rows)


# ---------- radical primitives ----------

# discriminant of the kernel quadratic; its square root drives every
# closed form for the unbounded families
_KERNEL_RADICAND: Poly = (1, -2, -1, -2, 1)


@lru_cache(maxsize=None)
def _root(order: int) -> TruncatedSeries:
    return TruncatedSeries.polynomial(_KERNEL_RADICAND, order).sqrt()


@lru_cache(maxsize=None)
def _climb(order: int) -> TruncatedSeries:
    """The power-series root s of x·s^2 - (1+x-x^2)·s + 1 = 0, checked
    against that quadratic; s drives every prefix family below."""
    big = order + 1
    num = TruncatedSeries.polynomial((1, 1, -1), big) - _root(big)
    s = (num / 2).shift(-1)
    residual = (s * s).shift(1) \
        - TruncatedSeries.polynomial((1, 1, -1), order) * s + 1
    _require(residual.is_zero(), "climb series fails its quadratic")
    return s


# ---------- the dap series and the whole-path family ----------

def gf_dap(order: int) -> TruncatedSeries:
    """Nonempty axis-to-axis path counts, one coefficient per length.

    The climb root less its constant term.
    """
    return _climb(order) - 1


GDAP_NAMES = ("Gp1", "Gp2", "Gp", "Gm", "G", "Gm1", "Gm2", "f0", "g0")


@lru_cache(maxsize=None)
def _gdap_bundle(order: int) -> dict:
    big = order + 2
    r = _root(big)
    rad = TruncatedSeries.polynomial(_KERNEL_RADICAND, big)
    up_front = TruncatedSeries.polynomial((1, -1, 1), big)    # 1 - x + x^2
    down_front = TruncatedSeries.polynomial((1, 1, -1), big)  # 1 + x - x^2
    gp1 = TruncatedSeries.monomial(2, big) / r
    gp2 = (TruncatedSeries.polynomial((1, -1, -1), big) * r
           + TruncatedSeries.polynomial((-1, 2, 1, 2, -1), big)) / (2 * rad)
    gp = (up_front * r + rad) / (2 * rad)
    gm = ((up_front - r) * (rad + up_front * r)) / (2 * (down_front + r) * rad)
    g = (rad + up_front * r) / ((down_front + r) * rad)
    f0 = (up_front + r) / (2 * r) - 1
    g0 = (down_front - r).shift(1) / (2 * r)
    gm2 = gp1                 # mirror-and-merge pairing
    gm1 = gm - gm2
    table = {"Gp1": gp1, "Gp2": gp2, "Gp": gp, "Gm": gm, "G": g,
             "Gm1": gm1, "Gm2": gm2, "f0": f0, "g0": g0}
    return {name: series.truncate(order) for name, series in table.items()}


def gf_gdap(name: str, order: int) -> TruncatedSeries:
    """One of the whole-path family series.

    Gp1/Gp2/Gp: paths starting with an up step, split by last step (Gp
    includes the empty path); Gm/Gm1/Gm2: starting with a down step, split
    the same way; G: everything; f0/g0: nonempty paths split by last step
    instead, so G = 1 + f0 + g0.
    """
    if name not in GDAP_NAMES:
        raise UnknownName(
            f"no whole-path series named {name!r}; known: {', '.join(GDAP_NAMES)}")
    return _gdap_bundle(order)[name]


# ---------- prefix families ----------

def _ordinate_factor(k: int, order: int) -> TruncatedSeries:
    # x^k s^{k+1}: prefixes that climb to ordinate k and never return
    if k < 0:
        raise ValueError("ordinate must be >= 0")
    s = _climb(order)
    return (s ** (k + 1)).shift(k)


def _drop_factor(k: int, order: int) -> TruncatedSeries:
    # the mirror factor below the axis, weighted down by one x
    if k > -1:
        raise ValueError("ordinate must be <= -1")
    s = _climb(order + 1)
    return ((s - 1) * s ** (-k - 1)).shift(-1)


def gf_prefix_positive(k: int, order: int) -> TruncatedSeries:
    """Prefixes ending at positive ordinate k (both final-step kinds)."""
    if k < 1:
        raise ValueError("ordinate must be >= 1")
    f0 = _gdap_bundle(order)["f0"]
    return (1 + f0) * _ordinate_factor(k, order)


@lru_cache(maxsize=None)
def gf_prefix_positive_total(order: int) -> TruncatedSeries:
    """Prefixes ending strictly above the axis, all ordinates pooled.

    The radical closed form.
    """
    big = order + 1
    r = _root(big)
    num = (TruncatedSeries.polynomial((-1, -1, 1), big) + r) ** 2
    return (num / (4 * r)).shift(-1)


@lru_cache(maxsize=None)
def gf_prefix_negative(k: int, order: int) -> TruncatedSeries:
    """Prefixes ending at negative ordinate k (both final-step kinds)."""
    if k > -1:
        raise ValueError("ordinate must be <= -1")
    g0 = _gdap_bundle(order + 1)["g0"]
    return _drop_factor(k, order) * (1 + g0.shift(-1))


@lru_cache(maxsize=None)
def gf_minorized(m: int, order: int) -> TruncatedSeries:
    """Prefixes that never dip below the floor y = m (empty path included).

    The kernel closed form.
    """
    if m > 0:
        raise ValueError("floor must be <= 0")
    big = order + 3
    s = _climb(big)
    num = s ** (-m) - s ** (-1 - m) - TruncatedSeries.monomial(2, big)
    return num.shift(-3)


# ---------- band determinants and numerators ----------

def _pshift(a: Poly, j: int) -> Poly:
    return (0,) * j + a if a else P_ZERO


@lru_cache(maxsize=None)
def _det_and_gate(t: int) -> tuple[Poly, Poly]:
    # one sweep of D_t = (1+x-x^2)·D_{t-1} - x·D_{t-2} from D_{-1} = D_0 = 1,
    # carrying the gate numerator N_{t+1}^t = x^2·D_{t-1} + x·N_t^{t-1}
    before, det, gate = P_ONE, P_ONE, P_ZERO
    for _ in range(t):
        gate = _padd(_pshift(det, 2), _pshift(gate, 1))
        before, det = det, _psub(_pmul((1, 1, -1), det), _pshift(before, 1))
    return det, gate


def poly_D(t: int, order: int) -> TruncatedSeries:
    """Determinant polynomial of the height-(0..t) band system.

    Computed by its three-term linear recurrence.
    """
    if t < 0:
        raise ValueError("band height must be >= 0")
    return TruncatedSeries.polynomial(_det_and_gate(t)[0], order)


def poly_N(k: int, t: int, order: int) -> TruncatedSeries:
    """Cramer numerator polynomial for unknown k of the height-(0..t) band.

    Unknowns 0..t are the f ordinates, t+1..2t+1 the g ordinates.  Built
    from the determinant sweep: x^k·D_{t-k} for an f ordinate, and
    x^(k-t-1)·N_{s+1}^s with s = 2t+1-k for a g ordinate.
    """
    if t < 0 or not 0 <= k <= 2 * t + 1:
        raise IndexOutOfRange(f"numerator index ({k}, {t}) outside 0..{2 * t + 1}")
    if k <= t:
        return TruncatedSeries.polynomial(_pshift(_det_and_gate(t - k)[0], k), order)
    gate = _det_and_gate(2 * t + 1 - k)[1]
    return TruncatedSeries.polynomial(_pshift(gate, k - t - 1), order)


# ---------- bounded-height tables ----------

@lru_cache(maxsize=None)
def gf_bounded_0t(k: int, t: int, kind: str, order: int) -> TruncatedSeries:
    """Prefixes confined to 0 <= y <= t ending at ordinate k.

    kind "f" selects the up-ending series (empty path included at k = 0),
    kind "g" the down-ending series; g at k = 0 counts the nonempty
    confined paths that return to the axis.  Each is its Cramer quotient.
    """
    if t < 1:
        raise ValueError("band height must be >= 1")
    if kind not in ("f", "g"):
        raise ValueError('kind must be "f" or "g"')
    if not 0 <= k <= t:
        raise IndexOutOfRange(f"ordinate {k} outside 0..{t}")
    column = k if kind == "f" else t + 1 + k
    return poly_N(column, t, order) / poly_D(t, order)


@lru_cache(maxsize=None)
def gf_bounded_sym(t: int, order: int) -> TruncatedSeries:
    """Paths confined to -t <= y <= t that end on the axis (empty included).

    Closed form over the doubled-band determinant:
    D_{t-1}·(D_t + N_{t+1}^t) / D_{2t}.
    """
    if t < 1:
        raise ValueError("band half-height must be >= 1")
    det, gate = _det_and_gate(t)
    num = _pmul(_det_and_gate(t - 1)[0], _padd(det, gate))
    return TruncatedSeries.polynomial(num, order) / poly_D(2 * t, order)


@lru_cache(maxsize=None)
def _sym_solved(t: int, order: int) -> tuple[TruncatedSeries, ...]:
    return tuple(solve_series_system(band_series_system(-t, t, order)))


def gf_bounded_sym_ordinate(k: int, t: int, kind: str, order: int) -> TruncatedSeries:
    """Per-ordinate series of the centered band, from the system solve."""
    if t < 1:
        raise ValueError("band half-height must be >= 1")
    if kind not in ("f", "g"):
        raise ValueError('kind must be "f" or "g"')
    if not -t <= k <= t:
        raise IndexOutOfRange(f"ordinate {k} outside -{t}..{t}")
    column = k + t if kind == "f" else 3 * t + 1 + k
    return _sym_solved(t, order)[column]


# ---------- the special-height family ----------

_CEILING_RADICAND: Poly = (1, 0, -4, -2, 0, 0, 1)


@lru_cache(maxsize=None)
def gf_H(order: int) -> TruncatedSeries:
    """Length counts of the special-height family (dominating-arch rule)."""
    big = order + 2
    num = TruncatedSeries.polynomial((1, 0, 0, -1), big) \
        - TruncatedSeries.polynomial(_CEILING_RADICAND, big).sqrt()
    b = (num / 2).shift(-2)
    gate = 2 * b.shift(2) - TruncatedSeries.polynomial((1, 0, 0, -1), order)
    _require(gate * gate == TruncatedSeries.polynomial(_CEILING_RADICAND, order),
             "special-height series fails its quadratic")
    return b


@lru_cache(maxsize=None)
def _ceiling_table(kmax: int, order: int) -> tuple[TruncatedSeries, ...]:
    # forward recurrence: each new level is one series division
    one = TruncatedSeries.one(order)
    levels = [one]
    arch = one
    for i in range(1, kmax + 1):
        weight = TruncatedSeries.monomial(2 if i == 1 else 1, order)
        level = levels[-1] / (one - weight * arch)
        arch = level - levels[-1]
        levels.append(level)
    return tuple(levels)


def gf_H_bounded(k: int, order: int) -> TruncatedSeries:
    """Special-height members of height at most k.

    Heights above the length are unreachable, so the result agrees with
    the full series through min(order, k+1).
    """
    if k < 0:
        raise ValueError("height ceiling must be >= 0")
    return _ceiling_table(k, order)[k]


def gf_H_exact(k: int, order: int) -> TruncatedSeries:
    """Special-height members of height exactly k."""
    if k < 0:
        raise ValueError("height must be >= 0")
    levels = _ceiling_table(k, order)
    return levels[k] - levels[k - 1] if k > 0 else levels[0]


# ---------- the catalog surface ----------

@dataclass(frozen=True)
class NamedSeries:
    """A catalog evaluation: name, integer parameters, and the series."""

    name: str
    params: tuple[int, ...]
    series: TruncatedSeries


@dataclass(frozen=True)
class _Entry:
    params: tuple[str, ...]
    fn: object
    summary: str


CATALOG = {
    "dap": _Entry((), gf_dap, "axis-to-axis paths by length"),
    "P": _Entry((), lambda order: gf_dap(order).shift(1),
                "axis-to-axis paths, length shifted up by one"),
    "W": _Entry((), _root, "square root of the kernel discriminant"),
    "G": _Entry((), lambda order: gf_gdap("G", order), "all whole paths"),
    "Gp": _Entry((), lambda order: gf_gdap("Gp", order),
                 "whole paths starting up, plus the empty path"),
    "Gp1": _Entry((), lambda order: gf_gdap("Gp1", order),
                  "whole paths starting up, ending down"),
    "Gp2": _Entry((), lambda order: gf_gdap("Gp2", order),
                  "whole paths starting up, ending up"),
    "Gm": _Entry((), lambda order: gf_gdap("Gm", order),
                 "whole paths starting down"),
    "Gm1": _Entry((), lambda order: gf_gdap("Gm1", order),
                  "whole paths starting down, ending down"),
    "Gm2": _Entry((), lambda order: gf_gdap("Gm2", order),
                  "whole paths starting down, ending up"),
    "f0": _Entry((), lambda order: gf_gdap("f0", order),
                 "whole paths ending with an up step"),
    "g0": _Entry((), lambda order: gf_gdap("g0", order),
                 "whole paths ending with a down step"),
    "s2": _Entry((), _climb, "power-series root of the kernel quadratic"),
    "r2": _Entry((), _climb, "power-series root of the kernel quadratic"),
    "Tk": _Entry(("k",), _ordinate_factor,
                 "climb factor to ordinate k, never touching down again"),
    "Rk": _Entry(("k",), _drop_factor,
                 "drop factor to negative ordinate k"),
    "prefix_pos": _Entry(("k",), gf_prefix_positive,
                         "prefixes ending at positive ordinate k"),
    "prefix_pos_total": _Entry((), gf_prefix_positive_total,
                               "prefixes ending strictly above the axis"),
    "prefix_neg": _Entry(("k",), gf_prefix_negative,
                         "prefixes ending at negative ordinate k"),
    "minorized": _Entry(("m",), gf_minorized,
                        "prefixes floored at y = m, empty included"),
    "D": _Entry(("t",), poly_D, "band determinant polynomial"),
    "N": _Entry(("k", "t"), poly_N, "band Cramer numerator polynomial"),
    "fkt": _Entry(("k", "t"),
                  lambda k, t, order: gf_bounded_0t(k, t, "f", order),
                  "confined prefixes ending up at ordinate k"),
    "gkt": _Entry(("k", "t"),
                  lambda k, t, order: gf_bounded_0t(k, t, "g", order),
                  "confined prefixes ending down at ordinate k"),
    "f0t": _Entry(("t",), lambda t, order: gf_bounded_0t(0, t, "f", order),
                  "confined paths ending up on the axis, plus empty"),
    "g0t": _Entry(("t",), lambda t, order: gf_bounded_0t(0, t, "g", order),
                  "confined paths returning to the axis with a down step"),
    "sym": _Entry(("t",), gf_bounded_sym,
                  "paths confined to |y| <= t ending on the axis"),
    "sym_f": _Entry(("k", "t"),
                    lambda k, t, order: gf_bounded_sym_ordinate(k, t, "f", order),
                    "centered-band prefixes ending up at ordinate k"),
    "sym_g": _Entry(("k", "t"),
                    lambda k, t, order: gf_bounded_sym_ordinate(k, t, "g", order),
                    "centered-band prefixes ending down at ordinate k"),
    "B": _Entry((), gf_H, "special-height family by length"),
    "Bk": _Entry(("k",), gf_H_bounded,
                 "special-height members of height at most k"),
    "Ak": _Entry(("k",), gf_H_exact,
                 "special-height members of height exactly k"),
}


def series_names() -> tuple[str, ...]:
    return tuple(sorted(CATALOG))


def evaluate(name: str, order: int, k: int | None = None,
             t: int | None = None, m: int | None = None) -> NamedSeries:
    """Look up a catalog name and evaluate it at the given order.

    Raises UnknownName for a name outside the catalog and BadParams when
    the parameters do not match the entry (missing, extra, out of range).
    """
    entry = CATALOG.get(name)
    if entry is None:
        raise UnknownName(
            f"no catalog series named {name!r}; try one of: "
            + ", ".join(series_names()))
    supplied = {key: value for key, value in
                (("k", k), ("t", t), ("m", m)) if value is not None}
    if set(supplied) != set(entry.params):
        wanted = ", ".join("--" + p for p in entry.params) or "no parameters"
        raise BadParams(f"{name} takes {wanted}")
    if order < 0:
        raise BadParams("order must be nonnegative")
    args = [supplied[p] for p in entry.params]
    try:
        series = entry.fn(*args, order)
    except (ValueError, IndexOutOfRange) as exc:
        raise BadParams(str(exc)) from None
    return NamedSeries(name, tuple(args), series)
