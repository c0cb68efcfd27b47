"""Every named counting series, evaluated exactly to a requested order.

Each evaluator returns a TruncatedSeries all of whose coefficients are
exact at the requested order: intermediate steps that shrink the order
(division by x, x^2 or x^3) are padded internally and cut back down at
the end, so callers never receive fewer coefficients than asked for.

Each catalog name has one route, and a call runs that route alone, in
integer arithmetic: a family confined to a band of heights is one forward
substitution over the heights a path can reach, the special heights under
a ceiling are a ratio of two polynomials that a linear recurrence builds
level by level, and every other family is a rational function of x and of
one of two algebraic roots (the climb root s, the special-height root b);
all their denominators have constant term ±1 once a power of 2 is
cleared.  Routes work on lists of Python ints, and each public evaluator
builds a single TruncatedSeries at its boundary.  The product, quotient
and power on those lists are series._mul, _div and _pow, the same ones
TruncatedSeries uses.  The independent derivations that tie a family to
a second route (the first-return
equation and the band substitution solved one coefficient at a time,
first-return systems, one fraction-free Cramer elimination per band for
its determinant, numerators and confined series, radical closed forms,
the special heights' arch grammar) live in verify.DUAL_PATHS and run in
`verify --suite paper-series` and the tests.  The checks that stay in
the call are exactness checks: every division and halving must leave no
remainder, and each square root must square to its radicand at the last
coefficient.  A failed check raises ConsistencyError (NonInvertible for a
non-unit divisor) and always means a bug in this package, never bad
input.

Both roots are rational in x and the square root of a fixed polynomial
radicand, and that square root comes from the linear recurrence its
differential equation gives, in O(order) integer operations.  So a call
computes its roots afresh, and threads may call the module freely.  The
one exception is a `verify` run, which shares its roots and band walks
among its checks through sharing(); the verify module docstring says
what the run keeps and for how long.
"""

from __future__ import annotations

import threading
from collections import deque, namedtuple
from contextlib import contextmanager
from functools import wraps
from itertools import accumulate
from operator import add, mul, sub

from .errors import (
    BadParams,
    ConsistencyError,
    IndexOutOfRange,
    OrderMismatch,
    SingularToOrder,
    UnknownName,
    _require,
)
from .series import TruncatedSeries, _div, _mul, _pow

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
    # its own loop, not series._mul: the band eliminations make about 1300
    # products of polynomials of degree at most 12 in the two verify-suite
    # runs, and routed through the shared kernel they made those runs about
    # 13% slower in process (54.0 -> 60.9 ms CPU, medians of 10 alternated
    # processes, 2-CPU Xeon, Python 3.11.7)
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


def _eliminate(m: list[list[Poly]]) -> int:
    # Bareiss forward elimination in place: below the diagonal of the n
    # leading columns every entry becomes zero, and every entry left is a
    # minor of m, reached by exact division by the previous pivot; without
    # a cross term (left or row_k[j] zero) that is entry·pivot / prev, and a
    # zero entry stays zero.  Returns the sign of the row swaps, or 0 when
    # a column has no nonzero pivot.
    n, width = len(m), len(m[0])
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
                return 0
        pivot, row_k = m[k][k], m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            left = row_i[k]
            for j in range(k + 1, width):
                entry, cross = row_i[j], row_k[j]
                if left and cross:
                    num = _psub(_pmul(entry, pivot), _pmul(left, cross))
                elif entry:
                    num = _pmul(entry, pivot)
                else:
                    continue
                row_i[j] = _pdiv_exact(num, prev)
            row_i[k] = P_ZERO
        prev = pivot
    return sign


def _square_rows(rows) -> list[list[Poly]]:
    m = [[_ptrim(entry) for entry in row] for row in rows]
    if any(len(row) != len(m) for row in m):
        raise ValueError("determinant of a non-square matrix")
    return m


def poly_det(rows: list[list[Poly]]) -> Poly:
    """Fraction-free determinant of a square matrix of integer polynomials.

    Bareiss elimination: every intermediate entry stays in the integer
    polynomial ring, with exact divisions by the previous pivot.
    """
    # nothing in the package calls this; it stays because the benchmark's
    # tracer (bench/tracer.py, bench/layers.py) looks it up by name
    if not rows:
        return P_ONE
    m = _square_rows(rows)
    sign = _eliminate(m)
    det = m[-1][-1] if sign else P_ZERO
    return _pneg(det) if sign < 0 else det


def cramer_numerators(rows: list[list[Poly]],
                      rhs: list[Poly]) -> tuple[Poly, list[Poly]]:
    """det(A) and every Cramer numerator det(A_i) of A·x = b, where A_i is
    A with column i replaced by b, from one fraction-free elimination.

    Bareiss elimination of the augmented matrix [A | b] leaves an upper
    triangle whose last pivot P is ±det(A); back substitution then gives
    P·x exactly, each entry by one exact division by its diagonal pivot.
    The result is checked as polynomials: A·N = det(A)·b.  Raises
    ValueError on a singular matrix.
    """
    a = _square_rows(rows)
    if len(rhs) != len(a):
        raise ValueError("right-hand side length does not match")
    if not a:
        return P_ONE, []
    n = len(a)
    b = [_ptrim(entry) for entry in rhs]
    m = [row + [entry] for row, entry in zip(a, b)]
    sign = _eliminate(m)
    last = m[-1][n - 1] if sign else P_ZERO
    if not last:
        raise ValueError("singular matrix: no Cramer numerators")
    scaled = [P_ZERO] * n    # last·x
    for i in range(n - 1, -1, -1):
        row = m[i]
        acc = _pmul(last, row[n])
        for j in range(i + 1, n):
            acc = _psub(acc, _pmul(row[j], scaled[j]))
        scaled[i] = _pdiv_exact(acc, row[i])
    det, nums = (last, scaled) if sign > 0 else \
        (_pneg(last), [_pneg(c) for c in scaled])
    _check_cramer(a, b, det, nums)
    return det, nums


def _check_cramer(rows, rhs, det: Poly, nums: list[Poly]) -> None:
    # A·N = det(A)·b as polynomials, equation by equation
    for i, (row, b) in enumerate(zip(rows, rhs)):
        acc = P_ZERO
        for entry, num in zip(row, nums):
            if entry and num:
                acc = _padd(acc, _pmul(entry, num))
        _require(acc == _pmul(det, b),
                 f"Cramer numerators fail equation {i} of A·N = det(A)·b")


# ---------- linear systems over series ----------

def _minus(a, b):
    # a - b on coefficient lists, None standing for zero
    if a is None:
        out = [-c for c in b]
    else:
        out = [p - q for p, q in zip(a, b)]
    return out if any(out) else None


def solve_series_system(matrix, rhs) -> list[TruncatedSeries]:
    """Solve the square system matrix·x = rhs of TruncatedSeries entries,
    all at one order, by forward elimination, then back substitution, on
    coefficient lists.

    A matrix that is empty or not square, or a right-hand side of another
    length, raises ValueError; entries of mixed orders raise OrderMismatch.
    Each column pivots on its lowest-valuation entry on or below the
    diagonal: the first with a nonzero constant term.  A column whose
    remaining entries all have positive valuation means the determinant's
    constant term is zero: SingularToOrder.  Zero entries are kept as None
    and skipped, so a sparse band pays only for its fill-in.  Coefficients
    are ints, so a pivot whose constant term is not 1 or -1 raises
    NonInvertible from the division.  The solution is substituted back into
    the original system before being returned.
    """
    # nothing in the package calls this; it stays because the benchmark's
    # tracer (bench/tracer.py, bench/layers.py) looks it up by name, and
    # the tests solve band systems with it
    n = len(matrix)
    if n < 1:
        raise ValueError("system dimension must be positive")
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix shape does not match the dimension")
    if len(rhs) != n:
        raise ValueError("right-hand side length does not match")
    order = rhs[0].order
    if any(entry.order != order for row in (*matrix, rhs) for entry in row):
        raise OrderMismatch("system entries must share one order")

    def lists(entries):
        return [None if e.is_zero() else list(e.coeffs) for e in entries]

    a = [lists(row) for row in matrix]
    b = lists(rhs)
    inverses = []
    for col in range(n):
        pivot = next((r for r in range(col, n)
                      if a[r][col] is not None and a[r][col][0]), None)
        if pivot is None:
            raise SingularToOrder(
                f"no unit pivot in column {col}; "
                "the determinant has zero constant term")
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        pivot_row, pivot_rhs = a[col], b[col]
        inverse = _div([1], pivot_row[col], order)
        inverses.append(inverse)
        for row_index in range(col + 1, n):
            row = a[row_index]
            if row[col] is None:
                continue
            factor = _mul(row[col], inverse, order)
            row[col] = None
            for j in range(col + 1, n):
                if pivot_row[j] is not None:
                    row[j] = _minus(row[j],
                                    _mul(factor, pivot_row[j], order))
            if pivot_rhs is not None:
                b[row_index] = _minus(b[row_index],
                                      _mul(factor, pivot_rhs, order))
    x = [None] * n
    for i in range(n - 1, -1, -1):
        acc = b[i]
        for j in range(i + 1, n):
            if a[i][j] is not None and x[j] is not None:
                acc = _minus(acc, _mul(a[i][j], x[j], order))
        if acc is not None:
            x[i] = _mul(acc, inverses[i], order)
    solution = [TruncatedSeries(() if c is None else c, order) for c in x]
    for i in range(n):
        acc = TruncatedSeries([], order)
        for entry, value in zip(matrix[i], solution):
            if not entry.is_zero() and not value.is_zero():
                acc = acc + entry * value
        _require(acc == rhs[i],
                 f"solution fails to reproduce equation {i}")
    return solution


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


def band_series_system(lo: int, hi: int, order: int) \
        -> tuple[list[list[TruncatedSeries]], list[TruncatedSeries]]:
    """The same band system, (matrix, rhs), with entries lifted to
    TruncatedSeries."""
    rows, rhs = band_poly_matrix(lo, hi)
    return ([[TruncatedSeries(e, order) for e in row] for row in rows],
            [TruncatedSeries(e, order) for e in rhs])


def band_cramer_numerators(lo: int, hi: int) -> tuple[Poly, list[Poly]]:
    """The band determinant and the Cramer numerator of every unknown, in
    the layout of band_poly_matrix, from one elimination of half the size.

    The g block of the band system is -I, since g_k = x·(f_{k+1} + ... +
    f_hi), so substituting it into the f equations leaves the m×m Schur
    complement R (m = hi - lo + 1): the row of lo is -f_lo, and every later
    row k reads x·f_{k-1} + (x^2 - 1)·f_k + x^2·(f_{k+1} + ... + f_hi), with
    right-hand side -[k = 0].  Then det = (-1)^m·det(R), the f numerators
    are (-1)^m times R's, and each g numerator is x times the sum of the f
    numerators above it.  The result is checked against the full system
    from band_poly_matrix: A·N = det(A)·b.
    """
    rows, rhs = band_poly_matrix(lo, hi)
    m = hi - lo + 1
    schur = [[P_ZERO] * m for _ in range(m)]
    schur[0][0] = (-1,)
    for i in range(1, m):
        schur[i][i - 1:] = [P_X, (-1, 0, 1)] + [(0, 0, 1)] * (m - 1 - i)
    det, nums = _lift_schur(*cramer_numerators(schur, rhs[:m]))
    _check_cramer(rows, rhs, det, nums)
    return det, nums


def _lift_schur(det: Poly, nums: list[Poly]) -> tuple[Poly, list[Poly]]:
    # the band's determinant and numerators, f then g, from those of its
    # Schur complement R: the g block -I contributes (-1)^m, and
    # N_g[k] = x·(N_f[k+1] + ... + N_f[hi])
    if len(nums) % 2:
        det, nums = _pneg(det), [_pneg(num) for num in nums]
    above, lifted = P_ZERO, []
    for num in reversed(nums):
        lifted.append(_pmul(P_X, above))
        above = _padd(above, num)
    return det, nums + lifted[::-1]


# ---------- integer series on coefficient lists ----------

# A series here is a sequence of ints, coefficient n at index n, known
# through the order it was built at; a shorter sequence (a polynomial) has
# zeros above its end.  Products, quotients and powers are series._mul,
# _div and _pow, cut at the order.  The only divisions are by a series
# with constant term ±1 (any other raises NonInvertible), by 2 and by a
# power of x, each checked for exactness: every unconfined family below is
# a rational function of x and one algebraic root, with such denominators
# only.

KERNEL_RADICAND: Poly = (1, -2, -1, -2, 1)    # W^2 for the climb root
CEILING_RADICAND: Poly = (1, 0, -4, -2, 0, 0, 1)


def _at(a, n: int) -> int:
    return a[n] if n < len(a) else 0


def _fit(a, order: int) -> list[int]:
    # coefficients 0..order of a, zeros past its end
    return list(a[:order + 1]) + [0] * (order + 1 - len(a))


def _add(a, b, order: int) -> list[int]:
    return list(map(add, _fit(a, order), _fit(b, order)))


def _sub(a, b, order: int) -> list[int]:
    return list(map(sub, _fit(a, order), _fit(b, order)))


def _half(a) -> list[int]:
    _require(not any(c & 1 for c in a), "odd coefficient in an exact halving")
    return [c >> 1 for c in a]


def _times_x(a, j: int, order: int) -> list[int]:
    return _fit((0,) * j + tuple(a), order)


def _over_x(a, j: int) -> list[int]:
    _require(not any(a[:j]), f"division by x^{j} leaves a remainder")
    return list(a[j:])


# ---------- the table one verify run shares ----------

class _Run(threading.local):
    # the table of the run on this thread, None outside one; each thread
    # sees only the table its own sharing() set
    table: dict | None = None


_run = _Run()


@contextmanager
def sharing():
    """Share each root and confined band walk among the calls in the block.

    Each is built once, keyed exactly on (radicand or band, order), and
    the table is dropped when the block ends or raises.  The table belongs
    to the calling thread: other threads, and calls after the block,
    compute afresh.
    """
    outer = _run.table
    _run.table = {}
    try:
        yield
    finally:
        _run.table = outer


def _shared(compute, *key):
    # compute(*key), built once per run and kept as a tuple, so that no
    # caller can change a value another one reads (a walk's steps are
    # only ever read); afresh outside a run
    table = _run.table
    if table is None:
        return compute(*key)
    entry = (compute, *key)
    value = table.get(entry)
    if value is None:
        value = table[entry] = tuple(compute(*key))
    return value


# ---------- the roots ----------

def _sqrt(radicand: Poly, order: int) -> list[int]:
    # the power-series square root W of a radicand with constant term 1,
    # from 2R·W' = R'·W read at x^(n-1):
    # 2n·W_n = sum over j >= 1 of R_j·(3j - 2n)·W_{n-j}
    #        = 3·sum of j·R_j·W_{n-j} - 2n·sum of R_j·W_{n-j}
    tail = radicand[1:]
    weighted = [j * r for j, r in enumerate(tail, 1)]
    recent = deque([1], maxlen=len(tail))    # W_{n-1} down to W_{n-deg R}
    inexact = f"square root of {radicand} is not integral"
    w = [1]
    for n in range(1, order + 1):
        q, rem = divmod(3 * sum(map(mul, weighted, recent))
                        - 2 * n * sum(map(mul, tail, recent)), 2 * n)
        _require(not rem, inexact)
        w.append(q)
        recent.appendleft(q)
    _require(sum(map(mul, w, reversed(w))) == _at(radicand, order),
             f"square root of {radicand} fails its square at x^{order}")
    return w


def _kernel_root(order: int):
    # W, the square root of the kernel radicand
    return _shared(_sqrt, KERNEL_RADICAND, order)


def _climb_root(order: int):
    # the power-series root s of x·s^2 - (1+x-x^2)·s + 1 = 0, which drives
    # every whole-path and prefix family
    return _shared(_climb_from_kernel, order)


def _climb_from_kernel(order: int) -> list[int]:
    # s = (1 + x - x^2 - W) / (2x)
    w = _kernel_root(order + 1)
    return _half(_over_x(_sub((1, 1, -1), w, order + 1), 1))


def _series_route(route):
    """The public face of an integer route: the same arguments, order
    last, and one TruncatedSeries built from the coefficients.  The route
    itself stays reachable as .ints for the catalog and the other routes."""

    @wraps(route)
    def series(*args) -> TruncatedSeries:
        return TruncatedSeries(route(*args), args[-1])

    series.ints = route
    return series


# ---------- the dap series and the whole-path family ----------

@_series_route
def gf_dap(order: int) -> list[int]:
    """Nonempty axis-to-axis path counts, one coefficient per length.

    The climb root less its constant term.
    """
    return _sub(_climb_root(order), (1,), order)


GDAP_NAMES = ("Gp1", "Gp2", "Gp", "Gm", "G", "Gm1", "Gm2", "f0", "g0")

_UP_FRONT: Poly = (1, -1, 1)      # 1 - x + x^2
_DOWN_FRONT: Poly = (1, 1, -1)    # 1 + x - x^2


@_series_route
def gf_gdap(name: str, order: int) -> list[int]:
    """One of the whole-path family series.

    Gp1/Gp2/Gp: paths starting with an up step, split by last step (Gp
    includes the empty path); Gm/Gm1/Gm2: starting with a down step, split
    the same way; G: everything; f0/g0: nonempty paths split by last step
    instead, so G = 1 + f0 + g0.  Each is a closed form in the kernel root
    W, the radicand R = W^2 and K = (1 + x - x^2 + W)/2.
    """
    if name not in GDAP_NAMES:
        raise UnknownName(
            f"no whole-path series named {name!r}; known: {', '.join(GDAP_NAMES)}")
    w = _kernel_root(order)
    rad = KERNEL_RADICAND
    if name in ("Gp1", "Gm2"):    # mirror-and-merge pairing
        return _div((0, 0, 1), w, order)
    if name == "f0":
        return _sub(_half(_div(_add(_UP_FRONT, w, order), w, order)), (1,),
                    order)
    if name == "g0":
        lift = _times_x(_sub(_DOWN_FRONT, w, order), 1, order)
        return _half(_div(lift, w, order))
    if name == "Gp2":
        num = _sub(_mul(w, (1, -1, -1), order), rad, order)
        return _half(_div(num, rad, order))
    mixed = _add(_mul(w, _UP_FRONT, order), rad, order)
    if name == "Gp":
        return _half(_div(mixed, rad, order))
    k = _half(_add(_DOWN_FRONT, w, order))
    if name == "G":
        return _half(_div(_div(mixed, k, order), rad, order))
    gm = _mul(_sub(_UP_FRONT, w, order), mixed, order)
    gm = _half(_half(_div(_div(gm, k, order), rad, order)))
    if name == "Gm":
        return gm
    return _sub(gm, gf_gdap.ints("Gp1", order), order)


# ---------- prefix families ----------

def _ordinate_factor(k: int, order: int) -> list[int]:
    # x^k s^{k+1}: prefixes that climb to ordinate k and never return
    if k < 0:
        raise ValueError("ordinate must be >= 0")
    if k > order:
        return [0] * (order + 1)
    return _times_x(_pow(_climb_root(order - k), k + 1, order - k), k, order)


def _drop_factor(k: int, order: int) -> list[int]:
    # the mirror factor below the axis, weighted down by one x
    if k > -1:
        raise ValueError("ordinate must be <= -1")
    s = _climb_root(order + 1)
    return _over_x(_mul(_sub(s, (1,), order + 1), _pow(s, -k - 1, order + 1),
                        order + 1), 1)


@_series_route
def gf_prefix_positive(k: int, order: int) -> list[int]:
    """Prefixes ending at positive ordinate k (both final-step kinds)."""
    if k < 1:
        raise ValueError("ordinate must be >= 1")
    f0 = gf_gdap.ints("f0", order)
    return _mul(_add(f0, (1,), order), _ordinate_factor(k, order), order)


@_series_route
def gf_prefix_positive_total(order: int) -> list[int]:
    """Prefixes ending strictly above the axis, all ordinates pooled.

    The radical closed form (W - 1 - x + x^2)^2 / (4x·W).
    """
    big = order + 1
    w = _kernel_root(big)
    num = _sub(w, _DOWN_FRONT, big)
    return _over_x(_half(_half(_div(_mul(num, num, big), w, big))), 1)


@_series_route
def gf_prefix_negative(k: int, order: int) -> list[int]:
    """Prefixes ending at negative ordinate k (both final-step kinds)."""
    if k > -1:
        raise ValueError("ordinate must be <= -1")
    g0 = _over_x(gf_gdap.ints("g0", order + 1), 1)
    return _mul(_drop_factor(k, order), _add(g0, (1,), order), order)


@_series_route
def gf_minorized(m: int, order: int) -> list[int]:
    """Prefixes that never dip below the floor y = m (empty path included).

    The kernel closed form (s^(-m) - s^(-1-m) - x^2) / x^3.
    """
    if m > 0:
        raise ValueError("floor must be <= 0")
    big = order + 3
    s = _climb_root(big)
    below = _pow(s, -1 - m, big) if m < 0 else _div((1,), s, big)
    return _over_x(_sub(_sub(_pow(s, -m, big), below, big), (0, 0, 1), big), 3)


# ---------- band determinants and numerators ----------

def _det_and_gate(t: int, order: int) -> tuple[list[int], list[int]]:
    # (D_t, N_{t+1}^t) by the sweep of D_i = (1+x-x^2)·D_{i-1} - x·D_{i-2}
    # from D_{-1} = D_0 = 1, carrying the gate numerator
    # N_{i+1}^i = x^2·D_{i-1} + x·N_i^{i-1}.  Both have degree 2i, so
    # cutting every step at min(order, 2t) costs O(t·order) and still gives
    # them whole once order >= 2t.
    size = min(order, 2 * t) + 1
    before = det = [1] + [0] * (size - 1)
    gate = [0] * size
    for _ in range(t):
        gate = [a + b for a, b in zip([0, 0, *det[:-2]], [0, *gate[:-1]])]
        before, det = det, [
            c + c1 - c2 - b1 for c, c1, c2, b1 in
            zip(det, [0, *det], [0, 0, *det], [0, *before])]
    return det, gate


@_series_route
def poly_D(t: int, order: int) -> list[int]:
    """Determinant polynomial of the height-(0..t) band system.

    Computed by its three-term linear recurrence.
    """
    if t < 0:
        raise ValueError("band height must be >= 0")
    return _det_and_gate(t, order)[0]


@_series_route
def poly_N(k: int, t: int, order: int) -> list[int]:
    """Cramer numerator polynomial for unknown k of the height-(0..t) band.

    Unknowns 0..t are the f ordinates, t+1..2t+1 the g ordinates.  Built
    from the determinant sweep: x^k·D_{t-k} for an f ordinate, and
    x^(k-t-1)·N_{s+1}^s with s = 2t+1-k for a g ordinate.
    """
    if t < 0 or not 0 <= k <= 2 * t + 1:
        raise IndexOutOfRange(f"numerator index ({k}, {t}) outside 0..{2 * t + 1}")
    lift = k if k <= t else k - t - 1
    if lift > order:
        return []
    if k <= t:
        return _times_x(_det_and_gate(t - k, order - lift)[0], lift, order)
    return _times_x(_det_and_gate(2 * t + 1 - k, order - lift)[1], lift, order)


# ---------- bounded-height tables ----------

def _band_walk(lo: int, hi: int, order: int):
    # forward substitution on the band between ordinates lo and hi: the
    # system reads -I + x·M on f_lo..f_hi, g_lo..g_hi with right-hand side
    # -1 at f_0, so x^n of every unknown is M applied to x^(n-1): f_j gains
    # f_{j-1} + g_{j-1} and g_j the sum of f above j.  Yields the (f, g)
    # coefficient lists, indexed by ordinate - lo, for n = 0..order.
    f = [0] * (hi - lo + 1)
    f[-lo] = 1    # the empty path
    g = [0] * (hi - lo + 1)
    yield f, g
    for _ in range(order):
        above = list(accumulate(reversed(f)))[::-1]   # f_j + f_{j+1} + ...
        f, g = [0] + [a + b for a, b in zip(f, g)][:-1], above[1:] + [0]
        yield f, g


def _confined(lo: int, hi: int, k: int,
              order: int) -> tuple[list[int], list[int]]:
    # (f_k, g_k) of the band between ordinates lo and hi, from one walk over
    # the ordinates a path can reach: a prefix of length n <= order never
    # rises above n, and never sits below k - n, since each level it climbs
    # back to k costs an up step.  So neither a ceiling above the order nor
    # a floor below k - order binds, and for k > order both are zero.
    if k > order:
        return [0] * (order + 1), [0] * (order + 1)
    low = max(lo, k - order)
    steps = [(f[k - low], g[k - low])
             for f, g in _shared(_band_walk, low, min(hi, order), order)]
    return [f for f, _ in steps], [g for _, g in steps]


@_series_route
def gf_bounded_0t(k: int, t: int, kind: str, order: int) -> list[int]:
    """Prefixes confined to 0 <= y <= t ending at ordinate k.

    kind "f" selects the up-ending series (empty path included at k = 0),
    kind "g" the down-ending series; g at k = 0 counts the nonempty
    confined paths that return to the axis.  Both come from one walk.
    """
    if t < 1:
        raise ValueError("band height must be >= 1")
    if kind not in ("f", "g"):
        raise ValueError('kind must be "f" or "g"')
    if not 0 <= k <= t:
        raise IndexOutOfRange(f"ordinate {k} outside 0..{t}")
    f, g = _confined(0, t, k, order)
    return f if kind == "f" else g


@_series_route
def gf_bounded_sym(t: int, order: int) -> list[int]:
    """Paths confined to -t <= y <= t that end on the axis (empty included).

    The sum of the two axis unknowns of one walk on the centered band.
    """
    if t < 1:
        raise ValueError("band half-height must be >= 1")
    return list(map(add, *_confined(-t, t, 0, order)))


@_series_route
def gf_bounded_sym_ordinate(k: int, t: int, kind: str,
                            order: int) -> list[int]:
    """Per-ordinate series of the centered band, by forward substitution
    on the band system, one coefficient of every unknown per step."""
    if t < 1:
        raise ValueError("band half-height must be >= 1")
    if kind not in ("f", "g"):
        raise ValueError('kind must be "f" or "g"')
    if not -t <= k <= t:
        raise IndexOutOfRange(f"ordinate {k} outside -{t}..{t}")
    f, g = _confined(-t, t, k, order)
    return f if kind == "f" else g


# ---------- the special-height family ----------

@_series_route
def gf_H(order: int) -> list[int]:
    """Length counts of the special-height family (dominating-arch rule).

    The root b of x^2·b^2 - (1-x^3)·b + 1 = 0 that is a power series:
    b = (1 - x^3 - C^(1/2)) / (2x^2), with C the ceiling radicand.
    """
    c = _shared(_sqrt, CEILING_RADICAND, order + 2)
    return _half(_over_x(_sub((1, 0, 0, -1), c, order + 2), 2))


def _ceiling_fractions(k: int, order: int):
    # ((P_{k-1}, Q_{k-1}), (P_k, Q_k)) with B_i = P_i / Q_i the members of
    # height at most i: B_{-1} = 0/1, P_0 = Q_0 = 1 and the linear
    # recurrence P_i = x·P_{i-1} + Q_{i-1}, Q_i = (1+x-x^3)·Q_{i-1} -
    # x^2·P_{i-1}, so every Q_i has constant term 1.  No member of length n
    # is taller than n, so every level from the order up is the full series
    # through the order and the loop stops at level order + 1.
    one = _fit((1,), order)
    below, level = ([], one), (one, one)
    for _ in range(min(k, order + 1)):
        p, q = level
        below, level = level, (
            [a + b for a, b in zip(q, [0, *p[:-1]])],
            [c + c1 - c3 - p2 for c, c1, c3, p2 in
             zip(q, [0, *q[:-1]], [0, 0, 0, *q[:-3]], [0, 0, *p[:-2]])])
    return below, level


@_series_route
def gf_H_bounded(k: int, order: int) -> list[int]:
    """Special-height members of height at most k.

    Heights above the length are unreachable, so the result agrees with
    the full series through min(order, k+1).
    """
    if k < 0:
        raise ValueError("height ceiling must be >= 0")
    return _div(*_ceiling_fractions(k, order)[1], order)


@_series_route
def gf_H_exact(k: int, order: int) -> list[int]:
    """Special-height members of height exactly k."""
    if k < 0:
        raise ValueError("height must be >= 0")
    below, level = _ceiling_fractions(k, order)
    return _sub(_div(*level, order), _div(*below, order), order)


# ---------- the catalog surface ----------

class NamedSeries(namedtuple("NamedSeries", "name params series")):
    """A catalog evaluation: name, integer parameters, and the series."""

    __slots__ = ()


# a catalog entry: parameter names, the integer route, a one-line summary
_Entry = namedtuple("_Entry", "params fn summary")


CATALOG = {
    "dap": _Entry((), gf_dap.ints, "axis-to-axis paths by length"),
    "P": _Entry((), lambda order: _times_x(gf_dap.ints(order), 1, order),
                "axis-to-axis paths, length shifted up by one"),
    "W": _Entry((), _kernel_root, "square root of the kernel discriminant"),
    "G": _Entry((), lambda order: gf_gdap.ints("G", order), "all whole paths"),
    "Gp": _Entry((), lambda order: gf_gdap.ints("Gp", order),
                 "whole paths starting up, plus the empty path"),
    "Gp1": _Entry((), lambda order: gf_gdap.ints("Gp1", order),
                  "whole paths starting up, ending down"),
    "Gp2": _Entry((), lambda order: gf_gdap.ints("Gp2", order),
                  "whole paths starting up, ending up"),
    "Gm": _Entry((), lambda order: gf_gdap.ints("Gm", order),
                 "whole paths starting down"),
    "Gm1": _Entry((), lambda order: gf_gdap.ints("Gm1", order),
                  "whole paths starting down, ending down"),
    "Gm2": _Entry((), lambda order: gf_gdap.ints("Gm2", order),
                  "whole paths starting down, ending up"),
    "f0": _Entry((), lambda order: gf_gdap.ints("f0", order),
                 "whole paths ending with an up step"),
    "g0": _Entry((), lambda order: gf_gdap.ints("g0", order),
                 "whole paths ending with a down step"),
    "s2": _Entry((), _climb_root, "power-series root of the kernel quadratic"),
    "r2": _Entry((), _climb_root, "power-series root of the kernel quadratic"),
    "Tk": _Entry(("k",), _ordinate_factor,
                 "climb factor to ordinate k, never touching down again"),
    "Rk": _Entry(("k",), _drop_factor,
                 "drop factor to negative ordinate k"),
    "prefix_pos": _Entry(("k",), gf_prefix_positive.ints,
                         "prefixes ending at positive ordinate k"),
    "prefix_pos_total": _Entry((), gf_prefix_positive_total.ints,
                               "prefixes ending strictly above the axis"),
    "prefix_neg": _Entry(("k",), gf_prefix_negative.ints,
                         "prefixes ending at negative ordinate k"),
    "minorized": _Entry(("m",), gf_minorized.ints,
                        "prefixes floored at y = m, empty included"),
    "D": _Entry(("t",), poly_D.ints, "band determinant polynomial"),
    "N": _Entry(("k", "t"), poly_N.ints, "band Cramer numerator polynomial"),
    "fkt": _Entry(("k", "t"),
                  lambda k, t, order: gf_bounded_0t.ints(k, t, "f", order),
                  "confined prefixes ending up at ordinate k"),
    "gkt": _Entry(("k", "t"),
                  lambda k, t, order: gf_bounded_0t.ints(k, t, "g", order),
                  "confined prefixes ending down at ordinate k"),
    "f0t": _Entry(("t",),
                  lambda t, order: gf_bounded_0t.ints(0, t, "f", order),
                  "confined paths ending up on the axis, plus empty"),
    "g0t": _Entry(("t",),
                  lambda t, order: gf_bounded_0t.ints(0, t, "g", order),
                  "confined paths returning to the axis with a down step"),
    "sym": _Entry(("t",), gf_bounded_sym.ints,
                  "paths confined to |y| <= t ending on the axis"),
    "sym_f": _Entry(("k", "t"),
                    lambda k, t, order:
                        gf_bounded_sym_ordinate.ints(k, t, "f", order),
                    "centered-band prefixes ending up at ordinate k"),
    "sym_g": _Entry(("k", "t"),
                    lambda k, t, order:
                        gf_bounded_sym_ordinate.ints(k, t, "g", order),
                    "centered-band prefixes ending down at ordinate k"),
    "B": _Entry((), gf_H.ints, "special-height family by length"),
    "Bk": _Entry(("k",), gf_H_bounded.ints,
                 "special-height members of height at most k"),
    "Ak": _Entry(("k",), gf_H_exact.ints,
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
        raise UnknownName(f"unknown series {name!r}; known names: "
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
        coeffs = entry.fn(*args, order)
    except ValueError as exc:
        raise BadParams(str(exc)) from None
    return NamedSeries(name, tuple(args), TruncatedSeries(coeffs, order))
