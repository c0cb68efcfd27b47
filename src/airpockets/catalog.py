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
all their denominators have constant term ±1 once a power of 2 and of x
is cleared.  The whole-path series are read off one table of closed
forms in the kernel root, whose only series divisor is its radicand.
Routes work on lists of Python ints, and evaluate, the one way into the
catalog, builds the TruncatedSeries a call returns; the gf_* and poly_*
names are shorthands for it.  The product, quotient and power
on those lists are series._mul, _div and _pow, the same ones
TruncatedSeries uses.  The independent derivations that tie a family to
a second route (the first-return equation and the band substitution
solved one coefficient at a time, first-return systems, one
fraction-free Cramer elimination per band for its determinant,
numerators and confined series, radical closed forms, the special
heights' arch grammar) live in verify.DUAL_PATHS and run in `verify
--suite paper-series` and the tests.  The checks that stay in
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
from functools import partial
from itertools import accumulate
from operator import add, mul, sub

from .errors import (
    BadParams,
    ConsistencyError,
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

def solve_series_system(matrix, rhs) -> list[TruncatedSeries]:
    """Solve the square system matrix·x = rhs of TruncatedSeries entries,
    all at one order, by forward elimination, then back substitution.

    A matrix that is empty or not square, or a right-hand side of another
    length, raises ValueError; entries of mixed orders raise OrderMismatch.
    Each column pivots on its lowest-valuation entry on or below the
    diagonal: the first with a nonzero constant term.  A column whose
    remaining entries all have positive valuation means the determinant's
    constant term is zero: SingularToOrder.  Coefficients are ints, so a
    pivot whose constant term is not 1 or -1 raises NonInvertible from its
    inverse.  Zero entries are skipped.  The solution is substituted back
    into the original system before being returned.
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
    zero = TruncatedSeries([], order)

    def dot(entries, values):
        # the sum of entry·value over the nonzero entries
        return sum((e * v for e, v in zip(entries, values) if not e.is_zero()),
                   zero)

    rows = [[*row, b] for row, b in zip(matrix, rhs)]    # [A | b]
    inverses = []
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col].coeffs[0]),
                     None)
        if pivot is None:
            raise SingularToOrder(
                f"no unit pivot in column {col}; "
                "the determinant has zero constant term")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inverses.append(1 / rows[col][col])
        right = rows[col][col + 1:]
        for row in rows[col + 1:]:
            if not row[col].is_zero():
                factor = row[col] * inverses[col]
                row[col + 1:] = [e if p.is_zero() else e - factor * p
                                 for e, p in zip(row[col + 1:], right)]
    x = [zero] * n
    for i in range(n - 1, -1, -1):
        x[i] = (rows[i][n] - dot(rows[i][i + 1:n], x[i + 1:])) * inverses[i]
    for i, (row, b) in enumerate(zip(matrix, rhs)):
        _require(dot(row, x) == b, f"solution fails to reproduce equation {i}")
    return x


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

    Each is built once, keyed exactly on (radicand or band, order),
    and the table is dropped when the block ends or raises.  The table
    belongs to the calling thread: other threads, and calls after the
    block, compute afresh.
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


# ---------- the dap series and the whole-path family ----------

def _dap(order: int) -> list[int]:
    # nonempty axis-to-axis paths: the climb root less its constant term
    return _sub(_climb_root(order), (1,), order)


GDAP_NAMES = ("Gp1", "Gp2", "Gp", "Gm", "G", "Gm1", "Gm2", "f0", "g0")

# name: (P, Q, a, b), the closed form y = (P + Q·W) / (2^a·x^b·R) in the
# kernel root W and its radicand R = W^2.  Each is the kernel method's
# closed form in W and 1/K = (1 + x - x^2 - W)/(2x), rationalised with
# W^2 = R, so that R is the only series divisor; prefix_pos_total, the
# prefixes ending strictly above the axis, is (W - 1 - x + x^2)^2 / (4x·W).
_CLOSED_FORMS = {
    "Gp1": ((), (0, 0, 1), 0, 0),
    "Gm2": ((), (0, 0, 1), 0, 0),
    "f0": ((-1, 2, 1, 2, -1), (1, -1, 1), 1, 0),
    "g0": ((0, -1, 2, 1, 2, -1), (0, 1, 1, -1), 1, 0),
    "Gp2": ((-1, 2, 1, 2, -1), (1, -1, -1), 1, 0),
    "Gp": ((1, -2, -1, -2, 1), (1, -1, 1), 1, 0),
    "G": ((1, -3, 1, -1, 3, -1), (1, 0, 2, -1), 1, 0),
    "Gm": ((0, -1, 2, 1, 2, -1), (0, 1, 1, -1), 1, 0),
    "Gm1": ((0, -1, 2, 1, 2, -1), (0, 1, -1, -1), 1, 0),
    "prefix_pos_total": ((-1, 1, 4, 1, 0, -3, 1), (1, 0, -1, -2, 1), 1, 1),
}


def _closed_form(name: str, order: int) -> list[int]:
    # one product by Q and one division by R after the shared root W, then
    # an exact halving per factor 2 and an exact division by x^b
    p, q, halvings, lift = _CLOSED_FORMS[name]
    big = order + lift
    y = _div(_add(p, _mul(q, _kernel_root(big), big), big),
             KERNEL_RADICAND, big)
    for _ in range(halvings):
        y = _half(y)
    return _over_x(y, lift)


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


def _prefix_positive(k: int, order: int) -> list[int]:
    if k < 1:
        raise ValueError("ordinate must be >= 1")
    f0 = _closed_form("f0", order)
    return _mul(_add(f0, (1,), order), _ordinate_factor(k, order), order)


def _prefix_negative(k: int, order: int) -> list[int]:
    if k > -1:
        raise ValueError("ordinate must be <= -1")
    g0 = _over_x(_closed_form("g0", order + 1), 1)
    return _mul(_drop_factor(k, order), _add(g0, (1,), order), order)


def _minorized(m: int, order: int) -> list[int]:
    # the kernel closed form (s^(-m) - s^(-1-m) - x^2) / x^3
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


def _band_det(t: int, order: int) -> list[int]:
    if t < 0:
        raise ValueError("band height must be >= 0")
    return _det_and_gate(t, order)[0]


def _band_numerator(k: int, t: int, order: int) -> list[int]:
    # from the determinant sweep: x^k·D_{t-k} for an f ordinate k <= t,
    # and x^(k-t-1)·N_{s+1}^s with s = 2t+1-k for a g ordinate
    if t < 0 or not 0 <= k <= 2 * t + 1:
        raise ValueError(f"numerator index ({k}, {t}) outside 0..{2 * t + 1}")
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


def _low_band(k: int, t: int, order: int) -> tuple[list[int], list[int]]:
    # (f_k, g_k) of the band 0 <= y <= t: f ends with an up step (the empty
    # path included at k = 0), g with a down step
    if t < 1:
        raise ValueError("band height must be >= 1")
    if not 0 <= k <= t:
        raise ValueError(f"ordinate {k} outside 0..{t}")
    return _confined(0, t, k, order)


def _centered_band(k: int, t: int,
                   order: int) -> tuple[list[int], list[int]]:
    # (f_k, g_k) of the band -t <= y <= t
    if t < 1:
        raise ValueError("band half-height must be >= 1")
    if not -t <= k <= t:
        raise ValueError(f"ordinate {k} outside -{t}..{t}")
    return _confined(-t, t, k, order)


# ---------- the special-height family ----------

def _special_heights(order: int) -> list[int]:
    # the root b of x^2·b^2 - (1-x^3)·b + 1 = 0 that is a power series:
    # b = (1 - x^3 - C^(1/2)) / (2x^2), with C the ceiling radicand
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


def _heights_at_most(k: int, order: int) -> list[int]:
    # heights above the length are unreachable, so this agrees with the
    # full series through min(order, k+1)
    if k < 0:
        raise ValueError("height ceiling must be >= 0")
    return _div(*_ceiling_fractions(k, order)[1], order)


def _heights_exactly(k: int, order: int) -> list[int]:
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
    "dap": _Entry((), _dap, "axis-to-axis paths by length"),
    "P": _Entry((), lambda order: _times_x(_dap(order), 1, order),
                "axis-to-axis paths, length shifted up by one"),
    "W": _Entry((), _kernel_root, "square root of the kernel discriminant"),
    "G": _Entry((), partial(_closed_form, "G"), "all whole paths"),
    "Gp": _Entry((), partial(_closed_form, "Gp"),
                 "whole paths starting up, plus the empty path"),
    "Gp1": _Entry((), partial(_closed_form, "Gp1"),
                  "whole paths starting up, ending down"),
    "Gp2": _Entry((), partial(_closed_form, "Gp2"),
                  "whole paths starting up, ending up"),
    "Gm": _Entry((), partial(_closed_form, "Gm"), "whole paths starting down"),
    "Gm1": _Entry((), partial(_closed_form, "Gm1"),
                  "whole paths starting down, ending down"),
    "Gm2": _Entry((), partial(_closed_form, "Gm2"),
                  "whole paths starting down, ending up"),
    "f0": _Entry((), partial(_closed_form, "f0"),
                 "whole paths ending with an up step"),
    "g0": _Entry((), partial(_closed_form, "g0"),
                 "whole paths ending with a down step"),
    "s2": _Entry((), _climb_root, "power-series root of the kernel quadratic"),
    "r2": _Entry((), _climb_root, "power-series root of the kernel quadratic"),
    "Tk": _Entry(("k",), _ordinate_factor,
                 "climb factor to ordinate k, never touching down again"),
    "Rk": _Entry(("k",), _drop_factor,
                 "drop factor to negative ordinate k"),
    "prefix_pos": _Entry(("k",), _prefix_positive,
                         "prefixes ending at positive ordinate k"),
    "prefix_pos_total": _Entry((), partial(_closed_form, "prefix_pos_total"),
                               "prefixes ending strictly above the axis"),
    "prefix_neg": _Entry(("k",), _prefix_negative,
                         "prefixes ending at negative ordinate k"),
    "minorized": _Entry(("m",), _minorized,
                        "prefixes floored at y = m, empty included"),
    "D": _Entry(("t",), _band_det, "band determinant polynomial"),
    "N": _Entry(("k", "t"), _band_numerator,
                "band Cramer numerator polynomial"),
    "fkt": _Entry(("k", "t"), lambda k, t, order: _low_band(k, t, order)[0],
                  "confined prefixes ending up at ordinate k"),
    "gkt": _Entry(("k", "t"), lambda k, t, order: _low_band(k, t, order)[1],
                  "confined prefixes ending down at ordinate k"),
    "f0t": _Entry(("t",), lambda t, order: _low_band(0, t, order)[0],
                  "confined paths ending up on the axis, plus empty"),
    "g0t": _Entry(("t",), lambda t, order: _low_band(0, t, order)[1],
                  "confined paths returning to the axis with a down step"),
    "sym": _Entry(("t",),
                  lambda t, order: list(map(add, *_centered_band(0, t, order))),
                  "paths confined to |y| <= t ending on the axis"),
    "sym_f": _Entry(("k", "t"),
                    lambda k, t, order: _centered_band(k, t, order)[0],
                    "centered-band prefixes ending up at ordinate k"),
    "sym_g": _Entry(("k", "t"),
                    lambda k, t, order: _centered_band(k, t, order)[1],
                    "centered-band prefixes ending down at ordinate k"),
    "B": _Entry((), _special_heights, "special-height family by length"),
    "Bk": _Entry(("k",), _heights_at_most,
                 "special-height members of height at most k"),
    "Ak": _Entry(("k",), _heights_exactly,
                 "special-height members of height exactly k"),
}


def series_names() -> tuple[str, ...]:
    return tuple(sorted(CATALOG))


def evaluate(name: str, order: int, k: int | None = None,
             t: int | None = None, m: int | None = None) -> NamedSeries:
    """Look up a catalog name and evaluate it at the given order.

    The one evaluator: every other way into the catalog calls it.  Raises
    UnknownName for a name outside the catalog and BadParams when the
    parameters do not match the entry (missing, extra, out of range).
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


# ---------- shorthands for evaluate ----------

def gf_dap(order: int) -> TruncatedSeries:
    """Nonempty axis-to-axis path counts, one coefficient per length."""
    return evaluate("dap", order).series


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
    return evaluate(name, order).series


def gf_prefix_positive(k: int, order: int) -> TruncatedSeries:
    """Prefixes ending at positive ordinate k (both final-step kinds)."""
    return evaluate("prefix_pos", order, k=k).series


def gf_prefix_negative(k: int, order: int) -> TruncatedSeries:
    """Prefixes ending at negative ordinate k (both final-step kinds)."""
    return evaluate("prefix_neg", order, k=k).series


def gf_minorized(m: int, order: int) -> TruncatedSeries:
    """Prefixes that never dip below the floor y = m (empty path included)."""
    return evaluate("minorized", order, m=m).series


def poly_D(t: int, order: int) -> TruncatedSeries:
    """Determinant polynomial of the height-(0..t) band system."""
    return evaluate("D", order, t=t).series


def poly_N(k: int, t: int, order: int) -> TruncatedSeries:
    """Cramer numerator polynomial for unknown k of the height-(0..t) band:
    unknowns 0..t are the f ordinates, t+1..2t+1 the g ordinates."""
    return evaluate("N", order, k=k, t=t).series
