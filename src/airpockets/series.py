"""Truncated power series with integer coefficients.

A :class:`TruncatedSeries` keeps the coefficients of x^0 .. x^order
exactly, as Python ints: every counting series here is a series of
integers, so there is one number type end to end.  A coefficient that is
not an integer (a Fraction, a float) raises TypeError on construction.
Division and square root stay exact: a scalar divisor must divide every
coefficient, a series divisor must have first nonzero coefficient 1 or
-1, and a square root must halve exactly, or NonInvertible is raised.
Binary operations require both operands to share the same order; truncate
explicitly when mixing orders.  Operations that lose low-order information
return a series of *smaller* order, so the order of a series is always an
honest statement of which coefficients are known:

* division by a series of valuation v returns order - v,
* shift(-j) returns order - j.

Instances are immutable and hashable.  Everything here is pure and safe to
share between threads.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import index

from .errors import (
    BadConstantTerm,
    DivisionByZeroSeries,
    NonInvertible,
    OrderMismatch,
    ValuationUnderflow,
)


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise NonInvertible(f"division by {b} leaves a remainder")
    return q


def _extent(a: list[int]) -> int:
    # one past the last nonzero coefficient: 0 for an all-zero list
    n = len(a)
    while n and not a[n - 1]:
        n -= 1
    return n


def _mul_lists(a: list[int], b: list[int], order: int) -> list[int]:
    # each loop stops at its operand's extent, so a polynomial factor of
    # degree d costs O(order·d)
    out = [0] * (order + 1)
    extent_b = _extent(b)
    for i in range(min(_extent(a), order + 1)):
        ai = a[i]
        if not ai:
            continue
        for j in range(min(extent_b, order + 1 - i)):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def _div_lists(a: list[int], b: list[int], order: int) -> list[int]:
    # long division, exact to the given order; b[0] must be 1 or -1, so
    # that 1/b[0] = b[0] and the quotient stays integral.  Coefficient n
    # reads b only below its extent, so a divisor of degree d costs
    # O(order·d)
    inv0 = b[0]
    if inv0 not in (1, -1):
        raise NonInvertible(
            f"divisor's first nonzero coefficient {inv0} is not 1 or -1")
    extent_b = _extent(b)
    q = [0] * (order + 1)
    for n in range(order + 1):
        acc = a[n] if n < len(a) else 0
        for i in range(n + 1 - extent_b if n >= extent_b else 0, n):
            qi = q[i]
            if qi:
                acc -= qi * b[n - i]
        q[n] = acc * inv0
    return q


class TruncatedSeries:
    """A power series in x known through x^order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable[int], order: int | None = None):
        cs = list(map(index, coeffs))
        if order is None:
            if not cs:
                raise ValueError("an empty coefficient list needs an explicit order")
            order = len(cs) - 1
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(cs) < order + 1:
            cs.extend([0] * (order + 1 - len(cs)))
        elif len(cs) > order + 1:
            del cs[order + 1:]
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # ---------- constructors ----------

    @classmethod
    def monomial(cls, n: int, order: int) -> "TruncatedSeries":
        if n < 0:
            raise ValueError("monomial exponent must be nonnegative")
        return cls([0] * n + [1] if n <= order else [], order)

    # ---------- inspection ----------

    def coefficient(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside known range 0..{self.order}")
        return self.coeffs[n]

    @property
    def valuation(self) -> int:
        """Index of the first nonzero coefficient; order+1 when none is known."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return self.order + 1

    def is_zero(self) -> bool:
        return self.valuation > self.order

    def integer_coefficients(self) -> tuple[int, ...]:
        """Coefficients of x^0 .. x^order, as ints."""
        return self.coeffs

    # ---------- order management ----------

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise OrderMismatch(
                f"cannot truncate order {self.order} up to {order}")
        return TruncatedSeries(self.coeffs[: order + 1], order)

    def _check_order(self, other: "TruncatedSeries"):
        if self.order != other.order:
            raise OrderMismatch(
                f"orders differ: {self.order} vs {other.order}")

    def _coerce(self, other) -> "TruncatedSeries | None":
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, int):
            return TruncatedSeries([other], self.order)
        return None

    # ---------- arithmetic ----------

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        self._check_order(rhs)
        return TruncatedSeries(
            [a + b for a, b in zip(self.coeffs, rhs.coeffs)], self.order)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        self._check_order(rhs)
        return TruncatedSeries(
            [a - b for a, b in zip(self.coeffs, rhs.coeffs)], self.order)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __mul__(self, other):
        if isinstance(other, int):
            return TruncatedSeries([c * other for c in self.coeffs],
                                   self.order)
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            return TruncatedSeries(
                _mul_lists(list(self.coeffs), list(other.coeffs), self.order),
                self.order)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            # a zero divisor raises ZeroDivisionError from divmod
            return TruncatedSeries([_exact_div(c, other) for c in self.coeffs],
                                   self.order)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        if other.is_zero():
            raise DivisionByZeroSeries("division by a series that is 0 to order")
        v = other.valuation
        if v > 0 and self.valuation < v:
            raise ValuationUnderflow(
                f"dividend valuation {self.valuation} < divisor valuation {v}")
        new_order = self.order - v
        a = list(self.coeffs[v:])
        b = list(other.coeffs[v:])
        return TruncatedSeries(_div_lists(a, b, new_order), new_order)

    def __rtruediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("series exponent must be nonnegative")
        result = TruncatedSeries([1], self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def sqrt(self) -> "TruncatedSeries":
        """Square root by Newton iteration with order doubling.

        The constant term must be 1 (raises BadConstantTerm otherwise),
        and the root must have integer coefficients (raises NonInvertible
        otherwise).
        """
        if self.coeffs[0] != 1:
            raise BadConstantTerm(
                f"sqrt needs constant term 1, got {self.coeffs[0]}")
        a = list(self.coeffs)
        s = [1]
        prec = 0
        while prec < self.order:
            prec = min(2 * prec + 1, self.order)
            s += [0] * (prec + 1 - len(s))
            t = _div_lists(a, s, prec)
            s = [_exact_div(si + ti, 2) for si, ti in zip(s, t)]
        return TruncatedSeries(s, self.order)

    def shift(self, j: int) -> "TruncatedSeries":
        """Multiply by x^j.

        For j >= 0 the order is preserved (overflowing top coefficients
        drop off the window).  For j < 0 the series must have valuation
        >= -j and the result has order + j.
        """
        if j >= 0:
            # past the order every coefficient drops off the window
            pad = min(j, self.order + 1)
            return TruncatedSeries([0] * pad + list(self.coeffs), self.order)
        m = -j
        if self.valuation < m:
            raise ValuationUnderflow(
                f"shift({j}) on a series of valuation {self.valuation}")
        if m > self.order:
            raise ValuationUnderflow(f"shift({j}) exceeds order {self.order}")
        return TruncatedSeries(self.coeffs[m:], self.order - m)

    # ---------- comparisons and display ----------

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.order == other.order and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def agrees_through(self, other: "TruncatedSeries", n: int) -> bool:
        """True when both series share coefficients of x^0 .. x^n."""
        if n > self.order or n > other.order:
            raise OrderMismatch(f"agreement through {n} not decidable")
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    def __repr__(self):
        return f"TruncatedSeries({self!s}, order={self.order})"

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return " + ".join(parts) if parts else "0"
