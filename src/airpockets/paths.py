"""Lattice paths built from up-steps and multi-level down-steps.

Steps are stored as plain ints: ``1`` is the up-step (1, 1) and ``-k`` is
the down-step (1, -k).  Two down-steps may never be adjacent; that rule is
enforced at construction, so every LatticePath in circulation is valid.

Terminology used throughout the package:

* path: any step sequence obeying the adjacency rule;
* dap: a nonempty path that stays at ordinate >= 0 and ends on the axis;
* gdap: a path that ends on the axis but may dip below (the empty path
  counts);
* prime: a dap whose only axis contact after the start is its endpoint and
  whose final step drops at least two levels.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator

from .errors import (
    BadEnds,
    ConsecutiveDowns,
    MalformedToken,
    NotDAP,
    NotPrime,
)

UP = 1


def down(k: int) -> int:
    if k < 1:
        raise ValueError("down-step level must be >= 1")
    return -k


_SUBSCRIPT_DIGITS = str.maketrans("₀₁₂₃₄"
                                  "₅₆₇₈₉",
                                  "0123456789")


class LatticePath:
    """Immutable step sequence with its profile cached at construction."""

    __slots__ = ("steps", "profile")

    def __init__(self, steps: Iterable[int] = ()):
        ss = tuple(steps)
        prof = [0]
        h = 0
        prev_down = False
        for s in ss:
            if s == UP:
                prev_down = False
                h += 1
            elif s <= -1:
                if prev_down:
                    raise ConsecutiveDowns(
                        f"down-step follows a down-step in {ss}")
                prev_down = True
                h += s
            else:
                raise ValueError(f"invalid step {s}")
            prof.append(h)
        object.__setattr__(self, "steps", ss)
        object.__setattr__(self, "profile", tuple(prof))

    def __setattr__(self, name, value):
        raise AttributeError("LatticePath is immutable")

    def __len__(self):
        return len(self.steps)

    def __iter__(self) -> Iterator[int]:
        return iter(self.steps)

    def __eq__(self, other):
        if isinstance(other, LatticePath):
            return self.steps == other.steps
        return NotImplemented

    def __hash__(self):
        return hash(self.steps)

    def __add__(self, other: "LatticePath") -> "LatticePath":
        if not isinstance(other, LatticePath):
            return NotImplemented
        return LatticePath(self.steps + other.steps)

    @property
    def is_empty(self) -> bool:
        return not self.steps

    def __str__(self):
        parts = []
        for s in self.steps:
            if s == UP:
                parts.append("U")
            elif s == -1:
                parts.append("D")
            else:
                parts.append(f"D{-s}")
        return "".join(parts)

    def __repr__(self):
        return f"LatticePath({str(self)!r})"


EMPTY = LatticePath()
UD = LatticePath((UP, -1))


def parse_path(text: str) -> LatticePath:
    """Parse a step string: "U" goes up, "Dk" drops k levels, "D" means "D1".

    Subscript digits are accepted as well, so strings can be pasted in
    either typographic form.  Whitespace between tokens is ignored.
    """
    text = text.translate(_SUBSCRIPT_DIGITS)
    steps = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "U":
            steps.append(UP)
            i += 1
            continue
        if ch == "D":
            i += 1
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j == i:
                steps.append(-1)
            else:
                try:
                    k = int(text[i:j])
                except ValueError as exc:  # such as "²", or too many digits
                    raise MalformedToken(str(exc)) from None
                if k < 1:
                    raise MalformedToken(f"down level must be >= 1, got D{k}")
                steps.append(-k)
                i = j
            continue
        raise MalformedToken(f"unexpected character {ch!r} at position {i}")
    return LatticePath(steps)


# ---------- classification ----------

class PathClassification(namedtuple(
        "PathClassification", "length final_ordinate max_height min_height "
        "is_dap is_gdap is_prime starts_with ends_with")):
    """What classify finds: ints for the length and heights, bools for the
    families, and "up", "down" or "empty" for the first and last step."""

    __slots__ = ()


def _end_kind(step: int | None) -> str:
    if step is None:
        return "empty"
    return "up" if step == UP else "down"


def classify(path: LatticePath) -> PathClassification:
    prof = path.profile
    n = len(path)
    final = prof[-1]
    lo = min(prof)
    hi = max(prof)
    is_dap = n > 0 and final == 0 and lo >= 0
    # prime: ends with a drop of >= 2 and the axis is touched only at the end
    is_prime = (is_dap and path.steps[-1] <= -2
                and all(prof[i] for i in range(1, n)))
    return PathClassification(
        length=n,
        final_ordinate=final,
        max_height=hi,
        min_height=lo,
        is_dap=is_dap,
        is_gdap=final == 0,
        is_prime=is_prime,
        starts_with=_end_kind(path.steps[0] if n else None),
        ends_with=_end_kind(path.steps[-1] if n else None),
    )


# ---------- structural maps ----------

def mirror(path: LatticePath) -> LatticePath:
    """Reverse the step sequence (step kinds preserved); an involution."""
    return LatticePath(path.steps[::-1])


def flat(path: LatticePath) -> LatticePath:
    """Lower a prime path U.beta.U.D(k) to beta.U.D(k-1).

    A bijection from primes of length n onto daps of length n-1.
    """
    if not classify(path).is_prime:
        raise NotPrime(f"{path} is not prime")
    return LatticePath(path.steps[1:-1] + (path.steps[-1] + 1,))


def sharp(path: LatticePath) -> LatticePath:
    """Raise a dap to the unique prime that flattens back to it."""
    c = classify(path)
    if not c.is_dap:
        raise NotDAP(f"{path} is not a dap")
    return LatticePath((UP,) + path.steps[:-1] + (path.steps[-1] - 1,))


def merge(alpha: LatticePath, beta: LatticePath) -> LatticePath:
    """Fuse alpha's final down-step with beta's initial one.

    x.D(i) followed by D(j).y becomes x.D(i+j).y; one step shorter than
    the plain concatenation would be.
    """
    if not alpha.steps or alpha.steps[-1] > 0:
        raise BadEnds(f"{alpha} does not end with a down-step")
    if not beta.steps or beta.steps[0] > 0:
        raise BadEnds(f"{beta} does not start with a down-step")
    fused = alpha.steps[-1] + beta.steps[0]
    return LatticePath(alpha.steps[:-1] + (fused,) + beta.steps[1:])


class ArchSplit(namedtuple("ArchSplit", "prefix arch")):
    """Decomposition of a dap at its last return to the axis before the end.

    ``prefix`` is the (possibly empty) dap before that return and ``arch``
    is the remainder, which touches the axis only at its endpoint: either
    the two-step atom UD or a prime path.  ``prefix + arch`` reproduces the
    input.
    """

    __slots__ = ()

    @property
    def case(self) -> str:
        base = "atom" if self.arch == UD else "prime"
        return base if self.prefix.is_empty else f"prefixed-{base}"


def first_return_decompose(path: LatticePath) -> ArchSplit:
    """Split a dap into (prefix dap, final arch); four shapes are possible.

    The split point is the last axis contact strictly before the endpoint.
    The arch after it is UD or prime, and the prefix (possibly empty)
    is itself a dap.
    """
    if not classify(path).is_dap:
        raise NotDAP(f"{path} is not a dap")
    prof = path.profile
    cut = max(i for i in range(len(path)) if prof[i] == 0)
    return ArchSplit(LatticePath(path.steps[:cut]),
                     LatticePath(path.steps[cut:]))
