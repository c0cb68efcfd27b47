"""Brute-force generators and counters: the ground truth everything else is
checked against.

The path engine works position by position under per-position floor and
ceiling bounds, an optional final ordinate, and start/end step-kind
filters.  Down-steps are capped either by the floor or, when the walk may
go arbitrarily deep, by the requirement that the remaining steps (each
gaining at most one level) can still reach the target ordinate; a spec with
neither cap describes an infinite family and is rejected.

Enumeration walks every admissible step sequence with an explicit stack
and lists them lexicographically with U < D1 < D2 < ...  Counting never
materializes paths: one forward sweep carries, per height, the number of
prefixes ending in an up-step and in a drop (the step-set view of
Banderier and Flajolet), and the special-height family is counted over
(length, height) on its arch grammar.  No walker or counter recurses once
per step, and nothing keeps state between calls, so everything here is
safe to run concurrently.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .errors import BadParams, InfeasibleSpec
from .paths import EMPTY, UD, UP, LatticePath, classify, flat, sharp

PATH_KINDS = ("gdap", "dap", "prime", "prefix_gdap")
KINDS = PATH_KINDS + (
    "special_h", "motzkin_avoid", "composition_alt", "composition_alt_odd_even")


class FamilySpec(NamedTuple):
    """A path family: which kind, plus optional window and endpoint filters.

    min_y / max_y bound the whole profile; end_ordinate pins the final
    height (kinds other than prefix_gdap force 0); start_step / end_step
    ("up" or "down") filter the first and last step kind.
    """

    kind: str
    min_y: int | None = None
    max_y: int | None = None
    end_ordinate: int | None = None
    end_step: str | None = None
    start_step: str | None = None


def lex_key(path: LatticePath) -> tuple[int, ...]:
    """Sort key realizing the step order U < D1 < D2 < ..."""
    return tuple(0 if s == UP else -s for s in path.steps)


def _check_spec(n: int, spec: FamilySpec):
    if n < 0:
        raise BadParams("length must be nonnegative")
    if spec.kind not in KINDS:
        raise BadParams(f"unknown family kind {spec.kind!r}")
    for field in ("start_step", "end_step"):
        v = getattr(spec, field)
        if v not in (None, "up", "down"):
            raise BadParams(f"{field} must be 'up', 'down', or None")
    if spec.min_y is not None and spec.min_y > 0:
        raise InfeasibleSpec("every path starts at ordinate 0, below min_y")
    if spec.max_y is not None and spec.max_y < 0:
        raise InfeasibleSpec("every path starts at ordinate 0, above max_y")
    if spec.kind in ("gdap", "dap", "prime"):
        if spec.end_ordinate not in (None, 0):
            raise InfeasibleSpec(
                f"{spec.kind} paths end on the axis, not at {spec.end_ordinate}")
    if spec.kind == "prefix_gdap":
        if spec.min_y is None and spec.end_ordinate is None:
            raise InfeasibleSpec(
                "prefix family with no floor and free end is infinite")
    if spec.end_ordinate is not None:
        if spec.end_ordinate > n:
            raise InfeasibleSpec(f"cannot reach ordinate {spec.end_ordinate} "
                                 f"in {n} steps")
        if spec.min_y is not None and spec.end_ordinate < spec.min_y:
            raise InfeasibleSpec("end_ordinate lies below min_y")
    if spec.kind == "special_h":
        if any(getattr(spec, f) is not None for f in
               ("min_y", "max_y", "end_ordinate", "end_step", "start_step")):
            raise InfeasibleSpec(
                "the special-height family takes no extra constraints")
    if spec.kind in ("motzkin_avoid",
                     "composition_alt", "composition_alt_odd_even"):
        raise InfeasibleSpec(
            f"{spec.kind} members are not lattice paths here; use "
            "enum_motzkin_avoiding or enum_compositions")


def _window(n: int, spec: FamilySpec):
    """Lowest and highest useful ordinate at each position 0..n, plus the
    target final ordinate (None for a free end).

    A point below the floor, or too deep to climb back to the target in
    the steps left (each step gains at most one level), completes nothing;
    no point lies above the ceiling or above its own position.
    """
    if spec.kind == "prime":
        # interior strictly above the axis, entered from height >= 2
        floors = [0] + [1] * (n - 2) + [2, 0]
        target = 0
    elif spec.kind == "dap":
        floors = [0] * (n + 1)
        target = 0
    else:
        floors = [spec.min_y] * (n + 1)
        target = 0 if spec.kind == "gdap" else spec.end_ordinate
    low = []
    for j, floor in enumerate(floors):
        if target is not None:
            reach = target - (n - j)
            floor = reach if floor is None else max(floor, reach)
        low.append(floor)
    high = [j if spec.max_y is None else min(spec.max_y, j)
            for j in range(n + 1)]
    return low, high, target


def _step_kinds(i: int, n: int, spec: FamilySpec) -> tuple[bool, bool]:
    """Whether step i may go up, and whether it may drop, under the start
    and end step filters."""
    first, last = i == 0, i == n - 1
    ups = not (first and spec.start_step == "down") and \
        not (last and spec.end_step == "down")
    drops = not (first and spec.start_step == "up") and \
        not (last and spec.end_step == "up")
    return ups, drops


def _short(n: int, spec: FamilySpec) -> list[LatticePath] | None:
    """The members at lengths the step rules do not reach, else None."""
    if spec.kind == "prime" and n < 3:
        return []  # the shortest axis-avoiding arch with a deep drop is UUD2
    if n == 0:
        empty_ok = (spec.end_ordinate in (None, 0)
                    and spec.start_step is None and spec.end_step is None
                    and spec.kind in ("gdap", "prefix_gdap"))
        return [EMPTY] if empty_ok else []
    return None


def enum_paths(n: int, spec: FamilySpec) -> list[LatticePath]:
    """All length-n members of the family, in lexicographic step order."""
    _check_spec(n, spec)
    if spec.kind == "special_h":
        return enum_h(n)
    short = _short(n, spec)
    if short is not None:
        return short
    low, high, target = _window(n, spec)
    kinds = [_step_kinds(i, n, spec) for i in range(n)]
    out: list[LatticePath] = []
    steps = [0] * n
    pending: list[tuple[int, int, int, bool]] = []  # index, step, height, drop?

    def push(i, h, dropped):
        # the steps open at index i, pushed so that U, D1, D2, ... pop first
        ups, drops = kinds[i]
        if drops and not dropped:
            pending.extend((i, -k, h - k, True)
                           for k in range(h - low[i + 1], 0, -1))
        if ups and low[i + 1] <= h + 1 <= high[i + 1]:
            pending.append((i, UP, h + 1, False))

    push(0, 0, False)
    while pending:
        i, step, h, dropped = pending.pop()
        steps[i] = step
        if i < n - 1:
            push(i + 1, h, dropped)
        elif target is None or h == target:
            out.append(LatticePath(steps))
    return out


def count_paths(n: int, spec: FamilySpec) -> int:
    """|enum_paths(n, spec)| by one forward sweep, without materializing.

    The state after each position is two vectors indexed by height: the
    prefixes whose last step went up (or that have no step yet), and those
    whose last step dropped.  An up-step shifts both by one level; a drop
    may only follow the first kind and reaches every lower level, so the
    new drop vector is a suffix sum of the old up vector.
    """
    _check_spec(n, spec)
    if spec.kind == "special_h":
        return sum(_special_h_table(n)[n])
    short = _short(n, spec)
    if short is not None:
        return len(short)
    low, high, target = _window(n, spec)
    base = min(low)
    size = max(high) - base + 1
    up = [0] * size
    down = [0] * size
    up[-base] = 1
    for i in range(n):
        ups, drops = _step_kinds(i, n, spec)
        new_up = [0] * size
        if ups:
            new_up[1:] = [u + d for u, d in zip(up, down)][:-1]
        new_down = [0] * size
        if drops:
            tails = list(accumulate(reversed(up)))  # sums of up[size-1-r:]
            new_down[:-1] = tails[-2::-1]
        keep_from = min(low[i + 1] - base, size)
        keep_to = max(high[i + 1] - base + 1, keep_from)
        for vec in (new_up, new_down):
            vec[:keep_from] = [0] * keep_from
            vec[keep_to:] = [0] * (size - keep_to)
        up, down = new_up, new_down
    if target is None:
        return sum(up) + sum(down)
    if not base <= target < base + size:
        return 0
    return up[target - base] + down[target - base]


# ---------- the special-height family ----------

def _height(path: LatticePath) -> int:
    return max(path.profile)

def enum_h(n: int) -> list[LatticePath]:
    """Daps whose every first-return factor is at least as high as the rest.

    Built from the grammar: the empty path belongs; otherwise the path is
    arch + body where the arch is UD or the raise of a shorter nonempty
    member, the body is a member, and height(arch) >= height(body).
    """
    if n < 0:
        raise BadParams("length must be nonnegative")
    table: list[list[LatticePath]] = [[EMPTY]] + [[] for _ in range(n)]
    for m in range(2, n + 1):
        members = []
        for j in range(2, m + 1):
            arches = [UD] if j == 2 else \
                [sharp(g) for g in table[j - 1] if not g.is_empty]
            for arch in arches:
                ha = _height(arch)
                members.extend(arch + body for body in table[m - j]
                               if ha >= _height(body))
        members.sort(key=lex_key)
        table[m] = members
    return table[n]


def _special_h_table(n: int) -> list[list[int]]:
    """rows[m][h]: special-height members of length m and height exactly h.

    enum_h's grammar, counted: an arch of length j is UD (height 1) or the
    raise of a nonempty member of length j - 1 (one level higher), and it
    takes every body of length m - j that is no higher than itself.
    """
    rows: list[list[int]] = []
    no_higher: list[list[int]] = []  # running sums of each row over height
    for m in range(n + 1):
        row = [1] if m == 0 else [0] * (m + 1)
        for j in range(2, m + 1):
            bodies = no_higher[m - j]
            if j == 2:
                row[1] += bodies[min(1, m - j)]
                continue
            for h, arches in enumerate(rows[j - 1]):
                if arches:
                    row[h + 1] += arches * bodies[min(h + 1, m - j)]
        rows.append(row)
        no_higher.append(list(accumulate(row)))
    return rows


def is_special_height(path: LatticePath) -> bool:
    """Membership test by peeling first-return arches; ε belongs."""
    if path.is_empty:
        return True
    if not classify(path).is_dap:
        return False
    prof = path.profile
    cut = next(i for i in range(1, len(path) + 1) if prof[i] == 0)
    arch = LatticePath(path.steps[:cut])
    body = LatticePath(path.steps[cut:])
    if arch != UD:
        if not classify(arch).is_prime or not is_special_height(flat(arch)):
            return False
    return _height(arch) >= _height(body) and is_special_height(body)


# ---------- Motzkin paths with isolated, descent-anchored flat steps ----------

def _motzkin_moves(h, last):
    if last != "H":
        yield "U", h + 1
        if h > 0:
            yield "D", h - 1
    elif h > 0:
        yield "D", h - 1
    if last == "D":
        yield "H", h


def enum_motzkin_avoiding(n: int) -> list[str]:
    """Motzkin paths whose flat steps each follow a down-step and precede a
    down-step or the end.

    Equivalently: no factor UH, HU, or HH, and no leading flat step (the
    leading-H clause only matters at length 1, where HU/HH cannot bite).
    """
    if n < 0:
        raise BadParams("length must be nonnegative")
    if n == 0:
        return [""]
    out: list[str] = []
    word = [""] * n
    pending: list[tuple[int, str, int]] = []  # index, step, height after

    def push(i, h, last):
        for step, h2 in reversed(list(_motzkin_moves(h, last))):
            if h2 < n - i:  # can still come back down in time
                pending.append((i, step, h2))

    push(0, 0, "")
    while pending:
        i, step, h = pending.pop()
        word[i] = step
        if i < n - 1:
            push(i + 1, h, step)
        else:  # the last step can only land on the axis
            out.append("".join(word))
    return out


def count_motzkin_avoiding(n: int) -> int:
    """|enum_motzkin_avoiding(n)| by a forward sweep over heights 0..n//2,
    one vector per kind of last step (no step yet counts as an up-step)."""
    if n < 0:
        raise BadParams("length must be nonnegative")
    top = n // 2  # anything higher cannot come back down in time
    up, down, level = [1] + [0] * top, [0] * (top + 1), [0] * (top + 1)
    for _ in range(n):
        free = [u + d for u, d in zip(up, down)]  # may go up or drop
        up, down, level = ([0] + free[:-1],
                           [f + h for f, h in zip(free[1:], level[1:])] + [0],
                           down)
    return up[0] + down[0] + level[0]


# ---------- compositions with parity constraints ----------

def enum_compositions(n: int, kind: str) -> list[tuple[int, ...]]:
    """Compositions of n with no two consecutive parts of equal parity.

    kind "alt": that condition alone (n = 0 gives the empty composition);
    kind "alt_odd_even": additionally the first part is odd and the last
    part is even (empty at n = 0).
    """
    if n < 0:
        raise ValueError("composition target must be nonnegative")
    if kind not in ("alt", "alt_odd_even"):
        raise ValueError(f"unknown composition kind {kind!r}")
    if n == 0:
        return [()] if kind == "alt" else []
    first_parity = 1 if kind == "alt_odd_even" else None
    out: list[tuple[int, ...]] = []
    acc: list[int] = []

    def extend(remaining, parity):
        if remaining == 0:
            if kind != "alt_odd_even" or acc[-1] % 2 == 0:
                out.append(tuple(acc))
            return
        for part in range(1, remaining + 1):
            if parity is not None and part % 2 != parity:
                continue
            acc.append(part)
            extend(remaining - part, 1 - part % 2)
            acc.pop()

    extend(n, first_parity)
    out.sort()
    return out
