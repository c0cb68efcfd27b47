"""Brute-force generators and counters: the ground truth everything else is
checked against.

The path engine works position by position under per-position floor and
ceiling bounds, an optional final ordinate, and start/end step-kind
filters.  Down-steps are capped either by the floor or, when the walk may
go arbitrarily deep, by the requirement that the remaining steps (each
gaining at most one level) can still reach the target ordinate; a spec with
neither cap describes an infinite family and is rejected.

Enumeration hands the members' text out in blocks, and one walker serves
every listing: the window families, the special heights and the Motzkin
words are each a step rule over states of their own.  An explicit stack
walks every admissible prefix down to the last few positions, where the
completions of a state are listed once and shared by every prefix that
reaches it, as in generation by shared prefixes (Ruskey, Combinatorial
Generation, ch. 4).  Paths come in lexicographic step order, with U < D1 <
D2 < ...  A listing holds only the stack and a table of completions
bounded by the tail's depth, and the one-at-a-time and list functions are
built from the blocks.  Counting never materializes paths: one forward
sweep carries, per height, the number of prefixes ending in an up-step and
in a drop (the step-set view of Banderier and Flajolet), and the
special-height family is counted over (length, height) on its arch
grammar.  No walker or counter recurses once per step (the completion
table recurses only through the tail), and nothing keeps state between
calls, so everything here is safe to run concurrently.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from itertools import accumulate

from .errors import BadParams, InfeasibleSpec
from .paths import UP, LatticePath, classify, parse_path

PATH_KINDS = ("gdap", "dap", "prime", "prefix_gdap")
KINDS = PATH_KINDS + (
    "special_h", "motzkin_avoid", "composition_alt", "composition_alt_odd_even")


# the end_ordinate of a prefix family that pools every end above the axis
POSITIVE = "positive"


class FamilySpec(namedtuple(
        "FamilySpec", "kind min_y max_y end_ordinate end_step start_step",
        defaults=(None,) * 5)):
    """A path family: which kind, plus optional window and endpoint filters.

    min_y / max_y bound the whole profile; end_ordinate pins the final
    height (kinds other than prefix_gdap force 0), or is POSITIVE for a
    prefix ending anywhere above the axis; start_step / end_step ("up" or
    "down") filter the first and last step kind.
    """

    __slots__ = ()


def lex_key(path: LatticePath) -> tuple[int, ...]:
    """Sort key realizing the step order U < D1 < D2 < ..."""
    return tuple(0 if s == UP else -s for s in path.steps)


def _lowest_end(spec: FamilySpec) -> int | None:
    """The lowest final ordinate a member may have; None for a free end."""
    if spec.kind in ("gdap", "dap", "prime"):
        return 0
    return 1 if spec.end_ordinate == POSITIVE else spec.end_ordinate


def _check_spec(n: int, spec: FamilySpec, reach: bool = True):
    # reach=False skips the one check a longer length could pass: that
    # the end ordinate is reachable in n steps
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
    end = _lowest_end(spec)
    if spec.end_ordinate is not None:
        if reach and end > n:
            raise InfeasibleSpec(f"cannot reach ordinate {end} in {n} steps")
        if spec.min_y is not None and end < spec.min_y:
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


def _window(n: int, spec: FamilySpec) -> tuple[list[int], list[int]]:
    """Lowest and highest useful ordinate at each position 0..n.

    A point below the floor, or too deep to climb back to the lowest end
    in the steps left (each step gains at most one level), completes
    nothing; no point lies above the ceiling or above its own position, and
    the last point of a pinned end lies on it.
    """
    if spec.kind == "prime":
        # interior strictly above the axis, entered from height >= 2
        floors = [0] + [1] * (n - 2) + [2, 0]
    elif spec.kind == "dap":
        floors = [0] * (n + 1)
    else:
        floors = [spec.min_y] * (n + 1)
    end = _lowest_end(spec)
    low = []
    for j, floor in enumerate(floors):
        if end is not None:
            reach = end - (n - j)
            floor = reach if floor is None else max(floor, reach)
        low.append(floor)
    high = [j if spec.max_y is None else min(spec.max_y, j)
            for j in range(n + 1)]
    if end is not None and spec.end_ordinate != POSITIVE:
        high[n] = min(high[n], end)
    return low, high


def _step_kinds(i: int, n: int, spec: FamilySpec) -> tuple[bool, bool]:
    """Whether step i may go up, and whether it may drop, under the start
    and end step filters."""
    first, last = i == 0, i == n - 1
    ups = not (first and spec.start_step == "down") and \
        not (last and spec.end_step == "down")
    drops = not (first and spec.start_step == "up") and \
        not (last and spec.end_step == "up")
    return ups, drops


def _short(n: int, spec: FamilySpec) -> list[str] | None:
    """The members' step text at lengths the step rules do not reach, else
    None."""
    if spec.kind == "prime" and n < 3:
        return []  # the shortest axis-avoiding arch with a deep drop is UUD2
    if n == 0:
        empty_ok = (spec.end_ordinate in (None, 0)
                    and spec.start_step is None and spec.end_step is None
                    and spec.kind in ("gdap", "prefix_gdap"))
        return [""] if empty_ok else []
    return None


def _tokens(top: int) -> list[str]:
    """Step text by code: 0 is U, k >= 1 is the drop of k levels."""
    return ["U", "D"] + [f"D{k}" for k in range(2, top + 1)]


# The last _TAIL steps of a member are listed once per state and handed out
# with every prefix that reaches that state; a state with more than _BLOCK
# completions (one far above its end, as early in a long dap) is walked a
# step further instead.  A tail of 6 lists `prime 16` in about 40% less
# time, but `gdap 12` and `prefix 12 --end-ordinate -1` in the same time
# and `H 16` in about 30% more, and it about doubles each walk's traced
# peak (68-184 KB to 127-335 KB).
_TAIL = 5
_BLOCK = 256


def _blocks(n: int, steps, start, key=None) -> Iterator[tuple[str, list[str]]]:
    """The length-n words of a step rule as (prefix, completions) blocks, in
    the rule's order: each word is a prefix followed by one of its
    completions, and no block is empty.

    steps(i, state) yields the (token, next state) pairs open at position
    i, in order; start is the state at position 0.  Above the last _TAIL
    positions an explicit stack holds one step generator per position,
    with the text of the prefix it extends.  A prefix that reaches the tail
    (the empty one too, when n <= _TAIL) takes its completions from a table
    local to the call, each entry built on first use from the entries one
    position later, so it recurses at most _TAIL + 1 deep.  The table has a
    dict per position, keyed on the state, or on key(i, state) where that
    coarser key determines the completions, and each entry holds one list
    of at most _BLOCK texts: it does not grow with the number of words.
    """
    tables: list[dict] = [{} for _ in range(n)]
    end = [""]

    def completions(i, state):
        # the texts that complete a prefix at position i in this state, or
        # None for more than _BLOCK of them; blocks are shared, never changed
        if i == n:
            return end
        table = tables[i]
        entry = state if key is None else key(i, state)
        if entry not in table:
            block = []
            for token, after in steps(i, state):
                rest = completions(i + 1, after)
                if rest is None or len(block) + len(rest) > _BLOCK:
                    table[entry] = None
                    return None
                block += [token + text for text in rest]
            table[entry] = block
        return table[entry]

    tail = n - _TAIL
    pending = [("", iter([("", start)]))]  # the empty prefix, at position 0
    try:
        while pending:
            parent, options = pending[-1]
            step = next(options, None)
            if step is None:
                pending.pop()
                continue
            token, state = step
            text = parent + token
            i = len(pending) - 1  # the position after this step
            block = completions(i, state) if i >= tail else None
            if block is None:
                pending.append((text, steps(i, state)))
            elif block:
                yield text, block
    finally:
        # completions calls itself, a reference cycle that would keep the
        # table alive until the next cyclic collection; unbinding it frees
        # the table as soon as the walk ends or is dropped
        completions = None


def _texts(blocks) -> Iterator[str]:
    """Each block's prefix joined to each of its completions in turn."""
    return (prefix + text for prefix, block in blocks for text in block)


def _path_blocks(n: int, spec: FamilySpec) -> Iterator[tuple[str, list[str]]]:
    """The length-n members of the family as _blocks, in lexicographic step
    order.  A window family's state is 2 * height + whether the last step
    dropped: an int key hashes faster than a tuple."""
    _check_spec(n, spec)
    if spec.kind == "special_h":
        yield from _special_h_blocks(n)
        return
    short = _short(n, spec)
    if short is not None:
        if short:
            yield "", short
        return
    low, high = _window(n, spec)
    kinds = [_step_kinds(i, n, spec) for i in range(n)]
    tokens = _tokens(max(high) - min(low))

    def steps(i, state):
        # U, D1, D2, ... open at position i
        h, dropped = state >> 1, state & 1
        ups, drops = kinds[i]
        if ups and low[i + 1] <= h + 1 <= high[i + 1]:
            yield "U", 2 * h + 2
        if drops and not dropped:
            for k in range(max(h - high[i + 1], 1), h - low[i + 1] + 1):
                yield tokens[k], 2 * (h - k) + 1

    yield from _blocks(n, steps, 0)


def iter_paths(n: int, spec: FamilySpec) -> Iterator[str]:
    """The step text of every length-n member of the family, in
    lexicographic step order, one at a time."""
    return _texts(_path_blocks(n, spec))


def enum_paths(n: int, spec: FamilySpec) -> list[LatticePath]:
    """All length-n members of the family, in lexicographic step order."""
    return [parse_path(text) for text in iter_paths(n, spec)]


def count_paths(n: int, spec: FamilySpec) -> int:
    """|enum_paths(n, spec)| without materializing, raising InfeasibleSpec
    where no length-n member can exist: count_paths_upto(n, spec)[n]."""
    _check_spec(n, spec)
    return count_paths_upto(n, spec)[n]


def count_paths_upto(max_n: int, spec: FamilySpec) -> list[int]:
    """count_paths(n, spec) for every n in 0..max_n from one forward sweep;
    a length too short to reach the end ordinate reads 0.

    The state after each position is two vectors indexed by height: the
    prefixes whose last step went up (or that have no step yet), and those
    whose last step dropped.  An up-step shifts both by one level; a drop
    may only follow the first kind and reaches every lower level, so the
    new drop vector is a suffix sum of the old up vector.  One fixed floor
    serves every length: the higher of min_y and e - max_n for a lowest
    end e, since a length-n path ending at e sits at or above e - (n - i)
    at position i.  The length-n count is read off the vectors after n steps:
    the end-step filter picks the vector, and a pinned end one height, a
    POSITIVE end the heights above 0.  A prime arch is read one step early,
    from the up-ending prefixes at height >= 2 that its last drop closes.
    """
    _check_spec(max_n, spec, reach=False)
    if spec.kind == "special_h":
        return [sum(row) for row in _special_h_table(max_n)]
    counts = [0] * (max_n + 1)
    end = _lowest_end(spec)
    if end is not None and end > max_n:
        return counts
    prime = spec.kind == "prime"
    if prime or spec.kind == "dap":
        base = 0
    else:
        base = spec.min_y
        if end is not None:
            base = end - max_n if base is None else max(base, end - max_n)
    top = max_n if spec.max_y is None else min(spec.max_y, max_n)
    size = top - base + 1
    up = [0] * size
    down = [0] * size
    up[-base] = 1
    for n in range(1, max_n + 1):
        if prime and spec.end_step != "up":
            counts[n] = sum(up[2:])
        first = n == 1
        new_up = [0] * size
        if not (first and spec.start_step == "down"):
            new_up[1:] = [u + d for u, d in zip(up, down)][:-1]
        new_down = [0] * size
        if not (first and spec.start_step == "up"):
            tails = list(accumulate(reversed(up)))  # sums of up[size-1-r:]
            new_down[:-1] = tails[-2::-1]
        if prime:  # the arch stays above the axis until its last drop
            new_up[0] = new_down[0] = 0
        up, down = new_up, new_down
        if prime:
            continue
        ends = {"up": (up,), "down": (down,)}.get(spec.end_step, (up, down))
        if end is None:
            counts[n] = sum(map(sum, ends))
        elif spec.end_ordinate == POSITIVE:
            counts[n] = sum(sum(v[1 - base:]) for v in ends)
        elif end - base < size:
            counts[n] = sum(v[end - base] for v in ends)
    for n in range(min(max_n, 2) + 1):
        short = _short(n, spec)
        if short is not None:
            counts[n] = len(short)
    return counts


# ---------- the special-height family ----------

def _special_h_blocks(n: int) -> Iterator[tuple[str, list[str]]]:
    """The special-height members of length n as _blocks, lexicographically.

    A member is a run of arches of non-increasing height; an arch is UD, or
    U followed by a smaller member lifted one level whose last drop goes
    one level deeper.  In step terms, after an up-step to level L every
    level b < L is the base of an open frame, and a drop may land on any
    b < L: that closes the frames above b and the current arch of frame
    b.  Each frame keeps the height of its last closed arch (its cap) and
    the highest level its current arch has reached (its peak); an up-step
    is allowed while no open frame's arch would outgrow its cap.

    The state is (level, cap, frames): cap is the height of the arch the
    last step closed (0 after an up-step, n at the start), and frames a
    linked list, top first, of (top, peak, frames below) down to a ground
    frame under the axis, where top is the highest level any open arch at
    or below the frame may reach.  A drop raises only the peak of the
    frame it lands in, so a frame's true peak is the highest stored from
    the top down.

    With r steps left, the table key is the least state that fixes the
    completions: the level; whether the last step dropped (the start
    counts, as only an up-step may follow); the climb limit, min(top
    frame's top, level + cap) - level with cap 0 read as n, clipped at
    r - 1; and, for each base b from level - 1 down to level - r + 3 (not
    below 0), b's value, its true peak - b - 1, clipped at r - 3.  Why that
    is exact:
    - A frame's true peak is at most its top, which is at most the top of
      the frame below, since every up-step inside the frame stayed under
      both.  So a drop onto b sets the limit to b's value + 1: the frames'
      tops leave the key, and the cap acts only through the limit and the
      rule that no drop follows a drop.
    - An up-step turns the limit into limit - 1, opens a frame of value 0
      and raises every other frame's value to at least level - b; a drop
      onto b leaves the true peaks below b as they were.  Clipping commutes
      with both, so equal keys lead to equal keys one position later.
    - Bounds: an arch needs a drop to close, so in s steps no climb rises
      s levels, and a limit of s - 1 or more acts as s - 1.  A drop onto b
      leaves at most r - 1 steps, so values of r - 3 or more act alike.
      Every true peak is at least the level, so from base level - r + 2
      down every value is at least r - 3 and leaves the key.
    """
    tokens = _tokens(n)

    def steps(i, state):
        level, cap, frames = state
        left = n - 1 - i  # steps after this one
        top = min(frames[0], level + (cap or n))
        if left and level < top:
            yield "U", (level + 1, 0, (top, level + 1, frames))
        # only an up-step follows a drop; a drop must leave no step (landing
        # on the axis) or room for an arch, and after a lone UD on the axis
        # only UD arches follow, so an odd number of steps cannot be filled
        if cap or left == 1:
            return
        first = level if not left else 2 if level == 1 and left % 2 else 1
        for k in range(first, level + 1):
            # a drop of k levels closes the top k frames, and the frame it
            # lands in keeps the highest of their peaks
            below, peak = frames, 0
            for _ in range(k):
                _, top_peak, below = below
                peak = max(peak, top_peak)
            below = (below[0], max(below[1], peak), below[2])
            b = level - k
            yield tokens[k], (b, peak - b, below)

    def trimmed(i, state):
        level, cap, frames = state
        r = n - i
        limit = min(frames[0], level + (cap or n)) - level
        kept, peak = [level, cap > 0, min(limit, r - 1)], 0
        for base in range(level - 1, max(level - r + 2, -1), -1):
            _, top_peak, frames = frames
            peak = max(peak, top_peak)
            kept.append(min(peak - base - 1, r - 3))
        return tuple(kept)

    yield from _blocks(n, steps, (0, n, (n, 0, None)), trimmed)


def enum_h(n: int) -> list[LatticePath]:
    """Daps whose every first-return factor is at least as high as the
    rest, in lexicographic step order."""
    return enum_paths(n, FamilySpec("special_h"))


def _special_h_table(n: int) -> list[list[int]]:
    """rows[m][h]: special-height members of length m and height exactly h.

    The arch grammar, counted apart from the walker: a nonempty member is
    an arch and a body, where an arch of length j is UD (height 1) or the
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
    """Membership test by peeling first-return arches; ε belongs.

    A dap belongs when its first-return arches have non-increasing heights
    and every arch other than UD, which is prime, flattens to a member.
    The flattened arches wait on a stack, so nothing recurses.
    """
    if path.is_empty:
        return True
    if not classify(path).is_dap:
        return False
    pending = [path.steps]
    while pending:
        steps = pending.pop()
        heights = list(accumulate(steps))  # after each step
        start, cap = 0, len(steps)
        while start < len(steps):
            end = heights.index(0, start) + 1
            height = max(heights[start:end])
            if height > cap:
                return False
            if end - start > 2:  # a prime arch, pushed flattened (see flat)
                pending.append(steps[start + 1:end - 1]
                               + (steps[end - 1] + 1,))
            start, cap = end, height
    return True


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


def _motzkin_blocks(n: int) -> Iterator[tuple[str, list[str]]]:
    """The words of iter_motzkin_avoiding(n) as _blocks; the state is
    (height, last step)."""
    if n < 0:
        raise BadParams("length must be nonnegative")

    def steps(i, state):
        # each step must leave room to come back down in time
        return ((step, (h, step)) for step, h in _motzkin_moves(*state)
                if h < n - i)

    yield from _blocks(n, steps, (0, ""))


def iter_motzkin_avoiding(n: int) -> Iterator[str]:
    """Motzkin paths whose flat steps each follow a down-step and precede a
    down-step or the end, one at a time (U before D before H).

    Equivalently: no factor UH, HU, or HH, and no leading flat step (the
    leading-H clause only matters at length 1, where HU/HH cannot bite).
    """
    return _texts(_motzkin_blocks(n))


def enum_motzkin_avoiding(n: int) -> list[str]:
    """iter_motzkin_avoiding(n) as a list."""
    return list(iter_motzkin_avoiding(n))


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
    """Compositions of n with no two consecutive parts of equal parity, in
    lexicographic order: the walk below tries each part in ascending order.

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
    extend = None    # it calls itself: free the cycle now, not at a collection
    return out
