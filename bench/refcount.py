"""Reference counts for every family the benchmark asks the program about.

Written from the families' definitions alone: nothing here imports or
mirrors the package's catalog or enumeration code, so a count that agrees
with the program's output is evidence, not an echo.

* ``path_counts`` is an integer transfer DP over (height, whether the last
  step was a drop).  One forward sweep gives the counts of every length
  0..N at once; drops are summed with suffix sums.
* ``special_height_table`` counts the special-height family on its arch
  grammar over (length, height).
* ``brute_counts`` and ``brute_special_height`` walk every step sequence of
  one small length and test membership on the finished path;
  ``self_check`` holds the two DPs to them and to the OEIS fixture files
  shipped with the package.

A path is a sequence of up-steps U = (1, 1) and drops D_k = (1, -k),
k >= 1, in which no drop directly follows another.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class Family:
    """Paths from ordinate 0 under window and endpoint constraints.

    floor / ceil bound every point after the start.  ends is None (free
    end, needs a floor), an ordinate, or "positive" (any ordinate >= 1).
    start and last filter the first and last step kind ("up" / "down").
    The empty path counts when it passes every filter (it has no first or
    last step), unless nonempty is set; plus_empty adds it on top.  prime
    asks for paths back on the axis that touch it nowhere in between and
    whose final drop is at least 2; floor is then ignored.
    """

    floor: int | None = None
    ceil: int | None = None
    ends: int | str | None = 0
    start: str | None = None
    last: str | None = None
    nonempty: bool = False
    plus_empty: bool = False
    prime: bool = False

    def end_range(self) -> tuple[int | None, int | None]:
        if self.ends is None:
            return None, None
        if self.ends == "positive":
            return 1, None
        return self.ends, self.ends


def _empty_count(fam: Family) -> int:
    lo, hi = fam.end_range()
    at_zero = lo is None or (lo <= 0 and (hi is None or hi >= 0))
    base = (at_zero and fam.start is None and fam.last is None
            and not fam.nonempty and not fam.prime)
    return int(base) + int(fam.plus_empty)


def path_counts(fam: Family, top: int) -> list[int]:
    """Member counts for every length 0..top, by one forward sweep."""
    counts = [0] * (top + 1)
    counts[0] = _empty_count(fam)
    end_lo, end_hi = fam.end_range()
    if fam.prime:
        # interior points stay >= 1; the last step drops to 0 from >= 2
        floor, end_lo, end_hi = 1, None, None
    else:
        floor = fam.floor
        if floor is None and end_lo is None:
            raise ValueError("no floor and a free end: infinitely many paths")

    def lowest(i: int) -> int:
        # a point below end_lo - (top - i) cannot climb back by length top,
        # so it cannot climb back by any shorter length either
        if end_lo is None:
            return floor
        reach = end_lo - (top - i)
        return reach if floor is None else max(floor, reach)

    if top == 0:
        return counts
    base = min(lowest(i) for i in range(1, top + 1))
    ceil = top if fam.ceil is None else min(fam.ceil, top)
    size = ceil - base + 1
    if size <= 0:
        return counts
    up = [0] * size      # paths whose last step is U, by height - base
    down = [0] * size    # paths whose last step is a drop
    # the first step leaves the start, which counts as "not after a drop"
    if fam.start != "down" and base <= 1 <= ceil:
        up[1 - base] = 1
    if fam.start != "up":
        for h in range(max(base, lowest(1)), min(0, ceil + 1)):
            down[h - base] = 1
    for i in range(1, top + 1):
        if i > 1:
            new_up = [0] + [u + d for u, d in zip(up[:-1], down[:-1])]
            new_down = [0] * size
            above = 0
            for idx in range(size - 1, -1, -1):
                new_down[idx] = above
                above += up[idx]
            up, down = new_up, new_down
        for idx in range(min(lowest(i) - base, size)):
            up[idx] = down[idx] = 0
        if fam.prime:
            if i < top and fam.last != "up":
                counts[i + 1] = sum(up[max(0, 2 - base):])
            continue
        total = 0
        for idx in range(size):
            h = idx + base
            if end_lo is not None and (h < end_lo or
                                       (end_hi is not None and h > end_hi)):
                continue
            if fam.last != "down":
                total += up[idx]
            if fam.last != "up":
                total += down[idx]
        counts[i] = total
    return counts


# ---------------------------------------------------------------- H

@lru_cache(maxsize=None)
def special_height_table(top: int) -> tuple[tuple[int, ...], ...]:
    """table[m][h]: special-height members of length m and height h.

    The family holds the empty path and every arch + body where the body
    is a member, the arch is UD or the raise U.beta.U.D(k+1) of a nonempty
    member beta.U.D(k) (one longer, one higher), and the arch is at least
    as high as the body.  The arch is the first-return factor, so each
    member decomposes once.
    """
    width = top + 2
    table = [[0] * width for _ in range(top + 1)]
    table[0][0] = 1
    running = [[0] * width for _ in range(top + 1)]   # sums over h' <= h

    def close(m):
        acc = 0
        for h in range(width):
            acc += table[m][h]
            running[m][h] = acc

    close(0)
    for m in range(1, top + 1):
        row = table[m]
        for j in range(2, m + 1):           # arch length
            body = running[m - j]
            if j == 2:
                row[1] += body[1]
                continue
            arch = table[j - 1]             # raised members, height + 1
            for h in range(1, j):
                if arch[h]:
                    row[h + 1] += arch[h] * body[h + 1]
        close(m)
    return tuple(tuple(r) for r in table)


def special_height_counts(top: int, height_max: int | None = None,
                          height_exact: int | None = None) -> list[int]:
    table = special_height_table(top)
    out = []
    for row in table:
        if height_exact is not None:
            out.append(row[height_exact] if 0 <= height_exact < len(row) else 0)
        elif height_max is not None:
            out.append(sum(row[:height_max + 1]) if height_max >= 0 else 0)
        else:
            out.append(sum(row))
    return out


# ------------------------------------------- what the program is asked

def enumerate_family(family: str, *, min_y=None, max_y=None,
                     end_ordinate=None, end_step=None,
                     start_step=None) -> Family | None:
    """The Family behind an `enumerate --family` request; None for H."""
    if family == "H":
        return None
    if family == "gdap":
        return Family(floor=min_y, ceil=max_y, ends=0, start=start_step,
                      last=end_step)
    if family == "dap":
        return Family(floor=max(0, 0 if min_y is None else min_y), ceil=max_y,
                      ends=0, start=start_step, last=end_step, nonempty=True)
    if family == "prime":
        return Family(ceil=max_y, start=start_step, last=end_step, prime=True)
    if family == "prefix":
        return Family(floor=min_y, ceil=max_y, ends=end_ordinate,
                      start=start_step, last=end_step)
    raise ValueError(f"no reference for family {family!r}")


def enumerate_count(family: str, length: int, **fields) -> int:
    fam = enumerate_family(family, **fields)
    if fam is None:
        return special_height_counts(length)[length]
    return path_counts(fam, length)[length]


def _whole(start=None, last=None, plus_empty=False) -> Family:
    return Family(ends=0, start=start, last=last, plus_empty=plus_empty)


# catalog name -> (parameter names, Family builder); the special-height
# names are handled by catalog_counts directly
CATALOG_FAMILIES = {
    "dap": ((), lambda: Family(floor=0, nonempty=True)),
    "G": ((), lambda: _whole()),
    "Gp": ((), lambda: _whole(start="up", plus_empty=True)),
    "Gp1": ((), lambda: _whole(start="up", last="down")),
    "Gp2": ((), lambda: _whole(start="up", last="up")),
    "Gm": ((), lambda: _whole(start="down")),
    "Gm1": ((), lambda: _whole(start="down", last="down")),
    "Gm2": ((), lambda: _whole(start="down", last="up")),
    "f0": ((), lambda: _whole(last="up")),
    "g0": ((), lambda: _whole(last="down")),
    "prefix_pos": (("k",), lambda k: Family(ends=k)),
    "prefix_neg": (("k",), lambda k: Family(ends=k)),
    "prefix_pos_total": ((), lambda: Family(ends="positive")),
    "minorized": (("m",), lambda m: Family(floor=m, ends=None)),
    "fkt": (("k", "t"), lambda k, t: Family(
        floor=0, ceil=t, ends=k, last="up", plus_empty=k == 0)),
    "f0t": (("t",), lambda t: Family(floor=0, ceil=t, last="up",
                                     plus_empty=True)),
    "g0t": (("t",), lambda t: Family(floor=0, ceil=t, last="down")),
    "sym": (("t",), lambda t: Family(floor=-t, ceil=t)),
}

SPECIAL_HEIGHT = {"B": (), "Bk": ("k",), "Ak": ("k",)}


def catalog_counts(name: str, params: dict, order: int) -> list[int]:
    """Coefficients 0..order of a catalog series, from its definition."""
    if name in SPECIAL_HEIGHT:
        if name == "B":
            return special_height_counts(order)
        if name == "Bk":
            return special_height_counts(order, height_max=params["k"])
        return special_height_counts(order, height_exact=params["k"])
    names, build = CATALOG_FAMILIES[name]
    return path_counts(build(*(params[p] for p in names)), order)


# ----------------------------------------------------- exhaustive walk

def all_paths(length: int, floor: int, ceil: int | None = None,
              reach: int | None = None):
    """Every path of the given length whose points stay in [floor, ceil],
    skipping only prefixes that cannot get back up to `reach` in time."""
    steps: list[int] = []

    def walk(i, h, after_drop):
        if i == length:
            yield tuple(steps)
            return
        left = length - i - 1
        for step in [1] + ([] if after_drop else
                           [-k for k in range(1, h - floor + 1)]):
            h2 = h + step
            if ceil is not None and h2 > ceil:
                continue
            if reach is not None and h2 + left < reach:
                continue
            steps.append(step)
            yield from walk(i + 1, h2, step < 0)
            steps.pop()

    yield from walk(0, 0, False)


def _profile(steps):
    out = [0]
    for s in steps:
        out.append(out[-1] + s)
    return out


def is_member(fam: Family, steps: tuple[int, ...]) -> bool:
    """Membership tested on a finished path, straight from the definition."""
    n = len(steps)
    if any(a < 0 and b < 0 for a, b in zip(steps, steps[1:])):
        return False
    prof = _profile(steps)
    if not n:
        return _empty_count(fam) - int(fam.plus_empty) == 1
    if fam.ceil is not None and max(prof) > fam.ceil:
        return False
    first = "up" if steps[0] > 0 else "down"
    last = "up" if steps[-1] > 0 else "down"
    if fam.start not in (None, first) or fam.last not in (None, last):
        return False
    if fam.prime:
        return (prof[-1] == 0 and steps[-1] <= -2
                and all(p >= 1 for p in prof[1:-1]))
    if fam.floor is not None and min(prof) < fam.floor:
        return False
    lo, hi = fam.end_range()
    return lo is None or (prof[-1] >= lo and (hi is None or prof[-1] <= hi))


def brute_counts(fam: Family, length: int) -> int:
    lo, _ = fam.end_range()
    floor = fam.floor if fam.floor is not None and not fam.prime else None
    if floor is None:
        floor = (0 if fam.prime else lo) - length
    total = sum(1 for p in all_paths(length, floor, fam.ceil,
                                     reach=None if fam.prime else lo)
                if is_member(fam, p))
    return total + (int(fam.plus_empty) if length == 0 else 0)


def _first_return(steps):
    prof = _profile(steps)
    cut = next(i for i in range(1, len(prof)) if prof[i] == 0)
    return steps[:cut], steps[cut:]


def is_special_height(steps: tuple[int, ...]) -> bool:
    """Peel the first-return arch: UD or a raised member, no lower than
    the rest, which must itself be a member."""
    if not steps:
        return True
    prof = _profile(steps)
    if prof[-1] != 0 or min(prof) < 0:
        return False
    arch, body = _first_return(steps)
    if arch != (1, -1):
        if len(arch) < 3 or arch[0] != 1 or arch[-1] > -2 or arch[-2] != 1:
            return False
        lowered = arch[1:-1] + (arch[-1] + 1,)     # U.beta.U.D(k+1) -> beta.U.D(k)
        if not is_special_height(lowered):
            return False
    return max(_profile(arch)) >= max(_profile(body)) and \
        is_special_height(body)


def brute_special_height(length: int) -> dict[int, int]:
    """Members of one length by height, over every path ending on the axis
    with no point below it."""
    by_height: dict[int, int] = {}
    for p in all_paths(length, 0, reach=0):
        if _profile(p)[-1] == 0 and is_special_height(p):
            h = max(_profile(p))
            by_height[h] = by_height.get(h, 0) + 1
    return by_height


# ------------------------------------------------------ self-checks

# (catalog name, parameters, OEIS id): the pairings the source paper cites,
# as listed in airpockets.oeis.CITED_PAIRS
CITED_PAIRS = (
    ("dap", {}, "A004148"), ("Gp1", {}, "A051286"), ("Gp2", {}, "A110320"),
    ("Gp", {}, "A110236"), ("Gm", {}, "A203611"), ("G", {}, "A051291"),
    ("Gm1", {}, "A110320"), ("Gm2", {}, "A051286"), ("f0", {}, "A110236"),
    ("g0", {}, "A203611"), ("prefix_neg", {"k": -1}, "A110236"),
    ("prefix_neg", {"k": -2}, "A110320"), ("minorized", {"m": -1}, "A004148"),
    ("minorized", {"m": -2}, "A093128"), ("g0t", {"t": 1}, "A000035"),
    ("g0t", {"t": 2}, "A062200"), ("sym", {"t": 1}, "A122514"),
    ("B", {}, "A329699"),
)

# families the brute force checks the DPs on, beyond the catalog ones
_EXTRA_FAMILIES = (
    enumerate_family("gdap", min_y=-2, max_y=2),
    enumerate_family("gdap", min_y=-1, max_y=1, start_step="down"),
    enumerate_family("dap", max_y=3),
    enumerate_family("dap", end_step="up"),
    enumerate_family("prime"),
    enumerate_family("prime", max_y=3),
    enumerate_family("prefix", min_y=-2),
    enumerate_family("prefix", min_y=-1, end_ordinate=1, end_step="down"),
    enumerate_family("prefix", end_ordinate=-1),
    enumerate_family("prefix", end_ordinate=2, max_y=3),
)

_CATALOG_SAMPLES = (
    ("dap", {}), ("G", {}), ("Gp", {}), ("Gp1", {}), ("Gp2", {}), ("Gm", {}),
    ("Gm1", {}), ("Gm2", {}), ("f0", {}), ("g0", {}), ("prefix_pos", {"k": 2}),
    ("prefix_neg", {"k": -2}), ("prefix_pos_total", {}),
    ("minorized", {"m": -2}), ("fkt", {"k": 0, "t": 2}),
    ("fkt", {"k": 2, "t": 3}), ("f0t", {"t": 3}), ("g0t", {"t": 3}),
    ("sym", {"t": 2}),
)


def read_bfile(path: str) -> list[int]:
    terms = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line and not line.startswith("#"):
                terms.append(int(line.split()[1]))
    return terms


def _aligns(series: list[int], terms: list[int], run_needed: int = 12) -> bool:
    """Some shift in [-5, 5] lines up a run of run_needed consecutive
    agreements (a cited series may differ from its sequence at the first
    term, where the empty path is or is not counted)."""
    for shift in range(-5, 6):
        run = 0
        for n, value in enumerate(series):
            if 0 <= n + shift < len(terms) and value == terms[n + shift]:
                run += 1
                if run >= run_needed:
                    return True
            else:
                run = 0
    return False


def self_check(fixture_dir: str, brute_max: int = 8) -> list[str]:
    """Problems found holding the counter to brute force and fixtures."""
    problems = []
    fams = [(f"{name} {params}", CATALOG_FAMILIES[name][1](
        *(params[p] for p in CATALOG_FAMILIES[name][0])))
        for name, params in _CATALOG_SAMPLES]
    fams += [(repr(f), f) for f in _EXTRA_FAMILIES]
    for label, fam in fams:
        dp = path_counts(fam, brute_max)
        for n in range(brute_max + 1):
            want = brute_counts(fam, n)
            if dp[n] != want:
                problems.append(f"{label} n={n}: dp {dp[n]} != walk {want}")
                break
        # the single sweep must agree with sweeps cut at each length
        for n in range(brute_max + 1):
            if path_counts(fam, n)[n] != dp[n]:
                problems.append(f"{label} n={n}: sweep depends on its top")
                break
    top = brute_max + 4
    table = special_height_table(top)
    for n in range(top + 1):
        walked = brute_special_height(n)
        for h, row_count in enumerate(table[n]):
            if row_count != walked.get(h, 0):
                problems.append(f"H n={n} height {h}: dp {row_count} != "
                                f"walk {walked.get(h, 0)}")
    for name, params, seq_id in CITED_PAIRS:
        terms = read_bfile(os.path.join(fixture_dir, f"{seq_id}.txt"))
        if not _aligns(catalog_counts(name, params, 24), terms):
            problems.append(f"{name} {params}: does not align with {seq_id}")
    return problems
