"""Family members by exhaustive search, written apart from the package's
walkers so that listings can be checked against them.

A path is any step sequence with no drop right after a drop.  The search
extends every path one step at a time and abandons a prefix only where no
member can pass: above the ceiling, below the floor, or too deep to climb
back to the lowest end in the steps left (each step gains at most one
level).  What survives to length n is kept if paths.classify and the spec's
endpoint and step rules accept it.  Steps are tried in the order U, D1,
D2, ..., so members come out in lexicographic step order.
"""

from itertools import product

from airpockets.enumeration import POSITIVE, FamilySpec, is_special_height
from airpockets.paths import LatticePath, classify


def _accepts(spec: FamilySpec, path: LatticePath) -> bool:
    c = classify(path)
    if spec.kind == "gdap" and not c.is_gdap:
        return False
    if spec.kind == "dap" and not c.is_dap:
        return False
    if spec.kind == "prime" and not c.is_prime:
        return False
    if spec.end_ordinate == POSITIVE:
        if c.final_ordinate <= 0:
            return False
    elif spec.end_ordinate is not None and \
            c.final_ordinate != spec.end_ordinate:
        return False
    if spec.min_y is not None and c.min_height < spec.min_y:
        return False
    if spec.max_y is not None and c.max_height > spec.max_y:
        return False
    return (spec.start_step in (None, c.starts_with)
            and spec.end_step in (None, c.ends_with))


def members(n: int, spec: FamilySpec) -> list[LatticePath]:
    """Every length-n member of a lattice-path family kind (gdap, dap,
    prime, prefix_gdap) under the spec's window and filters."""
    floor = 0 if spec.kind in ("dap", "prime") else spec.min_y
    if spec.kind in ("gdap", "dap", "prime"):
        lowest = 0
    elif spec.end_ordinate == POSITIVE:
        lowest = 1
    else:
        lowest = spec.end_ordinate
    ceiling = n if spec.max_y is None else spec.max_y
    bottom = floor if floor is not None else lowest - n
    found = []
    pending = [()]  # prefixes, the one to extend next last
    while pending:
        steps = pending.pop()
        i, h = len(steps), sum(steps)
        if i == n:
            path = LatticePath(steps)
            if _accepts(spec, path):
                found.append(path)
            continue
        options = [1] if steps and steps[-1] < 0 else \
            [1] + [-k for k in range(1, h - bottom + 1)]
        for step in reversed(options):
            after = h + step
            if after > ceiling or (floor is not None and after < floor):
                continue
            if lowest is not None and after < lowest - (n - i - 1):
                continue
            pending.append(steps + (step,))
    return found


def special_heights(n: int) -> list[LatticePath]:
    """The special-height members of length n: the daps (and ε) that
    is_special_height, which peels first-return arches, accepts."""
    return [p for p in members(n, FamilySpec("gdap", min_y=0))
            if is_special_height(p)]


def motzkin_words(n: int) -> list[str]:
    """Motzkin words of length n (U, D, H; never below the axis, ending on
    it) with no factor UH, HU or HH and no leading H, in the order U < D <
    H."""
    words = []
    for letters in product("UDH", repeat=n):
        word = "".join(letters)
        heights = [0]
        for letter in word:
            heights.append(heights[-1] + {"U": 1, "D": -1, "H": 0}[letter])
        if min(heights) < 0 or heights[-1] != 0 or word.startswith("H"):
            continue
        if any(bad in word for bad in ("UH", "HU", "HH")):
            continue
        words.append(word)
    return words
