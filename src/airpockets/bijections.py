"""Two constructive correspondences between window-confined whole paths and
parity-alternating compositions.

psi sends paths confined to the window [0, 2] onto compositions whose
consecutive parts alternate in parity; phi sends paths confined to [-1, 1]
onto the alternating compositions that start odd and end even.  Both
directions run in linear time.  Every forward output is checked against
the image discipline and every decoded path is round-tripped through the
forward map before being returned, so a template bug cannot escape as a
silently wrong answer.

The shared primitive cuts a step sequence immediately after each up-step
that is followed by another up-step or a two-level drop; block lengths are
what both maps actually transport, so they read the lengths straight off
the steps and never build the blocks themselves.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate

from .errors import (
    NotAlternating,
    NotInCPrime,
    NotInFamily,
    _require,
)
from .paths import UD, UP, LatticePath

Composition = tuple[int, ...]

_D1 = -1
_D2 = -2


class BlockDecomposition(namedtuple("BlockDecomposition", "blocks lengths")):
    """A path split after every up-step that precedes U or D2: the blocks,
    as paths, and their lengths."""

    __slots__ = ()


def _block_lengths(steps) -> tuple[int, ...]:
    # the block lengths alone, read off the step tuple
    lengths = []
    start = 0
    for i in range(len(steps) - 1):
        if steps[i] == UP and steps[i + 1] in (UP, _D2):
            lengths.append(i + 1 - start)
            start = i + 1
    if start < len(steps):
        lengths.append(len(steps) - start)
    return tuple(lengths)


def block_decompose(path: LatticePath) -> BlockDecomposition:
    """Cut the path after each up-step followed by an up-step or a D2.

    The empty path decomposes into no blocks; a path with no such cut
    point is one single block.
    """
    steps = path.steps
    lengths = _block_lengths(steps)
    return BlockDecomposition(
        blocks=tuple(LatticePath(steps[end - n:end])
                     for n, end in zip(lengths, accumulate(lengths))),
        lengths=lengths)


def _check_window(path: LatticePath, lo: int, hi: int, label: str) -> None:
    profile = path.profile
    if profile[-1]:
        raise NotInFamily(f"{label}: path does not end on the axis")
    if min(profile) < lo or max(profile) > hi:
        raise NotInFamily(
            f"{label}: profile leaves the window [{lo}, {hi}]")


def _check_composition(parts) -> Composition:
    c = tuple(parts)
    for p in c:
        if not isinstance(p, int) or p < 1:
            raise NotInFamily(f"composition parts must be positive ints: {c}")
    return c


def parse_composition(text: str) -> Composition:
    """Comma-separated integer parts; "" and "ε" are the empty composition.

    The parts are not checked here: psi_inv and phi_inv check their input.
    """
    cleaned = text.strip()
    if not cleaned or cleaned == "ε":
        return ()
    try:
        return tuple(int(part) for part in cleaned.split(","))
    except ValueError as exc:  # not an integer, or too many digits to read
        raise NotInFamily(str(exc)) from None


def _alternates(c: Composition) -> bool:
    return all(a % 2 != b % 2 for a, b in zip(c, c[1:]))


def _decode_tail_block(part: int) -> list[int]:
    # blocks after the first: odd climbs and stays up, even drops two
    # levels first and oscillates back
    if part % 2:
        return [UP, _D1] * ((part - 1) // 2) + [UP]
    return [_D2, UP] + [_D1, UP] * ((part - 2) // 2)


# ---------- the window [0, 2] ----------

def psi(path: LatticePath) -> Composition:
    """Block lengths of the interior of a [0, 2]-confined path.

    The first and last steps are stripped (they are forced to U and a
    down-step), the rest is block-decomposed, and the lengths come out
    alternating in parity and summing to n - 2.
    """
    _check_window(path, 0, 2, "psi")
    if len(path) < 2:
        raise NotInFamily("psi: the path must have at least two steps")
    out = _block_lengths(path.steps[1:-1])
    _require(sum(out) == len(path) - 2,
             "psi: block lengths fail to cover the interior")
    _require(_alternates(out),
             "psi: consecutive block lengths share a parity")
    return out


def psi_inv(c) -> LatticePath:
    """Rebuild the unique [0, 2]-confined path with the given block lengths.

    The empty composition decodes to UD; otherwise the first part seeds an
    oscillation at level one (even) or a climb to level two (odd), each
    later part appends its block, and the final step closes at the level
    the last parity left open.
    """
    c = _check_composition(c)
    if not _alternates(c):
        raise NotAlternating(
            f"consecutive parts share a parity in {c}")
    if not c:
        return UD
    steps = [UP]
    if c[0] % 2:
        steps += [UP, _D1] * ((c[0] - 1) // 2) + [UP]
    else:
        steps += [_D1, UP] * (c[0] // 2)
    for part in c[1:]:
        steps += _decode_tail_block(part)
    steps.append(_D1 if c[-1] % 2 == 0 else _D2)
    path = LatticePath(steps)
    _require(psi(path) == c, f"psi_inv: round trip failed for {c}")
    return path


# ---------- the window [-1, 1] ----------

def phi(path: LatticePath) -> Composition:
    """Encode a [-1, 1]-confined path as an odd-to-even composition.

    The whole path is block-decomposed and the reversed lengths are
    patched at both ends: the next-to-last block's parity decides whether
    the front entry grows by one or a fresh 1 is prepended, the first
    block's parity the same for 2 at the back.  The two single-block
    ladders and the empty path take their pinned values.
    """
    _check_window(path, -1, 1, "phi")
    n = len(path)
    if n == 0:
        out = (1, 2)
    else:
        lengths = _block_lengths(path.steps)
        if len(lengths) == 1:
            if path.steps == (UP, _D1) * (n // 2):
                out = (n + 1, 2)
            elif path.steps == (_D1, UP) * (n // 2):
                out = (1, n + 2)
            else:
                raise NotInFamily(
                    "phi: a single-block path must be one of the ladders")
        else:
            patched = list(reversed(lengths))
            if lengths[-2] % 2 == 0:
                patched[0] += 1
            else:
                patched.insert(0, 1)
            if lengths[0] % 2 == 0:
                patched[-1] += 2
            else:
                patched.append(2)
            out = tuple(patched)
    _require(sum(out) == n + 3, "phi: parts fail to sum to n + 3")
    _require(_alternates(out) and out[0] % 2 == 1 and out[-1] % 2 == 0,
             "phi: output leaves the odd-to-even family")
    return out


def phi_inv(c) -> LatticePath:
    """Rebuild the [-1, 1]-confined path behind an odd-to-even composition.

    Read back to front: the last part opens the leading oscillation below
    the axis, the middle parts decode as blocks, the first part closes
    with an oscillation above.  Rejects compositions whose first part is
    even, whose last part is odd, or whose parities clash in between.
    """
    c = _check_composition(c)
    if len(c) < 2 or c[0] % 2 == 0 or c[-1] % 2 == 1 or not _alternates(c):
        raise NotInCPrime(
            f"{c} is not an alternating odd-to-even composition")
    steps: list[int] = []
    if c[-1] > 2:
        steps += [_D1, UP] * ((c[-1] - 2) // 2)
    for part in reversed(c[1:-1]):
        steps += _decode_tail_block(part)
    if c[0] > 1:
        steps += [UP, _D1] * ((c[0] - 1) // 2)
    path = LatticePath(steps)
    _require(phi(path) == c, f"phi_inv: round trip failed for {c}")
    return path
