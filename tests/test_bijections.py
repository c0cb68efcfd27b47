"""Both window bijections: figure examples byte-exact, the four decode
templates, image discipline, and exhaustive round-trips on both sides."""

import pytest

from airpockets.bijections import (
    BlockDecomposition,
    block_decompose,
    phi,
    phi_inv,
    psi,
    psi_inv,
)
from airpockets.enumeration import FamilySpec, enum_compositions, enum_paths
from airpockets.errors import NotAlternating, NotInCPrime, NotInFamily
from airpockets.paths import EMPTY, UD, LatticePath, parse_path

P = parse_path

NARROW = FamilySpec(kind="gdap", min_y=0, max_y=2)
CENTERED = FamilySpec(kind="gdap", min_y=-1, max_y=1)


# ---------- block decomposition ----------

def test_blocks_of_figure_interior():
    got = block_decompose(P("UD2UUDUD2UDUDUU"))
    assert [str(b) for b in got.blocks] == ["U", "D2U", "UDU", "D2UDUDU", "U"]
    assert got.lengths == (1, 2, 3, 6, 1)


def test_blocks_degenerate_single():
    got = block_decompose(P("UDUD"))
    assert got.lengths == (4,)
    assert got.blocks == (P("UDUD"),)


def test_blocks_of_empty():
    got = block_decompose(EMPTY)
    assert got.blocks == ()
    assert got.lengths == ()


def test_blocks_concatenate_back():
    for n in range(9):
        for path in enum_paths(n, NARROW) + enum_paths(n, CENTERED):
            dec = block_decompose(path)
            rebuilt = EMPTY
            for block in dec.blocks:
                rebuilt = rebuilt + block
            assert rebuilt == path
            assert dec.lengths == tuple(len(b) for b in dec.blocks)


# ---------- the [0, 2] map ----------

def test_psi_figure_example():
    assert psi(P("UUD2UUDUD2UDUDUUD2")) == (1, 2, 3, 6, 1)


def test_psi_shortest_path():
    assert psi(UD) == ()


def test_psi_single_block():
    assert psi(P("UDUD")) == (2,)


@pytest.mark.parametrize("bad", ["UDU", "DU", "UUUD3", ""])
def test_psi_rejects_outside_family(bad):
    # off the axis, under the floor, over the ceiling, too short
    with pytest.raises(NotInFamily):
        psi(P(bad))


@pytest.mark.parametrize("fn,bad,message", [
    (psi, "UDU", "psi: path does not end on the axis"),
    (psi, "DU", "psi: profile leaves the window [0, 2]"),
    (psi, "UUUD3", "psi: profile leaves the window [0, 2]"),
    (phi, "D2U", "phi: path does not end on the axis"),
    (phi, "UUD2", "phi: profile leaves the window [-1, 1]"),
    (phi, "UD2UD2UU", "phi: profile leaves the window [-1, 1]"),
])
def test_window_check_names_what_failed(fn, bad, message):
    with pytest.raises(NotInFamily) as caught:
        fn(P(bad))
    assert str(caught.value) == message


def test_psi_tall_arch():
    assert psi(P("UUD2UD")) == (1, 2)


def test_psi_inv_figure_example():
    assert str(psi_inv((1, 2, 3, 6, 1))) == "UUD2UUDUD2UDUDUUD2"


def test_psi_inv_templates():
    assert str(psi_inv((3,))) == "UUDUD2"
    assert str(psi_inv((2,))) == "UDUD"
    assert psi_inv(()) == UD


def test_psi_inv_rejects_parity_clash():
    with pytest.raises(NotAlternating):
        psi_inv((2, 2))
    with pytest.raises(NotAlternating):
        psi_inv((1, 3))


def test_psi_inv_rejects_non_composition():
    with pytest.raises(ValueError):
        psi_inv((0, 1))
    with pytest.raises(ValueError):
        psi_inv((-2,))


def test_psi_round_trip_paths():
    for n in range(2, 15):
        members = enum_paths(n, NARROW)
        images = set()
        for path in members:
            c = psi(path)
            assert sum(c) == n - 2
            assert psi_inv(c) == path
            images.add(c)
        assert len(images) == len(members)
        assert images == set(enum_compositions(n - 2, "alt"))


def test_psi_round_trip_compositions():
    for m in range(13):
        for c in enum_compositions(m, "alt"):
            path = psi_inv(c)
            assert len(path) == m + 2
            assert psi(path) == c


# ---------- the [-1, 1] map ----------

def test_phi_figure_example():
    assert phi(P("UD2UUDUD2UDUDUUD")) == (3, 6, 3, 2, 1, 2)


def test_phi_pinned_values():
    assert phi(EMPTY) == (1, 2)
    assert phi(P("UDUD")) == (5, 2)
    assert phi(P("DUDU")) == (1, 6)


@pytest.mark.parametrize("bad", ["UDU", "D2U", "UUD2", "UD2UD2UU"])
def test_phi_rejects_outside_family(bad):
    # off the axis, off the axis from below, over the ceiling, under the floor
    with pytest.raises(NotInFamily):
        phi(P(bad))


def test_phi_inv_figure_example():
    assert str(phi_inv((3, 6, 3, 2, 1, 2))) == "UD2UUDUD2UDUDUUD"


def test_phi_inv_templates():
    assert phi_inv((1, 2)) == EMPTY
    assert str(phi_inv((3, 4))) == "DUUD"
    assert str(phi_inv((5, 2))) == "UDUD"
    assert str(phi_inv((1, 6))) == "DUDU"


def test_phi_inv_rejects_outside_image():
    with pytest.raises(NotInCPrime):
        phi_inv((2, 3))
    with pytest.raises(NotInCPrime):
        phi_inv((1, 3))
    with pytest.raises(NotInCPrime):
        phi_inv((3,))
    with pytest.raises(NotInCPrime):
        phi_inv((1, 2, 2))
    with pytest.raises(NotInCPrime):
        phi_inv(())


def test_phi_inv_rejects_non_composition():
    with pytest.raises(ValueError):
        phi_inv((1, 0, 2))


def test_phi_round_trip_paths():
    for n in range(13):
        members = enum_paths(n, CENTERED)
        images = set()
        for path in members:
            c = phi(path)
            assert sum(c) == n + 3
            assert phi_inv(c) == path
            images.add(c)
        assert len(images) == len(members)
        assert images == set(enum_compositions(n + 3, "alt_odd_even"))


def test_phi_round_trip_compositions():
    for m in range(3, 16):
        for c in enum_compositions(m, "alt_odd_even"):
            path = phi_inv(c)
            assert len(path) == m - 3
            assert phi(path) == c
