"""The brute-force enumerators against frozen counts, the structural maps
against exhaustive slices, and the composition/Motzkin side families."""

import functools
import gc
import itertools
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airpockets import reference as ref
from airpockets import enumeration, verify
from airpockets.catalog import evaluate
from airpockets.enumeration import (
    PATH_KINDS,
    POSITIVE,
    FamilySpec,
    count_motzkin_avoiding,
    count_paths,
    count_paths_upto,
    enum_compositions,
    enum_h,
    enum_motzkin_avoiding,
    enum_paths,
    is_special_height,
    iter_paths,
    lex_key,
)
from airpockets.errors import BadParams, InfeasibleSpec
from airpockets.paths import (
    EMPTY,
    classify,
    first_return_decompose,
    flat,
    mirror,
    parse_path,
    sharp,
)

import brute_force

P = parse_path

GDAP = FamilySpec("gdap")
DAP = FamilySpec("dap")
PRIME = FamilySpec("prime")


def spans(seq):
    return list(enumerate(seq))


# ---------- spot examples ----------

def test_gdap_small_slices():
    assert len(enum_paths(4, GDAP)) == 7
    assert len(enum_paths(3, FamilySpec("gdap", start_step="up"))) == 2
    assert enum_paths(0, GDAP) == [EMPTY]


def test_gdap_length4_golden_order():
    got = [str(p) for p in enum_paths(4, GDAP)]
    assert got == ["UUUD3", "UUD3U", "UDUD", "UD3UU", "DUUD", "DUDU", "D3UUU"]


def test_counts_match_printed_examples():
    assert count_paths(5, FamilySpec("gdap", min_y=0, max_y=2)) == 3
    assert count_paths(7, FamilySpec("gdap", min_y=-1, max_y=1)) == 10
    assert count_paths(6, FamilySpec("prefix_gdap", min_y=-1)) == 82


# ---------- the counting sweep against the walker ----------

@st.composite
def family_specs(draw):
    kind = draw(st.sampled_from(["gdap", "dap", "prime", "prefix_gdap"]))
    maybe = lambda values: draw(st.one_of(st.none(), values))
    return FamilySpec(kind,
                      min_y=maybe(st.integers(-4, 1)),
                      max_y=maybe(st.integers(-1, 5)),
                      end_ordinate=maybe(st.integers(-4, 6)),
                      start_step=maybe(st.sampled_from(["up", "down"])),
                      end_step=maybe(st.sampled_from(["up", "down"])))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 10), spec=family_specs())
def test_count_is_number_listed(n, spec):
    try:
        listed = enum_paths(n, spec)
    except InfeasibleSpec:
        with pytest.raises(InfeasibleSpec):
            count_paths(n, spec)
        return
    assert count_paths(n, spec) == len(listed)
    assert [lex_key(p) for p in listed] == sorted(lex_key(p) for p in listed)
    if n <= 9:
        assert listed == brute_force.members(n, spec)


# specs whose tails differ: free, floored, capped, pinned and pooled ends,
# step filters on the first and the final step
BLOCK_SPECS = [GDAP, DAP, PRIME,
               FamilySpec("gdap", min_y=-1, max_y=2, end_step="up"),
               FamilySpec("prefix_gdap", min_y=-2, start_step="down"),
               FamilySpec("prefix_gdap", end_ordinate=-3, end_step="down"),
               FamilySpec("prefix_gdap", end_ordinate=POSITIVE, max_y=3)]


@functools.cache
def _listed_by_search(family, n):
    if family == "H":
        return [str(p) for p in brute_force.special_heights(n)]
    return brute_force.motzkin_words(n)


@pytest.mark.parametrize("tail, block", [(0, 1), (1, 1), (2, 3), (3, 2),
                                         (6, 5), (20, 10**6)])
def test_every_split_lists_every_member(monkeypatch, tail, block):
    # a tail deeper than the path, no tail, and caps small enough that the
    # walker steps past full states again and again; the special heights
    # and the Motzkin words walk their own step rules through the same
    # table, the special heights on a trimmed key
    monkeypatch.setattr(enumeration, "_TAIL", tail)
    monkeypatch.setattr(enumeration, "_BLOCK", block)
    listings = [(spec, n, enumeration._path_blocks(n, spec),
                 [str(p) for p in brute_force.members(n, spec)])
                for spec in BLOCK_SPECS for n in range(1, 9)]
    listings += [("H", n, enumeration._path_blocks(n, FamilySpec("special_h")),
                  _listed_by_search("H", n)) for n in range(13)]
    listings += [("motzkin", n, enumeration._motzkin_blocks(n),
                  _listed_by_search("motzkin", n)) for n in range(12)]
    for family, n, blocks, want in listings:
        blocks = list(blocks)
        assert all(texts and len(texts) <= block
                   for _, texts in blocks), (family, n)
        assert [prefix + text for prefix, texts in blocks
                for text in texts] == want, (family, n)


# every oracle row, then the prime rule, the step filters, floor and
# ceiling windows, negative and pooled ends, and the special heights
UPTO_SPECS = [FamilySpec(**fields) for _, _, fields, _, _ in
              verify.ORACLE_TABLE] + [
    PRIME,
    FamilySpec("prime", max_y=3, end_step="down"),
    FamilySpec("prime", end_step="up"),
    FamilySpec("prime", start_step="down"),
    FamilySpec("dap", max_y=2, start_step="up"),
    FamilySpec("gdap", start_step="down", end_step="up"),
    FamilySpec("gdap", min_y=-1, max_y=2, end_step="down"),
    FamilySpec("gdap", min_y=0),
    FamilySpec("prefix_gdap", min_y=-3, max_y=2),
    FamilySpec("prefix_gdap", min_y=-2, start_step="down", end_step="up"),
    FamilySpec("prefix_gdap", end_ordinate=-7, max_y=1, start_step="up"),
    FamilySpec("prefix_gdap", end_ordinate=-12),
    FamilySpec("prefix_gdap", min_y=-2, end_ordinate=4, end_step="up"),
    FamilySpec("prefix_gdap", end_ordinate=12, max_y=20),
    FamilySpec("prefix_gdap", end_ordinate=POSITIVE, min_y=-2, max_y=3),
    FamilySpec("special_h"),
]


@pytest.mark.parametrize("spec", UPTO_SPECS, ids=str)
def test_count_upto_reads_every_length(spec):
    # one sweep to 30 against a sweep per length, each with its own floor;
    # a length the old per-length count refused as unreachable reads 0
    upto = count_paths_upto(30, spec)
    assert len(upto) == 31
    for n, got in enumerate(upto):
        try:
            want = count_paths(n, spec)
        except InfeasibleSpec as exc:
            assert "cannot reach" in str(exc)
            want = 0
        assert got == want, n
    assert count_paths_upto(10, spec) == upto[:11]


@pytest.mark.parametrize("spec", UPTO_SPECS, ids=str)
def test_count_upto_is_number_listed(spec):
    upto = count_paths_upto(9, spec)
    for n in range(10):
        try:
            listed = sum(1 for _ in iter_paths(n, spec))
        except InfeasibleSpec:
            listed = 0
        assert upto[n] == listed, n


def test_count_upto_zero_where_no_length_reaches():
    spec = FamilySpec("prefix_gdap", end_ordinate=8)
    assert count_paths_upto(7, spec) == [0] * 8
    assert count_paths_upto(8, spec)[8] == 1
    with pytest.raises(InfeasibleSpec):
        count_paths(7, spec)


@pytest.mark.parametrize("kind", PATH_KINDS + ("special_h",))
def test_count_is_the_sweep_read_at_its_length(kind):
    # one read mode: count_paths(n) is count_paths_upto(n)[n] wherever
    # the sweep answers, except for an end out of reach in n steps, which
    # the sweep reads as 0, and refuses wherever the sweep refuses; every
    # combination of floor, ceiling, end (free, pinned or pooled above the
    # axis) and start and end step, infeasible ones included
    steps = (None, "up", "down")
    for spec in (FamilySpec(kind, *fields) for fields in itertools.product(
            (None, -2, 0), (None, 0, 2), (None, 0, -1, 2, POSITIVE),
            steps, steps)):
        for n in range(15):
            try:
                want = count_paths_upto(n, spec)[n]
            except InfeasibleSpec:
                with pytest.raises(InfeasibleSpec):
                    count_paths(n, spec)
                continue
            try:
                assert count_paths(n, spec) == want, (spec, n)
            except InfeasibleSpec as exc:
                assert "cannot reach" in str(exc) and want == 0, (spec, n)


@pytest.mark.parametrize("n, spec", [
    (1, FamilySpec("prefix_gdap", end_ordinate=2)),
    (0, FamilySpec("prefix_gdap", end_ordinate=POSITIVE)),
    (8, FamilySpec("prefix_gdap", min_y=-1, end_ordinate=9, end_step="up")),
])
def test_count_refuses_an_end_out_of_reach(n, spec):
    assert count_paths_upto(n, spec)[n] == 0
    with pytest.raises(InfeasibleSpec, match="cannot reach"):
        count_paths(n, spec)


@pytest.mark.parametrize("n, spec, error", [
    (-1, GDAP, BadParams),
    (5, FamilySpec("zigzag"), BadParams),
    (5, FamilySpec("prefix_gdap"), InfeasibleSpec),
    (5, FamilySpec("prefix_gdap", max_y=3), InfeasibleSpec),
    (5, FamilySpec("special_h", max_y=3), InfeasibleSpec),
    (5, FamilySpec("motzkin_avoid"), InfeasibleSpec),
    (5, FamilySpec("gdap", end_ordinate=POSITIVE), InfeasibleSpec),
])
def test_count_upto_rejects_what_count_rejects(n, spec, error):
    with pytest.raises(error):
        count_paths_upto(n, spec)
    with pytest.raises(error):
        count_paths(n, spec)


def test_special_h_count_is_number_built():
    # the walker's members, counted on the arch grammar, each a member by
    # peeling, in strictly increasing lexicographic order; the walk lists
    # each member's last steps from tables on a trimmed key, so a key that
    # forgets a value the completions need fails here
    for n in range(21):
        members = enum_h(n)
        assert count_paths(n, FamilySpec("special_h")) == len(members)
        assert all(map(is_special_height, members))
        keys = [lex_key(p) for p in members]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_motzkin_count_past_the_recursion_limit():
    # heights bounded by the steps left, states keyed by the last letter,
    # each word checked against the forbidden factors as it grows
    n = 1100
    states = {(0, ""): 1}
    for i in range(n):
        grown: dict[tuple[int, str], int] = {}
        for (h, last), ways in states.items():
            for letter, h2 in (("U", h + 1), ("D", h - 1), ("H", h)):
                if 0 <= h2 <= n - i - 1 and last + letter not in \
                        ("UH", "HU", "HH", "H"):
                    grown[h2, letter] = grown.get((h2, letter), 0) + ways
        states = grown
    assert count_motzkin_avoiding(n) == sum(states.values())


# ---------- frozen sequences, counted two ways ----------

FAMILY_TABLE = [
    (DAP, ref.DAP_COUNTS),
    (PRIME, ref.PRIME_COUNTS),
    (GDAP, ref.GDAP_COUNTS),
    (FamilySpec("gdap", start_step="up"), ref.GDAP_UP_COUNTS),
    (FamilySpec("gdap", start_step="up", end_step="down"),
     ref.GDAP_UP_DOWN_COUNTS),
    (FamilySpec("gdap", start_step="up", end_step="up"),
     ref.GDAP_UP_UP_COUNTS),
    (FamilySpec("gdap", start_step="down"), ref.GDAP_DOWN_COUNTS),
    (FamilySpec("gdap", start_step="down", end_step="down"),
     ref.GDAP_DOWN_DOWN_COUNTS),
    (FamilySpec("gdap", start_step="down", end_step="up"),
     ref.GDAP_DOWN_UP_COUNTS),
    (FamilySpec("prefix_gdap", end_ordinate=0, end_step="up"),
     ref.PREFIX_END0_UP_COUNTS),
    (FamilySpec("prefix_gdap", end_ordinate=0, end_step="down"),
     ref.PREFIX_END0_DOWN_COUNTS),
    (FamilySpec("prefix_gdap", end_ordinate=-1), ref.PREFIX_END_MINUS1_COUNTS),
    (FamilySpec("prefix_gdap", end_ordinate=-2), ref.PREFIX_END_MINUS2_COUNTS),
    (FamilySpec("prefix_gdap", min_y=-1), ref.FLOORED_PREFIX_COUNTS[-1]),
    (FamilySpec("prefix_gdap", min_y=-2), ref.FLOORED_PREFIX_COUNTS[-2]),
    # in a floor-0 band the closing step is forcibly a down-step, so the
    # end filter only serves to keep the empty path out
    (FamilySpec("gdap", min_y=0, max_y=2, end_step="down"),
     ref.BAND_LOW_COUNTS[2]),
    (FamilySpec("gdap", min_y=0, max_y=3, end_step="down"),
     ref.BAND_LOW_COUNTS[3]),
    (FamilySpec("gdap", min_y=-1, max_y=1), ref.BAND_SYM_COUNTS[1]),
    (FamilySpec("gdap", min_y=-2, max_y=2), ref.BAND_SYM_COUNTS[2]),
]


def oracle_view(spec, n, want):
    # a step filter can never match the stepless empty path, even when the
    # abstract family counts it (families defined as "... plus the empty
    # path" carry their constant term outside the filtered enumeration)
    if n == 0 and (spec.start_step or spec.end_step):
        return 0
    return want


@pytest.mark.parametrize("spec,expected", FAMILY_TABLE,
                         ids=lambda v: getattr(v, "kind", "seq"))
def test_frozen_counts(spec, expected):
    for n, want in spans(expected):
        assert count_paths(n, spec) == oracle_view(spec, n, want), \
            f"n={n} for {spec}"


@pytest.mark.parametrize("spec,expected", FAMILY_TABLE,
                         ids=lambda v: getattr(v, "kind", "seq"))
def test_enumeration_agrees_with_counts(spec, expected):
    for n in range(9):
        paths = enum_paths(n, spec)
        assert len(paths) == oracle_view(spec, n, expected[n])
        assert len(set(paths)) == len(paths)
        assert [lex_key(p) for p in paths] == sorted(lex_key(p) for p in paths)


def test_positive_prefix_counts_pool_over_ordinates():
    pooled = count_paths_upto(30, FamilySpec("prefix_gdap",
                                             end_ordinate=POSITIVE))
    for n, got in enumerate(pooled):
        assert got == sum(
            count_paths(n, FamilySpec("prefix_gdap", end_ordinate=k))
            for k in range(1, n + 1))
    assert pooled[:len(ref.PREFIX_POSITIVE_COUNTS)] == \
        list(ref.PREFIX_POSITIVE_COUNTS)


def test_enumerated_members_satisfy_their_spec():
    spec = FamilySpec("gdap", min_y=-1, max_y=1, start_step="up")
    for n in range(1, 8):
        for p in enum_paths(n, spec):
            c = classify(p)
            assert c.is_gdap and c.min_height >= -1 and c.max_height <= 1
            assert c.starts_with == "up"
    for n in range(3, 9):
        for p in enum_paths(n, PRIME):
            assert classify(p).is_prime
    for n in range(2, 9):
        for p in enum_paths(n, DAP):
            assert classify(p).is_dap


# ---------- structural maps over exhaustive slices ----------

def test_flat_sharp_are_mutually_inverse_exhaustively():
    for n in range(2, 13):
        for p in enum_paths(n, DAP):
            assert flat(sharp(p)) == p
    for n in range(3, 13):
        for q in enum_paths(n, PRIME):
            assert sharp(flat(q)) == q


def test_mirror_is_a_bijection_between_the_edge_families():
    up_down = FamilySpec("gdap", start_step="up", end_step="down")
    down_up = FamilySpec("gdap", start_step="down", end_step="up")
    for n in range(13):
        source = enum_paths(n, up_down)
        target = set(enum_paths(n, down_up))
        images = {mirror(p) for p in source}
        assert images == target


def test_decomposition_covers_every_dap():
    for n in range(2, 13):
        for p in enum_paths(n, DAP):
            s = first_return_decompose(p)
            assert s.prefix + s.arch == p
            assert len(s.prefix) + len(s.arch) == n
            assert s.case in {"atom", "prime", "prefixed-atom",
                              "prefixed-prime"}


# ---------- the special-height family ----------

def test_special_h_small_sets():
    assert enum_h(0) == [EMPTY]
    assert enum_h(1) == []
    assert set(enum_h(4)) == {P("UUUD3"), P("UDUD")}
    assert set(enum_h(5)) == {P("UUUUD4"), P("UUDUD2"), P("UUD2UD")}


def test_special_h_counts():
    for n, want in spans(ref.SPECIAL_H_COUNTS):
        assert len(enum_h(n)) == want


def test_special_h_grammar_equals_filtering():
    for n in range(2, 11):
        filtered = {p for p in enum_paths(n, DAP) if is_special_height(p)}
        assert set(enum_h(n)) == filtered
    assert is_special_height(EMPTY)


@pytest.mark.parametrize("text, member", [
    ("UD" * 1200, True),
    ("U" * 2399 + "D2399", True),
    ("UD" * 1198 + "UUUD3", False),
    ("UD" + "U" * 2397 + "D2397", False),
], ids=["axis-arches", "one-arch", "taller-last-arch", "tall-arch-after-UD"])
def test_special_height_membership_at_length_2400(text, member):
    path = P(text)
    assert len(path) == 2400
    assert is_special_height(path) is member


@pytest.mark.parametrize("n, spec", [(1000, DAP),
                                     (400, FamilySpec("special_h"))])
def test_walker_yields_before_walking_the_family(n, spec):
    start = time.perf_counter()
    first = next(iter_paths(n, spec))
    assert time.perf_counter() - start < 1.0
    assert first == "U" * (n - 1) + f"D{n - 1}"


def test_first_long_path_keeps_one_stack_entry_per_position():
    tracemalloc.start()
    try:
        start = time.perf_counter()
        first = next(iter_paths(2000, GDAP))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == "U" * 1999 + "D1999"
    assert elapsed < 1.0
    assert peak < 20 * 2**20


def test_positive_end_lists_every_end_above_the_axis():
    spec = FamilySpec("prefix_gdap", end_ordinate=POSITIVE)
    for n in range(1, 7):
        listed = list(iter_paths(n, spec))
        pinned = sorted(text for k in range(1, n + 1) for text in
                        iter_paths(n, spec._replace(end_ordinate=k)))
        assert sorted(listed) == pinned
        assert [lex_key(P(t)) for t in listed] == \
            sorted(lex_key(P(t)) for t in listed)


def test_height_slices_count_the_listed_members():
    # coefficient n of Ak counts the members of height exactly k, and of
    # Bk those of height at most k, against exhaustive search
    heights = [[classify(p).max_height for p in brute_force.special_heights(n)]
               for n in range(15)]
    for k in range(15):
        exact = evaluate("Ak", 14, k=k).series.coeffs
        bounded = evaluate("Bk", 14, k=k).series.coeffs
        for n in range(k, 15):
            assert exact[n] == heights[n].count(k), (n, k)
            assert bounded[n] == sum(h <= k for h in heights[n]), (n, k)


def test_special_h_via_family_spec():
    assert enum_paths(5, FamilySpec("special_h")) == enum_h(5)
    assert count_paths(5, FamilySpec("special_h")) == 3


# ---------- Motzkin paths with descent-anchored flat steps ----------

def test_motzkin_base_cases():
    assert enum_motzkin_avoiding(0) == [""]
    assert enum_motzkin_avoiding(1) == []
    assert enum_motzkin_avoiding(2) == ["UD"]
    assert set(enum_motzkin_avoiding(5)) == {"UUDDH", "UUDHD", "UDUDH"}


def test_motzkin_counts_match_frozen_sequence():
    for n, want in spans(ref.SPECIAL_H_COUNTS):
        assert count_motzkin_avoiding(n) == want
        assert len(enum_motzkin_avoiding(n)) == want


def test_motzkin_words_avoid_the_factors():
    for n in range(2, 11):
        for w in enum_motzkin_avoiding(n):
            assert "UH" not in w and "HU" not in w and "HH" not in w
            assert not w.startswith("H")
            h = 0
            for ch in w:
                h += {"U": 1, "D": -1, "H": 0}[ch]
                assert h >= 0
            assert h == 0


def test_equinumerosity_with_special_h():
    for n in range(13):
        assert len(enum_h(n)) == count_motzkin_avoiding(n)


# ---------- parity-constrained compositions ----------

def test_alternating_compositions_small():
    assert enum_compositions(0, "alt") == [()]
    assert enum_compositions(3, "alt") == [(1, 2), (2, 1), (3,)]
    assert enum_compositions(5, "alt_odd_even") == [(1, 4), (3, 2)]
    assert enum_compositions(3, "alt_odd_even") == [(1, 2)]
    assert enum_compositions(0, "alt_odd_even") == []


@pytest.mark.parametrize("kind", ["alt", "alt_odd_even"])
def test_compositions_come_in_lexicographic_order(kind):
    for n in range(27):
        compositions = enum_compositions(n, kind)
        assert compositions == sorted(compositions), n


def test_composition_parity_rules_hold():
    for n in range(1, 11):
        for c in enum_compositions(n, "alt"):
            assert sum(c) == n and all(p >= 1 for p in c)
            assert all(a % 2 != b % 2 for a, b in zip(c, c[1:]))
        for c in enum_compositions(n, "alt_odd_even"):
            assert c[0] % 2 == 1 and c[-1] % 2 == 0
            assert all(a % 2 != b % 2 for a, b in zip(c, c[1:]))


def test_composition_cardinalities_match_band_counts():
    low = FamilySpec("gdap", min_y=0, max_y=2)
    for n in range(2, 15):
        assert len(enum_compositions(n - 2, "alt")) == count_paths(n, low)
    sym = FamilySpec("gdap", min_y=-1, max_y=1)
    for n in range(13):
        assert len(enum_compositions(n + 3, "alt_odd_even")) \
            == count_paths(n, sym)


# ---------- rejected specs ----------

def test_infeasible_specs():
    with pytest.raises(InfeasibleSpec):
        enum_paths(3, FamilySpec("prefix_gdap", end_ordinate=4))
    with pytest.raises(InfeasibleSpec):
        enum_paths(4, FamilySpec("prefix_gdap"))
    with pytest.raises(InfeasibleSpec):
        enum_paths(4, FamilySpec("gdap", min_y=1))
    with pytest.raises(InfeasibleSpec):
        enum_paths(4, FamilySpec("gdap", max_y=-1))
    with pytest.raises(InfeasibleSpec):
        enum_paths(4, FamilySpec("dap", end_ordinate=2))
    with pytest.raises(InfeasibleSpec):
        enum_paths(4, FamilySpec("prefix_gdap", min_y=-1, end_ordinate=-3))
    with pytest.raises(InfeasibleSpec):
        enum_paths(4, FamilySpec("motzkin_avoid"))
    with pytest.raises(InfeasibleSpec):
        enum_paths(4, FamilySpec("special_h", max_y=3))
    with pytest.raises(ValueError):
        enum_paths(4, FamilySpec("zigzag"))
    with pytest.raises(ValueError):
        enum_paths(-1, GDAP)
    with pytest.raises(ValueError):
        enum_compositions(3, "weird")


def test_empty_but_feasible_slices():
    assert enum_paths(0, DAP) == []
    assert enum_paths(0, PRIME) == []
    assert enum_paths(1, DAP) == []
    assert enum_paths(2, PRIME) == []
    assert enum_paths(0, FamilySpec("gdap", start_step="up")) == []
    assert enum_paths(0, FamilySpec("prefix_gdap", end_ordinate=-2)) == []


@pytest.mark.parametrize("make", [
    lambda: enum_paths(9, GDAP),
    lambda: next(iter_paths(9, GDAP)),    # a walk dropped part way
    lambda: enum_h(9),
    lambda: enum_compositions(9, "alt"),
], ids=["enum_paths", "dropped_walk", "enum_h", "enum_compositions"])
def test_enumeration_leaves_no_reference_cycle(make):
    # the recursive helpers call themselves through their closure; each
    # call frees its table when it ends, not at the next cyclic collection
    gc.collect()
    gc.disable()
    try:
        make()
        assert gc.collect() == 0
    finally:
        gc.enable()
