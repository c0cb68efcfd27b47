"""Acceptance gate: one test per shipped criterion, each at its stated
scale and time budget.  Every expectation here is restated inline so the
gate stands on its own."""

import time

import pytest

from airpockets import verify
from airpockets.catalog import (
    band_cramer_numerators,
    band_poly_matrix,
    evaluate,
    gf_dap,
    gf_gdap,
    gf_minorized,
    gf_prefix_negative,
    poly_D,
    poly_N,
    poly_det,
)
from airpockets.enumeration import (
    FamilySpec,
    count_paths,
    enum_h,
    enum_motzkin_avoiding,
)
from airpockets.errors import InfeasibleSpec
from airpockets.oeis import CITED_IDS
from airpockets.verify import run_suite


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("AIRPOCKETS_OEIS_CACHE", str(tmp_path / "oeis"))


def ints(series):
    return series.integer_coefficients()


def poly(series):
    out = list(series.integer_coefficients())
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def conv(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def psub(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def oracle_counts(max_n, **fields):
    spec = FamilySpec(**fields)
    out = []
    for n in range(max_n + 1):
        try:
            out.append(count_paths(n, spec))
        except InfeasibleSpec:
            out.append(0)
    return tuple(out)


def report(number, detail):
    print(f"criterion {number}: pass - {detail}")


def test_criterion_01_dap_series_fast():
    started = time.perf_counter()
    series = gf_dap(10)
    elapsed = time.perf_counter() - started
    assert ints(series)[2:] == (1, 1, 2, 4, 8, 17, 37, 82, 185)
    assert elapsed < 0.1, f"gf_dap(10) took {elapsed:.3f}s"
    report(1, f"coefficients exact, cold build {elapsed * 1000:.1f}ms")


WHOLE_PATH_EXPECTED = {
    "Gp1": (0, 0, 1, 1, 2, 5, 11, 26, 63, 153, 376),
    "Gp2": (0, 0, 0, 1, 2, 5, 13, 32, 80, 201, 505),
    "Gp": (1, 0, 1, 2, 4, 10, 24, 58, 143, 354, 881),
    "Gm": (0, 0, 1, 1, 3, 7, 16, 39, 95, 233, 577),
    "G": (1, 0, 2, 3, 7, 17, 40, 97, 238, 587, 1458),
    "Gm1": (0, 0, 0, 0, 1, 2, 5, 13, 32, 80, 201),
    "Gm2": (0, 0, 1, 1, 2, 5, 11, 26, 63, 153, 376),
}


def test_criterion_02_whole_path_series():
    for name, expected in WHOLE_PATH_EXPECTED.items():
        assert ints(gf_gdap(name, 10)) == expected, name
    assert gf_gdap("G", 10).coefficient(10) == 1458
    report(2, f"{len(WHOLE_PATH_EXPECTED)} series exact through order 10")


def test_criterion_03_prefix_series_and_correspondences():
    assert ints(gf_gdap("f0", 10)) == (0, 0, 1, 2, 4, 10, 24, 58, 143, 354,
                                       881)
    assert ints(gf_gdap("g0", 10)) == (0, 0, 1, 1, 3, 7, 16, 39, 95, 233,
                                       577)
    assert ints(evaluate("prefix_pos_total", 10).series) \
        == (0, 1, 1, 4, 9, 22, 55, 136, 339, 849, 2132)
    assert ints(gf_prefix_negative(-1, 10)) \
        == (0, 1, 2, 4, 10, 24, 58, 143, 354, 881, 2204)
    assert ints(gf_prefix_negative(-2, 10)) \
        == (0, 1, 2, 5, 13, 32, 80, 201, 505, 1273, 3217)
    assert gf_prefix_negative(-1, 30).shift(1) == gf_gdap("Gp", 30) - 1
    assert gf_prefix_negative(-2, 30).shift(2) == gf_gdap("Gp2", 30)
    report(3, "prefix series exact; both shift identities hold to order 30")


def test_criterion_04_minorized_totals():
    assert ints(gf_minorized(-1, 10)) \
        == (1, 2, 4, 8, 17, 37, 82, 185, 423, 978, 2283)
    assert ints(gf_minorized(-2, 10)) \
        == (1, 3, 6, 13, 29, 65, 148, 341, 793, 1860, 4395)
    assert ints(gf_minorized(0, 12)) \
        == oracle_counts(12, kind="prefix_gdap", min_y=0)
    report(4, "floors -1/-2 exact; floor 0 equals enumeration to n=12")


DETERMINANT_EXPECTED = {
    0: (1,),
    1: (1, 0, -1),
    2: (1, 0, -2, -1, 1),
    3: (1, 0, -3, -2, 2, 2, -1),
}

NUMERATOR_EXPECTED = {
    (0, 0): (1,), (1, 0): (),
    (0, 1): (1, 0, -1), (1, 1): (0, 1), (2, 1): (0, 0, 1), (3, 1): (),
    (0, 2): (1, 0, -2, -1, 1), (1, 2): (0, 1, 0, -1), (2, 2): (0, 0, 1),
    (3, 2): (0, 0, 1, 1, -1), (4, 2): (0, 0, 0, 1), (5, 2): (),
    (0, 3): (1, 0, -3, -2, 2, 2, -1), (1, 3): (0, 1, 0, -2, -1, 1),
    (2, 3): (0, 0, 1, 0, -1), (3, 3): (0, 0, 0, 1),
    (4, 3): (0, 0, 1, 1, -1, -2, 1), (5, 3): (0, 0, 0, 1, 1, -1),
    (6, 3): (0, 0, 0, 0, 1), (7, 3): (),
}

AXIS_BAND_EXPECTED = {
    1: (0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1),
    2: (0, 0, 1, 1, 1, 3, 2, 6, 6, 11, 16),
    3: (0, 0, 1, 1, 2, 3, 7, 9, 22, 32, 66),
    4: (0, 0, 1, 1, 2, 4, 7, 16, 27, 63, 112),
}


def test_criterion_05_band_determinants_and_axis_series():
    for t, expected in DETERMINANT_EXPECTED.items():
        assert poly(poly_D(t, 30)) == expected, f"D_{t}"
    # three routes: recurrence, closed form via poly_D, direct determinant
    kernel = (1, 1, -1)
    for t in range(7):
        direct = poly_det(band_poly_matrix(0, t)[0])
        assert poly(poly_D(t, 30)) == direct, f"determinant route, t={t}"
    for t in range(4, 7):
        recurred = psub(conv(kernel, poly(poly_D(t - 1, 30))),
                        conv((0, 1), poly(poly_D(t - 2, 30))))
        assert poly(poly_D(t, 30)) == recurred, f"recurrence route, t={t}"
    for (k, t), expected in NUMERATOR_EXPECTED.items():
        assert poly(poly_N(k, t, 30)) == expected, f"N_{k}^{t}"
    for t, expected in AXIS_BAND_EXPECTED.items():
        assert ints(evaluate("g0t", 10, t=t).series) == expected
    report(5, "determinants, all 20 table entries, and four axis series "
              "exact")


SYM_EXPECTED = {
    1: (1, 0, 2, 1, 3, 4, 5, 10, 11, 21, 27),
    2: (1, 0, 2, 3, 5, 13, 22, 48, 93, 190, 375),
    3: (1, 0, 2, 3, 7, 15, 36, 75, 176, 386, 869),
}


def test_criterion_06_centered_band_identities():
    for t in range(1, 6):
        doubled = poly_det(band_poly_matrix(-t, t)[0])
        assert doubled == poly(poly_D(2 * t, 30)), f"doubled determinant, t={t}"
    for t in range(1, 4):
        numerators = band_cramer_numerators(-t, t)[1]
        axis = numerators[t]
        assert axis == conv(poly(poly_D(t - 1, 30)),
                            poly(poly_D(t, 30))), f"axis, t={t}"
        gate = numerators[3 * t + 1]
        assert gate == conv(poly(poly_D(t - 1, 30)),
                            poly(poly_N(t + 1, t, 30))), f"gate, t={t}"
    for t, expected in SYM_EXPECTED.items():
        assert ints(evaluate("sym", 10, t=t).series) == expected
    report(6, "doubled-band determinants and both product identities hold")


def test_criterion_07_special_height_family():
    started = time.perf_counter()
    series = evaluate("B", 14).series
    assert ints(series)[:13] == (1, 0, 1, 1, 2, 3, 6, 10, 20, 36, 72, 136,
                                 273)
    for n in range(15):
        assert len(enum_h(n)) == series.coefficient(n), f"n={n}"
    for n in range(13):
        assert len(enum_motzkin_avoiding(n)) == len(enum_h(n)), f"n={n}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30, f"special-height suite took {elapsed:.1f}s"
    report(7, f"series, enumeration, and factor-avoiding counts agree "
              f"({elapsed:.1f}s)")


def test_criterion_08_bijections_exhaustive():
    assert verify._check_roundtrip("psi", 14) is None
    assert verify._check_roundtrip("phi", 12) is None
    assert verify._check_roundtrip("psi") is None
    assert verify._check_roundtrip("phi") is None
    report(8, "round trips and worked examples exact (psi to 14, phi to 12)")


def test_criterion_09_oracle_suite():
    started = time.perf_counter()
    outcome = run_suite("oracle", max_n=12)
    elapsed = time.perf_counter() - started
    failures = [c for c in outcome.checks if c.status != "pass"]
    assert not failures, failures[:3]
    assert elapsed < 60, f"oracle suite took {elapsed:.1f}s"
    report(9, f"{len(outcome.checks)} family checks at n<=12 "
              f"(bounded n<=14) in {elapsed:.1f}s")


def test_criterion_10_oeis_alignment():
    assert len(CITED_IDS) == 11
    outcome = run_suite("oeis", offline=True)
    failures = [c for c in outcome.checks if c.status != "pass"]
    assert not failures, failures[:3]
    report(10, f"{len(outcome.checks)} pairings over 11 sequences aligned "
               "from fixtures")
