"""Verification harness: suite assembly, determinism, failure reporting."""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airpockets import catalog, enumeration, oeis, verify
from airpockets.enumeration import FamilySpec
from airpockets.errors import NonInvertible
from airpockets.oeis import CITED_IDS
from airpockets.paths import parse_path
from airpockets.series import TruncatedSeries
from airpockets.verify import (
    CHECK_KINDS,
    SUITES,
    CheckResult,
    VerificationReport,
    run_suite,
)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("AIRPOCKETS_OEIS_CACHE", str(tmp_path / "oeis"))


def test_paper_series_suite_passes():
    report = run_suite("paper-series")
    assert report.ok
    assert len(report.checks) == len(verify.SERIES_TABLE)
    assert {c.check_kind for c in report.checks} == {"dual_path"}


def test_oracle_suite_passes():
    report = run_suite("oracle", max_n=8)
    assert report.ok
    assert {c.check_kind for c in report.checks} == {"oracle_vs_gf"}
    subjects = [c.subject for c in report.checks]
    assert "minorized m=-2" in subjects
    assert "sym t=2" in subjects


def test_bounded_families_run_two_lengths_further():
    report = run_suite("oracle", max_n=8)
    scopes = {c.subject: c.range for c in report.checks}
    assert scopes["G"] == "n <= 8"
    assert scopes["g0t t=2"] == "n <= 10"
    assert scopes["B"] == "n <= 10"


def test_every_oracle_row_holds_to_length_60():
    # one counting sweep per row; height-bounded rows two lengths further
    start = time.perf_counter()
    for name, params, fields, epsilon, bounded in verify.ORACLE_TABLE:
        limit = 62 if bounded else 60
        mismatch = verify._check_series_oracle(name, params, fields, epsilon,
                                               limit)
        assert mismatch is None, (name, params, mismatch)
    assert time.perf_counter() - start < 10


def test_oracle_mismatch_names_the_first_length(monkeypatch):
    counts = verify.count_paths_upto

    def off_at_seven(max_n, spec):
        out = counts(max_n, spec)
        out[7] += 1
        return out

    monkeypatch.setattr(verify, "count_paths_upto", off_at_seven)
    assert verify._check_series_oracle("dap", {}, {"kind": "dap"}, 0, 9) \
        == "n=7: series 17 != oracle 18"


def test_bijections_suite_passes():
    report = run_suite("bijections", max_n=8)
    assert report.ok
    assert {c.check_kind for c in report.checks} == {"bijection_roundtrip"}
    assert len(report.checks) == 4


def test_oeis_suite_passes_offline():
    report = run_suite("oeis", offline=True)
    assert report.ok
    assert len(report.checks) == 18
    assert {c.check_kind for c in report.checks} == {"gf_vs_oeis"}
    assert report.checks[0].subject == "dap vs A004148"


@pytest.mark.parametrize("name,params,seq_id", oeis.CITED_PAIRS)
def test_a_bumped_coefficient_fails_its_oeis_check(name, params, seq_id,
                                                    monkeypatch):
    # gf_vs_oeis compares every coefficient that has a term at the chosen
    # shift, less at most the first: bumping any later one fails the check.
    # On A000035 (0, 1, 0, 1, ...) a bump at x^2..x^5 of g0t t=1 would
    # agree at a shift 2 or 4 further left, whose overlap starts past the
    # bump; no shift may start past the series' first nonzero coefficient
    series = catalog.evaluate(name, 20, **params).series
    record = oeis.fetch_sequence(seq_id, offline=True)
    shift = oeis.align_and_compare(series, record).shift
    subject = f"{verify._subject(name, params)} vs {seq_id}"
    entry = next(e for e in verify._suite_checks("oeis", 10, 20, True)
                 if e[0] == subject)
    first = max(0, -shift)
    for n in range(first + 1, min(21, len(record.terms) - shift)):
        coeffs = list(series.coeffs)
        coeffs[n] += 1
        bumped = catalog.NamedSeries(name, params, TruncatedSeries(coeffs, 20))
        monkeypatch.setattr(verify, "evaluate", lambda *a, **k: bumped)
        result = verify._run_check(entry)
        assert result.status == "fail", n
        assert result.first_mismatch.startswith("NoAlignment"), n


def test_all_suite_concatenates_in_order():
    report = run_suite("all", max_n=6, offline=True)
    assert report.ok
    kinds = [c.check_kind for c in report.checks]
    suite_order = ("dual_path", "oracle_vs_gf", "bijection_roundtrip",
                   "gf_vs_oeis")
    boundaries = [kinds.index(kind) for kind in suite_order]
    assert boundaries == sorted(boundaries)
    assert set(kinds) == set(CHECK_KINDS)


def test_report_is_deterministic_across_runs():
    first = run_suite("all", max_n=6, offline=True)
    second = run_suite("all", max_n=6, offline=True)
    assert first == second


def test_run_suite_takes_no_threads():
    with pytest.raises(TypeError):
        run_suite("paper-series", threads=1)


@pytest.mark.parametrize("kwargs", [
    {"suite": "nosuch"},
    {"suite": "oracle", "max_n": 1},
    {"suite": "oracle", "order": 5},
])
def test_run_suite_rejects(kwargs):
    with pytest.raises(ValueError):
        run_suite(**kwargs)


def test_suites_tuple_is_the_contract():
    assert SUITES == ("paper-series", "oracle", "bijections", "oeis", "all")


@pytest.mark.parametrize("kwargs", [
    {"subject": "x", "check_kind": "imagined", "range": "n", "status": "pass"},
    {"subject": "x", "check_kind": "dual_path", "range": "n",
     "status": "maybe"},
    {"subject": "x", "check_kind": "dual_path", "range": "n",
     "status": "pass", "first_mismatch": "boom"},
    {"subject": "x", "check_kind": "dual_path", "range": "n",
     "status": "fail"},
])
def test_check_result_invariants(kwargs):
    with pytest.raises(ValueError):
        CheckResult(**kwargs)


def test_crashing_check_is_reported_not_raised():
    def explode():
        raise RuntimeError("wires crossed")

    result = verify._run_check(("subject", "dual_path", "scope", explode))
    assert result.status == "fail"
    assert "RuntimeError" in result.first_mismatch
    assert "wires crossed" in result.first_mismatch


def test_injected_mismatch_fails_the_suite(monkeypatch):
    broken = (("G", {}, (1, 0, 2, 3, 7, 17, 40, 97, 238, 587, 9999)),)
    monkeypatch.setattr(verify, "SERIES_TABLE", broken)
    report = run_suite("paper-series")
    assert not report.ok
    assert report.checks[0].status == "fail"
    assert "n=10" in report.checks[0].first_mismatch
    assert "1458" in report.checks[0].first_mismatch


def test_report_ok_property():
    passing = CheckResult("a", "dual_path", "n", "pass")
    failing = CheckResult("b", "dual_path", "n", "fail", "n=0: off by one")
    assert VerificationReport("paper-series", (passing,)).ok
    assert not VerificationReport("paper-series", (passing, failing)).ok


DUAL_ROWS = [(name, params) for name, params, _ in verify.SERIES_TABLE
             if name in verify.DUAL_PATHS]


def test_every_dual_path_runs_in_paper_series():
    assert {name for name, _ in DUAL_ROWS} == set(verify.DUAL_PATHS)


@pytest.mark.parametrize("name,params", DUAL_ROWS,
                         ids=[verify._subject(*row) for row in DUAL_ROWS])
def test_dual_paths_agree_at_order_400(name, params):
    assert verify._check_duals(name, params, 400) is None


def test_first_return_series_solves_its_equation():
    # coefficient by coefficient is one way to solve it; the series itself
    # must satisfy a = x^2 + x^2 a + x a + x a^2 through the order
    order = 200
    a = verify._dap_fixed_point(order)
    x = TruncatedSeries.monomial(1, order)
    assert a == x * x + (x * x) * a + x * a + x * (a * a)


def test_ordinate_sum_is_the_sum_over_ordinates():
    # the geometric form against the sum it replaces: ordinates above the
    # order cannot contribute
    order = 24
    total = TruncatedSeries([], order)
    for k in range(1, order + 1):
        total = total + verify._series("prefix_pos", order, k=k)
    assert verify._by_ordinate_sum(order) == [("prefix_pos_total", {}, total)]


def test_band_substitution_ceiling_at_the_order_is_exact_and_needed(
        monkeypatch):
    # a length-n prefix climbs at most to ordinate n, so the [m, order] band
    # holds every prefix through the order, and one ordinate less loses the
    # all-up path at n = order
    assert verify._check_duals("minorized", {"m": -1}, 20) is None
    walk = verify._band_walk
    monkeypatch.setattr(verify, "_band_walk",
                        lambda lo, hi, order: walk(lo, order - 1, order))
    mismatch = verify._check_duals("minorized", {"m": -1}, 20)
    assert mismatch.startswith("band substitution:")
    assert " n=20:" in mismatch


@pytest.mark.parametrize("name,params", DUAL_ROWS,
                         ids=[verify._subject(*row) for row in DUAL_ROWS])
def test_dual_derivations_keep_integer_coefficients(name, params):
    # a step whose result is not an integer series raises NonInvertible;
    # name the derivation that took it, which _check_duals does not
    for label, derive in verify.DUAL_PATHS[name]:
        try:
            claims = list(derive(30, **params))
        except NonInvertible as exc:
            pytest.fail(f"{label}: {exc}")
        assert claims, label


def _perturbed(derive):
    def derive_off_by_x_to_the_order(order, **params):
        return [(name, claimed, series
                 + TruncatedSeries.monomial(series.order, series.order))
                for name, claimed, series in derive(order, **params)]
    return derive_off_by_x_to_the_order


@pytest.mark.parametrize("name,label", [
    (name, label) for name, pairs in verify.DUAL_PATHS.items()
    for label, _ in pairs])
def test_perturbed_dual_fails_its_rows(monkeypatch, name, label):
    pairs = tuple((each, _perturbed(derive) if each == label else derive)
                  for each, derive in verify.DUAL_PATHS[name])
    monkeypatch.setitem(verify.DUAL_PATHS, name, pairs)
    rows = tuple(row for row in verify.SERIES_TABLE if row[0] == name)
    monkeypatch.setattr(verify, "SERIES_TABLE", rows)
    report = run_suite("paper-series")
    assert len(report.checks) == len(rows)
    for check in report.checks:
        assert check.status == "fail"
        assert check.first_mismatch.startswith(f"{label}: ")


def _bump_route(monkeypatch, mutant, n=None):
    # the catalog route gives coefficient n (its last one when n is None)
    # one too many; Bk at ceiling 3 only, one of the ceilings the arch
    # grammar claims
    entry = catalog.CATALOG[mutant]

    def off_by_one(*args):
        order = args[-1]
        coeffs = list(entry.fn(*args))
        at = order if n is None else n
        if at <= order and (mutant != "Bk" or args[0] == 3):
            coeffs += [0] * (order + 1 - len(coeffs))
            coeffs[at] += 1
        return coeffs

    monkeypatch.setitem(catalog.CATALOG, mutant,
                        entry._replace(fn=off_by_one))


# the mutants no derivation catches: no derivation claims these names, and
# the routes that build on them call their integer routes, not evaluate
UNCAUGHT = {"Rk", "Tk"}


@pytest.mark.parametrize("mutant", list(catalog.CATALOG))
def test_route_off_by_one_fails_a_dual_path(monkeypatch, mutant):
    # the frozen references are frozen again from the mutant, so only a
    # dual derivation can catch it
    _bump_route(monkeypatch, mutant)
    rows = tuple((name, params,
                  verify._series(name, len(expected) - 1, **params).coeffs)
                 for name, params, expected in verify.SERIES_TABLE)
    monkeypatch.setattr(verify, "SERIES_TABLE", rows)
    labels = tuple(f"{label}: " for pairs in verify.DUAL_PATHS.values()
                   for label, _ in pairs)
    failed = [check for check in run_suite("paper-series").checks
              if check.status == "fail"]
    assert bool(failed) == (mutant not in UNCAUGHT)
    for check in failed:
        assert check.first_mismatch.startswith(labels), check


def test_every_dual_path_catches_a_mutant_no_other_one_does(monkeypatch):
    # the mutation matrix: which derivations, each run alone, catch each
    # off-by-one route; a derivation that catches only what others also
    # catch checks nothing of its own
    duals = dict(verify.DUAL_PATHS)
    caught = {(name, label): set() for name, pairs in duals.items()
              for label, _ in pairs}
    for mutant in catalog.CATALOG:
        with monkeypatch.context() as patch:
            _bump_route(patch, mutant)
            for name, params in DUAL_ROWS:
                for label, derive in duals[name]:
                    patch.setitem(verify.DUAL_PATHS, name, ((label, derive),))
                    if verify._check_duals(name, params, 20) is not None:
                        caught[name, label].add(mutant)
    assert set(catalog.CATALOG).difference(*caught.values()) == UNCAUGHT
    for key, mutants in caught.items():
        others = set().union(*(m for k, m in caught.items() if k != key))
        assert mutants - others, key


def test_order_reaches_the_duals(monkeypatch):
    # a route wrong only at coefficient 40 passes the frozen prefix and
    # every dual below order 40, and fails once verify's order reaches it
    _bump_route(monkeypatch, "G", 40)
    assert run_suite("paper-series").ok
    report = run_suite("paper-series", order=40)
    failed = [check for check in report.checks if check.status == "fail"]
    assert [check.subject for check in failed] == ["G"]
    assert failed[0].first_mismatch.startswith("first-return systems: G n=40")
    assert failed[0].range == "order 10; duals at order 40"


@pytest.mark.parametrize("name,params", DUAL_ROWS,
                         ids=[verify._subject(*row) for row in DUAL_ROWS])
@settings(max_examples=4, deadline=None)
@given(order=st.integers(0, 60))
def test_integer_routes_match_their_duals(name, params, order):
    assert verify._check_duals(name, params, order) is None


# ------------------------------------------------------ the run's table

def _counting(monkeypatch, module, name):
    # the positional arguments of every call to module.name
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_run_builds_each_root_walk_and_record_once(monkeypatch):
    roots = _counting(monkeypatch, catalog, "_sqrt")
    walks = _counting(monkeypatch, catalog, "_band_walk")
    fetched = _counting(monkeypatch, verify, "fetch_sequence")
    tables = []
    check = verify._run_check
    monkeypatch.setattr(verify, "_run_check",
                        lambda entry: tables.append(catalog._run.table)
                        or check(entry))
    assert run_suite("all", offline=True).ok
    # 12 distinct (radicand, order) roots and 19 distinct bands at the
    # defaults, each built by its first caller; computed afresh, the run
    # made 93 roots and 87 walks
    assert len(roots) == len(set(roots)) == 12
    assert len(walks) == len(set(walks)) == 19
    assert sorted(seq_id for seq_id, in fetched) == sorted(CITED_IDS)
    # one table for the whole run, holding only immutable values
    assert all(table is tables[0] for table in tables)
    assert all(isinstance(value, tuple) for value in tables[0].values())
    assert catalog._run.table is None


def test_an_online_run_fetches_each_cited_sequence_once(monkeypatch):
    # a stand-in network serving the bundled terms: an online run asks it
    # for every cited id, once per id in a run, and a warm cache saves no
    # request in the next run
    urls = []

    def fake_get(url, timeout):
        urls.append(url)
        return oeis._fixture_text(url.split("/")[3])

    monkeypatch.setattr(oeis, "_http_get", fake_get)
    for runs in (1, 2):
        assert run_suite("oeis").ok
        assert len(urls) == runs * len(CITED_IDS)
    assert len(set(urls)) == len(CITED_IDS)


def _bump_walks(monkeypatch):
    # every confined walk's last up-ending coefficients one too many
    walk = catalog._band_walk

    def bumped(lo, hi, order):
        for n, (f, g) in enumerate(walk(lo, hi, order)):
            yield ([c + 1 for c in f] if n == order else f), g

    monkeypatch.setattr(catalog, "_band_walk", bumped)


@pytest.mark.parametrize("bump", [
    lambda monkeypatch: _bump_route(monkeypatch, "G"),
    _bump_walks,
], ids=["route", "band walk"])
def test_a_bump_between_runs_fails_the_next_run(monkeypatch, bump):
    # nothing from the first run's table serves the second
    assert run_suite("all", offline=True).ok
    bump(monkeypatch)
    assert not run_suite("all", offline=True).ok


def test_a_check_that_raises_leaves_no_table(monkeypatch):
    seen = []

    def broken(name, max_n=None):
        seen.append(catalog._run.table)
        raise KeyboardInterrupt

    monkeypatch.setattr(verify, "_check_roundtrip", broken)
    with pytest.raises(KeyboardInterrupt):
        run_suite("bijections")
    assert isinstance(seen[0], dict)
    assert catalog._run.table is None

    def failing(name, max_n=None):
        raise ValueError("broken")

    monkeypatch.setattr(verify, "_check_roundtrip", failing)
    assert not run_suite("bijections").ok
    assert catalog._run.table is None


def test_evaluations_outside_a_run_share_nothing(monkeypatch):
    roots = _counting(monkeypatch, catalog, "_sqrt")
    walks = _counting(monkeypatch, catalog, "_band_walk")
    assert catalog._run.table is None
    first = [catalog.evaluate("G", 20), catalog.evaluate("sym_f", 20, k=1, t=2)]
    second = [catalog.evaluate("G", 20), catalog.evaluate("sym_f", 20, k=1, t=2)]
    assert first == second
    assert roots == [(catalog.KERNEL_RADICAND, 20)] * 2
    assert walks == [(-2, 2, 20)] * 2


def test_runs_on_two_threads_keep_their_own_tables(monkeypatch):
    # both runs start, then the second goes on only after the first has
    # returned; every check of each run still sees its own run's table
    started = threading.Barrier(2, timeout=60)
    first_done = threading.Event()
    seen = {"first": [], "second": []}
    reports = {}
    check = verify._run_check

    def run_check(entry):
        name = threading.current_thread().name
        if not seen[name]:
            started.wait()
            if name == "second":
                first_done.wait(timeout=60)
        seen[name].append(catalog._run.table)
        return check(entry)

    def run(name):
        reports[name] = run_suite("oeis", offline=True)
        if name == "first":
            first_done.set()

    monkeypatch.setattr(verify, "_run_check", run_check)
    threads = [threading.Thread(target=run, args=(name,), name=name)
               for name in seen]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert first_done.is_set()
    assert reports["first"].ok and reports["second"].ok
    for tables in seen.values():
        assert isinstance(tables[0], dict)
        assert all(table is tables[0] for table in tables)
    assert seen["first"][0] is not seen["second"][0]
    assert catalog._run.table is None


def test_a_run_keeps_no_whole_path_series(monkeypatch):
    # each whole-path series is one product and one division by R after
    # the shared root, so the run's table holds roots and walks only
    tables = []
    check = verify._run_check
    monkeypatch.setattr(verify, "_run_check",
                        lambda entry: tables.append(catalog._run.table)
                        or check(entry))
    assert run_suite("all", offline=True).ok
    assert {entry[0] for entry in tables[0]} == {
        catalog._sqrt, catalog._climb_from_kernel, catalog._band_walk}


def test_whole_path_series_outside_a_run_compute_afresh(monkeypatch):
    roots = _counting(monkeypatch, catalog, "_sqrt")
    first = catalog.evaluate("G", 20)
    second = catalog.evaluate("G", 20)
    assert first == second
    assert roots == [(catalog.KERNEL_RADICAND, 20)] * 2
    assert catalog.evaluate("prefix_pos", 12, k=2) == \
        catalog.evaluate("prefix_pos", 12, k=2)
    # f0's root at 12 and the ordinate factor's at 11, once per call
    assert roots[2:] == [(catalog.KERNEL_RADICAND, 12),
                         (catalog.KERNEL_RADICAND, 11)] * 2


# ------------------------------------------------------------ round trips

def _patch_bijection(monkeypatch, name, forward=None, inverse=None):
    entry = verify.BIJECTION_TABLE[name]
    monkeypatch.setitem(verify.BIJECTION_TABLE, name,
                        (forward or entry[0], inverse or entry[1], *entry[2:]))


def _failed_round_trips():
    return [(check.subject, check.range, check.first_mismatch)
            for check in run_suite("bijections", max_n=8).checks
            if check.status == "fail"]


@pytest.mark.parametrize("name, inside", [("psi", "UUDUD2"),
                                          ("phi", "UD2UUD")])
def test_a_forward_map_wrong_on_one_path_fails(monkeypatch, name, inside):
    forward = verify.BIJECTION_TABLE[name][0]
    path = parse_path(inside)
    composition = forward(path)

    def wrong(path):
        return (1,) + forward(path) if str(path) == inside else forward(path)

    _patch_bijection(monkeypatch, name, forward=wrong)
    assert _failed_round_trips() == [
        (name, "n <= 8",
         f"n={len(path)}: {name} round trip broke at {composition}")]


@pytest.mark.parametrize("name, inside, outside", [
    ("psi", "UUD2", "UD2U"), ("phi", "UD2U", "UUD2")])
def test_an_inverse_leaving_the_window_fails(monkeypatch, name, inside,
                                             outside):
    # the same length and the same composition back, but outside the
    # window: the forward map refuses it
    forward, inverse = verify.BIJECTION_TABLE[name][:2]
    composition = forward(parse_path(inside))

    def leaves(c):
        return parse_path(outside) if c == composition else inverse(c)

    _patch_bijection(monkeypatch, name, inverse=leaves)
    assert _failed_round_trips() == [
        (name, "n <= 8", f"NotInFamily: {name}: profile leaves the window "
                         f"{list(verify.BIJECTION_TABLE[name][2])}")]


@pytest.mark.parametrize("change, message", [
    (lambda out: out[1:], "{name}_inv decodes {k} paths, the window holds "
                          "{window}"),
    (lambda out: out + out[:1], "{name}_inv decodes {more} compositions to "
                                "{window} distinct paths"),
], ids=["drops one", "repeats one"])
def test_a_composition_family_off_by_one_fails(monkeypatch, change, message):
    # at one total per family, which its map reaches within n <= 8
    listed = verify.enum_compositions
    totals = {"alt": 6, "alt_odd_even": 9}

    def changed(total, kind):
        out = listed(total, kind)
        return change(out) if total == totals[kind] else out

    monkeypatch.setattr(verify, "enum_compositions", changed)
    expected = []
    for name, (_, _, (low, high), shift, kind, _) in \
            verify.BIJECTION_TABLE.items():
        n = totals[kind] - shift
        window = verify.count_paths_upto(
            n, FamilySpec("gdap", min_y=low, max_y=high))[n]
        assert window == len(listed(totals[kind], kind)) > 1
        expected.append((name, "n <= 8", f"n={n}: " + message.format(
            name=name, k=window - 1, more=window + 1, window=window)))
    assert _failed_round_trips() == expected


def test_round_trips_list_no_path(monkeypatch):
    # every listing goes through the block walker; the round trips count
    # the window instead
    walks = _counting(monkeypatch, enumeration, "_path_blocks")
    assert not hasattr(verify, "enum_paths")
    assert verify._check_roundtrip("psi", 12) is None
    assert verify._check_roundtrip("phi", 12) is None
    assert walks == []
