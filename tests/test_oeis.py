"""Sequence client: b-file parsing, the network/cache/fixture ladder, and
shift alignment of catalog series against sequence terms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airpockets import oeis, verify
from airpockets.catalog import evaluate
from airpockets.errors import (
    NetworkUnavailable,
    NoAlignment,
    ParseError,
    UnknownSequence,
)
from airpockets.oeis import (
    CITED_IDS,
    CITED_PAIRS,
    Alignment,
    SequenceRecord,
    align_and_compare,
    fetch_sequence,
    parse_bfile,
)
from airpockets.series import TruncatedSeries


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("AIRPOCKETS_OEIS_CACHE", str(tmp_path / "oeis"))
    return tmp_path / "oeis"


# ---------------------------------------------------------------- parsing

def test_parse_bfile_basic():
    text = "# comment\n\n0 1\n1 1\n2 2\n# mid comment\n3 5\n"
    assert parse_bfile(text) == (1, 1, 2, 5)


def test_parse_bfile_offset_start():
    assert parse_bfile("1 4\n2 9\n3 16\n") == (4, 9, 16)


def test_parse_bfile_negative_values():
    assert parse_bfile("0 -1\n1 3\n") == (-1, 3)


@pytest.mark.parametrize("text", [
    "0 1 junk\n",
    "0 one\n",
    "0 1\n2 4\n",
    "",
    "# only comments\n",
])
def test_parse_bfile_rejects(text):
    with pytest.raises(ParseError):
        parse_bfile(text)


@pytest.mark.parametrize("kwargs", [
    {"id": "B000001", "terms": (1,), "source": "fixture"},
    {"id": "A1", "terms": (1,), "source": "fixture"},
    {"id": "A000001", "terms": (), "source": "fixture"},
    {"id": "A000001", "terms": (1,), "source": "disk"},
])
def test_record_validation(kwargs):
    with pytest.raises(ValueError):
        SequenceRecord(**kwargs)


# ----------------------------------------------------------------- fetch

def test_fetch_malformed_id():
    with pytest.raises(ValueError):
        fetch_sequence("A123")


@pytest.mark.parametrize("seq_id", ["A000035\n", "A０００035"],
                         ids=["trailing newline", "fullwidth digits"])
def test_fetch_rejects_ids_a_dollar_anchor_or_unicode_digits_let_through(
        seq_id):
    # `$` matches before a final newline and `\d` matches any decimal
    # digit, so both ids once passed the check and went on to the lookup
    with pytest.raises(ValueError, match="malformed sequence id"):
        fetch_sequence(seq_id, offline=True)
    with pytest.raises(ValueError, match="malformed sequence id"):
        SequenceRecord(seq_id, (1,), "fixture")
    for cited in CITED_IDS:
        assert fetch_sequence(cited, offline=True).id == cited


def test_fixtures_cover_cited_ids():
    for seq_id in CITED_IDS:
        record = fetch_sequence(seq_id, offline=True)
        assert record.source == "fixture"
        assert record.id == seq_id
        assert len(record.terms) >= 15


def _network_down(url, timeout):
    raise OSError(f"cannot reach {url}")


def _portal(url, timeout):
    # a 200 answer from a proxy or captive portal: not a b-file
    return "<html><body>Sign in to continue</body></html>\n"


# a fetch that raises, and one whose body is not a b-file: both are failed
# fetches, and the ladder falls back past them
FAILED_FETCHES = pytest.mark.parametrize(
    "get", [_network_down, _portal], ids=["network down", "not a b-file"])


@FAILED_FETCHES
def test_fetch_prefers_cache(isolated_cache, monkeypatch, get):
    isolated_cache.mkdir(parents=True)
    (isolated_cache / "A004148.txt").write_text("0 7\n1 8\n2 9\n")
    monkeypatch.setattr(oeis, "_http_get", get)
    record = fetch_sequence("A004148")
    assert record.source == "cache"
    assert record.terms == (7, 8, 9)


@FAILED_FETCHES
@pytest.mark.parametrize("entry", [b"0 7\nbroken line here\n",
                                   b"0 7\n1 \xff8\n"],
                         ids=["bad line", "not utf-8"])
def test_corrupt_cache_raises(isolated_cache, monkeypatch, get, entry):
    # a corrupt entry the ladder reaches raises, rather than passing
    # silently to the fixture
    isolated_cache.mkdir(parents=True)
    (isolated_cache / "A004148.txt").write_bytes(entry)
    monkeypatch.setattr(oeis, "_http_get", get)
    with pytest.raises(ParseError, match="line 2"):
        fetch_sequence("A004148")


@FAILED_FETCHES
def test_network_failure_falls_back_to_fixture(isolated_cache, monkeypatch,
                                               get):
    monkeypatch.setattr(oeis, "_http_get", get)
    record = fetch_sequence("A004148")
    assert record.source == "fixture"
    assert record.terms == fetch_sequence("A004148", offline=True).terms
    assert not isolated_cache.exists()


def test_a_working_network_overrides_a_stale_cache(isolated_cache,
                                                   monkeypatch):
    # online, the network comes first: a stale cache entry is neither
    # read nor kept once a fetch succeeds
    isolated_cache.mkdir(parents=True)
    (isolated_cache / "A004148.txt").write_text("0 7\n")
    monkeypatch.setattr(oeis, "_http_get", lambda url, timeout: "0 1\n1 1\n")
    record = fetch_sequence("A004148")
    assert record.source == "network"
    assert record.terms == (1, 1)
    # the fetched terms replaced the stale cache entry
    monkeypatch.setattr(oeis, "_http_get", _network_down)
    again = fetch_sequence("A004148")
    assert again.source == "cache"
    assert again.terms == (1, 1)


def test_offline_reads_the_fixture_not_a_stale_cache(isolated_cache,
                                                     monkeypatch):
    # A004148 cached with a wrong last term: offline, the cache is never
    # read, so the report rests on the bundled fixture alone
    fixture = fetch_sequence("A004148", offline=True).terms
    isolated_cache.mkdir(parents=True)
    (isolated_cache / "A004148.txt").write_text(
        "".join(f"{i} {v}\n" for i, v in
                enumerate((*fixture[:-1], fixture[-1] + 1))))
    record = fetch_sequence("A004148", offline=True)
    assert (record.source, record.terms) == ("fixture", fixture)
    assert verify.run_suite("oeis", offline=True).ok
    # online with the network down, the cache comes before the fixture,
    # and its wrong term fails both checks that cite A004148; every other
    # id falls back to its fixture
    monkeypatch.setattr(oeis, "_http_get", _network_down)
    report = verify.run_suite("oeis")
    failed = [c.subject for c in report.checks if c.status == "fail"]
    assert failed == ["dap vs A004148", "minorized m=-1 vs A004148"]


def test_network_populates_cache(isolated_cache, monkeypatch):
    calls = []

    def fake_get(url, timeout):
        calls.append(url)
        return "0 5\n1 6\n"

    monkeypatch.setattr(oeis, "_http_get", fake_get)
    first = fetch_sequence("A051286")
    assert first.source == "network"
    assert "A051286" in calls[0] and "b051286.txt" in calls[0]
    assert parse_bfile((isolated_cache / "A051286.txt").read_text()) == (5, 6)
    # a working network is asked again; a failing one leaves the cache
    assert fetch_sequence("A051286").source == "network"
    assert len(calls) == 2
    monkeypatch.setattr(oeis, "_http_get", _network_down)
    second = fetch_sequence("A051286")
    assert second.source == "cache"
    assert second.terms == first.terms == (5, 6)


def test_an_unwritable_cache_keeps_the_fetched_record(tmp_path, monkeypatch):
    # the cache directory would sit under a regular file, so writing the
    # cache raises NotADirectoryError; the fetch itself succeeded
    (tmp_path / "plain").write_text("")
    monkeypatch.setenv("AIRPOCKETS_OEIS_CACHE",
                       str(tmp_path / "plain" / "oeis"))
    monkeypatch.setattr(oeis, "_http_get", lambda url, timeout: "0 1\n1 3\n")
    record = fetch_sequence("A004148")
    assert (record.source, record.terms) == ("network", (1, 3))
    assert list(tmp_path.iterdir()) == [tmp_path / "plain"]


class _Response:
    # what urlopen hands back: a context manager whose read() gives the
    # body, or raises what a broken transfer raises
    def __init__(self, read):
        self.read = read

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def _truncated():
    import http.client

    raise http.client.IncompleteRead(b"0 1\n", 40)


@pytest.mark.parametrize("read", [lambda: b"\xff\xfe0 1\n", _truncated],
                         ids=["not utf-8", "truncated"])
def test_a_garbled_response_is_a_failed_fetch(monkeypatch, read):
    # _http_get turns a body it cannot read into OSError, so the ladder
    # falls back to the fixture instead of raising
    import urllib.request

    monkeypatch.setattr(urllib.request, "urlopen",
                        lambda url, timeout: _Response(read))
    with pytest.raises(OSError, match="bad response from"):
        oeis._http_get("https://oeis.org/A004148/b004148.txt", 1.0)
    assert fetch_sequence("A004148").source == "fixture"


@pytest.mark.parametrize("cached", [False, True], ids=["no cache", "cache"])
def test_unknown_sequence_propagates(isolated_cache, monkeypatch, cached):
    # an authoritative "no such sequence" is an answer, not a failed
    # fetch: neither a cache entry nor a fixture may stand in for it
    if cached:
        isolated_cache.mkdir(parents=True)
        (isolated_cache / "A004148.txt").write_text("0 7\n1 8\n")

    def fake_get(url, timeout):
        raise UnknownSequence(f"no b-file at {url}")

    monkeypatch.setattr(oeis, "_http_get", fake_get)
    with pytest.raises(UnknownSequence):
        fetch_sequence("A004148")
    with pytest.raises(UnknownSequence):
        fetch_sequence("A999999")


def test_nothing_available(monkeypatch):
    monkeypatch.setattr(
        oeis, "_http_get",
        lambda url, timeout: (_ for _ in ()).throw(OSError("down")))
    with pytest.raises(NetworkUnavailable):
        fetch_sequence("A999999")
    with pytest.raises(NetworkUnavailable):
        fetch_sequence("A999999", offline=True)


# ------------------------------------------------------------- alignment

def ratio(num, den, order):
    return TruncatedSeries(num, order) / TruncatedSeries(den, order)


def test_zero_series_never_aligns():
    record = fetch_sequence("A000035", offline=True)
    with pytest.raises(NoAlignment):
        align_and_compare(TruncatedSeries([], 30), record)


def _ones_against(run):
    # 1/(1-x) against a record of `run` ones: every shift agrees on a run
    # of exactly that length
    record = SequenceRecord("A000012", (1,) * run, "fixture")
    return align_and_compare(ratio((1,), (1, -1), 20), record)


def test_eight_term_run_never_aligns():
    with pytest.raises(NoAlignment, match="9 consecutive matches"):
        _ones_against(8)


def test_nine_term_run_aligns():
    result = _ones_against(9)
    assert (result.shift, result.start, result.matches) == (0, 0, 9)


def test_unrelated_series_never_aligns():
    record = fetch_sequence("A004148", offline=True)
    ones = ratio((1,), (1, -1), 30)
    with pytest.raises(NoAlignment):
        align_and_compare(ones, record)


def test_alignment_reports_shift_and_window():
    record = fetch_sequence("A004148", offline=True)
    series = evaluate("dap", 20).series
    result = align_and_compare(series, record)
    assert result.shift == -2
    assert result.start == 2  # n = 0, 1 map outside the terms window
    # aligned values over n = 2..10 are the series coefficients there
    window = [record.terms[n + result.shift] for n in range(2, 11)]
    assert window == [1, 1, 2, 4, 8, 17, 37, 82, 185]


def test_alignment_prefers_longest_run():
    series = ratio((0, 0, 1), (1, -1), 20)  # x^2/(1-x): 0,0,1,1,1,...
    ones = SequenceRecord("A000012", (1,) * 16, "fixture")
    # shifts -2 to -5 agree on all 16 terms, and the smallest |shift| wins
    # over shift -1, which agrees on 15 after a first term it could skip
    assert align_and_compare(series, ones) == Alignment(-2, 2, 16, None)
    terms = [1] * 16
    terms[3] = 99  # defect splits every candidate window
    record = SequenceRecord("A000012", tuple(terms), "fixture")
    # several shifts tie at a 12-match run and the smallest |shift| wins,
    # but at shift 0 the terms before that run disagree too
    with pytest.raises(NoAlignment,
                       match=r"at shift 0, x\^1 has 0 where term 1 is 1"):
        align_and_compare(series, record)


def test_alignment_skips_at_most_one_leading_term():
    series = ratio((1,), (1, -1), 20)  # 1/(1-x): 1,1,1,...
    terms = (7,) + (1,) * 15
    # shifts 0 and 1 tie at 15 agreements, and shift 0 skips its first term
    assert align_and_compare(series, SequenceRecord(
        "A000012", terms, "fixture")) == Alignment(0, 1, 15, 0)
    # one more wrong term anywhere, the last one included, fails
    for index in range(1, 16):
        wrong = terms[:index] + (2,) + terms[index + 1:]
        with pytest.raises(NoAlignment):
            align_and_compare(
                series, SequenceRecord("A000012", wrong, "fixture"))


def test_ladder_alignment_is_deterministic():
    # parity-like series align at every other shift; smallest |shift| wins
    record = fetch_sequence("A000035", offline=True)
    series = evaluate("g0t", 20, t=1).series
    result = align_and_compare(series, record)
    assert result.shift == -1
    assert result.matches >= 15


def _align_by_index(series, record):
    # align_and_compare as it once read, one coefficient(n) call and one
    # bounds test per index, kept as the reference, plus the whole-overlap
    # rule as a second index loop and no shift at which the first nonzero
    # coefficient has no term: the Alignment it finds, or None where it
    # would raise NoAlignment
    lead = next((n for n in range(series.order + 1) if series.coefficient(n)),
                series.order + 1)
    best = None
    for shift in range(-5, 6):
        if lead + shift < 0:
            continue
        run = best_run = 0
        for n in range(series.order + 1):
            index = n + shift
            if 0 <= index < len(record.terms) \
                    and series.coefficient(n) == record.terms[index]:
                run += 1
                best_run = max(best_run, run)
            else:
                run = 0
        if best_run >= 9:
            key = (-best_run, abs(shift), shift)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    shift = best[2]
    overlap = [n for n in range(series.order + 1)
               if 0 <= n + shift < len(record.terms)]
    wrong = [n for n in overlap
             if series.coefficient(n) != record.terms[n + shift]]
    skipped = overlap[0] if wrong[:1] == overlap[:1] else None
    if len(wrong) > (skipped is not None):
        return None
    agreeing = overlap[1:] if skipped is not None else overlap
    return Alignment(shift, agreeing[0], len(agreeing), skipped)


@st.composite
def series_and_record(draw):
    # terms that repeat the coefficients at a drawn shift, a few of them
    # changed, so that runs of every length, ties between shifts and runs
    # cut at either end all turn up
    small = st.integers(0, 3)
    coeffs = draw(st.lists(small, min_size=9, max_size=30))
    shift = draw(st.integers(-7, 7))
    size = draw(st.integers(max(1, len(coeffs) - 8), len(coeffs) + 8))
    terms = [coeffs[n - shift] if 0 <= n - shift < len(coeffs)
             else draw(small) for n in range(size)]
    for _ in range(draw(st.integers(0, 2))):
        terms[draw(st.integers(0, size - 1))] = draw(small)
    order = draw(st.integers(max(0, len(coeffs) - 5), len(coeffs) + 5))
    series = TruncatedSeries(coeffs, order)
    return series, SequenceRecord("A000012", tuple(terms), "fixture")


@settings(max_examples=300, deadline=None)
@given(series_and_record())
def test_alignment_agrees_with_the_index_loop(pair):
    series, record = pair
    want = _align_by_index(series, record)
    if want is None:
        with pytest.raises(NoAlignment):
            align_and_compare(series, record)
    else:
        assert align_and_compare(series, record) == want


WHOLE_PATH_SHIFTS = {
    ("dap", ()): -2,
    ("Gp1", ()): -2,
    ("Gp2", ()): -3,
    ("Gp", ()): 0,
    ("Gm", ()): -2,
    ("G", ()): 0,
    ("Gm1", ()): -4,
    ("Gm2", ()): -2,
    ("g0", ()): -2,
    ("minorized", (("m", -1),)): 1,
    ("minorized", (("m", -2),)): 0,
    ("B", ()): 0,
}


@pytest.mark.parametrize("name,params,seq_id", CITED_PAIRS)
def test_every_cited_pairing_aligns(name, params, seq_id):
    record = fetch_sequence(seq_id, offline=True)
    series = evaluate(name, 20, **params).series
    result = align_and_compare(series, record)
    assert isinstance(result, Alignment)
    assert result.matches >= 9
    key = (name, tuple(sorted(params.items())))
    if key in WHOLE_PATH_SHIFTS:
        assert result.shift == WHOLE_PATH_SHIFTS[key]
    # f0 leaves out the empty path, so its first term is the one skipped
    assert result.skipped == (0 if name == "f0" else None)
    # the run reaches the last n with a term, and every value along it is
    # an exact coefficient agreement
    last = min(series.order, len(record.terms) - 1 - result.shift)
    assert result.start + result.matches - 1 == last
    for n in range(result.start, result.start + result.matches):
        assert series.coefficient(n) == record.terms[n + result.shift]
