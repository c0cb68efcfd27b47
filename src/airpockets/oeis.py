"""OEIS sequence access with three layers: the network, a disk cache, and
bundled fixtures, plus shift alignment against catalog series.

Online, lookup order is network, then cache, then fixture: a fetch that
fails or whose body is not a b-file falls through, and a good one is
written to the cache atomically when the cache can be written.  Offline,
only the bundled fixture is read, so an offline report does not depend
on what a cache directory holds.

Alignment is discovered, never hard-coded: offsets drift across OEIS
revisions, so align_and_compare slides the series against the terms over
shifts in [-5, 5] and picks the shift with the longest run of
consecutive agreements, provided the run is at least 9 terms long.  A
shift qualifies only when its overlap starts no later than the series'
first nonzero coefficient, so no shift can leave a leading coefficient
out of the comparison.  At that shift the series and the terms must
agree wherever both have a term, less at most the first such term,
which the alignment reports.
"""

from __future__ import annotations

import os
import re
from collections import namedtuple

from .errors import (
    NetworkUnavailable,
    NoAlignment,
    ParseError,
    UnknownSequence,
)
from .series import TruncatedSeries

_ID_PATTERN = re.compile(r"A[0-9]{6}")    # read with fullmatch
_ENDPOINT = "https://oeis.org/{id}/b{digits}.txt"
FETCH_TIMEOUT_S = 10.0    # seconds a b-file request may wait

# every (catalog name, parameters, sequence id) pairing the source text
# ties together; the verify suite and the fixture tests walk this table
CITED_PAIRS = (
    ("dap", {}, "A004148"),
    ("Gp1", {}, "A051286"),
    ("Gp2", {}, "A110320"),
    ("Gp", {}, "A110236"),
    ("Gm", {}, "A203611"),
    ("G", {}, "A051291"),
    ("Gm1", {}, "A110320"),
    ("Gm2", {}, "A051286"),
    ("f0", {}, "A110236"),
    ("g0", {}, "A203611"),
    ("prefix_neg", {"k": -1}, "A110236"),
    ("prefix_neg", {"k": -2}, "A110320"),
    ("minorized", {"m": -1}, "A004148"),
    ("minorized", {"m": -2}, "A093128"),
    ("g0t", {"t": 1}, "A000035"),
    ("g0t", {"t": 2}, "A062200"),
    ("sym", {"t": 1}, "A122514"),
    ("B", {}, "A329699"),
)

CITED_IDS = tuple(sorted({pair[2] for pair in CITED_PAIRS}))


class SequenceRecord(namedtuple("SequenceRecord", "id terms source")):
    """A sequence id, its terms in index order, and where they came from
    (source is "network", "cache" or "fixture")."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not _ID_PATTERN.fullmatch(self.id):
            raise ValueError(f"malformed sequence id {self.id!r}")
        if not self.terms:
            raise ValueError(f"{self.id}: no terms")
        if self.source not in ("network", "cache", "fixture"):
            raise ValueError(f"unknown source {self.source!r}")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would skip the checks
        return cls(*iterable)


class Alignment(namedtuple("Alignment", "shift start matches skipped")):
    """A successful shift: series[n] == terms[n + shift] along the run;
    the run starts at series index `start`, is `matches` terms long and
    reaches the last n with a term.  `skipped` is the one n before the
    run that has a term and disagrees, or None when the run starts at the
    first n with a term."""

    __slots__ = ()


def parse_bfile(text: str, seq_id: str = "sequence") -> tuple[int, ...]:
    """Terms from b-file text: "index value" lines, '#' comments skipped.

    Indices must advance by one per data line (any starting offset).
    """
    terms: list[int] = []
    prev_index: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(
                f"{seq_id} line {lineno}: expected 'index value', got {raw!r}")
        try:
            index, value = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(
                f"{seq_id} line {lineno}: non-integer field in {raw!r}") from None
        if prev_index is not None and index != prev_index + 1:
            raise ParseError(
                f"{seq_id} line {lineno}: index {index} does not follow "
                f"{prev_index}")
        prev_index = index
        terms.append(value)
    if not terms:
        raise ParseError(f"{seq_id}: no data lines")
    return tuple(terms)


def _format_bfile(seq_id: str, terms: tuple[int, ...]) -> str:
    lines = [f"# {seq_id}, cached by airpockets"]
    lines += [f"{i} {v}" for i, v in enumerate(terms)]
    return "\n".join(lines) + "\n"


def cache_dir() -> str:
    configured = os.environ.get("AIRPOCKETS_OEIS_CACHE")
    if configured:
        return configured
    return os.path.join(os.path.expanduser("~"), ".cache", "airpockets", "oeis")


def _cache_path(seq_id: str) -> str:
    return os.path.join(cache_dir(), f"{seq_id}.txt")


def _write_cache(seq_id: str, terms: tuple[int, ...]) -> None:
    import tempfile  # only a network fetch writes the cache

    directory = cache_dir()
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(_format_bfile(seq_id, terms))
        os.replace(tmp, _cache_path(seq_id))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _http_get(url: str, timeout: float) -> str:
    """GET the url; UnknownSequence on 404, OSError on any other failure."""
    # imported here: urllib costs every launch tens of milliseconds, and
    # only a network fetch needs it
    import http.client
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        if exc.code == 404:
            raise UnknownSequence(f"no b-file at {url}") from None
        raise OSError(f"HTTP {exc.code} from {url}") from None
    except urllib.error.URLError as exc:
        raise OSError(f"cannot reach {url}: {exc.reason}") from None
    except (http.client.HTTPException, UnicodeDecodeError) as exc:
        # a truncated or non-UTF-8 body: a failed fetch, like no answer
        raise OSError(f"bad response from {url}: {exc!r}") from None


def _fixture_text(seq_id: str) -> str | None:
    # imported here: on an interpreter whose site hook has not loaded it,
    # importlib.resources (with inspect, pathlib and zipfile) costs a
    # launch tens of milliseconds
    from importlib import resources

    path = resources.files("airpockets").joinpath("fixtures", f"{seq_id}.txt")
    if not path.is_file():
        return None
    return path.read_text(encoding="utf-8")


def fetch_sequence(seq_id: str, *, offline: bool = False) -> SequenceRecord:
    """Resolve a sequence: network, then cache, then bundled fixture.

    offline reads the bundled fixture alone.  A fetch that fails or gets
    no b-file falls back, a good one is cached, and the record's source
    names the layer read.  UnknownSequence reports an authoritative 404,
    ParseError a corrupt cache entry, NetworkUnavailable an empty ladder.
    """
    if not _ID_PATTERN.fullmatch(seq_id):
        raise ValueError(f"malformed sequence id {seq_id!r}")
    if offline:
        missing = "no fixture, and offline"
    else:
        url = _ENDPOINT.format(id=seq_id, digits=seq_id[1:])
        try:
            terms = parse_bfile(_http_get(url, FETCH_TIMEOUT_S), seq_id)
        except (OSError, ParseError) as exc:
            missing = f"{exc}, no cache entry, and no fixture"
        else:
            try:
                _write_cache(seq_id, terms)
            except OSError:
                pass  # the fetched terms stand without a cached copy
            return SequenceRecord(seq_id, terms, "network")
        path = _cache_path(seq_id)
        if os.path.exists(path):
            # a byte that is not UTF-8 fails the parse as a bad field
            with open(path, encoding="utf-8", errors="replace") as handle:
                terms = parse_bfile(handle.read(), seq_id)
            return SequenceRecord(seq_id, terms, "cache")
    text = _fixture_text(seq_id)
    if text is None:
        raise NetworkUnavailable(f"{seq_id}: {missing}")
    return SequenceRecord(seq_id, parse_bfile(text, seq_id), "fixture")


def align_and_compare(series: TruncatedSeries,
                      record: SequenceRecord) -> Alignment:
    """The shift in [-5, 5] with the longest run of consecutive agreements,
    checked over the whole overlap of series and terms.

    Only shifts whose overlap starts at or before the series' first
    nonzero coefficient are tried: on a periodic sequence such as
    A000035, a shift further left would start past a wrong early
    coefficient and agree everywhere after it.  The run must be at least
    9 terms long; ties prefer the smaller |shift|, then the smaller
    shift.  At that shift every n with a term must agree, less at most
    the first, which is reported as skipped.
    Raises NoAlignment when no shift qualifies or another term disagrees.
    """
    best: tuple[int, int, int] | None = None
    # an overlap starts at x^-shift, which must not pass the first
    # nonzero coefficient
    low = -min(5, next((n for n, c in enumerate(series.coeffs) if c),
                       len(series.coeffs)))
    for shift in range(low, 6):
        # series[n] meets terms[n + shift] from the first n with a term;
        # the pairs stop where either side ends
        first = max(0, -shift)
        pairs = zip(series.coeffs[first:], record.terms[first + shift:])
        run = best_run = 0
        for have, want in pairs:
            run = run + 1 if have == want else 0
            best_run = max(best_run, run)
        if best_run >= 9:
            key = (-best_run, abs(shift), shift)
            if best is None or key < best:
                best = key
    if best is None:
        raise NoAlignment(
            f"{record.id}: no shift in [{low}, 5] yields 9 consecutive "
            "matches")
    shift = best[2]
    first = max(0, -shift)
    end = min(len(series.coeffs), len(record.terms) - shift)
    wrong = [n for n in range(first, end)
             if series.coeffs[n] != record.terms[n + shift]]
    skipped = wrong.pop(0) if wrong[:1] == [first] else None
    if wrong:
        n = wrong[0]
        raise NoAlignment(
            f"{record.id}: at shift {shift}, x^{n} has {series.coeffs[n]} "
            f"where term {n + shift} is {record.terms[n + shift]}")
    start = first + (skipped is not None)
    return Alignment(shift, start, end - start, skipped)
