"""Cross-verification harness behind the `verify` command.

Four suites, four check kinds:

- paper-series: every catalog series against its frozen reference
  expansion (dual_path: closed form vs independently derived counts);
- oracle: catalog coefficients against live exhaustive enumeration
  (oracle_vs_gf), height-bounded families two lengths further;
- bijections: exhaustive round trips plus image discipline and the
  worked examples (bijection_roundtrip);
- oeis: every cited series/sequence pairing aligns (gf_vs_oeis).

Checks run one after another in declaration order, and the report lists
them in that order; a check that raises is reported as a failure rather
than aborting the suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import reference as ref
from .bijections import phi, phi_inv, psi, psi_inv
from .catalog import evaluate
from .enumeration import FamilySpec, count_paths, enum_compositions, enum_paths
from .errors import InfeasibleSpec
from .oeis import CITED_PAIRS, align_and_compare, fetch_sequence
from .paths import parse_path

CHECK_KINDS = ("oracle_vs_gf", "gf_vs_oeis", "bijection_roundtrip",
               "dual_path")
SUITES = ("paper-series", "oracle", "bijections", "oeis", "all")


@dataclass(frozen=True)
class CheckResult:
    subject: str
    check_kind: str
    range: str
    status: str
    first_mismatch: str | None = None

    def __post_init__(self):
        if self.check_kind not in CHECK_KINDS:
            raise ValueError(f"unknown check kind {self.check_kind!r}")
        if self.status not in ("pass", "fail"):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == "pass" and self.first_mismatch is not None:
            raise ValueError("passing check cannot carry a mismatch")
        if self.status == "fail" and self.first_mismatch is None:
            raise ValueError("failing check must say what mismatched")


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(check.status == "pass" for check in self.checks)


def _subject(name: str, params: dict) -> str:
    return name + "".join(f" {k}={v}" for k, v in sorted(params.items()))


# ---------------------------------------------------------- paper-series

# frozen reference expansions; every printed coefficient is among these
SERIES_TABLE = (
    ("dap", {}, ref.DAP_COUNTS),
    ("G", {}, ref.GDAP_COUNTS),
    ("Gp", {}, ref.GDAP_UP_COUNTS),
    ("Gp1", {}, ref.GDAP_UP_DOWN_COUNTS),
    ("Gp2", {}, ref.GDAP_UP_UP_COUNTS),
    ("Gm", {}, ref.GDAP_DOWN_COUNTS),
    ("Gm1", {}, ref.GDAP_DOWN_DOWN_COUNTS),
    ("Gm2", {}, ref.GDAP_DOWN_UP_COUNTS),
    ("f0", {}, ref.PREFIX_END0_UP_COUNTS),
    ("g0", {}, ref.PREFIX_END0_DOWN_COUNTS),
    ("prefix_pos_total", {}, ref.PREFIX_POSITIVE_COUNTS),
    ("prefix_neg", {"k": -1}, ref.PREFIX_END_MINUS1_COUNTS),
    ("prefix_neg", {"k": -2}, ref.PREFIX_END_MINUS2_COUNTS),
    ("minorized", {"m": -1}, ref.FLOORED_PREFIX_COUNTS[-1]),
    ("minorized", {"m": -2}, ref.FLOORED_PREFIX_COUNTS[-2]),
    ("g0t", {"t": 1}, ref.BAND_LOW_COUNTS[1]),
    ("g0t", {"t": 2}, ref.BAND_LOW_COUNTS[2]),
    ("g0t", {"t": 3}, ref.BAND_LOW_COUNTS[3]),
    ("g0t", {"t": 4}, ref.BAND_LOW_COUNTS[4]),
    ("sym", {"t": 1}, ref.BAND_SYM_COUNTS[1]),
    ("sym", {"t": 2}, ref.BAND_SYM_COUNTS[2]),
    ("sym", {"t": 3}, ref.BAND_SYM_COUNTS[3]),
    ("B", {}, ref.SPECIAL_H_COUNTS),
)


def _check_series_frozen(name, params, expected):
    got = evaluate(name, len(expected) - 1, **params).series
    for n, want in enumerate(expected):
        have = got.coefficient(n)
        if have != want:
            return f"n={n}: series {have} != reference {want}"
    return None


# ---------------------------------------------------------------- oracle

# catalog name, params, enumeration spec, whether the series counts the
# empty path on top of what the spec admits, bounded flag
ORACLE_TABLE = (
    ("dap", {}, {"kind": "dap"}, 0, False),
    ("G", {}, {"kind": "gdap"}, 0, False),
    ("Gp", {}, {"kind": "gdap", "start_step": "up"}, 1, False),
    ("Gm", {}, {"kind": "gdap", "start_step": "down"}, 0, False),
    ("Gp1", {}, {"kind": "gdap", "start_step": "up",
                 "end_step": "down"}, 0, False),
    ("Gp2", {}, {"kind": "gdap", "start_step": "up",
                 "end_step": "up"}, 0, False),
    ("Gm1", {}, {"kind": "gdap", "start_step": "down",
                 "end_step": "down"}, 0, False),
    ("Gm2", {}, {"kind": "gdap", "start_step": "down",
                 "end_step": "up"}, 0, False),
    ("f0", {}, {"kind": "prefix_gdap", "end_ordinate": 0,
                "end_step": "up"}, 0, False),
    ("g0", {}, {"kind": "prefix_gdap", "end_ordinate": 0,
                "end_step": "down"}, 0, False),
    ("prefix_pos", {"k": 1}, {"kind": "prefix_gdap",
                              "end_ordinate": 1}, 0, False),
    ("prefix_pos", {"k": 2}, {"kind": "prefix_gdap",
                              "end_ordinate": 2}, 0, False),
    ("prefix_pos", {"k": 3}, {"kind": "prefix_gdap",
                              "end_ordinate": 3}, 0, False),
    ("prefix_pos_total", {}, {"kind": "prefix_gdap",
                              "end_ordinate": "positive"}, 0, False),
    ("prefix_neg", {"k": -1}, {"kind": "prefix_gdap",
                               "end_ordinate": -1}, 0, False),
    ("prefix_neg", {"k": -2}, {"kind": "prefix_gdap",
                               "end_ordinate": -2}, 0, False),
    ("minorized", {"m": 0}, {"kind": "prefix_gdap", "min_y": 0}, 0, False),
    ("minorized", {"m": -1}, {"kind": "prefix_gdap", "min_y": -1}, 0, False),
    ("minorized", {"m": -2}, {"kind": "prefix_gdap", "min_y": -2}, 0, False),
    ("f0t", {"t": 1}, {"kind": "prefix_gdap", "min_y": 0, "max_y": 1,
                       "end_ordinate": 0, "end_step": "up"}, 1, True),
    ("f0t", {"t": 2}, {"kind": "prefix_gdap", "min_y": 0, "max_y": 2,
                       "end_ordinate": 0, "end_step": "up"}, 1, True),
    ("f0t", {"t": 3}, {"kind": "prefix_gdap", "min_y": 0, "max_y": 3,
                       "end_ordinate": 0, "end_step": "up"}, 1, True),
    ("g0t", {"t": 1}, {"kind": "prefix_gdap", "min_y": 0, "max_y": 1,
                       "end_ordinate": 0, "end_step": "down"}, 0, True),
    ("g0t", {"t": 2}, {"kind": "prefix_gdap", "min_y": 0, "max_y": 2,
                       "end_ordinate": 0, "end_step": "down"}, 0, True),
    ("g0t", {"t": 3}, {"kind": "prefix_gdap", "min_y": 0, "max_y": 3,
                       "end_ordinate": 0, "end_step": "down"}, 0, True),
    ("sym", {"t": 1}, {"kind": "prefix_gdap", "min_y": -1, "max_y": 1,
                       "end_ordinate": 0}, 0, True),
    ("sym", {"t": 2}, {"kind": "prefix_gdap", "min_y": -2, "max_y": 2,
                       "end_ordinate": 0}, 0, True),
    ("B", {}, {"kind": "special_h"}, 0, True),
)


def _oracle_count(n, spec_fields):
    fields = dict(spec_fields)
    # a "positive" end ordinate means summing every strictly positive one
    if fields.get("end_ordinate") == "positive":
        total = 0
        for k in range(1, n + 1):
            fields["end_ordinate"] = k
            try:
                total += count_paths(n, FamilySpec(**fields))
            except InfeasibleSpec:
                pass
        return total
    try:
        return count_paths(n, FamilySpec(**fields))
    except InfeasibleSpec:
        return 0  # endpoint unreachable at this length


def _check_series_oracle(name, params, spec_fields, epsilon, max_n):
    got = evaluate(name, max_n, **params).series
    for n in range(max_n + 1):
        want = _oracle_count(n, spec_fields) + (epsilon if n == 0 else 0)
        have = got.coefficient(n)
        if have != want:
            return f"n={n}: series {have} != oracle {want}"
    return None


# ------------------------------------------------------------ bijections

def _check_psi_roundtrip(max_n):
    narrow = FamilySpec(kind="gdap", min_y=0, max_y=2)
    for n in range(2, max_n + 1):
        paths = enum_paths(n, narrow)
        images = []
        for path in paths:
            composition = psi(path)
            if psi_inv(composition) != path:
                return f"n={n}: psi round trip broke at {path}"
            images.append(composition)
        expected = enum_compositions(n - 2, "alt")
        if sorted(images) != sorted(expected):
            return (f"n={n}: psi image has {len(set(images))} compositions, "
                    f"family needs {len(expected)}")
    return None


def _check_phi_roundtrip(max_n):
    centered = FamilySpec(kind="gdap", min_y=-1, max_y=1)
    for n in range(max_n + 1):
        paths = enum_paths(n, centered)
        images = []
        for path in paths:
            composition = phi(path)
            if phi_inv(composition) != path:
                return f"n={n}: phi round trip broke at {path}"
            images.append(composition)
        expected = enum_compositions(n + 3, "alt_odd_even")
        if sorted(images) != sorted(expected):
            return (f"n={n}: phi image has {len(set(images))} compositions, "
                    f"family needs {len(expected)}")
    return None


def _check_psi_example():
    path = parse_path("UUD2UUDUD2UDUDUUD2")
    if psi(path) != (1, 2, 3, 6, 1):
        return f"psi worked example gave {psi(path)}"
    if str(psi_inv((1, 2, 3, 6, 1))) != "UUD2UUDUD2UDUDUUD2":
        return "psi_inv worked example mismatch"
    return None


def _check_phi_example():
    path = parse_path("UD2UUDUD2UDUDUUD")
    if phi(path) != (3, 6, 3, 2, 1, 2):
        return f"phi worked example gave {phi(path)}"
    if str(phi_inv((3, 6, 3, 2, 1, 2))) != "UD2UUDUD2UDUDUUD":
        return "phi_inv worked example mismatch"
    return None


# ------------------------------------------------------------------ oeis

def _check_alignment(name, params, seq_id, order, offline, refresh):
    record = fetch_sequence(seq_id, offline=offline, refresh=refresh)
    series = evaluate(name, order, **params).series
    result = align_and_compare(series, record, min_match=9)
    if result.matches < 9:
        return f"{seq_id}: run of {result.matches} < 9"
    return None


# ---------------------------------------------------------------- driver

def _suite_checks(suite, max_n, order, offline, refresh):
    checks = []
    if suite in ("paper-series", "all"):
        for name, params, expected in SERIES_TABLE:
            checks.append((
                _subject(name, params), "dual_path",
                f"order {len(expected) - 1}",
                lambda n=name, p=params, e=expected:
                    _check_series_frozen(n, p, e)))
    if suite in ("oracle", "all"):
        for name, params, spec_fields, epsilon, bounded in ORACLE_TABLE:
            limit = max_n + 2 if bounded else max_n
            checks.append((
                _subject(name, params), "oracle_vs_gf", f"n <= {limit}",
                lambda n=name, p=params, s=spec_fields, e=epsilon, l=limit:
                    _check_series_oracle(n, p, s, e, l)))
    if suite in ("bijections", "all"):
        checks.append(("psi", "bijection_roundtrip", f"n <= {max_n}",
                       lambda: _check_psi_roundtrip(max_n)))
        checks.append(("phi", "bijection_roundtrip", f"n <= {max_n}",
                       lambda: _check_phi_roundtrip(max_n)))
        checks.append(("psi", "bijection_roundtrip", "worked example",
                       _check_psi_example))
        checks.append(("phi", "bijection_roundtrip", "worked example",
                       _check_phi_example))
    if suite in ("oeis", "all"):
        for name, params, seq_id in CITED_PAIRS:
            checks.append((
                f"{_subject(name, params)} vs {seq_id}", "gf_vs_oeis",
                f"order {order}",
                lambda n=name, p=params, s=seq_id:
                    _check_alignment(n, p, s, order, offline, refresh)))
    return checks


def _run_check(entry):
    subject, kind, scope, thunk = entry
    try:
        mismatch = thunk()
    except Exception as exc:  # a broken check is a failed check
        mismatch = f"{type(exc).__name__}: {exc}"
    if mismatch is None:
        return CheckResult(subject, kind, scope, "pass")
    return CheckResult(subject, kind, scope, "fail", mismatch)


def run_suite(suite: str, *, max_n: int = 10, order: int = 20,
              offline: bool = False,
              refresh: bool = False) -> VerificationReport:
    """Run one suite (or "all") and report every check."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    # the oeis suite needs a 9-term matching run from every cited series;
    # Gm1 has four leading zeros, so its run first fits at order 12
    if order < 12:
        raise ValueError("order must be at least 12")
    checks = _suite_checks(suite, max_n, order, offline, refresh)
    results = [_run_check(entry) for entry in checks]
    return VerificationReport(suite, tuple(results))
