"""Cross-verification harness behind the `verify` command.

Four suites, four check kinds:

- paper-series: every catalog series against its frozen reference
  expansion at the expansion's own length, then against each
  independent derivation that DUAL_PATHS lists for its name at the
  suite's order (dual_path): the first-return equation and the band
  substitution solved one coefficient at a time, the first-return
  systems solved by substitution, the kernel's square root, the split
  by last step, the per-ordinate sum, the shift correspondence, one
  fraction-free Cramer elimination per band (its determinant, every
  numerator and every confined series), the axis radical, the special
  heights' quadratic map and their arch grammar.
  Each reaches its series in one pass over the coefficients, never by
  iterating until nothing changes, and evaluate itself runs one route
  only;
- oracle: catalog coefficients against live exhaustive enumeration
  (oracle_vs_gf), height-bounded families two lengths further;
- bijections: round trips driven from the compositions, plus the worked
  examples (bijection_roundtrip): every composition of each length
  decodes to a path that maps back to it, and the decoded paths are
  distinct and exactly as many as the window's paths by count, so no
  path is listed;
- oeis: every cited series/sequence pairing aligns (gf_vs_oeis).

Checks run one after another in declaration order, and the report lists
them in that order; a check that raises is reported as a failure rather
than aborting the suite.

One run shares its kernels among its checks (catalog.sharing): each
catalog root (the kernel's square root, the climb root, the ceiling
root) and each confined band walk is built once per run, and each cited
OEIS record is fetched once per run.  Keys are exact, (radicand or
band, order) and the sequence id, so no value stands in for another
order, and each shared value runs its own exactness checks once.  The
tables are made when run_suite starts and dropped when it returns or
raises; nothing carries over to the next run, a run sees only its own
tables, so runs on several threads at once stay apart, and outside a
run every call computes afresh.  No evaluation is kept: each whole-path
series costs one product and one division by a quartic after its root,
and the other evaluations repeat only across suites, where keeping them
all costs more memory than the time it saves.
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul

from . import SUITES
from . import reference as ref
from .bijections import phi, phi_inv, psi, psi_inv
from .catalog import (
    KERNEL_RADICAND,
    _band_walk,
    band_cramer_numerators,
    evaluate,
    sharing,
)
from .enumeration import (
    POSITIVE,
    FamilySpec,
    count_paths_upto,
    enum_compositions,
)
from .errors import BadParams
from .oeis import CITED_PAIRS, align_and_compare, fetch_sequence
from .paths import parse_path
from .series import TruncatedSeries

CHECK_KINDS = ("oracle_vs_gf", "gf_vs_oeis", "bijection_roundtrip",
               "dual_path")


class CheckResult(namedtuple(
        "CheckResult", "subject check_kind range status first_mismatch",
        defaults=(None,))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.check_kind not in CHECK_KINDS:
            raise ValueError(f"unknown check kind {self.check_kind!r}")
        if self.status not in ("pass", "fail"):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == "pass" and self.first_mismatch is not None:
            raise ValueError("passing check cannot carry a mismatch")
        if self.status == "fail" and self.first_mismatch is None:
            raise ValueError("failing check must say what mismatched")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would skip the checks
        return cls(*iterable)


class VerificationReport(namedtuple("VerificationReport", "suite checks")):
    """A suite's name and its CheckResults, in order."""

    __slots__ = ()

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


def _first_difference(have, want):
    return next((n for n, (a, b) in enumerate(zip(have, want)) if a != b),
                None)


def _check_duals(name, params, order):
    for label, derive in DUAL_PATHS.get(name, ()):
        for claimed, claimed_params, derived in derive(order, **params):
            have = _series(claimed, derived.order, **claimed_params)
            n = _first_difference(have.coeffs, derived.coeffs)
            if n is not None:
                return (f"{label}: {_subject(claimed, claimed_params)} n={n}: "
                        f"series {have.coeffs[n]} != derived {derived.coeffs[n]}")
    return None


def _check_series_frozen(name, params, expected, order):
    # the frozen prefix at its own length, then the duals at the order
    got = evaluate(name, len(expected) - 1, **params).series
    n = _first_difference(got.coeffs, expected)
    if n is not None:
        return f"n={n}: series {got.coeffs[n]} != reference {expected[n]}"
    return _check_duals(name, params, order)


# ------------------------------------------------------------ dual paths

# A derivation maps a paper-series row's order and params to claims
# (catalog name, params, series): evaluating that name at the series' own
# order must give the series.  Each one reaches the claimed series by a
# route other than the one evaluate takes, and evaluate never runs it.

def _series(name, order, **params):
    return evaluate(name, order, **params).series


def _whole(poly, order):
    # a polynomial kept whole, however low the row's order
    return TruncatedSeries(poly, max(order, len(poly) - 1))


def _dap_fixed_point(order):
    # the first-return equation a = x^2 + x^2 a + x a + x a^2, solved one
    # coefficient at a time: every right-hand term carries a factor x or
    # x^2, so a_n = [n=2] + a_{n-2} + a_{n-1} + sum of a_i·a_{n-1-i} over
    # 1 <= i <= n-2 reads only coefficients below n
    a = [0, 0]
    for n in range(2, order + 1):
        inner = a[1:n - 1]
        a.append((n == 2) + a[n - 2] + a[n - 1]
                 + sum(map(mul, inner, reversed(inner))))
    return TruncatedSeries(a, order)


def _by_fixed_point(order):
    a = _dap_fixed_point(order)
    return [("dap", {}, a), ("P", {}, a.shift(1))]


def _by_radical_root(order):
    # Newton's square root W of the kernel radicand, and the climb root
    # s = (1 + x - x^2 - W) / (2x) read off it
    big = order + 1
    w = TruncatedSeries(KERNEL_RADICAND, big).sqrt()
    s = ((TruncatedSeries((1, 1, -1), big) - w) / 2).shift(-1)
    return [("W", {}, w), ("s2", {}, s), ("r2", {}, s)]


def _by_first_return_systems(order):
    # the step weights come from the first-return dap series, no radical:
    # Gp1 = arch·Gp, (1 - arch)·Gp2 = (x + a)·Gp1, Gp = 1 + Gp1 + Gp2 and
    # (1 - arch)·G = Gp, Gm = arch·G, solved by substitution; every
    # divisor has constant term 1.  Gm2 = Gp1 by the mirror-and-merge
    # pairing, and Gm1 = Gm - Gm2 splits Gm by its last step
    a = _dap_fixed_point(order)
    arch = TruncatedSeries.monomial(2, order) + a.shift(1)   # x^2 + x·a
    x = TruncatedSeries.monomial(1, order)
    gp = 1 / (1 - arch * (1 + (x + a) / (1 - arch)))
    gp1 = arch * gp
    g = gp / (1 - arch)
    gm = arch * g
    return [("Gp1", {}, gp1), ("Gp2", {}, gp - 1 - gp1), ("Gp", {}, gp),
            ("Gm", {}, gm), ("G", {}, g),
            ("Gm2", {}, gp1), ("Gm1", {}, gm - gp1)]


def _by_last_step(order):
    return [("G", {}, 1 + _series("f0", order) + _series("g0", order))]


def _by_ordinate_sum(order):
    # prefix_pos(k + 1) = x·s·prefix_pos(k), so the sum over every
    # ordinate k >= 1 is prefix_pos(1) / (1 - x·s)
    climb = _series("s2", order).shift(1)
    return [("prefix_pos_total", {},
             _series("prefix_pos", order, k=1) / (1 - climb))]


def _by_shift_correspondence(order, k):
    # x·P_{-1} = Gp - 1 and x^2·P_{-2} = Gp2
    whole = (_series("Gp", order + 1) - 1 if k == -1
             else _series("Gp2", order + 2))
    return [("prefix_neg", {"k": k}, whole.shift(k))]


def _minorized_band_total(m, order):
    # every unknown of the [m, order] band, one coefficient per step: a
    # length-n prefix cannot climb above n, so a ceiling at the order is
    # exact
    return TruncatedSeries([sum(f) + sum(g)
                            for f, g in _band_walk(m, order, order)], order)


def _by_band_substitution(order, m):
    return [("minorized", {"m": m}, _minorized_band_total(m, order))]


def _by_axis_radical(order, t):
    # radical closed form for the numerator of the axis down-ending entry,
    # in the kernel square root w and the conjugates w ± (1+x-x^2)
    w = _series("W", order)
    d1 = w + TruncatedSeries((1, 1, -1), order)
    d2 = w + TruncatedSeries((-1, -1, 1), order)
    num = d1 ** t - (-1) ** t * (d2 ** t)
    gate = (num / w).shift(2) / 2 ** t
    return [("g0t", {"t": t}, gate / _series("D", order, t=t))]


def _band_cramer(lo, hi, order):
    # one fraction-free elimination of the band between ordinates lo and
    # hi: its determinant, every Cramer numerator, and every unknown as
    # numerator / determinant at the order; the band matrix is -I at x = 0,
    # so the determinant has constant term 1 and each division is exact
    det, numerators = band_cramer_numerators(lo, hi)
    divisor = TruncatedSeries(det, order)
    return det, numerators, [TruncatedSeries(num, order) / divisor
                             for num in numerators]


def _by_band_cramer(order, t):
    det, numerators, unknowns = _band_cramer(0, t, order)
    claims = [("D", {"t": t}, _whole(det, order)),
              ("f0t", {"t": t}, unknowns[0])]
    claims += [("N", {"k": k, "t": t}, _whole(num, order))
               for k, num in enumerate(numerators)]
    for k in range(t + 1):
        claims.append(("fkt", {"k": k, "t": t}, unknowns[k]))
        claims.append(("gkt", {"k": k, "t": t}, unknowns[t + 1 + k]))
    return claims


def _by_centered_cramer(order, t):
    # the centered band's determinant is that of the band (0, 2t), and
    # its axis total is the sum of the two axis unknowns
    det, _, unknowns = _band_cramer(-t, t, order)
    width = 2 * t + 1
    claims = [("D", {"t": 2 * t}, _whole(det, order))]
    for k in range(-t, t + 1):
        claims.append(("sym_f", {"k": k, "t": t}, unknowns[t + k]))
        claims.append(("sym_g", {"k": k, "t": t}, unknowns[width + t + k]))
    claims.append(("sym", {"t": t}, unknowns[t] + unknowns[width + t]))
    return claims


def _by_arch_grammar(order):
    # B_i = B_{i-1} / (1 - w_i·(B_{i-1} - B_{i-2})) from B_{-1} = 0 and
    # B_0 = 1, with weight w_1 = x^2 and w_i = x above: the members of
    # height at most i, level by level, for ceilings 0..6; every divisor
    # has constant term 1
    x = TruncatedSeries.monomial(1, order)
    below, level = TruncatedSeries([], order), TruncatedSeries([1], order)
    claims = [("Bk", {"k": 0}, level), ("Ak", {"k": 0}, level)]
    for k in range(1, 7):
        weight = x * x if k == 1 else x
        below, level = level, level / (1 - weight * (level - below))
        claims += [("Bk", {"k": k}, level), ("Ak", {"k": k}, level - below)]
    return claims


def _by_quadratic_map(order):
    # b -> 1 + x^3·b + x^2·b^2 fixes exactly one power series, the root of
    # x^2·b^2 - (1-x^3)·b + 1 = 0, so one pass must give b back
    b = _series("B", order)
    return [("B", {}, 1 + b.shift(3) + (b * b).shift(2))]


# catalog name -> (label, derivation) pairs; every name here has a row in
# SERIES_TABLE, and each of its rows runs all of them at verify's order
DUAL_PATHS = {
    "dap": (("first-return fixed point", _by_fixed_point),
            ("radical square root", _by_radical_root)),
    "G": (("first-return systems", _by_first_return_systems),
          ("split by last step", _by_last_step)),
    "prefix_pos_total": (("per-ordinate sum", _by_ordinate_sum),),
    "prefix_neg": (("shift correspondence", _by_shift_correspondence),),
    "minorized": (("band substitution", _by_band_substitution),),
    "g0t": (("band Cramer elimination", _by_band_cramer),
            ("axis radical", _by_axis_radical)),
    "sym": (("centered Cramer elimination", _by_centered_cramer),),
    "B": (("quadratic map", _by_quadratic_map),
          ("arch grammar", _by_arch_grammar)),
}


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
                              "end_ordinate": POSITIVE}, 0, False),
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


def _check_series_oracle(name, params, spec_fields, epsilon, max_n):
    got = evaluate(name, max_n, **params).series
    counts = count_paths_upto(max_n, FamilySpec(**spec_fields))
    counts[0] += epsilon
    n = _first_difference(got.coeffs, counts)
    if n is not None:
        return f"n={n}: series {got.coeffs[n]} != oracle {counts[n]}"
    return None


# ------------------------------------------------------------ bijections

# name: (forward, inverse, window of the paths, composition total minus
# path length, composition kind, worked example)
BIJECTION_TABLE = {
    "psi": (psi, psi_inv, (0, 2), -2, "alt",
            ("UUD2UUDUD2UDUDUUD2", (1, 2, 3, 6, 1))),
    "phi": (phi, phi_inv, (-1, 1), 3, "alt_odd_even",
            ("UD2UUDUD2UDUDUUD", (3, 6, 3, 2, 1, 2))),
}


def _check_roundtrip(name, max_n=None):
    """Every composition of the family, at each path length up to max_n,
    decodes to a path of that length that the forward map sends back to
    it, and the decoded paths of each length are distinct and as many as
    the window holds; with no max_n, the worked example maps both ways.

    The forward map rejects any path outside the window, so the decoded
    paths are windowed, and being distinct and as many as the window's
    count, they are all of its paths: the two maps are inverse bijections
    between the window and the composition family, and no path is listed.
    """
    forward, inverse, (low, high), shift, kind, example = BIJECTION_TABLE[name]
    if max_n is None:
        text, composition = example
        path = parse_path(text)
        if forward(path) != composition:
            return f"{name} worked example gave {forward(path)}"
        if str(inverse(composition)) != text:
            return f"{name}_inv worked example mismatch"
        return None
    window = count_paths_upto(max_n,
                              FamilySpec(kind="gdap", min_y=low, max_y=high))
    # lengths start where the composition total is nonnegative
    for n in range(max(0, -shift), max_n + 1):
        compositions = enum_compositions(n + shift, kind)
        decoded = set()
        for composition in compositions:
            path = inverse(composition)
            if len(path) != n or forward(path) != composition:
                return f"n={n}: {name} round trip broke at {composition}"
            decoded.add(path)
        if len(decoded) != len(compositions):
            return (f"n={n}: {name}_inv decodes {len(compositions)} "
                    f"compositions to {len(decoded)} distinct paths")
        if len(decoded) != window[n]:
            return (f"n={n}: {name}_inv decodes {len(decoded)} paths, "
                    f"the window holds {window[n]}")
    return None


# ------------------------------------------------------------------ oeis

def _check_alignment(name, params, seq_id, order, offline, records):
    # align_and_compare raises NoAlignment below a 9-term run; a sequence
    # cited by several pairs is fetched once per run, into the run's
    # records under its id
    record = records.get(seq_id)
    if record is None:
        record = records[seq_id] = fetch_sequence(seq_id, offline=offline)
    align_and_compare(evaluate(name, order, **params).series, record)
    return None


# ---------------------------------------------------------------- driver

def _suite_checks(suite, max_n, order, offline):
    checks = []
    if suite in ("paper-series", "all"):
        for name, params, expected in SERIES_TABLE:
            checks.append((
                _subject(name, params), "dual_path",
                f"order {len(expected) - 1}; duals at order {order}",
                lambda n=name, p=params, e=expected:
                    _check_series_frozen(n, p, e, order)))
    if suite in ("oracle", "all"):
        for name, params, spec_fields, epsilon, bounded in ORACLE_TABLE:
            limit = max_n + 2 if bounded else max_n
            checks.append((
                _subject(name, params), "oracle_vs_gf", f"n <= {limit}",
                lambda n=name, p=params, s=spec_fields, e=epsilon, l=limit:
                    _check_series_oracle(n, p, s, e, l)))
    if suite in ("bijections", "all"):
        for scope, limit in ((f"n <= {max_n}", max_n),
                             ("worked example", None)):
            for name in BIJECTION_TABLE:
                checks.append((name, "bijection_roundtrip", scope,
                               lambda n=name, l=limit: _check_roundtrip(n, l)))
    if suite in ("oeis", "all"):
        records = {}
        for name, params, seq_id in CITED_PAIRS:
            checks.append((
                f"{_subject(name, params)} vs {seq_id}", "gf_vs_oeis",
                f"order {order}",
                lambda n=name, p=params, s=seq_id:
                    _check_alignment(n, p, s, order, offline, records)))
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
              offline: bool = False) -> VerificationReport:
    """Run one suite (or "all") and report every check."""
    if suite not in SUITES:
        raise BadParams(f"unknown suite {suite!r}; choose from {SUITES}")
    if max_n < 2:
        raise BadParams("max_n must be at least 2")
    # the oeis suite needs a 9-term matching run from every cited series;
    # Gm1 has four leading zeros, so its run first fits at order 12
    if order < 12:
        raise BadParams("order must be at least 12")
    checks = _suite_checks(suite, max_n, order, offline)
    with sharing():
        results = [_run_check(entry) for entry in checks]
    return VerificationReport(suite, tuple(results))
