"""Batch command line: evaluate series, enumerate families, apply the
bijections, and run the verification harness.

Exit codes: 0 success, 1 failed verification, 2 unknown series name,
3 bad parameters, a request above a size ceiling or an infeasible
enumeration, 4 input outside a bijection's domain.  Data goes to stdout,
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .bijections import phi, phi_inv, psi, psi_inv
from .catalog import evaluate, series_names
from .enumeration import (
    FamilySpec,
    count_motzkin_avoiding,
    count_paths,
    enum_motzkin_avoiding,
    enum_paths,
)
from .errors import (
    BadParams,
    ConsecutiveDowns,
    InfeasibleSpec,
    MalformedToken,
    NotAlternating,
    NotInCPrime,
    NotInFamily,
    UnknownName,
)
from .paths import EMPTY, LatticePath, parse_path
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_UNKNOWN_NAME = 2
EXIT_BAD_PARAMS = 3
EXIT_NOT_IN_FAMILY = 4

# Size ceilings.  A request above one exits 3 before any work starts.  The
# slowest accepted series request, `series sym --t 20000 --order 1000`,
# takes about 36 s on a 2-CPU Xeon with Python 3.11; raise the ceilings as
# routes get cheaper.
MAX_ORDER = 1000                # series --order, verify --order
MAX_T = 20_000                  # series --t
MAX_ORDINATE = 2 * MAX_T + 1    # |series --k|, |series --m|
MAX_LENGTH = 2000               # enumerate --length
MAX_H_LENGTH = 400              # enumerate --family H --length: a cubic count
MAX_LISTED_PATHS = 2_000_000    # enumerate --list, checked by counting first
MAX_N = 100                     # verify --max-n
MAX_ROUNDTRIP_N = 22            # verify --max-n for the listing bijection suites

FAMILY_KINDS = {
    "dap": "dap",
    "gdap": "gdap",
    "prime": "prime",
    "prefix": "prefix_gdap",
    "H": "special_h",
    "motzkin": "motzkin_avoid",
}


class _Parser(argparse.ArgumentParser):
    """Usage problems are parameter problems, not the default exit 2."""

    def error(self, message):
        self.exit(EXIT_BAD_PARAMS, f"{self.prog}: error: {message}\n")


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _csv_rows(rows) -> str:
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue()


def _above_ceiling(args, ceilings) -> str | None:
    """The message for the first flag whose size is above its ceiling.

    The ordinates --k and --m are bounded in absolute value; a negative
    value of any other flag is left to that flag's own floor.
    """
    for flag, ceiling in ceilings:
        value = getattr(args, flag)
        if value is None:
            continue
        name = "--" + flag.replace("_", "-")
        if value > ceiling:
            return f"{name} {value} is above the ceiling of {ceiling}"
        if flag in ("k", "m") and value < -ceiling:
            return f"{name} {value} is below the floor of {-ceiling}"
    return None


def _render_path(path: LatticePath | str) -> str:
    return str(path) if len(path) else "ε"


# ---------------------------------------------------------------- series

def _cmd_series(args) -> int:
    over = _above_ceiling(args, (("order", MAX_ORDER), ("k", MAX_ORDINATE),
                                 ("t", MAX_T), ("m", MAX_ORDINATE)))
    if over:
        return _fail(EXIT_BAD_PARAMS, over)
    params = {key: getattr(args, key)
              for key in ("k", "t", "m") if getattr(args, key) is not None}
    try:
        named = evaluate(args.name, args.order, **params)
    except UnknownName:
        known = ", ".join(series_names())
        return _fail(EXIT_UNKNOWN_NAME,
                     f"unknown series {args.name!r}; known names: {known}")
    except BadParams as exc:
        return _fail(EXIT_BAD_PARAMS, str(exc))
    coeffs = named.series.integer_coefficients()
    if args.format == "json":
        _emit(_canonical_json({
            "name": named.name,
            "params": params,
            "coeffs": coeffs,
        }))
    elif args.format == "csv":
        rows = [("n", "coefficient")] + list(enumerate(coeffs))
        _emit(_csv_rows(rows))
    else:
        _emit(" ".join(str(c) for c in coeffs))
    return EXIT_OK


# ------------------------------------------------------------- enumerate

def _cmd_enumerate(args) -> int:
    kind = FAMILY_KINDS[args.family]
    over = _above_ceiling(args, (
        ("length", MAX_H_LENGTH if kind == "special_h" else MAX_LENGTH),))
    if over:
        return _fail(EXIT_BAD_PARAMS, over)
    fields = {"kind": kind}
    for flag, field in (("min_y", "min_y"), ("max_y", "max_y"),
                        ("end_ordinate", "end_ordinate"),
                        ("end_step", "end_step"),
                        ("start_step", "start_step")):
        value = getattr(args, flag)
        if value is not None:
            fields[field] = value
    try:
        if kind == "motzkin_avoid":
            if len(fields) > 1:
                raise InfeasibleSpec(
                    "the motzkin family takes no window or endpoint flags")
            total = count_motzkin_avoiding(args.length)
            listing = enum_motzkin_avoiding
        else:
            spec = FamilySpec(**fields)
            total = count_paths(args.length, spec)
            listing = partial(enum_paths, spec=spec)
        if args.list:
            if total > MAX_LISTED_PATHS:
                return _fail(EXIT_BAD_PARAMS,
                             f"--list would print {total} paths, above the "
                             f"ceiling of {MAX_LISTED_PATHS}; use --count")
            paths = listing(args.length)
    except InfeasibleSpec as exc:
        return _fail(EXIT_BAD_PARAMS, str(exc))
    except (TypeError, ValueError) as exc:
        return _fail(EXIT_BAD_PARAMS, str(exc))
    if args.list:
        rendered = [_render_path(p) for p in paths]
        if args.format == "json":
            _emit(_canonical_json({
                "family": args.family,
                "length": args.length,
                "paths": rendered,
            }))
        elif args.format == "csv":
            _emit(_csv_rows([("path",)] + [(r,) for r in rendered]))
        else:
            _emit("\n".join(rendered) if rendered else "")
    else:
        if args.format == "json":
            _emit(_canonical_json({
                "family": args.family,
                "length": args.length,
                "count": total,
            }))
        elif args.format == "csv":
            _emit(_csv_rows([("count",), (total,)]))
        else:
            _emit(str(total))
    return EXIT_OK


# ------------------------------------------------------------------- map

def _parse_composition(text: str) -> tuple[int, ...]:
    cleaned = text.strip()
    if not cleaned or cleaned == "ε":
        return ()
    return tuple(int(part) for part in cleaned.split(","))


def _cmd_map(args) -> int:
    forward = {"psi": psi, "phi": phi}[args.bijection]
    backward = {"psi": psi_inv, "phi": phi_inv}[args.bijection]
    try:
        if args.apply is not None:
            source = args.apply.strip()
            path = EMPTY if source in ("", "ε") else parse_path(source)
            composition = forward(path)
            output = ",".join(str(part) for part in composition)
            record = {"bijection": args.bijection, "direction": "apply",
                      "input": _render_path(path), "output": output}
        else:
            composition = _parse_composition(args.invert)
            path = backward(composition)
            output = _render_path(path)
            record = {"bijection": args.bijection, "direction": "invert",
                      "input": ",".join(str(p) for p in composition),
                      "output": output}
    except (NotInFamily, NotAlternating, NotInCPrime, MalformedToken,
            ConsecutiveDowns, ValueError) as exc:
        return _fail(EXIT_NOT_IN_FAMILY, str(exc))
    if args.format == "json":
        _emit(_canonical_json(record))
    elif args.format == "csv":
        _emit(_csv_rows([("input", "output"),
                         (record["input"], record["output"])]))
    else:
        _emit(output)
    return EXIT_OK


# ---------------------------------------------------------------- verify

def _cmd_verify(args) -> int:
    # the bijection round trips list every path up to --max-n
    roundtrips = args.suite in ("bijections", "all")
    over = _above_ceiling(args, (
        ("max_n", MAX_ROUNDTRIP_N if roundtrips else MAX_N),
        ("order", MAX_ORDER)))
    if over:
        return _fail(EXIT_BAD_PARAMS, over)
    try:
        report = run_suite(args.suite, max_n=args.max_n, order=args.order,
                           offline=args.offline, refresh=args.refresh)
    except ValueError as exc:
        return _fail(EXIT_BAD_PARAMS, str(exc))
    passed = sum(1 for c in report.checks if c.status == "pass")
    if args.format == "json":
        _emit(_canonical_json({
            "suite": report.suite,
            "ok": report.ok,
            "checks": [{
                "subject": c.subject,
                "check_kind": c.check_kind,
                "range": c.range,
                "status": c.status,
                "first_mismatch": c.first_mismatch,
            } for c in report.checks],
        }))
    elif args.format == "csv":
        rows = [("subject", "check_kind", "range", "status",
                 "first_mismatch")]
        rows += [(c.subject, c.check_kind, c.range, c.status,
                  c.first_mismatch or "") for c in report.checks]
        _emit(_csv_rows(rows))
    else:
        lines = []
        for c in report.checks:
            line = f"[{c.status}] {c.subject} ({c.check_kind}, {c.range})"
            if c.first_mismatch:
                line += f": {c.first_mismatch}"
            lines.append(line)
        lines.append(f"{passed}/{len(report.checks)} checks passed")
        _emit("\n".join(lines))
    if not report.ok:
        print(f"verification failed: {len(report.checks) - passed} "
              "check(s) did not pass", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="airpockets",
                     description="Lattice path series, enumeration, "
                                 "bijections, and verification.")
    commands = parser.add_subparsers(dest="command", required=True)

    p_series = commands.add_parser("series", help="print series coefficients")
    p_series.add_argument("name")
    p_series.add_argument("--order", type=int, default=20)
    p_series.add_argument("--k", type=int, default=None)
    p_series.add_argument("--t", type=int, default=None)
    p_series.add_argument("--m", type=int, default=None)
    p_series.add_argument("--format", choices=("plain", "json", "csv"),
                          default="plain")
    p_series.set_defaults(handler=_cmd_series)

    p_enum = commands.add_parser("enumerate", help="list or count a family")
    p_enum.add_argument("--family", choices=sorted(FAMILY_KINDS),
                        default="gdap")
    p_enum.add_argument("--length", type=int, required=True)
    p_enum.add_argument("--min-y", dest="min_y", type=int, default=None)
    p_enum.add_argument("--max-y", dest="max_y", type=int, default=None)
    p_enum.add_argument("--end-ordinate", dest="end_ordinate", type=int,
                        default=None)
    p_enum.add_argument("--end-step", dest="end_step",
                        choices=("up", "down"), default=None)
    p_enum.add_argument("--start-step", dest="start_step",
                        choices=("up", "down"), default=None)
    group = p_enum.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", action="store_true")
    group.add_argument("--count", action="store_true")
    p_enum.add_argument("--format", choices=("plain", "json", "csv"),
                        default="plain")
    p_enum.set_defaults(handler=_cmd_enumerate)

    p_map = commands.add_parser("map", help="apply or invert a bijection")
    p_map.add_argument("--bijection", choices=("psi", "phi"), required=True)
    direction = p_map.add_mutually_exclusive_group(required=True)
    direction.add_argument("--apply", metavar="PATH")
    direction.add_argument("--invert", metavar="PARTS")
    p_map.add_argument("--format", choices=("plain", "json", "csv"),
                       default="plain")
    p_map.set_defaults(handler=_cmd_map)

    p_verify = commands.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    p_verify.add_argument("--max-n", dest="max_n", type=int, default=10)
    p_verify.add_argument("--order", type=int, default=20)
    p_verify.add_argument("--offline", action="store_true")
    p_verify.add_argument("--refresh", action="store_true")
    p_verify.add_argument("--format", choices=("plain", "json", "csv"),
                          default="plain")
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
