"""Batch command line: evaluate series, enumerate families, apply the
bijections, and run the verification harness.

Exit codes: 0 success, 1 failed verification, and by the class of the
error raised: 2 UnknownName, 3 InputError (bad parameters, a request above
one of the size ceilings below, an infeasible enumeration), 4 DomainError
(input outside a path operation's or bijection's domain).  main() is the
only place that catches them; any other exception is a bug and shows as a
traceback.  Data goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bijections import parse_composition, phi, phi_inv, psi, psi_inv
from .catalog import evaluate
from .enumeration import (
    FamilySpec,
    _motzkin_blocks,
    _path_blocks,
    count_motzkin_avoiding,
    count_paths,
)
from .errors import (
    BadParams,
    DomainError,
    InfeasibleSpec,
    InputError,
    UnknownName,
)
from .paths import EMPTY, LatticePath, parse_path
from .verify import SUITES, CheckResult, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_UNKNOWN_NAME = 2
EXIT_BAD_PARAMS = 3
EXIT_OUT_OF_DOMAIN = 4

# every error a request can cause derives from exactly one of these
EXIT_CODES = {UnknownName: EXIT_UNKNOWN_NAME, InputError: EXIT_BAD_PARAMS,
              DomainError: EXIT_OUT_OF_DOMAIN}

# Size ceilings.  A request above one exits 3 before any work starts.  The
# slowest accepted series requests, `series D --t 20000 --order 1000` (and
# `N` at the same sizes), take about 12-14 s each on a 2-CPU Xeon with
# Python 3.11, `series sym_f --k -20000 --t 20000 --order 1000` about 8 s,
# and `series Bk` or `Ak` at any k with `--order 1000` under 2 s; raise
# the ceilings as routes get cheaper.
MAX_ORDER = 1000                # series --order, verify --order
MAX_T = 20_000                  # series --t
MAX_ORDINATE = 2 * MAX_T + 1    # |series --k|, |series --m|
MAX_LENGTH = 2000               # enumerate --length, |--min-y|,
                                # |--end-ordinate|; map --invert's parts' sum
MAX_H_LENGTH = 400              # enumerate --family H --length: a cubic count
MAX_LISTED_PATHS = 2_000_000    # enumerate --list, checked by counting first;
                                # listings stream, so this bounds the time
                                # (1.2-2.3 s, for H at length 24), not
                                # the memory
MAX_N = 100                     # verify --max-n
MAX_ROUNDTRIP_N = 22            # verify --max-n for the listing bijection suites

# flags bounded in absolute value; a negative value of any other flag is
# left to that flag's own floor
SIGNED_FLAGS = ("k", "m", "min_y", "end_ordinate")

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


def _check_ceilings(args, ceilings) -> None:
    """Raise BadParams for the first flag whose size is above its ceiling."""
    for flag, ceiling in ceilings:
        value = getattr(args, flag)
        if value is None:
            continue
        name = "--" + flag.replace("_", "-")
        if value > ceiling:
            raise BadParams(
                f"{name} {value} is above the ceiling of {ceiling}")
        if flag in SIGNED_FLAGS and value < -ceiling:
            raise BadParams(f"{name} {value} is below the floor of {-ceiling}")


def _write(fmt: str, record, rows, text) -> None:
    """Print a result as its JSON record, its CSV rows (header first) or its
    plain text.  Each comes as a function, so only the requested one is
    built."""
    if fmt == "json":
        import json

        out = json.dumps(record(), sort_keys=True, separators=(",", ":"))
    elif fmt == "csv":
        import csv
        import io

        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows())
        out = buffer.getvalue()
    else:
        out = text()
    sys.stdout.write(out if out.endswith("\n") else out + "\n")


def _render_path(path: LatticePath) -> str:
    return str(path) if len(path) else "ε"


# ---------------------------------------------------------------- series

def _cmd_series(args) -> int:
    _check_ceilings(args, (("order", MAX_ORDER), ("k", MAX_ORDINATE),
                           ("t", MAX_T), ("m", MAX_ORDINATE)))
    params = {key: getattr(args, key)
              for key in ("k", "t", "m") if getattr(args, key) is not None}
    named = evaluate(args.name, args.order, **params)
    coeffs = named.series.integer_coefficients()
    _write(args.format,
           lambda: {"name": named.name, "params": params, "coeffs": coeffs},
           lambda: [("n", "coefficient"), *enumerate(coeffs)],
           lambda: " ".join(map(str, coeffs)))
    return EXIT_OK


# ------------------------------------------------------------- enumerate

def _cmd_enumerate(args) -> int:
    kind = FAMILY_KINDS[args.family]
    _check_ceilings(args, (
        ("length", MAX_H_LENGTH if kind == "special_h" else MAX_LENGTH),
        ("min_y", MAX_LENGTH), ("end_ordinate", MAX_LENGTH)))
    fields = {"kind": kind}
    for flag in ("min_y", "max_y", "end_ordinate", "end_step", "start_step"):
        if getattr(args, flag) is not None:
            fields[flag] = getattr(args, flag)
    if kind == "motzkin_avoid":
        if len(fields) > 1:
            raise InfeasibleSpec(
                "the motzkin family takes no window or endpoint flags")
        total = count_motzkin_avoiding(args.length)
        blocks = _motzkin_blocks(args.length)
    else:
        spec = FamilySpec(**fields)
        total = count_paths(args.length, spec)
        blocks = _path_blocks(args.length, spec)
    head = {"family": args.family, "length": args.length}
    if not args.list:
        _write(args.format, lambda: {**head, "count": total},
               lambda: [("count",), (total,)], lambda: str(total))
        return EXIT_OK
    if total > MAX_LISTED_PATHS:
        raise BadParams(f"--list would print {total} paths, above the "
                        f"ceiling of {MAX_LISTED_PATHS}; use --count")
    _write_listing(args.format, head, blocks)
    return EXIT_OK


def _write_listing(fmt: str, head: dict, blocks) -> None:
    """Print a listing byte for byte as _write prints the record
    {**head, "paths": [...]}, the rows ("path",), *paths, or the paths one
    per line, but write each (prefix, completions) block as it comes, with
    one join.  A path's text needs no quoting or escaping in JSON or CSV;
    the one empty path, at length 0, prints as ε."""
    if fmt == "json":
        import json

        opening, closing = json.dumps(
            {**head, "paths": []}, sort_keys=True,
            separators=(",", ":")).rsplit("[]", 1)
        start, quote, sep, end = opening + "[", '"', ",", "]" + closing
        empty = json.dumps("ε")[1:-1]
    else:  # csv: the header row, then one row per path; plain: an empty
        # listing is one blank line
        start, quote, sep, end = "path" if fmt == "csv" else "", "", "\n", ""
        empty = "ε"
    joint = quote + sep + quote
    lead = "\n" if fmt == "csv" else ""  # what comes before the first path
    out = sys.stdout
    out.write(start)
    for prefix, texts in blocks:
        if not prefix and texts == [""]:
            texts = [empty]
        out.write(lead + quote + prefix + (joint + prefix).join(texts) + quote)
        lead = sep
    out.write(end + "\n")


# ------------------------------------------------------------------- map

def _cmd_map(args) -> int:
    forward, backward = {"psi": (psi, psi_inv),
                         "phi": (phi, phi_inv)}[args.bijection]
    if args.apply is not None:
        source = args.apply.strip()
        path = EMPTY if source in ("", "ε") else parse_path(source)
        given = _render_path(path)
        output = ",".join(map(str, forward(path)))
    else:
        composition = parse_composition(args.invert)
        # the decoded path is within three steps of the parts' sum
        if sum(composition) > MAX_LENGTH:
            raise BadParams(f"--invert parts sum to {sum(composition)}, "
                            f"above the ceiling of {MAX_LENGTH}")
        given = ",".join(map(str, composition))
        output = _render_path(backward(composition))
    record = {"bijection": args.bijection,
              "direction": "invert" if args.apply is None else "apply",
              "input": given, "output": output}
    _write(args.format, lambda: record,
           lambda: [("input", "output"), (given, output)], lambda: output)
    return EXIT_OK


# ---------------------------------------------------------------- verify

def _plain_check(c) -> str:
    line = f"[{c.status}] {c.subject} ({c.check_kind}, {c.range})"
    return line + f": {c.first_mismatch}" if c.first_mismatch else line


def _cmd_verify(args) -> int:
    # the bijection round trips list every path up to --max-n
    roundtrips = args.suite in ("bijections", "all")
    _check_ceilings(args, (
        ("max_n", MAX_ROUNDTRIP_N if roundtrips else MAX_N),
        ("order", MAX_ORDER)))
    report = run_suite(args.suite, max_n=args.max_n, order=args.order,
                       offline=args.offline, refresh=args.refresh)
    checks = report.checks
    passed = sum(1 for c in checks if c.status == "pass")
    _write(args.format,
           lambda: {"suite": report.suite, "ok": report.ok,
                    "checks": [c._asdict() for c in checks]},
           lambda: [CheckResult._fields,
                    *((*c[:-1], c.first_mismatch or "") for c in checks)],
           lambda: "\n".join([*map(_plain_check, checks),
                              f"{passed}/{len(checks)} checks passed"]))
    if not report.ok:
        print(f"verification failed: {len(checks) - passed} "
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
    for flag in ("--k", "--t", "--m"):
        p_series.add_argument(flag, type=int)
    p_series.set_defaults(handler=_cmd_series)

    p_enum = commands.add_parser("enumerate", help="list or count a family")
    p_enum.add_argument("--family", choices=sorted(FAMILY_KINDS),
                        default="gdap")
    p_enum.add_argument("--length", type=int, required=True)
    for flag in ("--min-y", "--max-y", "--end-ordinate"):
        p_enum.add_argument(flag, type=int)
    for flag in ("--end-step", "--start-step"):
        p_enum.add_argument(flag, choices=("up", "down"))
    group = p_enum.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", action="store_true")
    group.add_argument("--count", action="store_true")
    p_enum.set_defaults(handler=_cmd_enumerate)

    p_map = commands.add_parser("map", help="apply or invert a bijection")
    p_map.add_argument("--bijection", choices=("psi", "phi"), required=True)
    direction = p_map.add_mutually_exclusive_group(required=True)
    direction.add_argument("--apply", metavar="PATH")
    direction.add_argument("--invert", metavar="PARTS")
    p_map.set_defaults(handler=_cmd_map)

    p_verify = commands.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    p_verify.add_argument("--max-n", type=int, default=10)
    p_verify.add_argument("--order", type=int, default=20)
    p_verify.add_argument("--offline", action="store_true")
    p_verify.add_argument("--refresh", action="store_true")
    p_verify.set_defaults(handler=_cmd_verify)

    for command in (p_series, p_enum, p_map, p_verify):
        command.add_argument("--format", choices=("plain", "json", "csv"),
                             default="plain")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader left early, as `| head` does: stop quietly, and point
        # stdout at the null device so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(EXIT_CODES[kind] for kind in type(exc).__mro__
                    if kind in EXIT_CODES)


if __name__ == "__main__":
    raise SystemExit(main())
