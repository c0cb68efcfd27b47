"""Batch command line: evaluate series, enumerate families, apply the
bijections, and run the verification harness.

    airpockets COMMAND [NAME] [--flag VALUE | --flag=VALUE | --switch]...

Every flag is long, and any unique prefix of it will do (`--ord 5`); a
value may start with "-" only after "=" or as a negative number
(`--k -2`).  Flags and the one positional argument (`series NAME`) come
in any order, every token after `--` is positional, and the last of a
repeated flag wins.  `-h` or `--help`, alone or after a command, prints
the help and exits 0.  Tokens are read left to right, so a help flag
before a usage error prints the help, and one after it does not.  A usage
error prints one line,
`airpockets COMMAND: error: ...`, and exits 3.  COMMANDS below declares
every command's flags, and one loop over argv reads them.

Exit codes: 0 success, 1 failed verification, and by the class of the
error raised: 2 UnknownName, 3 InputError (bad parameters, a request above
one of the size ceilings below, an infeasible enumeration), 4 DomainError
(input outside a path operation's or bijection's domain).  main() is the
only place that catches them; any other exception is a bug and shows as a
traceback.  Data goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import gc
import importlib.util
import os
import re
import sys
from types import SimpleNamespace

from . import SUITES
from .errors import (
    BadParams,
    DomainError,
    InfeasibleSpec,
    InputError,
    UnknownName,
)


def _lazy(name: str):
    """The package module `name`, in sys.modules and on the package, with
    its body not yet run: LazyLoader runs it at the first attribute lookup
    on the module.  A module already imported is returned as it is."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# Every module of the package is registered here and runs only when a
# command first looks a name up on it, so a launch runs just the modules
# its command uses: `series` runs catalog and series, `enumerate` runs
# enumeration and paths.  The handlers look each name up on its module at
# call time, and nothing at import time may touch one of these modules
# (any attribute, __spec__ included, runs it).  Function-local imports
# would be simpler, but the benchmark's tracer (bench/tracer.py) looks
# each module up in sys.modules right after `import airpockets.cli` and
# wraps functions on it, and a module not yet imported would be missing.
(bijections, catalog, enumeration, oeis, paths, reference, series,
 verify) = map(_lazy, ("bijections", "catalog", "enumeration", "oeis",
                       "paths", "reference", "series", "verify"))

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_UNKNOWN_NAME = 2
EXIT_BAD_PARAMS = 3
EXIT_OUT_OF_DOMAIN = 4

# every error a request can cause derives from exactly one of these
EXIT_CODES = {UnknownName: EXIT_UNKNOWN_NAME, InputError: EXIT_BAD_PARAMS,
              DomainError: EXIT_OUT_OF_DOMAIN}

# Size ceilings.  A request above one exits 3 before any work starts.  The
# slowest accepted series request, `series minorized --m -40001 --order
# 1000`, took 17.3 s on a 2-CPU Xeon with Python 3.11.7 (one fresh CLI
# process): it raises the climb root to the power 40001.  In one run each
# there, `Rk` and `prefix_neg` at `--k -40001` took 8.6 and 9.7 s, `D` and
# `N --k 3` at `--t 20000`, which sweep every height up to t, 9.9 and
# 10.9 s, `sym_f` and `sym_g` at `--k -20000 --t 20000` 5.2 and 4.9 s,
# and `Bk` and `Ak` at `--k 999` 0.6 and 0.9 s, all at `--order 1000`.
# Raise the ceilings as routes get cheaper.
MAX_ORDER = 1000                # series --order, verify --order
MAX_T = 20_000                  # series --t
MAX_ORDINATE = 2 * MAX_T + 1    # |series --k|, |series --m|
MAX_LENGTH = 2000               # enumerate --length, |--min-y|,
                                # |--end-ordinate|; map --invert's parts' sum
MAX_H_LENGTH = 400              # enumerate --family H --length: a cubic count
MAX_LISTED_PATHS = 2_000_000    # enumerate --list, checked by counting first;
                                # listings stream, so this bounds the time
                                # (1.1-1.5 s, for H at length 24), not
                                # the memory
MAX_N = 100                     # verify --max-n
MAX_ROUNDTRIP_N = 22            # verify --max-n for the round-trip suites

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


def _render_path(path: paths.LatticePath) -> str:
    return str(path) if len(path) else "ε"


# ---------------------------------------------------------------- series

def _cmd_series(args) -> int:
    _check_ceilings(args, (("order", MAX_ORDER), ("k", MAX_ORDINATE),
                           ("t", MAX_T), ("m", MAX_ORDINATE)))
    params = {key: getattr(args, key)
              for key in ("k", "t", "m") if getattr(args, key) is not None}
    named = catalog.evaluate(args.name, args.order, **params)
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
        total = enumeration.count_motzkin_avoiding(args.length)
        blocks = enumeration._motzkin_blocks(args.length)
    else:
        spec = enumeration.FamilySpec(**fields)
        total = enumeration.count_paths(args.length, spec)
        blocks = enumeration._path_blocks(args.length, spec)
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
    forward, backward = {
        "psi": (bijections.psi, bijections.psi_inv),
        "phi": (bijections.phi, bijections.phi_inv)}[args.bijection]
    if args.apply is not None:
        source = args.apply.strip()
        path = (paths.EMPTY if source in ("", "ε")
                else paths.parse_path(source))
        given = _render_path(path)
        output = ",".join(map(str, forward(path)))
    else:
        composition = bijections.parse_composition(args.invert)
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
    # the bijection round trips decode every composition up to --max-n
    roundtrips = args.suite in ("bijections", "all")
    _check_ceilings(args, (
        ("max_n", MAX_ROUNDTRIP_N if roundtrips else MAX_N),
        ("order", MAX_ORDER)))
    report = verify.run_suite(args.suite, max_n=args.max_n,
                              order=args.order, offline=args.offline,
                              refresh=args.refresh)
    checks = report.checks
    passed = sum(1 for c in checks if c.status == "pass")
    _write(args.format,
           lambda: {"suite": report.suite, "ok": report.ok,
                    "checks": [c._asdict() for c in checks]},
           lambda: [verify.CheckResult._fields,
                    *((*c[:-1], c.first_mismatch or "") for c in checks)],
           lambda: "\n".join([*map(_plain_check, checks),
                              f"{passed}/{len(checks)} checks passed"]))
    if not report.ok:
        print(f"verification failed: {len(checks) - passed} "
              "check(s) did not pass", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# ---------------------------------------------------------------- parser

FORMATS = ("plain", "json", "csv")
STEPS = ("up", "down")

# Every command: its help line, its positional argument (or None), and its
# flags, each with its kind and default.  A kind is int, bool for a switch
# (which takes no value), a tuple of the values allowed, or a string
# naming a free-text value in the help.  A command needs each of its
# "required" flags and exactly one flag of its "exclusive" pair.
COMMANDS = {
    "series": {
        "help": "print series coefficients",
        "positional": "name",
        "flags": {"order": (int, 20), "k": (int, None), "t": (int, None),
                  "m": (int, None), "format": (FORMATS, "plain")},
        "required": (), "exclusive": (),
    },
    "enumerate": {
        "help": "list or count a family",
        "positional": None,
        "flags": {"family": (tuple(sorted(FAMILY_KINDS)), "gdap"),
                  "length": (int, None), "min-y": (int, None),
                  "max-y": (int, None), "end-ordinate": (int, None),
                  "end-step": (STEPS, None), "start-step": (STEPS, None),
                  "list": (bool, False), "count": (bool, False),
                  "format": (FORMATS, "plain")},
        "required": ("length",), "exclusive": ("list", "count"),
    },
    "map": {
        "help": "apply or invert a bijection",
        "positional": None,
        "flags": {"bijection": (("psi", "phi"), None),
                  "apply": ("PATH", None), "invert": ("PARTS", None),
                  "format": (FORMATS, "plain")},
        "required": ("bijection",), "exclusive": ("apply", "invert"),
    },
    "verify": {
        "help": "run a verification suite",
        "positional": None,
        "flags": {"suite": (SUITES, "all"), "max-n": (int, 10),
                  "order": (int, 20), "offline": (bool, False),
                  "refresh": (bool, False), "format": (FORMATS, "plain")},
        "required": (), "exclusive": (),
    },
}

HELP_FLAGS = ("-h", "--h", "--he", "--hel", "--help")
OPTION_SYNTAX = ("Flags are long: --flag VALUE or --flag=VALUE, or any "
                 "unique prefix of the flag;\n-h or --help prints this "
                 "help, and a usage error prints one line and exits 3.\n")

# the values that start with "-" and are still read as values, not flags:
# a negative number and a token holding a space, as argparse read them
_NEGATIVE = re.compile(r"-\d+$|-\d*\.\d+$")
_SHORT_HELP = re.compile(r"-h+$")    # -h, or -h repeated as in -hh


def _usage_error(prog: str, message: str):
    # a token may hold a line break, and the message stays on one line:
    # every character str.splitlines breaks at is written as its repr escape
    message = message.translate({
        ord(c): repr(c)[1:-1]
        for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})
    sys.stderr.write(f"{prog}: error: {message}\n")
    raise SystemExit(EXIT_BAD_PARAMS)


def _flag_text(name: str, kind) -> str:
    if kind is bool:
        return f"--{name}"
    if kind is int:
        return f"--{name} N"
    if isinstance(kind, tuple):
        return f"--{name} {{{','.join(kind)}}}"
    return f"--{name} {kind}"


def _help(command: str | None):
    """Print the help of a command, or of the whole CLI, and exit 0."""
    if command is None:
        width = max(map(len, COMMANDS))
        lines = ["usage: airpockets {" + ",".join(COMMANDS) + "} ...", "",
                 "Lattice path series, enumeration, bijections, and "
                 "verification.", "",
                 *(f"  {name:<{width}}  {spec['help']}"
                   for name, spec in COMMANDS.items()), "",
                 "airpockets COMMAND --help lists the flags of COMMAND."]
    else:
        spec = COMMANDS[command]
        positional = spec["positional"]
        rows = []
        for name, (kind, default) in spec["flags"].items():
            if name in spec["required"]:
                note = "required"
            elif name in spec["exclusive"]:
                note = "exactly one of --" + " and --".join(spec["exclusive"])
            else:
                note = "" if default is None or kind is bool else (
                    f"default {default}")
            rows.append((_flag_text(name, kind), note))
        width = max(len(text) for text, _ in rows)
        lines = [f"usage: airpockets {command}"
                 + (f" {positional.upper()}" if positional else "")
                 + " [flags]", "", spec["help"], "", "flags:",
                 *(f"  {text:<{width}}  {note}".rstrip()
                   for text, note in rows)]
    sys.stdout.write("\n".join(lines) + "\n\n" + OPTION_SYNTAX)
    raise SystemExit(EXIT_OK)


def _value_like(token: str) -> bool:
    # argparse's reading: a token that starts with "-" is still a value, not
    # a flag, when it is "-" itself, a negative number or holds a space
    return (not token.startswith("-") or token == "-" or " " in token
            or _NEGATIVE.match(token) is not None)


def _flag_name(prog: str, written: str, names) -> str:
    """The flag that --written names: itself, or the one flag it is a
    prefix of."""
    if written in names:
        return written
    matches = [name for name in names if name.startswith(written)]
    if len(matches) != 1:
        _usage_error(prog, f"option --{written} " + (
            "not a unique prefix" if matches else "not recognized"))
    return matches[0]


def _parse(argv: list[str]) -> SimpleNamespace:
    """The arguments of the command that argv names, as attributes: each
    flag's under its name with "_" for "-", and the command's under
    "command".  A usage error exits 3, and -h or --help exits 0."""
    if argv[:1] and argv[0] in HELP_FLAGS:
        _help(None)
    if not argv or argv[0] not in COMMANDS:
        wrong = f"{argv[0]!r} is not a command" if argv else "no command"
        _usage_error("airpockets", f"{wrong}; choose from {', '.join(COMMANDS)}")
    command, spec = argv[0], COMMANDS[argv[0]]
    prog, flags = f"airpockets {command}", spec["flags"]
    values = {name.replace("-", "_"): default
              for name, (_, default) in flags.items()}
    given: set[str] = set()
    positionals: list[str] = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--":
            positionals += tokens
            break
        if _SHORT_HELP.match(token):
            _help(command)
        written, eq, value = token[2:].partition("=")
        if not (token.startswith("--") and eq) and _value_like(token):
            positionals.append(token)
            continue
        if not token.startswith("--"):
            _usage_error(prog, f"option {token} not recognized")
        name = _flag_name(prog, written, ("help", *flags))
        if name == "help":
            if eq:
                _usage_error(prog, "option --help must not have an argument")
            _help(command)
        kind = flags[name][0]
        if kind is bool:
            if eq:
                _usage_error(prog,
                             f"option --{name} must not have an argument")
            value = True
        elif not eq:
            value = next(tokens, "--")    # "--" or nothing left: no value
            if not _value_like(value):
                _usage_error(prog, f"argument --{name}: expected one argument")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _usage_error(prog, f"argument --{name}: invalid int value: "
                                   f"{value!r}")
        elif isinstance(kind, tuple) and value not in kind:
            _usage_error(prog, f"argument --{name}: invalid choice: "
                               f"{value!r} (choose from {', '.join(kind)})")
        if name in spec["exclusive"]:
            other = next(flag for flag in spec["exclusive"] if flag != name)
            if other in given:
                _usage_error(prog, f"argument --{name}: not allowed with "
                                   f"argument --{other}")
        given.add(name)
        values[name.replace("-", "_")] = value
    missing = ["--" + name for name in spec["required"] if name not in given]
    if spec["positional"]:
        if positionals:
            values[spec["positional"]] = positionals.pop(0)
        else:
            missing.insert(0, spec["positional"])
    if missing:
        _usage_error(prog, "the following arguments are required: "
                           + ", ".join(missing))
    if spec["exclusive"] and not given.intersection(spec["exclusive"]):
        _usage_error(prog, "one of the arguments --"
                           + " --".join(spec["exclusive"]) + " is required")
    if positionals:
        _usage_error(prog, "unrecognized arguments: " + " ".join(positionals))
    return SimpleNamespace(command=command, **values)


def main(argv: list[str] | None = None) -> int:
    # A command runs once in its own process, so what start-up loaded lives
    # to exit anyway: frozen, it is left out of every later collection,
    # the one at exit included.  Once per process, so that a caller that
    # calls main again (a test run) does not also freeze the garbage each
    # call leaves pending.  A long-lived caller that embeds main should
    # call gc.collect() before its first call, or the garbage pending then
    # is frozen too and never freed.
    if not gc.get_freeze_count():
        gc.freeze()
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        # looked up at each call, so that a handler can be replaced
        code = globals()["_cmd_" + args.command](args)
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
