"""The four workloads: fixed job lists, seeded order, and a check per job.

A job is one child process (see child.py).  Each job knows how many
operations one run of it attempts and how to judge its output against the
reference counter in refcount.py: a non-zero exit, a traceback or a wrong
answer fails the operations it touches.  The seed only orders the jobs and,
in session-warm, interleaves the calls of the (family, params) pairs, so
every seed attempts the same set of operations.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from typing import Callable

import refcount

# (ops failed, ops answered wrongly, note); wrong answers are also failed
Verdict = tuple[int, int, str]


@dataclass(frozen=True)
class Job:
    label: str
    mode: str                      # "cli" or "session"
    args: tuple[str, ...]          # cli arguments, or the stream as JSON
    ops: int
    check: Callable[[int, str, str], Verdict]


def _error_note(stderr: str) -> str:
    lines = stderr.strip().splitlines()
    return lines[-1][:200] if lines else ""


def _whole_job(check):
    """Adapt a one-operation check: an exit other than 0 fails it."""

    def judge(code: int, out: str, err: str) -> Verdict:
        if code != 0:
            return 1, 0, f"exit {code}: {_error_note(err)}"
        problem = check(out)
        return (1, 1, problem) if problem else (0, 0, "")

    return judge


# ------------------------------------------------------------ series

def series_job(name: str, order: int, **params) -> Job:
    args = ["series", name, "--order", str(order)]
    for key, value in params.items():
        args += [f"--{key}", str(value)]

    def check(out: str) -> str:
        want = refcount.catalog_counts(name, params, order)
        got = [int(tok) for tok in out.split()]
        if got != want:
            return f"{name} {params} order {order}: coefficients differ"
        return ""

    return Job(" ".join(args), "cli", tuple(args), 1, _whole_job(check))


# --------------------------------------------------------- enumerate

_FLAGS = {"min_y": "--min-y", "max_y": "--max-y",
          "end_ordinate": "--end-ordinate", "end_step": "--end-step",
          "start_step": "--start-step"}


def _enum_args(family, length, fields, mode):
    args = ["enumerate", "--family", family, "--length", str(length)]
    for key, value in fields.items():
        args += [_FLAGS[key], str(value)]
    return args + [mode]


def count_job(family: str, length: int, **fields) -> Job:
    args = _enum_args(family, length, fields, "--count")

    def check(out: str) -> str:
        want = refcount.enumerate_count(family, length, **fields)
        if out.strip() != str(want):
            return f"count {out.strip()[:40]} != reference {want}"
        return ""

    return Job(" ".join(args), "cli", tuple(args), 1, _whole_job(check))


_TOKEN = re.compile(r"U|D(\d*)")


def parse_steps(text: str) -> tuple[int, ...]:
    """U is +1, D or Dk is -k; anything else is a malformed line."""
    steps, pos = [], 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ValueError(f"bad token at {pos} in {text!r}")
        if match.group(0) == "U":
            steps.append(1)
        else:
            level = int(match.group(1) or "1")
            if level < 1:
                raise ValueError(f"drop of {level} in {text!r}")
            steps.append(-level)
        pos = match.end()
    return tuple(steps)


def list_job(family: str, length: int, **fields) -> Job:
    args = _enum_args(family, length, fields, "--list")
    fam = refcount.enumerate_family(family, **fields)

    def check(out: str) -> str:
        lines = out.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        previous = None
        for line in lines:
            try:
                steps = parse_steps(line)
            except ValueError as exc:
                return str(exc)
            member = (refcount.is_special_height(steps) if fam is None
                      else refcount.is_member(fam, steps))
            if len(steps) != length or not member:
                return f"{line} is not a length-{length} member"
            key = tuple(0 if s > 0 else -s for s in steps)
            if previous is not None and key <= previous:
                return f"{line} is out of order or repeated"
            previous = key
        want = refcount.enumerate_count(family, length, **fields)
        if len(lines) != want:
            return f"{len(lines)} paths listed, reference counts {want}"
        return ""

    return Job(" ".join(args), "cli", tuple(args), 1, _whole_job(check))


# ------------------------------------------------------------ verify

# checks of each kind that `verify --suite all` ran at the seed commit
SEED_CHECK_KINDS = {"dual_path": 23, "oracle_vs_gf": 28,
                    "bijection_roundtrip": 4, "gf_vs_oeis": 18}


def verify_job(*extra: str) -> Job:
    args = ["verify", "--offline", "--suite", "all", "--format", "json",
            *extra]

    def check(out: str) -> str:
        report = json.loads(out)
        if report.get("ok") is not True:
            return "report is not ok"
        kinds: dict[str, int] = {}
        for entry in report["checks"]:
            if entry["status"] != "pass":
                return f"{entry['subject']} did not pass"
            kinds[entry["check_kind"]] = kinds.get(entry["check_kind"], 0) + 1
        for kind, least in SEED_CHECK_KINDS.items():
            if kinds.get(kind, 0) < least:
                return f"only {kinds.get(kind, 0)} {kind} checks, want {least}"
        return ""

    return Job(" ".join(args), "cli", tuple(args), 1, _whole_job(check))


# ----------------------------------------------------------- session

# (name, params, base order b); each pair is asked, in this order, for
# b, b, b/2, 5b/4, b/2, 3b/4
SESSION_PAIRS = (
    ("G", {}, 16),
    ("Gp1", {}, 16),
    ("dap", {}, 20),
    ("prefix_neg", {"k": -1}, 12),
    ("minorized", {"m": -1}, 16),
    ("g0t", {"t": 3}, 12),
    ("fkt", {"k": 1, "t": 2}, 12),
    ("sym", {"t": 2}, 10),
    ("B", {}, 32),
    ("Bk", {"k": 5}, 20),
)
LADDER = ((1, 1), (1, 1), (1, 2), (5, 4), (1, 2), (3, 4))
SESSIONS = 4          # fresh sessions per round, each with its own stream


def session_stream(seed: str) -> list[tuple[str, dict, int]]:
    """Every pair's ladder, interleaved by the seed; the order within a
    pair is fixed, so the shares of repeats, lower and higher orders are
    the same for every seed."""
    rng = random.Random(seed)
    slots = [i for i in range(len(SESSION_PAIRS)) for _ in LADDER]
    rng.shuffle(slots)
    taken = [0] * len(SESSION_PAIRS)
    stream = []
    for pair in slots:
        name, params, base = SESSION_PAIRS[pair]
        num, den = LADDER[taken[pair]]
        taken[pair] += 1
        stream.append((name, params, base * num // den))
    return stream


def classify_stream(stream) -> dict[str, int]:
    """first / repeat / lower / higher, each call against the calls before
    it on the same (name, params) pair."""
    seen: dict[str, set[int]] = {}
    kinds = {"first": 0, "repeat": 0, "lower": 0, "higher": 0}
    for name, params, order in stream:
        key = json.dumps([name, params], sort_keys=True)
        orders = seen.setdefault(key, set())
        if not orders:
            kinds["first"] += 1
        elif order in orders:
            kinds["repeat"] += 1
        elif order < max(orders):
            kinds["lower"] += 1
        else:
            kinds["higher"] += 1
        orders.add(order)
    return kinds


def session_job(seed: int, index: int) -> Job:
    stream = session_stream(f"{seed}:{index}")

    def judge(code: int, out: str, err: str) -> Verdict:
        if code != 0:
            return len(stream), 0, f"exit {code}: {_error_note(err)}"
        lines = out.splitlines()
        wrong = sum(1 for (name, params, order), line in zip(stream, lines)
                    if json.loads(line) != refcount.catalog_counts(
                        name, params, order))
        missing = len(stream) - min(len(lines), len(stream))
        note = f"{wrong} wrong, {missing} missing" if wrong or missing else ""
        return wrong + missing, wrong, note

    return Job(f"session {index}: {len(stream)} evaluate calls", "session",
               (json.dumps(stream),), len(stream), judge)


# --------------------------------------------------------- workloads

def _series_cold():
    return [
        series_job("G", 40),
        series_job("dap", 60),
        series_job("prefix_neg", 30, k=-2),
        series_job("prefix_pos_total", 30),
        series_job("minorized", 40, m=-2),
        series_job("g0t", 30, t=4),
        series_job("fkt", 30, k=2, t=3),
        series_job("sym", 30, t=3),
        series_job("B", 120),
        series_job("Bk", 60, k=6),
        series_job("Ak", 60, k=4),
    ]


def _enum_count():
    return [
        count_job("gdap", 80),
        count_job("dap", 120),
        count_job("prime", 100),
        count_job("prefix", 60, min_y=-2),
        count_job("prefix", 60, end_ordinate=-2),
        count_job("gdap", 150, min_y=-2, max_y=2),
        # fails today: count_paths recurses once per step (RecursionError)
        count_job("gdap", 600, min_y=-2, max_y=2),
        count_job("H", 16),
        count_job("H", 17),
        list_job("gdap", 12),
        list_job("prime", 16),
        list_job("gdap", 20, min_y=-1, max_y=1),
        list_job("prefix", 12, end_ordinate=-1),
        list_job("H", 16),
    ]


def _verify_suite():
    return [verify_job(), verify_job("--max-n", "11", "--order", "25")]


WORKLOADS = {
    "series-cold": lambda seed: _series_cold(),
    "enum-count": lambda seed: _enum_count(),
    "verify-suite": lambda seed: _verify_suite(),
    "session-warm": lambda seed: [session_job(seed, i)
                                  for i in range(SESSIONS)],
}


def jobs_for(workload: str, seed: int) -> list[Job]:
    jobs = WORKLOADS[workload](seed)
    random.Random(seed).shuffle(jobs)
    return jobs
