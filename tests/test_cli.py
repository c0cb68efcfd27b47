"""Command line: spec'd examples, exit codes, formats, stream discipline."""

import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

import airpockets
from airpockets import catalog, cli, enumeration, errors, oeis
from airpockets import reference as ref
from airpockets import verify
from airpockets.cli import main
from airpockets.enumeration import FamilySpec, _motzkin_blocks, _path_blocks
from airpockets.errors import (
    ConsistencyError,
    DomainError,
    InputError,
    UnknownName,
)

import brute_force


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("AIRPOCKETS_OEIS_CACHE", str(tmp_path / "oeis"))


@pytest.fixture(autouse=True, scope="module")
def frozen_once():
    # main freezes the heap at its first call in a process, and pytest's
    # process runs on: the garbage earlier modules left is collected before
    # that freeze, and what this module leaves can be collected after it
    gc.collect()
    yield
    gc.unfreeze()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- series

def test_series_plain(capsys):
    code, out, err = run(capsys, "series", "G", "--order", "10")
    assert code == 0
    assert out == "1 0 2 3 7 17 40 97 238 587 1458\n"
    assert err == ""


def test_series_with_parameter(capsys):
    code, out, _ = run(capsys, "series", "g0t", "--t", "1", "--order", "10")
    assert code == 0
    assert out == "0 0 1 0 1 0 1 0 1 0 1\n"


def test_series_unknown_name(capsys):
    code, out, err = run(capsys, "series", "nosuch")
    assert code == 2
    assert out == ""
    assert "unknown series" in err


def test_series_bad_params(capsys):
    code, out, err = run(capsys, "series", "G", "--k", "3")
    assert code == 3
    assert out == ""
    assert err != ""


def test_series_negative_order(capsys):
    code, _, _ = run(capsys, "series", "G", "--order", "-1")
    assert code == 3


def test_series_exact_height_rejects_negative_k(capsys):
    code, out, err = run(capsys, "series", "Ak", "--k", "-1", "--order", "5")
    assert code == 3
    assert out == ""
    assert err != ""
    code, out, _ = run(capsys, "series", "Ak", "--k", "0", "--order", "5")
    assert code == 0
    assert out == "1 0 0 0 0 0\n"


def _det_through_x3(t):
    # D_t = (1+x-x^2)·D_{t-1} - x·D_{t-2}, D_0 = 1, D_1 = 1 - x^2, mod x^4
    prev, cur = [1, 0, 0, 0], [1, 0, -1, 0]
    for _ in range(t - 1):
        nxt = [cur[n] + (cur[n - 1] if n else 0) - (cur[n - 2] if n > 1 else 0)
               - (prev[n - 1] if n else 0) for n in range(4)]
        prev, cur = cur, nxt
    return cur


# N_1^t = x·D_{t-1}
@pytest.mark.parametrize("argv,height,shift", [
    (["D", "--t", "1000"], 1000, 0),
    (["N", "--k", "1", "--t", "1000"], 999, 1),
])
def test_series_band_polynomials_at_height_1000(capsys, argv, height, shift):
    code, out, err = run(capsys, "series", *argv, "--order", "3")
    assert (code, err) == (0, "")
    assert _det_through_x3(2) == [1, 0, -2, -1]
    want = ([0] * shift + _det_through_x3(height))[:4]
    assert [int(tok) for tok in out.split()] == want


# the determinant sweep stops at the order: at height 20000 a sweep that
# kept the whole degree-2t polynomials would take minutes
@pytest.mark.parametrize("argv,height,shift", [
    (["D", "--t", "20000"], 20000, 0),
    (["N", "--k", "1", "--t", "20000"], 19999, 1),
])
def test_series_band_polynomials_at_height_20000(capsys, argv, height,
                                                 shift):
    code, out, err = run(capsys, "series", *argv, "--order", "3")
    assert (code, err) == (0, "")
    assert _det_through_x3(height) == [1, 0, -height, 1 - height]
    want = ([0] * shift + _det_through_x3(height))[:4]
    assert [int(tok) for tok in out.split()] == want


def test_series_json_roundtrip_is_byte_identical(capsys):
    code, out, _ = run(capsys, "series", "minorized", "--m", "-1",
                       "--order", "10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "minorized"
    assert payload["params"] == {"m": -1}
    assert payload["coeffs"] == [1, 2, 4, 8, 17, 37, 82, 185, 423, 978, 2283]
    reemitted = json.dumps(payload, sort_keys=True,
                           separators=(",", ":")) + "\n"
    assert reemitted == out


def test_series_csv(capsys):
    code, out, _ = run(capsys, "series", "dap", "--order", "4",
                       "--format", "csv")
    assert code == 0
    assert out == "n,coefficient\n0,0\n1,0\n2,1\n3,1\n4,2\n"


# ------------------------------------------------------------- enumerate

def test_enumerate_special_family_listing(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "H",
                       "--length", "5", "--list")
    assert code == 0
    assert out.splitlines() == ["UUUUD4", "UUDUD2", "UUD2UD"]


def test_enumerate_band_count(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "gdap",
                       "--min-y", "-1", "--max-y", "1",
                       "--length", "4", "--count")
    assert code == 0
    assert out == "3\n"


def test_enumerate_empty_length_counts_epsilon(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "gdap",
                       "--length", "0", "--count")
    assert code == 0
    assert out == "1\n"


def test_enumerate_list_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "dap",
                       "--length", "4", "--list", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"family": "dap", "length": 4,
                       "paths": ["UUUD3", "UDUD"]}


def test_enumerate_count_matches_list_length(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "prefix",
                       "--end-ordinate", "1", "--length", "5", "--list")
    assert code == 0
    listed = [line for line in out.splitlines() if line]
    code, out, _ = run(capsys, "enumerate", "--family", "prefix",
                       "--end-ordinate", "1", "--length", "5", "--count")
    assert code == 0
    assert int(out) == len(listed)


def _band_count(floor, ceiling, length):
    """Axis-to-axis paths in [floor, ceiling]: a transfer-matrix power over
    (height, whether the last step dropped)."""
    states = [(h, dropped) for h in range(floor, ceiling + 1)
              for dropped in (False, True)]
    index = {state: i for i, state in enumerate(states)}
    size = len(states)
    step = [[0] * size for _ in range(size)]
    for (h, dropped), i in index.items():
        if h < ceiling:
            step[i][index[h + 1, False]] = 1
        if not dropped:
            for lower in range(floor, h):
                step[i][index[lower, True]] = 1

    def times(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(size))
                 for j in range(size)] for i in range(size)]

    power = [[int(i == j) for j in range(size)] for i in range(size)]
    while length:
        if length & 1:
            power = times(power, step)
        step = times(step, step)
        length >>= 1
    start = index[0, False]
    return power[start][index[0, False]] + power[start][index[0, True]]


def test_enumerate_band_count_at_length_600(capsys):
    code, out, err = run(capsys, "enumerate", "--family", "gdap",
                         "--min-y", "-2", "--max-y", "2",
                         "--length", "600", "--count")
    assert (code, err) == (0, "")
    assert int(out) == _band_count(-2, 2, 600)
    assert _band_count(-2, 2, 7) == ref.BAND_SYM_COUNTS[2][7]


def test_enumerate_dap_count_at_length_1200(capsys):
    code, out, err = run(capsys, "enumerate", "--family", "dap",
                         "--length", "1200", "--count")
    assert (code, err) == (0, "")
    # first-return decomposition: a = x^2 + x^2 a + x a + x a^2
    a = [0] * 1201
    for n in range(2, 1201):
        a[n] = int(n == 2) + a[n - 2] + a[n - 1] + sum(
            a[i] * a[n - 1 - i] for i in range(2, n - 2))
    assert a[:11] == list(ref.DAP_COUNTS)
    assert int(out) == a[1200]


def test_enumerate_long_band_listing(capsys):
    code, out, err = run(capsys, "enumerate", "--family", "gdap",
                         "--min-y", "0", "--max-y", "1",
                         "--length", "2000", "--list")
    assert (code, err) == (0, "")
    assert out == "UD" * 1000 + "\n"


@pytest.mark.parametrize("n", range(9))
def test_enumerate_motzkin(capsys, n):
    code, out, _ = run(capsys, "enumerate", "--family", "motzkin",
                       "--length", str(n), "--count")
    assert code == 0
    assert int(out) == ref.SPECIAL_H_COUNTS[n]
    code, out, _ = run(capsys, "enumerate", "--family", "motzkin",
                       "--length", str(n), "--list", "--format", "json")
    assert code == 0
    words = json.loads(out)["paths"]
    assert len(words) == len(set(words)) == ref.SPECIAL_H_COUNTS[n]
    assert all(len(w) == n for w in words if w != "ε")


@pytest.mark.parametrize("flag", [["--min-y", "0"], ["--max-y", "2"],
                                  ["--end-ordinate", "0"],
                                  ["--end-step", "down"],
                                  ["--start-step", "up"]])
def test_enumerate_motzkin_rejects_window_flags(capsys, flag):
    code, out, err = run(capsys, "enumerate", "--family", "motzkin",
                         "--length", "6", "--count", *flag)
    assert code == 3
    assert out == ""
    assert err != ""


def test_enumerate_infeasible_spec(capsys):
    code, out, err = run(capsys, "enumerate", "--family", "prefix",
                         "--end-ordinate", "7", "--length", "3", "--count")
    assert code == 3
    assert out == ""
    assert err != ""


def test_enumerate_requires_list_or_count(capsys):
    with pytest.raises(SystemExit) as info:
        main(["enumerate", "--family", "dap", "--length", "4"])
    assert info.value.code == 3


# (family, length, window and endpoint flags) of small listings, the empty
# ones and those of length 0 included, and lengths on both sides of the
# depth below which the walker shares completions between prefixes
DEPTH = enumeration._TAIL
LISTINGS = [
    ("gdap", 0, {}), ("gdap", 5, {}), ("gdap", 0, {"start_step": "up"}),
    ("gdap", 7, {"min_y": -1, "max_y": 1}),
    ("gdap", 6, {"max_y": 1, "end_step": "down"}),
    ("dap", 0, {}), ("dap", 1, {}), ("dap", 8, {}),
    ("prime", 2, {}), ("prime", 8, {}),
    ("prefix", 0, {"min_y": 0}), ("prefix", 5, {"min_y": -1}),
    ("prefix", 6, {"end_ordinate": -1}), ("prefix", 0, {"end_ordinate": -2}),
    ("prefix", 6, {"min_y": -2, "start_step": "down", "end_step": "up"}),
    ("prefix", 6, {"end_ordinate": 2, "start_step": "up",
                   "end_step": "down"}),
    ("H", 0, {}), ("H", 1, {}), ("H", 9, {}),
    ("motzkin", 0, {}), ("motzkin", 1, {}), ("motzkin", 8, {}),
    ("prime", 3, {}), ("prefix", 7, {"end_ordinate": 3}),
    ("gdap", 7, {"end_step": "up"}),
    ("prefix", 7, {"min_y": -1, "end_step": "down"}),
] + [(family, DEPTH + d, fields)
     for d in (-1, 0, 1, 2)
     for family, fields in [("gdap", {}), ("prime", {}),
                            ("prefix", {"min_y": -2, "end_step": "up"})]]


def _reference_listing(family, length, fields, fmt):
    """The listing as one record, rows or text, rendered from the members
    found by exhaustive search."""
    if family == "motzkin":
        members = brute_force.motzkin_words(length)
    elif family == "H":
        members = map(str, brute_force.special_heights(length))
    else:
        spec = FamilySpec(cli.FAMILY_KINDS[family], **fields)
        members = map(str, brute_force.members(length, spec))
    paths = [member or "ε" for member in members]
    if fmt == "json":
        record = {"family": family, "length": length, "paths": paths}
        return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(
            [("path",), *zip(paths)])
        return buffer.getvalue()
    return "\n".join(paths) + "\n"


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize("family, length, fields", LISTINGS)
def test_listing_is_the_list_api_rendered(capsys, family, length, fields,
                                          fmt):
    flags = [part for name, value in fields.items()
             for part in ("--" + name.replace("_", "-"), str(value))]
    code, out, err = run(capsys, "enumerate", "--family", family,
                         "--length", str(length), *flags, "--list",
                         "--format", fmt)
    assert (code, err) == (0, "")
    assert out == _reference_listing(family, length, fields, fmt)


@pytest.mark.parametrize("fmt, out", [
    ("plain", "\n"), ("csv", "path\n"),
    ("json", '{"family":"prime","length":2,"paths":[]}\n')])
def test_empty_listing(capsys, fmt, out):
    assert run(capsys, "enumerate", "--family", "prime", "--length", "2",
               "--list", "--format", fmt) == (0, out, "")


@pytest.mark.parametrize("fmt, out", [
    ("plain", "ε\n"), ("csv", "path\nε\n"),
    ("json", '{"family":"H","length":0,"paths":["\\u03b5"]}\n')])
def test_listing_of_length_0(capsys, fmt, out):
    assert run(capsys, "enumerate", "--family", "H", "--length", "0",
               "--list", "--format", fmt) == (0, out, "")


GOLDEN = Path(__file__).parent / "golden"

# SHA-256 of every benchmark --list job and of dap at length 16, in each
# format, as the per-path writer printed them before listings came in
# blocks, and of motzkin at 18 and H at 20 as their own walkers printed them
# before every listing came from one block walker
LISTING_DIGESTS = json.loads((GOLDEN / "listing_digests.json").read_text())


@pytest.mark.parametrize("case", LISTING_DIGESTS,
                         ids=lambda c: f"{c['args']} {c['format']}")
def test_listing_bytes_are_frozen(capsys, case):
    code, out, err = run(capsys, "enumerate", *case["args"].split(),
                         "--list", "--format", case["format"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]


class _NullSink:
    def write(self, text):
        pass


@pytest.mark.parametrize("fmt, family, length, bound", [
    ("plain", "dap", 18, 8 * 2**20), ("json", "dap", 18, 8 * 2**20),
    ("csv", "dap", 18, 8 * 2**20), ("plain", "H", 20, 1.2 * 2**20),
    ("plain", "motzkin", 20, 8 * 2**20),
], ids=["plain", "json", "csv", "H-20", "motzkin-20"])
def test_listing_memory_does_not_grow_with_its_size(monkeypatch, fmt, family,
                                                   length, bound):
    # dap 18 has 175,502 paths, about 4 MB of text; H 20 and motzkin 20
    # have 75,234 each: the walker's table of completions is bounded by
    # its depth, and each block is written and dropped.  H 20's table has
    # 1,923 keys: with a list per key the listing peaked at 1.65 MiB, and
    # with one list per distinct block it peaks at 0.93 MiB
    monkeypatch.setattr(sys, "stdout", _NullSink())
    tracemalloc.start()
    try:
        blocks = _motzkin_blocks(length) if family == "motzkin" else \
            _path_blocks(length, FamilySpec(cli.FAMILY_KINDS[family]))
        cli._write_listing(fmt, {"family": family, "length": length}, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


# ------------------------------------------------------------------- map

def test_map_psi_apply_worked_example(capsys):
    code, out, _ = run(capsys, "map", "--bijection", "psi",
                       "--apply", "UUD2UUDUD2UDUDUUD2")
    assert code == 0
    assert out == "1,2,3,6,1\n"


def test_map_psi_invert_worked_example(capsys):
    code, out, _ = run(capsys, "map", "--bijection", "psi",
                       "--invert", "1,2,3,6,1")
    assert code == 0
    assert out == "UUD2UUDUD2UDUDUUD2\n"


def test_map_phi_invert_to_empty_path(capsys):
    code, out, _ = run(capsys, "map", "--bijection", "phi",
                       "--invert", "1,2")
    assert code == 0
    assert out == "ε\n"


def test_map_phi_apply_empty_path(capsys):
    code, out, _ = run(capsys, "map", "--bijection", "phi", "--apply", "ε")
    assert code == 0
    assert out == "1,2\n"


def test_map_rejects_outside_family(capsys):
    code, out, err = run(capsys, "map", "--bijection", "psi",
                         "--apply", "UDU")
    assert code == 4
    assert out == ""
    assert err != ""


@pytest.mark.parametrize("argv", [
    ("map", "--bijection", "phi", "--invert", "2,3"),
    ("map", "--bijection", "psi", "--invert", "1,3"),
    ("map", "--bijection", "psi", "--apply", "UXD"),
    ("map", "--bijection", "psi", "--apply", "UD2D2"),
    ("map", "--bijection", "phi", "--invert", "1,x"),
])
def test_map_bad_inputs_exit_four(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 4
    assert out == ""


def test_map_json_record(capsys):
    code, out, _ = run(capsys, "map", "--bijection", "psi",
                       "--apply", "UD", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"bijection": "psi", "direction": "apply",
                       "input": "UD", "output": ""}


# ---------------------------------------------------------------- verify

def test_verify_paper_series_passes(capsys):
    code, out, err = run(capsys, "verify", "--suite", "paper-series")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[-1].endswith("checks passed")
    assert all(line.startswith("[pass]") for line in lines[:-1])


def test_verify_oeis_offline(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "oeis", "--offline")
    assert code == 0
    assert "18/18 checks passed" in out


def test_verify_json_shape(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "bijections",
                       "--max-n", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "bijections"
    assert payload["ok"] is True
    assert {c["check_kind"] for c in payload["checks"]} \
        == {"bijection_roundtrip"}


def test_verify_failure_exits_one(capsys, monkeypatch):
    broken = (("dap", {}, (0, 0, 1, 1, 2, 4, 8, 17, 37, 82, 999)),)
    monkeypatch.setattr(verify, "SERIES_TABLE", broken)
    code, out, err = run(capsys, "verify", "--suite", "paper-series")
    assert code == 1
    assert "[fail]" in out
    assert "verification failed" in err


@pytest.mark.parametrize("fixture, size", [
    ("verify_all_default.json", ()),
    ("verify_all_max_n_11_order_25.json", ("--max-n", "11", "--order", "25")),
])
def test_verify_all_report_is_frozen(capsys, fixture, size):
    # the whole offline report, byte for byte, at the benchmark's two sizes
    code, out, err = run(capsys, "verify", "--offline", "--suite", "all",
                         "--format", "json", *size)
    assert code == 0
    assert err == ""
    assert out.encode() == (GOLDEN / fixture).read_bytes()
    kinds = Counter(c["check_kind"] for c in json.loads(out)["checks"])
    assert kinds == {"dual_path": 23, "oracle_vs_gf": 28,
                     "bijection_roundtrip": 4, "gf_vs_oeis": 18}


def test_verify_bad_max_n(capsys):
    code, _, err = run(capsys, "verify", "--suite", "oracle", "--max-n", "1")
    assert code == 3
    assert err != ""


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "imagined"])
    assert info.value.code == 3


def test_verify_has_no_threads_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "paper-series", "--threads", "2"])
    assert info.value.code == 3


def test_verify_order_floor_fits_every_cited_run(capsys):
    # Gm1 has four leading zeros: a 9-term run against A110320 needs
    # order 12, so order 11 is refused instead of failing the alignment
    code, out, err = run(capsys, "verify", "--suite", "oeis", "--offline",
                         "--order", "11")
    assert code == 3
    assert out == ""
    assert "at least 12" in err
    code, out, _ = run(capsys, "verify", "--suite", "oeis", "--offline",
                       "--order", "12")
    assert code == 0
    assert "18/18 checks passed" in out


# -------------------------------------------------------------- ceilings

ABOVE_CEILINGS = [
    (["series", "G", "--order", "1000000000"], cli.MAX_ORDER),
    (["series", "sym_f", "--k", "0", "--t", "1000000000", "--order", "5"],
     cli.MAX_T),
    (["enumerate", "--family", "gdap", "--length", "40", "--list"],
     cli.MAX_LISTED_PATHS),
    (["series", "G", "--order", str(cli.MAX_ORDER + 1)], cli.MAX_ORDER),
    (["series", "D", "--t", str(cli.MAX_T + 1), "--order", "3"], cli.MAX_T),
    (["series", "Tk", "--k", str(cli.MAX_ORDINATE + 1), "--order", "3"],
     cli.MAX_ORDINATE),
    (["series", "Rk", "--k", str(-cli.MAX_ORDINATE - 1), "--order", "3"],
     cli.MAX_ORDINATE),
    (["series", "minorized", "--m", str(-cli.MAX_ORDINATE - 1)],
     cli.MAX_ORDINATE),
    (["enumerate", "--length", str(cli.MAX_LENGTH + 1), "--count"],
     cli.MAX_LENGTH),
    (["enumerate", "--family", "H", "--length", str(cli.MAX_H_LENGTH + 1),
      "--count"], cli.MAX_H_LENGTH),
    (["enumerate", "--family", "dap", "--length", "24", "--list"],
     cli.MAX_LISTED_PATHS),
    (["enumerate", "--family", "motzkin", "--length", "60", "--list"],
     cli.MAX_LISTED_PATHS),
    (["verify", "--offline", "--suite", "oracle", "--max-n",
      str(cli.MAX_N + 1)], cli.MAX_N),
    (["verify", "--offline", "--suite", "bijections", "--max-n",
      str(cli.MAX_ROUNDTRIP_N + 1)], cli.MAX_ROUNDTRIP_N),
    (["verify", "--offline", "--suite", "all", "--max-n",
      str(cli.MAX_ROUNDTRIP_N + 1)], cli.MAX_ROUNDTRIP_N),
    (["verify", "--offline", "--suite", "oeis", "--order",
      str(cli.MAX_ORDER + 1)], cli.MAX_ORDER),
    # the decoded path is about as long as the parts' sum: 10000001 took
    # 6.4 s and 549 MB before the ceiling
    (["map", "--bijection", "psi", "--invert", "10000001"], cli.MAX_LENGTH),
    (["map", "--bijection", "phi", "--invert", "1,10000000"], cli.MAX_LENGTH),
    (["map", "--bijection", "psi", "--invert", "1000000001"], cli.MAX_LENGTH),
    (["map", "--bijection", "phi", "--invert",
      f"1,{cli.MAX_LENGTH}"], cli.MAX_LENGTH),
    # the counter's vectors are as wide as the floor or the reach: at
    # -1000000 these took 8 s and 310 MB before the ceiling
    (["enumerate", "--family", "prefix", "--end-ordinate", "-1000000",
      "--length", "30", "--count"], cli.MAX_LENGTH),
    (["enumerate", "--family", "prefix", "--min-y", "-1000000",
      "--length", "30", "--count"], cli.MAX_LENGTH),
    (["enumerate", "--family", "gdap", "--min-y",
      str(-cli.MAX_LENGTH - 1), "--length", "30", "--list"], cli.MAX_LENGTH),
]


@pytest.mark.parametrize("argv, ceiling", ABOVE_CEILINGS)
def test_request_above_a_ceiling_exits_3_at_once(capsys, argv, ceiling):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert f"the ceiling of {ceiling}" in err or f"floor of {-ceiling}" in err


@pytest.mark.parametrize("argv", [
    ["series", "Tk", "--k", str(cli.MAX_ORDINATE), "--order", "3"],
    ["series", "Rk", "--k", str(-cli.MAX_ORDINATE), "--order", "3"],
    ["series", "minorized", "--m", str(-cli.MAX_ORDINATE), "--order", "3"],
    ["enumerate", "--family", "gdap", "--min-y", "-1", "--max-y", "1",
     "--length", str(cli.MAX_LENGTH), "--count"],
    ["enumerate", "--family", "prefix", "--min-y", str(-cli.MAX_LENGTH),
     "--length", "30", "--count"],
    ["enumerate", "--family", "prefix", "--end-ordinate",
     str(-cli.MAX_LENGTH), "--length", "30", "--count"],
    ["map", "--bijection", "psi", "--invert", str(cli.MAX_LENGTH)],
    ["map", "--bijection", "phi", "--invert", f"1,{cli.MAX_LENGTH - 2}"],
])
def test_request_at_a_ceiling_runs(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out


# ------------------------------------------------------------ exit codes

@pytest.mark.parametrize("base, code", [
    (InputError, 3), (DomainError, 4), (UnknownName, 2),
])
def test_exit_code_follows_the_error_class(capsys, monkeypatch, base, code):
    fresh = type("Fresh", (base,), {})

    def handler(args):
        raise fresh("made up")

    monkeypatch.setattr(cli, "_cmd_series", handler)
    assert run(capsys, "series", "G") == (code, "", "error: made up\n")


def test_an_internal_error_is_not_given_an_exit_code(monkeypatch):
    def handler(args):
        raise ConsistencyError("a bug")

    monkeypatch.setattr(cli, "_cmd_series", handler)
    with pytest.raises(ConsistencyError):
        main(["series", "G"])


CATEGORIES = {
    "input": {"BadParams", "InfeasibleSpec"},
    "domain": {"MalformedToken", "ConsecutiveDowns", "NotDAP", "NotPrime",
               "BadEnds", "NotInFamily", "NotAlternating", "NotInCPrime"},
    "unknown name": {"UnknownName"},
    "neither": {"OrderMismatch", "DivisionByZeroSeries", "ValuationUnderflow",
                "BadConstantTerm", "NonInvertible", "SingularToOrder",
                "ConsistencyError", "NetworkUnavailable", "ParseError",
                "UnknownSequence", "NoAlignment"},
}


def test_every_error_class_has_at_most_one_category():
    bases = {"input": InputError, "domain": DomainError,
             "unknown name": UnknownName}
    classes = {name: value for name, value in vars(errors).items()
               if isinstance(value, type)
               and issubclass(value, errors.AirpocketsError)
               and value not in (errors.AirpocketsError, InputError,
                                 DomainError)}
    assert set(classes) == set().union(*CATEGORIES.values())
    for category, names in CATEGORIES.items():
        for name in names:
            found = [c for c, base in bases.items()
                     if issubclass(classes[name], base)]
            assert found == ([] if category == "neither" else [category]), name
    assert issubclass(InputError, ValueError)
    assert issubclass(DomainError, ValueError)


# every bad request the command line answers, with its exit code
BAD_REQUESTS = [
    (2, ["series", "nosuch"]),
    (3, ["series", "G", "--k", "3"]),
    (3, ["series", "G", "--order", "-1"]),
    (3, ["series", "Ak", "--k", "-1", "--order", "5"]),
    (3, ["series", "D", "--t", "-1"]),
    (3, ["series", "G", "--order", "x"]),
    *[(3, ["enumerate", "--family", "motzkin", "--length", "6", "--count",
           *flag]) for flag in (["--min-y", "0"], ["--max-y", "2"],
                                ["--end-ordinate", "0"],
                                ["--end-step", "down"],
                                ["--start-step", "up"])],
    (3, ["enumerate", "--family", "prefix", "--end-ordinate", "7",
         "--length", "3", "--count"]),
    (3, ["enumerate", "--family", "dap", "--length", "4"]),
    (3, ["enumerate", "--family", "gdap", "--length", "-1", "--count"]),
    (3, ["enumerate", "--family", "motzkin", "--length", "-1", "--count"]),
    (3, ["enumerate", "--family", "H", "--min-y", "0", "--length", "3",
         "--count"]),
    (4, ["map", "--bijection", "psi", "--apply", "UDU"]),
    (4, ["map", "--bijection", "phi", "--invert", "2,3"]),
    (4, ["map", "--bijection", "psi", "--invert", "1,3"]),
    (4, ["map", "--bijection", "psi", "--apply", "UXD"]),
    (4, ["map", "--bijection", "psi", "--apply", "UD2D2"]),
    (4, ["map", "--bijection", "phi", "--invert", "1,x"]),
    (4, ["map", "--bijection", "psi", "--invert", "0,1"]),
    (4, ["map", "--bijection", "psi", "--apply", "UD0"]),
    (4, ["map", "--bijection", "psi", "--apply", "UD\u00b2"]),
    (4, ["map", "--bijection", "psi", "--apply", "UD" + "9" * 5000]),
    (4, ["map", "--bijection", "psi", "--invert", "9" * 5000]),
    (3, ["verify", "--suite", "oracle", "--max-n", "1"]),
    (3, ["verify", "--suite", "imagined"]),
    (3, ["verify", "--suite", "paper-series", "--threads", "2"]),
    (3, ["verify", "--suite", "oeis", "--offline", "--order", "11"]),
    (3, ["verify", "--refresh"]),
    (3, ["imagined"]),
]


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as stop:  # a usage error, before any handler runs
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("code, argv", BAD_REQUESTS + [
    (3, argv) for argv, _ in ABOVE_CEILINGS])
def test_bad_request_exits_with_its_code_and_no_output(capsys, code, argv):
    got, out, err = _outcome(capsys, argv)
    assert (got, out) == (code, "")
    assert "error: " in err.splitlines()[0]
    assert "Traceback" not in err


# ---------------------------------------------------------------- parser

# argv and what the argparse parser that getopt replaced made of it: the
# attributes it set (all but the handler) or the code it exited with
PARSE_TABLE = json.loads((GOLDEN / "cli_parse.json").read_text("utf-8"))


def test_parse_table_holds_every_bad_request():
    recorded = [row["argv"] for row in PARSE_TABLE]
    for argv in [argv for _, argv in BAD_REQUESTS] + [
            argv for argv, _ in ABOVE_CEILINGS]:
        assert argv in recorded


@pytest.mark.parametrize("row", PARSE_TABLE, ids=[
    " ".join(row["argv"])[:50] for row in PARSE_TABLE])
def test_parser_reproduces_the_recorded_parse(capsys, row):
    try:
        got = {"argv": row["argv"], "args": vars(cli._parse(row["argv"]))}
    except SystemExit as stop:
        got = {"argv": row["argv"], "exit": stop.code}
    assert got == row
    out, err = capsys.readouterr()
    if got.get("exit") == 3:
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("airpockets") and ": error: " in err
    elif "exit" in got:
        assert out and err == ""


# every flag and every value allowed, by command (None: the whole CLI)
HELP_WORDS = {
    None: ["series", "enumerate", "map", "verify"],
    "series": ["--order", "--k", "--t", "--m"],
    "enumerate": ["--family", "dap", "gdap", "prime", "prefix", "H",
                  "motzkin", "--length", "--min-y", "--max-y",
                  "--end-ordinate", "--end-step", "--start-step", "up",
                  "down", "--list", "--count"],
    "map": ["--bijection", "psi", "phi", "--apply", "--invert"],
    "verify": ["--suite", "paper-series", "oracle", "bijections", "oeis",
               "all", "--max-n", "--order", "--offline"],
}


@pytest.mark.parametrize("command", HELP_WORDS)
def test_help_names_every_flag_and_choice(capsys, command):
    with pytest.raises(SystemExit) as info:
        main(["--help"] if command is None else [command, "--help"])
    out, err = capsys.readouterr()
    assert info.value.code == 0
    assert err == ""
    words = set(re.findall(r"[\w-]+", out))
    formats = [] if command is None else ["--format", "plain", "json", "csv"]
    assert set(HELP_WORDS[command] + formats) <= words
    # and no flag it does not take: the option syntax names only --flag
    # and --help
    assert {w for w in words if w.startswith("--")} == {
        w for w in HELP_WORDS[command] + formats + ["--flag", "--help"]
        if w.startswith("--")}


@pytest.mark.parametrize("token", ["--order=5", "--=3", "-a b", "-1"])
def test_a_token_after_double_dash_is_taken_as_written(token):
    # every token after "--" is positional and kept as written, even one
    # shaped like a flag with a value
    assert cli._parse(["series", "--", token]).name == token


@pytest.mark.parametrize("brk", "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029",
                         ids=ascii)
@pytest.mark.parametrize("argv", [
    ["series", "G", "a{}b"],
    ["series", "G", "--ord{}er", "5"],
    ["series", "G", "-x\r{}y"],
    ["enumerate", "--family", "gdap", "--length", "4", "--count",
     "extra{}tok"],
])
def test_a_usage_error_stays_on_one_line(capsys, argv, brk):
    # every character str.splitlines breaks at is written as its repr
    # escape, so "\n" still prints as \n
    with pytest.raises(SystemExit) as info:
        main([token.format(brk) for token in argv])
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (3, "")
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert repr(brk)[1:-1] in err


def test_flags_may_follow_the_name_under_posixly_correct(capsys,
                                                         monkeypatch):
    argv = ["series", "G", "--order", "4", "--format", "csv"]
    expected = run(capsys, *argv)
    monkeypatch.setenv("POSIXLY_CORRECT", "1")
    assert run(capsys, *argv) == expected == (
        0, "n,coefficient\n0,1\n1,0\n2,2\n3,3\n4,7\n", "")


# ----------------------------------------------------- generated requests

# the size ceilings that bound each int flag: a drawn value is small (every
# accepted request then runs in a fraction of a second), just above or far
# beyond a ceiling or below its negation, or junk
FLAG_CEILINGS = {
    "order": (cli.MAX_ORDER,), "k": (cli.MAX_ORDINATE,), "t": (cli.MAX_T,),
    "m": (cli.MAX_ORDINATE,), "length": (cli.MAX_H_LENGTH, cli.MAX_LENGTH),
    "min-y": (cli.MAX_LENGTH,), "max-y": (), "end-ordinate": (cli.MAX_LENGTH,),
    "max-n": (cli.MAX_ROUNDTRIP_N, cli.MAX_N),
}
JUNK = st.text(max_size=6)


def _rarely(draw, one_in):
    return draw(st.integers(1, one_in)) == 1


@st.composite
def _values(draw, flag, kind):
    if _rarely(draw, 5):
        return draw(JUNK)
    if kind is int:
        edges = [10 ** 40]
        for ceiling in FLAG_CEILINGS[flag]:
            edges += [ceiling + 1, -ceiling - 1, ceiling * 10 ** 6]
        if _rarely(draw, 3):
            return str(draw(st.sampled_from(edges)))
        return str(draw(st.integers(-3, 12)))
    if isinstance(kind, tuple):
        return draw(st.sampled_from(kind))
    if flag == "apply":
        return draw(st.text("UD23", max_size=10))
    # map --invert: the parts' sum is bounded by MAX_LENGTH
    if _rarely(draw, 3):
        return draw(st.sampled_from([str(cli.MAX_LENGTH + 1),
                                     f"1,{cli.MAX_LENGTH}", "1,10000000"]))
    return ",".join(map(str, draw(st.lists(st.integers(0, 4), max_size=5))))


@st.composite
def requests(draw):
    """argv for cli.main: a command (or junk), some of its flags under any
    prefix, each with a value as its own token or after "=", in any order,
    and now and then a junk token, "--", -h or a spare positional."""
    command = draw(st.sampled_from([*cli.COMMANDS, None]))
    if command is None:
        return draw(st.lists(JUNK, max_size=2))
    spec = cli.COMMANDS[command]
    names = draw(st.lists(st.sampled_from(list(spec["flags"])), max_size=3))
    names += [name for name in spec["required"] if not _rarely(draw, 4)]
    if spec["exclusive"] and not _rarely(draw, 4):
        names += draw(st.lists(st.sampled_from(spec["exclusive"]),
                               min_size=1, max_size=1 + _rarely(draw, 4)))
    words = []
    for name in draw(st.permutations(names)):
        kind = spec["flags"][name][0]
        cut = len(name) if draw(st.booleans()) else draw(
            st.integers(1, len(name)))
        written = "--" + name[:cut]
        if kind is bool:
            words.append([written + "=" + draw(JUNK)] if _rarely(draw, 6)
                         else [written])
            continue
        value = draw(_values(name, kind))
        words.append([f"{written}={value}"] if draw(st.booleans()) else
                     [written, value])
    if spec["positional"] and not _rarely(draw, 6):
        name = draw(JUNK) if _rarely(draw, 4) else draw(
            st.sampled_from(sorted(catalog.CATALOG)))
        words.insert(draw(st.integers(0, len(words))), [name])
    if _rarely(draw, 4):
        extra = draw(st.one_of(st.sampled_from(
            ["--", "-h", "--help", "--he", "--help=1", "-"]), JUNK))
        words.insert(draw(st.integers(0, len(words))), [extra])
    return [command] + [token for word in words for token in word]


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@seed(20221108)
@given(argv=requests())
def test_generated_request_ends_in_a_documented_exit_code(monkeypatch, argv):
    # the OEIS suite falls back to the bundled fixtures, and the autouse
    # fixture keeps its cache in a temporary directory
    def offline(url, timeout):
        raise OSError(f"no network in tests: {url}")

    monkeypatch.setattr(oeis, "_http_get", offline)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
            usage_error = False
        except SystemExit as stop:  # a usage error or the help
            code, usage_error = stop.code, stop.code != cli.EXIT_OK
    assert cli.EXIT_OK <= code <= cli.EXIT_OUT_OF_DOMAIN
    if usage_error:
        assert code == cli.EXIT_BAD_PARAMS
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1
        assert err.getvalue().endswith("\n")


# ------------------------------------------------------------ entry point

def test_module_entry_point():
    src = os.path.dirname(os.path.dirname(airpockets.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "airpockets", "series", "dap", "--order", "6"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0
    assert proc.stdout == "0 0 1 1 2 4 8\n"


def test_closed_stdout_ends_a_listing_quietly():
    # the reader leaves after one line, as `| head -1` does, while most of
    # the listing (about 0.8 MB) is still to be written
    src = os.path.dirname(os.path.dirname(airpockets.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "airpockets", "enumerate", "--family", "dap",
         "--length", "16", "--list"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src})
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 0
    assert first == b"U" * 15 + b"D15\n"
    assert "Traceback" not in err and err == ""


# --------------------------------------------------------- start-up heap

def _freeze_counts(*statements: str) -> list[int]:
    # the freeze count after each statement, in one fresh process: pytest's
    # own process has frozen or not as earlier tests left it
    src = os.path.dirname(os.path.dirname(airpockets.__file__))
    code = "import gc, sys\n" + "".join(
        f"{statement}\nsys.stderr.write(f'{{gc.get_freeze_count()}}\\n')\n"
        for statement in statements)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          check=True)
    return [int(line) for line in proc.stderr.splitlines()]


def test_a_command_run_freezes_the_start_up_heap():
    [frozen] = _freeze_counts(
        "from airpockets.cli import main; main(['series', 'G', '--order', '5'])")
    assert frozen > 0


def test_an_import_and_the_library_freeze_nothing():
    # the import alone (what a set-up launch times) and library calls leave
    # the collector as it was; the command run after them freezes
    imported, evaluated, commanded = _freeze_counts(
        "import airpockets.cli",
        "from airpockets import evaluate; evaluate('G', 5)",
        "airpockets.cli.main(['series', 'G', '--order', '5'])")
    assert imported == evaluated == 0
    assert commanded > 0


def test_a_second_command_run_freezes_nothing_more(capsys):
    assert run(capsys, "series", "G", "--order", "5")[0] == 0
    frozen = gc.get_freeze_count()
    assert frozen > 0
    pending = [[] for _ in range(1000)]  # alive at the second call
    assert run(capsys, "series", "G", "--order", "5")[0] == 0
    assert gc.get_freeze_count() == frozen
    del pending


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["imagined"])
    assert info.value.code == 3
