"""The benchmark's child process still runs and traces against the package.

bench/child.py with --trace installs bench/tracer.py, which looks the
package's modules up in sys.modules right after importing airpockets and
airpockets.cli; these runs fail if that import stops registering them.
Reading a function off a module runs the module, so the tracer wraps
every function it names, and the command handlers, which look each
function up on its module at call time, call the wrapped one.  The
tracer also wraps TruncatedSeries methods by name, so its series counters
must still count something where `verify` runs series arithmetic.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import airpockets
from airpockets.enumeration import FamilySpec, enum_h, enum_paths

CHILD = Path(__file__).resolve().parent.parent / "bench" / "child.py"


def _traced_child(tmp_path, *args):
    trace = tmp_path / "trace.json"
    src = os.path.dirname(os.path.dirname(airpockets.__file__))
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(tmp_path / "footer.json"),
         "--trace", str(trace), *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return json.loads(trace.read_text())


@pytest.mark.parametrize("mode", ["cli", "session"])
def test_traced_child_records_evaluate_spans(tmp_path, mode):
    if mode == "cli":
        args = ["cli", "series", "G", "--order", "10"]
    else:
        stream = tmp_path / "stream.json"
        stream.write_text(json.dumps([["G", {}, 10], ["Bk", {"k": 3}, 12]]))
        args = ["session", str(stream)]
    spans = _traced_child(tmp_path, *args)["spans"]
    assert any(span[2] == "catalog.evaluate" for span in spans)


def test_traced_verify_counts_series_products(tmp_path):
    # the tracer wraps TruncatedSeries methods by name; the dual
    # derivations of paper-series multiply series, so the count is positive
    trace = _traced_child(tmp_path, "cli", "verify", "--offline",
                          "--suite", "paper-series")
    calls = sum(counters.get("series.mul.calls", 0)
                for counters in trace["span_counters"].values())
    assert calls > 0


def test_traced_listing_runs(tmp_path):
    # the tracer wraps enum_h and enum_paths by module attribute and counts
    # the paths enum_paths returns with len(); the CLI streams its listings
    # past both, but they must stay and stay lists
    spans = _traced_child(tmp_path, "cli", "enumerate", "--family", "H",
                          "--length", "6", "--list")["spans"]
    assert any(span[2] == "cli.main" for span in spans)
    assert isinstance(enum_paths(4, FamilySpec("dap")), list)
    assert isinstance(enum_h(4), list)


@pytest.mark.parametrize("args, span", [
    (["map", "--bijection", "phi", "--invert", "3,6,3,2,1,2"], "bijections"),
    (["enumerate", "--family", "gdap", "--length", "12", "--count"],
     "enumeration.count_paths"),
], ids=["map", "enumerate-count"])
def test_traced_command_records_its_spans(tmp_path, args, span):
    spans = _traced_child(tmp_path, "cli", *args)["spans"]
    assert {"cli.main", span} <= {s[2] for s in spans}
