"""Benchmark the airpockets command line and library from the outside.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from the src/ directory beside bench/.  One run:

1. compiles the package to bytecode and holds the reference counter
   (refcount.py) to an exhaustive walk and to the bundled OEIS fixtures;
2. runs rounds over the workload's job list, one job at a time, each in a
   fresh process: at least MIN_ROUNDS rounds, then more while another
   fits in S seconds.  A job's time is its fastest round;
3. spreads LAUNCHES_PER_ROUND launches of two fixed commands through each
   round: a fresh interpreter importing airpockets.cli (the set-up time;
   with --trace 1 under -X importtime, for per-module import times) and
   probe.py, which uses nothing from the package and shows how fast the
   host is;
4. checks every output against the reference counter and prints one JSON
   line: correct, attempted, failed and the metrics.

Times are scaled to one host speed: multiplied by PROBE_REF_S over the
probe's fastest launch in the same run.  setup_s is the fastest set-up
launch, wall_s and cpu_s sum the jobs' fastest rounds, peak_rss_mb is the
largest child peak (not scaled).  The unscaled figures are kept in the
result file.  With --trace 1 the children record spans (tracer.py) and the
metrics are the per-layer ones, taken from each job's fastest round and
summed over the job list.  Results, with the host and commit they came
from, are written under bench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import threading
import time

import layers
import refcount
import workloads

MIN_ROUNDS = 3
LAUNCHES_PER_ROUND = 4
# the probe's fastest launch on an idle stretch of the 2-CPU host the
# benchmark was written on; times are reported at that host speed
PROBE_REF_S = 0.125
CHILD_TIMEOUT_S = 60.0
IMPORT_MODULES = ("airpockets", "airpockets.oeis", "airpockets.catalog",
                  "airpockets.verify")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def child_env(cache_dir: str) -> dict[str, str]:
    env = dict(os.environ)
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0",
               AIRPOCKETS_OEIS_CACHE=cache_dir)
    return env


def spawn(argv, env, out_path, err_path) -> tuple[int, float, float]:
    """Run one child to its end; (exit code, wall s, user+sys CPU s)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime


# ------------------------------------------------------------ set-up

_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \| \s*(\S+)")


class Launches:
    """Fresh interpreters running one fixed command, one launch at a time."""

    def __init__(self, name: str, argv: list[str], env, work: str):
        self.name, self.argv, self.env = name, argv, env
        self.out = os.path.join(work, f"{name}.out")
        self.err = os.path.join(work, f"{name}.err")
        self.walls: list[float] = []
        self.per_module: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}

    def launch(self) -> None:
        code, wall, _ = spawn(self.argv, self.env, self.out, self.err)
        with open(self.err, encoding="utf-8", errors="replace") as handle:
            err = handle.read()
        if code != 0:
            raise RuntimeError(f"{self.name} launch failed:\n{err[-2000:]}")
        self.walls.append(wall)
        for match in _IMPORT_LINE.finditer(err):
            if match.group(2) in self.per_module:
                self.per_module[match.group(2)].append(int(match.group(1)) / 1e6)


# -------------------------------------------------------------- jobs

class JobRecord:
    def __init__(self, job: workloads.Job):
        self.job = job
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.peak_kb = 0
        self.attempted = self.failed = self.wrong = 0
        self.notes: set[str] = set()
        self.fastest_trace: dict | None = None
        self._verdicts: dict[str, workloads.Verdict] = {}

    def judge(self, code: int, out: bytes, err: bytes) -> workloads.Verdict:
        # identical output, exit code and diagnostics earn the same verdict
        key = hashlib.sha256(b"%d\0%s\0%s" % (code, out, err)).hexdigest()
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self.job.check(code, out.decode("utf-8", "replace"),
                                     err.decode("utf-8", "replace"))
            self._verdicts[key] = verdict
        return verdict


def run_job(record: JobRecord, env, work: str, trace: bool) -> None:
    job = record.job
    footer = os.path.join(work, "footer.json")
    trace_path = os.path.join(work, "trace.json")
    argv = [sys.executable, os.path.join(BENCH_DIR, "child.py"), footer]
    if trace:
        argv += ["--trace", trace_path]
    if job.mode == "session":
        stream_path = os.path.join(work, "stream.json")
        with open(stream_path, "w", encoding="utf-8") as handle:
            handle.write(job.args[0])
        argv += ["session", stream_path]
    else:
        argv += ["cli", *job.args]
    for path in (footer, trace_path):
        if os.path.exists(path):
            os.unlink(path)
    out_path, err_path = os.path.join(work, "job.out"), os.path.join(work, "job.err")
    code, wall, cpu = spawn(argv, env, out_path, err_path)
    with open(out_path, "rb") as handle:
        out = handle.read()
    with open(err_path, "rb") as handle:
        err = handle.read()
    failed, wrong, note = record.judge(code, out, err)
    record.attempted += job.ops
    record.failed += failed
    record.wrong += wrong
    if note:
        record.notes.add(note)
    if os.path.exists(footer):
        with open(footer, encoding="ascii") as handle:
            record.peak_kb = max(record.peak_kb, json.load(handle)["peak_rss_kb"])
    if trace and os.path.exists(trace_path) and \
            (not record.walls or wall < min(record.walls)):
        with open(trace_path, encoding="utf-8") as handle:
            record.fastest_trace = json.load(handle)
    record.walls.append(wall)
    record.cpus.append(cpu)


def run_rounds(records, launches: list[Launches], env, work, trace: bool,
               seconds: float) -> int:
    """Rounds over the job list: at least MIN_ROUNDS, then more while
    another fits in `seconds`.  LAUNCHES_PER_ROUND launches of each
    fixed command are spread through each round, so neither a job's
    repeats nor the launches share one stretch of time."""
    start = time.perf_counter()
    launches_before = [0] * len(records)
    for i in range(LAUNCHES_PER_ROUND):
        launches_before[len(records) * i // LAUNCHES_PER_ROUND] += 1
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for record, count in zip(records, launches_before):
            for _ in range(count):
                for launcher in launches:
                    launcher.launch()
            run_job(record, env, work, trace)
        rounds += 1
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and now - start + (now - round_start) > seconds:
            return rounds


# ------------------------------------------------------------ output

def host_info() -> dict:
    commit = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg": list(os.getloadavg())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    fixtures = os.path.join(SRC, "airpockets", "fixtures")
    if not os.path.isfile(os.path.join(SRC, "airpockets", "cli.py")):
        print(f"error: no airpockets sources under {SRC}; bench/ must sit "
              "at the root of a source checkout", file=sys.stderr)
        return 2

    out_dir = os.path.join(BENCH_DIR, "out")
    tag = f"{args.workload}-s{args.seed}" + ("-trace" if trace else "")
    work = os.path.join(out_dir, f"work-{tag}-{os.getpid()}")
    cache = os.path.join(work, "oeis-cache")
    os.makedirs(cache)
    try:
        host = host_info()
        compileall.compile_dir(SRC, quiet=1)
        compileall.compile_dir(BENCH_DIR, quiet=1, maxlevels=0)
        problems = refcount.self_check(fixtures)
        env = child_env(cache)
        setup = Launches("setup", [sys.executable]
                         + (["-X", "importtime"] if trace else [])
                         + ["-c", "import airpockets.cli"], env, work)
        probe = Launches("probe", [sys.executable,
                                   os.path.join(BENCH_DIR, "probe.py")],
                         env, work)
        records = [JobRecord(job)
                   for job in workloads.jobs_for(args.workload, args.seed)]
        rounds = run_rounds(records, [setup, probe], env, work, trace,
                            args.seconds)
        if os.listdir(cache):
            problems.append("a child wrote to the OEIS cache of an offline run")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    wrong = sum(r.wrong for r in records)
    measured = {"setup_s": min(setup.walls),
                "wall_s": sum(min(r.walls) for r in records),
                "cpu_s": sum(min(r.cpus) for r in records),
                "probe_s": min(probe.walls)}
    scale = PROBE_REF_S / measured["probe_s"]
    if trace:
        values, units = layers.per_layer(records, setup)
        values["trace.wall_s"] = measured["wall_s"] * scale
        values["host.probe_s"] = measured["probe_s"]
    else:
        values = {"setup_s": measured["setup_s"] * scale,
                  "wall_s": measured["wall_s"] * scale,
                  "cpu_s": measured["cpu_s"] * scale,
                  "peak_rss_mb": max(r.peak_kb for r in records) / 1024}
        units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                 "peak_rss_mb": "MB"}
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in values}
    result = {"correct": not problems and wrong == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=trace, rounds=rounds,
                  host=host, counter_problems=problems,
                  measured=measured, setup_walls=setup.walls,
                  probe_walls=probe.walls,
                  jobs=[{"job": r.job.label, "fastest_wall_s": min(r.walls),
                         "fastest_cpu_s": min(r.cpus),
                         "walls": r.walls, "peak_rss_mb": r.peak_kb / 1024,
                         "attempted": r.attempted, "failed": r.failed,
                         "notes": sorted(r.notes)} for r in records])
    if args.workload == "session-warm":
        detail["stream_shares"] = workloads.classify_stream(
            workloads.session_stream(f"{args.seed}:0"))
    with open(os.path.join(out_dir, f"{tag}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1)
    if trace:
        with open(os.path.join(out_dir, f"{tag}-spans.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({r.job.label: r.fastest_trace for r in records}, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
