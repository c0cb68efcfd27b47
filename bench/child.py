"""One benchmark job, run in a fresh interpreter.

    python3 bench/child.py FOOTER [--trace TRACE] cli ARG...
    python3 bench/child.py FOOTER [--trace TRACE] session STREAM

`cli` runs the airpockets command line exactly as its console script does.
`session` makes the evaluate calls listed in the JSON file STREAM (a list
of [name, params, order]) in this one process and prints each result's
coefficients as one JSON line.  On the way out the child writes its own
peak resident set (VmHWM) to FOOTER, and with --trace the spans and
counters recorded by bench/tracer.py to TRACE.
"""

from __future__ import annotations

import json
import sys


def _peak_rss_kb() -> int:
    # VmHWM belongs to this process image alone; the rusage a parent gets
    # from wait4 also carries the parent's own peak from before the exec
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _session(stream_path: str) -> int:
    from airpockets import evaluate

    with open(stream_path, encoding="utf-8") as handle:
        stream = json.load(handle)
    write = sys.stdout.write
    for name, params, order in stream:
        coeffs = evaluate(name, order, **params).series.integer_coefficients()
        write(json.dumps(coeffs) + "\n")
    return 0


def main(argv: list[str]) -> int:
    footer, rest = argv[0], argv[1:]
    trace_path = None
    if rest[0] == "--trace":
        trace_path, rest = rest[1], rest[2:]
        import tracer as tracing

        active = tracing.Tracer()
        tracing.install(active)
    mode, args = rest[0], rest[1:]
    try:
        if mode == "cli":
            from airpockets import cli

            return cli.main(args)
        if mode == "session":
            if trace_path:
                return active.span("session", _session)(args[0])
            return _session(args[0])
        raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if trace_path:
            active.dump(trace_path)
        with open(footer, "w", encoding="ascii") as handle:
            json.dump({"peak_rss_kb": _peak_rss_kb()}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
