"""Per-layer metrics from the spans and counters of a traced run.

Each job contributes the trace of its fastest repeat; the metrics sum over
the job list.  A layer's `.s` is the time inside its outermost spans (a
bijection that calls another counts once), `.self_s` is a span's time
minus the part its child spans cover (children on worker threads
overlap, so their union is taken), and `.calls` counts every span.
"""

from __future__ import annotations

SPAN_LAYERS = ("catalog.evaluate", "catalog.poly_det",
               "catalog.solve_series_system", "enumeration.count_paths",
               "enumeration.enum_h", "enumeration.enum_paths", "bijections",
               "oeis.fetch_sequence", "oeis.align_and_compare")
SELF_LAYERS = ("catalog.evaluate", "cli.main", "verify.run_suite")
ARITH = ("series.mul", "series.div", "series.sqrt")
IMPORT_METRICS = {"airpockets": "setup.import.airpockets_s",
                  "airpockets.oeis": "setup.import.oeis_s",
                  "airpockets.catalog": "setup.import.catalog_s",
                  "airpockets.verify": "setup.import.verify_s"}


def _covered(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def trace_metrics(dump: dict) -> dict[str, float]:
    """Raw sums for one traced process."""
    spans = {s[0]: s for s in dump["spans"]}
    children: dict[int, list] = {}
    for span in spans.values():
        children.setdefault(span[1], []).append(span)
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for sid, span in spans.items():
        _, parent, name, _, start, end = span
        add(name + ".calls", 1)
        outermost = True
        while parent in spans:
            if spans[parent][2] == name:
                outermost = False
                break
            parent = spans[parent][1]
        if outermost:
            add(name + ".s", end - start)
        if name in SELF_LAYERS:
            kids = [(max(k[4], start), min(k[5], end))
                    for k in children.get(sid, ())]
            add(name + ".self_s",
                end - start - _covered([k for k in kids if k[1] > k[0]]))
    for sid, counters in dump["span_counters"].items():
        for key, value in counters.items():
            if key == "arith_ran":
                if spans[int(sid)][2] == "catalog.evaluate":
                    add("catalog.evaluate.missed", value)
            else:
                add(key if key.startswith("series.") else
                    f"{spans[int(sid)][2]}.{key}", value)
    for key, value in dump["counters"].items():
        add(key, value)
    return out


def metric_units() -> dict[str, str]:
    units = {name: "s" for name in IMPORT_METRICS.values()}
    for op in ARITH:
        units[op + ".calls"] = "count"
        units[op + ".s"] = "s"
    units["series.mul.coeff_products"] = "count"
    for layer in SPAN_LAYERS:
        units[layer + ".calls"] = "count"
        units[layer + ".s"] = "s"
    units["catalog.evaluate.self_s"] = "s"
    units["catalog.evaluate.miss_ratio"] = "ratio"
    units["enumeration.enum_paths.paths"] = "count"
    units["paths.LatticePath.created"] = "count"
    units["cli.main.self_s"] = "s"
    units["verify.run_suite.self_s"] = "s"
    units["trace.wall_s"] = "s"
    units["host.probe_s"] = "s"
    return units


def per_layer(records, setup) -> tuple[dict[str, float], dict[str, str]]:
    units = metric_units()
    sums: dict[str, float] = {}
    for record in records:
        if record.fastest_trace is None:
            continue
        for key, value in trace_metrics(record.fastest_trace).items():
            sums[key] = sums.get(key, 0) + value
    values = {}
    for name in units:
        values[name] = sums.get(name, 0)
    calls = sums.get("catalog.evaluate.calls", 0)
    values["catalog.evaluate.miss_ratio"] = (
        sums.get("catalog.evaluate.missed", 0) / calls if calls else 0.0)
    for module, name in IMPORT_METRICS.items():
        samples = setup.per_module[module]
        values[name] = min(samples) if samples else 0.0
    return values, units
