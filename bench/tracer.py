"""Spans and counters recorded around the package's public functions.

The tracer is installed from outside, after import: each wrapped function
is replaced on every airpockets module that binds it, because `cli`,
`verify` and the package itself import `evaluate`, `count_paths` and the
bijections by name.  A span is (id, parent, name, thread, start, end).  The
parent is the innermost open span on the same thread; a thread with no
open span (a `verify` worker) takes the main thread's innermost span,
which is `run_suite` while the pool runs.

Series arithmetic is too frequent for spans.  Each series-by-series
product, quotient and square root adds to counters on the innermost open
span instead: calls, seconds and, for products, the coefficient products
a schoolbook product of order N performs, (N + 1)(N + 2) / 2.  Counters
and spans live in memory until `dump` writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

_clock = time.perf_counter
_ident = threading.get_ident


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [id, parent, name, thread, t0, t1]
        self.span_counters: dict[int, dict[str, float]] = {}
        self.counters: dict[tuple[int, str], int] = {}   # (thread, name)
        self.arith_ops: dict[int, int] = {}               # per thread
        self._stacks: dict[int, list[int]] = {}
        self._main = _ident()
        self._next_id = iter(range(1, 1 << 62)).__next__

    # ---------------------------------------------------------- spans

    def _stack(self) -> list[int]:
        tid = _ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks[tid] = []
        return stack

    def span(self, name: str, fn, on_result=None):
        """Wrap fn so each call records a span; on_result(result) -> dict of
        counters to add to that span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main and _ident() != self._main else 0
            sid = self._next_id()
            record = [sid, parent, name, _ident(), 0.0, 0.0]
            self.spans.append(record)
            stack.append(sid)
            arith_before = self.arith_ops.get(_ident(), 0)
            record[4] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = _clock()
                stack.pop()
                if self.arith_ops.get(_ident(), 0) != arith_before:
                    self._add(sid, "arith_ran", 1)
            if on_result is not None:
                for key, value in on_result(result).items():
                    self._add(sid, key, value)
            return result

        return wrapper

    def _add(self, sid: int, key: str, value: float) -> None:
        counters = self.span_counters.get(sid)
        if counters is None:
            counters = self.span_counters[sid] = {}
        counters[key] = counters.get(key, 0) + value

    # ------------------------------------------------------- counters

    def arith(self, name: str, fn, series_type, products: bool):
        """Wrap a series operation; only series-by-series calls count."""

        @functools.wraps(fn)
        def wrapper(self_, *args):
            if args and not isinstance(args[0], series_type):
                return fn(self_, *args)
            t0 = _clock()
            result = fn(self_, *args)
            elapsed = _clock() - t0
            tid = _ident()
            self.arith_ops[tid] = self.arith_ops.get(tid, 0) + 1
            stack = self._stacks.get(tid)
            sid = stack[-1] if stack else 0
            self._add(sid, name + ".calls", 1)
            self._add(sid, name + ".s", elapsed)
            if products:
                n = self_.order
                self._add(sid, name + ".coeff_products", (n + 1) * (n + 2) // 2)
            return result

        return wrapper

    def count(self, name: str, fn):
        """Wrap fn so each call bumps a per-thread counter."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (_ident(), name)
            self.counters[key] = self.counters.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # ---------------------------------------------------------- output

    def dump(self, path: str) -> None:
        totals: dict[str, int] = {}
        for (_, name), value in self.counters.items():
            totals[name] = totals.get(name, 0) + value
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans,
                       "span_counters": {str(k): v for k, v in
                                         self.span_counters.items()},
                       "counters": totals}, handle)


# (module, attribute, span name, result counter) for every wrapped
# function; bijections all report under one name
SPANNED = (
    ("airpockets.cli", "main", "cli.main", None),
    ("airpockets.catalog", "evaluate", "catalog.evaluate", None),
    ("airpockets.catalog", "poly_det", "catalog.poly_det", None),
    ("airpockets.catalog", "solve_series_system",
     "catalog.solve_series_system", None),
    ("airpockets.enumeration", "count_paths", "enumeration.count_paths", None),
    ("airpockets.enumeration", "enum_h", "enumeration.enum_h", None),
    ("airpockets.enumeration", "enum_paths", "enumeration.enum_paths",
     lambda paths: {"paths": len(paths)}),
    ("airpockets.bijections", "psi", "bijections", None),
    ("airpockets.bijections", "psi_inv", "bijections", None),
    ("airpockets.bijections", "phi", "bijections", None),
    ("airpockets.bijections", "phi_inv", "bijections", None),
    ("airpockets.oeis", "fetch_sequence", "oeis.fetch_sequence", None),
    ("airpockets.oeis", "align_and_compare", "oeis.align_and_compare", None),
    ("airpockets.verify", "run_suite", "verify.run_suite", None),
    ("airpockets.verify", "_run_check", "verify.check", None),
)


def _rebind(original, replacement) -> None:
    """Point every airpockets module binding of original at replacement."""
    for name, module in list(sys.modules.items()):
        if name != "airpockets" and not name.startswith("airpockets."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    import importlib

    for module in ("airpockets", "airpockets.cli"):
        importlib.import_module(module)
    for module_name, attr, span_name, on_result in SPANNED:
        original = getattr(sys.modules[module_name], attr)
        _rebind(original, tracer.span(span_name, original, on_result))
    from airpockets.paths import LatticePath
    from airpockets.series import TruncatedSeries

    mul = TruncatedSeries.__mul__
    wrapped_mul = tracer.arith("series.mul", mul, TruncatedSeries, True)
    TruncatedSeries.__mul__ = wrapped_mul
    TruncatedSeries.__rmul__ = wrapped_mul
    TruncatedSeries.__truediv__ = tracer.arith(
        "series.div", TruncatedSeries.__truediv__, TruncatedSeries, False)
    TruncatedSeries.sqrt = tracer.arith(
        "series.sqrt", TruncatedSeries.sqrt, TruncatedSeries, False)
    LatticePath.__init__ = tracer.count("paths.LatticePath.created",
                                        LatticePath.__init__)
