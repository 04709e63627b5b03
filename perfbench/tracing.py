"""Spans around flocklab's public entry points, recorded from outside the program.

A ``Tracer`` replaces selected module attributes (and one class attribute)
with thin wrappers while it is installed.  Each call made through a wrapper
appends one span ``[name, start, end, parent, info]`` to an in-memory list;
``parent`` is the index of the enclosing span or -1.  Nothing is written
while the benchmark measures: ``write`` dumps the spans once the run ends.

Because the wrappers are swapped in only for traced rounds, untraced rounds
run the program's own functions with no indirection at all.
"""

import functools
import json
import math
import statistics
import sys
import time

from flocklab import diagnostics, dynamics, kernels
from flocklab.harness.acceptance import AcceptanceLab


def _step_dt(args, result):
    return result.t - args[0].t


# (owner, attribute, span name, info hook) for every traced entry point.
ENTRY_POINTS = (
    (dynamics, "step", "dynamics.step", _step_dt),
    (dynamics, "integrate", "dynamics.integrate", None),
    (diagnostics, "compute_record", "diagnostics.compute_record", None),
    (diagnostics, "lyapunov", "diagnostics.lyapunov", None),
    (diagnostics, "corrector_circle", "diagnostics.corrector", None),
    (diagnostics, "corrector_euclidean", "diagnostics.corrector", None),
    (diagnostics, "lyapunov_constant_search",
     "diagnostics.lyapunov_constant_search", None),
    (kernels, "classify", "kernels.classify", None),
    (AcceptanceLab, "run", "acceptance.run", None),
)


class Tracer:
    """Records one span per call through the wrapped entry points."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def _wrap(self, fn, name, info):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, result)
            return result

        return traced

    def install(self):
        """Swap every binding of each entry point for its traced wrapper.

        Functions imported by name into other flocklab modules (for example
        ``integrate`` in ``harness.scenarios``) are bound there too, so every
        binding that is the original object is replaced.
        """
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "flocklab" or k.startswith("flocklab."))]
        for owner, attr, name, info in ENTRY_POINTS:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, info)
            targets = [owner] + [m for m in modules if m is not owner]
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patched.append((target, key, original))
                        setattr(target, key, wrapper)

    def uninstall(self):
        for target, key, original in reversed(self._patched):
            setattr(target, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path, meta):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta,
                       "fields": ["name", "start", "end", "parent", "info"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def nearest_rank(values, q):
    """Nearest-rank percentile q in (0, 100] of a nonempty sequence."""
    ordered = sorted(values)
    k = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[k - 1]


def summarize(spans, lo, hi):
    """Per-name calls, total seconds, self seconds and durations of spans[lo:hi].

    A span's self time is its duration minus the durations of its direct
    children, which the recorder nests strictly inside it.
    """
    child = [0.0] * (hi - lo)
    for i in range(lo, hi):
        _, start, end, parent, _ = spans[i]
        if parent >= lo:
            child[parent - lo] += end - start
    out = {}
    for i in range(lo, hi):
        name, start, end, _, info = spans[i]
        rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                    "durations": [], "info": []})
        rec["calls"] += 1
        rec["s"] += end - start
        rec["self_s"] += end - start - child[i - lo]
        rec["durations"].append(end - start)
        if info is not None:
            rec["info"].append(info)
    return out


def median_or_zero(values):
    return statistics.median(values) if values else 0.0
