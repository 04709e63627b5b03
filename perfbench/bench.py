"""Measured rounds of one workload, their checks, and the per-layer figures.

Imported by ``run.py`` once ``src/`` of the checkout is on ``sys.path``.
"""

import resource
import statistics
import time
import tracemalloc

from flocklab import diagnostics, dynamics

import checks
import tracing


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Bench:
    """Runs whole rounds of one workload and checks every operation."""

    def __init__(self, workload, tracer=None):
        self.wl = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.deterministic = True
        self.digests = None
        self.verdicts = {}
        self.rounds = []
        self.rhs_s = []
        self.support = []
        self.last_outcomes = []

    def round(self, traced, warmup=False):
        """Run and check one round; returns its wall time.  A warm-up round
        is checked like any other but left out of the timing medians."""
        lo = len(self.tracer.spans) if traced else 0
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            if traced:
                with self.tracer:
                    outs = self.wl.run_round()
            else:
                outs = self.wl.run_round()
            error = None
        except Exception as exc:  # a round that raises fails all its operations
            outs, error = None, exc
        wall = time.perf_counter() - t0
        rec = {"traced": traced, "warmup": warmup, "wall": wall, "cpu": cpu_seconds() - c0}
        if traced:
            rec["spans"] = (lo, len(self.tracer.spans))
        self.rounds.append(rec)
        self.attempted += self.wl.ops
        if error is None:
            self._check(outs)
        else:
            self.failed += self.wl.ops
            self.problems.append(f"round raised {type(error).__name__}: {error}")
        return wall

    def _check(self, outs):
        digests = []
        for out in outs:
            try:
                digest = out.digest()
                problems = self.verdicts.get(digest)
                if problems is None:
                    problems = self._full_check(out)
                    self.verdicts[digest] = problems
                if self.tracer is not None:
                    self.rhs_s.append(checks.time_rhs(
                        out.traj.states[-1], out.cfg.kernel, out.cfg.domain))
            except Exception as exc:  # a check that cannot run fails the operation
                digest, problems = None, [f"check raised {type(exc).__name__}: {exc}"]
            digests.append(digest)
            if problems:
                self.failed += 1
                self.problems.extend(f"{out.label}: {p}" for p in problems)
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            self.deterministic = False
        self.last_outcomes = outs

    def _full_check(self, out):
        """Every check of one operation.  Its verdict is kept by the output's
        digest, so a later round that reproduces the output bit for bit
        reuses it instead of checking the same numbers again."""
        problems = list(self.wl.check(out))
        found, share = checks.check_forces(
            out.traj.states[-1], out.cfg.kernel, out.cfg.domain)
        self.support.append(share)
        return problems + found

    def median(self, traced, key):
        return statistics.median(r[key] for r in self.rounds
                                 if r["traced"] == traced and not r["warmup"])

    def end_to_end(self, setup_s):
        return {
            "wall_s": self.median(False, "wall"),
            "cpu_s": self.median(False, "cpu"),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self):
        """Per-layer figures of the traced rounds, median over those rounds."""
        per_round = [_round_layers(tracing.summarize(self.tracer.spans, *r["spans"]))
                     for r in self.rounds if r["traced"] and not r["warmup"]]
        metrics = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
        metrics["dynamics.rhs.us_p50"] = statistics.median(self.rhs_s) * 1e6
        metrics["kernels.support_share"] = statistics.fmean(self.support)
        metrics["dynamics.rhs.alloc_mb"], metrics["diagnostics.compute_record.alloc_mb"] = (
            _alloc_peaks(self.last_outcomes))
        metrics["trace.overhead_s"] = self.median(True, "wall") - self.median(False, "wall")
        return metrics


_ABSENT = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [], "info": []}


def _round_layers(summary):
    def get(name):
        return summary.get(name, _ABSENT)

    step, rec = get("dynamics.step"), get("diagnostics.compute_record")
    step_us = [d * 1e6 for d in step["durations"]]
    return {
        "dynamics.step.calls": step["calls"],
        "dynamics.step.dt_p50": tracing.median_or_zero(step["info"]),
        "dynamics.step.dt_min": min(step["info"], default=0.0),
        "dynamics.step.s": step["s"],
        "dynamics.step.us_p50": tracing.median_or_zero(step_us),
        "dynamics.step.us_p99": tracing.nearest_rank(step_us, 99) if step_us else 0.0,
        "kernels.classify.calls": get("kernels.classify")["calls"],
        "dynamics.integrate.self_s": get("dynamics.integrate")["self_s"],
        "acceptance.run.self_s": get("acceptance.run")["self_s"],
        "diagnostics.compute_record.calls": rec["calls"],
        "diagnostics.compute_record.s": rec["s"],
        "diagnostics.compute_record.us_p50":
            tracing.median_or_zero([d * 1e6 for d in rec["durations"]]),
        "diagnostics.lyapunov.s": get("diagnostics.lyapunov")["s"],
        "diagnostics.corrector.s": get("diagnostics.corrector")["s"],
        "diagnostics.lyapunov_constant_search.s":
            get("diagnostics.lyapunov_constant_search")["s"],
    }


def _traced_peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _alloc_peaks(outcomes):
    """Median tracemalloc peak (MB) of one ``rhs`` and one ``compute_record``
    call on the last state of each operation.  Run after the timed rounds,
    since tracemalloc slows every allocation."""
    rhs_mb, rec_mb = [], []
    for out in outcomes:
        state, cfg = out.traj.states[-1], out.cfg
        rhs_mb.append(_traced_peak_mb(dynamics.rhs, state, cfg.kernel, cfg.domain))
        rec_mb.append(_traced_peak_mb(diagnostics.compute_record, state, cfg.kernel,
                                      cfg.domain, cfg.lyapunov))
    return statistics.median(rhs_mb), statistics.median(rec_mb)
