"""Span tracing at frequc's layer boundaries, from outside the program.

``Tracer.patched`` replaces the module attributes that frequc looks up at
call time (``frequc.cli.solve_rolling_horizon``, ``frequc.scheduler.solve``,
``frequc.freqsec.qss_row``, ``scipy.optimize.milp``, ...) with wrappers that
record nested spans, and restores them on exit.  A span's self time is its
duration minus the durations of the spans it caused.  Counting done after
a call (model sizes, solver nodes) is itself recorded as a ``bookkeeping``
span, so it is charged neither to the layer nor to its caller.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import Counter, defaultdict

BOOKKEEPING = "bookkeeping"

FREQSEC_ROW_BUILDERS = ("inertia_floor_row", "largest_loss_rows",
                        "inertia_expression", "rocof_row", "qss_row",
                        "linearize_inertia_pfr", "nadir_discretization_rows")


class Tracer:
    """Spans kept in memory as (id, parent id, name, start, end)."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.gap_max = 0.0
        self.secured_runs: list = []  # (cell system, RollingResult)
        self._stack: list[int] = []

    def wrap(self, name, fn, after=None):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            sid = len(self.spans)
            self.spans.append(None)
            self._stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans[sid] = (sid, parent, name, start, end)
            if after is not None:
                b_start = clock()
                after(args, result)
                self.spans.append((len(self.spans), parent, BOOKKEEPING,
                                   b_start, clock()))
            return result

        return traced

    # -- counters, run after each call outside its span ---------------------

    def _count_model(self, args, model):
        self.counts["model.vars"] += model.n_vars
        self.counts["model.rows"] += model.n_rows
        self.counts["model.nnz"] += sum(len(r.coeffs) for r in model.rows)
        self.counts["model.binaries"] += len(model.binary_indices())

    def _count_solve(self, args, sol):
        self.counts["milp.calls"] += 1
        self.counts["milp.nodes"] += sol.nodes
        self.counts["milp.nonoptimal"] += sol.status != "optimal"
        self.counts["milp.violations"] += len(sol.violations)
        if sol.gap is not None:
            self.gap_max = max(self.gap_max, sol.gap)

    def _count_rows(self, args, result):
        if isinstance(result, tuple):  # linearize_inertia_pfr: (expr, rows)
            result = result[1]
        if isinstance(result, list):
            self.counts["freqsec.rows"] += len(result)
        elif hasattr(result, "sense"):
            self.counts["freqsec.rows"] += 1

    def _keep_rolling(self, args, run):
        system, _, options = args[:3]
        self.counts["scheduler.windows"] += len(run.windows)
        if options.frequency_constraints and run.trajectory is not None:
            self.secured_runs.append((system, run))

    def _count_checks(self, args, report):
        self.counts["freqdyn.checks"] += len(report.checks)

    @contextlib.contextmanager
    def patched(self):
        """Wrap every layer boundary for the duration of the block."""
        targets = [
            ("frequc.cli", "load_system", "sysmodel.load", None),
            ("frequc.cli", "load_scenario_table", "sysmodel.load", None),
            ("frequc.cli", "build_scenario_tree", "sysmodel.load", None),
            ("frequc.cli", "solve_rolling_horizon", "scheduler.rolling",
             self._keep_rolling),
            ("frequc.cli", "verify_trajectory", "freqdyn.verify",
             self._count_checks),
            ("frequc.scheduler", "build_uc", "scheduler.build",
             self._count_model),
            ("frequc.scheduler", "extract_solution", "scheduler.extract",
             None),
            ("frequc.scheduler", "solve", "milp.solve", self._count_solve),
            ("scipy.optimize", "milp", "milp.highs", None),
        ] + [("frequc.freqsec", fn, "freqsec.rows", self._count_rows)
             for fn in FREQSEC_ROW_BUILDERS]
        saved = []
        try:
            for module_name, attr, span, after in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span, original, after))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- summaries ------------------------------------------------------------

    def self_times(self) -> dict:
        """Summed self time per span name."""
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            totals[name] += end - start - child[sid]
        return dict(totals)

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")


def layer_metrics(tracer: Tracer, traced_s: float, plain_s: float) -> dict:
    """Per-layer metrics from one traced study call."""
    own = tracer.self_times()
    counts = tracer.counts
    traced_total = sum(v for k, v in own.items() if k != BOOKKEEPING)
    return {
        "sysmodel.load_s": (own.get("sysmodel.load", 0.0), "s"),
        "scheduler.build_s": (own.get("scheduler.build", 0.0), "s"),
        "scheduler.extract_s": (own.get("scheduler.extract", 0.0), "s"),
        "scheduler.rolling_self_s": (own.get("scheduler.rolling", 0.0), "s"),
        "scheduler.windows": (counts["scheduler.windows"], "count"),
        "freqsec.rows_s": (own.get("freqsec.rows", 0.0), "s"),
        "freqsec.rows": (counts["freqsec.rows"], "count"),
        "model.vars": (counts["model.vars"], "count"),
        "model.rows": (counts["model.rows"], "count"),
        "model.nnz": (counts["model.nnz"], "count"),
        "model.binaries": (counts["model.binaries"], "count"),
        "milp.highs_s": (own.get("milp.highs", 0.0), "s"),
        "milp.self_s": (own.get("milp.solve", 0.0), "s"),
        "milp.calls": (counts["milp.calls"], "count"),
        "milp.nodes": (counts["milp.nodes"], "count"),
        "milp.gap_max": (tracer.gap_max, "ratio"),
        "milp.nonoptimal": (counts["milp.nonoptimal"], "count"),
        "milp.violations": (counts["milp.violations"], "count"),
        "freqdyn.checks": (counts["freqdyn.checks"], "count"),
        "freqdyn.verify_s": (own.get("freqdyn.verify", 0.0), "s"),
        "cli.self_s": (own.get("cli", 0.0), "s"),
        "trace.study_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - plain_s, "s"),
        "trace.coverage": (traced_total / traced_s, "ratio"),
    }
