"""Span tracing for the benchmark's traced run.

The benchmark never edits the program.  It wraps the public functions and
methods of each layer in place, in the defining module and in every
`trafficmaps` module that imported the name, for the duration of a traced
round only; untraced rounds run the original objects.  A span records its
name, layer, start, end, parent span and operation id.  Each thread keeps its
own parent stack, so phase-grid worker threads nest their spans under the
command that started them.  Spans stay in memory and are written out when the
run ends.
"""

from __future__ import annotations

import csv
import importlib
import os
import threading
import time
from collections import defaultdict

MODULES = (
    "trafficmaps", "trafficmaps.admm", "trafficmaps.mm", "trafficmaps.correlation",
    "trafficmaps.diagnostics", "trafficmaps.synth", "trafficmaps.pipelines",
    "trafficmaps.fileio", "trafficmaps.cli",
)


def _solver_extras(result, args):
    """Iterations and convergence from the report a solver returns last; the
    MM report also carries its restarts and objective trace."""
    report = result[-1]
    out = {"iterations": report.iterations, "converged": bool(report.converged)}
    if hasattr(report, "restarts"):
        out["restarts"] = report.restarts
        out["objectives"] = list(report.objectives)
    return out


def _patterns(result, args):
    return {"patterns": args[0].n_patterns}


def _basis_bytes(result, args):
    return {"bytes": result.vectors.nbytes}


def _file_bytes(result, args):
    return {"bytes": os.path.getsize(args[0])}


# (layer, span name, module, attribute path, extras hook).  A dotted attribute
# path names a method; it is patched on the class.
TARGETS = (
    ("admm", "admm_solve_p1", "trafficmaps.admm", "admm_solve_p1", _solver_extras),
    ("admm", "admm_solve_p2", "trafficmaps.admm", "admm_solve_p2", _solver_extras),
    ("admm", "admm_solve_p6", "trafficmaps.admm", "admm_solve_p6", _solver_extras),
    ("admm", "svt", "trafficmaps.admm", "svt", None),
    ("admm", "soft_threshold", "trafficmaps.admm", "soft_threshold", None),
    ("admm", "column_solves_build", "trafficmaps.admm", "ColumnSolves.__init__", _patterns),
    ("admm", "column_solves_apply", "trafficmaps.admm", "ColumnSolves.apply", None),
    ("mm", "mm_solve", "trafficmaps.mm", "mm_solve", _solver_extras),
    ("mm", "mm_step", "trafficmaps.mm", "mm_step", None),
    ("mm", "step_bound", "trafficmaps.mm", "step_bound", None),
    ("mm", "power_norm_sym", "trafficmaps.mm", "power_norm_sym", None),
    ("mm", "residuals", "trafficmaps.mm", "residuals", None),
    ("mm", "p5_objective", "trafficmaps.mm", "p5_objective", None),
    ("correlation", "solve_RL", "trafficmaps.correlation", "CorrelationSet.solve_RL", None),
    ("correlation", "solve_RQ", "trafficmaps.correlation", "CorrelationSet.solve_RQ", None),
    ("correlation", "solve_RB", "trafficmaps.correlation", "CorrelationSet.solve_RB", None),
    ("correlation", "solve_RC", "trafficmaps.correlation", "CorrelationSet.solve_RC", None),
    ("correlation", "learn_RQ_RL", "trafficmaps.correlation", "learn_RQ_RL", None),
    ("correlation", "burst_correlations", "trafficmaps.correlation", "burst_correlations", None),
    ("correlation", "split_RB_RC", "trafficmaps.correlation", "split_RB_RC", None),
    ("diagnostics", "measure_incoherences", "trafficmaps.diagnostics", "measure_incoherences", None),
    ("diagnostics", "mu", "trafficmaps.diagnostics", "mu", None),
    ("diagnostics", "project", "trafficmaps.diagnostics", "SubspaceBasis.project", None),
    ("diagnostics", "basis", "trafficmaps.diagnostics", "nullspace_R_basis", _basis_bytes),
    ("diagnostics", "basis", "trafficmaps.diagnostics", "nullspace_Pi_basis", _basis_bytes),
    ("diagnostics", "basis", "trafficmaps.diagnostics", "intersect_nullspaces", _basis_bytes),
    ("diagnostics", "basis", "trafficmaps.diagnostics", "omega_basis", _basis_bytes),
    ("diagnostics", "basis", "trafficmaps.diagnostics", "phi_basis", _basis_bytes),
    ("diagnostics", "tau", "trafficmaps.diagnostics", "tau", None),
    ("diagnostics", "dual_certificate", "trafficmaps.diagnostics", "dual_certificate", None),
    ("synth", "connected_topology", "trafficmaps.pipelines", "connected_topology", None),
    ("synth", "build_scenario", "trafficmaps.pipelines", "build_scenario", None),
    ("synth", "build_burst_scenario", "trafficmaps.pipelines", "build_burst_scenario", None),
    ("synth", "gen_geometric_graph", "trafficmaps.synth", "gen_geometric_graph", None),
    ("synth", "choose_od_pairs", "trafficmaps.synth", "choose_od_pairs", None),
    ("synth", "build_routing", "trafficmaps.synth", "build_routing", None),
    ("synth", "gen_lowrank_traffic", "trafficmaps.synth", "gen_lowrank_traffic", None),
    ("synth", "gen_sparse_anomalies", "trafficmaps.synth", "gen_sparse_anomalies", None),
    ("synth", "gen_bursty_anomalies", "trafficmaps.synth", "gen_bursty_anomalies", None),
    ("synth", "gen_cyclostationary_traffic", "trafficmaps.synth", "gen_cyclostationary_traffic", None),
    ("synth", "gen_mask", "trafficmaps.synth", "gen_mask", None),
    ("synth", "gen_structured_mask", "trafficmaps.synth", "gen_structured_mask", None),
    ("synth", "observe", "trafficmaps.synth", "observe", None),
    ("pipelines", "phase_cell", "trafficmaps.pipelines", "_phase_cell", None),
    ("pipelines", "cmd_solve", "trafficmaps.pipelines", "cmd_solve", None),
    ("pipelines", "cmd_phase_grid", "trafficmaps.pipelines", "cmd_phase_grid", None),
    ("pipelines", "cmd_burst_compare", "trafficmaps.pipelines", "cmd_burst_compare", None),
    ("pipelines", "cmd_diagnose", "trafficmaps.pipelines", "cmd_diagnose", None),
    ("pipelines", "cmd_synth", "trafficmaps.pipelines", "cmd_synth", None),
    ("fileio", "read_matrix", "trafficmaps.fileio", "read_matrix", None),
    ("fileio", "read_mask", "trafficmaps.fileio", "read_mask", None),
    ("fileio", "read_manifest", "trafficmaps.fileio", "read_manifest", None),
    ("fileio", "write_matrix", "trafficmaps.fileio", "write_matrix", _file_bytes),
    ("fileio", "write_mask", "trafficmaps.fileio", "write_mask", _file_bytes),
    ("fileio", "write_manifest", "trafficmaps.fileio", "write_manifest", _file_bytes),
    ("fileio", "write_pgm", "trafficmaps.fileio", "write_pgm", _file_bytes),
)


class Span:
    __slots__ = ("id", "parent", "op", "thread", "layer", "name", "start", "end",
                 "error", "extras", "children", "_self_time")

    def __init__(self, sid, parent, op, layer, name):
        self.id = sid
        self.parent = parent
        self.op = op
        self.thread = threading.get_ident()
        self.layer = layer
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.error = ""
        self.extras = {}
        self.children = []  # (start, end) of each closed child span
        self._self_time = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the part of it that child spans cover.  Children in
        worker threads overlap, so their intervals are merged, not summed."""
        if self._self_time is None:
            covered, reach = 0.0, float("-inf")
            for start, end in sorted(self.children):
                if end > reach:
                    covered += end - max(start, reach)
                    reach = end
            self._self_time = self.duration - covered
        return self._self_time


class Tracer:
    """Collects spans while installed; `install`/`uninstall` bracket a traced round."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches: list = []
        self.op = None
        self._op_stack: list = []

    # -- span bookkeeping -------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer, name) -> Span:
        # A worker thread starts with an empty stack; its spans nest under the
        # span the operation's own thread is in, the one that started the work.
        stack = self._stack()
        outer = stack or self._op_stack
        parent = outer[-1] if outer else None
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        span = Span(sid, parent, self.op, layer, name)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)
            if span.parent is not None:
                span.parent.children.append((span.start, span.end))

    def begin_op(self, op, name):
        """Open the root span of one benchmark operation (a CLI command)."""
        self.op = op
        self._op_stack = self._stack()
        self._op_span = self._open("cli", name)

    def end_op(self):
        self._close(self._op_span)
        self._op_span = None
        self.op = None

    def wrap(self, layer, name, fn, extras):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                tracer._close(span)
                raise
            if extras is not None:
                span.extras = extras(result, args)
            tracer._close(span)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- patching ---------------------------------------------------------
    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        for layer, name, home, path, extras in TARGETS:
            owner = importlib.import_module(home)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self.wrap(layer, name, original, extras))
                continue
            original = getattr(owner, path)
            wrapped = self.wrap(layer, name, original, extras)
            for module in modules:
                if module.__dict__.get(path) is original:
                    self._patches.append((module, path, original))
                    setattr(module, path, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------
    @staticmethod
    def ancestors(span: Span):
        parent = span.parent
        while parent is not None:
            yield parent
            parent = parent.parent

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "parent", "op", "thread", "layer", "name",
                          "start_s", "end_s", "self_s", "error"])
            for s in sorted(self.spans, key=lambda s: s.start):
                out.writerow([s.id, "" if s.parent is None else s.parent.id, s.op, s.thread,
                              s.layer, s.name, f"{s.start - t0:.9f}", f"{s.end - t0:.9f}",
                              f"{s.self_time:.9f}", s.error])

    def self_times(self) -> dict:
        """Summed self time and call count per (layer, name), over all spans."""
        table = defaultdict(lambda: [0.0, 0])
        for s in self.spans:
            row = table[(s.layer, s.name)]
            row[0] += s.self_time
            row[1] += 1
        return dict(table)


def span_cost(n: int = 20000) -> float:
    """Seconds one span adds to a call: a wrapped no-op timed against the bare one."""
    def noop():
        return None

    traced = Tracer().wrap("trace", "noop", noop, None)
    timings = []
    for fn in (noop, traced):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        timings.append(time.perf_counter() - start)
    return max(timings[1] - timings[0], 0.0) / n


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-layer metrics from the spans of the traced rounds.

    Times (`*_s`) and counts (`*_calls`, iterations, draws, bytes) are per
    operation: summed over the traced rounds and divided by the number of
    traced operations.  Ratios have their base in their name.  `*_self_s` and
    `*.self_s` exclude the time of wrapped children; other times include it.
    """
    spans = [s for s in tracer.spans if s.layer != "cli"]
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    n = max(n_ops, 1)

    def total(*names, attr="duration"):
        return sum(getattr(s, attr) for name in names for s in by_name[name])

    def calls(*names):
        return sum(len(by_name[name]) for name in names)

    def top_level(layer):
        return [s for s in spans if s.layer == layer
                and not any(a.layer == layer for a in tracer.ancestors(s))]

    m = {}
    admm_solves = by_name["admm_solve_p1"] + by_name["admm_solve_p2"] + by_name["admm_solve_p6"]
    done = [s for s in admm_solves if not s.error]
    admm_time = sum(s.duration for s in admm_solves)
    admm_iters = sum(s.extras["iterations"] for s in done)
    m["admm.solve_s"] = admm_time / n
    m["admm.iterations"] = admm_iters / n
    m["admm.iters_per_s"] = admm_iters / admm_time if admm_time else 0.0
    m["admm.converged_ratio"] = (sum(s.extras["converged"] for s in done) / len(done)
                                 if done else 0.0)
    m["admm.svt_s"] = total("svt") / n
    m["admm.svt_calls"] = calls("svt") / n
    builds = by_name["column_solves_build"]
    m["admm.column_solves_build_s"] = total("column_solves_build") / n
    m["admm.column_solves_patterns"] = (sum(s.extras.get("patterns", 0) for s in builds)
                                        / len(builds) if builds else 0.0)
    m["admm.column_solves_apply_s"] = total("column_solves_apply") / n
    m["admm.column_solves_apply_calls"] = calls("column_solves_apply") / n
    m["admm.soft_threshold_s"] = total("soft_threshold") / n
    m["admm.self_s"] = sum(s.self_time for s in admm_solves) / n

    mm_solves = [s for s in by_name["mm_solve"] if not s.error]
    mm_iters = sum(s.extras["iterations"] for s in mm_solves)
    restarts = sum(s.extras["restarts"] for s in mm_solves)
    m["mm.solve_s"] = total("mm_solve") / n
    m["mm.iterations"] = mm_iters / n
    m["mm.restarts"] = restarts / n
    m["mm.restart_ratio"] = restarts / mm_iters if mm_iters else 0.0
    m["mm.step_s"] = total("mm_step") / n
    m["mm.step_calls"] = calls("mm_step") / n
    m["mm.step_bound_s"] = total("step_bound") / n
    m["mm.power_norm_s"] = total("power_norm_sym") / n
    m["mm.power_norm_calls"] = calls("power_norm_sym") / n
    m["mm.residuals_s"] = total("residuals") / n
    m["mm.residuals_calls"] = calls("residuals") / n
    m["mm.objective_s"] = total("p5_objective") / n
    m["mm.objective_calls"] = calls("p5_objective") / n
    m["mm.self_s"] = total("mm_solve", attr="self_time") / n

    prior = ("solve_RL", "solve_RQ", "solve_RB", "solve_RC")
    m["correlation.prior_solve_s"] = total(*prior) / n
    m["correlation.prior_solve_calls"] = calls(*prior) / n
    learn = [s for s in top_level("correlation") if s.name not in prior]
    m["correlation.learn_s"] = sum(s.duration for s in learn) / n

    m["diagnostics.measure_incoherences_s"] = total("measure_incoherences") / n
    m["diagnostics.measure_incoherences_calls"] = calls("measure_incoherences") / n
    m["diagnostics.mu_s"] = total("mu") / n
    m["diagnostics.mu_calls"] = calls("mu") / n
    m["diagnostics.project_s"] = total("project") / n
    m["diagnostics.project_calls"] = calls("project") / n
    m["diagnostics.basis_build_s"] = total("basis") / n
    m["diagnostics.basis_bytes"] = sum(s.extras.get("bytes", 0) for s in by_name["basis"]) / n
    m["diagnostics.tau_s"] = total("tau") / n
    m["diagnostics.certificate_self_s"] = total("dual_certificate", attr="self_time") / n

    m["synth.scenario_s"] = sum(s.duration for s in top_level("synth")) / n
    m["synth.build_routing_s"] = total("build_routing") / n
    m["synth.topology_draws"] = calls("gen_geometric_graph") / n

    cells = by_name["phase_cell"]
    grid_time = total("cmd_phase_grid")
    lam_solves = [s for s in by_name["admm_solve_p2"]
                  if any(a.name == "phase_cell" for a in tracer.ancestors(s))]
    m["pipelines.cell_s"] = sum(s.duration for s in cells) / len(cells) if cells else 0.0
    m["pipelines.cell_concurrency"] = (sum(s.duration for s in cells) / grid_time
                                       if grid_time else 0.0)
    m["pipelines.lambda_solves"] = len(lam_solves) / n
    m["pipelines.lambda_solve_failures"] = sum(1 for s in lam_solves if s.error) / n

    io = top_level("fileio")
    m["fileio.read_s"] = sum(s.duration for s in io if s.name.startswith("read")) / n
    m["fileio.write_s"] = sum(s.duration for s in io if s.name.startswith("write")) / n
    m["fileio.bytes_written"] = sum(s.extras.get("bytes", 0) for s in io
                                    if s.name.startswith("write")) / n
    return m


# Every per-layer metric of a traced run: (name, unit, better).
PER_LAYER = (
    ("admm.solve_s", "s", "lower"),
    ("admm.iterations", "count", "lower"),
    ("admm.iters_per_s", "1/s", "higher"),
    ("admm.converged_ratio", "ratio", "higher"),
    ("admm.svt_s", "s", "lower"),
    ("admm.svt_calls", "count", "lower"),
    ("admm.column_solves_build_s", "s", "lower"),
    ("admm.column_solves_patterns", "count", "lower"),
    ("admm.column_solves_apply_s", "s", "lower"),
    ("admm.column_solves_apply_calls", "count", "lower"),
    ("admm.soft_threshold_s", "s", "lower"),
    ("admm.self_s", "s", "lower"),
    ("mm.solve_s", "s", "lower"),
    ("mm.iterations", "count", "lower"),
    ("mm.restarts", "count", "lower"),
    ("mm.restart_ratio", "ratio", "lower"),
    ("mm.step_s", "s", "lower"),
    ("mm.step_calls", "count", "lower"),
    ("mm.step_bound_s", "s", "lower"),
    ("mm.power_norm_s", "s", "lower"),
    ("mm.power_norm_calls", "count", "lower"),
    ("mm.residuals_s", "s", "lower"),
    ("mm.residuals_calls", "count", "lower"),
    ("mm.objective_s", "s", "lower"),
    ("mm.objective_calls", "count", "lower"),
    ("mm.self_s", "s", "lower"),
    ("correlation.prior_solve_s", "s", "lower"),
    ("correlation.prior_solve_calls", "count", "lower"),
    ("correlation.learn_s", "s", "lower"),
    ("diagnostics.measure_incoherences_s", "s", "lower"),
    ("diagnostics.measure_incoherences_calls", "count", "lower"),
    ("diagnostics.mu_s", "s", "lower"),
    ("diagnostics.mu_calls", "count", "lower"),
    ("diagnostics.project_s", "s", "lower"),
    ("diagnostics.project_calls", "count", "lower"),
    ("diagnostics.basis_build_s", "s", "lower"),
    ("diagnostics.basis_bytes", "bytes", "lower"),
    ("diagnostics.tau_s", "s", "lower"),
    ("diagnostics.certificate_self_s", "s", "lower"),
    ("synth.scenario_s", "s", "lower"),
    ("synth.build_routing_s", "s", "lower"),
    ("synth.topology_draws", "count", "lower"),
    ("pipelines.cell_s", "s", "lower"),
    ("pipelines.cell_concurrency", "ratio", "higher"),
    ("pipelines.lambda_solves", "count", "lower"),
    ("pipelines.lambda_solve_failures", "count", "lower"),
    ("fileio.read_s", "s", "lower"),
    ("fileio.write_s", "s", "lower"),
    ("fileio.bytes_written", "bytes", "lower"),
    ("cli.solve_p1_s", "s", "lower"),
    ("cli.solve_p2_s", "s", "lower"),
    ("cli.solve_p5_s", "s", "lower"),
    ("cli.solve_p6_s", "s", "lower"),
    ("cli.grid_cells_per_s", "1/s", "higher"),
    ("cli.burst_compare_s", "s", "lower"),
    ("cli.diagnose_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.span_cost_pct", "%", "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}
