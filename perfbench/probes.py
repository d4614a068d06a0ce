"""Which layer boundaries the traced run wraps, and what it derives.

Every wrapper sits on a *public* callable, installed where callers look
it up: methods on their classes (every instance sees the wrapper), and
functions on the module that imported them by name
(``repro.runner.runner`` binds ``serve_trace`` and ``plan_dispatch`` at
import time, ``repro.sim.engine`` binds the solver and the stage-demand
computation).  The program itself is not edited.

Span names double as layer names in ``BENCHMARK.json``'s ``per_layer``
table; :func:`layer_metrics` turns one traced pass into those numbers.
"""

from __future__ import annotations

import numpy as np

from .spans import (Installer, SpanRecorder, percentile, self_times,
                    tail_percentile)

__all__ = ["install_layer_probes", "layer_metrics", "ROOT_SPAN",
           "PER_LAYER_METRICS", "LAYER_MAP"]

#: Span the worker opens around each timed scenario execution.
ROOT_SPAN = "run"

#: (metric name, unit) of every per-layer metric, in report order.
PER_LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("workloads.sessions", "count"),
    ("workloads.busy_s", "s"),
    ("serve.loop.self_s", "s"),
    ("serve.loop.self_us_per_arrival", "us"),
    ("serve.admission.calls", "count"),
    ("serve.admission.busy_s", "s"),
    ("serve.replan.calls", "count"),
    ("serve.replan.busy_s", "s"),
    ("serve.replan.p50_ms", "ms"),
    ("serve.replan.ptail_ms", "ms"),
    ("serve.replan.ptail_pct", "%"),
    ("serve.replan.samples", "count"),
    ("search.mcts.searches", "count"),
    ("search.mcts.busy_s", "s"),
    ("search.mcts.self_s", "s"),
    ("predictor.calls", "count"),
    ("predictor.candidates", "count"),
    ("predictor.busy_s", "s"),
    ("estimator.forward_calls", "count"),
    ("estimator.busy_s", "s"),
    ("estimator.run_share", "fraction"),
    ("sim.cache.lookups", "count"),
    ("sim.cache.hit_frac", "fraction"),
    ("sim.cache.busy_s", "s"),
    ("sim.demands.calls", "count"),
    ("sim.demands.busy_s", "s"),
    ("sim.solve.batches", "count"),
    ("sim.solve.instances", "count"),
    ("sim.solve.busy_s", "s"),
    ("sim.solve.run_share", "fraction"),
    ("sim.solve.nonconverged_frac", "fraction"),
    ("sim.solve.mean_iterations", "count"),
    ("fleet.dispatch.busy_s", "s"),
    ("fleet.dispatch.routed", "count"),
    ("fleet.dispatch.redispatched", "count"),
    ("hw.energy.node_watts_calls", "count"),
    ("hw.energy.node_watts_busy_s", "s"),
    ("hw.energy.calls_per_session", "count"),
    ("fleet.report.busy_s", "s"),
    ("fleet.power.over_cap_ws", "Ws"),
    ("trace.run_s", "s"),
    ("trace.coverage_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
)


#: Which end-to-end metric each layer's numbers should move, on which
#: workload, and where they should stay flat — the prediction a change
#: to that layer states before it is measured.
LAYER_MAP: tuple[dict, ...] = (
    {"layer": "repro.workloads", "metrics": "workloads.*",
     "moves": "run_s on serve_stream", "flat_on": ["serve_replan"]},
    {"layer": "repro.serve.loop", "metrics": "serve.loop.*",
     "moves": "run_s on serve_stream",
     "flat_on": ["serve_replan", "serve_estimator"]},
    {"layer": "repro.serve.admission / repro.serve.preempt",
     "metrics": "serve.admission.*", "moves": "run_s on serve_stream",
     "flat_on": ["serve_replan", "fleet_power", "serve_estimator"]},
    {"layer": "repro.serve.replan", "metrics": "serve.replan.*",
     "moves": "run_s on serve_replan and serve_estimator",
     "flat_on": ["serve_stream", "fleet_power"]},
    {"layer": "repro.search / repro.core.manager", "metrics": "search.mcts.*",
     "moves": "run_s on serve_replan", "flat_on": ["serve_stream"]},
    {"layer": "repro.core.predictor", "metrics": "predictor.*",
     "moves": "run_s on serve_replan (oracle) and serve_estimator",
     "flat_on": ["serve_stream"]},
    {"layer": "repro.estimator", "metrics": "estimator.*",
     "moves": "run_s on serve_estimator",
     "flat_on": ["serve_replan", "serve_stream", "fleet_power"]},
    {"layer": "repro.sim.cache", "metrics": "sim.cache.*",
     "moves": "run_s on serve_replan; peak_rss_mb on serve_stream",
     "flat_on": ["fleet_power"]},
    {"layer": "repro.sim.demands", "metrics": "sim.demands.*",
     "moves": "run_s on serve_replan", "flat_on": ["serve_stream"]},
    {"layer": "repro.sim.contention / repro.sim.backend",
     "metrics": "sim.solve.*",
     "moves": "run_s on serve_replan (busy time); sla_violation_frac and "
              "sim_rate_ips on serve_replan (non-converged share)",
     "flat_on": ["serve_stream"]},
    {"layer": "repro.serve.fleet.dispatch", "metrics": "fleet.dispatch.*",
     "moves": "run_s on fleet_power",
     "flat_on": ["serve_replan", "serve_stream", "serve_estimator"]},
    {"layer": "repro.hw.energy (governor pricing)",
     "metrics": "hw.energy.*", "moves": "run_s on fleet_power",
     "flat_on": ["serve_replan", "serve_stream", "serve_estimator"]},
    {"layer": "repro.serve.fleet.report", "metrics": "fleet.report.*",
     "moves": "run_s on fleet_power", "flat_on": []},
    {"layer": "trace itself", "metrics": "trace.*", "moves": None,
     "flat_on": []},
)


def _count_len(counter: str, arg_index: int):
    def observe(rec, args, kwargs, result):
        rec.count(counter, float(len(args[arg_index])))
    return observe


def _observe_solve(rec, args, kwargs, result):
    rec.count("sim.solve.instances", float(len(result)))
    rec.count("sim.solve.nonconverged",
              float(sum(1 for s in result if not s.converged)))
    rec.count("sim.solve.iterations",
              float(sum(int(s.iterations) for s in result)))


def _observe_serve(rec, args, kwargs, result):
    rec.count("serve.loop.arrivals", float(result.arrivals))


def _observe_dispatch(rec, args, kwargs, result):
    rec.count("fleet.dispatch.routed", float(sum(result.routed)))
    rec.count("fleet.dispatch.redispatched", float(result.re_dispatched))


def _observe_sampled(rec, args, kwargs, result):
    rec.count("workloads.trace.items", float(len(result)))


def _cache_wrapper(rec: SpanRecorder):
    """``EvaluationCache.simulate`` with its hit/miss deltas counted."""
    def make(fn):
        def simulate(self, workload, mappings):
            hits = self.hits
            sid = rec.open("sim.cache")
            try:
                return fn(self, workload, mappings)
            finally:
                rec.close(sid)
                rec.count("sim.cache.lookups", float(len(mappings)))
                rec.count("sim.cache.hits", float(self.hits - hits))
        simulate.__wrapped__ = fn
        return simulate
    return make


def _items_wrapper(rec: SpanRecorder, name: str):
    """A generator factory whose every yielded item is its own span."""
    def make(fn):
        def factory(*args, **kwargs):
            return rec.wrap_items(fn(*args, **kwargs), name)
        factory.__wrapped__ = fn
        return factory
    return make


def install_layer_probes(rec: SpanRecorder) -> Installer:
    """Wrap every traced layer boundary; returns the installer to undo it."""
    from repro.core.manager import RankMap
    from repro.core.predictor import EstimatorPredictor, RatePredictor
    from repro.estimator.model import ThroughputEstimator
    from repro.hw.energy import DvfsState
    from repro.runner import runner
    from repro.search.mcts import MCTS
    from repro.serve import replan
    from repro.serve.admission import AdmissionController
    from repro.serve.fleet import dispatch
    from repro.sim import engine
    from repro.sim.cache import EvaluationCache

    def span(name, observe=None):
        return lambda fn: rec.wrap(fn, name, observe)

    installer = Installer()
    try:
        # Trace generation: per streamed item, or the whole sampled list.
        installer.install(runner, "iter_session_requests",
                          _items_wrapper(rec, "workloads.trace"))
        installer.install(runner, "sample_session_requests",
                          span("workloads.trace", _observe_sampled))
        # Serving loop and the fleet around it.
        installer.install(runner, "serve_trace",
                          span("serve.loop", _observe_serve))
        installer.install(dispatch, "serve_trace",
                          span("serve.loop", _observe_serve))
        installer.install(runner, "plan_dispatch",
                          span("fleet.dispatch", _observe_dispatch))
        installer.install(runner, "build_fleet_report", span("fleet.report"))
        installer.install(DvfsState, "node_watts",
                          span("hw.energy.node_watts"))
        # Decisions: admission, replanning, planning, search, scoring.
        installer.install(AdmissionController, "decide_with_plan",
                          span("serve.admission"))
        for cls in (replan.FullReplan, replan.WarmStartReplan,
                    replan.PlanCacheReplan):
            installer.install(cls, "replan", span("serve.replan"))
        installer.install(RankMap, "plan", span("core.manager.plan"))
        installer.install(MCTS, "search", span("search.mcts"))
        for cls in (RatePredictor, EstimatorPredictor):
            installer.install(cls, "predict_batch",
                              span("predictor",
                                   _count_len("predictor.candidates", 2)))
        installer.install(ThroughputEstimator, "predict_rates",
                          span("estimator.forward"))
        # Simulator: cache, demand build, contention solve.
        installer.install(EvaluationCache, "simulate", _cache_wrapper(rec))
        installer.install(EvaluationCache, "simulate_one",
                          span("sim.cache"))
        installer.install(engine, "compute_stage_demands",
                          span("sim.demands"))
        installer.install(engine, "solve_steady_state_batch",
                          span("sim.solve", _observe_solve))
    except BaseException:
        installer.uninstall()
        raise
    return installer


def layer_metrics(rec: SpanRecorder, overhead_frac: float,
                  over_cap_ws: float = 0.0) -> dict[str, float]:
    """Per-layer numbers of one traced pass, keyed as in ``per_layer``.

    ``overhead_frac`` is how much longer the traced pass took than the
    same pass with no wrappers installed; ``over_cap_ws`` is the power
    governor's simulated cap violation, read off the pass's fleet
    reports.
    """
    names = list(rec.names)
    name_id = np.frombuffer(rec.name_id, dtype=np.int32)
    nested = np.frombuffer(rec.nested, dtype=np.int8).astype(bool)
    spans = rec.durations()
    durations = np.asarray(spans)
    self_s = np.asarray(self_times(rec.parent, spans))
    child = durations - self_s

    def select(name: str, outer_only: bool = True) -> np.ndarray:
        if name not in names:
            return np.zeros(len(durations), dtype=bool)
        mask = name_id == names.index(name)
        return mask & ~nested if outer_only else mask

    def busy(name: str) -> float:
        return float(durations[select(name)].sum())

    def calls(name: str) -> float:
        return float(select(name).sum())

    def self_time(name: str) -> float:
        return float(self_s[select(name, outer_only=False)].sum())

    counts = rec.counts
    roots = select(ROOT_SPAN)
    run_s = float(durations[roots].sum())
    root_ids = np.flatnonzero(roots)
    covered = float(child[root_ids].sum())
    sessions = counts.get("workloads.trace.items", 0.0)
    arrivals = counts.get("serve.loop.arrivals", 0.0)
    lookups = counts.get("sim.cache.lookups", 0.0)
    instances = counts.get("sim.solve.instances", 0.0)
    replan_ms = (durations[select("serve.replan")] * 1e3).tolist()
    tail = tail_percentile(replan_ms)
    watts_calls = calls("hw.energy.node_watts")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        "workloads.sessions": sessions,
        "workloads.busy_s": busy("workloads.trace"),
        "serve.loop.self_s": self_time("serve.loop"),
        "serve.loop.self_us_per_arrival":
            ratio(self_time("serve.loop"), arrivals) * 1e6,
        "serve.admission.calls": calls("serve.admission"),
        "serve.admission.busy_s": busy("serve.admission"),
        "serve.replan.calls": calls("serve.replan"),
        "serve.replan.busy_s": busy("serve.replan"),
        "serve.replan.p50_ms":
            percentile(replan_ms, 50.0) if replan_ms else 0.0,
        # No ladder percentile has ten samples beyond it: report 0 and
        # let the sample count say why.
        "serve.replan.ptail_ms": tail.value if tail.pct else 0.0,
        "serve.replan.ptail_pct": tail.pct or 0.0,
        "serve.replan.samples": float(tail.count),
        "search.mcts.searches": calls("search.mcts"),
        "search.mcts.busy_s": busy("search.mcts"),
        "search.mcts.self_s": self_time("search.mcts"),
        "predictor.calls": calls("predictor"),
        "predictor.candidates": counts.get("predictor.candidates", 0.0),
        "predictor.busy_s": busy("predictor"),
        "estimator.forward_calls": calls("estimator.forward"),
        "estimator.busy_s": busy("estimator.forward"),
        "estimator.run_share": ratio(busy("estimator.forward"), run_s),
        "sim.cache.lookups": lookups,
        "sim.cache.hit_frac": ratio(counts.get("sim.cache.hits", 0.0),
                                    lookups),
        "sim.cache.busy_s": busy("sim.cache"),
        "sim.demands.calls": calls("sim.demands"),
        "sim.demands.busy_s": busy("sim.demands"),
        "sim.solve.batches": calls("sim.solve"),
        "sim.solve.instances": instances,
        "sim.solve.busy_s": busy("sim.solve"),
        "sim.solve.run_share": ratio(busy("sim.solve"), run_s),
        "sim.solve.nonconverged_frac":
            ratio(counts.get("sim.solve.nonconverged", 0.0), instances),
        "sim.solve.mean_iterations":
            ratio(counts.get("sim.solve.iterations", 0.0), instances),
        "fleet.dispatch.busy_s": busy("fleet.dispatch"),
        "fleet.dispatch.routed": counts.get("fleet.dispatch.routed", 0.0),
        "fleet.dispatch.redispatched":
            counts.get("fleet.dispatch.redispatched", 0.0),
        "hw.energy.node_watts_calls": watts_calls,
        "hw.energy.node_watts_busy_s": busy("hw.energy.node_watts"),
        "hw.energy.calls_per_session": ratio(watts_calls, sessions),
        "fleet.report.busy_s": busy("fleet.report"),
        "fleet.power.over_cap_ws": over_cap_ws,
        "trace.run_s": run_s,
        "trace.coverage_frac": ratio(covered, run_s),
        "trace.overhead_frac": overhead_frac,
    }
    if list(out) != [name for name, _ in PER_LAYER_METRICS]:
        raise RuntimeError("layer metrics drifted from PER_LAYER_METRICS")
    return out
