"""The benchmark's workloads and the simulated-clock metrics pooled over them.

A workload is a list of scenario specs built from the run's seed.  Each
spec is executed cold through a public ``repro.runner`` entry point —
``execute_dynamic_scenario`` for one serving node,
``ScenarioRunner(max_workers=1).run_fleet`` for a fleet, so fleet nodes
are served inline in the benchmark's own process — and every execution
starts from an empty ``EvaluationCache``.

Several smaller specs per run, rather than one long one, average the
run over several independent traces, so the timing and the simulated
metrics move less from one seed to the next while each spec keeps the
shape its workload is meant to stress.  Settings not named here stay at
the shipped defaults (the ``numpy`` solver backend, the ``oracle``
predictor, a 40-iteration MCTS budget).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

__all__ = ["Workload", "WORKLOADS", "REFERENCE_SECONDS",
           "SIMULATED_METRICS", "SimulatedTally", "estimator_artifact",
           "artifact_path"]

#: ``--seconds`` the per-workload spec counts below are sized for.
REFERENCE_SECONDS = 30

#: The 4-model pool of the GPU-only nodes (``serve_stream``,
#: ``fleet_power``): cheap, distinct models, so the handful of live-set
#: workloads hit the evaluation cache almost always.
STREAM_POOL = ("alexnet", "squeezenet", "mobilenet_v2", "shufflenet")

#: Pool of the planner-bound node: four mid-size models of similar depth
#: (72-87 layers), as many as the node's capacity, so every spec plans
#: the same models in the order its arrivals admit them and the planner
#: work per spec varies little from seed to seed.
PLANNER_POOL = ("efficientnet_b1", "googlenet", "resnet50", "shufflenet")

#: (metric name, unit, better) of the simulated-clock metrics, in report
#: order.
SIMULATED_METRICS: tuple[tuple[str, str, str], ...] = (
    ("modeled_decision_s", "s", "lower"),
    ("sim_rate_ips", "1/s", "higher"),
    ("sla_violation_frac", "fraction", "lower"),
    ("gold_violation_frac", "fraction", "lower"),
    ("refused_frac", "fraction", "lower"),
    ("admitted_frac", "fraction", "higher"),
    ("over_cap_ws", "Ws", "lower"),
)


@dataclass(frozen=True)
class Workload:
    """One named workload: how to build its specs and why it exists."""

    name: str
    why: str
    kind: str                          # "dynamic" | "fleet"
    reference_count: int               # specs per run at REFERENCE_SECONDS
    build_one: Callable[..., object]   # (spec seed, index, artifact) -> spec
    needs_estimator: bool = False

    def count(self, seconds: float) -> int:
        """Specs per run for a ``seconds`` budget (at least two)."""
        return max(2, math.floor(self.reference_count * seconds
                                 / REFERENCE_SECONDS + 0.5))

    def build(self, seed: int, seconds: float,
              artifact: Path | None = None) -> list:
        """The run's specs; spec ``i`` carries seed ``1000 * seed + i``."""
        return [self.build_one(1000 * seed + i, i, artifact)
                for i in range(self.count(seconds))]


def _burst_node(name: str, seed: int, **overrides) -> object:
    """A cold orange_pi_5 node filled by a burst of long-lived sessions.

    Two arrivals a second fill the node at once and sessions outlast the
    horizon, so every spec runs exactly four full replans (at 1, 2, 3 and
    4 live DNNs): the planner work per spec varies with the admission
    order the seed draws, not with how many departures happen to fall
    inside the horizon.  The other arrivals are refused, at microseconds
    each.
    """
    from repro.runner import DynamicScenario

    return DynamicScenario(name=name, manager="rankmap_d",
                           platform="orange_pi_5", policy="full", seed=seed,
                           horizon_s=300.0, arrival_rate_per_s=2.0,
                           mean_session_s=1e5, pool=PLANNER_POOL,
                           **overrides)


def _serve_replan(seed: int, index: int, artifact) -> object:
    return _burst_node(f"serve_replan/{index}", seed)


def _serve_estimator(seed: int, index: int, artifact) -> object:
    from repro.experiments.common import PRESETS

    tiny = PRESETS["tiny"]
    return _burst_node(f"serve_estimator/{index}", seed,
                       predictor="estimator", estimator_path=str(artifact),
                       search_iterations=tiny.mcts_iterations,
                       search_rollouts=tiny.mcts_rollouts)


def _serve_stream(seed: int, index: int, artifact) -> object:
    from repro.runner import DynamicScenario

    return DynamicScenario(name=f"serve_stream/{index}", manager="baseline",
                           platform="orange_pi_5", policy="full", seed=seed,
                           horizon_s=200_000.0, arrival_rate_per_s=0.25,
                           pool=STREAM_POOL, capacity=4,
                           preemption="evict_lowest_tier",
                           tier_shift_prob=0.2)


def _fleet_power(seed: int, index: int, artifact) -> object:
    from repro.runner import DynamicScenario, FleetScenario

    horizon = 10_800.0
    nodes = tuple(
        DynamicScenario(name=f"node{i}", manager="baseline",
                        platform=("orange_pi_5" if i % 2 == 0
                                  else "jetson_class"),
                        seed=seed + i, pool=STREAM_POOL)
        for i in range(6))
    return FleetScenario(name=f"fleet_power/{index}", nodes=nodes,
                         routing="least_joules", seed=seed,
                         horizon_s=horizon, arrival_rate_per_s=1 / 8.0,
                         fail_at=((3, 0.6 * horizon),),
                         power_cap_w=40.0,
                         power_cap_shift=(0.5 * horizon, 18.0))


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "serve_replan",
        "cold orange_pi_5 node filled by a burst of long sessions, full MCTS "
        "replan at each admission: nearly every candidate is a first-touch "
        "contention solve, so the solver dominates",
        "dynamic", 6, _serve_replan),
    Workload(
        "serve_stream",
        "~2e5 cheap sessions through the streaming serve loop with a "
        "GPU-only manager and a 4-model pool: the event core dominates and "
        "the solver is almost never reached",
        "dynamic", 4, _serve_stream),
    Workload(
        "fleet_power",
        "6-node orange_pi_5/jetson_class fleet of GPU-only nodes under a "
        "40 W cap dropping to 18 W, with a node failure: the power governor "
        "in plan_dispatch dominates",
        "fleet", 3, _fleet_power),
    Workload(
        "serve_estimator",
        "the serve_replan node scoring candidates with the trained "
        "tiny-preset estimator: the only path through repro.estimator and "
        "repro.autodiff, whose forward pass replaces the solver",
        "dynamic", 5, _serve_estimator, needs_estimator=True),
)}


def artifact_path(directory: Path) -> Path:
    """The file :func:`estimator_artifact` trains in ``directory``."""
    return directory / "estimator_tiny_orange_pi_5.pkl"


def estimator_artifact(path: Path) -> Path:
    """Train-or-load the tiny-preset estimator artifact at ``path``.

    Training is seeded by the preset; the caller keys ``path`` to the
    program's sources, so each source tree trains its own artifact once
    and later calls validate and reuse the file.
    """
    from repro.experiments import ExperimentContext

    ctx = ExperimentContext(preset="tiny", results_dir=path.parent)
    trained = ctx.estimator_artifact_path()
    if trained != path:
        raise RuntimeError(f"estimator artifact landed at {trained}, "
                           f"not {path}")
    return path


def _reports(result) -> list:
    nodes = getattr(result.report, "nodes", None)
    if nodes is None:
        return [result.report]
    return [node.report for node in nodes]


class SimulatedTally:
    """Simulated-clock metrics pooled over a run's results, one at a time.

    Deterministic functions of the reports, added in run order, so they
    must be bit-identical across repeated and traced runs of one seed:

    * ``modeled_decision_s`` — summed modeled on-board planner seconds;
    * ``sim_rate_ips`` — mean delivered rate over sessions that served;
    * ``sla_violation_frac`` — admitted DNN-time below the tier minimum;
    * ``gold_violation_frac`` — gold sessions' waiting plus violation
      time over their waiting plus admitted time (priority adherence);
    * ``refused_frac`` — rejected, abandoned, and (fleets) lost or
      power-shed sessions over arrivals (the starvation axis);
    * ``admitted_frac`` — the other arrivals, over arrivals.  The same
      axis, gated in its place: where most arrivals are refused,
      refusing every one moves ``refused_frac`` by a few percent but
      drops ``admitted_frac`` to zero;
    * ``over_cap_ws`` — fleet watt-seconds above the power cap (0 for a
      single node).
    """

    def __init__(self):
        self.decision = self.served = self.violation = 0.0
        self.gold_wait = self.gold_served = self.gold_violation = 0.0
        self.rate_sum = 0.0
        self.rate_count = self.refused = self.arrivals = 0
        self.over_cap = 0.0

    def add(self, result) -> None:
        """Fold one ``DynamicResult`` or ``FleetResult`` into the tally."""
        report = result.report
        self.arrivals += report.arrivals
        if hasattr(report, "nodes"):
            self.refused += report.lost + report.shed
            if report.power is not None:
                self.over_cap += report.power.fleet_over_cap_ws
        for node in _reports(result):
            self.decision += node.total_decision_seconds
            self.refused += node.rejected + node.abandoned
            for s in node.sessions:
                self.served += s.served_seconds
                self.violation += s.violation_seconds
                if s.served_seconds > 0:
                    self.rate_sum += s.mean_rate
                    self.rate_count += 1
                if s.tier == "gold":
                    self.gold_wait += s.queue_wait_s
                    self.gold_served += s.served_seconds
                    self.gold_violation += s.violation_seconds

    def metrics(self) -> dict[str, float]:
        """The pooled metrics, keyed as in :data:`SIMULATED_METRICS`."""
        gold_total = self.gold_wait + self.gold_served

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "modeled_decision_s": self.decision,
            "sim_rate_ips": ratio(self.rate_sum, self.rate_count),
            "sla_violation_frac": ratio(self.violation, self.served),
            "gold_violation_frac": ratio(self.gold_wait + self.gold_violation,
                                         gold_total),
            "refused_frac": ratio(self.refused, self.arrivals),
            "admitted_frac": ratio(self.arrivals - self.refused,
                                   self.arrivals),
            "over_cap_ws": self.over_cap,
        }
