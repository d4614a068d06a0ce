"""Declarative scenario specs for fleet-scale sweeps.

A :class:`Scenario` names everything a worker process needs to rebuild the
run from scratch — model names (zoo registry keys), a platform preset key,
a manager roster key and a seed — so scenarios ship to a process pool as a
few bytes and every execution is deterministic no matter which worker picks
it up or in what order.

:class:`DynamicScenario` is the dynamic-traffic counterpart: instead of a
fixed workload it carries the parameters of a Poisson session trace, an
admission-control configuration and a replan-policy key, and a worker runs
the whole online serving loop (:mod:`repro.serve`) to a
:class:`~repro.serve.ServeReport`.  :class:`FleetScenario` scales that to
a cluster: N node descriptions (reused ``DynamicScenario``s) sharing one
aggregate demand through the :mod:`repro.serve.fleet` dispatcher.  All
spec kinds are a few strings and floats, so the same process pool sweeps
static planning, dynamic-traffic and fleet studies alike; dict-shaped
specs parse strictly through the ``from_dict`` classmethods (unknown keys
raise).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..mapping.mapping import Mapping
from ..obs import TelemetrySnapshot
from ..serve.fleet.report import FleetReport
from ..serve.preempt import PREEMPTION_POLICIES
from ..serve.report import ServeReport
from ..sim.backend import active_solver
from ..workloads import sample_mix

__all__ = [
    "Scenario",
    "ScenarioResult",
    "DynamicScenario",
    "DynamicResult",
    "FleetScenario",
    "FleetResult",
    "mix_scenarios",
    "dynamic_sweep_scenarios",
    "fleet_sweep_scenarios",
    "summarise",
    "summarise_dynamic",
    "summarise_fleet",
]


def _strict_from_dict(cls, spec: dict, convert: dict | None = None):
    """Build a scenario dataclass from a plain dict, strictly.

    Unknown keys raise instead of being silently dropped — a sweep config
    with a typo (``arival_rate_per_s``) must fail loudly, not quietly run
    the defaults.  ``convert`` optionally maps field names to coercions
    (e.g. list-of-dict node specs into ``DynamicScenario`` tuples).
    """
    if not isinstance(spec, dict):
        raise TypeError(f"{cls.__name__} spec must be a dict, "
                        f"got {type(spec).__name__}")
    allowed = {f.name for f in fields(cls)}
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise ValueError(
            f"unexpected {cls.__name__} field(s) {unknown}; "
            f"known fields: {sorted(allowed)}")
    kwargs = dict(spec)
    for name, coerce in (convert or {}).items():
        if kwargs.get(name) is not None:
            kwargs[name] = coerce(kwargs[name])
    return cls(**kwargs)


def _tupled(value):
    """Coerce list-typed spec fields to the tuples the dataclasses expect."""
    return tuple(tuple(v) if isinstance(v, list) else v for v in value)


@dataclass(frozen=True)
class Scenario:
    """One (workload, platform, manager) planning problem."""

    name: str
    workload: tuple[str, ...]           # zoo model names, order significant
    manager: str = "rankmap_d"          # roster key, see runner.MANAGER_SPECS
    platform: str = "orange_pi_5"       # hw preset key
    priorities: tuple[float, ...] | None = None   # user vector (static modes)
    seed: int = 0
    search_iterations: int = 40         # MCTS budget for search-based managers
    search_rollouts: int = 2

    def __post_init__(self):
        if not self.workload:
            raise ValueError("scenario workload must not be empty")
        if self.priorities is not None \
                and len(self.priorities) != len(self.workload):
            raise ValueError("priorities must match workload size")

    @classmethod
    def from_dict(cls, spec: dict) -> "Scenario":
        """Build a :class:`Scenario` from a plain dict, rejecting unknown
        keys (a typo'd sweep config must fail loudly, not run defaults)."""
        return _strict_from_dict(cls, spec, convert={
            "workload": tuple, "priorities": tuple})


@dataclass(frozen=True)
class ScenarioResult:
    """Per-scenario outcome: the decision plus its measured steady state."""

    name: str
    manager: str
    platform: str
    workload: tuple[str, ...]
    assignments: tuple[tuple[int, ...], ...]
    decision_seconds: float
    rates: tuple[float, ...]
    potentials: tuple[float, ...]
    wall_seconds: float
    cache_hit_rate: float = 0.0         # oracle-cache effectiveness, if any

    @property
    def mapping(self) -> Mapping:
        """The decided placement rebuilt from its plain-data assignments."""
        return Mapping(self.assignments)

    @property
    def average_throughput(self) -> float:
        """Mean steady-state rate across the workload's DNNs."""
        return float(np.mean(self.rates))

    @property
    def min_potential(self) -> float:
        """Worst per-DNN potential P — the starvation-guard headline."""
        return float(min(self.potentials))


@dataclass(frozen=True)
class DynamicScenario:
    """One online-serving study: a stochastic trace served end to end.

    Everything is registry keys and scalars, so the spec ships to a worker
    process as a few bytes and the run is a pure function of the spec —
    the determinism regression compares 1-worker and N-worker reports
    bit for bit.  The worker regenerates the trace from
    ``(seed, horizon_s, arrival_rate_per_s, ...)`` as a *stream*
    (:func:`repro.workloads.iter_session_requests` feeding the serving
    loop one arrival at a time), so a multi-day horizon costs memory
    proportional to the live set, not the arrival count.
    ``cache_path`` optionally names a persisted
    :class:`~repro.sim.EvaluationCache` for the worker to load on start;
    a file built for a different platform is ignored (cold start) since
    the cache only affects wall clock, never the report.

    ``predictor`` selects how the node's search managers score candidate
    mappings: ``"oracle"`` measures on the simulated board (one cached
    batched solve per candidate set), ``"estimator"`` loads the trained
    artifact named by ``estimator_path``
    (:func:`repro.estimator.save_estimator_artifact`) and scores through
    the learned path — the paper's 0.04 s/eval decision latency instead
    of a full measurement window per candidate.  An artifact trained for
    a *different* platform downgrades the node to the oracle with a
    warning (the heterogeneous-fleet analogue of ``cache_path``); a
    corrupt artifact, or a missing file, fails the scenario loudly.
    Unlike ``cache_path`` this choice changes the report — different
    predictions, different plans — but it stays a pure function of the
    spec plus the artifact bytes, so 1-vs-N-worker runs remain
    bit-identical.

    ``observe`` switches on the :mod:`repro.obs` telemetry recorder for
    the run: the worker collects admission/preemption/replan decision
    traces, queue and cache metrics and realized plan segments into the
    :class:`~repro.obs.TelemetrySnapshot` on ``DynamicResult.telemetry``.
    Telemetry is a pure side channel — the report is bit-identical with
    ``observe`` on or off.

    The read-only :attr:`backend` property names the contention solver
    the process runs (:func:`repro.sim.backend.active_solver`); it is not
    a field, because the host picks the solver, not the spec.
    """

    name: str
    manager: str = "rankmap_d"          # roster key, see runner.MANAGER_SPECS
    platform: str = "orange_pi_5"       # hw preset key
    policy: str = "full"                # serve.REPLAN_POLICIES key
    seed: int = 0
    horizon_s: float = 600.0
    arrival_rate_per_s: float = 1.0 / 60.0
    mean_session_s: float = 180.0
    pool: tuple[str, ...] = ()          # zoo names; empty -> full MODEL_POOL
    capacity: int = 4
    queue_limit: int = 8
    max_queue_wait_s: float = 180.0
    tier_shift_prob: float = 0.0        # mid-session priority-shift odds
    preemption: str = "none"            # serve.PREEMPTION_POLICIES key
    search_iterations: int = 40         # MCTS budget for search managers
    search_rollouts: int = 2
    cache_path: str | None = None       # persisted EvaluationCache to load
    predictor: str = "oracle"           # "oracle" | "estimator"
    estimator_path: str | None = None   # trained-estimator artifact to load
    observe: bool = False               # collect repro.obs telemetry

    def __post_init__(self):
        if self.horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if self.arrival_rate_per_s <= 0:
            raise ValueError("arrival_rate_per_s must be positive")
        if self.mean_session_s <= 0:
            raise ValueError("mean_session_s must be positive")
        if self.capacity < 1:
            raise ValueError("capacity must be at least 1")
        if self.preemption not in PREEMPTION_POLICIES:
            raise ValueError(
                f"unknown preemption policy {self.preemption!r}; "
                f"choose from {sorted(PREEMPTION_POLICIES)}")
        if self.predictor not in ("oracle", "estimator"):
            raise ValueError(
                f"unknown predictor {self.predictor!r}; "
                f"choose from ['estimator', 'oracle']")
        if self.predictor == "estimator" and self.estimator_path is None:
            raise ValueError(
                "predictor 'estimator' requires estimator_path (a "
                "repro.estimator.save_estimator_artifact file)")
        if self.predictor != "estimator" and self.estimator_path is not None:
            raise ValueError(
                "estimator_path is set but predictor is "
                f"{self.predictor!r}; the artifact would be silently "
                "ignored — set predictor='estimator' (or drop the path)")

    @classmethod
    def from_dict(cls, spec: dict) -> "DynamicScenario":
        """Build a :class:`DynamicScenario` from a plain dict, rejecting
        unknown keys instead of silently ignoring them."""
        return _strict_from_dict(cls, spec, convert={"pool": tuple})

    @property
    def backend(self) -> str:
        """The solver this process runs: ``"compiled"`` or ``"numpy"``."""
        return active_solver()


@dataclass(frozen=True)
class DynamicResult:
    """Per-dynamic-scenario outcome: the report plus worker-local stats.

    ``report`` is deterministic per spec; ``wall_seconds`` and
    ``eval_cache_hit_rate`` depend on the worker (machine load, whether a
    persisted cache was found), which is why they live outside the report.
    ``telemetry`` is the run's :class:`~repro.obs.TelemetrySnapshot` when
    the spec set ``observe`` (deterministic per spec, like the report);
    ``None`` otherwise.
    """

    name: str
    manager: str
    platform: str
    policy: str
    report: ServeReport
    wall_seconds: float
    eval_cache_hit_rate: float = 0.0
    eval_cache_preloaded: int = 0       # entries loaded from cache_path
    telemetry: TelemetrySnapshot | None = None


@dataclass(frozen=True)
class FleetScenario:
    """One cluster-scale serving study: N nodes sharing a Poisson demand.

    The fleet samples *one* aggregate session trace from its own
    ``(horizon_s, arrival_rate_per_s, mean_session_s, seed)`` and routes
    it across ``nodes`` with the named routing policy
    (:data:`repro.serve.fleet.ROUTING_POLICIES` key).  Each node is a
    :class:`DynamicScenario` reused as a *node description* — its
    manager, platform, replan policy, admission knobs, pool, seed, search
    budget and ``cache_path`` all apply; its own trace fields
    (``horizon_s``, ``arrival_rate_per_s``, ``mean_session_s``,
    ``tier_shift_prob``) are ignored because the fleet owns the demand.

    ``fail_at`` lists ``(node_index, time_s)`` failures: the node serves
    up to that instant and its live sessions are re-dispatched to the
    survivors.  Like every spec here the scenario is a pure value — the
    resulting :class:`~repro.serve.fleet.FleetReport` is bit-identical
    for any ``ScenarioRunner`` worker count.

    ``feedback_rounds`` iterates the dispatch-then-serve cycle with
    measured per-node pressure fed back into the routing policy (see
    :func:`repro.serve.fleet.serve_fleet`); 0 keeps today's single-shot
    dispatch.  ``rate_shift`` optionally drifts the demand mid-run: a
    ``(shift_at_s, rate_multiplier)`` pair multiplies the Poisson
    arrival rate by ``rate_multiplier`` from ``shift_at_s`` onwards —
    the trace an estimator trained on pre-shift traffic has never seen,
    which is what the closed-loop fine-tuning study exercises.

    ``power_cap_w`` makes the dispatch energy-budgeted: each node gets a
    DVFS ladder built from its platform's power preset
    (``power_dvfs_levels`` operating points deep; 1 pins every node at
    nominal) and the dispatcher's power governor renegotiates levels —
    and sheds ``power_shed_tiers`` arrivals — to keep the estimated
    fleet draw under the cap (:mod:`repro.serve.fleet.power`), with the
    violation ledger landing on ``FleetReport.power``.
    ``power_cap_shift=(at_s, new_cap_w)`` is the brownout knob: the cap
    in force changes mid-trace.  ``power_enforce=False`` keeps the
    ledger but never throttles or sheds — the cap-blind baseline.  Like
    everything else here the whole power path runs in dispatch phase 1,
    so reports stay bit-identical for any worker count.
    """

    name: str
    nodes: tuple[DynamicScenario, ...]
    routing: str = "round_robin"        # serve.fleet.ROUTING_POLICIES key
    seed: int = 0
    horizon_s: float = 600.0
    arrival_rate_per_s: float = 1.0 / 20.0
    mean_session_s: float = 180.0
    tier_shift_prob: float = 0.0        # mid-session priority-shift odds
    fail_at: tuple[tuple[int, float], ...] = ()   # (node index, fail time)
    feedback_rounds: int = 0            # pressure-feedback re-dispatch rounds
    rate_shift: tuple[float, float] | None = None  # (shift_at_s, multiplier)
    power_cap_w: float | None = None    # fleet draw budget; None = power off
    power_cap_shift: tuple[float, float] | None = None  # (at_s, new_cap_w)
    power_dvfs_levels: int = 3          # DVFS ladder depth per node (1..4)
    power_shed_tiers: tuple[str, ...] = ("bronze",)
    power_enforce: bool = True          # False = cap-blind accounting only

    def __post_init__(self):
        if not self.nodes:
            raise ValueError("fleet must have at least one node")
        if self.horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if self.arrival_rate_per_s <= 0:
            raise ValueError("arrival_rate_per_s must be positive")
        if self.mean_session_s <= 0:
            raise ValueError("mean_session_s must be positive")
        if not isinstance(self.feedback_rounds, int) \
                or self.feedback_rounds < 0:
            raise ValueError(
                f"feedback_rounds must be a non-negative int, "
                f"got {self.feedback_rounds!r}")
        if self.rate_shift is not None:
            if len(self.rate_shift) != 2:
                raise ValueError(
                    "rate_shift must be (shift_at_s, rate_multiplier)")
            shift_at, multiplier = self.rate_shift
            if not 0.0 < shift_at < self.horizon_s:
                raise ValueError(
                    f"rate_shift time {shift_at} must fall inside the "
                    f"horizon (0, {self.horizon_s})")
            if multiplier <= 0:
                raise ValueError(
                    f"rate_shift multiplier must be positive, "
                    f"got {multiplier}")
        if self.power_cap_w is not None and not self.power_cap_w > 0:
            raise ValueError(
                f"power_cap_w must be positive, got {self.power_cap_w}")
        if self.power_cap_shift is not None:
            if self.power_cap_w is None:
                raise ValueError(
                    "power_cap_shift requires power_cap_w; a brownout "
                    "needs a cap to drop from")
            if len(self.power_cap_shift) != 2:
                raise ValueError(
                    "power_cap_shift must be (shift_at_s, new_cap_w)")
            shift_at, new_cap = self.power_cap_shift
            if not 0.0 < shift_at < self.horizon_s:
                raise ValueError(
                    f"power_cap_shift time {shift_at} must fall inside "
                    f"the horizon (0, {self.horizon_s})")
            if not new_cap > 0:
                raise ValueError(
                    f"power_cap_shift cap must be positive, got {new_cap}")
        if not isinstance(self.power_dvfs_levels, int) \
                or not 1 <= self.power_dvfs_levels <= 4:
            raise ValueError(
                f"power_dvfs_levels must be an int in 1..4 (the runner "
                f"ladder depth), got {self.power_dvfs_levels!r}")
        seen: set[int] = set()
        for index, fail_s in self.fail_at:
            if not 0 <= index < len(self.nodes):
                raise ValueError(f"fail_at node index {index} out of range")
            if fail_s <= 0:
                raise ValueError("fail_at time must be positive")
            if index in seen:
                raise ValueError(
                    f"duplicate fail_at entry for node {index}; a node "
                    "fails at most once")
            seen.add(index)

    @classmethod
    def from_dict(cls, spec: dict) -> "FleetScenario":
        """Build a :class:`FleetScenario` from a plain dict, rejecting
        unknown keys; node entries may themselves be dicts (parsed
        strictly through :meth:`DynamicScenario.from_dict`)."""
        return _strict_from_dict(cls, spec, convert={
            "nodes": lambda nodes: tuple(
                DynamicScenario.from_dict(n) if isinstance(n, dict) else n
                for n in nodes),
            "fail_at": _tupled,
            "rate_shift": tuple,
            "power_cap_shift": tuple,
            "power_shed_tiers": tuple,
        })


@dataclass(frozen=True)
class FleetResult:
    """Per-fleet outcome: the aggregated report plus worker-local stats.

    ``report`` is deterministic per spec; ``wall_seconds`` (the summed
    node serving walls) depends on the machine, which is why it lives
    outside the report.  ``telemetry`` is the deterministic merge of the
    dispatch-phase and per-node snapshots when any node spec set
    ``observe`` — bit-identical for any worker count — and ``None``
    otherwise.
    """

    name: str
    routing: str
    report: FleetReport
    wall_seconds: float
    telemetry: TelemetrySnapshot | None = None


def mix_scenarios(managers: tuple[str, ...],
                  sizes: tuple[int, ...] = (3, 4, 5),
                  mixes_per_size: int = 6,
                  seed: int = 0,
                  platform: str = "orange_pi_5",
                  search_iterations: int = 40,
                  search_rollouts: int = 2) -> list[Scenario]:
    """The paper's Sec. V-A style sweep as a flat scenario list.

    Every manager sees the *same* sampled mixes (one rng drives the mix
    sampling; manager seeds derive from the mix index), so per-manager
    aggregates stay comparable.
    """
    rng = np.random.default_rng(seed + 42)
    scenarios: list[Scenario] = []
    for size in sizes:
        for mix_index in range(mixes_per_size):
            workload = tuple(m.name for m in sample_mix(rng, size))
            for manager in managers:
                scenarios.append(Scenario(
                    name=f"mix{size}_{mix_index}_{manager}",
                    workload=workload, manager=manager, platform=platform,
                    seed=seed + 1000 * size + mix_index,
                    search_iterations=search_iterations,
                    search_rollouts=search_rollouts,
                ))
    return scenarios


def dynamic_sweep_scenarios(policies: tuple[str, ...] = ("full", "warm",
                                                         "cache"),
                            managers: tuple[str, ...] = ("rankmap_d",),
                            traces_per_cell: int = 2,
                            seed: int = 0,
                            platform: str = "orange_pi_5",
                            horizon_s: float = 600.0,
                            arrival_rate_per_s: float = 1.0 / 45.0,
                            mean_session_s: float = 200.0,
                            pool: tuple[str, ...] = (),
                            capacity: int = 4,
                            tier_shift_prob: float = 0.0,
                            preemption: str = "none",
                            search_iterations: int = 24,
                            search_rollouts: int = 2,
                            cache_path: str | None = None,
                            predictor: str = "oracle",
                            estimator_path: str | None = None,
                            ) -> list[DynamicScenario]:
    """A (policy x manager x trace) grid of dynamic-traffic studies.

    Every policy/manager cell sees the *same* sampled traces (the trace
    seed depends only on the trace index), so per-policy aggregates stay
    comparable — the dynamic analogue of :func:`mix_scenarios`.
    ``preemption`` keys the node-side preemption policy
    (:data:`repro.serve.PREEMPTION_POLICIES`) applied in every cell;
    ``predictor``/``estimator_path`` select the candidate-scoring path
    (oracle measurement vs the trained estimator artifact) in every cell.
    """
    scenarios: list[DynamicScenario] = []
    for trace_index in range(traces_per_cell):
        for manager in managers:
            for policy in policies:
                scenarios.append(DynamicScenario(
                    name=f"trace{trace_index}_{manager}_{policy}",
                    manager=manager, platform=platform, policy=policy,
                    seed=seed + 1000 * trace_index,
                    horizon_s=horizon_s,
                    arrival_rate_per_s=arrival_rate_per_s,
                    mean_session_s=mean_session_s, pool=pool,
                    capacity=capacity, tier_shift_prob=tier_shift_prob,
                    preemption=preemption,
                    search_iterations=search_iterations,
                    search_rollouts=search_rollouts,
                    cache_path=cache_path,
                    predictor=predictor, estimator_path=estimator_path,
                ))
    return scenarios


def fleet_sweep_scenarios(routings: tuple[str, ...] = ("round_robin",
                                                       "least_loaded",
                                                       "tier_affinity"),
                          traces_per_cell: int = 2,
                          num_nodes: int = 3,
                          manager: str = "rankmap_d",
                          policy: str = "warm",
                          platforms: tuple[str, ...] = ("orange_pi_5",
                                                        "jetson_class"),
                          seed: int = 0,
                          horizon_s: float = 600.0,
                          arrival_rate_per_s: float = 1.0 / 15.0,
                          mean_session_s: float = 180.0,
                          pool: tuple[str, ...] = (),
                          capacity: int = 3,
                          tier_shift_prob: float = 0.0,
                          preemption: str = "none",
                          search_iterations: int = 24,
                          search_rollouts: int = 2,
                          cache_path: str | None = None,
                          predictor: str = "oracle",
                          estimator_path: str | None = None,
                          fail_at: tuple[tuple[int, float], ...] = (),
                          observe: bool = False,
                          feedback_rounds: int = 0,
                          rate_shift: tuple[float, float] | None = None,
                          power_cap_w: float | None = None,
                          power_cap_shift: tuple[float, float] | None = None,
                          ) -> list[FleetScenario]:
    """A (routing x trace) grid of fleet studies over heterogeneous nodes.

    Node ``i`` runs on ``platforms[i % len(platforms)]``, so any
    ``num_nodes >= 2`` fleet with the default platform pair is genuinely
    heterogeneous.  A shared ``cache_path`` therefore warms only the
    nodes whose platform matches the persisted cache; the others start
    cold (see :class:`DynamicScenario`).  Every routing cell sees the
    *same* sampled aggregate traces (the trace seed depends only on the
    trace index), so per-routing aggregates stay comparable — the
    cluster analogue of :func:`dynamic_sweep_scenarios`.  ``preemption``
    applies the keyed :data:`repro.serve.PREEMPTION_POLICIES` policy on
    every node's admission controller.  ``predictor``/``estimator_path``
    select every node's candidate-scoring path; like a shared
    ``cache_path``, a shared estimator artifact only matches the nodes
    whose platform it was trained for — the others downgrade to the
    oracle with a warning.  ``observe`` switches on every node's
    telemetry recorder (the segments feed
    :meth:`~repro.experiments.ExperimentContext.refresh_estimator`);
    ``feedback_rounds``/``rate_shift`` are forwarded to every
    :class:`FleetScenario` cell (pressure-fed re-dispatch and mid-run
    demand drift), as are ``power_cap_w``/``power_cap_shift`` (the
    energy budget and its brownout drop) so a sweep can compare routing
    policies under the same power envelope.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be at least 1")
    nodes = tuple(
        DynamicScenario(
            name=f"node{i}", manager=manager,
            platform=platforms[i % len(platforms)], policy=policy,
            seed=seed + i, pool=pool, capacity=capacity,
            preemption=preemption,
            search_iterations=search_iterations,
            search_rollouts=search_rollouts, cache_path=cache_path,
            predictor=predictor, estimator_path=estimator_path,
            observe=observe)
        for i in range(num_nodes))
    scenarios: list[FleetScenario] = []
    for trace_index in range(traces_per_cell):
        for routing in routings:
            scenarios.append(FleetScenario(
                name=f"fleet{trace_index}_{routing}",
                nodes=nodes, routing=routing,
                seed=seed + 1000 * trace_index,
                horizon_s=horizon_s,
                arrival_rate_per_s=arrival_rate_per_s,
                mean_session_s=mean_session_s,
                tier_shift_prob=tier_shift_prob,
                fail_at=fail_at,
                feedback_rounds=feedback_rounds,
                rate_shift=rate_shift,
                power_cap_w=power_cap_w,
                power_cap_shift=power_cap_shift,
            ))
    return scenarios


def summarise(results: list[ScenarioResult]) -> list[dict]:
    """Aggregate results per (manager, platform): one row each."""
    groups: dict[tuple[str, str], list[ScenarioResult]] = {}
    for r in results:
        groups.setdefault((r.manager, r.platform), []).append(r)
    rows = []
    for (manager, platform), rs in sorted(groups.items()):
        rows.append({
            "manager": manager,
            "platform": platform,
            "scenarios": len(rs),
            "mean_throughput": float(np.mean(
                [r.average_throughput for r in rs])),
            "mean_min_potential": float(np.mean(
                [r.min_potential for r in rs])),
            "mean_decision_seconds": float(np.mean(
                [r.decision_seconds for r in rs])),
        })
    return rows


def summarise_dynamic(results: list[DynamicResult]) -> list[dict]:
    """Aggregate dynamic results per (manager, policy): one row each."""
    groups: dict[tuple[str, str], list[DynamicResult]] = {}
    for r in results:
        groups.setdefault((r.manager, r.policy), []).append(r)
    rows = []
    for (manager, policy), rs in sorted(groups.items()):
        reports = [r.report for r in rs]
        rows.append({
            "manager": manager,
            "policy": policy,
            "scenarios": len(rs),
            "mean_decision_seconds": float(np.mean(
                [rep.mean_decision_seconds for rep in reports])),
            "mean_gap_seconds": float(np.mean(
                [rep.total_gap_seconds for rep in reports])),
            "mean_violation_fraction": float(np.mean(
                [rep.sla_violation_fraction for rep in reports])),
            "mean_session_rate": float(np.mean(
                [rep.mean_session_rate for rep in reports])),
            "admitted": sum(rep.admitted for rep in reports),
            "rejected": sum(rep.rejected for rep in reports),
            "evictions": sum(rep.evictions for rep in reports),
            "demotions": sum(rep.demotions for rep in reports),
            "mean_eviction_fairness": float(np.mean(
                [rep.eviction_fairness for rep in reports])),
            "mean_queue_wait_s": float(np.mean(
                [rep.mean_queue_wait_s for rep in reports])),
        })
    return rows


def summarise_fleet(results: list[FleetResult]) -> list[dict]:
    """Aggregate fleet results per routing policy: one row each.

    Rows surface the cluster-scale trade-offs the per-node summary cannot
    see: admission totals, mean session rate, cross-node fairness,
    starvation, and the failure-path counters (re-dispatched / lost).
    Power-governed reports additionally contribute ``shed`` and the
    cap-violation columns (zeros when no report in the group carried a
    power ledger).
    """
    groups: dict[str, list[FleetResult]] = {}
    for r in results:
        groups.setdefault(r.routing, []).append(r)
    rows = []
    for routing, rs in sorted(groups.items()):
        reports = [r.report for r in rs]
        powered = [rep.power for rep in reports if rep.power is not None]
        rows.append({
            "routing": routing,
            "scenarios": len(rs),
            "admitted": sum(rep.admitted for rep in reports),
            "rejected": sum(rep.rejected for rep in reports),
            "abandoned": sum(rep.abandoned for rep in reports),
            "re_dispatched": sum(rep.re_dispatched for rep in reports),
            "lost": sum(rep.lost for rep in reports),
            "evictions": sum(rep.evictions for rep in reports),
            "demotions": sum(rep.demotions for rep in reports),
            "mean_eviction_fairness": float(np.mean(
                [rep.eviction_fairness for rep in reports])),
            "mean_session_rate": float(np.mean(
                [rep.mean_session_rate for rep in reports])),
            "mean_node_fairness": float(np.mean(
                [rep.node_fairness for rep in reports])),
            "mean_starvation_rate": float(np.mean(
                [rep.starvation_rate for rep in reports])),
            "mean_queue_wait_s": float(np.mean(
                [rep.mean_queue_wait_s for rep in reports])),
            "shed": sum(rep.shed for rep in reports),
            "mean_fleet_watts": float(np.mean(
                [p.mean_watts for p in powered])) if powered else 0.0,
            "over_cap_ws": float(sum(
                p.fleet_over_cap_ws for p in powered)),
        })
    return rows
