"""Replanning policies for the online serving loop.

Every arrival, departure or priority shift changes the workload the
incumbent mapping was planned for.  Re-running the full search each time
is the paper's implicit policy, and its decision latency is what opens the
grey re-mapping gaps of Fig. 10.  The serving loop therefore takes the
policy as a pluggable strategy:

* :class:`FullReplan` — re-plan from scratch through the wrapped manager.
* :class:`WarmStartReplan` — extend the incumbent mapping: residents keep
  their placement, each new DNN is tried whole on every component, and the
  small candidate set is scored through the manager's (cache-backed)
  predictor.  Only when no candidate clears the starvation thresholds does
  a reduced-budget search run.  Decision latency is the few candidate
  measurements instead of the full search budget.
* :class:`PlanCacheReplan` — memoise ``(workload names, priorities) ->
  mapping`` across the run; a recurring canonical workload is answered in
  O(1) with zero modeled latency and bit-identical steady-state rates.

Policies report their modeled decision latency via
:class:`ReplanOutcome`; the loop turns it into gap time exactly like
:func:`repro.sim.run_dynamic_scenario` does for planner latency.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..core.manager import Manager, RankMap
from ..core.priorities import dynamic_priorities, normalize_priorities
from ..mapping.mapping import Mapping, gpu_only_mapping
from ..obs import NULL_RECORDER, Recorder
from ..obs.registry import (
    REPLAN_DECISION_S,
    REPLAN_INVOCATIONS,
    SPAN_REPLAN,
)
from ..search.reward import DISQUALIFIED, mapping_reward, thresholds_for
from ..zoo.layers import ModelSpec

__all__ = [
    "Incumbent",
    "ReplanOutcome",
    "ReplanPolicy",
    "FullReplan",
    "WarmStartReplan",
    "PlanCacheReplan",
    "REPLAN_POLICIES",
    "build_replan_policy",
]

#: What the loop remembers of the previous decision: the workload names it
#: was planned for (in order) and the deployed mapping.
Incumbent = tuple[tuple[str, ...], Mapping]


@dataclass(frozen=True)
class ReplanOutcome:
    """A policy's answer: the mapping, its modeled latency, and how."""

    mapping: Mapping
    decision_seconds: float
    kind: str                      # "full" | "warm" | "warm_fallback" | ...


class ReplanPolicy:
    """Strategy interface invoked on every workload/priority change."""

    name: str = "replan"

    def replan(self, workload: list[ModelSpec],
               priorities: np.ndarray | None,
               incumbent: Incumbent | None) -> ReplanOutcome:
        """Decide the next mapping for ``workload``.

        ``incumbent`` is what the loop remembers of the previous decision
        (``None`` on the first plan of a run); ``priorities`` is the user
        vector for static-mode managers, ``None`` in dynamic mode.
        """
        raise NotImplementedError  # pragma: no cover

    def replan_observed(self, workload: list[ModelSpec],
                        priorities: np.ndarray | None,
                        incumbent: Incumbent | None,
                        now_s: float,
                        recorder: Recorder = NULL_RECORDER) -> ReplanOutcome:
        """:meth:`replan`, traced on ``recorder``.

        For callers driving a policy directly (the serving loop batches
        the identical telemetry itself): each outcome
        ticks the kind-labelled
        :data:`~repro.obs.registry.REPLAN_INVOCATIONS` counter, streams
        its modeled decision seconds into the
        :data:`~repro.obs.registry.REPLAN_DECISION_S` histogram, and
        traces a :data:`~repro.obs.registry.SPAN_REPLAN` span at
        simulated ``now_s`` whose duration *is* the modeled decision
        latency.  The outcome is exactly ``replan``'s — recording never
        feeds back into the decision.
        """
        outcome = self.replan(workload, priorities, incumbent)
        if recorder.enabled:
            recorder.count(REPLAN_INVOCATIONS, label=outcome.kind)
            recorder.observe(REPLAN_DECISION_S, outcome.decision_seconds)
            recorder.span(SPAN_REPLAN, now_s, outcome.decision_seconds,
                          (("dnns", len(workload)),
                           ("kind", outcome.kind),
                           ("policy", self.name)))
        return outcome


class FullReplan(ReplanPolicy):
    """Re-plan from scratch on every change (the paper's implicit policy)."""

    name = "full"

    def __init__(self, manager: Manager):
        self.manager = manager

    def replan(self, workload, priorities, incumbent) -> ReplanOutcome:
        """Run the wrapped manager's full search, ignoring the incumbent."""
        decision = self.manager.plan(workload, priorities)
        return ReplanOutcome(decision.mapping, decision.decision_seconds,
                             "full")


class WarmStartReplan(ReplanPolicy):
    """Extend the incumbent mapping instead of searching from scratch.

    Requires a :class:`~repro.core.manager.RankMap` (the policy reuses its
    predictor, reward configuration and starvation thresholds).  The first
    plan of a run — no incumbent — is a full search: it seeds the state
    every later warm start extends.
    """

    name = "warm"

    def __init__(self, manager: Manager, fallback_fraction: float = 0.25):
        if not isinstance(manager, RankMap):
            raise ValueError(
                "WarmStartReplan needs a RankMap manager (it reuses the "
                f"predictor and reward config); got {type(manager).__name__}")
        if not 0.0 < fallback_fraction <= 1.0:
            raise ValueError("fallback_fraction must be in (0, 1]")
        self.manager = manager
        mcts = manager.config.mcts
        reduced = replace(
            mcts, iterations=max(4, int(mcts.iterations * fallback_fraction)))
        # Shares the predictor (and therefore the evaluation cache) with
        # the wrapped manager; only the search budget shrinks.
        self._fallback = RankMap(manager.platform, manager.predictor,
                                 replace(manager.config, mcts=reduced))

    # ------------------------------------------------------------------
    def _candidates(self, workload: list[ModelSpec],
                    incumbent: Incumbent) -> list[Mapping]:
        old_names, old_mapping = incumbent
        by_name = dict(zip(old_names, old_mapping.assignments))
        new_models = [m for m in workload if m.name not in by_name]
        num_components = self.manager.platform.num_components

        def extend(component: int) -> Mapping:
            rows = []
            for m in workload:
                kept = by_name.get(m.name)
                rows.append(kept if kept is not None
                            else tuple(component
                                       for _ in range(m.num_blocks)))
            return Mapping(tuple(rows))

        if new_models:
            candidates = [extend(c) for c in range(num_components)]
        else:
            # Departure / priority shift: the restricted incumbent itself.
            candidates = [extend(0)]
        candidates.append(gpu_only_mapping(workload))
        # Distinct candidates only (extend(0) can equal the GPU mapping).
        seen: set = set()
        unique: list[Mapping] = []
        for cand in candidates:
            if cand.assignments not in seen:
                seen.add(cand.assignments)
                unique.append(cand)
        return unique

    def _resolve_priorities(self, workload: list[ModelSpec],
                            priorities: np.ndarray | None) -> np.ndarray:
        if self.manager.config.mode == "dynamic":
            return dynamic_priorities(workload)
        if priorities is None:
            raise ValueError("static mode requires a user priority vector")
        return normalize_priorities(priorities)

    def replan(self, workload, priorities, incumbent) -> ReplanOutcome:
        """Extend the incumbent; fall back to a reduced search only when
        no extension candidate clears the starvation floors."""
        if incumbent is None:
            decision = self.manager.plan(workload, priorities)
            return ReplanOutcome(decision.mapping, decision.decision_seconds,
                                 "full")
        manager = self.manager
        candidates = self._candidates(workload, incumbent)
        p = self._resolve_priorities(workload, priorities)
        reward_cfg = manager.config.resolved_reward()
        thresholds = thresholds_for(workload, manager.platform, reward_cfg, p)
        ideals = (np.array([manager.platform.ideal_throughput(m)
                            for m in workload])
                  if reward_cfg.normalize_by_ideal else None)
        # One fused batched evaluation across the candidate roster — with
        # an EstimatorPredictor this is the paper's learned decision path
        # (stacked Q assembly + a single forward pass).
        rates = manager.predictor.predict_batch(workload, candidates)
        rewards = [mapping_reward(row, p, thresholds, ideals, reward_cfg.kind)
                   for row in rates]
        # Each candidate is priced at the predictor's modeled per-eval
        # latency: a full measurement window on the oracle, the paper's
        # 0.04 s learned decision latency on the estimator.
        spent = len(candidates) * manager.predictor.board_latency_per_eval
        best = int(np.argmax(rewards))
        if rewards[best] > DISQUALIFIED:
            return ReplanOutcome(candidates[best], spent, "warm")
        # No extension clears the starvation floors: short full search.
        decision = self._fallback.plan(workload, priorities)
        return ReplanOutcome(decision.mapping,
                             spent + decision.decision_seconds,
                             "warm_fallback")


class PlanCacheReplan(ReplanPolicy):
    """Memoise plans by canonical workload across the serving run.

    The key is ``(workload names in order, rounded priority vector)`` —
    the same canonicalization idea as the evaluation cache, one level up.
    A hit replays the previously deployed mapping with zero modeled
    latency, so recurring workloads re-map gap-free with identical
    steady-state rates.
    """

    name = "cache"

    def __init__(self, inner: ReplanPolicy, round_decimals: int = 6):
        self.inner = inner
        self.name = f"cache({inner.name})"
        self.round_decimals = round_decimals
        self.hits = 0
        self.misses = 0
        self._store: dict[tuple, Mapping] = {}

    def key(self, workload: list[ModelSpec],
            priorities: np.ndarray | None) -> tuple:
        """Canonical memoisation key: names in order + rounded priorities."""
        names = tuple(m.name for m in workload)
        if priorities is None:
            return (names, None)
        rounded = tuple(round(float(p), self.round_decimals)
                        for p in np.asarray(priorities).ravel())
        return (names, rounded)

    @property
    def hit_rate(self) -> float:
        """Fraction of replans answered from the plan cache so far."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def replan(self, workload, priorities, incumbent) -> ReplanOutcome:
        """Replay the memoised mapping on a key hit (zero modeled
        latency); otherwise defer to the inner policy and memoise."""
        k = self.key(workload, priorities)
        cached = self._store.get(k)
        if cached is not None:
            self.hits += 1
            return ReplanOutcome(cached, 0.0, "cache_hit")
        self.misses += 1
        outcome = self.inner.replan(workload, priorities, incumbent)
        self._store[k] = outcome.mapping
        return outcome


#: Roster of policy factories, keyed for scenario specs; each takes the
#: planning manager and returns a ready policy.
REPLAN_POLICIES = {
    "full": FullReplan,
    "warm": WarmStartReplan,
    "cache": lambda manager: PlanCacheReplan(FullReplan(manager)),
    "cache_warm": lambda manager: PlanCacheReplan(WarmStartReplan(manager)),
}


def build_replan_policy(key: str, manager: Manager) -> ReplanPolicy:
    """Build a fresh replan policy from its roster key around ``manager``.

    Policies carry run state (plan caches, incumbents), so every serving
    run must start from a fresh instance — scenario specs therefore store
    the key, not the object.
    """
    try:
        factory = REPLAN_POLICIES[key]
    except KeyError:
        raise ValueError(
            f"unknown replan policy {key!r}; "
            f"choose from {sorted(REPLAN_POLICIES)}") from None
    return factory(manager)
