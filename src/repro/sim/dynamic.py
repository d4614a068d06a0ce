"""Dynamic multi-DNN scenarios: arrivals, departures, priority changes.

Reproduces the paper's Fig. 8 (DNNs arriving every 150 s) and Fig. 10
(user priority shifts) experiments.  A *planner* callback — any manager —
is invoked whenever the active set or the priority vector changes; its
decision latency opens a gap during which the previous mapping keeps
running and a newly arrived DNN makes no progress yet (rate 0), exactly the
grey dashed re-mapping gaps in the paper's Fig. 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..hw.platform import Platform
from ..mapping.mapping import Mapping
from ..zoo.layers import ModelSpec
from .engine import simulate

__all__ = [
    "MappingDecision",
    "Planner",
    "ScenarioEvent",
    "arrival",
    "departure",
    "priority_change",
    "Segment",
    "Timeline",
    "restrict_mapping",
    "run_dynamic_scenario",
]


@dataclass(frozen=True)
class MappingDecision:
    """A planner's output: the mapping plus how long the decision took."""

    mapping: Mapping
    decision_seconds: float = 0.0


# A planner maps (workload, user priority vector or None) to a decision.
Planner = Callable[[list[ModelSpec], "np.ndarray | None"], MappingDecision]


@dataclass(frozen=True)
class ScenarioEvent:
    """One timeline event."""

    time: float
    kind: str                       # "arrival" | "departure" | "priority"
    model: ModelSpec | None = None
    priorities: dict[str, float] | None = None


def arrival(time: float, model: ModelSpec) -> ScenarioEvent:
    return ScenarioEvent(time, "arrival", model=model)


def departure(time: float, model: ModelSpec) -> ScenarioEvent:
    return ScenarioEvent(time, "departure", model=model)


def priority_change(time: float, priorities: dict[str, float]) -> ScenarioEvent:
    return ScenarioEvent(time, "priority", priorities=priorities)


@dataclass(frozen=True)
class Segment:
    """Steady-state interval of the timeline."""

    t_start: float
    t_end: float
    names: tuple[str, ...]
    rates: dict[str, float]
    potentials: dict[str, float]

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass
class Timeline:
    """Piecewise-constant record of a dynamic scenario."""

    segments: list[Segment] = field(default_factory=list)

    def potential_at(self, name: str, t: float) -> float | None:
        """P of ``name`` at time ``t`` (None before arrival/after departure)."""
        for seg in self.segments:
            if seg.t_start <= t < seg.t_end:
                return seg.potentials.get(name)
        return None

    def potential_series(self, name: str,
                         times: np.ndarray) -> np.ndarray:
        """P of ``name`` sampled at ``times`` (NaN when absent)."""
        out = np.full(len(times), np.nan)
        for i, t in enumerate(times):
            p = self.potential_at(name, float(t))
            if p is not None:
                out[i] = p
        return out

    def time_average_throughput(self) -> float:
        """Duration-weighted mean of the per-segment average rate."""
        total_time = sum(s.duration for s in self.segments)
        if total_time <= 0:
            return 0.0
        acc = 0.0
        for s in self.segments:
            if s.rates:
                acc += s.duration * (sum(s.rates.values()) / len(s.rates))
        return acc / total_time

    def min_potential(self, name: str) -> float:
        """Lowest P ``name`` experienced while it was mapped and running."""
        values = [s.potentials[name] for s in self.segments
                  if name in s.potentials]
        return min(values) if values else float("nan")

    def final_potentials(self) -> dict[str, float]:
        return dict(self.segments[-1].potentials) if self.segments else {}


def restrict_mapping(mapping: Mapping | None, old_names: list[str],
                     new_workload: list[ModelSpec]) -> tuple[list[ModelSpec], Mapping] | None:
    """Keep the old mapping for DNNs still active (decision-gap behaviour).

    Returns the surviving ``(models, mapping)`` pair in the old mapping's
    order, or ``None`` when nothing survives.  Shared by the dynamic
    replay engine and the online serving loop (:mod:`repro.serve`), whose
    re-mapping gaps have identical semantics: residents keep running on
    the incumbent placement while the planner decides.
    """
    if mapping is None:
        return None
    keep_models: list[ModelSpec] = []
    keep_assign: list[tuple[int, ...]] = []
    by_name = {m.name: m for m in new_workload}
    for name, assignment in zip(old_names, mapping.assignments):
        if name in by_name:
            keep_models.append(by_name[name])
            keep_assign.append(assignment)
    if not keep_models:
        return None
    return keep_models, Mapping(tuple(keep_assign))


def run_dynamic_scenario(events: list[ScenarioEvent], planner: Planner,
                         platform: Platform, horizon: float,
                         default_priority: float = 0.1) -> Timeline:
    """Simulate a scenario and return its piecewise-constant timeline."""
    if not events:
        raise ValueError("scenario needs at least one event")
    events = sorted(events, key=lambda e: e.time)

    timeline = Timeline()
    active: list[ModelSpec] = []
    priorities: dict[str, float] = {}
    current: tuple[list[ModelSpec], Mapping] | None = None
    prev_names: list[str] = []
    clock = 0.0

    def emit(t0: float, t1: float) -> None:
        if t1 <= t0:
            return
        names = tuple(m.name for m in active)
        if current is None:
            zeros = {m.name: 0.0 for m in active}
            timeline.segments.append(Segment(t0, t1, names, zeros, dict(zeros)))
            return
        models, mapping = current
        result = simulate(models, mapping, platform)
        rates = {m.name: float(r) for m, r in zip(models, result.rates)}
        pots = {m.name: float(p) for m, p in zip(models, result.potentials)}
        # DNNs active but not (yet) mapped make no progress.
        for m in active:
            rates.setdefault(m.name, 0.0)
            pots.setdefault(m.name, 0.0)
        timeline.segments.append(Segment(t0, t1, names, rates, pots))

    for event in events:
        if event.time > horizon:
            break
        # An event inside a decision gap takes effect when the gap closes.
        emit(clock, event.time)
        clock = max(clock, event.time)

        if event.kind == "arrival":
            if event.model is None:
                raise ValueError("arrival event needs a model")
            active.append(event.model)
            priorities.setdefault(event.model.name, default_priority)
        elif event.kind == "departure":
            if event.model is None:
                raise ValueError("departure event needs a model")
            active = [m for m in active if m.name != event.model.name]
            priorities.pop(event.model.name, None)
        elif event.kind == "priority":
            if not event.priorities:
                raise ValueError("priority event needs a priority dict")
            priorities.update(event.priorities)
        else:
            raise ValueError(f"unknown event kind {event.kind!r}")

        if not active:
            current = None
            prev_names = []
            continue

        vector = np.array([priorities[m.name] for m in active])
        decision = planner(list(active), vector)
        gap = max(0.0, decision.decision_seconds)
        if gap > 0:
            # Decision window: previous mapping keeps running (restricted to
            # the DNNs still active); the event's subject waits.
            current = restrict_mapping(current[1] if current else None,
                                       prev_names, active)
            emit(clock, min(clock + gap, horizon))
            clock = min(clock + gap, horizon)
        current = (list(active), decision.mapping)
        prev_names = [m.name for m in active]

    emit(clock, horizon)
    return timeline
