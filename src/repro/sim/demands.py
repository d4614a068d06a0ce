"""Per-stage service demands.

A pipeline stage's *demand* is the component-time (seconds) it consumes per
inference: the sum of its blocks' layer latencies plus, when the previous
stage lives on a different component, the feature-map handoff cost charged
to the receiving stage.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import groupby

from ..hw.latency import block_latencies
from ..hw.platform import Platform
from ..mapping.mapping import Mapping, Stage
from ..zoo.layers import ModelSpec

__all__ = ["StageDemand", "compute_stage_demands"]


@dataclass(frozen=True)
class StageDemand:
    """A pipeline stage together with its per-inference service demand."""

    stage: Stage
    seconds_per_inference: float
    num_kernels: int  # layer/kernel launches per inference of this stage

    @property
    def dnn_index(self) -> int:
        return self.stage.dnn_index

    @property
    def component(self) -> int:
        return self.stage.component

    @property
    def mean_kernel_time(self) -> float:
        return self.seconds_per_inference / max(1, self.num_kernels)


class _PlatformDemands:
    """Stage demands memoised for one platform object.

    ``by_assignment`` maps ``(model name, dnn index, assignment)`` to that
    DNN's stage demands; ``by_stage`` maps ``(model name, dnn index,
    component, block start, block end)`` to one :class:`StageDemand`.
    Every value is built once with the expressions below, so a memo hit
    returns the very floats a fresh build would (the zoo guarantees one
    spec per model name, the key :func:`block_latencies` uses too).
    """

    def __init__(self):
        self.models: dict[str, tuple] = {}
        self.by_assignment: dict[tuple, tuple[StageDemand, ...]] = {}
        self.by_stage: dict[tuple, StageDemand] = {}

    def _model(self, model: ModelSpec, platform: Platform) -> tuple:
        """Per-component block latencies, the kernel-count prefix and the
        handoff seconds into each block."""
        found = self.models.get(model.name)
        if found is None:
            latencies = [block_latencies(model, comp)
                         for comp in platform.components]
            prefix = [0]
            for block in model.blocks:
                prefix.append(prefix[-1] + len(block.layers))
            handoffs = [platform.link.transfer_time(block.input_bytes)
                        for block in model.blocks]
            found = self.models[model.name] = (latencies, prefix, handoffs)
        return found

    def build(self, model: ModelSpec, dnn_index: int,
              assignment: tuple[int, ...],
              platform: Platform) -> tuple[StageDemand, ...]:
        """One DNN's demands, stage by stage along ``assignment``."""
        latencies, prefix, handoffs = self._model(model, platform)
        by_stage = self.by_stage
        out = []
        start = 0
        # Maximal same-component runs, as in extract_stages.
        for comp, run in groupby(assignment):
            end = start + len(tuple(run))
            key = (model.name, dnn_index, comp, start, end)
            demand = by_stage.get(key)
            if demand is None:
                seconds = sum(latencies[comp][start:end])
                # Runs are maximal, so every stage after a DNN's first
                # receives a cross-component handoff.
                if start > 0:
                    seconds += handoffs[start]
                demand = StageDemand(Stage(dnn_index, comp, start, end),
                                     seconds, prefix[end] - prefix[start])
                _bounded_insert(by_stage, key, demand)
            out.append(demand)
            start = end
        return tuple(out)


#: Memo entries kept per platform before a memo is reset (bounds memory
#: for long-lived processes that plan many distinct workloads).
_MEMO_LIMIT = 1 << 14

#: Per-platform memos keyed by ``id(platform)``.  A finalizer drops the
#: entry when its platform is collected, so a memo lives exactly as long
#: as the platform object (one scenario, typically) and a recycled id
#: never finds a stale memo.
_TABLES: dict[int, _PlatformDemands] = {}


def _bounded_insert(memo: dict, key, value) -> None:
    if len(memo) >= _MEMO_LIMIT:
        memo.clear()
    memo[key] = value


def _table(platform: Platform) -> _PlatformDemands:
    table = _TABLES.get(id(platform))
    if table is None:
        table = _TABLES[id(platform)] = _PlatformDemands()
        weakref.finalize(platform, _TABLES.pop, id(platform), None)
    return table


def compute_stage_demands(workload: list[ModelSpec], mapping: Mapping,
                          platform: Platform) -> list[StageDemand]:
    """Demands for every stage of ``mapping`` over ``workload``.

    Stages come in DNN-then-block order.  Each DNN's demands are memoised
    per platform object and assignment; a mapping is validated against
    ``workload`` whenever one of its DNNs misses the memo (a hit was
    validated when it was built).
    """
    table = _table(platform)
    memo = table.by_assignment
    assignments = mapping.assignments
    if len(assignments) != len(workload):
        mapping.validate_against(workload, platform.num_components)
    demands: list[StageDemand] = []
    validated = False
    for dnn_index, model in enumerate(workload):
        key = (model.name, dnn_index, assignments[dnn_index])
        found = memo.get(key)
        if found is None:
            if not validated:
                mapping.validate_against(workload, platform.num_components)
                validated = True
            found = table.build(model, dnn_index, assignments[dnn_index],
                                platform)
            _bounded_insert(memo, key, found)
        demands.extend(found)
    return demands
