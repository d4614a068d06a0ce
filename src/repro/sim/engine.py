"""Execution simulator facade: mapping -> per-DNN steady-state throughput.

This is the drop-in substitute for "run the workload on the Orange Pi 5 and
record inferences/s" (see DESIGN.md).  All managers, the estimator-training
dataset and every experiment observe the platform exclusively through
:func:`simulate_batch` (:func:`simulate` is its batch of one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hw.platform import Platform
from ..mapping.mapping import Mapping
from ..zoo.layers import ModelSpec
from .backend import DEFAULT_BACKEND, solve_steady_state_batch
from .contention import ContentionSolution
from .demands import compute_stage_demands

__all__ = ["SimResult", "simulate", "simulate_batch"]


@dataclass(frozen=True)
class SimResult:
    """Steady-state outcome of one mapping."""

    workload_names: tuple[str, ...]
    rates: np.ndarray              # inferences/s per DNN
    ideal_rates: np.ndarray        # GPU-solo rate per DNN (paper's t_ideal)
    solution: ContentionSolution

    @property
    def potentials(self) -> np.ndarray:
        """Paper's potential throughput P = t_current / t_ideal per DNN."""
        return self.rates / self.ideal_rates

    @property
    def average_throughput(self) -> float:
        """Paper's T = (sum of per-DNN rates) / N, in inferences/s."""
        return float(self.rates.mean())

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{n}={r:.2f}/s" for n, r in zip(self.workload_names, self.rates)
        )
        return f"SimResult({pairs})"


def simulate(workload: list[ModelSpec], mapping: Mapping,
             platform: Platform,
             backend: str = DEFAULT_BACKEND) -> SimResult:
    """Steady-state per-DNN throughput of ``mapping`` on ``platform``: a
    batch of one through :func:`simulate_batch`."""
    return simulate_batch(workload, [mapping], platform, backend)[0]


def simulate_batch(workload: list[ModelSpec], mappings: list[Mapping],
                   platform: Platform,
                   backend: str = DEFAULT_BACKEND) -> list[SimResult]:
    """Steady-state throughput of several mappings of the same workload.

    Solves all fixed points in one call (see
    :func:`repro.sim.backend.solve_steady_state_batch`), which is what
    makes MCTS rollout batches and scenario sweeps cheap.  ``backend``
    selects the solver implementation (``"compiled"`` or ``"numpy"``, see
    :mod:`repro.sim.backend`).
    """
    if not mappings:
        return []
    demand_sets = [compute_stage_demands(workload, m, platform)
                   for m in mappings]
    solutions = solve_steady_state_batch(demand_sets, len(workload), platform,
                                         backend=backend)
    ideal = np.array([platform.ideal_throughput(m) for m in workload])
    names = tuple(m.name for m in workload)
    return [
        SimResult(workload_names=names, rates=sol.rates, ideal_rates=ideal,
                  solution=sol)
        for sol in solutions
    ]
