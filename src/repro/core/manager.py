"""RankMap: the priority-aware multi-DNN manager (Sec. IV).

``RankMap`` glues the pieces together: VQ-VAE layer embeddings feed the
mapping tensor Q, the multi-task estimator predicts per-DNN throughput for
candidate mappings, and MCTS maximises the priority-weighted reward under
the starvation-threshold disqualification rule.  ``mode="static"`` uses the
user's priority vector (RankMap_S); ``mode="dynamic"`` derives priorities
from each DNN's computational profile (RankMap_D).
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from ..hw.platform import Platform
from ..mapping.mapping import Mapping
from ..search.mcts import MCTS, MCTSConfig, MCTSStats
from ..search.reward import (
    DISQUALIFIED,
    RewardConfig,
    mapping_reward,
    thresholds_for,
)
from ..sim.dynamic import MappingDecision
from ..zoo.layers import ModelSpec
from .predictor import RatePredictor
from .priorities import dynamic_priorities, normalize_priorities

__all__ = ["Manager", "RankMap", "RankMapConfig"]


def _workload_fingerprint(workload: list[ModelSpec]) -> int:
    """Stable small seed offset per workload (process-independent).

    Search seeds combine this with the relaxation-attempt index, so
    planning is a pure function of (workload, priorities, config) — two
    identical ``plan()`` calls walk the identical search trajectory and a
    shared :class:`~repro.sim.cache.EvaluationCache` answers the repeat
    from memory — while distinct workloads still explore decorrelated
    trajectories.
    """
    return zlib.crc32("|".join(m.name for m in workload).encode()) % 1024


class Manager:
    """Base interface shared by RankMap and every baseline manager."""

    #: Display name used by experiments and reports.
    name: str = "manager"

    def plan(self, workload: list[ModelSpec],
             priorities: np.ndarray | None = None) -> MappingDecision:
        """Produce a mapping (and its modeled decision latency)."""
        raise NotImplementedError  # pragma: no cover

    # Wall-clock of the last plan() call, for the run-time comparison.
    last_wall_seconds: float = 0.0


@dataclass(frozen=True)
class RankMapConfig:
    """RankMap hyper-parameters.

    When ``reward`` is left as None it is resolved per mode: static mode
    weights *potentials* (user prioritisation is about each DNN's share of
    its own ideal performance), dynamic mode weights raw rates — with
    demand-proportional priorities that objective is the workload's
    delivered MACs/s, which is why RankMap_D tops the throughput charts
    while the threshold guard still prevents starvation.
    """

    mode: str = "dynamic"                  # "static" (S) or "dynamic" (D)
    mcts: MCTSConfig = field(default_factory=MCTSConfig)
    reward: RewardConfig | None = None
    # When nothing clears the starvation threshold, relax it and retry.
    threshold_relaxations: int = 2
    relaxation_factor: float = 0.5
    # Deployment hardening: re-measure the top-k candidate mappings on the
    # board (one measurement window each) and deploy the best *actual*
    # reward.  Protects the no-starvation guarantee against estimator
    # error; 0 disables (the paper's pure estimator-trusting flow).
    board_validation_top_k: int = 0
    board_measurement_window_s: float = 2.0

    def __post_init__(self):
        if self.mode not in ("static", "dynamic"):
            raise ValueError(f"unknown RankMap mode {self.mode!r}")

    def resolved_reward(self) -> RewardConfig:
        """The effective reward configuration: explicit, or per mode."""
        if self.reward is not None:
            return self.reward
        if self.mode == "static":
            # Weighted potentials: the search actively pushes the user's
            # critical DNN toward its ideal rate (Fig. 6 / Fig. 10 shape)
            # instead of merely clearing a floor.  The flat base threshold
            # keeps the starvation guard.
            return RewardConfig(kind="weighted", normalize_by_ideal=True)
        # Dynamic mode: the paper's literal Sec. IV-E objective on raw
        # rates.  With demand-proportional priorities this maximises the
        # workload's delivered MACs/s, which keeps heavy DNNs' P tracking
        # their priority (Fig. 9) at a small mean-rate cost; the floor
        # kind remains available via an explicit RewardConfig.
        return RewardConfig(kind="weighted", normalize_by_ideal=False)


class RankMap(Manager):
    """Priority-aware multi-DNN manager for heterogeneous platforms."""

    def __init__(self, platform: Platform, predictor: RatePredictor,
                 config: RankMapConfig | None = None):
        config = config if config is not None else RankMapConfig()
        self.platform = platform
        self.predictor = predictor
        self.config = config
        self.name = "rankmap_s" if config.mode == "static" else "rankmap_d"
        self.last_stats: MCTSStats | None = None
        self.last_priorities: np.ndarray | None = None

    # ------------------------------------------------------------------
    def plan(self, workload: list[ModelSpec],
             priorities: np.ndarray | None = None) -> MappingDecision:
        """Search a mapping for ``workload`` (Sec. IV flow).

        Resolves priorities and starvation thresholds, runs MCTS through
        the configured predictor, relaxes the floors under saturation,
        optionally re-measures the top-k candidates on the board, and
        returns the decided :class:`Mapping` with its modeled on-board
        decision latency.
        """
        t0 = time.perf_counter()
        if not workload:
            raise ValueError("workload must not be empty")
        p = self._resolve_priorities(workload, priorities)
        self.last_priorities = p

        reward_cfg = self.config.resolved_reward()
        thresholds = thresholds_for(workload, self.platform, reward_cfg, p)
        ideals = (np.array([self.platform.ideal_throughput(m)
                            for m in workload])
                  if reward_cfg.normalize_by_ideal else None)
        mapping, stats = self._search(workload, p, thresholds, ideals,
                                      reward_cfg.kind, attempt=0)

        # Under saturation, relax the floors — but never below the
        # starvation line itself, so a qualifying mapping always keeps
        # every DNN observably alive.
        from ..metrics.starvation import STARVATION_EPSILON

        all_ideals = np.array([self.platform.ideal_throughput(m)
                               for m in workload])
        floor_min = (STARVATION_EPSILON * 1.2) * all_ideals
        relax = self.config.relaxation_factor
        attempts = 0
        while (stats.best_reward <= DISQUALIFIED
               and attempts < self.config.threshold_relaxations):
            attempts += 1
            thresholds = np.maximum(thresholds * relax, floor_min)
            mapping, stats = self._search(workload, p, thresholds, ideals,
                                          reward_cfg.kind, attempt=attempts)

        modeled = stats.evaluations * self.predictor.board_latency_per_eval
        k = self.config.board_validation_top_k
        if k > 0 and stats.top_candidates:
            mapping, validated = self._validate_on_board(
                workload, stats.top_candidates[:k], p, thresholds, ideals,
                reward_cfg.kind, fallback=mapping)
            modeled += validated * self.config.board_measurement_window_s

        self.last_stats = stats
        self.last_wall_seconds = time.perf_counter() - t0
        return MappingDecision(mapping, decision_seconds=modeled)

    def _validate_on_board(self, workload, candidates, p, thresholds,
                           ideals, kind, fallback) -> tuple[Mapping, int]:
        """Re-measure candidate mappings on the board; deploy the best.

        If every candidate *measures* disqualified (a saturated platform
        where even relaxed floors are infeasible), deploy the candidate
        whose worst rate-to-threshold margin is largest — the least
        starvation-prone option on the table — instead of blindly trusting
        the estimator's pick.
        """
        from ..sim.engine import simulate_batch

        best_mapping = fallback
        best_reward = DISQUALIFIED
        best_margin = -np.inf
        margin_mapping = fallback
        mappings = [candidate for _, candidate in candidates]
        measured = simulate_batch(workload, mappings, self.platform)
        for candidate, result in zip(mappings, measured):
            reward = mapping_reward(result.rates, p, thresholds, ideals,
                                    kind)
            if reward > best_reward:
                best_reward = reward
                best_mapping = candidate
            margin = float(
                (result.rates / np.maximum(thresholds, 1e-12)).min())
            if margin > best_margin:
                best_margin = margin
                margin_mapping = candidate
        if best_reward <= DISQUALIFIED:
            best_mapping = margin_mapping
        return best_mapping, len(candidates)

    # ------------------------------------------------------------------
    def _resolve_priorities(self, workload: list[ModelSpec],
                            priorities: np.ndarray | None) -> np.ndarray:
        if self.config.mode == "dynamic":
            return dynamic_priorities(workload)
        if priorities is None:
            raise ValueError("static mode requires a user priority vector")
        p = normalize_priorities(priorities)
        if p.size != len(workload):
            raise ValueError("priority vector must match workload size")
        return p

    def _search(self, workload: list[ModelSpec], p: np.ndarray,
                thresholds: np.ndarray, ideals: np.ndarray | None,
                kind: str, attempt: int = 0) -> tuple[Mapping, MCTSStats]:
        def evaluate(mappings: list[Mapping]) -> np.ndarray:
            rates = self.predictor.predict_batch(workload, mappings)
            return np.array([
                mapping_reward(row, p, thresholds, ideals, kind)
                for row in rates
            ])

        # Seed per (workload, relaxation attempt) — never per plan() call —
        # so repeated plans replay the same trajectory (see
        # _workload_fingerprint) while retries explore fresh ones.
        cfg = replace(self.config.mcts,
                      seed=(self.config.mcts.seed + 1 + attempt
                            + _workload_fingerprint(workload)))
        search = MCTS(workload, self.platform.num_components, evaluate, cfg)
        return search.search()
