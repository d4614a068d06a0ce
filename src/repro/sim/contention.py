"""Steady-state contention solver.

Models how co-resident pipeline stages share each computing component:

* **Interference** — every demand on a component with ``n`` resident stages
  is inflated by ``1 + α·(n−1)^β`` (cache/memory-system thrashing; the GPU's
  α is the largest, which is what collapses the all-on-GPU baseline).
* **Scheduling** — each component divides its time between resident stages
  with entitlements ∝ ``demand^κ`` (``κ = sharing_bias``): fair processor
  sharing on the CPU clusters, service-time-biased sharing on the GPU whose
  non-preemptive command queues favour long-kernel contexts.
* **Head-of-line blocking** — on a non-preemptive component every kernel
  launch of a stage may have to wait behind a co-resident's running kernel:
  a stage with ``L`` launches pays ``hol · L · Σ_t u_t · k_t`` extra seconds
  per inference, where ``u_t`` is the co-resident's utilisation and ``k_t``
  its mean kernel time.  Because the blocking term scales with utilisation
  it is solved inside the fixed point; it is the board effect that starves
  many-kernel light DNNs (SqueezeNet) sharing a saturated GPU with
  long-kernel heavy DNNs (VGG) — the paper's baseline pathology.
* **Work conservation** — a stage that is not its DNN's bottleneck only
  consumes what the pipeline feeds it; the surplus is redistributed to
  co-resident stages that can use it.

The resulting allocation is the fixed point of a damped iteration:
``rate_i = min_s alloc_s / demand_s`` coupled with per-component
water-filling of allocations.  Every DNN's steady-state throughput is its
bottleneck stage's rate, the classic pipeline result.

This module holds the numpy implementation, :func:`solve_batch_numpy`:
B mappings solved simultaneously on stacked arrays with per-mapping
convergence masking.  Every per-element operation (segment sums,
water-filling, damping, cycle averaging) is performed in the same order as
the paper-faithful scalar fixed point, so for each element the batch
solver follows the *identical* float trajectory.  The scalar solver lives
on as the test oracle (``tests/property/scalar_oracle.py``) and the
regression harness in ``tests/property/test_batch_equivalence.py`` locks
the agreement in.  Production code solves through
:func:`repro.sim.backend.solve_steady_state_batch`, which runs the
compiled kernel and falls back to this path on hosts without a C
compiler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hw.platform import Platform
from .demands import StageDemand

__all__ = ["ContentionSolution", "solve_batch_numpy"]

_MAX_ITER = 800
_DAMPING = 0.85
_TOL = 1e-8
# The discrete bottleneck-set switching can produce small limit cycles; a
# cycle with relative amplitude below this is resolved to its time average
# (the physical system time-shares through the same oscillation).
_CYCLE_WINDOW = 40
_CYCLE_TOL = 0.03
_CYCLE_BURN_IN = 150


@dataclass(frozen=True)
class ContentionSolution:
    """Solver output: per-DNN rates plus diagnostics."""

    rates: np.ndarray              # inferences/s per DNN
    stage_allocations: np.ndarray  # component-time fraction per stage
    stage_demands: np.ndarray      # effective (interference-inflated) demands
    component_utilisation: np.ndarray
    iterations: int
    converged: bool


def _segment_sum(values: np.ndarray, segments: np.ndarray,
                 num_segments: int) -> np.ndarray:
    """Sum ``values`` into ``num_segments`` buckets, sequentially in index
    order.  Shared by the scalar and batch paths so both accumulate with the
    same rounding (``bincount`` walks the input in order, like ``add.at``,
    but in a single C pass)."""
    return np.bincount(segments, weights=values, minlength=num_segments)


def _interference_table(platform: Platform, num_dnns: int) -> np.ndarray:
    """``gamma[c, n]`` = demand inflation of component ``c`` with ``n``
    resident DNN contexts; indexing the table reproduces the scalar calls
    to :meth:`ComputeComponent.interference_factor` exactly."""
    table = np.empty((platform.num_components, num_dnns + 1))
    for c in range(platform.num_components):
        comp = platform.component(c)
        for n in range(num_dnns + 1):
            table[c, n] = comp.interference_factor(n)
    return table


def _empty_solution(num_dnns: int, platform: Platform) -> ContentionSolution:
    return ContentionSolution(
        rates=np.zeros(num_dnns), stage_allocations=np.zeros(0),
        stage_demands=np.zeros(0),
        component_utilisation=np.zeros(platform.num_components),
        iterations=0, converged=True,
    )


def solve_batch_numpy(demand_sets: list[list[StageDemand]],
                      num_dnns: int, platform: Platform,
                      max_iter: int = _MAX_ITER) -> list[ContentionSolution]:
    """Solve B mappings' fixed points simultaneously with numpy.

    All mappings must cover the same workload (``num_dnns`` DNNs on
    ``platform``); they may have different stage counts — shorter elements
    are padded and masked.  Each element's trajectory is arithmetically
    identical to the scalar fixed point on its demands alone: padded
    lanes contribute exact zeros to every segment sum and ``+inf`` to every
    min-reduction, convergence and the limit-cycle resolution are tracked
    per element, and elements that converge are *compacted out* of the
    stacked arrays so stragglers keep iterating on ever-smaller batches.
    ``max_iter`` caps the fixed-point iteration (tests lower it to
    exercise the non-converged path).
    """
    n_total = len(demand_sets)
    if n_total == 0:
        return []

    num_comp = platform.num_components
    stage_counts = [len(d) for d in demand_sets]
    s_max = max(stage_counts)
    if s_max == 0:
        return [_empty_solution(num_dnns, platform) for _ in demand_sets]

    # ---- stacked, padded per-stage arrays (non-empty elements only) ---
    live = np.array([b for b, d in enumerate(demand_sets) if d])
    n_live = len(live)
    widths = np.array([stage_counts[b] for b in live])
    valid = np.arange(s_max)[None, :] < widths[:, None]
    comp_of = np.zeros((n_live, s_max), dtype=np.int64)
    dnn_of = np.zeros((n_live, s_max), dtype=np.int64)
    base_demand = np.ones((n_live, s_max))
    kernels = np.ones((n_live, s_max))
    for row, b in enumerate(live):
        for s, d in enumerate(demand_sets[b]):
            comp_of[row, s] = d.component
            dnn_of[row, s] = d.dnn_index
            base_demand[row, s] = d.seconds_per_inference
            kernels[row, s] = max(1, d.num_kernels)
    if np.any(base_demand[valid] <= 0):
        raise ValueError("stage demands must be positive")

    # ---- interference, entitlements, HoL parameters -------------------
    gamma_table = _interference_table(platform, num_dnns)
    b_idx, s_idx = np.nonzero(valid)
    present = np.zeros((n_live, num_comp, num_dnns), dtype=bool)
    present[b_idx, comp_of[b_idx, s_idx], dnn_of[b_idx, s_idx]] = True
    contexts = present.sum(axis=2)                       # (B, C)
    row2d = np.arange(n_live)[:, None]
    gamma = gamma_table[comp_of, contexts[row2d, comp_of]]
    inflated = base_demand * gamma

    # Padded lanes: kernel_time 0 so they contribute exact zeros to the
    # HoL segment sums; hol_coeff/weights 0 likewise.
    kernel_time = np.where(valid, base_demand / kernels, 0.0)
    hol_by_comp = np.array([platform.component(c).hol_blocking
                            for c in range(num_comp)])
    hol_k = np.where(valid, hol_by_comp[comp_of], 0.0) * kernels
    kappa = np.array([platform.component(c).sharing_bias
                      for c in range(num_comp)])
    weights = np.where(valid, inflated ** kappa[comp_of], 0.0)

    def per_component_sum(values: np.ndarray, seg: np.ndarray,
                          n_rows: int) -> np.ndarray:
        return _segment_sum(values.ravel(), seg,
                            n_rows * num_comp).reshape(n_rows, num_comp)

    # Flattened segment ids: bucket (b, c) -> b * C + c, bucket (b, n) ->
    # b * N + n.  ``bincount``/``minimum.at`` walk the flattened arrays in
    # b-major order, so each element accumulates its own buckets in the
    # same stage order as the scalar path.
    def rebuild_index(n_rows: int) -> tuple:
        rows = np.arange(n_rows)[:, None]
        return (rows,
                (rows * num_comp + comp_of).ravel(),
                (rows * num_dnns + dnn_of).ravel(),
                np.empty(n_rows * num_dnns))

    row2d, comp_seg, dnn_seg, nr_flat = rebuild_index(n_live)
    weight_sum = per_component_sum(weights, comp_seg, n_live)
    ws_stage = weight_sum[row2d, comp_of]
    alloc = np.where(valid, weights / np.where(ws_stage > 0.0, ws_stage, 1.0),
                     0.0)

    # ---- outputs (indexed by original batch position) -----------------
    out_rates = np.zeros((n_total, num_dnns))
    out_alloc: list = [None] * n_total
    out_eff: list = [None] * n_total
    out_util = np.zeros((n_total, num_comp))
    out_iters = np.zeros(n_total, dtype=int)
    out_conv = np.zeros(n_total, dtype=bool)

    def finalize(mask: np.ndarray, rates: np.ndarray, iteration: int,
                 conv: bool) -> None:
        """Record final state of the masked rows into the output buffers."""
        for row in np.nonzero(mask)[0]:
            b = live[row]
            count = stage_counts[b]
            out_rates[b] = rates[row]
            out_alloc[b] = alloc[row, :count].copy()
            eff = inflated[row, :count] + hol_wait[row, :count]
            out_eff[b] = eff
            used = rates[row][dnn_of[row, :count]] * inflated[row, :count]
            out_util[b] = _segment_sum(used, comp_of[row, :count], num_comp)
            out_iters[b] = iteration
            out_conv[b] = conv

    # ---- damped fixed point with per-element freeze-and-compact -------
    rates = np.zeros((n_live, num_dnns))
    hol_wait = np.zeros((n_live, s_max))
    ring: np.ndarray | None = None       # (W, B, N) rolling iterate window
    append_from = _CYCLE_BURN_IN - _CYCLE_WINDOW
    iteration = 0
    for iteration in range(1, max_iter + 1):
        # Head-of-line waiting (exact zeros wherever hol_coeff is zero,
        # matching the scalar path's skipped update).
        blocked = rates[row2d, dnn_of] * inflated * kernel_time
        totals = per_component_sum(blocked, comp_seg, len(live))
        new_wait = hol_k * (totals[row2d, comp_of] - blocked)
        hol_wait *= _DAMPING
        hol_wait += (1.0 - _DAMPING) * new_wait

        cap_rate = alloc / inflated
        ceiling_rate = 1.0 / (inflated + hol_wait)
        stage_rate = np.where(valid, np.minimum(cap_rate, ceiling_rate),
                              np.inf)
        nr_flat.fill(np.inf)
        np.minimum.at(nr_flat, dnn_seg, stage_rate.ravel())
        new_rates = nr_flat.reshape(len(live), num_dnns).copy()
        new_rates[np.isinf(new_rates)] = 0.0

        # Water-filling, per (element, component).
        rate_of_stage = new_rates[row2d, dnn_of]
        need = rate_of_stage * inflated
        limiting = stage_rate <= rate_of_stage * (1 + 1e-9)
        wants_more = valid & limiting & (cap_rate <= ceiling_rate)
        sat_need = per_component_sum(
            np.where(valid & ~wants_more, need, 0.0), comp_seg, len(live))
        hot_weight = per_component_sum(
            np.where(wants_more, weights, 0.0), comp_seg, len(live))
        hot_w_stage = hot_weight[row2d, comp_of]
        has_hot = hot_w_stage > 0.0
        free = np.maximum(1.0 - sat_need, 0.0)
        target = np.where(
            has_hot,
            np.where(wants_more,
                     free[row2d, comp_of] * weights
                     / np.where(has_hot, hot_w_stage, 1.0),
                     need),
            alloc,
        )

        # Per-element convergence (same test as the scalar break).
        max_rate = np.maximum(new_rates.max(axis=1), 1e-12)
        diff = np.abs(new_rates - rates).max(axis=1)
        conv_now = diff <= _TOL * max_rate
        rates = new_rates

        if iteration > append_from:
            if ring is None:
                ring = np.empty((_CYCLE_WINDOW, len(live), num_dnns))
            ring[(iteration - 1) % _CYCLE_WINDOW] = new_rates
        if iteration >= _CYCLE_BURN_IN:
            order = np.arange(iteration - _CYCLE_WINDOW, iteration) \
                % _CYCLE_WINDOW
            window = ring[order]                         # chronological
            span = window.max(axis=0) - window.min(axis=0)
            floor = np.maximum(window.mean(axis=0), 1e-12)
            cyclic = ~conv_now & ((span / floor).max(axis=1) <= _CYCLE_TOL)
            if cyclic.any():
                rates = np.where(cyclic[:, None], window.mean(axis=0), rates)
                conv_now = conv_now | cyclic

        if conv_now.any():
            finalize(conv_now, rates, iteration, True)
            keep = ~conv_now
            live = live[keep]
            if live.size == 0:
                break
            valid = valid[keep]
            comp_of = comp_of[keep]
            dnn_of = dnn_of[keep]
            inflated = inflated[keep]
            kernel_time = kernel_time[keep]
            hol_k = hol_k[keep]
            weights = weights[keep]
            alloc = alloc[keep]
            hol_wait = hol_wait[keep]
            rates = rates[keep]
            target = target[keep]
            if ring is not None:
                ring = ring[:, keep, :]
            row2d, comp_seg, dnn_seg, nr_flat = rebuild_index(len(live))

        alloc *= _DAMPING
        alloc += (1.0 - _DAMPING) * target

    if live.size:
        finalize(np.ones(len(live), dtype=bool), rates, iteration, False)

    solutions: list[ContentionSolution] = []
    for b, count in enumerate(stage_counts):
        if count == 0:
            solutions.append(_empty_solution(num_dnns, platform))
            continue
        solutions.append(ContentionSolution(
            rates=out_rates[b], stage_allocations=out_alloc[b],
            stage_demands=out_eff[b], component_utilisation=out_util[b],
            iterations=int(out_iters[b]), converged=bool(out_conv[b]),
        ))
    return solutions
