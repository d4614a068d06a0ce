"""Reference oracles for the contention simulator, kept beside the tests.

* :func:`solve_steady_state` — the paper-faithful scalar fixed point for one
  mapping, moved here verbatim from ``repro.sim.contention`` when every
  production solve went through the batch entry point.  The numpy batch
  path is held bit-identical to it and the compiled kernel within the
  documented contract (``test_batch_equivalence.py``,
  ``test_backend_equivalence.py``).
* :func:`reference_stage_demands` and :func:`reference_pack` — the
  straightforward per-mapping demand build and per-element CSR packing the
  production fast paths (memoised stage demands, one-pass packing) must
  reproduce array for array (``test_packing_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

from repro.hw.latency import block_latencies
from repro.sim.contention import (
    _CYCLE_BURN_IN,
    _CYCLE_TOL,
    _CYCLE_WINDOW,
    _DAMPING,
    _MAX_ITER,
    _TOL,
    ContentionSolution,
    _empty_solution,
    _interference_table,
    _segment_sum,
)
from repro.sim.demands import StageDemand


def _context_counts(comp_of: np.ndarray, dnn_of: np.ndarray,
                    num_components: int, num_dnns: int) -> np.ndarray:
    """Distinct resident DNN contexts per component."""
    present = np.zeros((num_components, num_dnns), dtype=bool)
    present[comp_of, dnn_of] = True
    return present.sum(axis=1)


def solve_steady_state(demands: list[StageDemand], num_dnns: int,
                       platform: Platform,
                       max_iter: int = _MAX_ITER) -> ContentionSolution:
    """Solve steady-state per-DNN inference rates for one mapping.

    ``max_iter`` caps the fixed-point iteration (the default is the
    production budget; tests lower it to exercise the non-converged path).
    """
    if not demands:
        return _empty_solution(num_dnns, platform)

    n_stages = len(demands)
    num_comp = platform.num_components
    comp_of = np.array([d.component for d in demands])
    dnn_of = np.array([d.dnn_index for d in demands])
    base_demand = np.array([d.seconds_per_inference for d in demands])
    if np.any(base_demand <= 0):
        raise ValueError("stage demands must be positive")

    # Interference-inflated demands: thrashing grows with the number of
    # distinct DNN contexts resident on the component.
    gamma_table = _interference_table(platform, num_dnns)
    contexts = _context_counts(comp_of, dnn_of, num_comp, num_dnns)
    inflated = base_demand * gamma_table[comp_of, contexts[comp_of]]

    kernels = np.array([max(1, d.num_kernels) for d in demands], dtype=np.float64)
    kernel_time = base_demand / kernels
    hol_coeff = np.array([
        platform.component(int(c)).hol_blocking for c in comp_of
    ])

    # Scheduling entitlements: weight ∝ demand^κ per component.
    kappa = np.array([platform.component(c).sharing_bias
                      for c in range(num_comp)])
    weights = inflated ** kappa[comp_of]
    alloc = weights / _segment_sum(weights, comp_of, num_comp)[comp_of]

    rates = np.zeros(num_dnns)
    hol_wait = np.zeros(n_stages)
    history: list[np.ndarray] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        # Head-of-line waiting per inference, from current utilisations:
        # each launch waits behind co-residents in proportion to how busy
        # they keep the component.
        if hol_coeff.any():
            busy = rates[dnn_of] * inflated          # per-stage utilisation
            blocked = busy * kernel_time             # u_t * k_t
            totals = _segment_sum(blocked, comp_of, num_comp)
            new_wait = hol_coeff * kernels * (totals[comp_of] - blocked)
            # Damped so the rate<->waiting feedback loop cannot oscillate.
            hol_wait = _DAMPING * hol_wait + (1.0 - _DAMPING) * new_wait

        # A stage's rate is capped by its capacity share and by the serial
        # latency ceiling (service + waiting); a DNN runs at its slowest
        # stage's rate (pipeline bottleneck).
        cap_rate = alloc / inflated
        ceiling_rate = 1.0 / (inflated + hol_wait)
        stage_rate = np.minimum(cap_rate, ceiling_rate)
        new_rates = np.full(num_dnns, np.inf)
        np.minimum.at(new_rates, dnn_of, stage_rate)
        new_rates[np.isinf(new_rates)] = 0.0  # DNNs with no stages

        # Water-fill each component: non-bottleneck stages keep only what
        # they use; capacity-limited bottleneck stages split the remainder
        # by entitlement.  Ceiling-limited stages gain nothing from more
        # capacity, so they are treated as satisfied.  Components with no
        # capacity-hungry stage keep their allocations as-is.
        need = new_rates[dnn_of] * inflated
        limiting = stage_rate <= new_rates[dnn_of] * (1 + 1e-9)
        wants_more = limiting & (cap_rate <= ceiling_rate)
        sat_need = _segment_sum(np.where(wants_more, 0.0, need),
                                comp_of, num_comp)
        hot_weight = _segment_sum(np.where(wants_more, weights, 0.0),
                                  comp_of, num_comp)
        has_hot = hot_weight[comp_of] > 0.0
        free = np.maximum(1.0 - sat_need, 0.0)
        target = np.where(
            has_hot,
            np.where(wants_more,
                     free[comp_of] * weights
                     / np.where(hot_weight[comp_of] > 0.0,
                                hot_weight[comp_of], 1.0),
                     need),
            alloc,
        )

        max_rate = new_rates.max() if new_rates.size else 0.0
        if np.abs(new_rates - rates).max() <= _TOL * max(max_rate, 1e-12):
            rates = new_rates
            converged = True
            break
        rates = new_rates
        # Only the last _CYCLE_WINDOW iterates can ever be inspected, and
        # the first inspection happens at _CYCLE_BURN_IN.
        if iterations > _CYCLE_BURN_IN - _CYCLE_WINDOW:
            history.append(new_rates.copy())
        if len(history) > _CYCLE_WINDOW:
            history.pop(0)
        if iterations >= _CYCLE_BURN_IN and len(history) == _CYCLE_WINDOW:
            window = np.stack(history)
            span = window.max(axis=0) - window.min(axis=0)
            floor = np.maximum(window.mean(axis=0), 1e-12)
            if (span / floor).max() <= _CYCLE_TOL:
                rates = window.mean(axis=0)
                converged = True
                break
        alloc = _DAMPING * alloc + (1.0 - _DAMPING) * target

    utilisation = _segment_sum(rates[dnn_of] * inflated, comp_of, num_comp)

    return ContentionSolution(
        rates=rates, stage_allocations=alloc,
        stage_demands=inflated + hol_wait,
        component_utilisation=utilisation, iterations=iterations,
        converged=converged,
    )


def reference_stage_demands(workload, mapping, platform):
    """Demands for every stage of ``mapping``, built stage by stage."""
    mapping.validate_against(workload, platform.num_components)
    all_stages = mapping.stages()
    demands = []
    per_comp_latencies = [
        [block_latencies(model, platform.component(c))
         for c in range(platform.num_components)]
        for model in workload
    ]
    for dnn_index, model in enumerate(workload):
        prev_comp = None
        for stage in (s for s in all_stages if s.dnn_index == dnn_index):
            latencies = per_comp_latencies[dnn_index][stage.component]
            seconds = sum(latencies[stage.block_start : stage.block_end])
            if prev_comp is not None and prev_comp != stage.component:
                handoff = model.blocks[stage.block_start].input_bytes
                seconds += platform.link.transfer_time(handoff)
            kernels = sum(
                len(model.blocks[b].layers)
                for b in range(stage.block_start, stage.block_end)
            )
            demands.append(StageDemand(stage, seconds, kernels))
            prev_comp = stage.component
    return demands


def reference_pack(demand_sets, num_dnns, platform):
    """CSR-packed kernel inputs, derived element by element with the
    scalar solver's own expressions; same return layout as
    ``repro.sim.backend._pack``."""
    num_comp = platform.num_components
    gamma_table = _interference_table(platform, num_dnns)
    kappa = np.array([platform.component(c).sharing_bias
                      for c in range(num_comp)])
    hol_by_comp = np.array([platform.component(c).hol_blocking
                            for c in range(num_comp)])

    packed_rows = []
    offsets = [0]
    comp_parts, dnn_parts = [], []
    infl_parts, ktime_parts, holk_parts, weight_parts = [], [], [], []
    for b, demands in enumerate(demand_sets):
        if not demands:
            continue
        comp = np.array([d.component for d in demands], dtype=np.int64)
        dnn = np.array([d.dnn_index for d in demands], dtype=np.int64)
        base = np.array([d.seconds_per_inference for d in demands])
        if np.any(base <= 0):
            raise ValueError("stage demands must be positive")
        contexts = _context_counts(comp, dnn, num_comp, num_dnns)
        inflated = base * gamma_table[comp, contexts[comp]]
        kernels = np.array([max(1, d.num_kernels) for d in demands],
                           dtype=np.float64)
        packed_rows.append(b)
        offsets.append(offsets[-1] + len(demands))
        comp_parts.append(comp)
        dnn_parts.append(dnn)
        infl_parts.append(inflated)
        ktime_parts.append(base / kernels)
        holk_parts.append(hol_by_comp[comp] * kernels)
        weight_parts.append(inflated ** kappa[comp])

    if not packed_rows:
        empty_i = np.zeros(0, dtype=np.int64)
        empty_f = np.zeros(0)
        return (packed_rows, np.zeros(1, dtype=np.int64), empty_i, empty_i,
                empty_f, empty_f, empty_f, empty_f)
    return (packed_rows,
            np.array(offsets, dtype=np.int64),
            np.concatenate(comp_parts),
            np.concatenate(dnn_parts),
            np.concatenate(infl_parts),
            np.concatenate(ktime_parts),
            np.concatenate(holk_parts),
            np.concatenate(weight_parts))
