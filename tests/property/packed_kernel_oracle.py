"""Pure-python reference kernel of the compiled contention solver.

:func:`solve_packed` is the damped fixed point of the scalar oracle
(:func:`scalar_oracle.solve_steady_state`) written as plain loops over
pre-packed flat arrays — line for line the C kernel
``repro.sim._csolver.c``.  One call solves a whole batch: element ``b``'s
stages live in ``offsets[b]:offsets[b+1]`` of the flat per-stage arrays,
and each element runs the *scalar* solver's exact operation order (segment
sums accumulate in stage order, the limit-cycle window averages
chronologically, damping applies in the same multiply-then-add grouping),
so the kernel's float trajectory is bit-compatible with the scalar oracle.

It is the always-runnable anchor of
``tests/property/test_backend_equivalence.py``: passed as ``kernel`` to
:func:`repro.sim.backend.solve_batch_compiled`, it pins the packing and
the kernel's numerics bit for bit even on hosts where the C twin cannot
be built.
"""

from __future__ import annotations

import numpy as np

__all__ = ["solve_packed"]


def solve_packed(offsets, comp_of, dnn_of, inflated, kernel_time, hol_k,
                 weights, num_dnns, num_comp, max_iter, damping, tol,
                 cycle_window, cycle_tol, cycle_burn_in,
                 out_rates, out_alloc, out_eff, out_util, out_iters,
                 out_conv):
    """Solve every packed element's steady-state fixed point in place.

    Inputs are the iteration-independent per-stage quantities the scalar
    solver derives before its loop (interference-inflated demands,
    per-launch kernel times, head-of-line coefficients times launch
    counts, sharing-bias entitlement weights), flattened across the
    batch with ``offsets`` delimiting each element.  Outputs land in the
    pre-allocated ``out_*`` arrays: per-element rates ``(B, N)``, flat
    per-stage allocations and effective demands, per-element component
    utilisation ``(B, C)``, iteration counts and convergence flags.
    """
    n_batch = offsets.shape[0] - 1
    for b in range(n_batch):
        s0 = offsets[b]
        s1 = offsets[b + 1]
        n_stages = s1 - s0

        # Entitlements: weight / per-component weight sum, accumulated in
        # stage order exactly like the scalar path's bincount.
        weight_sum = np.zeros(num_comp)
        for s in range(s0, s1):
            weight_sum[comp_of[s]] += weights[s]
        alloc = np.empty(n_stages)
        for s in range(n_stages):
            alloc[s] = weights[s0 + s] / weight_sum[comp_of[s0 + s]]

        has_hol = False
        for s in range(s0, s1):
            if hol_k[s] != 0.0:
                has_hol = True
                break

        rates = np.zeros(num_dnns)
        new_rates = np.empty(num_dnns)
        hol_wait = np.zeros(n_stages)
        blocked = np.empty(n_stages)
        stage_rate = np.empty(n_stages)
        cap_rate = np.empty(n_stages)
        ceiling_rate = np.empty(n_stages)
        target = np.empty(n_stages)
        wants_more = np.empty(n_stages, dtype=np.bool_)
        need = np.empty(n_stages)
        totals = np.empty(num_comp)
        sat_need = np.empty(num_comp)
        hot_weight = np.empty(num_comp)
        ring = np.empty((cycle_window, num_dnns))
        means = np.empty(num_dnns)

        iterations = 0
        converged = False
        for iteration in range(1, max_iter + 1):
            iterations = iteration
            if has_hol:
                # Head-of-line waiting from current utilisations, damped.
                for c in range(num_comp):
                    totals[c] = 0.0
                for s in range(n_stages):
                    blocked[s] = (rates[dnn_of[s0 + s]] * inflated[s0 + s]
                                  * kernel_time[s0 + s])
                    totals[comp_of[s0 + s]] += blocked[s]
                for s in range(n_stages):
                    new_wait = hol_k[s0 + s] \
                        * (totals[comp_of[s0 + s]] - blocked[s])
                    hol_wait[s] = damping * hol_wait[s] \
                        + (1.0 - damping) * new_wait

            # Per-stage rate: capacity share vs serial latency ceiling;
            # per-DNN rate: slowest stage (pipeline bottleneck).
            for d in range(num_dnns):
                new_rates[d] = np.inf
            for s in range(n_stages):
                cap_rate[s] = alloc[s] / inflated[s0 + s]
                ceiling_rate[s] = 1.0 / (inflated[s0 + s] + hol_wait[s])
                sr = cap_rate[s] if cap_rate[s] < ceiling_rate[s] \
                    else ceiling_rate[s]
                stage_rate[s] = sr
                if sr < new_rates[dnn_of[s0 + s]]:
                    new_rates[dnn_of[s0 + s]] = sr
            for d in range(num_dnns):
                if np.isinf(new_rates[d]):
                    new_rates[d] = 0.0

            # Water-fill each component (same satisfied/hungry split and
            # stage-order accumulation as the scalar path).
            for c in range(num_comp):
                sat_need[c] = 0.0
                hot_weight[c] = 0.0
            for s in range(n_stages):
                need[s] = new_rates[dnn_of[s0 + s]] * inflated[s0 + s]
                limiting = stage_rate[s] \
                    <= new_rates[dnn_of[s0 + s]] * (1.0 + 1e-9)
                wants_more[s] = limiting and cap_rate[s] <= ceiling_rate[s]
                if wants_more[s]:
                    hot_weight[comp_of[s0 + s]] += weights[s0 + s]
                else:
                    sat_need[comp_of[s0 + s]] += need[s]
            for s in range(n_stages):
                c = comp_of[s0 + s]
                if hot_weight[c] > 0.0:
                    if wants_more[s]:
                        free = 1.0 - sat_need[c]
                        if free < 0.0:
                            free = 0.0
                        target[s] = free * weights[s0 + s] / hot_weight[c]
                    else:
                        target[s] = need[s]
                else:
                    target[s] = alloc[s]

            # Convergence (identical test to the scalar break).
            max_rate = 0.0
            max_diff = 0.0
            for d in range(num_dnns):
                if new_rates[d] > max_rate:
                    max_rate = new_rates[d]
                diff = abs(new_rates[d] - rates[d])
                if diff > max_diff:
                    max_diff = diff
                rates[d] = new_rates[d]
            floor = max_rate if max_rate > 1e-12 else 1e-12
            if max_diff <= tol * floor:
                converged = True
                break

            # Limit-cycle resolution: keep the last `cycle_window`
            # iterates; from the burn-in on, a window whose relative
            # amplitude is small resolves to its chronological mean.
            if iteration > cycle_burn_in - cycle_window:
                row = (iteration - 1) % cycle_window
                for d in range(num_dnns):
                    ring[row, d] = rates[d]
            if iteration >= cycle_burn_in:
                worst = 0.0
                for d in range(num_dnns):
                    first = ring[(iteration - cycle_window) % cycle_window, d]
                    lo = first
                    hi = first
                    mean = first
                    for k in range(iteration - cycle_window + 1, iteration):
                        v = ring[k % cycle_window, d]
                        if v < lo:
                            lo = v
                        if v > hi:
                            hi = v
                        mean = mean + v
                    mean /= cycle_window
                    means[d] = mean
                    mfloor = mean if mean > 1e-12 else 1e-12
                    ratio = (hi - lo) / mfloor
                    if ratio > worst:
                        worst = ratio
                if worst <= cycle_tol:
                    for d in range(num_dnns):
                        rates[d] = means[d]
                    converged = True
                    break

            for s in range(n_stages):
                alloc[s] = damping * alloc[s] + (1.0 - damping) * target[s]

        # Finalize this element into the output buffers.
        for d in range(num_dnns):
            out_rates[b, d] = rates[d]
        for c in range(num_comp):
            out_util[b, c] = 0.0
        for s in range(n_stages):
            out_alloc[s0 + s] = alloc[s]
            out_eff[s0 + s] = inflated[s0 + s] + hol_wait[s]
            out_util[b, comp_of[s0 + s]] += rates[dnn_of[s0 + s]] \
                * inflated[s0 + s]
        out_iters[b] = iterations
        out_conv[b] = converged
