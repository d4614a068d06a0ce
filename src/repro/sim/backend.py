"""The one contention-solve entry point, on the solver the host supports.

The damped fixed point in :mod:`repro.sim.contention` is the innermost
hot loop of every plan/serve/fleet decision.  Every solve goes through
:func:`solve_steady_state_batch`, which runs one of two implementations
of the same fixed point; the host picks which, the caller never does:

* the native C kernel over CSR-packed flat arrays (``_csolver.c``, built
  on demand by :mod:`repro.sim._cext`) whenever :func:`compiled_provider`
  loads it.  It follows the scalar oracle's exact operation order, so
  its float trajectory is bit-compatible; the differential suite
  (``tests/property/test_backend_equivalence.py``) additionally
  tolerates ``rel <= 1e-12`` on rates/utilisation to stay robust to
  compiler-scheduling differences across hosts, and requires identical
  convergence flags plus identical iteration counts on non-limit-cycle
  instances;
* otherwise the vectorized :func:`repro.sim.contention.solve_batch_numpy`,
  after a one-time :class:`RuntimeWarning`.  It is bit-identical to the
  scalar oracle kept under ``tests/`` (locked by
  ``tests/property/test_batch_equivalence.py``), so results stay correct
  while the slowdown is visible.

The provider is probed lazily, once per process, on the first solve;
:func:`active_solver` names the outcome (``"compiled"`` or ``"numpy"``)
for reports and persisted caches.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..hw.platform import Platform
from .contention import (
    _CYCLE_BURN_IN,
    _CYCLE_TOL,
    _CYCLE_WINDOW,
    _DAMPING,
    _MAX_ITER,
    _TOL,
    ContentionSolution,
    _empty_solution,
    _interference_table,
    solve_batch_numpy,
)
from .demands import StageDemand

__all__ = [
    "active_solver",
    "compiled_provider",
    "solve_batch_compiled",
    "solve_steady_state_batch",
]

_provider: str | None = None
_provider_probed = False
_fallback_warned = False


def compiled_provider() -> str | None:
    """Name of the native kernel provider, or ``None`` without one.

    Probes at most once per process: ``"cext"`` if the on-demand C build
    produces a loadable library, else ``None`` (solves then run on the
    numpy fallback with a one-time warning).
    """
    global _provider, _provider_probed
    if _provider_probed:
        return _provider
    _provider_probed = True
    from . import _cext
    if _cext.load_solver() is not None:
        _provider = "cext"
    return _provider


def active_solver() -> str:
    """The solver this process runs: ``"compiled"`` or ``"numpy"``."""
    return "numpy" if compiled_provider() is None else "compiled"


def _pack(demand_sets: list[list[StageDemand]], num_dnns: int,
          platform: Platform) -> tuple:
    """Flatten non-empty demand sets into CSR-packed kernel inputs.

    Performs the scalar solver's iteration-independent precomputation
    (interference inflation, kernel times, head-of-line coefficients
    times launch counts, entitlement weights) with the same elementwise
    numpy expressions, in one pass over the whole batch, so the packed
    quantities are bitwise identical to what the scalar path derives.
    Returns ``(packed_rows, offsets, comp_of, dnn_of, inflated,
    kernel_time, hol_k, weights)`` where ``packed_rows[i]`` is the
    original batch index of packed element ``i``; empty demand sets are
    excluded (callers answer them with
    :func:`repro.sim.contention._empty_solution`).
    """
    num_comp = platform.num_components
    gamma_table = _interference_table(platform, num_dnns)
    kappa = np.array([platform.component(c).sharing_bias
                      for c in range(num_comp)])
    hol_by_comp = np.array([platform.component(c).hol_blocking
                            for c in range(num_comp)])
    packed_rows: list[int] = []
    counts: list[int] = []
    flat: list[StageDemand] = []
    for b, demands in enumerate(demand_sets):
        if demands:
            packed_rows.append(b)
            counts.append(len(demands))
            flat.extend(demands)
    n_stages = len(flat)
    comp = np.fromiter([d.stage.component for d in flat], np.int64, n_stages)
    dnn = np.fromiter([d.stage.dnn_index for d in flat], np.int64, n_stages)
    base = np.fromiter([d.seconds_per_inference for d in flat], np.float64,
                       n_stages)
    kernels = np.fromiter([d.num_kernels for d in flat], np.float64,
                          n_stages)
    if (base <= 0).any():
        raise ValueError("stage demands must be positive")
    np.maximum(kernels, 1.0, out=kernels)
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    # Distinct resident DNN contexts per (element, component), looked up
    # per stage: element-local, exactly as each scalar solve counts them.
    elem = np.repeat(np.arange(len(counts)), counts)
    present = np.zeros((len(counts), num_comp, num_dnns), dtype=bool)
    present[elem, comp, dnn] = True
    contexts = present.sum(axis=2)
    inflated = base * gamma_table[comp, contexts[elem, comp]]
    return (packed_rows, offsets, comp, dnn, inflated, base / kernels,
            hol_by_comp[comp] * kernels, inflated ** kappa[comp])


def solve_batch_compiled(demand_sets: list[list[StageDemand]],
                         num_dnns: int, platform: Platform,
                         max_iter: int = _MAX_ITER,
                         kernel=None) -> list[ContentionSolution]:
    """Pack a batch, run a packed kernel over it and unpack the results.

    Same contract as :func:`solve_steady_state_batch`.  ``kernel`` is the
    packed kernel to run: the C kernel by default (``RuntimeError`` when
    it cannot load), or any callable with its signature (the
    differential suite passes its pure-python reference kernel).
    """
    if kernel is None:
        from ._cext import solve_packed_c as kernel

    n_total = len(demand_sets)
    if n_total == 0:
        return []
    (packed_rows, offsets, comp_of, dnn_of, inflated, kernel_time, hol_k,
     weights) = _pack(demand_sets, num_dnns, platform)

    n_packed = len(packed_rows)
    num_comp = platform.num_components
    out_rates = np.zeros((n_packed, num_dnns))
    out_alloc = np.zeros(offsets[-1])
    out_eff = np.zeros_like(out_alloc)
    out_util = np.zeros((n_packed, num_comp))
    out_iters = np.zeros(n_packed, dtype=np.int64)
    out_conv = np.zeros(n_packed, dtype=np.uint8)
    if n_packed:
        kernel(offsets, comp_of, dnn_of, inflated, kernel_time, hol_k,
               weights, num_dnns, num_comp, max_iter, _DAMPING, _TOL,
               _CYCLE_WINDOW, _CYCLE_TOL, _CYCLE_BURN_IN,
               out_rates, out_alloc, out_eff, out_util, out_iters, out_conv)

    solutions: list[ContentionSolution] = \
        [None] * n_total  # type: ignore[list-item]
    bounds = offsets.tolist()
    iters = out_iters.tolist()
    conv = out_conv.tolist()
    for i, b in enumerate(packed_rows):
        s0, s1 = bounds[i], bounds[i + 1]
        solutions[b] = ContentionSolution(
            rates=out_rates[i].copy(),
            stage_allocations=out_alloc[s0:s1].copy(),
            stage_demands=out_eff[s0:s1].copy(),
            component_utilisation=out_util[i].copy(),
            iterations=iters[i],
            converged=bool(conv[i]),
        )
    if n_packed < n_total:
        for b in range(n_total):
            if solutions[b] is None:
                solutions[b] = _empty_solution(num_dnns, platform)
    return solutions


def solve_steady_state_batch(demand_sets: list[list[StageDemand]],
                             num_dnns: int, platform: Platform,
                             max_iter: int = _MAX_ITER,
                             ) -> list[ContentionSolution]:
    """Solve B mappings' fixed points on the host's solver.

    All mappings must cover the same workload (``num_dnns`` DNNs on
    ``platform``); they may have different stage counts, and empty
    demand sets answer with a zero-rate converged solution.  Runs the C
    kernel when it loads, else the numpy batch solver after a one-time
    :class:`RuntimeWarning` (see the module docstring).
    """
    if compiled_provider() is None:
        global _fallback_warned
        if not _fallback_warned:
            _fallback_warned = True
            warnings.warn(
                "compiled contention solver unavailable (the C kernel "
                "failed to build); falling back to the numpy solver",
                RuntimeWarning, stacklevel=2)
        return solve_batch_numpy(demand_sets, num_dnns, platform, max_iter)
    return solve_batch_compiled(demand_sets, num_dnns, platform, max_iter)
