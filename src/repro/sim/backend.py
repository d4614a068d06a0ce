"""Contention-solver backend switch: ``compiled`` (default) or ``numpy``.

The damped fixed point in :mod:`repro.sim.contention` is the innermost
hot loop of every plan/serve/fleet decision.  This module owns the
production entry point, :func:`solve_steady_state_batch`, which
dispatches on an explicit backend name that threads from
:func:`repro.sim.engine.simulate_batch` through the
:class:`repro.sim.cache.EvaluationCache` key and the scenario runner.

Backend names and contracts:

* ``"compiled"`` (:data:`DEFAULT_BACKEND`) — a native C kernel over
  CSR-packed flat arrays (``_csolver.c``, built on demand by
  :mod:`repro.sim._cext`) that follows the scalar oracle's exact
  operation order, so its float trajectory is bit-compatible; the
  differential suite (``tests/property/test_backend_equivalence.py``)
  additionally tolerates ``rel ≤ 1e-12`` on rates/utilisation to stay
  robust to compiler-scheduling differences across hosts, and requires
  identical convergence flags plus identical iteration counts on
  non-limit-cycle instances.
* ``"numpy"`` — the vectorized batch solver
  :func:`repro.sim.contention.solve_batch_numpy`, bit-identical to the
  scalar oracle kept under ``tests/`` (locked by
  ``tests/property/test_batch_equivalence.py``).

The compiled provider is probed lazily, once per process, on the first
compiled solve: ``"cext"`` when the host C compiler builds a loadable
library, else none — the call is then answered by the numpy batch path
after a one-time :class:`RuntimeWarning`, so results stay correct (and
identical) while the degradation is visible.
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
    "BACKENDS",
    "DEFAULT_BACKEND",
    "normalize_backend",
    "compiled_provider",
    "solve_batch_compiled",
    "solve_steady_state_batch",
]

BACKENDS = ("numpy", "compiled")
"""Recognised backend names, in documentation order."""

DEFAULT_BACKEND = "compiled"
"""Backend every solve uses unless a scenario or caller names another."""

_provider: str | None = None
_provider_probed = False
_fallback_warned = False


def normalize_backend(backend: str) -> str:
    """Validate a backend name, returning it unchanged.

    Raises :class:`ValueError` naming the accepted choices for anything
    outside :data:`BACKENDS` (including non-strings), so scenario
    loading and solver entry points reject typos loudly instead of
    silently running another backend.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown solver backend {backend!r}: choose from "
            + " | ".join(BACKENDS))
    return backend


def compiled_provider() -> str | None:
    """Name of the native provider backing ``compiled``, or ``None``.

    Probes at most once per process: ``"cext"`` if the on-demand C build
    produces a loadable library, else ``None`` (the compiled backend then
    falls back to numpy with a one-time warning).
    """
    global _provider, _provider_probed
    if _provider_probed:
        return _provider
    _provider_probed = True
    from . import _cext
    if _cext.load_solver() is not None:
        _provider = "cext"
    return _provider


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
                         impl=None) -> list[ContentionSolution]:
    """Solve a batch of mappings on the compiled backend.

    Same contract as :func:`solve_steady_state_batch`.  ``impl`` forces a
    kernel instead of the probed provider: ``"cext"``, or any callable
    with the packed kernel's signature (the differential suite passes
    its pure-python reference kernel this way).  With no provider
    available the call falls back to the numpy batch solver, warning
    once per process.
    """
    if impl is None:
        impl = compiled_provider()
        if impl is None:
            global _fallback_warned
            if not _fallback_warned:
                _fallback_warned = True
                warnings.warn(
                    "compiled solver backend unavailable (the C kernel "
                    "failed to build); falling back to the numpy backend",
                    RuntimeWarning, stacklevel=2)
            return solve_batch_numpy(demand_sets, num_dnns, platform,
                                     max_iter)
    if impl != "cext" and not callable(impl):
        raise ValueError(f"unknown compiled-kernel implementation {impl!r}")

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
        if impl == "cext":
            from ._cext import solve_packed_c as kernel
        else:
            kernel = impl
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
                             backend: str = DEFAULT_BACKEND,
                             ) -> list[ContentionSolution]:
    """Solve B mappings' fixed points on the named backend.

    All mappings must cover the same workload (``num_dnns`` DNNs on
    ``platform``); they may have different stage counts, and empty
    demand sets answer with a zero-rate converged solution.
    ``backend`` selects the implementation: ``"compiled"`` runs the
    native kernel (numpy fallback with a one-time warning when it is
    unavailable), ``"numpy"`` the vectorized
    :func:`repro.sim.contention.solve_batch_numpy`.  Unknown names raise
    :class:`ValueError`.
    """
    if normalize_backend(backend) == "compiled":
        return solve_batch_compiled(demand_sets, num_dnns, platform,
                                    max_iter)
    return solve_batch_numpy(demand_sets, num_dnns, platform, max_iter)
