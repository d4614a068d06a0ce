"""Property tests: the batched contention solver is equivalent to the
scalar reference over arbitrary workloads and mapping batches.

This is the regression harness locking in the tentpole guarantee: the fast
path (``solve_steady_state_batch`` / ``simulate_batch``) must match the
paper-faithful scalar fixed point to 1e-9 — including non-converged
mappings (tiny ``max_iter``), limit-cycle resolutions, heterogeneous stage
counts inside one batch, and empty demand sets.

Every test is parametrized over the two solvers: ``numpy`` runs the
vectorized fallback (the seed contract) directly, or the public entry
points with the compiled provider patched away, and ``compiled`` runs the
production entry point on the native kernel.  The compiled rows
skip-mark — never silently pass on the numpy fallback — when no native
provider (the cc-built C twin) is available on the host.  The scalar
reference is the oracle kept beside the tests (``scalar_oracle.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import jetson_class, orange_pi_5
from repro.mapping import random_partition_mapping, uniform_block_mapping
from repro.sim import (
    compiled_provider,
    compute_stage_demands,
    simulate,
    simulate_batch,
    solve_steady_state_batch,
)
from repro.sim import backend as backend_mod
from repro.sim.contention import _CYCLE_BURN_IN, solve_batch_numpy
from repro.zoo import get_model

from scalar_oracle import solve_steady_state

PLATFORMS = {"orange_pi_5": orange_pi_5(), "jetson_class": jetson_class()}
SMALL_POOL = ("alexnet", "squeezenet_v2", "mobilenet", "resnet12")

TOL = dict(rtol=1e-9, atol=1e-9)
#: Documented compiled-kernel tolerance on rates/utilisation.
COMPILED_TOL = dict(rtol=1e-12, atol=0.0)

SOLVERS = [
    pytest.param(solve_batch_numpy, id="numpy"),
    pytest.param(solve_steady_state_batch, id="compiled",
                 marks=pytest.mark.skipif(
                     compiled_provider() is None,
                     reason="no compiled provider (C build unavailable); "
                            "the entry point would run the numpy fallback "
                            "and must not pass as 'compiled'")),
]


def workload_strategy():
    return st.lists(st.sampled_from(SMALL_POOL), min_size=1, max_size=3,
                    unique=True)


def _mapping_batch(workload, num_components, seed, size):
    """Half coherent partition mappings, half fragmented uniform ones, so
    batches mix short and long stage lists."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(size):
        maker = (random_partition_mapping if i % 2 == 0
                 else uniform_block_mapping)
        out.append(maker(workload, num_components, rng))
    return out


def _assert_equivalent(scalar, batch, solver=solve_batch_numpy):
    """Per-solver tolerance contract against the scalar oracle.

    ``numpy`` keeps the seed contract: identical iteration counts and
    flags, values to 1e-9.  ``compiled`` pins rates/utilisation to
    rel <= 1e-12 with identical convergence flags; iteration counts are
    required identical only on non-limit-cycle instances (below the
    burn-in), where compiler-scheduling noise cannot move the stopping
    iteration.
    """
    numpy = solver is solve_batch_numpy
    if numpy or scalar.iterations < _CYCLE_BURN_IN:
        assert scalar.iterations == batch.iterations
    assert scalar.converged == batch.converged
    tol = TOL if numpy else COMPILED_TOL
    np.testing.assert_allclose(batch.rates, scalar.rates, **tol)
    np.testing.assert_allclose(batch.component_utilisation,
                               scalar.component_utilisation, **tol)
    np.testing.assert_allclose(batch.stage_allocations,
                               scalar.stage_allocations, **TOL)
    np.testing.assert_allclose(batch.stage_demands,
                               scalar.stage_demands, **TOL)


@pytest.mark.parametrize("solver", SOLVERS)
@settings(max_examples=20, deadline=None)
@given(workload_strategy(), st.sampled_from(sorted(PLATFORMS)),
       st.integers(0, 2**31 - 1), st.integers(1, 6))
def test_batch_matches_scalar(solver, names, platform_name, seed,
                              batch_size):
    platform = PLATFORMS[platform_name]
    workload = [get_model(n) for n in names]
    mappings = _mapping_batch(workload, platform.num_components, seed,
                              batch_size)
    demand_sets = [compute_stage_demands(workload, m, platform)
                   for m in mappings]
    batch = solver(demand_sets, len(workload), platform)
    assert len(batch) == batch_size
    for demands, sol in zip(demand_sets, batch):
        _assert_equivalent(
            solve_steady_state(demands, len(workload), platform), sol,
            solver)


@pytest.mark.parametrize("solver", SOLVERS)
@settings(max_examples=15, deadline=None)
@given(workload_strategy(), st.integers(0, 2**31 - 1),
       st.integers(1, 4), st.sampled_from([1, 3, 7, 40]))
def test_batch_matches_scalar_non_converged(solver, names, seed,
                                            batch_size, max_iter):
    """Truncated budgets: per-mapping iteration masking must freeze every
    element exactly where the scalar loop stops."""
    platform = PLATFORMS["orange_pi_5"]
    workload = [get_model(n) for n in names]
    mappings = _mapping_batch(workload, platform.num_components, seed,
                              batch_size)
    demand_sets = [compute_stage_demands(workload, m, platform)
                   for m in mappings]
    batch = solver(demand_sets, len(workload), platform, max_iter=max_iter)
    for demands, sol in zip(demand_sets, batch):
        _assert_equivalent(
            solve_steady_state(demands, len(workload), platform,
                               max_iter=max_iter), sol, solver)


@pytest.mark.parametrize("solver", SOLVERS)
def test_empty_demand_sets_mixed_into_batch(solver):
    platform = PLATFORMS["orange_pi_5"]
    workload = [get_model("alexnet"), get_model("mobilenet")]
    mapping = uniform_block_mapping(workload, platform.num_components,
                                    np.random.default_rng(0))
    demands = compute_stage_demands(workload, mapping, platform)
    batch = solver([[], demands, []], len(workload), platform)
    for sol in (batch[0], batch[2]):
        assert sol.converged
        assert sol.iterations == 0
        assert sol.stage_allocations.size == 0
        np.testing.assert_array_equal(sol.rates, np.zeros(len(workload)))
    _assert_equivalent(solve_steady_state(demands, len(workload), platform),
                       batch[1], solver)


@pytest.mark.parametrize("solver", SOLVERS)
def test_all_empty_and_zero_batches(solver):
    platform = PLATFORMS["orange_pi_5"]
    assert solver([], 2, platform) == []
    batch = solver([[], []], 2, platform)
    assert len(batch) == 2 and all(s.converged for s in batch)


@pytest.mark.parametrize("solver", SOLVERS)
def test_cycle_resolved_mappings_match(solver):
    """A batch known to contain non-trivial convergence behaviour (long
    fixed points and the 800-iteration cap) stays equivalent."""
    platform = PLATFORMS["orange_pi_5"]
    workload = [get_model(n)
                for n in ("squeezenet_v2", "inception_v4", "resnet50")]
    rng = np.random.default_rng(0)
    mappings = [random_partition_mapping(workload, 3, rng)
                for _ in range(16)]
    demand_sets = [compute_stage_demands(workload, m, platform)
                   for m in mappings]
    scalars = [solve_steady_state(d, len(workload), platform)
               for d in demand_sets]
    assert {s.iterations for s in scalars} != {1}  # non-trivial runs
    for scalar, sol in zip(
            scalars, solver(demand_sets, len(workload), platform)):
        _assert_equivalent(scalar, sol, solver)


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.filterwarnings("ignore:compiled contention solver unavailable")
def test_simulate_batch_matches_simulate(solver, monkeypatch):
    if solver is solve_batch_numpy:
        # The public entry points as on a host without a C compiler.
        monkeypatch.setattr(backend_mod, "compiled_provider", lambda: None)
    platform = PLATFORMS["orange_pi_5"]
    workload = [get_model(n) for n in ("alexnet", "resnet12")]
    mappings = _mapping_batch(workload, platform.num_components, 5, 6)
    batch = simulate_batch(workload, mappings, platform)
    tol = TOL if solver is solve_batch_numpy else COMPILED_TOL
    for mapping, got in zip(mappings, batch):
        want = simulate(workload, mapping, platform)
        np.testing.assert_allclose(got.rates, want.rates, **tol)
        np.testing.assert_allclose(got.ideal_rates, want.ideal_rates, **TOL)
        assert got.workload_names == want.workload_names
    assert simulate_batch(workload, [], platform) == []


def test_unknown_backend_rejected():
    """The entry point has no backend knob: naming one fails loudly
    instead of silently running whichever solver the host has."""
    platform = PLATFORMS["orange_pi_5"]
    with pytest.raises(TypeError):
        solve_steady_state_batch([[]], 1, platform, backend="fortran")
