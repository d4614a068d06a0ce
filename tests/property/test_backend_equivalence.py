"""Differential fuzz: the compiled solver kernel vs the scalar oracle.

Three layers of defence against silent drift in the compiled kernel:

* The **pure-python reference kernel** (`packed_kernel_oracle.solve_packed`,
  the line-for-line twin of the C kernel) is differential-tested
  bit-for-bit against the scalar oracle on every host — no compiled
  provider required, so the kernel's numerics can never go untested.
* The **resolved native provider** (the cc-built C twin) is
  held to the documented compiled-kernel contract — rel <= 1e-12 on
  rates and utilisation, identical convergence flags, identical
  iteration counts on non-limit-cycle instances — and skip-marks, never
  silently passes on the numpy fallback, when no provider exists.
* The **fallback path itself** is pinned: with no provider the solve
  entry point must answer with numpy's exact results after a one-time
  RuntimeWarning.

Randomized demand sets cover the edges the packer and kernel must get
right: empty elements mixed into batches, heterogeneous stage counts
(the padded-lane analogue), limit-cycle instances (long mixed workloads
driven past the burn-in), and truncated ``max_iter`` budgets.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import jetson_class, orange_pi_5
from repro.mapping import random_partition_mapping, uniform_block_mapping
from repro.sim import (
    compiled_provider,
    compute_stage_demands,
    solve_batch_compiled,
    solve_steady_state_batch,
)
from repro.sim import backend as backend_mod
from repro.sim.contention import _CYCLE_BURN_IN, solve_batch_numpy
from repro.zoo import get_model

from packed_kernel_oracle import solve_packed
from scalar_oracle import solve_steady_state

PLATFORMS = {"orange_pi_5": orange_pi_5(), "jetson_class": jetson_class()}
SMALL_POOL = ("alexnet", "squeezenet_v2", "mobilenet", "resnet12")
#: Mixes that reliably drive the fixed point into limit-cycle territory.
CYCLE_POOL = ("squeezenet_v2", "inception_v4", "resnet50")

COMPILED_TOL = dict(rtol=1e-12, atol=0.0)

PROVIDER = compiled_provider()
needs_provider = pytest.mark.skipif(
    PROVIDER is None,
    reason="no compiled provider (C build unavailable)")


def _demand_batch(pool, num_models, seed, batch_size, platform):
    rng = np.random.default_rng(seed)
    names = list(pool[:num_models])
    workload = [get_model(n) for n in names]
    sets = []
    for i in range(batch_size):
        maker = (random_partition_mapping if i % 2 == 0
                 else uniform_block_mapping)
        mapping = maker(workload, platform.num_components, rng)
        sets.append(compute_stage_demands(workload, mapping, platform))
    return workload, sets


def _assert_bit_identical(scalar, got):
    assert scalar.iterations == got.iterations
    assert scalar.converged == got.converged
    np.testing.assert_array_equal(got.rates, scalar.rates)
    np.testing.assert_array_equal(got.stage_allocations,
                                  scalar.stage_allocations)
    np.testing.assert_array_equal(got.stage_demands, scalar.stage_demands)
    np.testing.assert_array_equal(got.component_utilisation,
                                  scalar.component_utilisation)


def _assert_within_contract(scalar, got):
    """The documented compiled-kernel tolerance contract."""
    if scalar.iterations < _CYCLE_BURN_IN:
        assert scalar.iterations == got.iterations
    assert scalar.converged == got.converged
    np.testing.assert_allclose(got.rates, scalar.rates, **COMPILED_TOL)
    np.testing.assert_allclose(got.component_utilisation,
                               scalar.component_utilisation, **COMPILED_TOL)


class TestReferenceKernel:
    """The un-JITted kernel is bit-identical to the scalar oracle — the
    always-runnable anchor the native providers are twins of."""

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from(sorted(PLATFORMS)), st.integers(1, 4),
           st.integers(0, 2**31 - 1), st.integers(1, 5))
    def test_fuzz_bit_identical(self, platform_name, num_models, seed,
                                batch_size):
        platform = PLATFORMS[platform_name]
        workload, sets = _demand_batch(SMALL_POOL, num_models, seed,
                                       batch_size, platform)
        got = solve_batch_compiled(sets, len(workload), platform,
                                   kernel=solve_packed)
        for demands, sol in zip(sets, got):
            _assert_bit_identical(
                solve_steady_state(demands, len(workload), platform), sol)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([1, 3, 7, 40]))
    def test_truncated_budget_bit_identical(self, seed, max_iter):
        platform = PLATFORMS["orange_pi_5"]
        workload, sets = _demand_batch(SMALL_POOL, 3, seed, 3, platform)
        got = solve_batch_compiled(sets, len(workload), platform,
                                   max_iter=max_iter, kernel=solve_packed)
        for demands, sol in zip(sets, got):
            _assert_bit_identical(
                solve_steady_state(demands, len(workload), platform,
                                   max_iter=max_iter), sol)

    def test_limit_cycle_instances_bit_identical(self):
        platform = PLATFORMS["orange_pi_5"]
        workload, sets = _demand_batch(CYCLE_POOL, 3, 0, 16, platform)
        scalars = [solve_steady_state(d, len(workload), platform)
                   for d in sets]
        # The mix must actually exercise the cycle-resolution path.
        assert any(s.iterations >= _CYCLE_BURN_IN for s in scalars)
        got = solve_batch_compiled(sets, len(workload), platform,
                                   kernel=solve_packed)
        for scalar, sol in zip(scalars, got):
            _assert_bit_identical(scalar, sol)

    def test_empty_elements_mixed_in(self):
        platform = PLATFORMS["orange_pi_5"]
        workload, sets = _demand_batch(SMALL_POOL, 2, 1, 1, platform)
        got = solve_batch_compiled([[], sets[0], []], len(workload),
                                   platform, kernel=solve_packed)
        for sol in (got[0], got[2]):
            assert sol.converged and sol.iterations == 0
            assert sol.stage_allocations.size == 0
            np.testing.assert_array_equal(sol.rates,
                                          np.zeros(len(workload)))
        _assert_bit_identical(
            solve_steady_state(sets[0], len(workload), platform), got[1])

    def test_nonpositive_demand_rejected(self):
        platform = PLATFORMS["orange_pi_5"]
        _, sets = _demand_batch(SMALL_POOL, 2, 2, 1, platform)
        bad = sets[0][0].__class__(stage=sets[0][0].stage,
                                   seconds_per_inference=0.0,
                                   num_kernels=1)
        with pytest.raises(ValueError, match="must be positive"):
            solve_batch_compiled([[bad]], 2, platform, kernel=solve_packed)


@needs_provider
class TestNativeProvider:
    """The resolved native kernel honours the documented contract."""

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from(sorted(PLATFORMS)), st.integers(1, 4),
           st.integers(0, 2**31 - 1), st.integers(1, 6))
    def test_fuzz_within_contract(self, platform_name, num_models, seed,
                                  batch_size):
        platform = PLATFORMS[platform_name]
        workload, sets = _demand_batch(SMALL_POOL, num_models, seed,
                                       batch_size, platform)
        got = solve_batch_compiled(sets, len(workload), platform)
        for demands, sol in zip(sets, got):
            _assert_within_contract(
                solve_steady_state(demands, len(workload), platform), sol)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([1, 3, 7, 40]))
    def test_truncated_budget_within_contract(self, seed, max_iter):
        platform = PLATFORMS["orange_pi_5"]
        workload, sets = _demand_batch(SMALL_POOL, 3, seed, 3, platform)
        got = solve_batch_compiled(sets, len(workload), platform,
                                   max_iter=max_iter)
        for demands, sol in zip(sets, got):
            _assert_within_contract(
                solve_steady_state(demands, len(workload), platform,
                                   max_iter=max_iter), sol)

    def test_limit_cycle_and_padding_within_contract(self):
        """Limit-cycle instances with heterogeneous stage counts and
        empty elements mixed into one packed batch."""
        platform = PLATFORMS["orange_pi_5"]
        workload, sets = _demand_batch(CYCLE_POOL, 3, 0, 16, platform)
        sets = [[], *sets, []]
        scalars = [solve_steady_state(d, len(workload), platform)
                   for d in sets]
        assert any(s.iterations >= _CYCLE_BURN_IN for s in scalars)
        got = solve_batch_compiled(sets, len(workload), platform)
        for scalar, sol in zip(scalars, got):
            _assert_within_contract(scalar, sol)

    def test_backend_thread_through_batch_entry_point(self):
        """With a provider, the public entry point resolves to the same
        results as calling the compiled layer directly."""
        platform = PLATFORMS["orange_pi_5"]
        workload, sets = _demand_batch(SMALL_POOL, 2, 3, 4, platform)
        via_entry = solve_steady_state_batch(sets, len(workload), platform)
        direct = solve_batch_compiled(sets, len(workload), platform)
        for a, b in zip(via_entry, direct):
            np.testing.assert_array_equal(a.rates, b.rates)
            assert a.iterations == b.iterations


class TestFallback:
    """With no native provider the entry point degrades loudly."""

    def test_fallback_warns_once_and_matches_numpy(self, monkeypatch):
        platform = PLATFORMS["orange_pi_5"]
        workload, sets = _demand_batch(SMALL_POOL, 2, 5, 3, platform)
        monkeypatch.setattr(backend_mod, "compiled_provider", lambda: None)
        monkeypatch.setattr(backend_mod, "_fallback_warned", False)
        with pytest.warns(RuntimeWarning, match="falling back to the "
                                                "numpy solver"):
            got = solve_steady_state_batch(sets, len(workload), platform)
        want = solve_batch_numpy(sets, len(workload), platform)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.rates, b.rates)
            assert a.iterations == b.iterations
        # Second call: warning already issued, must stay quiet.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve_steady_state_batch(sets, len(workload), platform)
