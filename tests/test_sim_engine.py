"""Unit tests for stage demands, the contention solver, and the simulator."""

import gc

import numpy as np
import pytest

from repro.hw import orange_pi_5, solo_throughput
from repro.mapping import Mapping, gpu_only_mapping, random_partition_mapping
from repro.sim import compute_stage_demands, simulate
from repro.zoo import get_model

PLATFORM = orange_pi_5()


def wl(*names):
    return [get_model(n) for n in names]


class TestStageDemands:
    def test_single_stage_demand_equals_model_latency(self):
        workload = wl("alexnet")
        demands = compute_stage_demands(workload, gpu_only_mapping(workload),
                                        PLATFORM)
        assert len(demands) == 1
        assert demands[0].seconds_per_inference == pytest.approx(
            1.0 / solo_throughput(workload[0], PLATFORM.gpu)
        )
        assert demands[0].num_kernels == workload[0].num_layers

    def test_split_adds_transfer_cost(self):
        workload = wl("alexnet")
        n = workload[0].num_blocks
        split = Mapping((tuple([0] * (n // 2) + [1] * (n - n // 2)),))
        demands = compute_stage_demands(workload, split, PLATFORM)
        assert len(demands) == 2
        whole = compute_stage_demands(workload, gpu_only_mapping(workload),
                                      PLATFORM)[0].seconds_per_inference
        # Stage demands on their own components include a handoff charge.
        gpu_part = demands[0].seconds_per_inference
        assert demands[1].seconds_per_inference > 0
        assert gpu_part < whole  # only half the blocks

    def test_same_component_split_has_no_transfer(self):
        workload = wl("alexnet")
        n = workload[0].num_blocks
        merged = compute_stage_demands(workload, gpu_only_mapping(workload),
                                       PLATFORM)
        # Same component for all blocks collapses to one stage regardless of
        # how the assignment tuple is written.
        again = compute_stage_demands(
            workload, Mapping((tuple([0] * n),)), PLATFORM
        )
        assert len(again) == len(merged) == 1

    def test_kernel_counts_per_stage(self):
        workload = wl("squeezenet_v2")
        n = workload[0].num_blocks
        split = Mapping((tuple([0] * 1 + [1] * (n - 1)),))
        demands = compute_stage_demands(workload, split, PLATFORM)
        assert sum(d.num_kernels for d in demands) == workload[0].num_layers


    def test_invalid_mapping_rejected_after_memo_warms(self):
        """Memo hits skip re-validation, so a mapping that only shares its
        valid DNNs with memoised ones must still be rejected."""
        workload = wl("alexnet", "mobilenet")
        good = gpu_only_mapping(workload)
        compute_stage_demands(workload, good, PLATFORM)
        bad_last = Mapping((good.assignments[0],
                            (PLATFORM.num_components,)
                            * workload[1].num_blocks))
        with pytest.raises(ValueError, match="out of range"):
            compute_stage_demands(workload, bad_last, PLATFORM)
        with pytest.raises(ValueError, match="covers 1 DNNs"):
            compute_stage_demands(workload, Mapping(good.assignments[:1]),
                                  PLATFORM)

    def test_demand_memo_lives_as_long_as_its_platform(self):
        from repro.sim import demands as demands_mod

        platform = orange_pi_5()
        workload = wl("alexnet")
        compute_stage_demands(workload, gpu_only_mapping(workload), platform)
        key = id(platform)
        assert key in demands_mod._TABLES
        del platform
        gc.collect()
        assert key not in demands_mod._TABLES


class TestSolverInvariants:
    def test_solo_dnn_reaches_ideal(self):
        workload = wl("resnet50")
        result = simulate(workload, gpu_only_mapping(workload), PLATFORM)
        assert result.rates[0] == pytest.approx(result.ideal_rates[0])
        assert result.potentials[0] == pytest.approx(1.0)

    def test_rates_positive_and_finite(self):
        workload = wl("squeezenet_v2", "inception_v4", "resnet50", "vgg16")
        rng = np.random.default_rng(5)
        for _ in range(25):
            m = random_partition_mapping(workload, 3, rng)
            result = simulate(workload, m, PLATFORM)
            assert np.isfinite(result.rates).all()
            assert (result.rates > 0).all()

    def test_component_utilisation_bounded(self):
        workload = wl("squeezenet_v2", "inception_v4", "resnet50", "vgg16")
        rng = np.random.default_rng(6)
        for _ in range(25):
            m = random_partition_mapping(workload, 3, rng)
            result = simulate(workload, m, PLATFORM)
            assert (result.solution.component_utilisation <= 1.0 + 1e-6).all()

    def test_solver_converges(self):
        workload = wl("squeezenet_v2", "inception_v4", "resnet50", "vgg16")
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = random_partition_mapping(workload, 3, rng)
            result = simulate(workload, m, PLATFORM)
            assert result.solution.converged

    def test_contention_slows_everyone(self):
        solo = simulate(wl("resnet50"), gpu_only_mapping(wl("resnet50")),
                        PLATFORM).rates[0]
        duo_wl = wl("resnet50", "vgg16")
        duo = simulate(duo_wl, gpu_only_mapping(duo_wl), PLATFORM)
        assert duo.rates[0] < solo

    def test_adding_a_dnn_never_helps_existing(self):
        three = wl("squeezenet_v2", "resnet50", "mobilenet")
        four = three + wl("vgg16")
        r3 = simulate(three, gpu_only_mapping(three), PLATFORM)
        r4 = simulate(four, gpu_only_mapping(four), PLATFORM)
        assert (r4.rates[:3] <= r3.rates * 1.01).all()

    def test_spreading_beats_stacking_on_gpu(self):
        workload = wl("squeezenet_v2", "resnet50")
        stacked = simulate(workload, gpu_only_mapping(workload), PLATFORM)
        spread = simulate(
            workload,
            Mapping((
                tuple([1] * workload[0].num_blocks),
                tuple([0] * workload[1].num_blocks),
            )),
            PLATFORM,
        )
        assert spread.average_throughput > stacked.average_throughput

    def test_empty_workload_mapping_rejected(self):
        with pytest.raises(ValueError):
            simulate([], Mapping(((0,),)), PLATFORM)


class TestSimResult:
    def test_average_throughput_is_paper_T(self):
        workload = wl("squeezenet_v2", "resnet50")
        result = simulate(workload, gpu_only_mapping(workload), PLATFORM)
        assert result.average_throughput == pytest.approx(result.rates.mean())

    def test_potentials_definition(self):
        workload = wl("squeezenet_v2", "resnet50")
        result = simulate(workload, gpu_only_mapping(workload), PLATFORM)
        np.testing.assert_allclose(result.potentials,
                                   result.rates / result.ideal_rates)

    def test_names_preserved(self):
        workload = wl("squeezenet_v2", "resnet50")
        result = simulate(workload, gpu_only_mapping(workload), PLATFORM)
        assert result.workload_names == ("squeezenet_v2", "resnet50")
        assert "squeezenet_v2" in repr(result)


class TestPaperMotivationShapes:
    """Sec. II key observations, reproduced on the simulated board."""

    @pytest.fixture(scope="class")
    def motivation(self):
        workload = wl("squeezenet_v2", "inception_v4", "resnet50", "vgg16")
        base = simulate(workload, gpu_only_mapping(workload), PLATFORM)
        rng = np.random.default_rng(0)
        results = [
            simulate(workload, random_partition_mapping(workload, 3, rng),
                     PLATFORM)
            for _ in range(150)
        ]
        return workload, base, results

    def test_most_random_mappings_beat_baseline(self, motivation):
        _, base, results = motivation
        frac = np.mean([
            r.average_throughput > base.average_throughput for r in results
        ])
        assert frac > 0.75  # paper: 91 %

    def test_significant_starvation_fraction(self, motivation):
        _, _, results = motivation
        frac = np.mean([(r.potentials < 0.02).any() for r in results])
        assert 0.15 < frac < 0.6  # paper: 30.2 %

    def test_inception_v4_has_lowest_mean_potential(self, motivation):
        workload, _, results = motivation
        mean_p = np.mean([r.potentials for r in results], axis=0)
        by_name = dict(zip([m.name for m in workload], mean_p))
        assert by_name["inception_v4"] == min(by_name.values())
        assert by_name["inception_v4"] < 0.2  # paper: ~0.1

    def test_majority_of_dnns_below_p02(self, motivation):
        _, _, results = motivation
        all_p = np.concatenate([r.potentials for r in results])
        assert (all_p <= 0.2).mean() > 0.6  # paper: > 60 %

    def test_high_max_p_costs_other_dnns(self, motivation):
        """Paper obs. 4: beyond P >= 0.6 somebody underperforms."""
        _, _, results = motivation
        mins = [r.potentials.min() for r in results
                if r.potentials.max() >= 0.6]
        assert mins and float(np.mean(mins)) < 0.1
