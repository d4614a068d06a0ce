"""Tests for the power/energy model and the power-aware RankMap extension."""

import math

import numpy as np
import pytest

from repro.core import OraclePredictor, PowerAwareRankMap, RankMap, RankMapConfig
from repro.hw import (
    ComponentPower,
    DvfsState,
    PlatformPower,
    dvfs_ladder,
    energy_report,
    inflated_component_utilisation,
    interference_inflation,
    node_watts_table,
    orange_pi_5,
    orange_pi_5_power,
)
from repro.mapping import (gpu_only_mapping, random_partition_mapping,
                           single_component_mapping)
from repro.search import MCTSConfig
from repro.sim import compute_stage_demands, simulate
from repro.zoo import get_model

PLATFORM = orange_pi_5()
POWER = orange_pi_5_power()
FAST_MCTS = MCTSConfig(iterations=25, rollouts_per_leaf=3)


def wl(*names):
    return [get_model(n) for n in names]


class TestComponentPower:
    def test_watts_monotone_in_utilisation(self):
        cp = ComponentPower("gpu", idle_w=0.3, dynamic_w=4.0)
        samples = [cp.watts(u) for u in (0.0, 0.25, 0.5, 1.0)]
        assert samples == sorted(samples)
        assert samples[0] == pytest.approx(0.3)
        assert samples[-1] == pytest.approx(4.3)

    def test_watts_clips_utilisation(self):
        cp = ComponentPower("gpu", idle_w=0.5, dynamic_w=2.0)
        assert cp.watts(-1.0) == pytest.approx(0.5)
        assert cp.watts(3.0) == pytest.approx(cp.watts(1.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            ComponentPower("x", idle_w=-0.1, dynamic_w=1.0)
        with pytest.raises(ValueError):
            ComponentPower("x", idle_w=0.1, dynamic_w=-1.0)
        with pytest.raises(ValueError):
            ComponentPower("x", idle_w=0.1, dynamic_w=1.0, util_exponent=0)

    @pytest.mark.parametrize("bad", [
        dict(idle_w=math.nan), dict(idle_w=math.inf),
        dict(dynamic_w=math.nan), dict(dynamic_w=math.inf),
        dict(util_exponent=math.nan),
    ])
    def test_non_finite_terms_rejected(self, bad):
        terms = dict(idle_w=0.1, dynamic_w=1.0, util_exponent=0.9)
        terms.update(bad)
        with pytest.raises(ValueError, match="finite"):
            ComponentPower("x", **terms)


class TestPlatformPower:
    def test_preset_matches_platform(self):
        assert POWER.matches(PLATFORM)

    def test_mismatch_detection(self):
        scrambled = PlatformPower(components=(
            ComponentPower("big", 0.3, 4.0),
            ComponentPower("gpu", 0.3, 4.5),
            ComponentPower("little", 0.15, 1.3),
        ))
        assert not scrambled.matches(PLATFORM)
        short = PlatformPower(components=(ComponentPower("gpu", 0.3, 4.0),))
        assert not short.matches(PLATFORM)

    def test_system_watts_includes_overhead(self):
        idle = POWER.system_watts(np.zeros(3))
        expected = POWER.board_overhead_w + sum(c.idle_w
                                                for c in POWER.components)
        assert idle == pytest.approx(expected)

    def test_system_watts_shape_check(self):
        with pytest.raises(ValueError):
            POWER.system_watts(np.zeros(2))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            PlatformPower(components=(ComponentPower("gpu", 0.1, 1.0),
                                      ComponentPower("gpu", 0.1, 1.0)))

    def test_negative_overhead_rejected(self):
        with pytest.raises(ValueError):
            PlatformPower(components=(ComponentPower("gpu", 0.1, 1.0),),
                          board_overhead_w=-1.0)

    @pytest.mark.parametrize("overhead", [math.nan, math.inf])
    def test_non_finite_overhead_rejected(self, overhead):
        with pytest.raises(ValueError, match="board_overhead_w"):
            PlatformPower(components=(ComponentPower("gpu", 0.1, 1.0),),
                          board_overhead_w=overhead)


class TestJetsonPowerPreset:
    def test_matches_jetson_platform(self):
        from repro.hw import jetson_class, jetson_class_power

        assert jetson_class_power().matches(jetson_class())
        # A Jetson-class module has a much bigger envelope than the
        # Orange Pi at full tilt.
        assert jetson_class_power().system_watts(np.ones(3)) > \
            POWER.system_watts(np.ones(3))

    def test_power_aware_manager_on_jetson(self):
        from repro.hw import jetson_class, jetson_class_power

        platform = jetson_class()
        manager = PowerAwareRankMap(
            platform, OraclePredictor(platform), jetson_class_power(),
            RankMapConfig(mode="dynamic", mcts=FAST_MCTS),
            objective="efficiency",
        )
        workload = wl("alexnet", "squeezenet")
        decision = manager.plan(workload)
        report = manager.measured_energy(workload, decision.mapping)
        assert report.inferences_per_joule > 0


class TestEnergyReport:
    def test_report_basic_accounting(self):
        workload = wl("alexnet", "squeezenet")
        mapping = gpu_only_mapping(workload)
        report = energy_report(workload, mapping, PLATFORM, POWER)
        assert report.system_watts > POWER.board_overhead_w
        assert report.total_throughput == pytest.approx(
            simulate(workload, mapping, PLATFORM).rates.sum(), rel=1e-9)
        assert report.inferences_per_joule > 0
        assert np.all(report.dnn_joules_per_inference > 0)

    def test_gpu_only_mapping_leaves_cpu_clusters_idle(self):
        workload = wl("alexnet")
        report = energy_report(workload, gpu_only_mapping(workload),
                               PLATFORM, POWER)
        # big/little draw exactly their idle watts.
        assert report.component_watts[1] == pytest.approx(
            POWER.components[1].idle_w)
        assert report.component_watts[2] == pytest.approx(
            POWER.components[2].idle_w)
        assert report.component_utilisation[1] == 0.0

    def test_little_mapping_draws_less_than_big(self):
        workload = wl("mobilenet")
        little = energy_report(workload,
                               single_component_mapping(workload, 2),
                               PLATFORM, POWER)
        big = energy_report(workload, single_component_mapping(workload, 1),
                            PLATFORM, POWER)
        assert little.system_watts < big.system_watts

    def test_heavier_dnn_costs_more_joules_per_inference(self):
        workload = wl("squeezenet", "vgg16")
        report = energy_report(workload, gpu_only_mapping(workload),
                               PLATFORM, POWER)
        by_name = dict(zip(report.workload_names,
                           report.dnn_joules_per_inference))
        assert by_name["vgg16"] > by_name["squeezenet"]

    def test_mismatched_power_model_rejected(self):
        workload = wl("alexnet")
        bad = PlatformPower(components=(ComponentPower("gpu", 0.1, 1.0),))
        with pytest.raises(ValueError, match="does not match"):
            energy_report(workload, gpu_only_mapping(workload), PLATFORM, bad)


class TestPowerAwareRankMap:
    def _manager(self, objective="penalty", power_weight=0.5, top_k=0):
        return PowerAwareRankMap(
            PLATFORM, OraclePredictor(PLATFORM), POWER,
            RankMapConfig(mode="dynamic", mcts=FAST_MCTS,
                          board_validation_top_k=top_k),
            objective=objective, power_weight=power_weight,
        )

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="objective"):
            self._manager(objective="carbon")
        with pytest.raises(ValueError):
            self._manager(power_weight=-1.0)
        bad_power = PlatformPower(
            components=(ComponentPower("gpu", 0.1, 1.0),))
        with pytest.raises(ValueError, match="does not match"):
            PowerAwareRankMap(PLATFORM, OraclePredictor(PLATFORM), bad_power)

    def test_plan_returns_valid_mapping(self):
        workload = wl("alexnet", "squeezenet")
        decision = self._manager().plan(workload)
        decision.mapping.validate_against(workload, PLATFORM.num_components)

    def test_no_starvation_with_power_objective(self):
        workload = wl("alexnet", "squeezenet", "resnet50")
        decision = self._manager(power_weight=2.0).plan(workload)
        result = simulate(workload, decision.mapping, PLATFORM)
        assert np.all(result.potentials > 0.02)

    def test_power_weight_trades_throughput_for_watts(self):
        """A strongly power-penalised plan must not draw more watts than
        the power-oblivious plan (same search budget and seed)."""
        workload = wl("alexnet", "squeezenet", "mobilenet")
        plain = RankMap(PLATFORM, OraclePredictor(PLATFORM),
                        RankMapConfig(mode="dynamic", mcts=FAST_MCTS))
        frugal = self._manager(power_weight=10.0)
        plain_watts = energy_report(
            workload, plain.plan(workload).mapping, PLATFORM, POWER
        ).system_watts
        frugal_watts = frugal.measured_energy(
            workload, frugal.plan(workload).mapping).system_watts
        assert frugal_watts <= plain_watts * 1.05

    def test_efficiency_objective_runs(self):
        workload = wl("alexnet", "squeezenet")
        manager = self._manager(objective="efficiency")
        decision = manager.plan(workload)
        report = manager.measured_energy(workload, decision.mapping)
        assert report.inferences_per_joule > 0

    def test_board_validation_uses_measured_power(self):
        workload = wl("alexnet", "squeezenet")
        manager = self._manager(top_k=3)
        decision = manager.plan(workload)
        decision.mapping.validate_against(workload, PLATFORM.num_components)
        # Board validation adds measurement windows to the modeled latency.
        assert decision.decision_seconds > 0

    def test_estimated_watts_matches_measured_at_true_rates(self):
        """Regression (search-vs-board power divergence): the search-side
        estimate now applies the same interference inflation the
        board-side :func:`energy_report` measures with, so at the
        simulator's true rates the two agree exactly — on a *contended*
        mapping, where the old inflation-free estimate diverged."""
        workload = wl("alexnet", "squeezenet", "mobilenet")
        mapping = random_partition_mapping(
            workload, PLATFORM.num_components, np.random.default_rng(3))
        manager = self._manager()
        rates = simulate(workload, mapping, PLATFORM).rates
        estimate = manager.estimated_watts(workload, mapping, rates)
        measured = manager.measured_energy(workload, mapping).system_watts
        assert estimate == pytest.approx(measured, rel=1e-9)

    def test_estimated_utilisation_matches_energy_report(self):
        """The shared inflation helper keeps the search's utilisation
        view and the board report's in lockstep, component by component."""
        workload = wl("alexnet", "squeezenet", "mobilenet")
        mapping = random_partition_mapping(
            workload, PLATFORM.num_components, np.random.default_rng(3))
        manager = self._manager()
        rates = simulate(workload, mapping, PLATFORM).rates
        estimated = manager.estimated_utilisation(workload, mapping, rates)
        report = manager.measured_energy(workload, mapping)
        np.testing.assert_allclose(
            estimated, report.component_raw_utilisation, rtol=1e-9)

    def test_oversubscribed_prediction_estimates_above_one(self):
        """Predicted rates are not feasibility-constrained: the raw
        estimate may exceed 1.0, and estimated_watts must clip it to the
        capacity draw rather than extrapolating past full utilisation."""
        workload = wl("alexnet", "squeezenet")
        mapping = gpu_only_mapping(workload)
        manager = self._manager()
        rates = simulate(workload, mapping, PLATFORM).rates * 5.0
        raw = manager.estimated_utilisation(workload, mapping, rates)
        assert raw.max() > 1.0
        capped = manager.estimated_watts(workload, mapping, rates)
        assert capped == pytest.approx(
            POWER.system_watts(np.clip(raw, 0.0, 1.0)))


class TestInterferenceHelpers:
    def test_inflation_matches_context_counts(self):
        workload = wl("alexnet", "squeezenet")
        demands = compute_stage_demands(workload, gpu_only_mapping(workload),
                                        PLATFORM)
        inflation = interference_inflation(PLATFORM, demands)
        # Two DNNs share the GPU; the CPU clusters host nothing.
        assert inflation[0] == pytest.approx(
            PLATFORM.component(0).interference_factor(2))
        assert inflation[1] == 1.0 and inflation[2] == 1.0

    def test_inflated_utilisation_sums_demand(self):
        workload = wl("alexnet")
        demands = compute_stage_demands(workload, gpu_only_mapping(workload),
                                        PLATFORM)
        rates = np.array([2.0])
        util = inflated_component_utilisation(demands, rates, PLATFORM)
        expected = 2.0 * sum(d.seconds_per_inference for d in demands)
        # A single context draws no interference penalty.
        assert util[0] == pytest.approx(expected)
        assert util[1] == 0.0 and util[2] == 0.0


class TestEnergyReportRawUtilisation:
    def test_raw_matches_clipped_when_feasible(self):
        workload = wl("alexnet", "squeezenet")
        report = energy_report(workload, gpu_only_mapping(workload),
                               PLATFORM, POWER)
        np.testing.assert_allclose(
            np.clip(report.component_raw_utilisation, 0.0, 1.0),
            report.component_utilisation)

    def test_priced_utilisation_never_exceeds_one(self):
        workload = wl("alexnet", "squeezenet", "resnet50", "vgg16")
        mapping = gpu_only_mapping(workload)
        report = energy_report(workload, mapping, PLATFORM, POWER)
        assert np.all(report.component_utilisation <= 1.0 + 1e-9)
        assert np.all(report.component_raw_utilisation
                      >= report.component_utilisation - 1e-12)


class TestInferencesPerJoule:
    def _report(self, throughput, watts):
        from repro.hw.energy import EnergyReport

        return EnergyReport(
            component_names=("gpu",),
            component_utilisation=np.zeros(1),
            component_raw_utilisation=np.zeros(1),
            component_watts=np.zeros(1),
            system_watts=watts,
            workload_names=("x",),
            rates=np.array([throughput]),
            dnn_joules_per_inference=np.zeros(1))

    def test_zero_throughput_is_zero_not_nan(self):
        assert self._report(0.0, 5.0).inferences_per_joule == 0.0

    def test_degenerate_watts_guarded(self):
        """Regression: watts <= 0 used to return inf — a starved power
        model must report zero efficiency, not infinite."""
        assert self._report(10.0, 0.0).inferences_per_joule == 0.0
        assert self._report(0.0, 0.0).inferences_per_joule == 0.0

    def test_normal_case_is_ratio(self):
        assert self._report(10.0, 5.0).inferences_per_joule \
            == pytest.approx(2.0)


class TestDvfs:
    def test_state_validation(self):
        with pytest.raises(ValueError, match="speed_multiplier"):
            DvfsState(speed_multiplier=0.0, power=POWER)
        with pytest.raises(ValueError, match="speed_multiplier"):
            DvfsState(speed_multiplier=1.2, power=POWER)

    def test_node_watts_monotone_in_occupancy(self):
        state = DvfsState(speed_multiplier=1.0, power=POWER)
        draws = [state.node_watts(u) for u in (0.0, 0.3, 0.7, 1.0)]
        assert draws == sorted(draws)
        assert draws[0] > 0.0        # idle + board overhead, not zero

    def test_ladder_validation(self):
        with pytest.raises(ValueError, match="start"):
            dvfs_ladder(POWER, (0.9, 0.5))
        with pytest.raises(ValueError, match="decrease"):
            dvfs_ladder(POWER, (1.0, 0.8, 0.8))
        with pytest.raises(ValueError):
            dvfs_ladder(POWER, ())

    def test_ladder_scales_dynamic_cubically(self):
        """Throttling follows the DVFS rule of thumb: dynamic power
        drops with the cube of the clock, idle linearly, the board
        overhead not at all."""
        ladder = dvfs_ladder(POWER, (1.0, 0.5))
        nominal, throttled = ladder
        assert nominal.power == POWER
        for base, scaled in zip(POWER.components,
                                throttled.power.components):
            assert scaled.dynamic_w == pytest.approx(base.dynamic_w * 0.125)
            assert scaled.idle_w == pytest.approx(base.idle_w * 0.5)
            assert scaled.util_exponent == base.util_exponent
        assert throttled.power.board_overhead_w \
            == pytest.approx(POWER.board_overhead_w)

    def test_throttled_state_draws_less(self):
        full = DvfsState(speed_multiplier=1.0, power=POWER)
        ladder = dvfs_ladder(POWER, (1.0, 0.6))
        for occupancy in (0.0, 0.5, 1.0):
            assert ladder[1].node_watts(occupancy) \
                < full.node_watts(occupancy)

    def test_watts_table_needs_a_slot(self):
        with pytest.raises(ValueError, match="capacity"):
            node_watts_table(dvfs_ladder(POWER), 0)
