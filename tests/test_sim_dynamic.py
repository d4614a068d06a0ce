"""Unit tests for the dynamic scenario engine."""

import numpy as np
import pytest

from repro.hw import orange_pi_5
from repro.mapping import gpu_only_mapping
from repro.sim import (
    MappingDecision,
    arrival,
    departure,
    priority_change,
    run_dynamic_scenario,
)
from repro.zoo import get_model

PLATFORM = orange_pi_5()


def gpu_planner(decision_seconds=0.0):
    """Trivial planner: everything on the GPU."""

    def plan(workload, priorities):
        return MappingDecision(gpu_only_mapping(workload), decision_seconds)

    return plan


class TestScenarioBasics:
    def test_single_arrival_runs_at_ideal(self):
        model = get_model("resnet50")
        tl = run_dynamic_scenario([arrival(0.0, model)], gpu_planner(),
                                  PLATFORM, horizon=100.0)
        assert tl.potential_at("resnet50", 50.0) == pytest.approx(1.0)
        assert tl.min_potential("resnet50") == pytest.approx(1.0)

    def test_empty_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_dynamic_scenario([], gpu_planner(), PLATFORM, 10.0)

    def test_arrival_lowers_existing_dnn(self):
        a, b = get_model("resnet50"), get_model("vgg16")
        tl = run_dynamic_scenario(
            [arrival(0.0, a), arrival(100.0, b)], gpu_planner(),
            PLATFORM, horizon=200.0,
        )
        before = tl.potential_at("resnet50", 50.0)
        after = tl.potential_at("resnet50", 150.0)
        assert after < before

    def test_departure_restores_throughput(self):
        a, b = get_model("resnet50"), get_model("vgg16")
        tl = run_dynamic_scenario(
            [arrival(0.0, a), arrival(100.0, b), departure(200.0, b)],
            gpu_planner(), PLATFORM, horizon=300.0,
        )
        shared = tl.potential_at("resnet50", 150.0)
        alone = tl.potential_at("resnet50", 250.0)
        assert alone > shared
        assert tl.potential_at("vgg16", 250.0) is None

    def test_decision_gap_blocks_new_arrival(self):
        a, b = get_model("resnet50"), get_model("vgg16")
        tl = run_dynamic_scenario(
            [arrival(0.0, a), arrival(100.0, b)], gpu_planner(30.0),
            PLATFORM, horizon=200.0,
        )
        # During the 30 s decision window the arriving DNN is idle.
        assert tl.potential_at("vgg16", 110.0) == 0.0
        assert tl.potential_at("vgg16", 150.0) > 0.0
        # The resident DNN keeps running on the old mapping.
        assert tl.potential_at("resnet50", 110.0) > 0.0

    def test_priority_event_triggers_replan(self):
        calls = []

        def recording_planner(workload, priorities):
            calls.append(np.array(priorities))
            return MappingDecision(gpu_only_mapping(workload))

        model = get_model("resnet50")
        run_dynamic_scenario(
            [arrival(0.0, model),
             priority_change(50.0, {"resnet50": 0.9})],
            recording_planner, PLATFORM, horizon=100.0,
        )
        assert len(calls) == 2
        assert calls[1][0] == pytest.approx(0.9)

    def test_events_sorted_automatically(self):
        a, b = get_model("resnet50"), get_model("mobilenet")
        tl = run_dynamic_scenario(
            [arrival(100.0, b), arrival(0.0, a)], gpu_planner(),
            PLATFORM, horizon=150.0,
        )
        assert tl.potential_at("mobilenet", 50.0) is None
        assert tl.potential_at("mobilenet", 120.0) > 0

    def test_malformed_events_rejected(self):
        with pytest.raises(ValueError):
            run_dynamic_scenario(
                [arrival(0.0, get_model("alexnet")),
                 priority_change(1.0, {})],
                gpu_planner(), PLATFORM, 10.0,
            )


class TestScenarioEdgeCases:
    def test_departure_of_never_admitted_model_is_noop(self):
        a = get_model("resnet50")
        tl = run_dynamic_scenario(
            [arrival(0.0, a), departure(50.0, get_model("vgg16"))],
            gpu_planner(), PLATFORM, horizon=100.0,
        )
        # The resident keeps running; the phantom model never appears.
        assert tl.potential_at("resnet50", 75.0) == pytest.approx(1.0)
        assert tl.potential_at("vgg16", 75.0) is None
        assert all("vgg16" not in seg.names for seg in tl.segments)

    def test_departure_from_empty_system(self):
        tl = run_dynamic_scenario(
            [departure(10.0, get_model("vgg16")),
             arrival(20.0, get_model("resnet50"))],
            gpu_planner(), PLATFORM, horizon=50.0,
        )
        assert tl.potential_at("resnet50", 40.0) == pytest.approx(1.0)

    def test_priority_event_for_absent_model_keeps_running(self):
        calls = []

        def recording_planner(workload, priorities):
            calls.append((tuple(m.name for m in workload),
                          np.array(priorities)))
            return MappingDecision(gpu_only_mapping(workload))

        a = get_model("resnet50")
        tl = run_dynamic_scenario(
            [arrival(0.0, a), priority_change(50.0, {"vgg16": 0.9})],
            recording_planner, PLATFORM, horizon=100.0,
        )
        # The absent model's priority is recorded but does not leak into
        # the active workload's vector, and the timeline is unaffected.
        assert len(calls) == 2
        assert calls[1][0] == ("resnet50",)
        assert calls[1][1][0] == pytest.approx(0.1)
        assert tl.potential_at("resnet50", 75.0) == pytest.approx(1.0)

    def test_coincident_events_produce_no_zero_length_segments(self):
        a, b = get_model("resnet50"), get_model("vgg16")
        tl = run_dynamic_scenario(
            [arrival(0.0, a), arrival(100.0, b), departure(100.0, a),
             priority_change(100.0, {"vgg16": 0.8})],
            gpu_planner(), PLATFORM, horizon=200.0,
        )
        assert all(seg.duration > 0 for seg in tl.segments)
        for prev, nxt in zip(tl.segments, tl.segments[1:]):
            assert prev.t_end == pytest.approx(nxt.t_start)
        # After the coincident batch only vgg16 remains.
        assert tl.potential_at("resnet50", 150.0) is None
        assert tl.potential_at("vgg16", 150.0) == pytest.approx(1.0)

    def test_event_at_horizon_boundary_ignored(self):
        a = get_model("resnet50")
        tl = run_dynamic_scenario(
            [arrival(0.0, a), arrival(150.0, get_model("vgg16"))],
            gpu_planner(), PLATFORM, horizon=100.0,
        )
        assert tl.segments[-1].t_end == pytest.approx(100.0)
        assert all("vgg16" not in seg.names for seg in tl.segments)

    def test_event_inside_decision_gap_waits_for_the_gap(self):
        """An arrival that lands inside a decision gap takes effect when
        the gap closes: segments tile the horizon without overlap."""
        tl = run_dynamic_scenario(
            [arrival(0.0, get_model("resnet50")),
             arrival(2.0, get_model("vgg16"))],
            gpu_planner(decision_seconds=5.0), PLATFORM, horizon=20.0,
        )
        assert tl.segments[0].t_start == 0.0
        for prev, nxt in zip(tl.segments, tl.segments[1:]):
            assert prev.t_end == nxt.t_start
        assert all(seg.duration > 0 for seg in tl.segments)
        assert sum(seg.duration for seg in tl.segments) \
            == pytest.approx(20.0)
        assert tl.segments[-1].t_end == 20.0


class TestTimelineQueries:
    def _timeline(self):
        a, b = get_model("resnet50"), get_model("vgg16")
        return run_dynamic_scenario(
            [arrival(0.0, a), arrival(100.0, b)], gpu_planner(),
            PLATFORM, horizon=200.0,
        )

    def test_series_has_nan_before_arrival(self):
        tl = self._timeline()
        times = np.array([50.0, 150.0])
        series = tl.potential_series("vgg16", times)
        assert np.isnan(series[0])
        assert series[1] > 0

    def test_time_average_throughput_positive(self):
        tl = self._timeline()
        assert tl.time_average_throughput() > 0

    def test_final_potentials_contains_both(self):
        tl = self._timeline()
        final = tl.final_potentials()
        assert set(final) == {"resnet50", "vgg16"}

    def test_segments_contiguous(self):
        tl = self._timeline()
        for prev, nxt in zip(tl.segments, tl.segments[1:]):
            assert prev.t_end == pytest.approx(nxt.t_start)
        assert tl.segments[-1].t_end == pytest.approx(200.0)
