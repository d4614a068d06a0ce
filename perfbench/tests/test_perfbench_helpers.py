"""Unit tests for the benchmark's own helpers (spans, probes, checks)."""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from perfbench.checks import check_fleet_report, check_serve_report
from perfbench.probes import PER_LAYER_METRICS, install_layer_probes, \
    layer_metrics
from perfbench.spans import Installer, SpanRecorder, percentile, \
    self_times, tail_percentile


def _ticking_recorder() -> SpanRecorder:
    ticks = itertools.count()
    return SpanRecorder(clock=lambda: float(next(ticks)))


# ---------------------------------------------------------------- percentile
@pytest.mark.parametrize("n, pct, rank", [
    (19, None, None),     # p50 would leave only 9 samples beyond it
    (20, 50.0, 10),
    (99, 50.0, 50),       # p90 is rank 90, leaving 9 beyond
    (100, 90.0, 90),
    (109, 90.0, 99),
    (1000, 99.0, 990),
    (10_010, 99.9, 10_000),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct, rank):
    samples = list(range(n, 0, -1))        # unsorted on purpose
    tail = tail_percentile(samples)
    assert tail.count == n
    assert tail.pct == pct
    assert tail.value == (None if rank is None else rank)
    if rank is not None:
        assert sum(1 for s in samples if s > tail.value) >= 10


@pytest.mark.parametrize("n", [20, 21, 37, 99])
def test_median_uses_the_tail_rule(n):
    samples = [float(i) for i in range(n, 0, -1)]
    tail = tail_percentile(samples)
    assert tail.pct == 50.0
    assert percentile(samples, 50.0) == tail.value
    assert percentile([], 50.0) is None


def test_tail_of_no_samples():
    tail = tail_percentile([])
    assert (tail.pct, tail.value, tail.count) == (None, None, 0)


# ------------------------------------------------------------------ self time
def test_self_time_subtracts_nested_children():
    rec = _ticking_recorder()
    a = rec.open("a")            # t=0
    b = rec.open("b")            # t=1
    c = rec.open("c")            # t=2
    rec.close(c)                 # t=3
    rec.close(b)                 # t=4
    d = rec.open("d")            # t=5
    rec.close(d)                 # t=6
    rec.close(a)                 # t=7
    assert list(rec.parent) == [-1, a, b, a]
    durations = rec.durations()
    assert durations == [7.0, 3.0, 1.0, 1.0]
    assert self_times(rec.parent, durations) == [3.0, 2.0, 1.0, 1.0]


def test_layer_metrics_self_time_and_same_name_nesting():
    rec = _ticking_recorder()
    run = rec.open("run")                        # 0
    loop = rec.open("serve.loop")                # 1
    outer = rec.open("serve.replan")             # 2
    inner = rec.open("serve.replan")             # 3  (cache wrapper -> inner)
    mcts = rec.open("search.mcts")               # 4
    pred = rec.open("predictor")                 # 5
    rec.close(pred)                              # 6
    rec.close(mcts)                              # 7
    rec.close(inner)                             # 8
    rec.close(outer)                             # 9
    rec.close(loop)                              # 10
    gap = rec.open("fleet.report")               # 11
    rec.close(gap)                               # 12
    rec.close(run)                               # 13
    rec.count("serve.loop.arrivals", 2.0)
    metrics = layer_metrics(rec, overhead_frac=0.25)
    assert list(metrics) == [name for name, _ in PER_LAYER_METRICS]
    # The re-entered replan span is counted once, with its outer duration.
    assert metrics["serve.replan.calls"] == 1.0
    assert metrics["serve.replan.busy_s"] == 7.0
    assert metrics["search.mcts.self_s"] == 2.0
    assert metrics["serve.loop.self_s"] == 2.0
    assert metrics["serve.loop.self_us_per_arrival"] == 1e6
    assert metrics["trace.run_s"] == 13.0
    assert metrics["trace.coverage_frac"] == 10.0 / 13.0
    assert metrics["trace.overhead_frac"] == 0.25


def test_closing_out_of_order_raises():
    rec = _ticking_recorder()
    outer = rec.open("a")
    rec.open("b")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def test_wrap_items_spans_each_item_and_counts_them():
    rec = _ticking_recorder()
    root = rec.open("run")
    assert list(rec.wrap_items(iter("xy"), "gen")) == ["x", "y"]
    rec.close(root)
    names = [rec.names[i] for i in rec.name_id]
    assert names == ["run", "gen", "gen", "gen"]   # two items + exhaustion
    assert list(rec.parent) == [-1, 0, 0, 0]
    assert rec.counts["gen.items"] == 2.0


# ----------------------------------------------------------------- installer
class _Base:
    def method(self):
        return "base"


class _Child(_Base):
    pass


def test_installer_restores_inherited_and_own_attributes():
    rec = _ticking_recorder()
    own = vars(_Base)["method"]
    installer = Installer()
    installer.install(_Child, "method", lambda fn: rec.wrap(fn, "m"))
    installer.install(_Base, "method", lambda fn: rec.wrap(fn, "m"))
    assert _Child().method() == "base"
    assert "method" in vars(_Child)
    installer.uninstall()
    assert "method" not in vars(_Child)
    assert vars(_Base)["method"] is own
    assert _Child.method is own
    assert installer.unrestored() == []


def test_uninstalling_layer_probes_restores_every_original():
    probe = install_layer_probes(SpanRecorder())
    targets = probe.targets
    probe.uninstall()
    assert len(targets) >= 20
    originals = {(id(owner), attr): vars(owner)[attr]
                 for owner, attr in targets}
    installer = install_layer_probes(SpanRecorder())
    try:
        for owner, attr in targets:
            assert vars(owner)[attr] is not originals[id(owner), attr], \
                f"{owner}.{attr} was not wrapped"
    finally:
        installer.uninstall()
    for owner, attr in targets:
        assert getattr(owner, attr) is originals[id(owner), attr], \
            f"{owner}.{attr} was not restored"
    assert installer.unrestored() == []


# ----------------------------------------------------------------- hostspeed
def test_host_speed_samples_and_restores_the_alarm_handler():
    import signal
    import time

    from perfbench.hostspeed import HostSpeed

    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed(interval_s=0.01) as speed:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.samples) >= 5
    assert speed.slowdown() > 0


# -------------------------------------------------------------------- checks
@pytest.fixture(scope="module")
def serve_report():
    from repro.runner import DynamicScenario, execute_dynamic_scenario

    spec = DynamicScenario(name="check", manager="baseline", seed=3,
                           horizon_s=3000.0, arrival_rate_per_s=0.05,
                           pool=("alexnet", "squeezenet", "mobilenet_v2"),
                           capacity=2)
    return execute_dynamic_scenario(spec).report


@pytest.fixture(scope="module")
def fleet():
    from repro.runner import (DynamicScenario, FleetScenario, ScenarioRunner,
                              sample_fleet_requests)

    nodes = tuple(DynamicScenario(name=f"n{i}", manager="baseline", seed=i,
                                  pool=("alexnet", "squeezenet"), capacity=2)
                  for i in range(3))
    spec = FleetScenario(name="fleet", nodes=nodes, routing="least_loaded",
                         seed=5, horizon_s=1200.0, arrival_rate_per_s=0.05,
                         fail_at=((1, 600.0),))
    report = ScenarioRunner(max_workers=1).run_fleet([spec])[0].report
    return report, len(sample_fleet_requests(spec))


def test_serve_checks_pass_on_a_real_report(serve_report):
    assert serve_report.arrivals > 20
    assert check_serve_report(serve_report) == []


def test_serve_conservation_fires_on_a_dropped_session(serve_report):
    corrupted = dataclasses.replace(serve_report,
                                    sessions=serve_report.sessions[:-2]
                                    + serve_report.sessions[-1:])
    assert any("0.." in p for p in check_serve_report(corrupted))


def test_serve_conservation_fires_on_an_unknown_outcome(serve_report):
    sessions = list(serve_report.sessions)
    sessions[0] = dataclasses.replace(sessions[0], outcome="vanished")
    corrupted = dataclasses.replace(serve_report, sessions=tuple(sessions))
    problems = check_serve_report(corrupted)
    assert any("unknown outcome" in p for p in problems)
    assert any("do not sum" in p for p in problems)


def test_serve_checks_fire_on_a_negative_amount(serve_report):
    sessions = list(serve_report.sessions)
    sessions[1] = dataclasses.replace(sessions[1], served_seconds=-1.0)
    corrupted = dataclasses.replace(serve_report, sessions=tuple(sessions))
    assert any("negative" in p for p in check_serve_report(corrupted))


def test_fleet_checks_pass_on_a_real_report(fleet):
    report, offered = fleet
    assert report.re_dispatched > 0
    assert check_fleet_report(report, offered) == []


def test_fleet_conservation_fires_on_a_lost_session(fleet):
    report, offered = fleet
    corrupted = dataclasses.replace(report, lost=report.lost + 1)
    assert any("offered" in p for p in check_fleet_report(corrupted, offered))
    assert check_fleet_report(report, offered + 1) != []


def test_fleet_conservation_fires_on_a_misrouted_node(fleet):
    report, offered = fleet
    nodes = list(report.nodes)
    nodes[0] = dataclasses.replace(nodes[0], routed=nodes[0].routed + 1)
    corrupted = dataclasses.replace(report, nodes=tuple(nodes),
                                    re_dispatched=report.re_dispatched + 1)
    assert any("were routed" in p
               for p in check_fleet_report(corrupted, offered))
