"""Micro-benchmarks of the performance-critical kernels.

These are the hot paths of the reproduction: the steady-state contention
solver (called for every evaluated mapping), Q-tensor assembly, estimator
forward pass, VQ-VAE encoding, and one MCTS planning step.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import OraclePredictor, RankMap, RankMapConfig
from repro.estimator import EstimatorConfig, ThroughputEstimator
from repro.hw import orange_pi_5
from repro.mapping import (
    build_q_tensor,
    random_partition_mapping,
    uniform_block_mapping,
)
from repro.search import MCTSConfig
from repro.sim import (
    EvaluationCache,
    compiled_provider,
    compute_stage_demands,
    simulate,
    simulate_batch,
    solve_batch_compiled,
)
from repro.sim.contention import solve_batch_numpy
from repro.vqvae import EmbeddingCache, LayerVQVAE
from repro.zoo import get_model

PLATFORM = orange_pi_5()
WORKLOAD = [get_model(n)
            for n in ("squeezenet_v2", "inception_v4", "resnet50", "vgg16")]


@pytest.fixture(scope="module")
def mappings():
    rng = np.random.default_rng(0)
    return [random_partition_mapping(WORKLOAD, 3, rng) for _ in range(16)]


@pytest.fixture(scope="module")
def rollout_mappings():
    """Fragmented per-block assignments — the distribution MCTS rollouts
    actually feed the evaluator, and the batch path's target workload."""
    rng = np.random.default_rng(0)
    return [uniform_block_mapping(WORKLOAD, 3, rng) for _ in range(16)]


def test_bench_simulator_solve(benchmark, mappings):
    simulate(WORKLOAD, mappings[0], PLATFORM)  # warm latency caches
    it = iter(range(10**9))

    def step():
        return simulate(WORKLOAD, mappings[next(it) % len(mappings)], PLATFORM)

    benchmark(step)


_NEEDS_COMPILED = pytest.mark.skipif(
    compiled_provider() is None,
    reason="no compiled solver provider (no C compiler) on this host")

#: ``1``/``4``/``16`` time ``simulate_batch`` end to end on the host's
#: solver; ``compiled-*`` and ``numpy-16`` time one solver alone on the
#: same mappings' precomputed demands.
_SOLVE_BATCH_PARAMS = [
    pytest.param("simulate", 1, id="1"),
    pytest.param("simulate", 4, id="4"),
    pytest.param("simulate", 16, id="16"),
    pytest.param("compiled", 1, id="compiled-1", marks=_NEEDS_COMPILED),
    pytest.param("compiled", 4, id="compiled-4", marks=_NEEDS_COMPILED),
    pytest.param("compiled", 16, id="compiled-16", marks=_NEEDS_COMPILED),
    pytest.param("numpy", 16, id="numpy-16"),
]


@pytest.mark.parametrize("path, batch", _SOLVE_BATCH_PARAMS)
def test_bench_simulator_solve_batch(benchmark, rollout_mappings, path,
                                     batch):
    """Batch-size sweep of the contention solve.

    The bare rows time ``simulate_batch`` (demands + solve + reports) on
    the host's solver.  ``compiled-*`` time the C kernel alone,
    :func:`repro.sim.solve_batch_compiled`, and ``numpy-16`` the
    no-compiler fallback, :func:`repro.sim.contention.solve_batch_numpy`,
    on the same mappings' demands.  Acceptance: ``compiled-16`` beats
    ``numpy-16`` by >= 5x (both rows land in ``BENCH_history.jsonl`` and
    are guarded by ``record_bench.py``).
    """
    subset = rollout_mappings[:batch]
    # Warm the latency caches and the solver: the first solve of a
    # process pays the C kernel's build.
    simulate_batch(WORKLOAD, subset, PLATFORM)
    demand_sets = [compute_stage_demands(WORKLOAD, m, PLATFORM)
                   for m in subset]
    if path == "compiled":
        result = benchmark(lambda: solve_batch_compiled(
            demand_sets, len(WORKLOAD), PLATFORM))
    elif path == "numpy":
        result = benchmark(lambda: solve_batch_numpy(
            demand_sets, len(WORKLOAD), PLATFORM))
    else:
        result = benchmark(lambda: simulate_batch(WORKLOAD, subset,
                                                  PLATFORM))
    assert len(result) == batch


def test_bench_simulator_solve_scalar16(benchmark, rollout_mappings):
    """Scalar comparison row for the batch-of-16 sweep: the same 16
    mappings through 16 ``simulate`` calls (acceptance: batch >= 3x)."""
    simulate(WORKLOAD, rollout_mappings[0], PLATFORM)

    def step():
        return [simulate(WORKLOAD, m, PLATFORM) for m in rollout_mappings]

    benchmark(step)


def test_bench_cached_reevaluation(benchmark, rollout_mappings):
    """Re-scoring a batch the cache has already solved (relaxation-retry
    and repeated-plan hot path)."""
    cache = EvaluationCache(PLATFORM)
    cache.simulate(WORKLOAD, rollout_mappings)  # prime

    benchmark(lambda: cache.simulate(WORKLOAD, rollout_mappings))
    assert cache.hits >= len(rollout_mappings)
    assert cache.misses == len(rollout_mappings)


def test_bench_q_tensor_assembly(benchmark, mappings):
    vqvae = LayerVQVAE(np.random.default_rng(0))
    embedder = EmbeddingCache(vqvae)
    embeddings = embedder.for_workload(WORKLOAD)

    benchmark(lambda: build_q_tensor(WORKLOAD, mappings[0], embeddings,
                                     3, 5, 96))


def test_bench_estimator_forward(benchmark):
    model = ThroughputEstimator(np.random.default_rng(0), EstimatorConfig())
    q = np.random.default_rng(1).normal(
        size=(8, 5, 96, 48)).astype(np.float32)
    benchmark(lambda: model.predict_log_rates(q))


@pytest.mark.parametrize("mode", ["scalar", "batch"])
def test_bench_estimator_predict(benchmark, mode, rollout_mappings):
    """Learned-path candidate scoring: looped single-mapping ``predict``
    calls vs one fused ``predict_batch`` over the same 16-candidate
    roster (full-size estimator, the serving stack's hot path when
    ``DynamicScenario.predictor == "estimator"``).

    The scalar row pays 16 Q assemblies and 16 batch-1 forward passes;
    the batch row pays one fused assembly
    (``build_q_tensor_batch``) and a single batch-16 forward.
    Acceptance: the batch row is measurably faster on batch >= 8 — the
    two rows land side by side in ``BENCH_history.jsonl`` for that
    comparison, and ``record_bench.py``'s guard flags either row
    slowing >25% against its own previous entry.
    """
    from repro.core import EstimatorPredictor

    model = ThroughputEstimator(np.random.default_rng(0), EstimatorConfig())
    embedder = EmbeddingCache(LayerVQVAE(np.random.default_rng(0)))
    predictor = EstimatorPredictor(model, embedder)
    predictor.predict_batch(WORKLOAD, rollout_mappings[:1])  # warm embeddings

    if mode == "scalar":
        def step():
            return np.concatenate(
                [predictor.predict(WORKLOAD, [m]) for m in rollout_mappings])
    else:
        def step():
            return predictor.predict_batch(WORKLOAD, rollout_mappings)

    rates = benchmark(step)
    assert rates.shape == (len(rollout_mappings), len(WORKLOAD))
    assert (rates >= 0).all()


def test_bench_vqvae_embed(benchmark):
    vqvae = LayerVQVAE(np.random.default_rng(0))
    model = get_model("resnet50")
    benchmark(lambda: vqvae.embed_model(model))


def test_bench_rankmap_plan_oracle(benchmark):
    manager = RankMap(
        PLATFORM, OraclePredictor(PLATFORM),
        RankMapConfig(mode="dynamic",
                      mcts=MCTSConfig(iterations=15, rollouts_per_leaf=2)),
    )
    benchmark.pedantic(lambda: manager.plan(WORKLOAD), rounds=2, iterations=1)


def test_bench_block_latency_model(benchmark):
    from repro.hw.latency import model_latency

    model = get_model("inception_v4")
    comp = PLATFORM.components[0]
    benchmark(lambda: model_latency(model, comp))


def test_bench_des_run(benchmark, mappings):
    """One discrete-event execution of a 4-DNN mapping (10 s horizon)."""
    from repro.sim import DesConfig, simulate_des

    config = DesConfig(horizon_s=10.0, warmup_s=2.0)
    it = iter(range(10**9))

    def step():
        return simulate_des(WORKLOAD, mappings[next(it) % len(mappings)],
                            PLATFORM, config)

    benchmark(step)


def test_bench_energy_report(benchmark, mappings):
    """Full power/energy accounting of one mapping."""
    from repro.hw import energy_report, orange_pi_5_power

    power = orange_pi_5_power()
    it = iter(range(10**9))

    def step():
        return energy_report(WORKLOAD, mappings[next(it) % len(mappings)],
                             PLATFORM, power)

    benchmark(step)


def test_bench_poisson_trace(benchmark):
    """Sampling a 1-hour edge-data-center session trace."""
    from repro.workloads import TraceConfig, poisson_trace

    config = TraceConfig(horizon_s=3600.0, arrival_rate_per_s=1 / 30)
    it = iter(range(10**9))

    def step():
        return poisson_trace(np.random.default_rng(next(it)), config)

    benchmark(step)


@pytest.mark.parametrize("routing", ["round_robin", "least_loaded",
                                     "tier_affinity"])
def test_bench_fleet_dispatch(benchmark, routing):
    """Fleet dispatch planning: routing a 1-hour aggregate trace across a
    6-node heterogeneous fleet (with one mid-run failure to drain).

    This is the cluster layer's pure-dispatch hot path — no serving, no
    solver — so it bounds how fast ``ScenarioRunner.run_fleet`` can fan
    nodes out.  The three rows expose the per-policy routing overhead on
    identical demand.
    """
    from repro.serve.fleet import NodeSpec, plan_dispatch
    from repro.workloads import TraceConfig, sample_session_requests

    config = TraceConfig(horizon_s=3600.0, arrival_rate_per_s=1 / 4,
                         mean_session_s=90.0)
    requests = sample_session_requests(np.random.default_rng(0), config)
    nodes = [NodeSpec(name=f"n{i}", capacity=4, speed=1.0 + 0.5 * i,
                      fail_at_s=(1800.0 if i == 0 else None))
             for i in range(6)]

    plan = benchmark(lambda: plan_dispatch(requests, nodes, routing, 3600.0))
    assert sum(plan.routed) >= len(requests)


@pytest.mark.parametrize("preemption", ["none", "evict_lowest_tier",
                                        "renegotiate"])
def test_bench_serve_preempt(benchmark, preemption):
    """Serving-loop overhead of the preemption policies on one node.

    Serves a fixed saturating 600 s Poisson trace (arrival rate 1/10 s
    against capacity 2) end to end through each preemption policy, with
    the replan layer pinned to the trivial GPU-only manager and a shared
    pre-warmed evaluation cache — so the three rows isolate what the
    admission-side preemption machinery (victim selection, suspend /
    resume bookkeeping, extra replans) costs on top of the baseline
    accept/queue/reject loop.
    """
    from repro.baselines import GpuBaseline
    from repro.serve import AdmissionConfig, FullReplan, ServeConfig, serve_trace
    from repro.workloads import TraceConfig, sample_session_requests

    pool = ("alexnet", "squeezenet", "mobilenet_v2", "shufflenet")
    # Silver-heavy demand: silver sits strictly between gold and the
    # ladder floor, so both eviction and renegotiation find victims.
    requests = sample_session_requests(
        np.random.default_rng(0),
        TraceConfig(horizon_s=600.0, arrival_rate_per_s=1 / 10,
                    mean_session_s=140.0, pool=pool),
        tiers=("gold", "silver", "silver"))
    config = ServeConfig(
        horizon_s=600.0,
        admission=AdmissionConfig(capacity=2, queue_limit=6,
                                  max_queue_wait_s=120.0,
                                  preemption=preemption),
        pool=pool, seed=0)
    cache = EvaluationCache(PLATFORM)
    policy = FullReplan(GpuBaseline())
    serve_trace(requests, policy, PLATFORM, config, cache=cache)  # warm

    report = benchmark(lambda: serve_trace(requests, policy, PLATFORM,
                                           config, cache=cache))
    assert report.arrivals == len(requests)
    if preemption == "evict_lowest_tier":
        assert report.evictions > 0
        # Acceptance: preemption strictly improves gold under saturation.
        baseline = serve_trace(
            requests, policy, PLATFORM,
            ServeConfig(horizon_s=600.0,
                        admission=AdmissionConfig(
                            capacity=2, queue_limit=6,
                            max_queue_wait_s=120.0, preemption="none"),
                        pool=pool, seed=0),
            cache=cache)
        assert report.tier_violation_fraction("gold") \
            < baseline.tier_violation_fraction("gold")
    elif preemption == "renegotiate":
        assert report.demotions > 0


@pytest.mark.parametrize("policy_key, cold", [
    pytest.param("full", False, id="full"),
    pytest.param("warm", False, id="warm"),
    pytest.param("cache", False, id="cache"),
    pytest.param("full", True, id="full-compiled", marks=_NEEDS_COMPILED),
])
def test_bench_serve_replan(benchmark, policy_key, cold):
    """Serve-path replan decision: full search vs warm start vs plan-cache.

    Measures one replan after an arrival extends a 3-DNN incumbent to 4
    DNNs — the serving loop's hot path.  All three policies share the
    evaluation-cache substrate, so the spread is pure policy overhead:
    the full tree search, the handful of warm-start candidate
    evaluations, or the O(1) plan-cache lookup.  The modeled on-board
    decision latency must shrink in the same order (asserted below),
    which is what turns into re-mapping gap time online.  The
    ``full-compiled`` row repeats the full search on an emptied
    evaluation cache each round, so every candidate is a first-touch
    solve on the compiled contention kernel: the cold replan the kernel
    exists to speed up.
    """
    from repro.serve import build_replan_policy

    cache = EvaluationCache(PLATFORM)
    manager = RankMap(
        PLATFORM, OraclePredictor(PLATFORM, cache=cache),
        RankMapConfig(mode="dynamic",
                      mcts=MCTSConfig(iterations=20, rollouts_per_leaf=2)),
    )
    policy = build_replan_policy(policy_key, manager)
    resident = [get_model(n) for n in ("squeezenet_v2", "resnet50", "vgg16")]
    workload = resident + [get_model("mobilenet")]

    first = policy.replan(resident, None, None)          # build the incumbent
    incumbent = (tuple(m.name for m in resident), first.mapping)
    policy.replan(workload, None, incumbent)             # prime plan cache

    def replan():
        if cold:
            cache.clear()
        return policy.replan(workload, None, incumbent)

    outcome = benchmark(replan)

    full_modeled = (manager.config.mcts.total_evaluations
                    * manager.predictor.board_latency_per_eval)
    if policy_key == "full":
        assert outcome.kind == "full"
        assert outcome.decision_seconds == pytest.approx(full_modeled)
    elif policy_key == "warm":
        assert outcome.kind == "warm"
        assert outcome.decision_seconds < 0.25 * full_modeled
    else:
        assert outcome.kind == "cache_hit"
        assert outcome.decision_seconds == 0.0


_SCALE_WALL: dict[int, float] = {}  # n -> (wall seconds, arrivals)


@pytest.mark.parametrize("n", [1_000, 100_000, 1_000_000],
                         ids=["1e3", "1e5", "1e6"])
def test_bench_serve_scale(benchmark, n):
    """Streaming serving loop at trace scale: ~n sessions end to end.

    Feeds an ``iter_session_requests`` generator straight into
    ``serve_trace`` — the trace is never materialised — over a horizon
    sized so the expected arrival count is ``n`` (rate 1/4 s against
    capacity 4, preemption on, ``record_timeline=False`` so the output
    ledger is the only O(arrivals) term).  The three rows pin the
    near-linear scaling of the keyed waiting room + scheduled-timeout
    event core: per-arrival cost must stay flat from 1e3 to 1e5 (asserted
    below), with 1e6 as the headline row.  The 1e6 row runs only under
    ``make bench`` — at ~1 min it is too heavy for tier-1 smoke mode.
    """
    import time

    from repro.baselines import GpuBaseline
    from repro.serve import AdmissionConfig, FullReplan, ServeConfig, serve_trace
    from repro.workloads import TraceConfig, iter_session_requests

    if n >= 1_000_000 and not benchmark.enabled:
        pytest.skip("1e6 row is bench-only; smoke mode covers 1e3/1e5")

    pool = ("alexnet", "squeezenet", "mobilenet_v2", "shufflenet")
    horizon = n * 4.0
    trace = TraceConfig(horizon_s=horizon, arrival_rate_per_s=1 / 4,
                        mean_session_s=90.0, pool=pool)
    config = ServeConfig(
        horizon_s=horizon,
        admission=AdmissionConfig(capacity=4, queue_limit=8,
                                  max_queue_wait_s=120.0,
                                  preemption="evict_lowest_tier"),
        pool=pool, seed=0, record_timeline=False)
    cache = EvaluationCache(PLATFORM)
    policy = FullReplan(GpuBaseline())
    # Warm the solver cache so the rows time the event core, not the
    # first-touch contention solves.
    serve_trace(iter_session_requests(np.random.default_rng(7),
                                      TraceConfig(horizon_s=400.0,
                                                  arrival_rate_per_s=1 / 4,
                                                  mean_session_s=90.0,
                                                  pool=pool),
                                      tier_shift_prob=0.2),
                policy, PLATFORM,
                ServeConfig(horizon_s=400.0, admission=config.admission,
                            pool=pool, seed=0, record_timeline=False),
                cache=cache)

    def run():
        stream = iter_session_requests(np.random.default_rng(7), trace,
                                       tier_shift_prob=0.2)
        t0 = time.perf_counter()
        report = serve_trace(stream, policy, PLATFORM, config, cache=cache)
        _SCALE_WALL[n] = (time.perf_counter() - t0, report.arrivals)
        return report

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.timeline.segments == []
    assert 0.9 * n <= report.arrivals <= 1.1 * n
    assert report.admitted > 0 and report.abandoned > 0
    if n == 100_000 and 1_000 in _SCALE_WALL:
        # Near-linearity acceptance: per-arrival cost at 1e5 within 8x
        # of the 1e3 row (generous bound — measured ~1.1-1.5x — so CI
        # noise cannot flake it while super-linear regressions still
        # fail fast).
        small_wall, small_n = _SCALE_WALL[1_000]
        big_wall, big_n = _SCALE_WALL[100_000]
        assert big_wall / big_n <= 8.0 * (small_wall / small_n), \
            "serving loop no longer scales near-linearly in trace length"


_OBS_WALL: dict[str, float] = {}   # mode -> wall seconds
_OBS_REPORTS: dict[str, object] = {}


@pytest.mark.parametrize("mode", ["off", "on"])
def test_bench_serve_obs(benchmark, mode):
    """Telemetry-recorder overhead on the streaming serving loop.

    Serves the same ~1e3-session scale trace (rate 1/4, capacity 4,
    preemption on, ``record_timeline=False``) with the recorder off and
    with a :class:`repro.obs.TelemetryRecorder` attached, and pins both
    contracts of the subsystem: the reports are **bit-identical** (the
    recorder is a pure side channel) and the on-path wall clock stays
    within 10% of the off-path (plus a 20 ms absolute floor so a
    sub-second off row cannot flake the ratio on scheduler noise).  Both
    rows land in ``BENCH_history.jsonl`` and are guarded against silent
    regression by ``benchmarks/record_bench.py``.
    """
    import time

    from repro.baselines import GpuBaseline
    from repro.obs import NULL_RECORDER, TelemetryRecorder
    from repro.serve import AdmissionConfig, FullReplan, ServeConfig, serve_trace
    from repro.workloads import TraceConfig, iter_session_requests

    n = 1_000
    pool = ("alexnet", "squeezenet", "mobilenet_v2", "shufflenet")
    horizon = n * 4.0
    trace = TraceConfig(horizon_s=horizon, arrival_rate_per_s=1 / 4,
                        mean_session_s=90.0, pool=pool)
    config = ServeConfig(
        horizon_s=horizon,
        admission=AdmissionConfig(capacity=4, queue_limit=8,
                                  max_queue_wait_s=120.0,
                                  preemption="evict_lowest_tier"),
        pool=pool, seed=0, record_timeline=False)
    cache = EvaluationCache(PLATFORM)
    policy = FullReplan(GpuBaseline())
    # Warm the solver cache so both rows time the event core + recorder,
    # not first-touch contention solves.
    serve_trace(iter_session_requests(np.random.default_rng(7),
                                      TraceConfig(horizon_s=400.0,
                                                  arrival_rate_per_s=1 / 4,
                                                  mean_session_s=90.0,
                                                  pool=pool),
                                      tier_shift_prob=0.2),
                policy, PLATFORM,
                ServeConfig(horizon_s=400.0, admission=config.admission,
                            pool=pool, seed=0, record_timeline=False),
                cache=cache)

    recorder = (TelemetryRecorder(where="bench") if mode == "on"
                else NULL_RECORDER)

    def run():
        stream = iter_session_requests(np.random.default_rng(7), trace,
                                       tier_shift_prob=0.2)
        t0 = time.perf_counter()
        report = serve_trace(stream, policy, PLATFORM, config, cache=cache,
                             recorder=recorder)
        _OBS_WALL[mode] = time.perf_counter() - t0
        return report

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    _OBS_REPORTS[mode] = report
    assert 0.9 * n <= report.arrivals <= 1.1 * n
    if mode == "on":
        snap = recorder.snapshot()
        assert snap.counter_total("serve.admission.verdict") \
            == report.arrivals
        assert len(snap.segments) > 0
        if "off" in _OBS_REPORTS:
            assert report == _OBS_REPORTS["off"], \
                "recorder changed the report — the side channel leaked"
        if "off" in _OBS_WALL:
            assert _OBS_WALL["on"] <= 1.10 * _OBS_WALL["off"] + 0.02, \
                (f"recorder overhead {_OBS_WALL['on'] / _OBS_WALL['off'] - 1:.0%} "
                 "exceeds the 10% budget")


@pytest.mark.parametrize("mode", ["ingest", "epoch"])
def test_bench_finetune(benchmark, mode, tmp_path):
    """Closed-loop fine-tuning hot paths: segment ingestion and one
    warm-start epoch.

    The ``ingest`` row times folding a 512-row served-segment stream
    (heavy on duplicates, as real traces are) through a bounded
    :class:`repro.estimator.FinetuneBuffer` — the per-sweep cost
    ``ExperimentContext.refresh_estimator`` pays before any gradient
    step.  The ``epoch`` row times one warm-start epoch of
    :func:`repro.estimator.finetune` over the deduplicated rows on a
    reduced estimator, bounding the refresh cadence the closed loop can
    sustain.  Both rows land in ``BENCH_history.jsonl`` and are guarded
    against silent regression by ``benchmarks/record_bench.py``.
    """
    from repro.estimator import (FinetuneBuffer, FinetuneConfig,
                                 finetune, load_estimator_artifact,
                                 save_estimator_artifact)
    from repro.vqvae import LayerVQVAE

    pool = ("alexnet", "squeezenet", "mobilenet_v2", "shufflenet")
    rows = []
    for i in range(512):
        names = [pool[j] for j in range(len(pool)) if (i >> j) % 2] \
            or [pool[i % len(pool)]]
        names = names[:3]
        rows.append({
            "workload": names,
            "assignments": [[0] * get_model(n).num_blocks for n in names],
            "rates": [0.5 + (i % 4) * 0.5] * len(names),
            "duration_s": 1.0 + (i % 7),
        })

    if mode == "ingest":
        buf = benchmark(lambda: FinetuneBuffer(max_rows=128).ingest(rows))
        assert buf > 0
        return

    cfg = EstimatorConfig(max_dnns=4, stem_channels=8,
                          block_channels=(8, 12, 16), attn_dim=8,
                          decoder_dim=12)
    path = tmp_path / "estimator.pkl"
    save_estimator_artifact(path, ThroughputEstimator(
        np.random.default_rng(0), cfg), LayerVQVAE(
        np.random.default_rng(1)), PLATFORM)
    artifact = load_estimator_artifact(path, PLATFORM)
    buffer = FinetuneBuffer()
    buffer.ingest(rows)
    config = FinetuneConfig(epochs=1, batch_size=16, seed=0)

    report = benchmark.pedantic(
        lambda: finetune(artifact, buffer.rows(), config),
        rounds=2, iterations=1)
    assert report.rows == len(buffer)
    assert report.steps >= 1


@pytest.mark.parametrize("rounds", [0, 2], ids=["rounds0", "rounds2"])
def test_bench_fleet_feedback(benchmark, rounds):
    """Pressure-fed re-dispatch cost on the inline fleet.

    Serves the same 600 s demand through a 3-node fleet under the
    ``pressure_feedback`` roster policy with zero and two feedback
    rounds.  Round ``k`` re-routes the full demand with the node
    pressure measured from round ``k-1``, so the ``rounds2`` row pays
    three complete dispatch-then-serve cycles — the pair bounds what
    closing the routing loop costs over one-shot ``least_loaded``-style
    dispatch.  Replanning is pinned to the trivial GPU-only manager with
    pre-warmed per-node caches so the spread is dispatch + event-core
    work, not solver time.
    """
    from repro.baselines import GpuBaseline
    from repro.serve import AdmissionConfig, FullReplan, ServeConfig, serve_trace
    from repro.serve.fleet import FleetNode, NodeSpec, serve_fleet
    from repro.workloads import TraceConfig, sample_session_requests

    pool = ("alexnet", "squeezenet", "mobilenet_v2", "shufflenet")
    horizon = 600.0
    requests = sample_session_requests(
        np.random.default_rng(0),
        TraceConfig(horizon_s=horizon, arrival_rate_per_s=1 / 4,
                    mean_session_s=90.0, pool=pool))
    nodes = []
    for i in range(3):
        cache = EvaluationCache(PLATFORM)
        config = ServeConfig(
            horizon_s=horizon,
            admission=AdmissionConfig(capacity=2, queue_limit=4,
                                      max_queue_wait_s=60.0),
            pool=pool, seed=i)
        policy = FullReplan(GpuBaseline())
        serve_trace(requests[:8], policy, PLATFORM, config, cache=cache)
        nodes.append(FleetNode(
            spec=NodeSpec(name=f"n{i}", capacity=2, speed=1.0 + 0.25 * i),
            platform=PLATFORM, policy=policy, config=config, cache=cache))

    report = benchmark(lambda: serve_fleet(
        requests, nodes, "pressure_feedback", horizon_s=horizon,
        feedback_rounds=rounds))
    assert report.routing == "pressure_feedback"
    assert report.arrivals == len(requests)
    assert report.admitted > 0


@pytest.mark.parametrize("cap", ["cap_off", "cap_on"])
def test_bench_fleet_energy(benchmark, cap):
    """Power-governor overhead on the pure dispatch hot path.

    Routes the same 1-hour aggregate trace across a 6-node heterogeneous
    fleet twice: power-blind (``cap_off``, today's baseline walk) and
    energy-budgeted (``cap_on``: per-node 3-state DVFS ladders, a 40 W
    fleet cap with a mid-trace brownout to 18 W, ``least_joules``
    routing).  The governed row pays per-event draw integration, DVFS
    renegotiation and departure events the blind walk never schedules —
    the pair bounds what the cap ledger costs on top of
    ``test_bench_fleet_dispatch``.
    """
    from repro.hw import dvfs_ladder, jetson_class_power, orange_pi_5_power
    from repro.serve.fleet import FleetPowerConfig, NodeSpec, plan_dispatch
    from repro.workloads import TraceConfig, sample_session_requests

    config = TraceConfig(horizon_s=3600.0, arrival_rate_per_s=1 / 4,
                         mean_session_s=90.0)
    requests = sample_session_requests(np.random.default_rng(0), config)
    nodes = [NodeSpec(name=f"n{i}", capacity=4, speed=1.0 + 0.5 * i,
                      fail_at_s=(1800.0 if i == 0 else None))
             for i in range(6)]
    power = None
    routing = "least_loaded"
    if cap == "cap_on":
        routing = "least_joules"
        power = FleetPowerConfig(
            ladders=tuple(
                dvfs_ladder(orange_pi_5_power() if i % 2 == 0
                            else jetson_class_power(), (1.0, 0.8, 0.65))
                for i in range(6)),
            cap_w=40.0, cap_shift=(1800.0, 18.0))

    plan = benchmark(lambda: plan_dispatch(requests, nodes, routing, 3600.0,
                                           power=power))
    assert sum(plan.routed) > 0
    assert (plan.power is None) == (cap == "cap_off")
