"""Event-driven online serving loop, built to stream million-session traces.

This is the online layer over the planning stack: raw session requests
(:func:`repro.workloads.iter_session_requests`) flow through an
SLA-tier-aware :class:`~repro.serve.admission.AdmissionController`
(whose configured :mod:`~repro.serve.preempt` policy may evict or
demote a running lower-tier session for a blocked arrival), every
admission/departure/priority shift invokes the configured
:class:`~repro.serve.replan.ReplanPolicy`, and the modeled decision
latency opens a re-mapping gap during which residents keep running on the
restricted incumbent mapping while the change's subject makes no progress
— the same gap semantics as :func:`repro.sim.run_dynamic_scenario`, but
with live accept/queue/reject decisions instead of a replayed fixed
timeline.

The loop is architected for traces far longer than memory:

* **Streaming arrivals** — ``requests`` may be any iterable ordered by
  ``(arrival_s, session_id)``; exactly one not-yet-due arrival is held in
  the event heap, so a generator-fed multi-day trace is never
  materialised.  Lists and tuples are sorted (and tier-validated) up
  front, exactly as before.
* **Keyed waiting room** — a lazy-deletion heap on
  :meth:`~repro.serve.admission.AdmissionController.queue_order_key`
  makes every drain admission O(log n) instead of a full re-sort.
* **Scheduled queue timeouts** — each enqueue schedules an explicit
  timeout event at
  :meth:`~repro.serve.admission.AdmissionController.queue_deadline`, so
  abandonments fire (and are stamped) at their true time even through
  quiet stretches, instead of whenever the next unrelated event happened
  to scan the queue.
* **Vectorized accounting** — served/delivered/gap/violation accumulate
  in shared numpy arrays with a per-state precomputed index, one
  fancy-indexed add per segment instead of a python loop over residents;
  ``ServeConfig.record_timeline=False`` additionally drops the O(events)
  segment list for scale runs.

The seed architecture is kept as a test oracle,
``serve_trace_reference`` in ``tests/property/serve_reference_oracle.py``;
the property suite pins the two loops bit-identical on randomized traces.

Everything is deterministic in ``(requests, policy manager seed,
ServeConfig.seed)``: the event order is a total order, the only rng draws
pick pool model names at admission, and segment rates come from the
deterministic steady-state solver (via an :class:`EvaluationCache`, so a
persistent warm cache makes repeated runs cheap without changing a bit of
the output).

Note the decision/measurement split when the replan policy's manager
scores candidates with the *learned* estimator
(:class:`~repro.core.EstimatorPredictor`, wired in via
``DynamicScenario.predictor = "estimator"``): the estimator only picks
mappings — and prices each candidate evaluation at the paper's 0.04 s
instead of a full on-board measurement window, shrinking the re-mapping
gaps — while the *realized* segment rates here always come from the
simulated board, the stand-in for what actually runs on the hardware.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..hw.platform import Platform
from ..obs import NULL_RECORDER, Recorder
from ..obs.registry import (
    EVAL_CACHE_HITS,
    EVAL_CACHE_MISSES,
    LIVE_SESSIONS,
    PREEMPT_DEMOTIONS,
    PREEMPT_EVICTIONS,
    PREEMPT_RESUMPTIONS,
    QUEUE_ABANDONED,
    QUEUE_DEPTH,
    QUEUE_ENQUEUED,
    QUEUE_WAIT_S,
    REPLAN_DECISION_S,
    REPLAN_INVOCATIONS,
    SPAN_ADMISSION,
    SPAN_PREEMPT,
    SPAN_REPLAN,
)
from ..sim.cache import EvaluationCache
from ..sim.dynamic import Segment, Timeline, restrict_mapping
from ..workloads.traces import SessionRequest
from ..zoo.registry import MODEL_POOL, get_model
from .admission import ADMIT, PREEMPT, QUEUE, AdmissionConfig, AdmissionController
from .preempt import EVICT, LiveView
from .replan import ReplanPolicy
from .report import (
    ABANDONED,
    EVICTED,
    OUT_OF_HORIZON,
    QUEUED,
    REJECTED,
    SERVED,
    SERVING,
    ServeReport,
    SessionOutcome,
)

__all__ = ["ServeConfig", "serve_trace"]

# Same-timestamp processing order: free capacity before admitting into
# it; queue timeouts after everything else, so a session admitted (or
# counted by an arrival's queue-length check) at exactly its deadline is
# not abandoned — the strict `waited > max_wait` test of the original
# lazy purge, now encoded in event rank.
_RANK_DEPARTURE = 0
_RANK_SHIFT = 1
_RANK_ARRIVAL = 2
_RANK_TIMEOUT = 3

#: Buffered telemetry spans flush to the recorder in chunks of this
#: size, so loop-side buffering stays O(chunk) on million-session
#: traces (the recorder itself retains top-K spans only).
_SPAN_CHUNK = 4096


@dataclass(frozen=True)
class ServeConfig:
    """One serving node's configuration.

    ``record_timeline`` keeps the per-segment :class:`Timeline` on the
    report; scale runs over millions of events switch it off, which
    drops the only per-event allocation that outlives the event —
    per-session outcomes and aggregates are unaffected.
    """

    horizon_s: float = 600.0
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    pool: tuple[str, ...] = MODEL_POOL
    seed: int = 0                  # drives pool-model choice at admission
    record_timeline: bool = True

    def __post_init__(self):
        if self.horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if not self.pool:
            raise ValueError("pool must not be empty")


class _Accumulators:
    """Growable numpy columns of per-session service accounting.

    One row per admitted session (``_Live.acc`` is the row index); a
    segment update is a single fancy-indexed add per column over the
    resident rows.  Kept float64 elementwise so every accumulated value
    is bit-identical to the seed loop's per-record python-float adds.
    """

    __slots__ = ("served", "delivered", "gap", "violation", "rows")

    def __init__(self, capacity: int = 64):
        self.rows = 0
        self.served = np.zeros(capacity)
        self.delivered = np.zeros(capacity)
        self.gap = np.zeros(capacity)
        self.violation = np.zeros(capacity)

    def add_row(self) -> int:
        """Claim the next row, doubling the columns when full."""
        if self.rows == self.served.shape[0]:
            grown = self.rows * 2
            for name in self.__slots__[:4]:
                column = np.zeros(grown)
                column[:self.rows] = getattr(self, name)
                setattr(self, name, column)
        self.rows += 1
        return self.rows - 1


class _Live:
    """Mutable accounting record of one admitted session.

    A record survives eviction: it is parked in the waiting room with
    its remaining duration and carried back into the live set on
    resumption, so served/delivered/violation accounting accumulates
    across suspensions.  ``epoch`` increments on every (re-)admission
    and guards the heap against stale departure/shift events scheduled
    for an earlier service interval.  ``pending_shift`` is the not-yet-
    fired tier shift, as an offset relative to ``last_admit_s`` —
    suspended time does not advance it, mirroring how the remaining
    duration freezes while evicted.  ``acc`` is the session's row in the
    loop's :class:`_Accumulators` columns, where the served/delivered/
    gap/violation totals live.
    """

    __slots__ = ("request", "model", "tier", "admitted_s", "queue_wait_s",
                 "last_admit_s", "depart_s", "epoch", "pending_shift",
                 "evictions", "demotions", "resumptions", "acc")

    def __init__(self, request: SessionRequest, model, admitted_s: float,
                 queue_wait_s: float, acc: int):
        self.request = request
        self.model = model
        self.tier = request.tier
        self.admitted_s = admitted_s
        self.queue_wait_s = queue_wait_s
        self.last_admit_s = admitted_s
        self.depart_s = admitted_s + request.duration_s
        self.epoch = 0
        self.pending_shift = request.tier_shift
        self.evictions = 0
        self.demotions = 0
        self.resumptions = 0
        self.acc = acc

    def outcome(self, state: str, departed_s: float | None,
                acc: _Accumulators,
                abandoned_s: float | None = None) -> SessionOutcome:
        """Freeze this record (plus its accumulator row) as an outcome."""
        row = self.acc
        return SessionOutcome(
            session_id=self.request.session_id, tier=self.tier,
            arrival_s=self.request.arrival_s, outcome=state,
            model=self.model.name, admitted_s=self.admitted_s,
            departed_s=departed_s, queue_wait_s=self.queue_wait_s,
            served_seconds=float(acc.served[row]),
            delivered_inferences=float(acc.delivered[row]),
            gap_seconds=float(acc.gap[row]),
            violation_seconds=float(acc.violation[row]),
            evictions=self.evictions, demotions=self.demotions,
            resumptions=self.resumptions, abandoned_s=abandoned_s,
        )


class _WaitEntry:
    """One stay in the waiting room (fresh arrival or parked eviction).

    Lazy heap deletion: draining or timing out flips ``active`` instead
    of searching the heap; stale heap items and stale timeout events
    recognise the flag and miss.  A re-parked session gets a fresh entry,
    so the timeout of an earlier stay can never touch it.
    """

    __slots__ = ("request", "enqueue_s", "record", "remaining", "active")

    def __init__(self, request: SessionRequest, enqueue_s: float,
                 record: _Live | None, remaining: float):
        self.request = request
        self.enqueue_s = enqueue_s
        self.record = record
        self.remaining = remaining
        self.active = True


def _manager_name(policy: ReplanPolicy) -> str:
    inner = policy
    while not hasattr(inner, "manager") and hasattr(inner, "inner"):
        inner = inner.inner
    manager = getattr(inner, "manager", None)
    return getattr(manager, "name", "unknown")


def serve_trace(requests: Iterable[SessionRequest], policy: ReplanPolicy,
                platform: Platform, config: ServeConfig | None = None,
                cache: EvaluationCache | None = None,
                recorder: Recorder = NULL_RECORDER) -> ServeReport:
    """Serve a raw session-request trace and report what happened.

    ``requests`` is any iterable of :class:`SessionRequest`.  A list or
    tuple is tier-validated and sorted up front, exactly as before.  Any
    other iterable — e.g. :func:`repro.workloads.iter_session_requests`
    — is consumed lazily, one arrival ahead of the event clock, and must
    already be ordered by ``(arrival_s, session_id)``; a disordered
    stream raises :class:`ValueError` at the offending request.

    ``cache`` is the evaluation cache segment rates are solved through;
    pass a shared (possibly disk-loaded) instance to start warm — the
    report is bit-identical either way, only the wall clock changes.

    ``recorder`` is the telemetry sink (:mod:`repro.obs`).  The default
    null recorder collects nothing; a
    :class:`~repro.obs.TelemetryRecorder` additionally captures the
    decision path (admission verdicts, preemptions, replans), queue and
    live-set metrics, realized plan segments and the in-run evaluation
    cache hit/miss deltas — all as a pure side channel: the report is
    bit-identical with recording on or off.
    """
    config = config if config is not None else ServeConfig()
    if cache is None:
        cache = EvaluationCache(platform)
    recording = recorder.enabled
    # Hot-path telemetry is accumulated locally and flushed to the
    # recorder once at the end: gauges keep only their last write and
    # segments sum per plan key, so the flushed snapshot is bit-identical
    # to per-event recording at a fraction of the per-event cost.
    live_gauge: tuple[float, float] | None = None
    depth_gauge: tuple[float, float] | None = None
    count_acc: dict[tuple[str, str], float] = {}
    adm_spans: list[tuple] = []       # (t, tier, verdict, session_id)
    replan_spans: list[tuple] = []    # (t, decision_seconds, kind, dnns)
    tier_pairs: dict[str, tuple] = {}     # interned low-cardinality
    verdict_pairs: dict[str, tuple] = {}  # span attr pairs
    kind_pairs: dict[str, tuple] = {}

    def tick(name: str, label: str = "") -> None:
        """Accumulate one locally batched counter tick (recording only)."""
        try:
            count_acc[name, label] += 1.0
        except KeyError:
            count_acc[name, label] = 1.0

    def flush_spans() -> None:
        """Bulk-feed the buffered span streams to the recorder.

        Runs at every :data:`_SPAN_CHUNK` boundary and once at end of
        run; identical retained spans and stats to per-event emission
        (only the recorder-local seq numbering shifts, which no
        contract observes).
        """
        if adm_spans:
            def admission_items():
                for t, tier, verdict, session in adm_spans:
                    tp = tier_pairs.get(tier)
                    if tp is None:
                        tp = tier_pairs[tier] = ("tier", tier)
                    vp = verdict_pairs.get(verdict)
                    if vp is None:
                        vp = verdict_pairs[verdict] = ("verdict", verdict)
                    yield t, 0.0, (("session", session), tp, vp)

            recorder.span_batch(SPAN_ADMISSION, admission_items())
            adm_spans.clear()
        if replan_spans:
            policy_pair = ("policy", policy.name)

            def replan_items():
                for t, duration, kind, dnns in replan_spans:
                    kp = kind_pairs.get(kind)
                    if kp is None:
                        kp = kind_pairs[kind] = ("kind", kind)
                    yield t, duration, (("dnns", dnns), kp, policy_pair)

            recorder.span_batch(SPAN_REPLAN, replan_items())
            for _, duration, _, _ in replan_spans:
                recorder.observe(REPLAN_DECISION_S, duration)
            replan_spans.clear()

    cache_hits0, cache_misses0 = cache.hits, cache.misses
    controller = AdmissionController(config.admission, recorder=recorder)
    preempting = config.admission.preemption != "none"
    rng = np.random.default_rng(config.seed)
    horizon = config.horizon_s
    max_wait = controller.config.max_queue_wait_s
    capacity = controller.config.capacity
    pool = config.pool

    def validate(request: SessionRequest) -> None:
        controller.tier(request.tier)
        if request.tier_shift is not None:
            controller.tier(request.tier_shift[1])

    results: dict[int, SessionOutcome] = {}
    if isinstance(requests, (list, tuple)):
        for request in requests:               # validate tiers up front
            validate(request)
        stream = iter(sorted(requests,
                             key=lambda r: (r.arrival_s, r.session_id)))
        presorted = True
    else:
        stream = iter(requests)
        presorted = False
    last_key = None

    heap: list[tuple] = []
    seq = 0

    def push(time: float, rank: int, kind: str, payload) -> None:
        nonlocal seq
        heapq.heappush(heap, (time, rank, seq, kind, payload))
        seq += 1

    def pull_arrival() -> None:
        """Advance the stream until one in-horizon arrival is on the heap.

        Out-of-horizon requests get their ledger outcome immediately; an
        ordered stream only yields those from the first one on, so this
        drains the tail in one go and the stream ends.
        """
        nonlocal last_key
        for request in stream:
            if not presorted:
                validate(request)
                key = (request.arrival_s, request.session_id)
                if last_key is not None and key < last_key:
                    raise ValueError(
                        "streamed session requests must be ordered by "
                        f"(arrival_s, session_id); got {key} after "
                        f"{last_key}")
                last_key = key
            if request.arrival_s < horizon:
                push(request.arrival_s, _RANK_ARRIVAL, "arrival", request)
                return
            # A trace sampled for a longer horizon: account for the demand
            # this run never observes instead of silently dropping it.
            results[request.session_id] = SessionOutcome(
                session_id=request.session_id, tier=request.tier,
                arrival_s=request.arrival_s, outcome=OUT_OF_HORIZON)

    live: dict[str, _Live] = {}                # name -> record, in order
    acc = _Accumulators()
    # Waiting room: keyed min-heap over queue_order_key with lazy
    # deletion; counters track the active (and active-fresh) entries so
    # admission decisions never scan it.
    wait_heap: list[tuple[tuple, int, _WaitEntry]] = []
    wait_seq = 0
    queued_total = 0
    queued_fresh = 0
    epoch_seq = 0                              # admission epochs, see _Live

    pull_arrival()

    timeline = Timeline()
    record_timeline = config.record_timeline
    current = None
    incumbent = None
    clock = 0.0
    replans = 0
    kinds: dict[str, int] = {}
    decision_total = 0.0

    # --------------------------------------------------------- accounting
    # Per-segment state is a pure function of (live set, tiers, current
    # mapping); it is rebuilt only when one of those changes, so a burst
    # of rejected arrivals re-uses the same rates, index vector and
    # violation mask across all its segments.
    seg_state = None
    seg_dirty = True
    # Realized-plan accumulator cells ``[result, key, duration]``,
    # memoised on the cache's SimResult identity: the cache returns the
    # *same* result object for a repeated (workload, mapping), and
    # holding the result in the cell keeps its id from being reused.  A
    # rebuild for a plan already seen skips re-deriving the (names,
    # assignments, rates) triple, and emit adds onto the cell — never
    # hashing the nested key on the hot path.  Memory is O(distinct
    # plans), the recorder-segment contract.
    seg_cells: dict[int, list] = {}

    def rebuild_segment_state():
        names = tuple(live.keys())
        seg_cell = None
        if current is None:
            rates = {n: 0.0 for n in names}
            pots = dict(rates)
        else:
            models, mapping = current
            result = cache.simulate_one(models, mapping)
            rates = {m.name: float(r)
                     for m, r in zip(models, result.rates)}
            pots = {m.name: float(p)
                    for m, p in zip(models, result.potentials)}
            for n in names:                    # admitted but not yet mapped
                rates.setdefault(n, 0.0)
                pots.setdefault(n, 0.0)
            if recording:
                # The realized (workload, mapping, rates) identity of
                # this plan — service time aggregates by it, so
                # telemetry stays O(distinct plans), not O(events).
                seg_cell = seg_cells.get(id(result))
                if seg_cell is None:
                    key = (tuple(m.name for m in models),
                           mapping.assignments,
                           tuple(float(r) for r in result.rates))
                    seg_cell = seg_cells[id(result)] = [result, key, 0.0]
        count = len(names)
        idx = np.fromiter((r.acc for r in live.values()),
                          dtype=np.intp, count=count)
        rate_vec = np.fromiter((rates[n] for n in names),
                               dtype=np.float64, count=count)
        gap_rows = idx[rate_vec <= 0.0]
        violating = np.fromiter(
            (pots[n] < controller.tier(r.tier).min_potential
             for n, r in live.items()), dtype=bool, count=count)
        viol_rows = idx[violating]
        return names, rates, pots, idx, rate_vec, gap_rows, viol_rows, seg_cell

    def emit(t0: float, t1: float) -> None:
        nonlocal seg_state, seg_dirty
        duration = t1 - t0
        if duration <= 0:
            return
        if seg_dirty:
            seg_state = rebuild_segment_state()
            seg_dirty = False
        (names, rates, pots, idx, rate_vec, gap_rows, viol_rows,
         seg_cell) = seg_state
        if record_timeline:
            timeline.segments.append(Segment(t0, t1, names, rates, pots))
        if seg_cell is not None:          # set only when recording
            seg_cell[2] += duration
        if idx.size:
            acc.served[idx] += duration
            acc.delivered[idx] += rate_vec * duration
            if gap_rows.size:
                acc.gap[gap_rows] += duration
            if viol_rows.size:
                acc.violation[viol_rows] += duration

    # ------------------------------------------------------- waiting room
    def enqueue(request: SessionRequest, t: float, record: _Live | None,
                remaining: float) -> None:
        nonlocal wait_seq, queued_total, queued_fresh, depth_gauge
        entry = _WaitEntry(request, t, record, remaining)
        tier = record.tier if record is not None else request.tier
        heapq.heappush(wait_heap, (
            controller.queue_order_key(tier, t, request.session_id),
            wait_seq, entry))
        wait_seq += 1
        queued_total += 1
        if record is None:
            queued_fresh += 1
        if recording:
            tick(QUEUE_ENQUEUED, tier)
            depth_gauge = (t, queued_total)
        deadline = controller.queue_deadline(t)
        if deadline < horizon:
            push(deadline, _RANK_TIMEOUT, "timeout", entry)

    def deactivate(entry: _WaitEntry) -> None:
        nonlocal queued_total, queued_fresh
        entry.active = False
        queued_total -= 1
        if entry.record is None:
            queued_fresh -= 1

    def compact_wait_heap() -> None:
        """Drop lazily deleted entries once they dominate the heap, so
        its footprint tracks the live waiting room, not total churn."""
        if len(wait_heap) > 64 and len(wait_heap) > 2 * queued_total:
            wait_heap[:] = [item for item in wait_heap if item[2].active]
            heapq.heapify(wait_heap)

    def timeout(entry: _WaitEntry, t: float) -> None:
        """Abandon a waited-out stay at its true deadline ``t``."""
        nonlocal depth_gauge
        if not entry.active:
            return                 # drained into a slot before the bell
        deactivate(entry)
        compact_wait_heap()
        record = entry.record
        if recording:
            tick(QUEUE_ABANDONED, record.tier if record is not None
                 else entry.request.tier)
            depth_gauge = (t, queued_total)
        if record is None:
            results[entry.request.session_id] = SessionOutcome(
                session_id=entry.request.session_id,
                tier=entry.request.tier,
                arrival_s=entry.request.arrival_s, outcome=ABANDONED,
                queue_wait_s=max_wait, abandoned_s=t)
        else:
            # A suspended session that waited out the timeout is
            # eviction collateral, not a plain abandonment.
            record.queue_wait_s += max_wait
            results[entry.request.session_id] = record.outcome(
                EVICTED, departed_s=None, acc=acc, abandoned_s=t)

    def admit(request: SessionRequest, t: float, queue_wait: float,
              record: _Live | None = None,
              remaining_s: float | None = None) -> None:
        nonlocal epoch_seq, seg_dirty, live_gauge
        free = [n for n in pool if n not in live]
        name = str(rng.choice(free))
        if record is None:
            record = _Live(request, get_model(name), t, queue_wait,
                           acc.add_row())
            duration = request.duration_s
        else:
            # Resumption: the suspended record re-admits with its
            # remainder, possibly under a different free pool name.
            record.model = get_model(name)
            record.resumptions += 1
            record.queue_wait_s += queue_wait
            duration = remaining_s
            if recording:
                tick(PREEMPT_RESUMPTIONS)
        if recording and queue_wait > 0.0:
            recorder.observe(QUEUE_WAIT_S, queue_wait)
        epoch_seq += 1
        record.epoch = epoch_seq
        record.last_admit_s = t
        record.depart_s = t + duration
        live[name] = record
        seg_dirty = True
        if recording:
            live_gauge = (t, len(live))
        if record.depart_s < horizon:
            push(record.depart_s, _RANK_DEPARTURE, "departure",
                 (name, request.session_id, record.epoch))
        if record.pending_shift is not None:
            offset, new_tier = record.pending_shift
            shift_t = t + offset
            if shift_t < min(record.depart_s, horizon):
                push(shift_t, _RANK_SHIFT, "shift",
                     (name, request.session_id, record.epoch, new_tier))

    def drain(t: float) -> bool:
        """Admit waiting sessions into freed capacity, best key first.

        Keys are frozen at enqueue time — a parked record's tier cannot
        change while suspended — so each admission is one (amortised)
        heap pop, not a re-sort of the room.
        """
        nonlocal depth_gauge
        admitted_any = False
        while queued_total and len(live) < capacity:
            if all(n in live for n in pool):
                break
            while not wait_heap[0][2].active:
                heapq.heappop(wait_heap)
            _, _, entry = heapq.heappop(wait_heap)
            deactivate(entry)
            admit(entry.request, t, queue_wait=t - entry.enqueue_s,
                  record=entry.record, remaining_s=entry.remaining)
            admitted_any = True
        if recording and admitted_any:
            depth_gauge = (t, queued_total)
        return admitted_any

    def evict(name: str, t: float) -> None:
        """Suspend the named session: park its record (and remainder) in
        the waiting room and free its slot + pool name."""
        nonlocal seg_dirty, live_gauge
        victim = live.pop(name)
        seg_dirty = True
        if recording:
            live_gauge = (t, len(live))
        remaining = victim.depart_s - t
        if remaining <= 0:
            # A decision gap delayed the victim's own departure past this
            # arrival: it has already served its full duration, so it
            # completes here instead of parking an empty remainder (and
            # being misreported as eviction collateral).
            results[victim.request.session_id] = victim.outcome(
                SERVED, departed_s=t, acc=acc)
            return
        victim.evictions += 1
        if victim.pending_shift is not None:
            offset, new_tier = victim.pending_shift
            victim.pending_shift = (offset - (t - victim.last_admit_s),
                                    new_tier)
        enqueue(victim.request, t, victim, remaining)

    # ------------------------------------------------------------------
    def handle(kind: str, payload, t: float) -> bool:
        """Apply one event; returns True when a replan is needed."""
        nonlocal seg_dirty, live_gauge
        if kind == "arrival":
            request = payload
            free = any(n not in live for n in pool)
            if preempting and not controller.can_admit(len(live), free):
                views = tuple(
                    LiveView(name=n, session_id=r.request.session_id,
                             tier=r.tier,
                             priority=controller.tier(r.tier).priority,
                             admitted_s=r.last_admit_s,
                             served_s=float(acc.served[r.acc]))
                    for n, r in live.items())
                # Suspended (evicted) sessions park in the waiting room
                # but do not consume its bounded slots — only fresh
                # arrivals count against queue_limit, else evictions
                # would crowd out the very tier they were made for.
                queue_len = queued_fresh
            else:
                # No policy can preempt (every queued entry is fresh, so
                # the total count is exact) — or the arrival admits
                # outright and the verdict reads neither value: skip the
                # per-arrival view build either way.
                views = None
                queue_len = queued_total
            decision, plan = controller.decide_with_plan(
                request.tier, len(live), queue_len, free, views)
            if recording:
                # Highest-volume span site: buffered raw, bulk-fed to
                # the recorder at chunk boundaries (see flush_spans).
                adm_spans.append((t, request.tier, decision,
                                  request.session_id))
                if len(adm_spans) >= _SPAN_CHUNK:
                    flush_spans()
            if decision == ADMIT:
                admit(request, t, queue_wait=0.0)
                return True
            if decision == PREEMPT:
                if recording:
                    tick(PREEMPT_EVICTIONS if plan.action == EVICT
                         else PREEMPT_DEMOTIONS)
                    recorder.span(SPAN_PREEMPT, t, 0.0,
                                  (("action", plan.action),
                                   ("session", request.session_id),
                                   ("victim", plan.victim)))
                if plan.action == EVICT:
                    evict(plan.victim, t)
                else:
                    victim = live[plan.victim]
                    victim.tier = plan.demote_to
                    victim.demotions += 1
                    # The tier contract was renegotiated: a pending
                    # mid-session promotion is void with it (its heap
                    # event is ignored by the None guard below).
                    victim.pending_shift = None
                    seg_dirty = True
                admit(request, t, queue_wait=0.0)
                return True
            if decision == QUEUE:
                enqueue(request, t, None, request.duration_s)
                return False
            results[request.session_id] = SessionOutcome(
                session_id=request.session_id, tier=request.tier,
                arrival_s=request.arrival_s, outcome=REJECTED)
            return False
        if kind == "departure":
            name, session_id, epoch = payload
            record = live.get(name)
            if record is None or record.request.session_id != session_id \
                    or record.epoch != epoch:
                return False       # stale: slot reused or session resumed
            del live[name]
            seg_dirty = True
            if recording:
                live_gauge = (t, len(live))
            results[session_id] = record.outcome(SERVED, departed_s=t,
                                                 acc=acc)
            drain(t)
            return True
        # kind == "shift"
        name, session_id, epoch, new_tier = payload
        record = live.get(name)
        if record is None or record.request.session_id != session_id \
                or record.epoch != epoch:
            return False
        if record.pending_shift is None:
            return False     # cancelled — e.g. voided by a renegotiation
        record.tier = new_tier
        record.pending_shift = None
        seg_dirty = True
        return True

    # ------------------------------------------------------------------
    def replan(t: float) -> float:
        nonlocal current, incumbent, replans, decision_total, seg_dirty
        if not live:
            current = None
            incumbent = None
            seg_dirty = True
            return t
        workload = [record.model for record in live.values()]
        vector = np.array([controller.tier(record.tier).priority
                           for record in live.values()])
        outcome = policy.replan(workload, vector, incumbent)
        replans += 1
        kinds[outcome.kind] = kinds.get(outcome.kind, 0) + 1
        decision_total += outcome.decision_seconds
        if recording:
            # Buffered like the admission spans; the invocation counter
            # flushes from the loop's own `kinds` tally at end of run.
            replan_spans.append((t, outcome.decision_seconds,
                                 outcome.kind, len(workload)))
            if len(replan_spans) >= _SPAN_CHUNK:
                flush_spans()
        gap = max(0.0, outcome.decision_seconds)
        if gap > 0 and t < horizon:
            # Decision window: residents run the restricted incumbent,
            # the change's subject waits at rate 0.
            if current is not None:
                prev_models, prev_mapping = current
                current = restrict_mapping(
                    prev_mapping, [m.name for m in prev_models], workload)
            seg_dirty = True
            gap_end = min(t + gap, horizon)
            emit(t, gap_end)
            t = gap_end
        current = (workload, outcome.mapping)
        incumbent = (tuple(m.name for m in workload), outcome.mapping)
        seg_dirty = True
        return t

    # ------------------------------------------------------------------
    while heap:
        t_event, _, _, kind, payload = heap[0]
        if t_event >= horizon:
            break
        if kind == "timeout":
            # Out of band: an abandonment changes no live session, emits
            # no segment and does not advance the clock — it only stamps
            # the true (gap-adjusted) abandonment time on the outcome.
            heapq.heappop(heap)
            timeout(payload, max(clock, t_event))
            continue
        # Events landing inside a decision gap take effect when it closes.
        effective = max(clock, t_event)
        emit(clock, effective)
        clock = effective
        needs_replan = False
        while heap and heap[0][0] == t_event:
            _, _, _, kind, payload = heapq.heappop(heap)
            if kind == "timeout":
                timeout(payload, clock)
            else:
                needs_replan |= handle(kind, payload, clock)
                if kind == "arrival":
                    pull_arrival()
        if needs_replan:
            clock = replan(clock)

    emit(clock, horizon)

    # ------------------------------------------------------- finalize
    for record in live.values():
        results[record.request.session_id] = record.outcome(
            SERVING, departed_s=None, acc=acc)
    for _, _, entry in wait_heap:
        if not entry.active:
            continue
        # Still waiting at the horizon: the timeout event would have
        # fired inside the horizon, so the stay is shorter than max_wait.
        wait = min(horizon - entry.enqueue_s, max_wait)
        record = entry.record
        if record is not None:
            record.queue_wait_s += wait
            results[entry.request.session_id] = record.outcome(
                EVICTED, departed_s=None, acc=acc)
            continue
        results[entry.request.session_id] = SessionOutcome(
            session_id=entry.request.session_id, tier=entry.request.tier,
            arrival_s=entry.request.arrival_s, outcome=QUEUED,
            queue_wait_s=wait)

    if recording:
        # Flush the locally accumulated hot-path telemetry (see the
        # declarations up top): batched counter ticks and per-plan
        # segment sums in first-seen order, then the final gauge writes.
        controller.flush_verdicts()
        flush_spans()
        for kind, n in kinds.items():
            recorder.count(REPLAN_INVOCATIONS, float(n), label=kind)
        for (name, label), value in count_acc.items():
            recorder.count(name, value, label=label)
        for cell in seg_cells.values():
            recorder.segment(cell[1], cell[2])
        if live_gauge is not None:
            recorder.gauge(LIVE_SESSIONS, live_gauge[0], live_gauge[1])
        if depth_gauge is not None:
            recorder.gauge(QUEUE_DEPTH, depth_gauge[0], depth_gauge[1])
        # In-run evaluation-cache effectiveness: deltas against the
        # (possibly pre-warmed, possibly shared) cache's starting totals.
        recorder.count(EVAL_CACHE_HITS, float(cache.hits - cache_hits0))
        recorder.count(EVAL_CACHE_MISSES,
                       float(cache.misses - cache_misses0))

    sessions = tuple(results[sid] for sid in sorted(results))
    return ServeReport(
        horizon_s=horizon, policy=policy.name,
        manager=_manager_name(policy), sessions=sessions,
        timeline=timeline, replans=replans, replan_kinds=kinds,
        total_decision_seconds=decision_total,
    )
