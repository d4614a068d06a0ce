"""Canonical-assignment-keyed LRU cache over the simulator.

MCTS evaluates 160 iterations x 4 rollouts per plan and RankMap's
threshold-relaxation loop re-searches the same space with lowered floors;
both revisit mappings they have already solved.  The cache makes every
re-visit free while :func:`repro.sim.engine.simulate_batch` keeps the
misses cheap.

Cache-key canonicalization
--------------------------

A cache instance is bound to one :class:`~repro.hw.platform.Platform`
(platform parameters are part of neither key nor value), and a cached
entry is keyed by::

    key = (tuple of model names, mapping.assignments)

* **Model names** stand in for the full :class:`ModelSpec`: the zoo
  registry guarantees one spec per name, and stage demands depend only on
  the spec and the platform.  Workload *order* is significant — the same
  models in a different order index different rate vectors — so the name
  tuple is used verbatim, not sorted.
* **``mapping.assignments``** is already canonical: it is a nested tuple
  of per-block component indices, so two ``Mapping`` instances produced
  by different search paths (tree expansion, rollout completion,
  relaxation retry) hash equal whenever they describe the same placement.

Entries are evicted least-recently-used once ``maxsize`` is reached;
hits refresh recency.  ``hits``/``misses``/``hit_rate`` expose the
effectiveness (asserted in the regression tests).

Persistence
-----------

A cache can :meth:`~EvaluationCache.save` its entries to disk and a later
process can :meth:`~EvaluationCache.load` them back, so serve workers and
repeated experiment runs start warm instead of re-solving the same
canonical keys.  The on-disk record carries a format version and a
:func:`platform_fingerprint` of every parameter that influences a solve;
loading refuses a cache built for a different platform (the rates would be
silently wrong) or an unknown format version.  The solver is fixed within
a process, so in-memory keys carry no solver tag; instead the file header
stamps the solver that filled it (:func:`repro.sim.backend.active_solver`)
and loading refuses a file stamped by the other one, so a cache never
mixes answers from the C kernel and the numpy fallback.
"""

from __future__ import annotations

import hashlib
import pickle
import tempfile
from collections import OrderedDict
from pathlib import Path

from ..hw.platform import Platform
from ..mapping.mapping import Mapping
from ..zoo.layers import ModelSpec
from .backend import active_solver
from .engine import SimResult, simulate_batch

__all__ = ["EvaluationCache", "platform_fingerprint"]

#: On-disk format version; bump when the payload layout changes.
#: v3: the header stamps the solver that filled the file and entry keys
#: drop v2's solver prefix; v1/v2 files refuse to load.
_CACHE_FORMAT_VERSION = 3


def platform_fingerprint(platform: Platform) -> str:
    """Stable digest of every platform parameter that affects a solve.

    Built from the value-based ``cache_key`` of each component plus the
    link parameters, so two structurally identical platform objects (e.g.
    rebuilt from the same preset in different processes) fingerprint equal
    while any parameter tweak produces a different digest.
    """
    parts = [platform.name]
    for comp in platform.components:
        parts.append(repr(comp.cache_key()))
    parts.append(repr((platform.link.bandwidth_bytes_per_s,
                       platform.link.latency_s)))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]

#: Default capacity: ~75 plans' worth of distinct 640-evaluation searches.
#: Each entry retains a full SimResult (a few KB of per-stage arrays), so
#: the default bounds a long-lived predictor's cache to ~100 MB; raise it
#: explicitly for sweeps that can afford the memory.
_DEFAULT_MAXSIZE = 50_000


class EvaluationCache:
    """LRU memo of :func:`simulate` results for one platform."""

    def __init__(self, platform: Platform,
                 maxsize: int = _DEFAULT_MAXSIZE):
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.platform = platform
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._store: OrderedDict[tuple, SimResult] = OrderedDict()

    # ------------------------------------------------------------------
    @staticmethod
    def key(workload: list[ModelSpec], mapping: Mapping) -> tuple:
        """Canonical cache key (see module docstring)."""
        return (tuple(m.name for m in workload), mapping.assignments)

    def __len__(self) -> int:
        return len(self._store)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        self._store.clear()

    # ------------------------------------------------------------------
    def simulate(self, workload: list[ModelSpec],
                 mappings: list[Mapping]) -> list[SimResult]:
        """Like ``[simulate(workload, m, platform) for m in mappings]`` but
        cached: hits are returned directly and all misses are solved in one
        batched fixed-point call.

        Duplicate mappings inside one call are solved once.
        """
        results: list[SimResult | None] = [None] * len(mappings)
        miss_keys: list[tuple] = []
        miss_mappings: list[Mapping] = []
        miss_slots: dict[tuple, list[int]] = {}
        for i, mapping in enumerate(mappings):
            k = self.key(workload, mapping)
            cached = self._store.get(k)
            if cached is not None:
                self._store.move_to_end(k)
                self.hits += 1
                results[i] = cached
                continue
            self.misses += 1
            if k not in miss_slots:
                miss_slots[k] = []
                miss_keys.append(k)
                miss_mappings.append(mapping)
            miss_slots[k].append(i)

        if miss_mappings:
            solved = simulate_batch(workload, miss_mappings, self.platform)
            for k, result in zip(miss_keys, solved):
                self._insert(k, result)
                for i in miss_slots[k]:
                    results[i] = result
        return results  # type: ignore[return-value]

    def simulate_one(self, workload: list[ModelSpec],
                     mapping: Mapping) -> SimResult:
        return self.simulate(workload, [mapping])[0]

    # ------------------------------------------------------------------
    def _insert(self, key: tuple, result: SimResult) -> None:
        self._store[key] = result
        if len(self._store) > self.maxsize:
            self._store.popitem(last=False)

    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> int:
        """Serialize the cached entries to ``path``; returns the count.

        The parent directory is created if needed.  The write goes through
        a temporary file and an atomic rename so concurrent readers never
        observe a half-written cache.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": _CACHE_FORMAT_VERSION,
            "fingerprint": platform_fingerprint(self.platform),
            "platform_name": self.platform.name,
            "solver": active_solver(),
            "entries": list(self._store.items()),
        }
        # Unique temp name per writer: concurrent saves to one path must
        # not interleave into the same file before the atomic rename.
        with tempfile.NamedTemporaryFile(dir=path.parent, delete=False,
                                         suffix=".tmp") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            tmp = Path(fh.name)
        tmp.replace(path)
        return len(self._store)

    @classmethod
    def load(cls, path: str | Path, platform: Platform,
             maxsize: int = _DEFAULT_MAXSIZE) -> "EvaluationCache":
        """Rebuild a cache from :meth:`save` output, bound to ``platform``.

        Refuses (``ValueError``) a file whose format version is unknown,
        whose platform fingerprint does not match ``platform`` — entries
        solved on one board model must never answer for another — or
        whose solver stamp differs from this process's solver.  When the
        file holds more than ``maxsize`` entries the most recently used
        ones survive.
        """
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        version = payload.get("version")
        if version != _CACHE_FORMAT_VERSION:
            raise ValueError(
                f"cache file {path} has format version {version!r}; this "
                f"build reads version {_CACHE_FORMAT_VERSION}")
        fingerprint = platform_fingerprint(platform)
        if payload.get("fingerprint") != fingerprint:
            raise ValueError(
                f"cache file {path} was built for platform "
                f"{payload.get('platform_name')!r} (fingerprint "
                f"{payload.get('fingerprint')!r}); refusing to load it for "
                f"{platform.name!r} (fingerprint {fingerprint!r})")
        solver = active_solver()
        if payload.get("solver") != solver:
            raise ValueError(
                f"cache file {path} was filled by the "
                f"{payload.get('solver')!r} solver; refusing to load it "
                f"into a process that solves on {solver!r}")
        cache = cls(platform, maxsize=maxsize)
        entries = payload["entries"]
        for key, result in entries[-maxsize:]:
            cache._store[key] = result
        return cache
