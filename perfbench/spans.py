"""Outside-in span recording for traced benchmark runs.

The program under test is not edited: the traced run replaces selected
public callables with thin wrappers (:class:`Installer`) that open and
close spans on a :class:`SpanRecorder`.  Spans are kept in flat arrays
in memory and written out once, after the timed region
(:meth:`SpanRecorder.save`).  Per-layer numbers are derived from them
afterwards:

* a span's **self time** is its duration minus the time its direct child
  spans cover (:func:`self_times`);
* a layer's **busy time** sums its outermost spans only, so a call that
  re-enters the same layer (a cache wrapper around a policy, a method
  delegating to its overload) is not counted twice;
* a timing distribution is summarised by its median and by the highest
  percentile with at least ten samples beyond it, with the sample count
  (:func:`tail_percentile`).
"""

from __future__ import annotations

import functools
import math
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

__all__ = ["SpanRecorder", "Installer", "self_times", "percentile",
           "tail_percentile", "Tail", "PERCENTILE_LADDER", "MIN_BEYOND"]

#: Percentiles the tail summary may report, lowest first.
PERCENTILE_LADDER: tuple[float, ...] = (50.0, 90.0, 99.0, 99.9, 99.99)

#: A percentile is reported only when at least this many samples lie
#: beyond it; fewer would make the "tail" a single unlucky sample.
MIN_BEYOND = 10


class SpanRecorder:
    """Flat in-memory span store with a call-stack parent link.

    Span ``i`` has a name id, the id of the span open when it started
    (``-1`` for a root), start and end clock readings, and a flag saying
    whether an enclosing span carries the same name.  Counters ride
    beside the spans (``counts``) so that ratios are measured at the
    boundary where the work happens.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._open_by_name: dict[int, int] = {}

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        """Start a span named ``name`` under the innermost open span."""
        nid = self._intern(name)
        sid = len(self.start)
        depth = self._open_by_name.get(nid, 0)
        self._open_by_name[nid] = depth + 1
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.nested.append(1 if depth else 0)
        self.end.append(math.nan)
        self._stack.append(sid)
        self.start.append(self.clock())
        return sid

    def close(self, sid: int) -> None:
        """End span ``sid``; it must be the innermost open span."""
        self.end[sid] = self.clock()
        top = self._stack.pop()
        if top != sid:
            raise RuntimeError(f"span {sid} closed while span {top} is open")
        nid = self.name_id[sid]
        self._open_by_name[nid] -= 1

    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name``."""
        self.counts[name] = self.counts.get(name, 0.0) + value

    def wrap(self, fn: Callable, name: str,
             observe: Callable | None = None) -> Callable:
        """A wrapper that runs ``fn`` inside a span named ``name``.

        ``observe(recorder, args, kwargs, result)`` runs after the span
        closes, for counters read off the call's arguments or result.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(sid)
            if observe is not None:
                observe(recorder, args, kwargs, result)
            return result

        return wrapper

    def wrap_items(self, iterable: Iterable, name: str):
        """Iterate ``iterable`` with one span around each item it yields."""
        iterator = iter(iterable)
        while True:
            sid = self.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.close(sid)
            self.count(name + ".items")
            yield item

    # ------------------------------------------------------------------
    def durations(self) -> list[float]:
        """Per-span durations; an unclosed span raises."""
        out = [e - s for s, e in zip(self.start, self.end)]
        if any(math.isnan(d) for d in out):
            raise RuntimeError("spans still open")
        return out

    def save(self, path: str | Path) -> Path:
        """Write the spans and counters as one ``.npz`` file."""
        import numpy as np

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            nested=np.frombuffer(self.nested, dtype=np.int8),
            count_names=np.array(sorted(self.counts), dtype=str),
            count_values=np.array([self.counts[k]
                                   for k in sorted(self.counts)]))
        return path


def self_times(parent: Sequence[int], durations: Sequence[float]
               ) -> list[float]:
    """Each span's duration minus the summed durations of its children.

    Spans recorded on one call stack nest strictly, so a span's direct
    children are disjoint and their summed durations are exactly the
    part of its interval they cover.
    """
    child = [0.0] * len(durations)
    for p, d in zip(parent, durations):
        if p >= 0:
            child[p] += d
    return [d - c for d, c in zip(durations, child)]


@dataclass(frozen=True)
class Tail:
    """A distribution's reportable tail: ``value`` at percentile ``pct``
    (``None`` for both when no ladder percentile has enough samples
    beyond it) over ``count`` samples."""

    pct: float | None
    value: float | None
    count: int


def _rank(pct: float, n: int) -> int:
    """Nearest rank: the ``pct``-th percentile of ``n`` sorted samples is
    the one at rank ``ceil(pct/100 * n)``, counting from 1."""
    return max(1, math.ceil(pct / 100.0 * n))


def percentile(samples: Sequence[float], pct: float) -> float | None:
    """The ``pct``-th percentile of ``samples`` by the nearest-rank rule
    (``None`` for no samples)."""
    ordered = sorted(samples)
    return ordered[_rank(pct, len(ordered)) - 1] if ordered else None


def tail_percentile(samples: Sequence[float]) -> Tail:
    """The highest :data:`PERCENTILE_LADDER` percentile with at least
    :data:`MIN_BEYOND` samples beyond it.

    Percentiles use the nearest-rank rule (:func:`percentile`), so the
    one at rank ``r`` leaves ``n - r`` samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = Tail(None, None, n)
    for pct in PERCENTILE_LADDER:
        rank = _rank(pct, n)
        if n and n - rank >= MIN_BEYOND:
            best = Tail(pct, ordered[rank - 1], n)
    return best


class Installer:
    """Installs wrappers on module and class attributes, and undoes them.

    Each patch remembers the owner's own ``__dict__`` entry, so
    :meth:`uninstall` puts back the identical object — or deletes the
    override when the attribute was inherited rather than defined on
    the owner.
    """

    _MISSING = object()

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._history: list[tuple[object, str, object]] = []

    def install(self, owner: object, attr: str,
                make_wrapper: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make_wrapper(current value)``."""
        own = vars(owner).get(attr, self._MISSING)
        current = getattr(owner, attr)
        if isinstance(own, (staticmethod, classmethod)):
            raise TypeError(f"{owner!r}.{attr} is a {type(own).__name__}; "
                            "only plain functions are wrapped")
        setattr(owner, attr, make_wrapper(current))
        self._patches.append((owner, attr, own))
        self._history.append((owner, attr, own))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest patch first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is self._MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    @property
    def targets(self) -> list[tuple[object, str]]:
        """Every ``(owner, attribute)`` this installer has patched."""
        return [(owner, attr) for owner, attr, _ in self._history]

    def unrestored(self) -> list[str]:
        """Every attribute ever patched that is not back to its original."""
        problems = []
        for owner, attr, own in self._history:
            now = vars(owner).get(attr, self._MISSING)
            if now is not own:
                problems.append(f"{getattr(owner, '__name__', owner)}.{attr}"
                                " was not restored")
        return problems
