"""Output checks applied to every report a benchmark run produces.

Each check returns a list of human-readable problems; an empty list
means the report passed.  A run whose report fails any check counts all
of its offered sessions as failed operations.
"""

from __future__ import annotations

import math

__all__ = ["check_serve_report", "check_fleet_report", "TERMINAL_OUTCOMES"]

#: Every terminal state a session may end in (``repro.serve.report``).
TERMINAL_OUTCOMES = ("served", "serving", "rejected", "abandoned",
                     "queued", "out_of_horizon", "evicted")

_SESSION_AMOUNTS = ("queue_wait_s", "served_seconds", "delivered_inferences",
                    "gap_seconds", "violation_seconds")


def _finite_non_negative(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) \
        and value >= 0


def check_serve_report(report, where: str = "node",
                       contiguous_ids: bool = True) -> list[str]:
    """Session conservation plus finite, non-negative amounts.

    Conservation: the outcome counts sum to ``arrivals``, every session
    id is unique, and — for a node that generated its own trace
    (``contiguous_ids``) — the ids are exactly ``0..arrivals-1``, so no
    offered session vanished from the report.
    """
    problems: list[str] = []
    sessions = report.sessions
    counts = {outcome: 0 for outcome in TERMINAL_OUTCOMES}
    for s in sessions:
        if s.outcome not in counts:
            problems.append(f"{where}: session {s.session_id} has unknown "
                            f"outcome {s.outcome!r}")
            continue
        counts[s.outcome] += 1
    if sum(counts.values()) != report.arrivals:
        problems.append(f"{where}: outcome counts {counts} do not sum to "
                        f"{report.arrivals} arrivals")
    ids = [s.session_id for s in sessions]
    if len(set(ids)) != len(ids):
        problems.append(f"{where}: duplicate session ids")
    elif contiguous_ids and sorted(ids) != list(range(len(ids))):
        problems.append(f"{where}: session ids are not 0..{len(ids) - 1}")
    for s in sessions:
        bad = [name for name in _SESSION_AMOUNTS
               if not _finite_non_negative(getattr(s, name))]
        if bad:
            problems.append(f"{where}: session {s.session_id} has "
                            f"non-finite or negative {bad}")
            break
        if s.gap_seconds > s.served_seconds * (1 + 1e-9) + 1e-9 \
                or s.violation_seconds > s.served_seconds * (1 + 1e-9) + 1e-9:
            problems.append(f"{where}: session {s.session_id} has more gap "
                            "or violation time than served time")
            break
        if not _finite_non_negative(s.mean_rate):
            problems.append(f"{where}: session {s.session_id} has rate "
                            f"{s.mean_rate!r}")
            break
    if not _finite_non_negative(report.total_decision_seconds):
        problems.append(f"{where}: decision seconds "
                        f"{report.total_decision_seconds!r}")
    return problems


def check_fleet_report(report, offered: int) -> list[str]:
    """Fleet conservation plus every node's own checks and the power ledger.

    ``offered`` is the number of sessions in the fleet's sampled demand.
    Routed sessions (minus re-dispatched continuations, which appear on
    two nodes) plus lost, power-shed and out-of-horizon demand must
    cover exactly that many arrivals.
    """
    problems: list[str] = []
    covered = (sum(node.routed for node in report.nodes)
               - report.re_dispatched + report.lost + report.shed
               + report.out_of_horizon)
    if covered != offered or report.arrivals != offered:
        problems.append(f"fleet: routed {sum(n.routed for n in report.nodes)}"
                        f" - re-dispatched {report.re_dispatched} + lost "
                        f"{report.lost} + shed {report.shed} + out of "
                        f"horizon {report.out_of_horizon} != {offered} "
                        "offered")
    for node in report.nodes:
        if node.report.arrivals != node.routed:
            problems.append(f"{node.name}: served {node.report.arrivals} "
                            f"sessions but {node.routed} were routed")
        problems += check_serve_report(node.report, where=node.name,
                                       contiguous_ids=False)
    power = report.power
    if power is not None:
        amounts = tuple(power.node_energy_ws) + tuple(power.node_over_cap_ws)
        if not all(_finite_non_negative(v) for v in amounts):
            problems.append("fleet: non-finite or negative energy ledger")
    return problems
