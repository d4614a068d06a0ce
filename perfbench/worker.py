"""Child process of one benchmark measurement.

``python3 -m perfbench.worker --workload W --seed S --seconds T --mode M
--spawned-at CLOCK --build-dir DIR --artifact PATH`` with ``repro``
importable.  Modes:

* ``prepare`` — build what the workload needs once per source tree (the
  estimator artifact at ``--artifact``); not timed;
* ``setup`` — import, build platforms, managers and models, load the
  artifact, and report the time from spawn to ready, as measured and at
  a quiet host's speed (:mod:`perfbench.hostspeed`);
* ``run`` — set up, then execute every spec of the workload once, cold
  and timed, with the host speed sampled; check every report; report
  timings, peak memory, the simulated metrics and a digest of every
  report;
* ``trace`` — the same execution with the layer probes installed; check
  that every probe was uninstalled, and report the per-layer metrics
  (``--untraced-run-s`` is the untraced run time the tracing overhead
  is measured against).

Each mode runs once per process, so no module-level cache of the
program carries over from one timed execution to another; the caller
compares the reports of separate processes.  The last line on stdout is
one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pickle
import resource
import sys
import time
import traceback
from pathlib import Path

from .checks import check_fleet_report, check_serve_report
from .hostspeed import HostSpeed
from .workloads import WORKLOADS, SimulatedTally, estimator_artifact


def _execute(workload, spec):
    from repro.runner import ScenarioRunner, execute_dynamic_scenario

    if workload.kind == "fleet":
        return ScenarioRunner(max_workers=1).run_fleet([spec])[0]
    return execute_dynamic_scenario(spec)


def _nodes(workload, specs) -> list:
    """The node specs a workload's specs serve on."""
    if workload.kind == "fleet":
        return [node for spec in specs for node in spec.nodes]
    return list(specs)


def _setup(workload, specs) -> None:
    """Everything a run needs before its first cold execution.

    A node that asks for the estimator must get it: the runner replaces
    an artifact trained for another platform by the oracle predictor
    with only a warning, which would time the wrong path.
    """
    from repro.core.predictor import EstimatorPredictor
    from repro.runner.runner import PLATFORM_SPECS, build_manager
    from repro.sim import EvaluationCache
    from repro.zoo import MODEL_POOL, get_model

    nodes = _nodes(workload, specs)
    pools = {name for node in nodes for name in (node.pool or MODEL_POOL)}
    for name in sorted(pools):
        get_model(name)
    built = set()
    for node in nodes:
        key = (node.platform, node.manager, node.predictor)
        if key in built:
            continue
        built.add(key)
        platform = PLATFORM_SPECS[node.platform]()
        manager = build_manager(node, platform, EvaluationCache(platform))
        if node.predictor == "estimator" and not isinstance(
                manager.predictor, EstimatorPredictor):
            replaced = type(manager.predictor).__name__
            raise RuntimeError(f"{node.name}: the estimator predictor was "
                               f"replaced by {replaced}")


def _digest(result) -> str:
    return hashlib.sha256(pickle.dumps(result.report, protocol=4)).hexdigest()


class Pass:
    """One cold execution of every spec: timings, checks and digests.

    Each result is checked, digested and folded into the simulated
    tally as soon as its execution is timed, then dropped, so memory
    holds one spec's report at a time.
    """

    def __init__(self, workload, specs, offered):
        self.workload = workload
        self.specs = specs
        self.offered = offered           # fleet demand sizes, or None
        self.walls: list[float] = []
        self.slowdowns: list[float] = []
        self.digests: list[str | None] = []
        self.tally = SimulatedTally()
        self.problems: list[str] = []
        self.attempted = self.failed = 0

    def run(self, recorder=None) -> "Pass":
        """Execute every spec with the host speed sampled alongside, each
        inside a root span when ``recorder`` is given."""
        for index, spec in enumerate(self.specs):
            sid = recorder.open("run") if recorder is not None else None
            with HostSpeed() as speed:
                t0 = time.perf_counter()
                try:
                    result = _execute(self.workload, spec)
                except Exception:
                    result = None
                    self.problems.append(f"{spec.name}: "
                                         f"{traceback.format_exc()}")
                finally:
                    self.walls.append(time.perf_counter() - t0)
                    if recorder is not None:
                        recorder.close(sid)
            self.slowdowns.append(speed.slowdown())
            self._assess(index, spec, result)
        return self

    @property
    def scaled(self) -> list[float]:
        """Per-spec wall time at the quiet host's speed."""
        return [w / f for w, f in zip(self.walls, self.slowdowns)]

    def _assess(self, index, spec, result) -> None:
        if result is None:
            self.attempted += 1
            self.failed += 1
            self.digests.append(None)
            return
        if self.offered is not None:
            found = check_fleet_report(result.report, self.offered[index])
        else:
            found = check_serve_report(result.report, where=spec.name)
        self.attempted += result.report.arrivals
        if found:
            self.problems += found
            self.failed += result.report.arrivals
        self.digests.append(_digest(result))
        self.tally.add(result)

    @property
    def sim(self) -> dict | None:
        """Pooled simulated metrics; ``None`` when any spec raised."""
        return None if None in self.digests else self.tally.metrics()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("prepare", "setup", "run", "trace"))
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--build-dir", type=Path, required=True)
    parser.add_argument("--artifact", type=Path, required=True)
    parser.add_argument("--untraced-run-s", type=float)
    args = parser.parse_args(argv)
    if args.mode == "trace" and not args.untraced_run_s:
        parser.error("--mode trace needs --untraced-run-s")

    workload = WORKLOADS[args.workload]
    if args.mode == "prepare":
        if workload.needs_estimator:
            estimator_artifact(args.artifact)
        print(json.dumps({"prepared": True}))
        return
    artifact = args.artifact if workload.needs_estimator else None
    with HostSpeed() as speed:
        specs = workload.build(args.seed, args.seconds, artifact)
        _setup(workload, specs)
    setup_wall = time.monotonic() - args.spawned_at
    out: dict = {"setup_s": setup_wall / speed.slowdown(),
                 "setup_wall_s": setup_wall,
                 "backends": sorted({node.backend
                                     for node in _nodes(workload, specs)}),
                 "specs": len(specs),
                 "spec_digest": hashlib.sha256(
                     repr(specs).encode()).hexdigest()}
    if args.mode == "setup":
        print(json.dumps(out))
        return

    offered = None
    if workload.kind == "fleet":
        from repro.runner import sample_fleet_requests

        offered = [len(sample_fleet_requests(spec)) for spec in specs]
    if args.mode == "run":
        done = Pass(workload, specs, offered).run()
        out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024.0)
        problems = done.problems
    else:
        from .probes import install_layer_probes, layer_metrics
        from .spans import SpanRecorder

        recorder = SpanRecorder()
        installer = install_layer_probes(recorder)
        try:
            done = Pass(workload, specs, offered).run(recorder)
        finally:
            installer.uninstall()
        problems = installer.unrestored() + done.problems
        out["layers"] = layer_metrics(
            recorder,
            overhead_frac=sum(done.scaled) / args.untraced_run_s - 1,
            over_cap_ws=(done.sim or {}).get("over_cap_ws", 0.0))
        out["spans_file"] = str(recorder.save(
            args.build_dir / "spans"
            / f"{args.workload}-seed{args.seed}.npz"))
    out.update(walls=done.walls, scaled=done.scaled, digests=done.digests,
               sim=done.sim, problems=problems, attempted=done.attempted,
               failed=done.failed)
    print(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())
