"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_replan --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: one
set-up-only child process, then two children that each set up and
execute the workload's specs once, cold.  ``setup_wall_s`` is the
median, over the three children, of the time from spawning a child to
its being ready to run; ``run_wall_s`` sums, over the specs, the faster
of each spec's two wall times, one from each child, so a slow spell of
a shared host counts only if it covers both, and no cache of the
program carries over from the first execution to the second.
``setup_s`` and ``run_s`` are the same with every wall time first
divided by the host slowdown sampled while it ran
(:mod:`perfbench.hostspeed`): the times at a quiet host's speed, which
is what the bounds in ``BENCHMARK.json`` guard.  ``peak_rss_mb`` is the
larger peak of the two run children.
``--trace 1`` runs one untraced child and then one child that executes
the same specs with the layer probes installed, and reports the
per-layer metrics.  Every child is a fresh single-threaded python
process; the machine and the program are stamped on the result
(:func:`environment`).  Reports of the same inputs must agree bit for
bit across every child, traced or not.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; the full result, with the environment stamp, is also
written under ``.bench_build/perfbench/results/``.  The simulated
metrics are also compared with the ones ``perfbench/baseline.json``
recorded for the same seed, and any difference is printed above that
line.  Outside a checkout that holds the program's sources the command
exits with status 2.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform as host
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.probes import PER_LAYER_METRICS  # noqa: E402
from perfbench.workloads import (SIMULATED_METRICS, WORKLOADS,  # noqa: E402
                                 artifact_path)

BUILD_DIR = ROOT / ".bench_build" / "perfbench"

#: Hard wall-clock cap for the whole command, in seconds.
DEADLINE_S = 170.0

#: Thread count every child's BLAS and OpenMP pools are pinned to.
CHILD_THREADS = "1"

#: (metric name, unit, better) of the host-clock metrics, in report order.
HOST_METRICS: tuple[tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("setup_wall_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("run_wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".py", ".c") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> str | None:
    try:
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return probe.stdout.strip() if probe.returncode == 0 else None


def environment(backends: list[str], source: str) -> dict:
    """Where and on what a result was measured.

    Results from different machines, interpreters, BLAS settings or
    solver backends must not be compared silently, so every result
    carries this stamp.
    """
    import numpy

    return {
        "git_sha": _git_sha(),
        "source_sha256": source,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": host.machine(),
        "blas_threads": CHILD_THREADS,
        "solver_backends": backends,
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def _child(args, mode: str, deadline: float, *extra: str) -> dict:
    """Run one worker child to completion; returns its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = CHILD_THREADS
    command = [sys.executable, "-m", "perfbench.worker",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--mode", mode,
               "--build-dir", str(BUILD_DIR),
               "--artifact", str(args.artifact), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} child")
    spawned = time.monotonic()
    command += ["--spawned-at", repr(spawned)]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} child exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} child exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _prepare(args, deadline: float) -> None:
    """Train the estimator artifact the first time a source tree needs it."""
    if WORKLOADS[args.workload].needs_estimator \
            and not args.artifact.is_file():
        _child(args, "prepare", deadline)


def _pooled(runs: list[dict]) -> dict:
    """The children's checks, pooled; the first child's data stands for
    all, so their reports of the same specs must agree."""
    differ = any(r["digests"] != runs[0]["digests"]
                 or r["sim"] != runs[0]["sim"] for r in runs[1:])
    problems = [p for r in runs for p in r["problems"]]
    if differ:
        problems.append("reports differ between processes running the "
                        "same seed")
    attempted = sum(r["attempted"] for r in runs)
    failed = attempted if differ else sum(r["failed"] for r in runs)
    return {**runs[0], "problems": problems, "attempted": attempted,
            "failed": failed, "runs": runs}


def measure_untraced(args, deadline: float) -> tuple[dict, dict]:
    """End-to-end metrics of one untraced run, plus the raw child data."""
    setup = _child(args, "setup", deadline)
    runs = [_child(args, "run", deadline) for _ in range(2)]
    children = [setup] + runs
    values = {"setup_s": statistics.median(c["setup_s"] for c in children),
              "setup_wall_s": statistics.median(c["setup_wall_s"]
                                                for c in children),
              "run_s": sum(map(min, *(r["scaled"] for r in runs))),
              "run_wall_s": sum(map(min, *(r["walls"] for r in runs))),
              "peak_rss_mb": max(r["peak_rss_mb"] for r in runs)}
    raw = _pooled(runs)
    if raw["sim"] is not None:
        values.update(raw["sim"])
    raw["setup_samples"] = [(c["setup_s"], c["setup_wall_s"])
                            for c in children]
    return values, raw


def measure_traced(args, deadline: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, plus the raw child data."""
    untraced = _child(args, "run", deadline)
    traced = _child(args, "trace", deadline, "--untraced-run-s",
                    repr(sum(untraced["scaled"])))
    raw = _pooled([untraced, traced])
    return traced["layers"], raw


def _print_table(title: str, rows: list[tuple], values: dict) -> None:
    print(title)
    for name, unit, *_ in rows:
        value = values.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<34s} {shown:>14s} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    source = _source_digest()
    args.artifact = artifact_path(BUILD_DIR / "estimator" / source[:16])
    try:
        _prepare(args, deadline)
        if args.trace:
            values, raw = measure_traced(args, deadline)
            rows = list(PER_LAYER_METRICS)
        else:
            values, raw = measure_untraced(args, deadline)
            rows = list(HOST_METRICS) + list(SIMULATED_METRICS)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    env = environment(raw["backends"], source)
    _check_repeat(args, raw, source)
    if not args.trace:
        for note in _baseline_differences(args, values):
            print(f"note: {note}")
    for problem in raw["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    _print_table(f"{args.workload} seed={args.seed} trace={args.trace} "
                 f"({raw['specs']} specs)", rows, values)
    print(json.dumps({"env": env}, sort_keys=True))

    correct = not raw["problems"] and raw["failed"] == 0 \
        and all(values.get(name) is not None for name, *_ in rows)
    units = {name: unit for name, unit, *_ in rows}
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in _reported(args.trace) if name in values}
    result = {"correct": correct, "attempted": max(1, raw["attempted"]),
              "failed": raw["failed"], "metrics": metrics}
    out = BUILD_DIR / "results" / (f"{args.workload}-seed{args.seed}"
                                   f"-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"result": result, "env": env,
                               "values": values, "raw": raw},
                              indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


def _check_repeat(args, raw: dict, source: str) -> None:
    """Compare this run's reports with earlier runs of the same inputs.

    Simulated results are deterministic, so every run of the same specs
    on the same source tree — untraced or traced, in any process — must
    produce bit-identical reports.  The first run records their digests;
    later runs must match them.  The record is keyed by the program's
    sources, the specs and the file that tallies the simulated metrics.
    """
    if raw["sim"] is None:
        return
    record = {"digests": raw["digests"], "sim": raw["sim"]}
    tally = (ROOT / "perfbench" / "workloads.py").read_bytes()
    key = hashlib.sha256((source + raw["spec_digest"]).encode()
                         + tally).hexdigest()
    path = BUILD_DIR / "digests" / f"{args.workload}-{key[:24]}.json"
    if path.is_file():
        if json.loads(path.read_text()) != record:
            raw["problems"].append("reports differ from an earlier run of "
                                   "the same seed")
            raw["failed"] = raw["attempted"]
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record))


def _baseline_differences(args, values: dict) -> list[str]:
    """Simulated metrics that differ from the baseline's for this seed.

    Simulated results are deterministic, so on the source tree the
    baseline was recorded on they repeat it exactly; a difference shows
    a change in what the program computes, not in how fast.
    """
    path = ROOT / "perfbench" / "baseline.json"
    if not path.is_file():
        return []
    baseline = json.loads(path.read_text())
    if baseline["run_seconds"] != args.seconds \
            or args.seed not in baseline["seeds"] \
            or args.workload not in baseline["workloads"]:
        return []
    index = baseline["seeds"].index(args.seed)
    recorded = baseline["workloads"][args.workload]["end_to_end"]
    notes = []
    for name, *_ in SIMULATED_METRICS:
        if name in recorded and name in values \
                and recorded[name]["values"][index] != values[name]:
            notes.append(f"{name} {values[name]!r} differs from "
                         f"{recorded[name]['values'][index]!r} recorded "
                         f"in the baseline for seed {args.seed}")
    return notes


def _reported(trace: int) -> list[str]:
    """The metric names ``BENCHMARK.json`` declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


if __name__ == "__main__":
    sys.exit(main())
