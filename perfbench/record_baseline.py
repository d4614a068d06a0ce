"""Measure every workload over several seeds and record the baseline.

Usage (from the repository root)::

    python3 perfbench/record_baseline.py

For each workload this runs ``perfbench/run.py --trace 0`` once per seed
of :data:`SEEDS`, one after another, then one ``--trace 1`` run on the
first seed.  It
prints, per gated end-to-end metric, the median and the spread (quartile
distance over the median) next to the metric's bound, and writes the
median, quartiles and spread of every host- and simulated-clock metric,
the per-layer numbers, the environment stamp, the workload and metric
descriptions and the layer map to ``perfbench/baseline.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.probes import LAYER_MAP  # noqa: E402
from perfbench.run import BUILD_DIR, HOST_METRICS  # noqa: E402
from perfbench.workloads import SIMULATED_METRICS, WORKLOADS  # noqa: E402


#: The seeds every workload is measured on.
SEEDS = list(range(1, 11))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; returns the full result ``run.py`` wrote."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    full = json.loads((BUILD_DIR / "results" / (
        f"{workload}-seed{seed}-trace{trace}.json")).read_text())
    if not full["result"]["correct"]:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed "
                           f"its checks:\n{proc.stderr[-4000:]}")
    return full


def summarise(values: list[float]) -> dict:
    """Median, quartiles and quartile spread over the median."""
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    metrics = {name: {"unit": unit, "better": better, "clock": clock,
                      "bound": bounds.get(name)}
               for clock, table in (("host", HOST_METRICS),
                                    ("simulated", SIMULATED_METRICS))
               for name, unit, better in table}

    env = None
    workloads = {}
    for name in WORKLOADS:
        runs = [_run(name, seed, seconds, 0) for seed in SEEDS]
        env = runs[-1]["env"]
        end_to_end = {metric: summarise([r["values"][metric] for r in runs])
                      for metric in metrics}
        for metric in bounds:
            row = end_to_end[metric]
            print(f"{name:16s} {metric:22s} median {row['median']:.6g} "
                  f"spread {row['spread']:.3f} (bound {bounds[metric]})",
                  flush=True)
        traced = _run(name, SEEDS[0], seconds, 1)
        workloads[name] = {
            "why": WORKLOADS[name].why,
            "specs_per_run": WORKLOADS[name].count(seconds),
            "end_to_end": end_to_end,
            "per_layer": traced["values"],
            "per_layer_seed": SEEDS[0],
        }
    baseline = {
        "env": env,
        "run_seconds": seconds,
        "seeds": SEEDS,
        "metrics": metrics,
        "layer_map": list(LAYER_MAP),
        "workloads": workloads,
    }
    out = ROOT / "perfbench" / "baseline.json"
    out.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
