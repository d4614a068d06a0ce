"""Cold end-to-end benchmark of the RankMap reproduction.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload through the public ``repro.runner``
entry points in fresh child processes and prints one JSON result line.
``BENCHMARK.json`` at the repository root names the workloads and the
metrics; the modules here are:

* :mod:`perfbench.workloads` — workload definitions (scenario specs built
  from the seed) and the simulated-clock metrics pooled over them;
* :mod:`perfbench.checks` — output checks run on every report;
* :mod:`perfbench.spans` — the outside-in span recorder and the
  wrapper installer used by traced runs;
* :mod:`perfbench.probes` — which public callables of which layer the
  traced run wraps, and the per-layer metrics derived from the spans;
* :mod:`perfbench.worker` — the child process that sets up and runs;
* :mod:`perfbench.run` — the command-line entry point.
"""
