"""The compiled provider's cold-build, no-compiler and lazy-probe paths.

The provider probe and the C build are memoised per process, so every
case runs in a fresh interpreter with its own environment: an empty
build directory, a ``PATH`` without any C compiler, or a plain import.
"""

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.sim import _cext

SRC = Path(__file__).resolve().parents[1] / "src"
COMPILERS = ("cc", "gcc", "clang")
HAS_COMPILER = any(shutil.which(name) for name in COMPILERS)


def _run(code: str, tmp_path: Path, **env_overrides) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON line."""
    env = dict(os.environ, PYTHONPATH=str(SRC),
               REPRO_CEXT_BUILD_DIR=str(tmp_path / "build"))
    env.update(env_overrides)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.skipif(not HAS_COMPILER, reason="no C compiler on PATH")
def test_empty_build_dir_builds_a_loadable_library(tmp_path):
    out = _run("""
        import json
        from repro.sim import _cext
        print(json.dumps({"loaded": _cext.load_solver() is not None}))
        """, tmp_path)
    assert out == {"loaded": True}
    built = list((tmp_path / "build").glob("_csolver-*.so"))
    assert len(built) == 1


@pytest.mark.skipif(not HAS_COMPILER, reason="no C compiler on PATH")
def test_compiler_on_path_resolves_cext(tmp_path):
    """A host with a compiler must get the native kernel: a silently
    broken build would hand every solve back to numpy."""
    out = _run("""
        import json
        from repro.sim import compiled_provider
        print(json.dumps({"provider": compiled_provider()}))
        """, tmp_path)
    assert out == {"provider": "cext"}


def test_no_compiler_falls_back_once_with_identical_reports(tmp_path):
    """Without ``cc``/``gcc``/``clang`` on ``PATH`` (and no cached
    library) the default backend warns exactly once and serves the same
    report the numpy backend does."""
    empty_bin = tmp_path / "bin"
    empty_bin.mkdir()
    out = _run("""
        import json, warnings
        from repro.runner import DynamicScenario, execute_dynamic_scenario
        from repro.sim import compiled_provider

        spec = dict(name="x", manager="rankmap_d", horizon_s=240.0,
                    arrival_rate_per_s=1 / 30, capacity=2,
                    pool=("alexnet", "squeezenet", "mobilenet_v2"),
                    search_iterations=6)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            default = execute_dynamic_scenario(DynamicScenario(**spec))
            numpy = execute_dynamic_scenario(
                DynamicScenario(backend="numpy", **spec))
        print(json.dumps({
            "provider": compiled_provider(),
            "backend": DynamicScenario(name="d").backend,
            "runtime_warnings": [str(w.message) for w in caught
                                 if issubclass(w.category, RuntimeWarning)],
            "replans": default.report.replans,
            "equal": default.report == numpy.report}))
        """, tmp_path, PATH=str(empty_bin))
    assert out["provider"] is None
    assert out["backend"] == "compiled"
    assert len(out["runtime_warnings"]) == 1
    assert "falling back to the numpy backend" in out["runtime_warnings"][0]
    assert out["replans"] > 0
    assert out["equal"] is True


def test_import_and_scenario_construction_never_compile(tmp_path):
    """The probe is lazy: importing the package and building scenarios
    (the benchmark's set-up) must not touch the compiler."""
    out = _run("""
        import json, subprocess, sys

        def refuse(*args, **kwargs):
            raise AssertionError("compiler invoked during set-up")

        subprocess.run = refuse
        import repro
        from repro.runner import (DynamicScenario, FleetScenario, Scenario,
                                  dynamic_sweep_scenarios,
                                  fleet_sweep_scenarios)
        from repro.sim import backend

        Scenario(name="s", workload=("alexnet",))
        FleetScenario(name="f", nodes=(DynamicScenario(name="n"),))
        dynamic_sweep_scenarios(traces_per_cell=1)
        fleet_sweep_scenarios(traces_per_cell=1, num_nodes=2)
        print(json.dumps({"probed": backend._provider_probed,
                          "cext_loaded": "repro.sim._cext" in sys.modules}))
        """, tmp_path)
    assert out == {"probed": False, "cext_loaded": False}
    assert not (tmp_path / "build").exists()


@pytest.mark.skipif(not HAS_COMPILER, reason="no C compiler on PATH")
@pytest.mark.parametrize("bad", ["strided", "float32", "empty"])
def test_kernel_call_rejects_arrays_it_cannot_address(bad):
    """Raw pointers go to C only for non-empty, C-contiguous arrays of
    the declared dtype; anything else raises before the call."""
    weights = {"strided": np.ones(4)[::2],
               "float32": np.ones(2, dtype=np.float32),
               "empty": np.ones(0)}[bad]
    stages = np.ones(2)
    out = [np.zeros((1, 1)), np.zeros(2), np.zeros(2), np.zeros((1, 1)),
           np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.uint8)]
    with pytest.raises(TypeError):
        _cext.solve_packed_c(
            np.array([0, 2]), np.zeros(2, dtype=np.int64),
            np.zeros(2, dtype=np.int64), stages, stages, stages, weights,
            1, 1, 10, 0.85, 1e-8, 40, 0.03, 150, *out)
