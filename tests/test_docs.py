"""Docs-subsystem guards: intra-repo links + public-API docstring coverage.

Two cheap tier-1 checks keep the new ``docs/`` subsystem honest:

* every relative link in the repo's markdown (README, ROADMAP, docs/*)
  must resolve to a real file — the same check ``make docs-check`` runs
  via ``tools/check_links.py``;
* every public symbol of ``repro.serve``, ``repro.serve.fleet``,
  ``repro.runner``, ``repro.estimator`` and ``repro.core`` (modules,
  classes, functions, public methods and properties) must carry a real
  docstring — a pydocstyle-lite gate for the subsystems the docs
  describe.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The documented public surface the docstring gate covers.
API_MODULES = (
    "repro.serve",
    "repro.serve.admission",
    "repro.serve.loop",
    "repro.serve.preempt",
    "repro.serve.replan",
    "repro.serve.report",
    "repro.serve.fleet",
    "repro.serve.fleet.routing",
    "repro.serve.fleet.dispatch",
    "repro.serve.fleet.report",
    "repro.serve.fleet.power",
    "repro.runner",
    "repro.runner.runner",
    "repro.runner.scenario",
    "repro.estimator",
    "repro.estimator.artifact",
    "repro.estimator.dataset",
    "repro.estimator.finetune",
    "repro.estimator.metrics",
    "repro.estimator.model",
    "repro.estimator.train",
    "repro.core",
    "repro.core.manager",
    "repro.core.power",
    "repro.core.predictor",
    "repro.core.priorities",
    "repro.obs",
    "repro.obs.registry",
    "repro.obs.recorder",
    "repro.obs.export",
    "repro.sim.backend",
)


def _load_check_links():
    spec = importlib.util.spec_from_file_location(
        "check_links", REPO_ROOT / "tools" / "check_links.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ------------------------------------------------------------------ links
class TestDocsLinks:
    def test_docs_exist(self):
        assert (REPO_ROOT / "docs" / "architecture.md").is_file()
        assert (REPO_ROOT / "docs" / "serving.md").is_file()

    def test_intra_repo_links_resolve(self):
        checker = _load_check_links()
        errors = checker.check_links(REPO_ROOT)
        assert errors == [], "broken markdown links:\n" + "\n".join(errors)

    def test_checker_flags_broken_link(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text(
            "[ok](docs/a.md) and [broken](docs/missing.md)")
        (tmp_path / "docs" / "a.md").write_text("hello")
        checker = _load_check_links()
        errors = checker.check_links(tmp_path)
        assert len(errors) == 1 and "missing.md" in errors[0]

    def test_checker_ignores_external_links(self, tmp_path):
        (tmp_path / "README.md").write_text(
            "[web](https://example.com) [mail](mailto:a@b.c) [anchor](#x)")
        checker = _load_check_links()
        assert checker.check_links(tmp_path) == []


# ------------------------------------------------------- docstring gate
def _missing_member_docs(cls: type, qualname: str) -> list[str]:
    missing = []
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            doc = member.fget.__doc__ if member.fget else None
        elif isinstance(member, (staticmethod, classmethod)):
            doc = member.__func__.__doc__
        elif inspect.isfunction(member):
            doc = member.__doc__
        else:
            continue                      # class attrs / dataclass fields
        if not doc or not doc.strip():
            missing.append(f"{qualname}.{name}")
    return missing


@pytest.mark.parametrize("module_name", API_MODULES)
def test_public_api_has_docstrings(module_name):
    module = importlib.import_module(module_name)
    missing: list[str] = []
    if not (module.__doc__ or "").strip():
        missing.append(module_name)
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name)
        qualname = f"{module_name}.{name}"
        if isinstance(obj, type):
            doc = (obj.__doc__ or "").strip()
            # A dataclass without an explicit docstring gets its signature
            # as __doc__ — that is not documentation.
            if not doc or doc.startswith(f"{obj.__name__}("):
                missing.append(qualname)
            missing.extend(_missing_member_docs(obj, qualname))
        elif inspect.isroutine(obj):
            if not (obj.__doc__ or "").strip():
                missing.append(qualname)
        # Constants (tier names, rosters, type aliases) carry their docs
        # in the module docstring or `#:` comments; nothing to assert.
    assert missing == [], \
        "public symbols missing docstrings:\n" + "\n".join(missing)
