"""The package's public API surface: everything in __all__ exists and more."""

import importlib
import re
from pathlib import Path

import pytest

MODULES = [
    "repro",
    "repro.tensor",
    "repro.nn",
    "repro.optim",
    "repro.data",
    "repro.models",
    "repro.core",
    "repro.eval",
    "repro.train",
    "repro.analysis",
    "repro.experiments",
    "repro.utils",
]


class TestPublicSurface:
    @pytest.mark.parametrize("module_name", MODULES)
    def test_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", None)
        assert exported, f"{module_name} should declare __all__"
        for name in exported:
            assert hasattr(module, name), f"{module_name}.{name} missing"

    @pytest.mark.parametrize("module_name", MODULES)
    def test_module_docstrings(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__) > 20

    def test_version(self):
        import repro

        assert repro.__version__.count(".") == 2

    def test_version_matches_pyproject(self):
        import repro

        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        declared = re.search(r'^version = "([^"]+)"', pyproject.read_text(),
                             re.MULTILINE)
        assert declared, "pyproject.toml declares no [project] version"
        assert repro.__version__ == declared.group(1)

    def test_headline_names(self):
        import repro

        for name in ("ISRec", "ISRecConfig", "IntentTracer", "load_dataset",
                     "split_leave_one_out", "RankingEvaluator", "TrainConfig",
                     "quick_isrec"):
            assert hasattr(repro, name)

    def test_no_accidental_torch_dependency(self):
        """The whole point: the package must import without deep-learning
        frameworks installed."""
        import sys

        for module_name in MODULES:
            importlib.import_module(module_name)
        assert "torch" not in sys.modules
        assert "tensorflow" not in sys.modules
