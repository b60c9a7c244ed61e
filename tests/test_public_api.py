"""Public-API contract tests.

Guards the package surface: every name a subpackage exports must resolve,
and every public callable/class must carry a docstring -- deliverable (a)'s
"clean, documented public API" as an executable check.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PUBLIC_MODULES = (
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.em",
    "repro.experiments",
    "repro.faults",
    "repro.gen2",
    "repro.harvester",
    "repro.kernels",
    "repro.reader",
    "repro.rf",
    "repro.runtime",
    "repro.sensors",
)


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{module_name} exports nothing"
    for name in exported:
        assert hasattr(module, name), f"{module_name}.{name} missing"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_public_objects_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
    assert not undocumented, f"{module_name}: {undocumented}"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_docstrings(module_name):
    module = importlib.import_module(module_name)
    assert (module.__doc__ or "").strip(), f"{module_name} lacks a docstring"


def test_version_exposed():
    import repro

    assert repro.__version__.count(".") == 2


def test_experiment_modules_have_run():
    """Every figure driver exposes the ``run(config)`` convention."""
    from repro import experiments

    for name in (
        "fig04", "fig05", "fig06", "fig09", "fig10", "fig11", "fig12",
        "fig13", "invivo", "optogenetics", "inventory_throughput",
        "wakeup_latency", "sensitivity", "ber",
    ):
        module = getattr(experiments, name)
        assert callable(getattr(module, "run"))


SRC_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"

REMOVED_NAMES = {
    "ENGINES",
    "SEARCH_MODES",
    "resolve_engine",
    "run_inventory_reference",
    "measure_gain_trials_scalar",
    "power_up_probability_scalar",
    "measure_strategy_gains_scalar",
    "powered_mask_scalar",
    "capture_response_scalar",
}
"""Oracle selectors and reference loops that live only in ``tests``."""


def _source_modules():
    for path in sorted(SRC_ROOT.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_production_code_never_imports_tests():
    """An installed wheel has no ``tests`` package to import."""
    offenders = []
    for path, tree in _source_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                if name == "tests" or name.startswith("tests."):
                    offenders.append(f"{path.relative_to(SRC_ROOT)}: {name}")
    assert not offenders, offenders


def test_removed_oracle_names_not_exported():
    exported = {}
    for path, tree in _source_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                for name in ast.literal_eval(node.value):
                    exported.setdefault(name, []).append(
                        str(path.relative_to(SRC_ROOT))
                    )
    leaked = {
        name: where
        for name, where in exported.items()
        if name in REMOVED_NAMES
    }
    assert not leaked, leaked
