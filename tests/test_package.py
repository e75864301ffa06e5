"""The package ships only what its pipeline and CLI run. The reference
implementations the tests compare it with live in tests/_oracles.py, which
no module of esvm imports. Each piece has one owner: the regression targets
alone use scipy.special, and their private helpers stay in esvm.targets."""

import ast
import importlib
import pkgutil
from pathlib import Path

import esvm

import _oracles

# the test-only names, by the esvm module that held them
MOVED = {
    "variance": ("trapezoid_kernel", "sample_autocovariance", "empirical_variance",
                 "quadratic_form_apply", "weight_matrix_oracle", "power_iteration_norm"),
    "targets": ("ar1_reference", "finite_difference_gradient"),
    "stein": ("stein_value", "feature_row"),
    "harness": ("vrf", "equals_modulo_run_info"),
}


def _esvm_modules():
    return [esvm] + [importlib.import_module(f"esvm.{info.name}")
                     for info in pkgutil.iter_modules(esvm.__path__)]


def _imported_modules(path: Path) -> set:
    """Absolute module names a source file imports, `from a import b` read
    as both a and a.b, and a relative import read from the package esvm."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module if node.level == 0 else ".".join(
                filter(None, ("esvm", node.module)))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def _package_sources() -> list:
    return sorted(Path(esvm.__file__).resolve().parent.glob("*.py"))


def test_no_package_module_imports_the_tests_or_scipy_signal():
    sources = _package_sources()
    assert len(sources) > 1
    for path in sources:
        for name in _imported_modules(path):
            top = name.split(".")[0]
            assert top not in ("_oracles", "tests", "conftest"), (path.name, name)
            assert not (name + ".").startswith("scipy.signal."), (path.name, name)


def test_test_only_names_left_the_package():
    modules = _esvm_modules()
    for names in MOVED.values():
        for name in names:
            assert hasattr(_oracles, name), name
            assert [m.__name__ for m in modules if hasattr(m, name)] == [], name
    assert not hasattr(esvm.harness.VRFReport, "equals_modulo_run_info")
    # deleted, not moved: nothing called them
    assert not hasattr(esvm.stein, "rbf_response")
    assert not hasattr(esvm.variance.SpectralVariance, "clamped")


def test_only_the_targets_import_scipy_special():
    importers = {path.name for path in _package_sources()
                 if any((name + ".").startswith("scipy.special.")
                        for name in _imported_modules(path))}
    assert importers == {"targets.py"}


def test_no_module_imports_a_private_name_of_the_targets():
    private = {(path.name, name) for path in _package_sources()
               for name in _imported_modules(path)
               if name.startswith("esvm.targets._")}
    assert private == set()
    # the scan reads relative imports
    assert "esvm.targets.TargetModel" in _imported_modules(
        Path(esvm.harness.__file__).resolve())
