"""The package ships only what its pipeline and CLI run. The reference
implementations the tests compare it with live in tests/_oracles.py, which
no module of esvm imports."""

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
    as both a and a.b."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_no_package_module_imports_the_tests_or_scipy_signal():
    sources = sorted(Path(esvm.__file__).resolve().parent.glob("*.py"))
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
