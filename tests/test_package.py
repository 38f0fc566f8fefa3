import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import opcov

_MODULES = ["opcov." + name for name in opcov.__all__] + ["opcov.cli", "opcov._svg"]
_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("module", _MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names {missing} that do not exist"


def _names_in_code() -> set[str]:
    """Every Name and Attribute in the library and the benchmark, plus the
    benchmark's string constants (it wraps library functions by name)."""
    found = set()
    for directory in ("src/opcov", "perfbench"):
        for path in sorted((_ROOT / directory).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    found.add(node.id)
                elif isinstance(node, ast.Attribute):
                    found.add(node.attr)
                elif directory == "perfbench" and isinstance(node, ast.Constant) \
                        and isinstance(node.value, str):
                    found.add(node.value)
    return found


@pytest.mark.parametrize("module", _MODULES)
def test_every_exported_name_is_reached(module):
    # an exported name that only the tests use belongs with the tests
    found = _names_in_code()
    unreached = [name for name in importlib.import_module(module).__all__ if name not in found]
    assert not unreached, f"{module}.__all__ names {unreached} that no library or benchmark code uses"


def test_only_estimation_builds_operators():
    # every operand (truth, Gram product, difference) has its one constructor
    # in estimation; another module borrows them instead of building a closure
    users = {path.name for path in (_ROOT / "src/opcov").glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if "LinearOperator" in (getattr(node, "id", None), getattr(node, "attr", None),
                                     getattr(node, "name", None))}
    assert users == {"estimation.py"}


def test_cli_builds_each_run_object_once():
    # ExperimentConfig.validate builds the mesh, rule, kernels and observation
    # model it checks, and every command runs on those
    calls = [getattr(node.func, "id", None) or getattr(node.func, "attr", None)
             for node in ast.walk(ast.parse((_ROOT / "src/opcov/cli.py").read_text()))
             if isinstance(node, ast.Call)]
    constructors = ("build_mesh", "ThresholdRule", "parse_kernel", "pointwise_observation")
    assert {name: calls.count(name) for name in constructors} == dict.fromkeys(constructors, 1)


def test_import_loads_no_integrate_optimize_or_spatial():
    # the library needs scipy.linalg and .sparse only; scipy.integrate alone
    # would pull in optimize, fft, spatial and constants, and the Matern
    # closed forms need no special function
    code = ("import opcov, opcov.cli, sys; print(sorted(m for m in sys.modules if "
            "m.split('.')[:2] in (['scipy', 'integrate'], ['scipy', 'optimize'], "
            "['scipy', 'spatial'], ['scipy', 'special'])))")
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.strip() == "[]"
