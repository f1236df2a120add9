"""The dense reference routes stay out of the production path."""

import ast
import inspect
from pathlib import Path

import pytest

import heisenring
from heisenring import oracle

PACKAGE = Path(heisenring.__file__).parent
ROUTES = ("correlations", "eigen_residuals", "embed", "gibbs_state", "reduce_to_pair")
PRODUCTION = ("model", "spectral", "thermo", "twoqubit", "entanglement", "bell",
              "sweep", "threshold", "cli")


def _imports_oracle(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "heisenring.oracle" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module in ("oracle", "heisenring.oracle"):
                return True
            if module in ("", "heisenring") and any(a.name == "oracle" for a in node.names):
                return True
    return False


def test_detector_sees_every_import_form():
    for line in ("from . import bell, oracle", "from .oracle import embed",
                 "from heisenring.oracle import embed", "import heisenring.oracle",
                 "from heisenring import oracle"):
        assert _imports_oracle(ast.parse(line)), line
    assert not _imports_oracle(ast.parse("from . import model\nfrom .model import embed"))


@pytest.mark.parametrize("module", PRODUCTION)
def test_production_module_does_not_import_oracle(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert not _imports_oracle(tree)


def test_package_exports_no_oracle_name():
    assert not _imports_oracle(ast.parse((PACKAGE / "__init__.py").read_text()))
    defined = [name for name, obj in vars(oracle).items()
               if inspect.isfunction(obj) and obj.__module__ == oracle.__name__]
    assert tuple(sorted(defined)) == ROUTES
    assert not [name for name in defined if hasattr(heisenring, name)]


def test_oracle_is_the_only_home_of_its_routes():
    for path in PACKAGE.glob("*.py"):
        if path.name != "oracle.py":
            tree = ast.parse(path.read_text())
            defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            assert not defined & set(ROUTES), path.name
