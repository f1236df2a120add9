"""The dense reference routes: the Gibbs matrix they build, and that they
stay out of the production path."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import heisenring
from heisenring import ModelSpec, build_hamiltonian, decompose, diagonalize_full, oracle
from heisenring.model import SIGMA_Y
from heisenring.thermo import thermo_grid
from helpers import eigenvector_matrix, random_general_spec

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


def _gibbs_by_matrix_product(sd, p):
    """V diag(p) V^dagger over the full eigenvector matrix V, p one row of a thermo_grid."""
    v = eigenvector_matrix(sd)
    return (v * p) @ v.conj().T


@pytest.mark.parametrize("spec", [
    pytest.param(ModelSpec.uniform(6, 1.0, 0.5, 0.3), id="uniform-N6"),
    pytest.param(ModelSpec.uniform(4, -1.0), id="uniform-N4-fm"),
    pytest.param(random_general_spec(5, seed=3, field_b=0.3), id="general-N5"),
])
def test_gibbs_state_is_real_for_real_eigenvectors(spec):
    # the dense diagonalisation of the real H and the sector blocks alike
    temps = (0.0, 0.3, 2.0)
    for sd in (diagonalize_full(build_hamiltonian(spec)), decompose(spec)):
        for t, p in zip(temps, thermo_grid(sd, temps).probabilities):
            rho = oracle.gibbs_state(sd, t)
            assert rho.dtype == np.float64
            assert np.max(np.abs(rho - _gibbs_by_matrix_product(sd, p))) <= 1e-15


def test_gibbs_state_is_complex_for_complex_eigenvectors():
    # a lone sigma_y field on site 2 makes H complex Hermitian
    n = 4
    h = build_hamiltonian(ModelSpec.uniform(n, 1.0, 0.5)) + 0.3 * oracle.embed(SIGMA_Y, (2,), n)
    assert np.max(np.abs(h.imag)) > 0.0
    sd = diagonalize_full(h)
    temps = (0.0, 0.7)
    # thermo_grid reads the ring size off the spectrum's dimension
    probabilities = thermo_grid(sd, temps).probabilities
    for t, p in zip(temps, probabilities):
        rho = oracle.gibbs_state(sd, t)
        assert rho.dtype == np.complex128
        assert np.max(np.abs(rho.imag)) > 0.0
        assert np.max(np.abs(rho - _gibbs_by_matrix_product(sd, p))) <= 1e-15


def test_correlations_of_a_stack_match_each_state():
    # the operators are embedded once for the stack; each trace stays one
    # sum over one state, so every entry equals the one-state call exactly
    sd = decompose(ModelSpec.uniform(4, 1.0, 0.5, 0.3))
    rhos = np.stack([oracle.gibbs_state(sd, t) for t in (0.0, 0.4, 2.5)])
    stacked = oracle.correlations(rhos, 2, 3)
    assert stacked.g.shape == (3, 3, 3) and stacked.m_per_site.shape == (3,)
    for r, rho in enumerate(rhos):
        one = oracle.correlations(rho[None], 2, 3)
        assert np.array_equal(stacked.g[r], one.g[0])
        assert stacked.m_per_site[r] == one.m_per_site[0]
