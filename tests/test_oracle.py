"""The reference routes: the Gibbs matrix they build, and that they stay
out of the production path."""

import ast
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import heisenring
from heisenring import ModelSpec, decompose, oracle
from heisenring.model import SIGMA_Y
from heisenring.oracle import build_hamiltonian, diagonalize_full
from heisenring.thermo import thermo_grid
from helpers import eigenvector_matrix, random_general_spec

PACKAGE = Path(heisenring.__file__).parent
SRC = str(PACKAGE.parent)
ROUTES = ("_draw_frames", "_log_z", "_real_part", "build_hamiltonian", "check_derivatives",
          "check_element_relations", "chsh_expectation", "correlations",
          "diagonalize_full", "eigen_residuals", "embed", "expected_sector_sizes",
          "frame_chunks", "frame_expectations", "gibbs_state", "hermiticity_defect", "optimal_frame",
          "parity_basis", "random_frame_search", "random_frames", "reduce_to_pair",
          "sector_basis", "zz_from_log_z")
# the class and the constants that live beside the routes
COMPANIONS = ("DELTA_STEP", "FIELD_STEP", "FULL_PATH_MAX_SITES", "MeasurementFrame",
              "_REAL_PAIR_PAULI", "_REAL_SIGMA_Z")
PRODUCTION = ("model", "spectral", "thermo", "twoqubit", "entanglement", "bell",
              "sweep", "threshold", "cli")
VERIFY_PATH = {"cli": ("parse_verify_options", "cmd_verify")}


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
    # anywhere but in the verify path of cli, which imports verify and
    # oracle when it runs
    allowed = VERIFY_PATH.get(module, ())
    for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
        if not (isinstance(node, ast.FunctionDef) and node.name in allowed):
            assert not _imports_oracle(node), f"{module}.py line {node.lineno}"


def test_package_exports_no_oracle_name():
    assert not _imports_oracle(ast.parse((PACKAGE / "__init__.py").read_text()))
    defined = [name for name, obj in vars(oracle).items()
               if inspect.isfunction(obj) and obj.__module__ == oracle.__name__]
    assert tuple(sorted(defined)) == ROUTES
    classes = [name for name, obj in vars(oracle).items()
               if inspect.isclass(obj) and obj.__module__ == oracle.__name__]
    assert classes == ["MeasurementFrame"]
    assert all(hasattr(oracle, name) for name in COMPANIONS)
    assert not [name for name in ROUTES + COMPANIONS if hasattr(heisenring, name)]


def _module_level_names(tree):
    """Names a module defines, assigns or imports in its top-level body."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_oracle_is_the_only_home_of_its_routes():
    for path in PACKAGE.glob("*.py"):
        if path.name != "oracle.py":
            names = _module_level_names(ast.parse(path.read_text()))
            assert not names & set(ROUTES + COMPANIONS), path.name


# every production subcommand on a small config: uniform rings, and an
# S_z-breaking general ring, which takes the parity blocks
_RING3 = [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]
_TEMPERATURES = {"start": 0.5, "stop": 2.0, "count": 3}


@pytest.mark.parametrize("command,doc", [
    ("sweep", {"model": {"n_sites": 4, "j": 1.0, "delta": 0.5, "field_b": 0.3},
               "temperatures": _TEMPERATURES, "pair": [1, 3]}),
    ("sweep", {"model": {"jx": _RING3, "jy": [[2 * x for x in row] for row in _RING3],
                         "jz": _RING3},
               "temperatures": _TEMPERATURES}),
    ("threshold", {"model": {"n_sites": 4, "j": 1.0}}),
    ("spectrum", {"model": {"n_sites": 5, "j": 1.0, "delta": 0.5, "field_b": 0.3}}),
], ids=["sweep-uniform", "sweep-general", "threshold", "spectrum"])
def test_production_commands_never_load_the_reference_modules(tmp_path, command, doc):
    # the command runs as `python -m heisenring` runs it; then the process
    # lists the heisenring modules it loaded
    config, out = tmp_path / "config.json", tmp_path / "out.txt"
    config.write_text(json.dumps(doc))
    code = (
        "import runpy, sys\n"
        "sys.argv = ['heisenring', *sys.argv[1:]]\n"
        "try:\n"
        "    runpy.run_module('heisenring', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    print(exc.code)\n"
        "print(*sorted(name for name in sys.modules if name.startswith('heisenring')))\n"
    )
    run = subprocess.run([sys.executable, "-c", code, command, "--config", str(config),
                          "--out", str(out)], env={"PYTHONPATH": SRC}, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    status, loaded = run.stdout.splitlines()
    assert status == "0" and out.read_text()
    loaded = loaded.split()
    assert "heisenring.cli" in loaded
    assert "heisenring.verify" not in loaded and "heisenring.oracle" not in loaded


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
