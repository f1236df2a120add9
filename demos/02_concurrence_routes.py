"""Every concurrence route against the Wootters procedure.

The Wootters eigenvalue construction works for any two-qubit density
matrix.  The closed forms are shortcuts that only hold under symmetry:

  x_form           S_z conserved (the sparsity pattern of the pair RDM)
  correlation_form zero field (global spin-flip symmetry)
  energy_form      the regime-matching formula: isotropic from U alone,
                   anisotropic from U and G_zz, isotropic-with-field from
                   U, z and the magnetization

Wherever a shortcut applies it must agree with Wootters to ~1e-9; the
max_route_disagreement column is the library's master self-check.
"""

from heisenring import ModelSpec, run_sweep, temperature_grid

cases = [
    ("isotropic", ModelSpec.uniform(6, 1.0)),
    ("XY (delta=0)", ModelSpec.uniform(6, 1.0, 0.0)),
    ("easy-axis (delta=2)", ModelSpec.uniform(6, 1.0, 2.0)),
    ("isotropic + field B=1", ModelSpec.uniform(6, 1.0, 1.0, 1.0)),
    ("ferromagnet", ModelSpec.uniform(6, -1.0)),
]


def cell(v):
    return "      --- " if v is None else f"{v:10.6f}"


temps = temperature_grid(0.1, 10.0, 9, "log")
for label, spec in cases:
    cols = run_sweep(spec, temps)
    print(f"=== {label} ===")
    print(f"{'T':>8} {'wootters':>10} {'x_form':>10} {'corr':>10} "
          f"{'energy':>10} {'spread':>9}")
    for t, c_w, c_x, c_c, c_e, spread in zip(
            cols["T"], cols["C_wootters"], cols["C_x_form"], cols["C_correlation"],
            cols["C_energy"], cols["max_route_disagreement"]):
        print(f"{t:8.3f} {cell(c_w)} {cell(c_x)} {cell(c_c)} {cell(c_e)} {spread:9.1e}")
    print(f"worst route disagreement: {max(cols['max_route_disagreement']):.2e}\n")
