import math

import numpy as np
import pytest

from heisenring import ModelSpec, VerifyOptions, oracle, run_verification, thermo, twoqubit
from heisenring.model import hermiticity_defect
from heisenring.verify import PROBE_TEMPERATURES, _Collector, render_report


def test_default_grid_all_pass():
    # the default grid: N 2..8, delta {0, 0.5, 1, 2}, B {0, 0.5}
    results = run_verification()
    failed = [r for r in results if not r.passed]
    assert not failed, render_report(failed)
    names = {r.name for r in results}
    for expected in ("hermiticity", "prop1_magnetization", "prop3_z_sign",
                     "route_energy", "bell_frames_bound", "threshold_two_sided",
                     "derivative_u", "ground_state_entangled",
                     "momentum_vs_sector_spectrum"):
        assert expected in names


def test_verification_deterministic():
    opts = VerifyOptions(n_values=(2, 3), deltas=(1.0,), fields=(0.0,),
                         temperatures=(0.5, 2.0))
    a = run_verification(opts)
    b = run_verification(opts)
    assert [(r.name, r.residual) for r in a] == [(r.name, r.residual) for r in b]


def test_hermiticity_negative_control():
    good = np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -1.0]])
    assert hermiticity_defect(good) <= 1e-15
    bad = good.copy()
    bad[0, 1] = 5.0
    assert hermiticity_defect(bad) > 1e-3


def test_momentum_check_takes_anisotropic_ring_in_field():
    # the grid's first delta != 1 and first B != 0, one ring per N
    opts = VerifyOptions(n_values=(3, 4), deltas=(1.0, 0.5), fields=(0.0, 0.2),
                         j_values=(1.0, -1.0), temperatures=(1.0,))
    (check,) = [r for r in run_verification(opts)
                if r.name == "momentum_vs_sector_spectrum"]
    assert check.passed
    assert "delta=0.5 B=0.2" in check.detail


@pytest.mark.parametrize("kwargs, key", [
    ({"n_values": (3,), "j_values": (0.0,)}, "j_values"),
    ({"n_values": (3,), "j_values": (1.0, 0)}, "j_values"),
    ({"n_values": (2.5,)}, "n_values"),
    ({"n_values": (True,)}, "n_values"),
    ({"n_values": (13,)}, "n_values"),
    ({"n_values": ()}, "n_values"),
    ({"deltas": (math.nan,)}, "deltas"),
    ({"fields": (math.inf,)}, "fields"),
    ({"j_values": (True,)}, "j_values"),
    ({"temperatures": (-1.0,)}, "temperatures"),
    ({"seed": -1}, "seed"),
    ({"seed": True}, "seed"),
    ({"seed": 1.5}, "seed"),
])
def test_options_rejected_at_construction(kwargs, key):
    # from Python too, not only through the CLI: a zero J used to reach
    # z_energy_relation and divide by zero
    with pytest.raises(ValueError, match=key):
        VerifyOptions(**kwargs)


def test_options_normalised_to_float_tuples():
    opts = VerifyOptions(n_values=[3], deltas=[1], j_values=[2], temperatures=[2, 0.5])
    assert opts.n_values == (3,)
    assert opts.temperatures == (0.5, 2.0)
    assert opts.deltas == (1.0,) and isinstance(opts.deltas[0], float)
    assert opts.j_values == (2.0,)


def test_record_worst_keeps_first_worst_entry():
    col = _Collector()
    col.record_worst("tie", np.array([0.5, 2.0, 1.0, 2.0]), 1.0, ["a", "b", "c", "d"])
    col.record_worst("tie", np.array([2.0]), 1.0, ["e"])
    col.record_worst("empty", np.array([]), 1.0, [])
    col.record_worst("nan", np.array([3.0, math.nan, 5.0, math.nan]), 10.0, ["a", "b", "c", "d"])
    (nan, tie) = col.results()
    assert (tie.name, tie.residual, tie.detail, tie.passed) == ("tie", 2.0, "b", False)
    assert nan.name == "nan" and math.isnan(nan.residual) and nan.detail == "b"
    assert not nan.passed


@pytest.mark.parametrize("order", [(1e-15, math.nan), (math.nan, 1e-15)])
def test_nan_residual_fails_in_any_order(order):
    col = _Collector()
    for k, residual in enumerate(order):
        col.record("x", residual, 1e-12, f"row {k}")
    (check,) = col.results()
    assert math.isnan(check.residual) and not check.passed


def test_no_frames_drawn_without_sampled_states(monkeypatch):
    def refuse(count, seed):
        raise AssertionError("frames drawn")

    monkeypatch.setattr("heisenring.bell.random_frames", refuse)
    opts = VerifyOptions(n_values=(2, 3), deltas=(1.0,), fields=(0.0,),
                         temperatures=(1.0,))
    names = {r.name for r in run_verification(opts)}
    assert "bell_frames_bound" not in names
    assert "derivative_u" in names


def test_grid_specs_run_as_temperature_stacks(monkeypatch):
    # the production side of a grid spec runs once on its whole T grid, its
    # probes once more as a grid of their own, and the full-space operators
    # of an N <= 5 spec are embedded once, however many temperatures the
    # grid has; the pair mode adds one stack for the bond on each N's
    # momentum case and isotropic J = 1 ring, and from N = 4 one more for
    # the pair at distance N // 2, whose sector table is one more stack
    # again.  The zero-temperature section adds a one-row stack for each
    # N's isotropic J = 1 ring, and each of the ten derivative samples one
    # thermo_grid in check_derivatives and one stack of each for
    # derivative_zz
    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name].append(args)
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    count(thermo, "thermo_grid")
    count(twoqubit, "pair_rdms")
    count(oracle, "embed")
    specs = [ModelSpec.uniform(n, j, delta, b) for n in (3, 6) for delta in (1.0, 0.5)
             for b in (0.0, 0.4) for j in (1.0, -1.0)]
    bond_specs = [ModelSpec.uniform(n, 1.0, delta, b) for n in (3, 6)
                  for delta, b in ((0.5, 0.4), (1.0, 0.0))]
    for temperatures in ((0.5,), (0.2, 0.7, 1.5, 4.0)):
        calls.update(thermo_grid=[], pair_rdms=[], embed=[])
        run_verification(VerifyOptions(n_values=(3, 6), deltas=(1.0, 0.5),
                                       fields=(0.0, 0.4), temperatures=temperatures))
        grids = calls["thermo_grid"]
        pair_modes = {spec: 1 + (spec.n_sites >= 4) for spec in bond_specs}
        zero_t = {ModelSpec.uniform(n, 1.0) for n in (3, 6)}
        # the sector decomposition of each spec, and each pair mode, meets
        # the T grid once
        on_grid = [sd for sd, t in grids if tuple(t) == temperatures]
        sector = {id(sd) for sd in on_grid if sd.eigvec_blocks is not None}
        assert len(sector) == len(specs)
        assert len(on_grid) == len(specs) + sum(pair_modes.values())
        probes = [sd for sd, t in grids if tuple(t) == PROBE_TEMPERATURES]
        assert {id(sd) for sd in probes} == sector and len(probes) == len(specs)
        assert len(grids) == (2 * len(specs) + sum(pair_modes.values()) + len(zero_t)
                              + 2 * 10)
        assert len(calls["pair_rdms"]) == 2 * len(specs) + sum(
            2 * modes - 1 for modes in pair_modes.values()) + len(zero_t) + 10
        assert len(calls["embed"]) == 10 * sum(spec.n_sites <= 5 for spec in specs)


def test_high_t_limit_scales_with_the_field():
    # U ~ -<H^2>/T grows with B^2 as well as J^2: against N |J| alone this
    # grid read a residual of 0.25 and failed
    opts = VerifyOptions(n_values=(4,), j_values=(1e-6,), deltas=(1.0,), fields=(0.5,))
    results = {r.name: r for r in run_verification(opts)}
    assert results["u_high_t_limit"].residual <= 1e-6
    assert all(r.passed for r in results.values()), [
        r.name for r in results.values() if not r.passed]


def test_bond_route_and_zz_derivative_are_checked():
    opts = VerifyOptions(n_values=(2, 5), deltas=(1.0, 0.5), fields=(0.0, 0.3),
                         temperatures=(0.0, 0.7))
    results = {r.name: r for r in run_verification(opts)}
    for name, threshold in (("bond_route_vs_pair_table", 1e-12),
                            ("distance_route_vs_pair_table", 1e-12), ("derivative_zz", 1e-5)):
        assert results[name].passed and results[name].threshold == threshold
