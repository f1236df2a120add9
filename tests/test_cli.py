import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import heisenring
from heisenring.cli import (
    ConfigError,
    main,
    parse_sweep_config,
    parse_temperatures,
    parse_verify_options,
)
from heisenring.model import ModelSpec, ring_coupling_matrices
from heisenring import oracle
from heisenring.oracle import hermiticity_defect
from helpers import c_two_site, u_three_site

SRC = str(Path(heisenring.__file__).resolve().parent.parent)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def sweep_config(**model):
    return {
        "model": model,
        "temperatures": {"start": 0.5, "stop": 2.0, "count": 4, "spacing": "log"},
    }


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_sweep_two_site_closed_form(tmp_path):
    cfg = write_config(tmp_path, {
        "model": {"n_sites": 2, "j": 1.0},
        "temperatures": {"start": 0.5, "stop": 2.0, "count": 3, "spacing": "linear"},
    })
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    header, rows = parse_csv(out.read_text())
    assert list(header) == list(__import__("heisenring").COLUMNS)
    for row in rows:
        t = float(row["T"])
        assert abs(float(row["C_wootters"]) - c_two_site(1.0 / t)) <= 1e-10
        assert abs(float(row["max_route_disagreement"])) <= 1e-9
        assert row["bell_violates"] in ("true", "false")


def test_sweep_three_site_columns(tmp_path):
    cfg = write_config(tmp_path, {
        "model": {"n_sites": 3, "j": 1.0},
        "temperatures": {"start": 0.5, "stop": 5.0, "count": 5, "spacing": "log"},
    })
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    _, rows = parse_csv(out.read_text())
    for row in rows:
        t = float(row["T"])
        assert abs(float(row["U"]) - u_three_site(1.0 / t)) <= 1e-10
        for col in ("C_wootters", "C_x_form", "C_correlation", "C_energy"):
            assert float(row[col]) == 0.0


def test_sweep_ferromagnet_no_entanglement(tmp_path):
    for n in (2, 5, 8):
        cfg = write_config(tmp_path, {
            "model": {"n_sites": n, "j": -1.0},
            "temperatures": {"start": 0.1, "stop": 10.0, "count": 6, "spacing": "log"},
        })
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        _, rows = parse_csv(out.read_text())
        for row in rows:
            assert float(row["C_wootters"]) == 0.0
            assert float(row["C_energy"]) == 0.0


def test_csv_and_json_values_identical(tmp_path):
    doc = {
        "model": {"n_sites": 4, "j": 1.0, "delta": 0.5, "field_b": 0.3},
        "temperatures": {"start": 0.2, "stop": 3.0, "count": 5, "spacing": "log"},
    }
    cfg = write_config(tmp_path, doc)
    csv_out, json_out = tmp_path / "a.csv", tmp_path / "a.json"
    assert main(["sweep", "--config", cfg, "--out", str(csv_out)]) == 0
    assert main(["sweep", "--config", cfg, "--format", "json",
                 "--out", str(json_out)]) == 0
    header, rows = parse_csv(csv_out.read_text())
    parsed = json.loads(json_out.read_text())
    assert parsed["columns"] == header
    assert len(parsed["rows"]) == len(rows)
    for csv_row, json_row in zip(rows, parsed["rows"]):
        for col, jval in zip(header, json_row):
            cval = csv_row[col]
            if cval == "":
                assert jval is None
            elif cval in ("true", "false"):
                assert jval is (cval == "true")
            else:
                assert float(cval) == jval  # exact: both print 17 significant digits


def test_sweep_empty_cells_for_inapplicable_routes(tmp_path):
    # ring-pattern general couplings: no uniform J, so no energy column
    m = [[0.0, 0.5, 0.0, 0.5], [0.5, 0.0, 0.5, 0.0],
         [0.0, 0.5, 0.0, 0.5], [0.5, 0.0, 0.5, 0.0]]
    cfg = write_config(tmp_path, {
        "model": {"jx": m, "jy": m, "jz": m},
        "temperatures": {"start": 1.0, "stop": 1.0, "count": 1},
    })
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    _, rows = parse_csv(out.read_text())
    assert rows[0]["C_energy"] == ""
    assert rows[0]["C_wootters"] != ""


@pytest.mark.parametrize("command", ["sweep", "spectrum", "threshold"])
def test_general_model_n_sites_key_rejected(tmp_path, capsys, command):
    # the matrix size gives N: the key could only agree or fail
    m = [[0.0, 0.5, 0.0, 0.5], [0.5, 0.0, 0.5, 0.0],
         [0.0, 0.5, 0.0, 0.5], [0.5, 0.0, 0.5, 0.0]]
    doc = {"model": {"jx": m, "jy": m, "jz": m, "n_sites": 4}}
    if command == "sweep":
        doc["temperatures"] = {"start": 1.0, "stop": 1.0, "count": 1}
    assert main([command, "--config", write_config(tmp_path, doc)]) == 2
    assert "unknown key 'n_sites' in model" in capsys.readouterr().err


def test_sweep_output_subset(tmp_path):
    doc = sweep_config(n_sites=2, j=1.0)
    doc["outputs"] = ["T", "U", "C_wootters"]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    header, _ = parse_csv(out.read_text())
    assert header == ["T", "U", "C_wootters"]


def test_unknown_key_rejected(tmp_path, capsys):
    doc = sweep_config(n_sites=2, j=1.0)
    doc["typo_key"] = 1
    cfg = write_config(tmp_path, doc)
    assert main(["sweep", "--config", cfg]) == 2
    assert "typo_key" in capsys.readouterr().err


def test_sweep_format_key_rejected(tmp_path, capsys):
    # the output format is --format's alone
    doc = sweep_config(n_sites=2, j=1.0)
    doc["format"] = "json"
    assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 2
    assert "unknown key 'format'" in capsys.readouterr().err


def test_unknown_model_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, sweep_config(n_sites=2, j=1.0, jj=2.0))
    assert main(["sweep", "--config", cfg]) == 2
    assert "jj" in capsys.readouterr().err


def test_missing_required_key(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"n_sites": 2, "j": 1.0}})
    assert main(["sweep", "--config", cfg]) == 2
    assert "temperatures" in capsys.readouterr().err


@pytest.mark.parametrize("command,doc", [
    ("sweep", sweep_config(n_sites=2, j=1.0)),
    ("spectrum", {"model": {"n_sites": 2, "j": 1.0}}),
])
def test_unwritable_out_is_a_config_error(tmp_path, capsys, command, doc):
    # exit 2, not a traceback and exit 1, which would read as a failed invariant
    out = tmp_path / "missing" / "rows.csv"
    assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    assert "cannot write output" in capsys.readouterr().err


def test_bad_pair_rejected(tmp_path):
    doc = sweep_config(n_sites=3, j=1.0)
    doc["pair"] = [1, 4]
    assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 2
    doc["pair"] = [2, 2]
    assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 2


def test_non_adjacent_pair_in_field_sweeps(tmp_path):
    # (1, 3) is no bond of the ring, so the field route, which holds for
    # nearest neighbours only, is left out; applied there, its square-root
    # argument went negative at low T and the sweep exited 1
    doc = {"model": {"n_sites": 8, "j": 1.0, "field_b": 0.3},
           "temperatures": {"start": 0.001, "stop": 30.0, "count": 25, "spacing": "log"},
           "pair": [1, 3]}
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    _, rows = parse_csv(out.read_text())
    assert len(rows) == 25
    assert all(r["C_energy"] == "" for r in rows)
    assert max(float(r["max_route_disagreement"]) for r in rows) <= 1e-9


def test_field_route_at_small_j_sweeps(tmp_path):
    # at B/J = 5e4 the field route's bracket is a difference of terms near
    # 1e5, so its squared rounding passed an absolute -1e-10 floor and the
    # sweep exited 1; the route now keeps within the sweep's tolerance
    doc = {"model": {"n_sites": 8, "j": 1e-5, "field_b": 0.5},
           "temperatures": {"start": 0.01, "stop": 20.0, "count": 200, "spacing": "log"}}
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    _, rows = parse_csv(out.read_text())
    assert len(rows) == 200
    assert all(r["C_energy"] != "" for r in rows)
    assert max(float(r["max_route_disagreement"]) for r in rows) <= 1e-9


def test_fractional_n_sites_rejected(tmp_path, capsys):
    doc = {"model": {"n_sites": 2.5, "j": 1.0},
           "temperatures": {"start": 1.0, "stop": 2.0, "count": 2}}
    assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 2
    assert "n_sites" in capsys.readouterr().err


@pytest.mark.parametrize("n_values", [[2.5], [3, 2.5], [4.0], [1], [13]])
def test_bad_n_values_rejected(tmp_path, capsys, n_values):
    # int() would truncate 2.5 and quietly run the N = 2 grid; N = 1 has no
    # ring, and N = 13 would build a 1 GB dense oracle before refusing it
    cfg = write_config(tmp_path, {"n_values": n_values})
    assert main(["verify", "--config", cfg]) == 2
    assert "n_values" in capsys.readouterr().err


def test_log_spacing_needs_positive_start(tmp_path):
    doc = {"model": {"n_sites": 2, "j": 1.0},
           "temperatures": {"start": 0.0, "stop": 1.0, "count": 3, "spacing": "log"}}
    assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 2


@pytest.mark.parametrize("start, stop", [(-1.0, 2.0), (0.5, -2.0)])
def test_negative_temperature_rejected(tmp_path, capsys, start, stop):
    # a bad grid is a config error (exit 2), not an invariant failure
    doc = {"model": {"n_sites": 2, "j": 1.0},
           "temperatures": {"start": start, "stop": stop, "count": 3}}
    assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 2
    assert ">= 0" in capsys.readouterr().err


def test_missing_config_file(capsys):
    assert main(["sweep", "--config", "/nonexistent/cfg.json"]) == 2


def test_threshold_two_site(tmp_path):
    cfg = write_config(tmp_path, {"model": {"n_sites": 2, "j": 1.0}})
    out = tmp_path / "thr.json"
    assert main(["threshold", "--config", cfg, "--format", "json",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "found"
    assert abs(doc["t_c"] - 8.0 / math.log(3.0)) <= 1e-6
    assert abs(doc["u_of_n"] - 1.0) <= 1e-7


def test_threshold_three_site_never(tmp_path):
    cfg = write_config(tmp_path, {"model": {"n_sites": 3, "j": 1.0}})
    out = tmp_path / "thr.txt"
    assert main(["threshold", "--config", cfg, "--out", str(out)]) == 0
    assert "never_entangled" in out.read_text()


def test_threshold_five_site_positive(tmp_path):
    cfg = write_config(tmp_path, {"model": {"n_sites": 5, "j": 1.0}})
    out = tmp_path / "thr.json"
    assert main(["threshold", "--config", cfg, "--format", "json",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "found"
    assert doc["t_c"] > 0.0


def test_threshold_runs_values_only(tmp_path, monkeypatch):
    # threshold needs no eigenvectors at any N, including N <= 12
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh ran")
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    cfg = write_config(tmp_path, {"model": {"n_sites": 12, "j": 1.0}})
    out = tmp_path / "thr.json"
    assert main(["threshold", "--config", cfg, "--format", "json",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "found"
    assert abs(doc["u_of_n"] - 1.0) <= 1e-7


def test_threshold_rejects_ferromagnet(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"n_sites": 4, "j": -1.0}})
    assert main(["threshold", "--config", cfg]) == 2
    assert "ferromagnetic" in capsys.readouterr().err


def test_threshold_refuses_before_decompose(tmp_path, capsys, monkeypatch):
    # a spec outside the search exits 2 before any spectrum is computed
    def never(*args, **kwargs):
        raise AssertionError("decompose ran")
    monkeypatch.setattr("heisenring.threshold.decompose", never)
    # jx = jy = jz = 0.5 on the ring bonds
    ring = ring_coupling_matrices(ModelSpec.uniform(14, 1.0))
    isotropic = "defined for the isotropic zero-field model"
    for model, message in (
        (dict(zip(("jx", "jy", "jz"), (m.tolist() for m in ring))), isotropic),
        ({"n_sites": 14, "j": 1.0, "delta": 0.5}, isotropic),
        ({"n_sites": 14, "j": 1.0, "field_b": 0.2}, isotropic),
        ({"n_sites": 14, "j": -1.0}, "ferromagnetic"),
        # the bisection width 1e-8 J underflows, and the search never ended
        ({"n_sites": 4, "j": 1e-320}, "subnormal"),
        ({"n_sites": 14, "j": 5e-324}, "subnormal"),
    ):
        cfg = write_config(tmp_path, {"model": model})
        assert main(["threshold", "--config", cfg]) == 2
        assert message in capsys.readouterr().err


def test_spectrum_of_sz_breaking_ring(tmp_path):
    jx, jy, jz = ring_coupling_matrices(ModelSpec.uniform(6, 1.0))
    model = {"jx": jx.tolist(), "jy": (0.5 * jy).tolist(), "jz": jz.tolist(),
             "field_b": 0.2}
    out = tmp_path / "spec.json"
    assert main(["spectrum", "--config", write_config(tmp_path, {"model": model}),
                 "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 64
    assert all(s_z is None for _, _, s_z in doc["rows"])


def test_spectrum_command(tmp_path):
    cfg = write_config(tmp_path, {"model": {"n_sites": 2, "j": 1.0}})
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    header, rows = parse_csv(out.read_text())
    assert header == ["index", "energy", "s_z"]
    energies = [float(r["energy"]) for r in rows]
    assert energies == sorted(energies)
    assert np.allclose(energies, [-6.0, 2.0, 2.0, 2.0], atol=1e-12)


def test_verify_small_grid_passes(tmp_path):
    cfg = write_config(tmp_path, {
        "n_values": [2, 3], "deltas": [1.0], "fields": [0.0],
        "temperatures": {"start": 0.5, "stop": 5.0, "count": 3, "spacing": "log"},
    })
    out = tmp_path / "verify.txt"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text()
    assert "FAIL" not in text
    assert "prop1_magnetization" in text


def test_verify_descending_grid_reads_as_ascending(tmp_path):
    # a grid from 3.0 down to 0.1 used to fail u_monotone and
    # concurrence_monotone_afm though no invariant broke
    reports = []
    for start, stop in ((3.0, 0.1), (0.1, 3.0)):
        cfg = write_config(tmp_path, {
            "n_values": [2, 4], "deltas": [1.0], "fields": [0.0],
            "temperatures": {"start": start, "stop": stop, "count": 4},
        }, name=f"verify-{start}.json")
        out = tmp_path / f"verify-{start}.txt"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        reports.append(out.read_text())
    assert reports[0] == reports[1]
    assert "FAIL" not in reports[0]


def test_verify_unknown_key(tmp_path, capsys):
    cfg = write_config(tmp_path, {"bogus": 1})
    assert main(["verify", "--config", cfg]) == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["frames", "sampled_states"])
def test_verify_frame_counts_are_not_config_keys(tmp_path, capsys, key):
    # the frame and sampled-state counts are fixed: verify.FRAMES, verify.SAMPLED_STATES
    cfg = write_config(tmp_path, {"n_values": [2], key: 10})
    assert main(["verify", "--config", cfg]) == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "verify"])
def test_temperature_count_over_budget_exits_two(tmp_path, capsys, monkeypatch, command):
    # refused from the count alone: were it not, the patched grids fail the
    # test instead of asking for 10^12 temperatures
    def refuse(*args, **kwargs):
        raise AssertionError("temperature grid built")

    monkeypatch.setattr(np, "linspace", refuse)
    monkeypatch.setattr(np, "geomspace", refuse)
    for spacing in ("linear", "log"):
        grid = {"start": 0.5, "stop": 2.0, "count": 10**12, "spacing": spacing}
        doc = ({"model": {"n_sites": 4, "j": 1.0}, "temperatures": grid} if command == "sweep"
               else {"n_values": [2], "temperatures": grid})
        assert main([command, "--config", write_config(tmp_path, doc)]) == 2
        assert "byte budget" in capsys.readouterr().err


def test_temperature_count_budget_scales_with_the_ring(tmp_path):
    # verify forms one (count, 2^N) weight matrix per spec, up to N = 12:
    # 4 GiB of float64 holds 131072 temperatures there, one more does not
    grid = {"start": 0.5, "stop": 2.0, "count": 131072}
    assert len(parse_verify_options({"temperatures": grid}).temperatures) == 131072
    with pytest.raises(ConfigError, match="needs 4295000064 bytes at 4096 float64"):
        parse_verify_options({"temperatures": {**grid, "count": 131073}})
    # a sweep holds one row block at a time, so only its grid is bounded
    with pytest.raises(ConfigError, match="needs 4294967304 bytes at 1 float64"):
        parse_temperatures({**grid, "count": (1 << 29) + 1})


def test_long_sweep_grid_at_the_site_cap_parses():
    # refused while the sweep formed one (count, 2^N) weight matrix
    doc = sweep_config(n_sites=14, j=1.0)
    doc["temperatures"]["count"] = 32769
    assert parse_sweep_config(doc).temperatures.shape == (32769,)


def test_corrupted_hamiltonian_fails_hermiticity():
    # negative control: the hermiticity check must actually bite
    h = np.zeros((4, 4), dtype=complex)
    h[0, 1] = 1.0  # missing conjugate partner
    assert hermiticity_defect(h) > 1e-6


def test_sweep_beyond_dense_cap_on_sector_blocks(tmp_path):
    # S_z-conserving rings sweep past N = 12 on block eigenvectors
    doc = sweep_config(n_sites=13, j=1.0)
    doc["temperatures"]["count"] = 2
    out = tmp_path / "rows13.csv"
    assert main(["sweep", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 0
    _, rows = parse_csv(out.read_text())
    assert len(rows) == 2
    for row in rows:
        assert float(row["max_route_disagreement"]) <= 1e-9


def test_general_spec_beyond_dense_cap_exits_two(tmp_path, capsys, monkeypatch):
    # jx != jy breaks S_z, which is capped at N = 12: N = 13 is refused as
    # a config error before any Hamiltonian is built
    def never(spec):
        raise AssertionError("build_hamiltonian ran")
    monkeypatch.setattr("heisenring.oracle.build_hamiltonian", never)
    ring = np.zeros((13, 13))
    for i in range(13):
        ring[i, (i + 1) % 13] = ring[(i + 1) % 13, i] = 0.5
    model = {"jx": ring.tolist(), "jy": (2.0 * ring).tolist(), "jz": ring.tolist()}
    configs = {
        "sweep": {"model": model,
                  "temperatures": {"start": 1.0, "stop": 2.0, "count": 2}},
        "spectrum": {"model": model},
        "threshold": {"model": model},
    }
    for command, doc in configs.items():
        assert main([command, "--config", write_config(tmp_path, doc)]) == 2
        assert "breaks S_z" in capsys.readouterr().err


def test_sz_breaking_spec_runs_without_dense_hamiltonian(tmp_path, monkeypatch):
    # the parity blocks come from bit rules: neither the sweep nor the
    # spectrum of an S_z-breaking spec builds or diagonalizes the dense H,
    # under whichever module name a caller imported those functions
    originals = {"build_hamiltonian": oracle.build_hamiltonian,
                 "diagonalize_full": oracle.diagonalize_full}

    def refuse(*args, **kwargs):
        raise AssertionError("the dense oracle ran")

    for name, module in list(sys.modules.items()):
        if name == "heisenring" or name.startswith("heisenring."):
            for attr, original in originals.items():
                if getattr(module, attr, None) is original:
                    monkeypatch.setattr(module, attr, refuse)
    jx, jy, jz = ring_coupling_matrices(ModelSpec.uniform(6, 1.0, 0.8))
    spec = ModelSpec.general(jx, 0.5 * jy, jz, field_b=0.3)
    assert not spec.conserves_sz
    columns = heisenring.run_sweep(spec, np.array([0.5, 2.0]), (1, 4))
    assert len(columns["C_wootters"]) == 2
    assert max(columns["max_route_disagreement"]) <= 1e-9
    model_doc = {"jx": jx.tolist(), "jy": (0.5 * jy).tolist(), "jz": jz.tolist(),
                 "field_b": 0.3}
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--config", write_config(tmp_path, {"model": model_doc}),
                 "--out", str(out)]) == 0
    _, rows = parse_csv(out.read_text())
    assert len(rows) == 64
    assert all(row["s_z"] == "" for row in rows)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_json_outputs_parse_strictly(tmp_path):
    # T = 0 gives log Z = inf, which must come out as null
    sweep_doc = {"model": {"n_sites": 4, "j": 1.0},
                 "temperatures": {"start": 0.0, "stop": 1.0, "count": 3}}
    model_doc = {"model": {"n_sites": 4, "j": 1.0}}
    for command, doc in (("sweep", sweep_doc), ("threshold", model_doc),
                         ("spectrum", model_doc)):
        out = tmp_path / f"{command}.json"
        assert main([command, "--config", write_config(tmp_path, doc),
                     "--format", "json", "--out", str(out)]) == 0
        parsed = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert parsed
    rows = json.loads((tmp_path / "sweep.json").read_text())["rows"]
    assert rows[0][0] == 0.0 and rows[0][1] is None


def test_spectrum_works_beyond_vector_cap(tmp_path):
    # eigenvalues-only subcommands still cover N = 13 (sector blocks only)
    cfg = write_config(tmp_path, {"model": {"n_sites": 13, "j": 1.0}})
    out = tmp_path / "spec13.csv"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    header, rows = parse_csv(out.read_text())
    assert len(rows) == 1 << 13


def test_csv_outputs_parse_strictly(tmp_path):
    # T = 0 gives log Z = inf, which must come out as an empty cell
    sweep_doc = {"model": {"n_sites": 4, "j": 1.0},
                 "temperatures": {"start": 0.0, "stop": 1.0, "count": 3}}
    model_doc = {"model": {"n_sites": 4, "j": 1.0}}
    for command, doc in (("sweep", sweep_doc), ("spectrum", model_doc),
                         ("threshold", model_doc)):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", write_config(tmp_path, doc),
                     "--format", "csv", "--out", str(out)]) == 0
        _, rows = parse_csv(out.read_text())
        for row in rows:
            for column, cell in row.items():
                # the one text cell: threshold's status
                assert ((column, cell) == ("status", "found")
                        or cell in ("", "true", "false") or math.isfinite(float(cell)))
    _, rows = parse_csv((tmp_path / "sweep.csv").read_text())
    assert rows[0]["T"] == "0" and rows[0]["log_z"] == ""
    # threshold: one header row and one value row, the JSON's fields
    with open(tmp_path / "threshold.csv", newline="") as fh:
        header, values = csv.reader(fh)
    assert header == ["status", "t_c", "bracket_lo", "bracket_hi", "iterations", "u_of_n"]
    assert values[0] == "found" and abs(float(values[-1]) - 1.0) <= 1e-7


@pytest.mark.parametrize("doc", [
    {"model": {"n_sites": 4, "j": math.nan},
     "temperatures": {"start": 0.5, "stop": 1.0, "count": 2}},
    {"model": {"n_sites": 4, "j": 1.0, "field_b": math.inf},
     "temperatures": {"start": 0.5, "stop": 1.0, "count": 2}},
    {"model": {"jx": [[0.0, math.nan], [math.nan, 0.0]], "jy": [[0.0, 1.0], [1.0, 0.0]],
               "jz": [[0.0, 1.0], [1.0, 0.0]]},
     "temperatures": {"start": 0.5, "stop": 1.0, "count": 2}},
    {"model": {"n_sites": 4, "j": 1.0},
     "temperatures": {"start": math.inf, "stop": 1.0, "count": 2}},
])
def test_non_finite_sweep_input_exits_two(tmp_path, capsys, doc):
    # json.dumps writes NaN / Infinity, which json.load reads back
    assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_non_finite_verify_input_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n_values": [2], "deltas": [math.nan]})
    assert main(["verify", "--config", cfg]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("model", [
    {"jx": [[0, True, 0], [True, 0, True], [0, True, 0]],
     "jy": [[0, 1, 0], [1, 0, 1], [0, 1, 0]], "jz": [[0, 1, 0], [1, 0, 1], [0, 1, 0]]},
    {"jx": [[0, "1"], ["1", 0]], "jy": [[0, 1], [1, 0]], "jz": [[0, 1], [1, 0]]},
    {"jx": 3, "jy": [[0, 1], [1, 0]], "jz": [[0, 1], [1, 0]]},
], ids=["booleans", "strings", "scalar"])
def test_coupling_matrix_of_non_numbers_exits_two(tmp_path, capsys, model):
    # true and "1" used to run as 1.0, and a bare number died with an IndexError
    cfg = write_config(tmp_path, {"model": model,
                                  "temperatures": {"start": 0.5, "stop": 1.0, "count": 2}})
    assert main(["sweep", "--config", cfg]) == 2
    assert "config error: model.jx" in capsys.readouterr().err


@pytest.mark.parametrize("model", [
    {"n_sites": 4, "j": 1e308},
    {"n_sites": 4, "j": 1e307, "delta": 30},
    {"n_sites": 14, "j": 1, "field_b": 1e308},
    {"jx": [[0.0, 1e308], [1e308, 0.0]], "jy": [[0.0, 1e308], [1e308, 0.0]],
     "jz": [[0.0, 0.0], [0.0, 0.0]]},
])
def test_overflowing_couplings_exit_two(tmp_path, capsys, model):
    # every number is finite, but the bound on |H| is not: eigh would fail
    # or the outputs would hold inf/NaN, so the spec is refused at the boundary
    cfg = write_config(tmp_path, {"model": model,
                                  "temperatures": {"start": 0.5, "stop": 1.0, "count": 2}})
    assert main(["sweep", "--config", cfg]) == 2
    assert "overflow" in capsys.readouterr().err
    cfg = write_config(tmp_path, {"model": model}, "spectrum.json")
    assert main(["spectrum", "--config", cfg]) == 2
    assert "overflow" in capsys.readouterr().err


def test_overflowing_verify_grid_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n_values": [4], "j_values": [1e308]})
    assert main(["verify", "--config", cfg]) == 2
    assert "overflow" in capsys.readouterr().err


HUGE = 10 ** 400  # a JSON integer past float range


@pytest.mark.parametrize("command, doc", [
    ("sweep", sweep_config(n_sites=4, j=HUGE)),
    ("threshold", {"model": {"n_sites": 4, "j": 1.0, "field_b": HUGE}}),
    ("spectrum", {"model": {"n_sites": 4, "j": 1.0, "field_b": HUGE}}),
    ("spectrum", {"model": {"jx": [[0, HUGE], [HUGE, 0]], "jy": [[0, 1], [1, 0]],
                            "jz": [[0, 1], [1, 0]]}}),
    ("verify", {"n_values": [2], "temperatures": {"start": 0.5, "stop": HUGE, "count": 2}}),
    ("verify", {"n_values": [2, HUGE]}),
], ids=["sweep-j", "threshold-field", "spectrum-field", "general-jx", "verify-stop",
        "verify-n"])
def test_integer_past_float_range_exits_two(tmp_path, capsys, command, doc):
    # an OverflowError or TypeError traceback would exit 1, read as a failed invariant
    assert main([command, "--config", write_config(tmp_path, doc)]) == 2
    assert "config error" in capsys.readouterr().err


def test_threshold_at_huge_j(tmp_path):
    # J = 1e300 keeps a finite bound on |H|, and t_c / J is J = 1's
    cfg = write_config(tmp_path, {"model": {"n_sites": 4, "j": 1e300}})
    out = tmp_path / "thr.json"
    assert main(["threshold", "--config", cfg, "--format", "json",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "found"
    assert abs(doc["t_c"] / 1e300 - 3.45345647633076) <= 1e-9


def test_zero_j_value_rejected(tmp_path, capsys):
    # the closed-form energy routes divide by J
    cfg = write_config(tmp_path, {"n_values": [3], "j_values": [0.0]})
    assert main(["verify", "--config", cfg]) == 2
    assert "j_values" in capsys.readouterr().err


@pytest.mark.parametrize("doc, key", [
    ({"n_values": [True]}, "n_values"),
    ({"n_values": [2], "seed": True}, "seed"),
    ({"n_values": [2], "j_values": [True]}, "j_values"),
    ({"n_values": [2], "temperatures": {"start": 0.5, "stop": 1.0, "count": True}},
     "count"),
])
def test_boolean_verify_integers_rejected(tmp_path, capsys, doc, key):
    # JSON true is an int to isinstance; it must not run as 1
    assert main(["verify", "--config", write_config(tmp_path, doc)]) == 2
    assert key in capsys.readouterr().err


def test_negative_seed_rejected(tmp_path, capsys):
    assert main(["verify", "--config", write_config(tmp_path, {"seed": -3})]) == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep", "--seed", "1"], ["threshold", "--seed", "1"], ["spectrum", "--seed", "1"],
    ["verify", "--format", "json"], ["verify", "--seed", "1"],
])
def test_flags_belong_to_their_subcommands(tmp_path, argv):
    cfg = write_config(tmp_path, sweep_config(n_sites=2, j=1.0))
    with pytest.raises(SystemExit) as err:
        main([*argv, "--config", cfg])
    assert err.value.code == 2


def test_sweep_config_seed_key_rejected(tmp_path, capsys):
    doc = sweep_config(n_sites=2, j=1.0)
    doc["seed"] = 1
    assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 2
    assert "'seed'" in capsys.readouterr().err


def test_sweep_json_has_no_meta(tmp_path):
    out = tmp_path / "rows.json"
    assert main(["sweep", "--config", write_config(tmp_path, sweep_config(n_sites=2, j=1.0)),
                 "--format", "json", "--out", str(out)]) == 0
    assert list(json.loads(out.read_text())) == ["columns", "rows"]


def test_bad_subcommand_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_closed_stdout_exits_141_without_traceback(tmp_path):
    # 3000 rows of CSV, about 1.3 MB, more than a pipe's 64 KiB buffer: the
    # sweep is still writing when the reader closes the pipe, as `| head` does
    doc = {"model": {"n_sites": 6, "j": 1.0},
           "temperatures": {"start": 0.1, "stop": 3.0, "count": 3000}}
    proc = subprocess.Popen([sys.executable, "-m", "heisenring", "sweep", "--config",
                             write_config(tmp_path, doc), "--format", "csv"],
                            env={"PYTHONPATH": SRC}, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert proc.stdout.read(100).startswith(b"T,log_z,")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert "Traceback" not in err and "Exception ignored" not in err, err


# a child whose stdout is a pipe with no reader: no second process reads
# it, so spectrum's first flush fails every time
_CLOSED_PIPE_CHILD = """
import os, sys
from heisenring.cli import main
read_end, write_end = os.pipe()
os.close(read_end)
os.dup2(write_end, 1)
code = main(["spectrum", "--config", sys.argv[1]])
print(code, os.path.samestat(os.fstat(1), os.stat(os.devnull)), file=sys.stderr)
"""


def test_closed_stdout_is_redirected_to_devnull(tmp_path):
    # after the broken pipe main points fd 1 at devnull, so the flush at
    # exit has nowhere to fail
    cfg = write_config(tmp_path, {"model": {"n_sites": 4, "j": 1.0}})
    proc = subprocess.run([sys.executable, "-c", _CLOSED_PIPE_CHILD, cfg],
                          env={"PYTHONPATH": SRC}, capture_output=True, timeout=120)
    err = proc.stderr.decode()
    assert proc.returncode == 0, err
    assert err.splitlines()[-1] == "141 True", err
