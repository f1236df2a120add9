import json
import math

import numpy as np
import pytest

from heisenring.cli import main
from heisenring.verify import check_hermiticity
from helpers import c_two_site, u_three_site


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


def test_unknown_model_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, sweep_config(n_sites=2, j=1.0, jj=2.0))
    assert main(["sweep", "--config", cfg]) == 2
    assert "jj" in capsys.readouterr().err


def test_missing_required_key(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"n_sites": 2, "j": 1.0}})
    assert main(["sweep", "--config", cfg]) == 2
    assert "temperatures" in capsys.readouterr().err


def test_bad_pair_rejected(tmp_path):
    doc = sweep_config(n_sites=3, j=1.0)
    doc["pair"] = [1, 4]
    assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 2
    doc["pair"] = [2, 2]
    assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 2


def test_fractional_n_sites_rejected(tmp_path, capsys):
    doc = {"model": {"n_sites": 2.5, "j": 1.0},
           "temperatures": {"start": 1.0, "stop": 2.0, "count": 2}}
    assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 2
    assert "n_sites" in capsys.readouterr().err


def test_log_spacing_needs_positive_start(tmp_path):
    doc = {"model": {"n_sites": 2, "j": 1.0},
           "temperatures": {"start": 0.0, "stop": 1.0, "count": 3, "spacing": "log"}}
    assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 2


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


def test_threshold_rejects_ferromagnet(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"n_sites": 4, "j": -1.0}})
    assert main(["threshold", "--config", cfg]) == 2
    assert "ferromagnetic" in capsys.readouterr().err


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
        "frames": 500, "sampled_states": 4,
    })
    out = tmp_path / "verify.txt"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text()
    assert "FAIL" not in text
    assert "prop1_magnetization" in text


def test_verify_unknown_key(tmp_path, capsys):
    cfg = write_config(tmp_path, {"bogus": 1})
    assert main(["verify", "--config", cfg]) == 2
    assert "bogus" in capsys.readouterr().err


def test_corrupted_hamiltonian_fails_hermiticity():
    # negative control: the hermiticity check must actually bite
    h = np.zeros((4, 4), dtype=complex)
    h[0, 1] = 1.0  # missing conjugate partner
    assert check_hermiticity(h) > 1e-6


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
    # jx != jy breaks S_z, so N = 13 would need the dense path: refused
    # as a config error before any Hamiltonian is built
    def never(spec):
        raise AssertionError("build_hamiltonian ran")
    monkeypatch.setattr("heisenring.spectral.build_hamiltonian", never)
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
        assert "dense path" in capsys.readouterr().err


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
    for command, doc in (("sweep", sweep_doc), ("spectrum", model_doc)):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", write_config(tmp_path, doc),
                     "--format", "csv", "--out", str(out)]) == 0
        _, rows = parse_csv(out.read_text())
        for row in rows:
            for cell in row.values():
                assert cell in ("", "true", "false") or math.isfinite(float(cell))
    _, rows = parse_csv((tmp_path / "sweep.csv").read_text())
    assert rows[0]["T"] == "0" and rows[0]["log_z"] == ""


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


def test_negative_seed_rejected(tmp_path, capsys):
    assert main(["verify", "--seed", "-3"]) == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep", "--seed", "1"], ["threshold", "--seed", "1"], ["spectrum", "--seed", "1"],
    ["verify", "--format", "json"],
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
