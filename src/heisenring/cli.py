"""Command-line surface: sweep, verify, threshold and spectrum subcommands.

Configuration is a single JSON document; unknown keys are rejected so a
typo in a physics parameter fails loudly instead of running the default.
All floats print with 17 significant digits in both CSV and JSON, so the
two renderings round-trip to bit-identical values; a non-finite float is
written as null in JSON and as an empty cell in CSV, so every output parses
strictly.

Exit codes: 0 success, 1 invariant failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import threshold as threshold_mod
from .model import ModelSpec
from .spectral import FULL_PATH_MAX_SITES, check_dense_cap, decompose
from .sweep import COLUMNS, run_sweep, temperature_grid
from .verify import VerifyOptions, render_report, run_verification


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SweepConfig:
    model: ModelSpec
    temperatures: np.ndarray
    pair: tuple[int, int]
    outputs: tuple[str, ...]
    fmt: str


def _require_keys(obj: dict, allowed: dict[str, bool], where: str) -> None:
    """allowed maps key -> required; anything else is rejected."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")
    for key, required in allowed.items():
        if required and key not in obj:
            raise ConfigError(f"missing required key {key!r} in {where}")


def _number(obj: dict, key: str, where: str, default=None):
    if key not in obj:
        return default
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {val!r}")
    return val


def parse_model(obj: dict) -> ModelSpec:
    if not isinstance(obj, dict):
        raise ConfigError("'model' must be a JSON object")
    if "jx" in obj or "jy" in obj or "jz" in obj:
        _require_keys(obj, {"jx": True, "jy": True, "jz": True,
                            "field_b": False, "n_sites": False}, "model")
        try:
            spec = ModelSpec.general(np.asarray(obj["jx"], dtype=float),
                                     np.asarray(obj["jy"], dtype=float),
                                     np.asarray(obj["jz"], dtype=float),
                                     field_b=_number(obj, "field_b", "model", 0.0))
            check_dense_cap(spec)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"model: {exc}") from exc
        if "n_sites" in obj and obj["n_sites"] != spec.n_sites:
            raise ConfigError(
                f"model.n_sites={obj['n_sites']} disagrees with matrix size {spec.n_sites}")
        return spec
    _require_keys(obj, {"n_sites": True, "j": True, "delta": False,
                        "field_b": False}, "model")
    n_sites = obj["n_sites"]
    if isinstance(n_sites, bool) or not isinstance(n_sites, int):
        raise ConfigError(f"model.n_sites must be an integer, got {n_sites!r}")
    try:
        return ModelSpec.uniform(
            n_sites,
            _number(obj, "j", "model"),
            _number(obj, "delta", "model", 1.0),
            _number(obj, "field_b", "model", 0.0),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"model: {exc}") from exc


def parse_temperatures(obj: dict) -> np.ndarray:
    _require_keys(obj, {"start": True, "stop": True, "count": True,
                        "spacing": False}, "temperatures")
    spacing = obj.get("spacing", "linear")
    if spacing not in ("linear", "log"):
        raise ConfigError(f"temperatures.spacing must be 'linear' or 'log', got {spacing!r}")
    count = obj["count"]
    if not isinstance(count, int) or count < 1:
        raise ConfigError(f"temperatures.count must be an integer >= 1, got {count!r}")
    try:
        return temperature_grid(_number(obj, "start", "temperatures"),
                                _number(obj, "stop", "temperatures"),
                                count, spacing)
    except ValueError as exc:
        raise ConfigError(f"temperatures: {exc}") from exc


def parse_sweep_config(doc: dict) -> SweepConfig:
    _require_keys(doc, {"model": True, "temperatures": True, "pair": False,
                        "outputs": False, "format": False},
                  "config")
    spec = parse_model(doc["model"])
    temps = parse_temperatures(doc["temperatures"])
    pair = doc.get("pair", [1, 2])
    if (not isinstance(pair, list) or len(pair) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in pair)):
        raise ConfigError(f"'pair' must be a list of two site indices, got {pair!r}")
    if pair[0] == pair[1] or not all(1 <= x <= spec.n_sites for x in pair):
        raise ConfigError(f"'pair' sites must be distinct and within 1..{spec.n_sites}")
    outputs = doc.get("outputs", list(COLUMNS))
    if not isinstance(outputs, list) or not outputs:
        raise ConfigError("'outputs' must be a non-empty list of column names")
    for col in outputs:
        if col not in COLUMNS:
            raise ConfigError(f"unknown output column {col!r}")
    fmt = doc.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"'format' must be 'csv' or 'json', got {fmt!r}")
    return SweepConfig(spec, temps, (pair[0], pair[1]), tuple(outputs), fmt)


def parse_verify_options(doc: dict) -> VerifyOptions:
    _require_keys(doc, {"n_values": False, "deltas": False, "fields": False,
                        "j_values": False, "temperatures": False, "seed": False,
                        "frames": False, "sampled_states": False}, "config")
    kwargs = {}
    for key in ("n_values", "deltas", "fields", "j_values"):
        if key in doc:
            vals = doc[key]
            if (not isinstance(vals, list) or not vals
                    or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                               and math.isfinite(v) for v in vals)):
                raise ConfigError(f"{key!r} must be a non-empty list of finite numbers")
            kwargs[key] = tuple(int(v) for v in vals) if key == "n_values" \
                else tuple(float(v) for v in vals)
    if "temperatures" in doc:
        kwargs["temperatures"] = tuple(float(t) for t in parse_temperatures(
            doc["temperatures"]))
    for key in ("seed", "frames", "sampled_states"):
        if key in doc:
            if not isinstance(doc[key], int) or doc[key] < 0:
                raise ConfigError(f"{key!r} must be a non-negative integer")
            kwargs[key] = doc[key]
    return VerifyOptions(**kwargs)


# ---------------------------------------------------------------------------
# rendering: every float as %.17g in both formats

def fmt_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}" if math.isfinite(v) else ""
    return str(v)


def fmt_json_value(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}" if math.isfinite(v) else "null"
    if isinstance(v, str):
        return json.dumps(v)
    return str(v)


def render_csv(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt_value(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def render_json(columns, rows, meta: dict | None = None) -> str:
    parts = []
    if meta:
        for k, v in meta.items():
            parts.append(f'"{k}": {fmt_json_value(v)}')
    cols = ", ".join(json.dumps(c) for c in columns)
    parts.append(f'"columns": [{cols}]')
    row_strs = []
    for row in rows:
        row_strs.append("[" + ", ".join(fmt_json_value(row[c]) for c in columns) + "]")
    parts.append('"rows": [' + ", ".join(row_strs) + "]")
    return "{" + ", ".join(parts) + "}\n"


def _write_out(text: str, out: str) -> None:
    if out in ("stdout", "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _load_config(path: str | None, required: bool) -> dict:
    if path is None:
        if required:
            raise ConfigError("this subcommand needs --config <path>")
        return {}
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


# ---------------------------------------------------------------------------
# subcommands

def cmd_sweep(args) -> int:
    doc = _load_config(args.config, required=True)
    cfg = parse_sweep_config(doc)
    fmt = args.format or cfg.fmt
    rows = run_sweep(cfg.model, cfg.temperatures, cfg.pair)
    if fmt == "csv":
        text = render_csv(cfg.outputs, rows)
    else:
        text = render_json(cfg.outputs, rows)
    _write_out(text, args.out)
    return 0


def cmd_verify(args) -> int:
    doc = _load_config(args.config, required=False)
    opts = parse_verify_options(doc)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be non-negative")
        opts = VerifyOptions(**{**opts.__dict__, "seed": args.seed})
    results = run_verification(opts)
    _write_out(render_report(results) + "\n", args.out)
    return 0 if all(r.passed for r in results) else 1


def cmd_threshold(args) -> int:
    doc = _load_config(args.config, required=True)
    _require_keys(doc, {"model": True}, "config")
    spec = parse_model(doc["model"])
    try:
        # the Wootters cross-check needs vectors; larger rings stay values-only
        sd = decompose(spec, vectors=spec.n_sites <= FULL_PATH_MAX_SITES)
        res = threshold_mod.find_threshold(spec, sd)
    except ValueError as exc:
        raise ConfigError(f"threshold: {exc}") from exc
    if (args.format or "csv") == "json":
        body = ", ".join([
            f'"status": {json.dumps(res.status)}',
            f'"t_c": {fmt_json_value(res.t_c)}',
            f'"bracket": [{fmt_json_value(res.bracket[0])}, {fmt_json_value(res.bracket[1])}]',
            f'"iterations": {res.iterations}',
            f'"u_of_n": {fmt_json_value(res.u_of_n)}',
        ])
        _write_out("{" + body + "}\n", args.out)
    else:
        lines = [f"status: {res.status}"]
        if res.t_c is not None:
            lines.append(f"t_c: {fmt_value(res.t_c)}")
            lines.append(f"u_of_n_residual: {fmt_value(abs(res.u_of_n - 1.0))}")
        lines.append(f"bracket: [{fmt_value(res.bracket[0])}, {fmt_value(res.bracket[1])}]")
        lines.append(f"iterations: {res.iterations}")
        _write_out("\n".join(lines) + "\n", args.out)
    return 0


def cmd_spectrum(args) -> int:
    doc = _load_config(args.config, required=True)
    _require_keys(doc, {"model": True}, "config")
    spec = parse_model(doc["model"])
    sd = decompose(spec, vectors=False)
    rows = []
    for k, e in enumerate(sd.eigenvalues):
        rows.append({
            "index": k,
            "energy": float(e),
            "s_z": None if sd.sector_labels is None else float(sd.sector_labels[k]),
        })
    columns = ("index", "energy", "s_z")
    if (args.format or "csv") == "json":
        text = render_json(columns, rows,
                           meta={"ground_energy": sd.ground_energy,
                                 "ground_degeneracy": sd.ground_degeneracy})
    else:
        text = render_csv(columns, rows)
    _write_out(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heisenring",
        description="Thermal entanglement and Bell violation on spin-1/2 rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text in (
        ("sweep", cmd_sweep, "temperature sweep of thermodynamic and entanglement columns"),
        ("verify", cmd_verify, "run the invariant verification suite"),
        ("threshold", cmd_threshold, "find the entanglement threshold temperature"),
        ("spectrum", cmd_spectrum, "dump the eigenvalue spectrum"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to the JSON configuration")
        p.add_argument("--out", default="stdout", help="output path or 'stdout'")
        if name == "verify":
            p.add_argument("--seed", type=int,
                           help="seed for the random CHSH frames and sampled models")
        else:
            p.add_argument("--format", choices=("csv", "json"),
                           help="output format (overrides the config)")
        p.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
