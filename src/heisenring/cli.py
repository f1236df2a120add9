"""Command-line surface: sweep, verify, threshold and spectrum subcommands.

Configuration is a single JSON document; unknown keys are rejected so a
typo in a physics parameter fails loudly instead of running the default.
All floats print with 17 significant digits in both CSV and JSON, so the
two renderings round-trip to bit-identical values; a non-finite float is
written as null in JSON and as an empty cell in CSV, so every output parses
strictly.

Output is written as it is made: render_csv and render_json yield the
text one row block at a time and _write_out writes each piece as it
comes.  A sweep computes its grid in row blocks (sweep.sweep_blocks), so
it holds one block's rows and text at a time, whatever the grid's length;
a run that fails midway leaves the rows written before the failure.

Exit codes: 0 success, 1 invariant failure, 2 configuration error, 141
(128 + SIGPIPE) when the reader closes stdout before the output ends, as
`| head` does; the rest of the output is dropped, with no traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .model import ModelSpec
from .spectral import decompose
from .sweep import COLUMNS, sweep_blocks, temperature_grid
from .threshold import find_threshold


# the most bytes a temperature grid may hold at once as float64: the grid
# itself for a sweep, the (count, 2^N) weight matrix of a verify spec
GRID_BUDGET_BYTES = 4 << 30


class ConfigError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class SweepConfig:
    model: ModelSpec
    temperatures: np.ndarray
    pair: tuple[int, int]
    outputs: tuple[str, ...]


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
    if isinstance(val, int) and abs(val) > sys.float_info.max:
        raise ConfigError(f"{where}.{key} is too large for a float")
    return val


def _coupling_rows(obj: dict, key: str) -> list:
    """obj[key], checked to be a list of equal-length lists of JSON numbers."""
    rows = obj[key]
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)
            and len({len(row) for row in rows}) <= 1):
        raise ConfigError(f"model.{key} must be a list of equal-length lists of numbers")
    for row in rows:
        for val in row:
            # JSON true is an int to isinstance; it must not run as 1
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise ConfigError(f"model.{key} entries must be numbers, got {val!r}")
    return rows


def parse_model(obj: dict) -> ModelSpec:
    if not isinstance(obj, dict):
        raise ConfigError("'model' must be a JSON object")
    if "jx" in obj or "jy" in obj or "jz" in obj:
        _require_keys(obj, {"jx": True, "jy": True, "jz": True, "field_b": False}, "model")
        jx, jy, jz = (_coupling_rows(obj, key) for key in ("jx", "jy", "jz"))
        try:
            return ModelSpec.general(np.asarray(jx, dtype=float),
                                     np.asarray(jy, dtype=float),
                                     np.asarray(jz, dtype=float),
                                     field_b=_number(obj, "field_b", "model", 0.0))
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"model: {exc}") from exc
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


def parse_temperatures(obj: dict, width: int = 1) -> np.ndarray:
    """The temperature grid, held with `width` float64 values per temperature.

    A sweep holds the grid and one row block at a time, so its width is 1;
    verify forms one (count, 2^N) weight matrix per spec, so its width is
    2^N of its widest ring.
    """
    _require_keys(obj, {"start": True, "stop": True, "count": True,
                        "spacing": False}, "temperatures")
    spacing = obj.get("spacing", "linear")
    if spacing not in ("linear", "log"):
        raise ConfigError(f"temperatures.spacing must be 'linear' or 'log', got {spacing!r}")
    count = obj["count"]
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ConfigError(f"temperatures.count must be an integer >= 1, got {count!r}")
    # refused before the grid itself is allocated
    grid_bytes = 8 * count * width
    if grid_bytes > GRID_BUDGET_BYTES:
        raise ConfigError(
            f"temperatures.count={count} needs {grid_bytes} bytes at {width} float64 "
            f"values per temperature, over the {GRID_BUDGET_BYTES}-byte budget")
    try:
        return temperature_grid(_number(obj, "start", "temperatures"),
                                _number(obj, "stop", "temperatures"),
                                count, spacing)
    except ValueError as exc:
        raise ConfigError(f"temperatures: {exc}") from exc


def parse_sweep_config(doc: dict) -> SweepConfig:
    _require_keys(doc, {"model": True, "temperatures": True, "pair": False,
                        "outputs": False}, "config")
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
    return SweepConfig(spec, temps, (pair[0], pair[1]), tuple(outputs))


def parse_verify_options(doc: dict):
    """The verify.VerifyOptions of a verify config.

    verify and oracle load here and in cmd_verify, so no other subcommand
    loads them.
    """
    from .oracle import FULL_PATH_MAX_SITES
    from .verify import VerifyOptions

    _require_keys(doc, {"n_values": False, "deltas": False, "fields": False,
                        "j_values": False, "temperatures": False, "seed": False}, "config")
    kwargs = {key: doc[key] for key in ("n_values", "deltas", "fields", "j_values", "seed")
              if key in doc}
    if "temperatures" in doc:
        # the widest ring verify accepts
        kwargs["temperatures"] = tuple(parse_temperatures(doc["temperatures"],
                                                          1 << FULL_PATH_MAX_SITES))
    try:
        return VerifyOptions(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# rendering: every float as %.17g in both formats

def fmt_value(v, null: str = "") -> str:
    """One CSV cell, or one JSON value with null="null"; no cell is a string."""
    # floats first: they are nearly every cell
    if isinstance(v, float):
        return f"{v:.17g}" if math.isfinite(v) else null
    if v is None:
        return null
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def render_csv(columns, table: Iterable[dict[str, list]]) -> Iterator[str]:
    """CSV of the named columns of `table`, one piece per block.

    `table` is an iterable of row blocks, each a dict column name -> values
    in row order; the header comes first, then the lines of each block.
    """
    yield ",".join(columns) + "\n"
    for block in table:
        yield "".join([",".join([fmt_value(v) for v in row]) + "\n"
                       for row in zip(*(block[c] for c in columns))])


def render_json(columns, table: Iterable[dict[str, list]],
                meta: dict | None = None) -> Iterator[str]:
    """JSON of the named columns of `table` (row blocks, as in render_csv), one piece per block."""
    parts = []
    if meta:
        for k, v in meta.items():
            parts.append(f'"{k}": {fmt_value(v, "null")}')
    cols = ", ".join(json.dumps(c) for c in columns)
    parts.append(f'"columns": [{cols}]')
    yield "{" + ", ".join(parts) + ', "rows": ['
    sep = ""
    for block in table:
        rows = ", ".join(["[" + ", ".join([fmt_value(v, "null") for v in row]) + "]"
                          for row in zip(*(block[c] for c in columns))])
        if rows:
            yield sep + rows
            sep = ", "
    yield "]}\n"


def _write_out(pieces: Iterable[str], out: str) -> None:
    """Write each piece of text to `out`, a path or stdout, as it comes."""
    if out in ("stdout", "-"):
        for piece in pieces:
            sys.stdout.write(piece)
        # a closed pipe raises here, not in the flush at exit
        sys.stdout.flush()
        return
    try:
        with open(out, "w", newline="") as fh:
            for piece in pieces:
                fh.write(piece)
    except OSError as exc:
        raise ConfigError(f"cannot write output {out!r}: {exc}") from exc


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
    render = render_csv if args.format == "csv" else render_json
    _write_out(render(cfg.outputs, sweep_blocks(cfg.model, cfg.temperatures, cfg.pair)),
               args.out)
    return 0


def cmd_verify(args) -> int:
    from .verify import render_report, run_verification

    opts = parse_verify_options(_load_config(args.config, required=False))
    results = run_verification(opts)
    _write_out([render_report(results) + "\n"], args.out)
    return 0 if all(r.passed for r in results) else 1


def cmd_threshold(args) -> int:
    doc = _load_config(args.config, required=True)
    _require_keys(doc, {"model": True}, "config")
    spec = parse_model(doc["model"])
    try:
        res = find_threshold(spec)
    except ValueError as exc:
        raise ConfigError(f"threshold: {exc}") from exc
    if args.format == "json":
        body = ", ".join([
            f'"status": {json.dumps(res.status)}',
            f'"t_c": {fmt_value(res.t_c, "null")}',
            f'"bracket": [{fmt_value(res.bracket[0], "null")}, '
            f'{fmt_value(res.bracket[1], "null")}]',
            f'"iterations": {res.iterations}',
            f'"u_of_n": {fmt_value(res.u_of_n, "null")}',
        ])
        _write_out(["{" + body + "}\n"], args.out)
    else:
        row = {"status": res.status, "t_c": res.t_c, "bracket_lo": res.bracket[0],
               "bracket_hi": res.bracket[1], "iterations": res.iterations,
               "u_of_n": res.u_of_n}
        _write_out(render_csv(list(row), [{k: [v] for k, v in row.items()}]), args.out)
    return 0


def cmd_spectrum(args) -> int:
    doc = _load_config(args.config, required=True)
    _require_keys(doc, {"model": True}, "config")
    spec = parse_model(doc["model"])
    sd = decompose(spec, vectors=False)
    table = {
        "index": list(range(sd.dim)),
        "energy": sd.eigenvalues.tolist(),
        "s_z": ([None] * sd.dim if sd.sector_labels is None
                else sd.sector_labels.astype(float).tolist()),
    }
    columns = ("index", "energy", "s_z")
    if args.format == "json":
        pieces = render_json(columns, [table],
                             meta={"ground_energy": sd.ground_energy,
                                   "ground_degeneracy": sd.ground_degeneracy})
    else:
        pieces = render_csv(columns, [table])
    _write_out(pieces, args.out)
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
        if name != "verify":
            p.add_argument("--format", choices=("csv", "json"), default="csv",
                           help="output format")
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
    except BrokenPipeError:
        # stdout's reader is gone: point stdout at devnull, so the flush at
        # exit drops what is still buffered instead of raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
