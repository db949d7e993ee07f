"""Command line interface: verify / compute / explain.

    radonfourier verify [CHECK ...] --field {r|c|qp} [--p P] --n N
                        --seed S --tol T --samples K [--out report.json]
    radonfourier verify --config config.json [--out report.json]
    radonfourier compute {fourier|intertwine|inner-product} --input spec.json
    radonfourier explain CHECK

``verify`` with no check names runs the full battery on the default
configurations (real n=1 plus p-adic n=1 at p=2 and p=3).  Exit codes:
0 all checks pass, 1 some check fails, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from fractions import Fraction

import numpy as np

from .fields import COMPLEX
from .functions import _json_of, function_from_json, json_matrix
from .geometry import as_matrix, is_regular, space_X
from .hilbert import inner_X
from .suite import (
    CHECKS,
    SuiteConfig,
    check_bounds,
    explain_check,
    field_from_spec,
    report_to_json,
    run_suite,
)
from .transforms import fourier, intertwine_I

EXIT_PASS, EXIT_FAIL, EXIT_CONFIG = 0, 1, 2


class _Parser(argparse.ArgumentParser):
    """Flag errors are config errors: one line and exit 2 (``-h`` is not one)."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="radonfourier",
        description="verification engine for matrix Fourier / Radon-type "
        "intertwining integrals over local fields",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verification checks")
    v.add_argument("checks", nargs="*", help=f"checks to run (default: full battery); available: {', '.join(sorted(CHECKS))}")
    # unset flags stay None, so SuiteConfig's defaults apply
    v.add_argument("--field", choices=["r", "c", "qp"])
    for flag in ("--p", "--n", "--seed", "--samples"):
        v.add_argument(flag, type=int)
    v.add_argument("--tol", type=float)
    v.add_argument("--config", default=None, help="JSON config file; use it alone (only --out combines with it)")
    v.add_argument("--out", default=None, help="write the JSON report here")

    c = sub.add_parser("compute", help="evaluate a single operation")
    c.add_argument("operation", choices=["fourier", "intertwine", "inner-product"])
    c.add_argument("--input", required=True, help="JSON input specification")
    c.add_argument("--out", default=None)

    e = sub.add_parser("explain", help="describe a check and its tolerance")
    e.add_argument("name")
    return ap


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _check_out(out: str | None):
    """Refuse an --out path that cannot be written, before anything runs."""
    if out is None:
        return
    folder = os.path.dirname(os.path.abspath(out))
    if os.path.isdir(out):
        raise ValueError(f"--out {out} is a directory")
    if not os.path.isdir(folder):
        raise ValueError(f"--out {out}: no directory {folder}")
    if not os.access(folder, os.W_OK) or (os.path.exists(out) and not os.access(out, os.W_OK)):
        raise ValueError(f"--out {out} is not writable")


def _emit(payload: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    print(payload)


def _parse_matrix(obj, fd, rows, cols, name):
    """A matrix of the field; over C its entries may be [re, im] pairs."""
    kind = complex if fd.kind == COMPLEX else float if fd.is_archimedean else Fraction
    m = as_matrix(json_matrix(obj, name, kind), fd)
    if np.shape(m) != (rows, cols):
        raise ValueError(f"{name} must be a {rows}x{cols} matrix")
    return m


def _configs(args) -> list:
    """The suite configs that ``verify``'s flags, or its --config file, name."""
    keys = {f.name for f in fields(SuiteConfig)}
    given = {k: v for k, v in vars(args).items() if k in keys and v not in (None, [])}
    if args.config:
        if given:
            named = ["check names" if k == "checks" else "--" + k.replace("_", "-") for k in sorted(given)]
            raise ValueError(f"--config cannot be combined with {', '.join(named)}")
        cfg_obj = _load_json(args.config)
        specs = cfg_obj if isinstance(cfg_obj, list) else [cfg_obj]
        if not specs:
            raise ValueError("--config holds an empty list; give at least one suite config")
        return [SuiteConfig.from_json(c) for c in specs]
    # without --field and --p: the default battery, real n=1 plus p-adic n=1
    # at p = 2 and 3
    battery = [{"field": "r"}, {"field": "qp", "p": 2}, {"field": "qp", "p": 3}]
    targets = [{}] if "field" in given or "p" in given else battery
    return [SuiteConfig(**given, **t) for t in targets]


def cmd_verify(configs, out: str | None) -> int:
    reports = [run_suite(cfg) for cfg in configs]
    payload = reports[0] if len(reports) == 1 else {
        "suites": reports,
        "pass": all(r["pass"] for r in reports),
    }
    _emit(report_to_json(payload), out)
    for rep in reports:
        for check in rep["checks"]:
            status = "PASS" if check.get("pass") else "FAIL"
            extra = " (not applicable)" if check.get("not_applicable") else ""
            print(
                f"[{status}] {check['check']} field={check['field']} n={check['n']}{extra}",
                file=sys.stderr,
            )
    return EXIT_PASS if payload["pass"] else EXIT_FAIL


def _compute(operation: str, spec: dict) -> dict:
    if not isinstance(spec, dict):
        raise ValueError("input specification must be a JSON object")
    n, p = spec.get("n", 1), spec.get("p")
    check_bounds(n=n, p=p)
    fd = field_from_spec(spec.get("field", "r"), p)
    X = space_X(n, fd)

    # complex and exact values, matrices and rationals are written by
    # report_to_json's serializer
    if operation == "fourier":
        fhat = fourier(function_from_json(spec["f"], X))
        result = {"transform": fhat.to_json()}
        if "points" in spec:
            result["values"] = [
                fhat.value(_parse_matrix(pt, fd, n, n + 1, "points"))
                for pt in _json_of(list, spec["points"], "points")
            ]
        return result

    if operation == "intertwine":
        f = function_from_json(spec["f"], X)
        y = _parse_matrix(spec["y"], fd, n, n + 1, "y")
        if not is_regular(y, fd):
            raise ValueError(f"y must be regular (rank {n}), got a rank-deficient matrix")
        return {"value": intertwine_I(f, y)}

    # inner-product: two function specs and an a-grid
    f = function_from_json(spec["f"], X)
    h = function_from_json(spec["h"], X)
    pairing = inner_X(f, h)
    rows = []
    for i, a_obj in enumerate(_json_of(list, spec["a_grid"], "a_grid")):
        a = _parse_matrix(a_obj, fd, n, n, "a_grid")
        if not is_regular(a, fd):
            raise ValueError(f"a_grid[{i}] must be invertible, got a singular matrix")
        rows.append({"a": a, "value": pairing(a)})
    return {"rows": rows, "provenance": pairing.provenance}


def cmd_explain(args) -> int:
    try:
        print(explain_check(args.name))
        return EXIT_PASS
    except KeyError as exc:
        print(str(exc.args[0]), file=sys.stderr)
        return EXIT_CONFIG


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "explain":
            return cmd_explain(args)
        _check_out(args.out)
        if args.command == "verify":
            configs = _configs(args)
        else:
            result = _compute(args.operation, _load_json(args.input))
    except (ValueError, TypeError, KeyError, OSError) as exc:
        # json.JSONDecodeError is a ValueError; a KeyError is a missing
        # ``compute`` spec key
        msg = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        print(f"config error: {msg}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "verify":
        return cmd_verify(configs, args.out)
    _emit(report_to_json(result), args.out)
    return EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
