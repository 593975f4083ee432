"""Command-line surface.

Subcommands: eof, bounds, table1, sweep-family, figure1,
verify-decomposition, validate.  Exit codes: 1 input validation failure,
2 numerical failure, 3 verification failure.  Errors go to stderr as JSON.
Output is byte-identical for identical inputs and seeds.

numpy and the modules built on it are imported by the handlers that use
them, so `eof`, `bounds`, `table1` and `validate` run without loading
numpy.
"""

import argparse
import json
import sys

from .eof_core import eof, g_kappa, giovannetti_family
from .epr_uncertainty import delta_pure_squeezed
from .errors import (GaussianEofError, INPUT_ERRORS, NUMERICAL_ERRORS,
                     VERIFICATION_ERRORS, DomainError)
from .standard_form import (StandardFormParams, params_from_json_dict,
                            validate_cm)

_EXIT_INPUT = 1
_EXIT_NUMERICAL = 2
_EXIT_VERIFICATION = 3


def _fmt(x) -> str:
    """CSV number format: '.' decimal, 12 significant digits."""
    if x is None:
        return ""
    return f"{x:.12g}"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; we reserve that
        self.exit(_EXIT_INPUT, f"{self.prog}: error: {message}\n")


def load_table1_reference() -> dict:
    from importlib import resources

    with resources.files("gaussian_eof.data").joinpath(
            "table1_reference.json").open("r", encoding="utf-8") as fh:
        return json.load(fh)


def _params_from_args(args) -> StandardFormParams:
    if args.params is not None and args.input is not None:
        raise DomainError("--params and --input are mutually exclusive")
    if args.params is not None:
        n, m, kx, kp = args.params
        return StandardFormParams(n=n, m=m, kx=kx, kp=kp)
    if args.input is not None:
        with open(args.input, "r", encoding="utf-8") as fh:
            return params_from_json_dict(json.load(fh))
    raise DomainError("provide --params N M KX KP or --input FILE")


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _add_state_args(sp) -> None:
    sp.add_argument("--params", nargs=4, type=float, metavar=("N", "M", "KX", "KP"),
                    help="standard-form parameters")
    sp.add_argument("--input", help="JSON file with a gamma matrix or params object")
    sp.add_argument("--format", choices=("json", "csv", "text"), default="text")


def build_parser() -> _Parser:
    p = _Parser(prog="gaussian-eof",
                description="Entanglement of formation of two-mode Gaussian states")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eof", help="EOF of one state")
    _add_state_args(sp)

    sp = sub.add_parser("bounds", help="EOF with Gaussian EOF and published bounds")
    _add_state_args(sp)

    sp = sub.add_parser("table1", help="reproduce the six benchmark states")
    sp.add_argument("--strict", action="store_true",
                    help="exit nonzero if any cell deviates beyond tolerance")
    sp.add_argument("--format", choices=("json", "csv", "text"), default="text")

    sp = sub.add_parser("sweep-family", help="amplifier-family EOF sweep (CSV)")
    sp.add_argument("--kappa", type=float, default=2.0)
    sp.add_argument("--nbar-min", type=float, default=0.0)
    sp.add_argument("--nbar-max", type=float, default=50.0)
    sp.add_argument("--points", type=int, default=26)

    sp = sub.add_parser("figure1", help="pure-state uncertainty curves (CSV)")
    sp.add_argument("--a", type=float, action="append", dest="a_values",
                    metavar="A", help="negative Duan parameter; repeatable")
    sp.add_argument("--r-max", type=float, default=8.0)
    sp.add_argument("--points", type=int, default=2001)

    sp = sub.add_parser("verify-decomposition",
                        help="Monte-Carlo check of the optimal decomposition")
    sp.add_argument("--params", nargs=4, type=float, metavar=("N", "M", "KX", "KP"))
    sp.add_argument("--input")
    sp.add_argument("--format", choices=("json", "csv", "text"), default="json")
    sp.add_argument("--samples", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=12345)

    sp = sub.add_parser("validate", help="validate a covariance matrix file")
    sp.add_argument("--input", required=True)
    sp.add_argument("--format", choices=("json", "csv", "text"), default="json")
    return p


def _cmd_eof(args) -> int:
    report = eof(_params_from_args(args))
    if args.format == "json":
        _emit_json(report.to_dict())
    elif args.format == "csv":
        d = report.to_dict()
        print("n,m,kx,kp,a0,b0,delta0,delta0_prime,eof,method,separable")
        print(",".join([_fmt(d["params"]["n"]), _fmt(d["params"]["m"]),
                        _fmt(d["params"]["kx"]), _fmt(d["params"]["kp"]),
                        _fmt(d["a0"]), _fmt(d["b0"]), _fmt(d["delta0"]),
                        _fmt(d["delta0_prime"]), _fmt(d["eof"]),
                        d["method"], str(d["separable"]).lower()]))
    else:
        print(f"EOF = {_fmt(report.eof)} bits ({report.method})")
        print(f"delta0 = {_fmt(report.epr.delta0)}, delta0' = "
              f"{_fmt(report.epr.delta0_prime)}, a0 = {_fmt(report.epr.a0)}, "
              f"b0 = {_fmt(report.epr.b0)}")
    return 0


def _cmd_bounds(args) -> int:
    from . import bounds as bounds_mod

    report = bounds_mod.bounds_report(_params_from_args(args))
    d = report.to_dict()
    if args.format == "json":
        _emit_json(d)
    elif args.format == "csv":
        keys = ["eof", "gaussian_eof", "rigolin_lower", "oliveira_upper",
                "oliveira_physical", "m_opt"]
        print(",".join(keys))
        print(",".join(_fmt(d[k]) if not isinstance(d[k], bool)
                       else str(d[k]).lower() for k in keys))
    else:
        upper = _fmt(d["oliveira_upper"]) if d["oliveira_physical"] else "non-physical"
        print(f"lower = {_fmt(d['rigolin_lower'])} <= eof = {_fmt(d['eof'])} "
              f"<= gaussian_eof = {_fmt(d['gaussian_eof'])}; upper = {upper}; "
              f"m_opt = {_fmt(d['m_opt'])}")
    return 0


def _table1_rows() -> tuple[list[dict], dict]:
    from . import bounds as bounds_mod

    ref = load_table1_reference()
    tol = ref["tolerances"]
    rows = []
    for row in ref["rows"]:
        params = StandardFormParams(n=row["n"], m=row["m"], kx=row["kx"], kp=row["kp"])
        computed = bounds_mod.bounds_report(params)
        upper = computed.oliveira_upper
        cells = {name: (getattr(computed, name), row[name], tol[name])
                 for name in ("eof", "gaussian_eof", "rigolin_lower")}
        out = {"params": [row["n"], row["m"], row["kx"], row["kp"]],
               "marians_eof": row["marians_eof"], "cells": {}}
        for name, (got, want, cell_tol) in cells.items():
            dev = abs(got - want)
            out["cells"][name] = {"computed": got, "reference": want,
                                  "deviation": dev, "within_tolerance": dev <= cell_tol}
        ref_upper = row["oliveira_upper"]
        if ref_upper is None:
            ok = upper is None
            entry = {"computed": upper, "reference": None,
                     "deviation": None, "within_tolerance": ok}
        elif upper is None:
            entry = {"computed": None, "reference": ref_upper,
                     "deviation": None, "within_tolerance": False}
        else:
            dev = abs(upper - ref_upper)
            entry = {"computed": upper, "reference": ref_upper, "deviation": dev,
                     "within_tolerance": dev <= tol["oliveira_upper"]}
        out["cells"]["oliveira_upper"] = entry
        rows.append(out)
    return rows, tol


def _cmd_table1(args) -> int:
    rows, _ = _table1_rows()
    out_of_tol = sum(not c["within_tolerance"]
                     for r in rows for c in r["cells"].values())
    all_ok = out_of_tol == 0
    if args.format == "json":
        _emit_json({"rows": rows, "all_within_tolerance": all_ok,
                    "cells_out_of_tolerance": out_of_tol})
    elif args.format == "csv":
        print("n,m,kx,kp,column,computed,reference,deviation,within_tolerance")
        for r in rows:
            pref = ",".join(_fmt(v) for v in r["params"])
            for name, c in r["cells"].items():
                print(f"{pref},{name},{_fmt(c['computed'])},{_fmt(c['reference'])},"
                      f"{_fmt(c['deviation'])},{str(c['within_tolerance']).lower()}")
    else:
        head = (f"{'params':>22}  {'column':>14}  {'computed':>14}  "
                f"{'reference':>14}  {'deviation':>10}  ok")
        print(head)
        for r in rows:
            label = "(" + ", ".join(_fmt(v) for v in r["params"]) + ")"
            for name, c in r["cells"].items():
                comp = _fmt(c["computed"]) if c["computed"] is not None else "absent"
                want = _fmt(c["reference"]) if c["reference"] is not None else "absent"
                dev = _fmt(c["deviation"]) if c["deviation"] is not None else "-"
                print(f"{label:>22}  {name:>14}  {comp:>14}  {want:>14}  "
                      f"{dev:>10}  {'yes' if c['within_tolerance'] else 'NO'}")
                label = ""
    if args.strict and not all_ok:
        return _EXIT_VERIFICATION
    return 0


def _cmd_sweep_family(args) -> int:
    import numpy as np

    if args.points < 1 or args.nbar_max < args.nbar_min or args.nbar_min < 0:
        raise DomainError("invalid sweep grid")
    grid = np.linspace(args.nbar_min, args.nbar_max, args.points)
    print("kappa,nbar,eof,g_kappa")
    g = g_kappa(args.kappa)
    for nbar in grid:
        _, report, _ = giovannetti_family(args.kappa, float(nbar))
        print(f"{_fmt(args.kappa)},{_fmt(float(nbar))},{_fmt(report.eof)},{_fmt(g)}")
    return 0


def _cmd_figure1(args) -> int:
    import numpy as np

    a_values = args.a_values or [-1.0, -1.2, -1.5]
    if any(a >= 0.0 for a in a_values):
        raise DomainError("Duan parameter a must be negative")
    if args.points < 2 or args.r_max <= 0.0:
        raise DomainError("invalid r grid")
    grid = np.linspace(0.0, args.r_max, args.points)
    print("a,r,delta")
    for a in a_values:
        for r in grid:
            print(f"{_fmt(a)},{_fmt(float(r))},{_fmt(delta_pure_squeezed(float(r), a))}")
    return 0


def _cmd_verify_decomposition(args) -> int:
    from . import decomposition as decomp_mod

    params = _params_from_args(args)
    report = decomp_mod.verify_reconstruction(params, n_samples=args.samples,
                                              seed=args.seed)
    if args.format == "csv":
        keys = ["r_opt", "n_samples", "max_abs_error", "tolerance", "pass"]
        print(",".join(keys))
        print(",".join(str(report[k]).lower() if isinstance(report[k], bool)
                       else _fmt(report[k]) for k in keys))
    elif args.format == "text":
        print(f"r_opt = {_fmt(report['r_opt'])}, n = {report['n_samples']}, "
              f"max error = {_fmt(report['max_abs_error'])}, tolerance = "
              f"{_fmt(report['tolerance'])}, pass = {report['pass']}")
    else:
        _emit_json(report)
    return 0 if report["pass"] else _EXIT_VERIFICATION


def _cmd_validate(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if "gamma" not in payload:
        raise DomainError('validate expects a file with a "gamma" matrix')
    report = validate_cm(payload["gamma"])
    d = report.to_dict()
    if args.format == "json":
        _emit_json(d)
    elif args.format == "csv":
        keys = ["is_symmetric_matrix", "is_positive", "is_bona_fide", "is_pure"]
        print(",".join(keys + ["nu_minus", "nu_plus"]))
        print(",".join([str(d[k]).lower() for k in keys]
                       + [_fmt(v) for v in d["symplectic_eigenvalues"]]))
    else:
        print(f"bona fide = {d['is_bona_fide']}, pure = {d['is_pure']}, "
              f"nu = ({_fmt(d['symplectic_eigenvalues'][0])}, "
              f"{_fmt(d['symplectic_eigenvalues'][1])})")
    return 0


_HANDLERS = {
    "eof": _cmd_eof,
    "bounds": _cmd_bounds,
    "table1": _cmd_table1,
    "sweep-family": _cmd_sweep_family,
    "figure1": _cmd_figure1,
    "verify-decomposition": _cmd_verify_decomposition,
    "validate": _cmd_validate,
}


def _error_payload(exc: Exception) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)}


# first match wins: OSError and ValueError (json.JSONDecodeError among them)
# come from reading input files
_EXIT_CODES = ((INPUT_ERRORS, _EXIT_INPUT), (NUMERICAL_ERRORS, _EXIT_NUMERICAL),
               (VERIFICATION_ERRORS, _EXIT_VERIFICATION),
               ((OSError, ValueError), _EXIT_INPUT),
               (GaussianEofError, _EXIT_NUMERICAL))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (GaussianEofError, OSError, ValueError) as exc:
        print(json.dumps(_error_payload(exc)), file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
