"""Command-line surface.

Subcommands: eof, bounds, table1, sweep-family, figure1,
verify-decomposition, validate.  Exit codes: 1 input validation failure,
2 numerical failure, 3 verification failure.  Errors go to stderr as JSON.
Output is byte-identical for identical inputs and seeds.

Every CSV and text cell goes through _fmt, and every json/csv/text choice
through _emit.  A command checks its arguments and computes its whole
output before it writes any, so an error leaves stdout empty.  Only
verify-decomposition loads numpy, for its seeded sampling; its handler
imports the decomposition module once it has read its state.
"""

import argparse
import json
import math
import sys

from .eof_core import eof, g_kappa, giovannetti_family
from .epr_uncertainty import delta_pure_squeezed
from .errors import (GaussianEofError, INPUT_ERRORS, NUMERICAL_ERRORS,
                     VERIFICATION_ERRORS, DomainError)
from .standard_form import (StandardFormParams, reduce_to_standard_params,
                            validate_cm)

_EXIT_INPUT = 1
_EXIT_NUMERICAL = 2
_EXIT_VERIFICATION = 3
_FORMATS = ("json", "csv", "text")


def _fmt(x) -> str:
    """One CSV or text cell: numbers with a '.' decimal and 12 significant
    digits, lower-case booleans, "" for None, strings as they are."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, str):
        return x
    return f"{x:.12g}"


def _emit(fmt, payload, rows, text) -> None:
    """Write payload as JSON, rows (dicts with the same keys, in column
    order) as a CSV header and one line each, or the text."""
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        print(",".join(rows[0]))
        for row in rows:
            print(",".join(map(_fmt, row.values())))
    else:
        print(text)


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """np.linspace(start, stop, num) for num >= 1, float for float:
    start + i*step, with stop as the last point."""
    delta = stop - start
    div = num - 1
    if div == 0:
        return [0.0 * delta + start]
    step = delta / div
    if step == 0.0:   # numpy scales by delta when the step underflows
        return [i / div * delta + start for i in range(div)] + [stop]
    return [i * step + start for i in range(div)] + [stop]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; we reserve that
        self.exit(_EXIT_INPUT, f"{self.prog}: error: {message}\n")


def load_table1_reference() -> dict:
    from importlib import resources

    with resources.files("gaussian_eof.data").joinpath(
            "table1_reference.json").open("r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_state(path) -> dict:
    """The JSON object of a state file."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise DomainError("a state file must hold a JSON object")
    return payload


def params_from_json_dict(payload: dict) -> StandardFormParams:
    """Parse the CM JSON schema: {"gamma": [[...]]} or {"params": {...}}."""
    if "gamma" in payload:
        return reduce_to_standard_params(payload["gamma"])
    if "params" in payload:
        p = payload["params"]
        try:
            return StandardFormParams(n=float(p["n"]), m=float(p["m"]),
                                      kx=float(p["kx"]), kp=float(p["kp"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"malformed params object: {exc}") from exc
    raise DomainError('input JSON must contain "gamma" or "params"')


def _params_from_args(args) -> StandardFormParams:
    if args.params is not None and args.input is not None:
        raise DomainError("--params and --input are mutually exclusive")
    if args.params is not None:
        n, m, kx, kp = args.params
        return StandardFormParams(n=n, m=m, kx=kx, kp=kp)
    if args.input is not None:
        return params_from_json_dict(_read_state(args.input))
    raise DomainError("provide --params N M KX KP or --input FILE")


def _add_state_args(sp, default="text") -> None:
    sp.add_argument("--params", nargs=4, type=float, metavar=("N", "M", "KX", "KP"),
                    help="standard-form parameters")
    sp.add_argument("--input", help="JSON file with a gamma matrix or params object")
    sp.add_argument("--format", choices=_FORMATS, default=default)


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
    sp.add_argument("--format", choices=_FORMATS, default="text")

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
    _add_state_args(sp, default="json")
    sp.add_argument("--samples", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=12345)

    sp = sub.add_parser("validate", help="validate a covariance matrix file")
    sp.add_argument("--input", required=True)
    sp.add_argument("--format", choices=_FORMATS, default="json")
    return p


def _cmd_eof(args) -> int:
    d = eof(_params_from_args(args)).to_dict()
    row = {k: d["params"][k] for k in ("n", "m", "kx", "kp")}
    row.update((k, v) for k, v in d.items() if k != "params")
    text = (f"EOF = {_fmt(d['eof'])} bits ({d['method']})\n"
            f"delta0 = {_fmt(d['delta0'])}, delta0' = {_fmt(d['delta0_prime'])}, "
            f"a0 = {_fmt(d['a0'])}, b0 = {_fmt(d['b0'])}")
    _emit(args.format, d, [row], text)
    return 0


def _cmd_bounds(args) -> int:
    from . import bounds as bounds_mod

    d = bounds_mod.bounds_report(_params_from_args(args)).to_dict()
    upper = _fmt(d["oliveira_upper"]) if d["oliveira_physical"] else "non-physical"
    text = (f"lower = {_fmt(d['rigolin_lower'])} <= eof = {_fmt(d['eof'])} "
            f"<= gaussian_eof = {_fmt(d['gaussian_eof'])}; upper = {upper}; "
            f"m_opt = {_fmt(d['m_opt'])}")
    _emit(args.format, d, [d], text)
    return 0


def _table1_rows() -> list[dict]:
    from . import bounds as bounds_mod

    ref = load_table1_reference()
    tol = ref["tolerances"]
    rows = []
    for row in ref["rows"]:
        params = StandardFormParams(n=row["n"], m=row["m"], kx=row["kx"], kp=row["kp"])
        computed = bounds_mod.bounds_report(params)
        cells = {}
        for name in ("eof", "gaussian_eof", "rigolin_lower", "oliveira_upper"):
            got, want = getattr(computed, name), row[name]
            # an absent cell (a non-physical Oliveira state) matches only absent
            dev = None if got is None or want is None else abs(got - want)
            ok = (got is None and want is None) if dev is None else dev <= tol[name]
            cells[name] = {"computed": got, "reference": want, "deviation": dev,
                           "within_tolerance": ok}
        rows.append({"params": [row["n"], row["m"], row["kx"], row["kp"]],
                     "marians_eof": row["marians_eof"], "cells": cells})
    return rows


def _cmd_table1(args) -> int:
    rows = _table1_rows()
    out_of_tol = sum(not c["within_tolerance"]
                     for r in rows for c in r["cells"].values())
    cell_rows = []
    lines = [f"{'params':>22}  {'column':>14}  {'computed':>14}  "
             f"{'reference':>14}  {'deviation':>10}  ok"]
    for r in rows:
        label = "(" + ", ".join(map(_fmt, r["params"])) + ")"
        for name, c in r["cells"].items():
            cell_rows.append({**dict(zip(("n", "m", "kx", "kp"), r["params"])),
                              "column": name, **c})
            lines.append(f"{label:>22}  {name:>14}  {_fmt(c['computed']) or 'absent':>14}  "
                         f"{_fmt(c['reference']) or 'absent':>14}  "
                         f"{_fmt(c['deviation']) or '-':>10}  "
                         f"{'yes' if c['within_tolerance'] else 'NO'}")
            label = ""
    _emit(args.format, {"rows": rows, "all_within_tolerance": out_of_tol == 0,
                        "cells_out_of_tolerance": out_of_tol},
          cell_rows, "\n".join(lines))
    return _EXIT_VERIFICATION if args.strict and out_of_tol else 0


def _cmd_sweep_family(args) -> int:
    if args.points < 1 or not 0.0 <= args.nbar_min <= args.nbar_max < math.inf:
        raise DomainError("invalid sweep grid")
    g = g_kappa(args.kappa)
    rows = [{"kappa": args.kappa, "nbar": nbar,
             "eof": giovannetti_family(args.kappa, nbar)[1].eof, "g_kappa": g}
            for nbar in _linspace(args.nbar_min, args.nbar_max, args.points)]
    _emit("csv", None, rows, None)
    return 0


def _cmd_figure1(args) -> int:
    a_values = args.a_values or [-1.0, -1.2, -1.5]
    if any(a >= 0.0 for a in a_values):
        raise DomainError("Duan parameter a must be negative")
    if not all(map(math.isfinite, a_values)):
        raise DomainError("Duan parameter a must be finite")
    if args.points < 2 or not 0.0 < args.r_max < math.inf:
        raise DomainError("invalid r grid")
    grid = _linspace(0.0, args.r_max, args.points)
    _emit("csv", None, [{"a": a, "r": r, "delta": delta_pure_squeezed(r, a)}
                        for a in a_values for r in grid], None)
    return 0


def _cmd_verify_decomposition(args) -> int:
    params = _params_from_args(args)   # an input error loads no numpy
    from . import decomposition as decomp_mod

    report = decomp_mod.verify_reconstruction(params, n_samples=args.samples,
                                              seed=args.seed)
    text = (f"r_opt = {_fmt(report['r_opt'])}, n = {report['n_samples']}, "
            f"max error = {_fmt(report['max_abs_error'])}, tolerance = "
            f"{_fmt(report['tolerance'])}, pass = {report['pass']}")
    _emit(args.format, report, [report], text)
    return 0 if report["pass"] else _EXIT_VERIFICATION


def _cmd_validate(args) -> int:
    payload = _read_state(args.input)
    if "gamma" not in payload:
        raise DomainError('validate expects a file with a "gamma" matrix')
    d = validate_cm(payload["gamma"]).to_dict()
    nu = d["symplectic_eigenvalues"]
    row = {k: v for k, v in d.items() if k != "symplectic_eigenvalues"}
    row.update(nu_minus=nu[0], nu_plus=nu[1])
    text = (f"bona fide = {d['is_bona_fide']}, pure = {d['is_pure']}, "
            f"nu = ({_fmt(nu[0])}, {_fmt(nu[1])})")
    _emit(args.format, d, [row], text)
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
