import ast
import decimal
import json
import math
import pathlib
import pkgutil
import re
import sys

import numpy as np
import pytest

import gaussian_eof
from gaussian_eof import bounds as bounds_mod
from gaussian_eof.cli import _HANDLERS, main
from gaussian_eof import squeezed_vacuum_cm, standard_form_cm, StandardFormParams

from conftest import fresh_python

DATA = pathlib.Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eof_json(capsys):
    code, out, err = run_cli(capsys, "eof", "--params", "2", "1.5", "1", "-1",
                             "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["eof"] == pytest.approx(0.2022298409, abs=1e-7)
    assert payload["method"] == "squeezed_thermal"


def test_eof_text_and_csv(capsys):
    code, out, _ = run_cli(capsys, "eof", "--params", "2", "1.5", "1", "-1")
    assert code == 0 and "EOF = " in out
    code, out, _ = run_cli(capsys, "eof", "--params", "2", "1.5", "1", "-1",
                           "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("n,m,kx,kp")
    assert float(row.split(",")[8]) == pytest.approx(0.2022298409, abs=1e-7)


def test_eof_from_gamma_file(tmp_path, capsys):
    gamma = standard_form_cm(StandardFormParams(2.0, 1.5, 1.0, -1.0), 1.0, 1.0)
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"gamma": gamma.tolist()}))
    code, out, _ = run_cli(capsys, "eof", "--input", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["eof"] == pytest.approx(0.2022298409, abs=1e-7)


def test_params_and_input_mutually_exclusive(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"params": {"n": 2, "m": 1.5, "kx": 1, "kp": -1}}))
    code, _, err = run_cli(capsys, "eof", "--params", "2", "1.5", "1", "-1",
                           "--input", str(path))
    assert code == 1
    assert json.loads(err)["error"] == "DomainError"


def test_missing_input_exits_one(capsys):
    code, _, err = run_cli(capsys, "eof")
    assert code == 1
    assert json.loads(err)["error"] == "DomainError"


def test_invalid_state_exits_one(capsys):
    code, _, err = run_cli(capsys, "eof", "--params", "1.5", "1.5", "1.2", "-1")
    assert code == 1
    assert json.loads(err)["error"] == "InvalidState"


@pytest.mark.parametrize("gamma", [0.5 * np.eye(4), np.diag([2.0, 2.0, 1.0, -1.0])],
                         ids=["uncertainty", "not_positive"])
def test_invalid_raw_matrix_exits_one(tmp_path, capsys, gamma):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"gamma": gamma.tolist()}))
    code, out, err = run_cli(capsys, "eof", "--input", str(path))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "InvalidState"


def test_numerical_failure_exits_two(capsys):
    # indefinite decomposition weight on an asymmetric benchmark row
    code, _, err = run_cli(capsys, "verify-decomposition", "--params",
                           "2", "1.5", "1", "-1", "--samples", "1000")
    assert code == 2
    assert json.loads(err)["error"] == "NotPsd"


def test_sandwich_violation_exits_three(capsys, monkeypatch):
    # a lower bound above the EOF breaks the sandwich bounds_report asserts
    monkeypatch.setattr(bounds_mod, "rigolin_lower", lambda params: 10.0)
    code, out, err = run_cli(capsys, "bounds", "--params", "2", "1.5", "1.2",
                             "-1")
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "SandwichViolation"


def test_bounds_at_large_n_prints_no_traceback(capsys):
    # det Gamma rounds to 0 at a candidate angle of the minimizer, which
    # raised ZeroDivisionError; the state is bona fide and eof() scores it
    code, out, err = run_cli(capsys, "bounds", "--params", "458497204.1392829",
                             "458497204.84233105", "458497204.48873943",
                             " -458497204.48873943")
    if code:
        assert out == "" and len(err.splitlines()) == 1
        assert json.loads(err)["error"] in {"Infeasible", "SandwichViolation"}
    else:
        assert err == "" and "gaussian_eof" in out


def test_verify_decomposition_needs_a_sample(capsys):
    # zero draws printed pass = true with no evidence
    code, out, err = run_cli(capsys, "verify-decomposition", "--params",
                             "2", "2", "1.2", "-0.8", "--samples", "0")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "DomainError"


def test_verify_decomposition_refuses_a_negative_seed(capsys):
    # numpy's own ValueError used to name no argument
    code, out, err = run_cli(capsys, "verify-decomposition", "--params",
                             "2", "2", "1.2", "-0.8", "--seed", "-1")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "DomainError",
                               "message": "seed must be >= 0, got -1"}


def test_verify_decomposition_symmetric(capsys):
    code, out, _ = run_cli(capsys, "verify-decomposition", "--params",
                           "2", "2", "1.2", "-0.8", "--samples", "20000",
                           "--seed", "9")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["max_abs_error"] < payload["tolerance"]


def test_bounds_json(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--params", "2", "1.5", "1", "-1",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["gaussian_eof"] == pytest.approx(0.2027415477, abs=1e-6)
    assert payload["oliveira_physical"] is True


def test_validate_command(tmp_path, capsys):
    path = tmp_path / "vac.json"
    path.write_text(json.dumps({"gamma": np.eye(4).tolist()}))
    code, out, _ = run_cli(capsys, "validate", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["is_bona_fide"] and payload["is_pure"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"gamma": (0.5 * np.eye(4)).tolist()}))
    code, out, _ = run_cli(capsys, "validate", "--input", str(bad))
    assert code == 0
    assert json.loads(out)["is_bona_fide"] is False
    # a matrix that is not positive has no symplectic eigenvalues
    neg = tmp_path / "neg.json"
    neg.write_text(json.dumps({"gamma": (-np.eye(4)).tolist()}))
    code, out, _ = run_cli(capsys, "validate", "--input", str(neg))
    assert code == 0
    payload = json.loads(out)
    assert payload["is_positive"] is False and payload["is_bona_fide"] is False
    assert all(math.isnan(v) for v in payload["symplectic_eigenvalues"])


def test_validate_rejects_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "validate", "--input", str(path))
    assert code == 1


def _golden_cases():
    with open(DATA / "cli_golden.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", _golden_cases(),
                         ids=lambda case: " ".join(case["argv"]) or "<none>")
def test_golden_output(capsys, case):
    # stdout, stderr and exit code of every command and format, recorded
    # with the state files of tests/data; "{data}" stands for that directory
    argv = [a.replace("{data}", str(DATA)) for a in case["argv"]]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out.replace(str(DATA), "{data}"),
            err.replace(str(DATA), "{data}")) == (
        case["code"], case["stdout"], case["stderr"])


_HUGE = ["--params", "1e100", "2e100", "1e99", " -5e98"]
# n m and kx^2 overflow; in the second, nu_+^2 rounds to 0 (it divided by 0)
_HUGER = ["--params", "1e200", "1e200", "1e199", " -1e199"]
_ROUNDED = ["--params", "1.635567709700921e+17", "1.63556770970092e+17",
            "1.6355677097009203e+17", " -1.6355677097009203e+17"]
# the state's spectrum is finite, that of its partial transpose overflows
_PT_OVERFLOW = ["--params", "8e76", "9.6e76", "8.680004608293248e+76",
                " -7.812004147463923e+76"]


@pytest.mark.parametrize("argv", [
    ["eof", *_HUGE], ["bounds", *_HUGE], ["validate", "--input", "{huge}"],
    ["eof", "--input", "{huge}"], ["eof", *_HUGER], ["eof", *_ROUNDED],
    ["validate", "--input", "{huger}"], ["eof", "--input", "{huger}"],
    ["validate", "--input", "{coupled}"], ["eof", "--input", "{coupled}"],
    ["eof", *_PT_OVERFLOW], ["bounds", *_PT_OVERFLOW],
    ["verify-decomposition", *_PT_OVERFLOW, "--samples", "1000"]],
    ids=["eof", "bounds", "validate --input", "eof --input", "eof 1e200",
         "eof nu_+ rounded to 0", "validate --input 1e200",
         "eof --input 1e200", "validate --input 1e200 coupled",
         "eof --input 1e200 coupled", "eof partial transpose",
         "bounds partial transpose", "verify-decomposition partial transpose"])
def test_overflowing_invariants_are_a_json_error(tmp_path, capsys, argv):
    # (n^2 - m^2)^2 overflows in standard_form_nu (squared by
    # multiplication it is inf, where ** raised OverflowError), and so does
    # det(1e150 I), for which validate printed nu = (Infinity, 1e+150), no
    # JSON, and bona fide.  Such a state is outside the float range, which
    # is no broken uncertainty relation.  So are n m = inf, which read as
    # "no positive matrix", and the normalisation of 1e200 I, whose NaN
    # entries were refused as non-finite although every entry is finite.  A
    # positive matrix with large off-diagonal entries, whose det A = inf - inf
    # is NaN, read as not positive.  A partial transpose whose spectrum
    # overflows read as entangled, and the squeezing solve raised
    # ZeroDivisionError
    coupled = np.kron(np.eye(2), [[2.0, 1.0], [1.0, 2.0]])
    files = {}
    for key, gamma in (("{huge}", 1e150 * np.eye(4)),
                       ("{huger}", 1e200 * np.eye(4)),
                       ("{coupled}", 1e200 * coupled)):
        files[key] = tmp_path / f"{key[1:-1]}.json"
        files[key].write_text(json.dumps({"gamma": gamma.tolist()}))
    code, out, err = run_cli(capsys, *(str(files.get(a, a)) for a in argv))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "DomainError"
    assert "leave the float range" in payload["message"]


_BEYOND_FLOAT = 10 ** 400   # an int that float() cannot hold


@pytest.mark.parametrize("command,payload", [
    *((c, "gamma") for c in ("eof", "bounds", "validate")),
    *((c, "params") for c in ("eof", "bounds", "verify-decomposition"))])
def test_ints_beyond_the_float_range_are_a_json_error(tmp_path, capsys,
                                                       command, payload):
    # float() of such an int raises OverflowError, which must not end in a
    # traceback
    gamma = np.eye(4, dtype=int).tolist()
    gamma[0][0] = _BEYOND_FLOAT
    state = {"gamma": {"gamma": gamma},
             "params": {"params": {"n": _BEYOND_FLOAT, "m": 2, "kx": 1,
                                   "kp": -1}}}[payload]
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    code, out, err = run_cli(capsys, command, "--input", str(path))
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "DomainError"


def test_eof_from_a_matrix_reaches_validate_cm(tmp_path, capsys, monkeypatch):
    # the benchmark's tracer counts symplectic_core.validate_cm among
    # eof()'s stages: it swaps every module binding of the function for a
    # wrapper, as done here, so a raw CM must reach validate_cm
    validate = gaussian_eof.standard_form.validate_cm
    calls = []

    def counted(gamma):
        calls.append(gamma)
        return validate(gamma)

    for name, module in list(sys.modules.items()):
        if (name.startswith("gaussian_eof")
                and getattr(module, "validate_cm", None) is validate):
            monkeypatch.setattr(module, "validate_cm", counted)
    gamma = standard_form_cm(StandardFormParams(2.0, 1.5, 1.2, -1.0), 1.0, 1.0)
    gaussian_eof.eof_from_cm(gamma)
    assert len(calls) == 1
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"gamma": gamma.tolist()}))
    code, _, _ = run_cli(capsys, "eof", "--input", str(path))
    assert code == 0 and len(calls) == 2


@pytest.mark.parametrize("argv", [
    ["sweep-family", "--nbar-min", "nan"], ["sweep-family", "--nbar-min=-inf"],
    ["sweep-family", "--nbar-max", "inf"], ["sweep-family", "--nbar-max", "nan"],
    ["sweep-family", "--kappa", "nan"], ["sweep-family", "--kappa", "inf"],
    ["sweep-family", "--kappa", "0.5"], ["figure1", "--r-max", "nan"],
    ["figure1", "--r-max", "inf"], ["figure1", "--a", "nan"],
    ["figure1", "--a=-inf"]], ids=" ".join)
def test_grid_argument_error_prints_no_header(capsys, argv):
    # every argument is checked before the CSV header is written
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "DomainError"


@pytest.mark.parametrize("command", ["eof", "bounds", "verify-decomposition",
                                     "validate"])
def test_state_file_must_hold_an_object(capsys, command):
    # a number, null, a string or a list at the top level of a state file
    # is an input error, reported as JSON on stderr
    for name in ("top_number.json", "top_null.json", "top_string.json",
                 "top_list.json"):
        code, out, err = run_cli(capsys, command, "--input", str(DATA / name))
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "DomainError", "message":
                                   "a state file must hold a JSON object"}


def _nan_state(tmp_path):
    """A gamma file whose [3][3] entry is NaN."""
    gamma = np.eye(4).tolist()
    gamma[3][3] = math.nan
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"gamma": gamma}))
    return path


@pytest.mark.parametrize("command", ["eof", "bounds", "validate",
                                     "verify-decomposition"])
def test_non_finite_matrix_is_a_domain_error(tmp_path, capsys, command):
    # a NaN entry is an argument outside the domain, at every command
    code, out, err = run_cli(capsys, command, "--input", str(_nan_state(tmp_path)))
    assert (code, out) == (1, "")
    assert err == ('{"error": "DomainError", "message": '
                   '"covariance matrix has non-finite entries"}\n')


def test_linspace_is_numpy_linspace():
    # bit for bit, on random grids, one point, a zero-width grid and a
    # step that underflows to 0
    from gaussian_eof.cli import _linspace

    rng = np.random.default_rng(13)
    grids = [(float(a), float(b), int(k)) for a, b, k in zip(
        rng.uniform(-100.0, 100.0, 2000) * 10.0 ** rng.integers(-8, 8, 2000),
        rng.uniform(-100.0, 100.0, 2000), rng.integers(1, 300, 2000))]
    grids += [(3.5, 3.5, 7), (-0.0, 2.0, 1), (0.0, -2.0, 1), (2.0, 2.0, 1),
              (0.0, 5e-324, 4), (1e-310, 1.00001e-310, 9), (0.0, 1e-320, 2),
              (0.0, 8.0, 2001), (-0.0, 0.0, 3), (5.0, -5.0, 11)]
    for start, stop, num in grids:
        got = _linspace(start, stop, num)
        want = np.linspace(start, stop, num).tolist()
        assert [x.hex() for x in got] == [x.hex() for x in want], (start, stop, num)


def test_table1_default_and_strict(capsys):
    code, out, _ = run_cli(capsys, "table1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 6
    # the top-level count is the number of cells outside their tolerance
    out_of_tol = sum(not c["within_tolerance"]
                     for row in payload["rows"] for c in row["cells"].values())
    assert payload["cells_out_of_tolerance"] == out_of_tol
    assert payload["all_within_tolerance"] == (out_of_tol == 0)
    # strict exits nonzero iff some cell deviates beyond tolerance
    code_strict, out_strict, _ = run_cli(capsys, "table1", "--strict",
                                         "--format", "json")
    all_ok = json.loads(out_strict)["all_within_tolerance"]
    assert code_strict == (0 if all_ok else 3)
    # the eof and gaussian_eof columns reproduce for every row, and every
    # computed cell is the row's bounds_report value
    for row in payload["rows"]:
        assert row["cells"]["eof"]["within_tolerance"]
        assert row["cells"]["gaussian_eof"]["within_tolerance"]
        report = gaussian_eof.bounds_report(StandardFormParams(*row["params"]))
        for name, cell in row["cells"].items():
            assert cell["computed"] == getattr(report, name)


def test_table1_absent_cell_matches_only_absent(capsys, monkeypatch):
    # an Oliveira cell computed absent where the reference has a value, or
    # present where the reference is absent, is out of tolerance
    real = bounds_mod.bounds_report

    def flipped(params):
        report = real(params)
        return report._replace(oliveira_upper=(
            None if report.oliveira_upper is not None else 1.0))

    monkeypatch.setattr(bounds_mod, "bounds_report", flipped)
    code, out, _ = run_cli(capsys, "table1", "--format", "json")
    cells = [row["cells"]["oliveira_upper"] for row in json.loads(out)["rows"]]
    assert code == 0
    assert [(c["deviation"], c["within_tolerance"]) for c in cells] == [(None, False)] * 6


def test_table1_text_and_csv(capsys):
    code, out, _ = run_cli(capsys, "table1")
    assert code == 0 and "column" in out
    code, out, _ = run_cli(capsys, "table1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,m,kx,kp,column")
    assert len(lines) == 1 + 6 * 4


def test_figure1_minimum_matches_floor(capsys):
    code, out, _ = run_cli(capsys, "figure1", "--a", "-1.2", "--r-max", "2.0",
                           "--points", "4001")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,r,delta"
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    deltas = [d for (_, _, d) in rows]
    i = int(np.argmin(deltas))
    a = -1.2
    eta = 2.0 / (a * a + 1.0 / (a * a))
    assert math.tanh(2.0 * rows[i][1]) == pytest.approx(eta, abs=2e-3)
    assert deltas[i] == pytest.approx(math.sqrt(1 - eta * eta), abs=1e-5)


def test_figure1_rejects_positive_a(capsys):
    code, _, err = run_cli(capsys, "figure1", "--a", "1.0")
    assert code == 1


def _pure_curve_50_digits(a, r):
    """min(1, cosh 2r - eta sinh 2r), eta = 2 / (a^2 + 1/a^2), at 50 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a, e = decimal.Decimal(a), (2 * decimal.Decimal(r)).exp()
        eta = 2 / (a * a + 1 / (a * a))
        return float(min(1, (e + 1 / e) / 2 - eta * (e - 1 / e) / 2))


def test_figure1_matches_a_50_digit_evaluation(capsys):
    # cosh 2r - eta sinh 2r cancels at eta = 1 (a = -1): from r ~ 2.3 the
    # printed cells drifted from e^{-2r}, by 0.69 % at r = 8
    code, out, _ = run_cli(capsys, "figure1", "--points", "101")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a,r,delta"
    grid = np.linspace(0.0, 8.0, 101)
    expect = [f"{a:.12g},{r:.12g},{_pure_curve_50_digits(a, r):.12g}"
              for a in (-1.0, -1.2, -1.5) for r in grid.tolist()]
    assert [ln for ln, want in zip(lines[1:], expect) if ln != want] == []
    assert len(lines) == 1 + len(expect)


def test_figure1_past_the_overflow_of_sinh(capsys):
    # cosh 2r and sinh 2r overflow past r ~ 355, which raised OverflowError
    code, out, err = run_cli(capsys, "figure1", "--r-max", "400")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "a,r,delta" and len(lines) == 1 + 3 * 2001
    assert lines[-1] == "-1.5,400,1"
    # a^2 underflowed to 0 at a = -1e-200, and 1/a^2 raised ZeroDivisionError
    code, out, err = run_cli(capsys, "figure1", "--a=-1e-200", "--a=-1e200",
                             "--r-max", "400", "--points", "3")
    assert (code, err) == (0, "")
    assert [ln.split(",")[2] for ln in out.splitlines()[1:]] == ["1"] * 6


def test_sweep_family_csv(capsys):
    code, out, _ = run_cli(capsys, "sweep-family", "--kappa", "2",
                           "--nbar-min", "0", "--nbar-max", "2", "--points", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kappa,nbar,eof,g_kappa"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[2]) == pytest.approx(2.0, abs=1e-9)
    assert all(float(ln.split(",")[3]) == 2.0 for ln in lines[1:])


def test_byte_identical_reruns(capsys):
    args = ("figure1", "--a", "-1.5", "--r-max", "1.0", "--points", "101")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    args = ("eof", "--params", "2.3", "1.7", "1.1", "-0.9", "--format", "json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_unknown_command_exits_one(capsys):
    code = main(["frobnicate"])
    captured = capsys.readouterr()
    assert code == 1


def test_import_loads_no_scipy(tmp_path):
    # scipy is no dependency and sampling runs on one thread; every
    # command but verify-decomposition (the import, eof and bounds with
    # --params or with --input on a gamma matrix, table1 and validate in
    # every format, sweep-family and figure1) loads neither numpy nor scipy
    # nor concurrent.futures, nor fractions, decimal, dataclasses and
    # inspect, which cost milliseconds of every command's start
    path = tmp_path / "state.json"
    gamma = standard_form_cm(StandardFormParams(2.0, 1.5, 1.0, -1.0), 1.0, 1.0)
    path.write_text(json.dumps({"gamma": gamma.tolist()}))
    code = ("import json, sys\n"
            "def heavy():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.split('.')[0] in ('numpy', 'scipy')\n"
            "                  or m in ('fractions', 'decimal',\n"
            "                           'dataclasses', 'inspect')\n"
            "                  or m.startswith('concurrent.futures'))\n"
            "import gaussian_eof\n"
            "loaded = [heavy()]\n"
            "from gaussian_eof.cli import main\n"
            "codes = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    codes.append(main(argv))\n"
            "    loaded.append(heavy())\n"
            "print(json.dumps([codes, loaded]))\n")
    params = ["--params", "2", "1.5", "1", "-1"]
    commands = [["eof", *params],
                ["eof", "--input", str(path), "--format", "json"],
                ["bounds", *params],
                ["bounds", "--input", str(path), "--format", "json"],
                ["table1", "--format", "json"],
                ["table1", "--format", "csv"],
                ["table1", "--format", "text"],
                ["validate", "--input", str(path), "--format", "json"],
                ["validate", "--input", str(path), "--format", "csv"],
                ["validate", "--input", str(path), "--format", "text"],
                ["sweep-family", "--nbar-max", "2", "--points", "3"],
                ["figure1", "--r-max", "1", "--points", "5"]]
    out = fresh_python(code, json.dumps(commands)).strip().splitlines()[-1]
    assert json.loads(out) == [[0] * len(commands), [[]] * (len(commands) + 1)]


def test_verify_decomposition_input_errors_load_no_numpy(tmp_path):
    # verify-decomposition reads its state before it imports the numpy
    # module, so a refused input costs no numpy import
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    params = ["--params", "2", "2", "1.2", "-0.8"]
    commands = [["verify-decomposition"],
                ["verify-decomposition", *params, "--input", str(malformed)],
                ["verify-decomposition", "--input", str(tmp_path / "missing.json")],
                ["verify-decomposition", "--input", str(malformed)],
                ["verify-decomposition", "--input", str(_nan_state(tmp_path))]]
    code = ("import json, sys\n"
            "from gaussian_eof.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, 'numpy' in sys.modules]))\n")
    out = fresh_python(code, json.dumps(commands)).strip().splitlines()[-1]
    assert json.loads(out) == [[1] * len(commands), False]


# the library modules: every module of the package but the command line
_SUBMODULES = tuple(m.name for m in pkgutil.iter_modules(gaussian_eof.__path__)
                    if m.name != "cli")


def test_public_names_resolve():
    # every public name and every submodule resolves through getattr, a
    # name is the submodule's own object and is not stored in the package,
    # and an unknown name raises AttributeError without importing numpy
    code = ("import json, sys\n"
            "import gaussian_eof as g\n"
            "unknown = hasattr(g, 'no_such_name') or hasattr(g, '__wrapped__')\n"
            "numpy_after_unknown = 'numpy' in sys.modules\n"
            "mods = {m: getattr(g, m).__name__ for m in sys.argv[1:]}\n"
            "missing = [n for n in g.__all__ if getattr(g, n, None) is None]\n"
            "foreign = [n for n in g.__all__ if not any(\n"
            "    getattr(sys.modules['gaussian_eof.' + m], n, None) is getattr(g, n)\n"
            "    for m in sys.argv[1:])]\n"
            "print(json.dumps([unknown, numpy_after_unknown, mods, missing,\n"
            "                  foreign, sorted(vars(g)), sorted(dir(g))]))\n")
    out = fresh_python(code, *_SUBMODULES).strip().splitlines()[-1]
    unknown, numpy_loaded, mods, missing, foreign, stored, listed = json.loads(out)
    assert not unknown and not numpy_loaded
    assert mods == {m: f"gaussian_eof.{m}" for m in _SUBMODULES}
    assert missing == [] and foreign == []
    lazy = {"squeezed_vacuum_cm", "bounds_report", "standard_form_cm",
            "verify_reconstruction", "decomposition_spec", "gaussian_eof"}
    assert not lazy & set(stored)
    assert set(gaussian_eof.__all__) | set(_SUBMODULES) | {"__version__"} <= set(listed)


def test_lazy_package_loads_numpy_only_with_decomposition():
    # a new interpreter: the import loads no numpy, dir() lists the lazy
    # submodules before either is loaded, and bounds resolves without numpy
    # and decomposition with it
    lazy = ("bounds", "decomposition")
    code = ("import json, sys\n"
            "import gaussian_eof as g\n"
            "seen = ['numpy' in sys.modules, sorted(dir(g))]\n"
            "for m in sys.argv[1:]:\n"
            "    stored = m in vars(g)\n"
            "    mod = getattr(g, m)\n"
            "    seen.append([stored, mod is sys.modules['gaussian_eof.' + m],\n"
            "                 'numpy' in sys.modules])\n"
            "print(json.dumps(seen))\n")
    out = fresh_python(code, *lazy).strip().splitlines()[-1]
    numpy_at_import, listed, bounds, decomposition = json.loads(out)
    assert numpy_at_import is False
    assert set(gaussian_eof.__all__) | set(lazy) <= set(listed)
    assert bounds == [False, True, False]
    assert decomposition == [False, True, True]
    # and in this process, the module hooks themselves
    assert gaussian_eof.__getattr__("bounds") is bounds_mod
    assert set(gaussian_eof.__all__) | set(lazy) <= set(gaussian_eof.__dir__())
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        gaussian_eof.__getattr__("no_such_name")


def test_every_module_is_reached_by_a_command(tmp_path):
    # the README's commands, verify-decomposition included, run in one
    # process load every module of the package: a module that no command
    # reaches does not belong in it
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"gamma": np.eye(4).tolist()}))
    commands = [["eof", "--params", "2", "1.5", "1", "-1", "--format", "json"],
                ["bounds", "--params", "2", "1.5", "1.2", "-1"],
                ["table1", "--format", "json"],
                ["sweep-family", "--kappa", "2", "--nbar-max", "50",
                 "--points", "26"],
                ["figure1", "--a", "-1.2", "--r-max", "1.0"],
                ["verify-decomposition", "--params", "2", "2", "1.2", "-0.8",
                 "--samples", "100000", "--seed", "12345"],
                ["validate", "--input", str(path)]]
    assert {argv[0] for argv in commands} == set(_HANDLERS)
    code = ("import json, pkgutil, sys\n"
            "import gaussian_eof\n"
            "from gaussian_eof.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "unreached = [m.name for m in pkgutil.iter_modules(gaussian_eof.__path__)\n"
            "             if 'gaussian_eof.' + m.name not in sys.modules]\n"
            "print(json.dumps([codes, unreached]))\n")
    out = fresh_python(code, json.dumps(commands)).strip().splitlines()[-1]
    assert json.loads(out) == [[0] * len(commands), []]


def test_numpy_is_imported_by_decomposition_alone():
    # only the Monte-Carlo decomposition check needs numpy: every other
    # module of the package runs on the standard library
    importers = []
    for path in sorted(pathlib.Path(gaussian_eof.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [])
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.append(path.name)
    assert sorted(set(importers)) == ["decomposition.py"]


def test_declared_dependencies_are_what_the_tests_import():
    # the top-level modules tests/*.py import, less the standard library,
    # the package and the local helpers, are dependencies plus the test extra
    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(__file__).parent
    project = tomllib.loads((root.parent / "pyproject.toml").read_text(
        encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in project["dependencies"]
                + project["optional-dependencies"]["test"]}
    imported = set()
    for path in root.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    local = {"gaussian_eof", "conftest", "fock_oracle"}
    assert imported - set(sys.stdlib_module_names) - local == declared


def test_star_import_and_numpy_commands_in_a_fresh_process(tmp_path):
    # from gaussian_eof import * binds all of __all__; bounds, table1 and
    # validate import what they need on first use
    path = tmp_path / "vac.json"
    path.write_text(json.dumps({"gamma": np.eye(4).tolist()}))
    code = ("import json, sys\n"
            "import gaussian_eof\n"
            "ns = {}\n"
            "exec('from gaussian_eof import *', ns)\n"
            "unbound = sorted(set(gaussian_eof.__all__) - set(ns))\n"
            "from gaussian_eof.cli import main\n"
            "codes = [main(['bounds', '--params', '2', '1.5', '1', '-1']),\n"
            "         main(['table1', '--format', 'csv']),\n"
            "         main(['validate', '--input', sys.argv[1]])]\n"
            "print(json.dumps([unbound, codes]))\n")
    out = fresh_python(code, str(path)).strip().splitlines()[-1]
    assert json.loads(out) == [[], [0, 0, 0]]


def test_package_lookup_sees_the_submodule_binding(monkeypatch):
    # lazily resolved names are looked up on every access, so a rebinding
    # in the submodule (monkeypatch, the benchmark tracer) is what the
    # package returns
    def fake(params):
        return None

    monkeypatch.setattr(bounds_mod, "bounds_report", fake)
    assert gaussian_eof.bounds_report is fake
