import dataclasses
import json
import math
import pathlib
import pkgutil

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


def test_verify_decomposition_needs_a_sample(capsys):
    # zero draws printed pass = true with no evidence
    code, out, err = run_cli(capsys, "verify-decomposition", "--params",
                             "2", "2", "1.2", "-0.8", "--samples", "0")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "DomainError"


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


@pytest.mark.parametrize("argv", [
    ["eof", *_HUGE], ["bounds", *_HUGE], ["validate", "--input", "{huge}"],
    ["eof", "--input", "{huge}"]],
    ids=["eof", "bounds", "validate --input", "eof --input"])
def test_overflowing_invariants_are_a_json_error(tmp_path, capsys, argv):
    # (n^2 - m^2)^2 overflows in standard_form_nu (squared by
    # multiplication it is inf, where ** raised OverflowError), and so does
    # det(1e150 I), for which validate printed nu = (Infinity, 1e+150), no
    # JSON, and bona fide.  Such a state is outside the float range, which
    # is no broken uncertainty relation
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"gamma": (1e150 * np.eye(4)).tolist()}))
    code, out, err = run_cli(capsys, *(a.replace("{huge}", str(huge))
                                       for a in argv))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "DomainError"
    assert "leave the float range" in payload["message"]


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
        return dataclasses.replace(report, oliveira_upper=(
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
    # scipy is a test-only dependency and sampling runs on one thread; every
    # command but verify-decomposition (the import, eof and bounds with
    # --params or with --input on a gamma matrix, table1 and validate in
    # every format, sweep-family and figure1) loads neither numpy nor scipy
    # nor concurrent.futures
    path = tmp_path / "state.json"
    gamma = standard_form_cm(StandardFormParams(2.0, 1.5, 1.0, -1.0), 1.0, 1.0)
    path.write_text(json.dumps({"gamma": gamma.tolist()}))
    code = ("import json, sys\n"
            "def heavy():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.split('.')[0] in ('numpy', 'scipy')\n"
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
