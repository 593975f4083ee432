"""Acceptance suite: one test (or parametrized group) per numbered criterion.

Each check prints a [PASS]/[FAIL] line with the measured values (run with
``pytest tests/test_acceptance.py -v -s`` to see all lines).  Five known-red
checks, listed in the README, are asserted exactly as stated and fail
honestly; they carry the ``known_red`` marker, so ``pytest -m known_red -q``
runs them alone and prints their count:

* ``test_criterion3_lower_bound[4]``: the stated symmetric surrogate of
  benchmark row 5 is separable, so the bound is 0, not the published 0.00142;
* ``test_criterion3_upper_bound[3]`` and ``[5]``: the stated surrogate gives
  0.423957 and 0.148548 on rows 4 and 6, not the published 0.40946 and
  0.14838;
* ``test_criterion7_strictly_increasing``: EOF(kappa=2, nbar) dips near
  nbar ~ 2;
* ``test_criterion7_large_nbar_approach``: EOF(kappa=2, nbar=50) is 1.878,
  not above 1.99.

Criterion 8 asserts the refusal on benchmark rows 2 and 6: the weight
gamma_sigma - gamma_psi(r_opt) is indefinite there, so the squeezed-state
decomposition does not exist and decomposition verification must raise
NotPsd rather than report a reconstruction.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from gaussian_eof import (NotPsd, StandardFormParams, critical_params, delta0,
                          delta_prime, eof, f_aux, gaussian_eof,
                          giovannetti_family, oliveira_upper,
                          r_from_delta_prime, rigolin_lower, solve_squeezings,
                          squeezed_vacuum_cm, standard_form_cm,
                          uncertainty_floor, verify_reconstruction)
from gaussian_eof.cli import main as cli_main
from gaussian_eof.decomposition import PSD_TOL

from conftest import random_entangled_params, random_symmetric_entangled_params
from fock_oracle import (SchmidtSpectrum, delta_of_spectrum,
                         entropy_of_spectrum, minimal_entropy_spectrum,
                         schmidt_coeffs_squeezed)


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


# --- criterion 1: the six exact-EOF benchmark values, < 1e-7, < 1 s ---

def test_criterion1_eof_column(table1, table1_params):
    t0 = time.perf_counter()
    values = [eof(p).eof for p in table1_params]
    elapsed = time.perf_counter() - t0
    worst = max(abs(v - row["eof"])
                for v, row in zip(values, table1["rows"]))
    _report("criterion 1", worst < 1e-7 and elapsed < 1.0,
            f"max |eof - ref| = {worst:.3e} (tol 1e-7), runtime {elapsed:.3f}s (< 1s)")


# --- criterion 2: the six Gaussian-EOF values, < 1e-6, < 5 s ---

def test_criterion2_gaussian_eof_column(table1, table1_params):
    t0 = time.perf_counter()
    values = [gaussian_eof(p)[0] for p in table1_params]
    elapsed = time.perf_counter() - t0
    worst = max(abs(v - row["gaussian_eof"])
                for v, row in zip(values, table1["rows"]))
    _report("criterion 2", worst < 1e-6 and elapsed < 5.0,
            f"max |egf - ref| = {worst:.3e} (tol 1e-6), runtime {elapsed:.3f}s (< 5s)")


# --- criterion 3: published bound columns ---

@pytest.mark.parametrize(
    "row_index", [0, 1, 2, 3, pytest.param(4, marks=pytest.mark.known_red), 5])
def test_criterion3_lower_bound(table1, table1_params, row_index):
    p = table1_params[row_index]
    ref = table1["rows"][row_index]["rigolin_lower"]
    got = rigolin_lower(p)
    dev = abs(got - ref)
    _report(f"criterion 3 lower row {row_index + 1}", dev <= 5e-5,
            f"computed {got:.6f}, published {ref}, |dev| = {dev:.2e} (tol 5e-5)")


@pytest.mark.parametrize(
    "row_index", [0, 1, 2, pytest.param(3, marks=pytest.mark.known_red), 4,
                  pytest.param(5, marks=pytest.mark.known_red)])
def test_criterion3_upper_bound(table1, table1_params, row_index):
    p = table1_params[row_index]
    ref = table1["rows"][row_index]["oliveira_upper"]
    got = oliveira_upper(p)
    tag = f"criterion 3 upper row {row_index + 1}"
    if ref is None:
        _report(tag, got is None,
                f"published non-physical, computed "
                f"{'non-physical' if got is None else got}")
    else:
        ok = got is not None and abs(got - ref) <= 5e-5
        detail = (f"computed {'non-physical' if got is None else f'{got:.6f}'}, "
                  f"published {ref}, tol 5e-5")
        _report(tag, ok, detail)


# --- criterion 4: symmetric closed form vs the general pipeline ---

def test_criterion4_symmetric_identity():
    rng = np.random.default_rng(20240)
    worst = 0.0
    for _ in range(50):
        p = random_symmetric_entangled_params(rng)
        sol = solve_squeezings(p)
        epr = delta0(p, sol, critical_params(p, sol))
        pipeline = 0.0 if epr.separable else f_aux(delta_prime(epr.delta0, epr.b0))
        closed = f_aux(math.sqrt((p.n - p.kx) * (p.n + p.kp)))
        worst = max(worst, abs(pipeline - closed))
    _report("criterion 4", worst < 1e-9,
            f"50 random symmetric states, max |pipeline - closed| = {worst:.2e} "
            f"(tol 1e-9)")


# --- criterion 5: pure-state identity against entropy and the Fock oracle ---

def test_criterion5_pure_state_identity():
    worst_closed = worst_fock = 0.0
    for r in (0.2, 0.5, 1.0, 1.5):
        c, s = math.cosh(2 * r), math.sinh(2 * r)
        pipeline = eof(StandardFormParams(c, c, s, -s)).eof
        ch2, sh2 = math.cosh(r) ** 2, math.sinh(r) ** 2
        closed = ch2 * math.log2(ch2) - sh2 * math.log2(sh2)
        oracle = entropy_of_spectrum(schmidt_coeffs_squeezed(r, 400))
        worst_closed = max(worst_closed, abs(pipeline - closed))
        worst_fock = max(worst_fock, abs(pipeline - oracle))
    _report("criterion 5", worst_closed < 1e-9 and worst_fock < 1e-9,
            f"max |pipeline - entropy| = {worst_closed:.2e}, "
            f"max |pipeline - fock oracle| = {worst_fock:.2e} (tol 1e-9)")


# --- criterion 6: property suite ---

def test_criterion6_f_shape():
    xs = np.linspace(0.01, 0.999, 1000)
    vals = np.array([f_aux(float(x)) for x in xs])
    ok = bool(np.all(np.diff(vals) < 0.0) and np.all(np.diff(vals, 2) > 0.0))
    _report("criterion 6 (f shape)", ok,
            "f strictly decreasing and convex on a 1000-point grid")


def test_criterion6_uncertainty_ordering():
    rng = np.random.default_rng(20241)
    worst = -np.inf
    for _ in range(1000):
        p = random_entangled_params(rng)
        sol = solve_squeezings(p)
        epr = delta0(p, sol, critical_params(p, sol))
        worst = max(worst, epr.delta0_prime - epr.delta0)
    _report("criterion 6 (delta ordering)", worst <= 1e-12,
            f"1000 random entangled states, max(delta0' - delta0) = {worst:.2e}")


def test_criterion6_geometric_spectrum_identity():
    rng = np.random.default_rng(20242)
    worst = 0.0
    for _ in range(100):
        r = float(rng.uniform(0.05, 1.5))
        a = float(-rng.uniform(0.3, 3.0))
        eta = 2.0 / (a * a + 1.0 / (a * a))
        analytic = math.cosh(2 * r) - eta * math.sinh(2 * r)
        got = delta_of_spectrum(schmidt_coeffs_squeezed(r, 256), a)
        worst = max(worst, abs(got - analytic))
    _report("criterion 6 (spectrum identity)", worst < 1e-10,
            f"100 random (r, a), max deviation {worst:.2e} (tol 1e-10)")


def _project_spectrum_to_delta(coeffs, target, a, tol=1e-10):
    """Rescale the last nonzero coefficient (then renormalize) until the
    spectrum uncertainty matches the target; bracket by scanning because the
    response is not monotonic in the scale."""
    coeffs = np.array(coeffs, dtype=float)
    k = int(np.max(np.nonzero(coeffs)[0]))

    def spec_at(s):
        d = coeffs.copy()
        d[k] *= s
        d /= math.sqrt(float((d * d).sum()))
        return d

    def gap(s):
        return delta_of_spectrum(
            SchmidtSpectrum.from_coefficients(np.sort(spec_at(s))[::-1]), a) - target

    grid = np.concatenate([[0.0], np.geomspace(1e-3, 16.0, 400)])
    vals = [gap(float(s)) for s in grid]
    bracket = None
    best_mid = math.inf
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            return spec_at(float(grid[i]))
        if vals[i] * vals[i + 1] < 0.0:
            mid = 0.5 * (grid[i] + grid[i + 1])
            if abs(mid - 1.0) < best_mid:
                best_mid = abs(mid - 1.0)
                bracket = (float(grid[i]), float(grid[i + 1]))
    if bracket is None:
        return None
    s = brentq(gap, *bracket, xtol=1e-15, rtol=8.9e-16)
    out = spec_at(s)
    if np.any(np.diff(out) > 1e-15) or abs(gap(s)) > tol:
        return None
    return out


def test_criterion6_geometric_minimality_probe():
    rng = np.random.default_rng(20243)
    successes = 0
    violations = 0
    attempts = 0
    min_margin = math.inf
    while successes < 100 and attempts < 400:
        attempts += 1
        a = float(-rng.uniform(0.5, 2.0))
        b = uncertainty_floor(a)
        eta = 2.0 / (a * a + 1.0 / (a * a))
        r0 = float(rng.uniform(0.15, 0.9)) * 0.5 * math.atanh(eta)
        q = math.tanh(r0)
        length = int(np.clip(math.ceil(math.log(0.05) / math.log(q)), 3, 40)) + 1
        base = q ** np.arange(length) / math.cosh(r0)
        base /= math.sqrt(float((base * base).sum()))
        target = delta_of_spectrum(SchmidtSpectrum.from_coefficients(base), a)
        if not (b <= target < 1.0):
            continue
        perturbed = base * (1.0 + 3e-5 * rng.uniform(-1.0, 1.0, length))
        perturbed /= math.sqrt(float((perturbed * perturbed).sum()))
        projected = _project_spectrum_to_delta(perturbed, target, a)
        if projected is None:
            continue
        reference = minimal_entropy_spectrum(target, b, a)
        margin = (entropy_of_spectrum(
                      SchmidtSpectrum.from_coefficients(projected))
                  - entropy_of_spectrum(reference))
        min_margin = min(min_margin, margin)
        if margin < -1e-9:
            violations += 1
        successes += 1
    ok = successes == 100 and violations == 0
    _report("criterion 6 (minimality probe)", ok,
            f"{successes}/100 projections, {violations} violations, "
            f"min entropy margin {min_margin:.2e} (slack 1e-9)")


# --- criterion 7: amplifier family ---

def test_criterion7_pure_limit():
    _, report, g = giovannetti_family(2.0, 0.0)
    dev = abs(report.eof - 2.0)
    _report("criterion 7 (pure limit)", dev <= 1e-9 and g == pytest.approx(2.0),
            f"EOF(kappa=2, nbar=0) = {report.eof!r}, |dev from 2| = {dev:.2e}")


def test_criterion7_bounded_above():
    values = [giovannetti_family(2.0, nb)[1].eof
              for nb in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0)]
    ok = all(v < 2.0 for v in values)
    _report("criterion 7 (bounded above)", ok,
            f"EOF values {[round(v, 6) for v in values]} all < g(2) = 2")


@pytest.mark.known_red
def test_criterion7_strictly_increasing():
    grid = (0.5, 1.0, 2.0, 5.0, 10.0, 50.0)
    values = [giovannetti_family(2.0, nb)[1].eof for nb in grid]
    increasing = all(b > a for a, b in zip(values, values[1:]))
    _report("criterion 7 (strictly increasing)", increasing,
            f"EOF over nbar {grid} = {[round(v, 6) for v in values]}")


@pytest.mark.known_red
def test_criterion7_large_nbar_approach():
    value = giovannetti_family(2.0, 50.0)[1].eof
    _report("criterion 7 (nbar=50 above 1.99)", value > 1.99,
            f"EOF(kappa=2, nbar=50) = {value:.6f}")


# --- criterion 8: decomposition verification on benchmark rows 2 and 6 ---

def test_criterion8_exact_identity(table1_params):
    worst = 0.0
    for idx in (1, 5):
        report = eof(table1_params[idx])
        gamma_sigma = standard_form_cm(report.params)
        r_opt = r_from_delta_prime(report.epr.delta0_prime)
        m_weight = gamma_sigma - squeezed_vacuum_cm(r_opt)
        dev = float(np.abs(squeezed_vacuum_cm(r_opt) + m_weight
                           - gamma_sigma).max())
        worst = max(worst, dev)
    _report("criterion 8 (exact identity)", worst < 1e-12,
            f"max |gamma_psi + M - gamma_sigma| = {worst:.2e} on rows 2 and 6")


# Smallest eigenvalue of gamma_sigma - gamma_psi(r_opt) on rows 2 and 6,
# recomputed at 50 significant digits with mpmath (mp.dps = 50) from the
# module formulas alone: the ratio and balance constraints of
# standard_form_solver solved for (r1, r2), then a0, b0, Delta0, Delta0' and
# r_opt from the epr_uncertainty formulas, then mpmath.eigsy on the weight.
# They were not copied from the program's output; repeating those steps with
# the installed mpmath reproduces them.
# Both are negative, so the decomposition does not exist on these rows.
WEIGHT_MIN_EIG_50_DIGITS = {1: -3.55956842695421e-4, 5: -2.40640640469767e-9}


@pytest.mark.parametrize("row_index", [1, 5])
def test_criterion8_reconstruction(table1, table1_params, row_index):
    tag = f"criterion 8 (reconstruction row {row_index + 1})"
    params = table1_params[row_index]
    try:
        verify_reconstruction(params, n_samples=100_000, seed=12345)
    except NotPsd:
        refused = True
    else:
        refused = False
    report = eof(params)
    m_weight = (standard_form_cm(report.params)
                - squeezed_vacuum_cm(r_from_delta_prime(report.epr.delta0_prime)))
    min_eig = float(np.linalg.eigvalsh(m_weight)[0])
    exact = WEIGHT_MIN_EIG_50_DIGITS[row_index]
    row = table1["rows"][row_index]
    # a PSD weight would mix displaced copies of one pure state whose
    # entanglement is the EOF, putting the Gaussian EOF at or below the EOF
    gaussian_gap = row["marians_eof"] - row["eof"]
    ok = (refused and abs(min_eig - exact) <= 1e-12 and min_eig < -PSD_TOL
          and gaussian_gap > 0.0)
    _report(tag, ok,
            f"NotPsd {'raised' if refused else 'NOT raised'}, weight min "
            f"eigenvalue {min_eig:.11e} vs 50-digit {exact:.11e} (tol 1e-12, "
            f"must be < -{PSD_TOL:g}), published marians_eof - eof = "
            f"{gaussian_gap:.3e}")


# --- criterion 9: pure-state uncertainty curves ---

@pytest.mark.parametrize("a", [-1.0, -1.2, -1.5])
def test_criterion9_uncertainty_curve(a, capsys):
    code = cli_main(["figure1", "--a", str(a), "--r-max", "8.0",
                     "--points", "20001"])
    out = capsys.readouterr().out
    with capsys.disabled():
        assert code == 0
        rows = [tuple(map(float, ln.split(",")))
                for ln in out.strip().splitlines()[1:]]
        deltas = np.array([d for (_, _, d) in rows])
        i = int(np.argmin(deltas))
        r_min = rows[i][1]
        eta = 2.0 / (a * a + 1.0 / (a * a))
        floor = uncertainty_floor(a)
        tanh_dev = abs(math.tanh(2.0 * r_min) - eta)
        val_dev = abs(float(deltas[i]) - floor)
        grid_tol = 2.0 * (8.0 / 20000.0)
        _report(f"criterion 9 (a = {a})",
                tanh_dev <= grid_tol and val_dev <= 1e-6,
                f"argmin r = {r_min:.4f}, |tanh 2r - eta| = {tanh_dev:.2e} "
                f"(grid tol {grid_tol:.2e}), |min - b(a)| = {val_dev:.2e} "
                f"(tol 1e-6)")
