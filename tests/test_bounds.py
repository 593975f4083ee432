import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaussian_eof import (DomainError, Infeasible, StandardFormParams,
                          bounds_report, eof, f_aux, g_kappa, gaussian_eof,
                          giovannetti_family, minimize_reduced_determinant,
                          oliveira_upper, reduce_to_standard_params,
                          rigolin_lower, squeezed_vacuum_cm, standard_form_nu,
                          symmetric_eof)
from gaussian_eof import bounds as bounds_mod
from gaussian_eof import cli, eof_core
from gaussian_eof.bounds import _PSD_SIDE_TOL

from conftest import (entangled_params_at, general_route_eof,
                      log_uniform_entangled_params, random_entangled_params,
                      random_symmetric_entangled_params)


def test_gaussian_eof_benchmark_rows():
    val, m_opt = gaussian_eof(StandardFormParams(2.0, 1.5, 1.0, -1.0))
    assert val == pytest.approx(0.2027415477, abs=1e-6)
    assert m_opt > 1.0
    val, _ = gaussian_eof(StandardFormParams(2.0, 1.5, 1.2, -1.0))
    assert val == pytest.approx(0.3836537389, abs=1e-6)


def test_gaussian_eof_symmetric_equals_exact():
    p = StandardFormParams(2.0, 2.0, 1.2, -0.8)
    val, _ = gaussian_eof(p)
    assert val == pytest.approx(symmetric_eof(2.0, 1.2, -0.8).eof, abs=1e-8)


def test_gaussian_eof_separable_symmetric_is_zero():
    # (2, 1, -0.8) is separable: (n-kx)(n+kp) = 1.2 > 1
    p = StandardFormParams(2.0, 2.0, 1.0, -0.8)
    val, m_opt = gaussian_eof(p)
    assert val == 0.0 and m_opt == 1.0
    assert symmetric_eof(2.0, 1.0, -0.8).eof == 0.0


def test_gaussian_eof_pure_states_equal_exact_eof():
    # a pure state is its own decomposition: the Gaussian EOF is the EOF,
    # and m_opt maps back to Delta' through sqrt(m) - sqrt(m - 1)
    amplifier = giovannetti_family(2.0, 0.0)[0]
    tmsv = reduce_to_standard_params(squeezed_vacuum_cm(0.7))
    for p in (amplifier, tmsv):
        base = eof(p)
        assert base.method == "pure"
        val, m_opt = gaussian_eof(p)
        assert val == pytest.approx(base.eof, abs=1e-12)
        assert f_aux(math.sqrt(m_opt) - math.sqrt(m_opt - 1.0)) == pytest.approx(
            val, abs=1e-12)
        report = bounds_report(p)
        assert report.gaussian_eof == pytest.approx(report.eof, abs=1e-12)
    assert gaussian_eof(amplifier)[0] == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("nbar", [0.0, 1.0, 2.0, 10.0, 50.0, 200.0])
def test_gaussian_eof_amplifier_family_is_g_kappa(nbar):
    # every member has nu_- = 1 to rounding; the optimum is the two-mode
    # squeezed vacuum with cosh^2 r = kappa, whose EOF is g(kappa) = 2
    p = giovannetti_family(2.0, nbar)[0]
    assert standard_form_nu(p.n, p.m, p.kx, p.kp)[0] == pytest.approx(1.0, abs=1e-12)
    assert gaussian_eof(p)[0] == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("kappa", [1.5, 3.0, 10.0])
def test_gaussian_eof_amplifier_family_other_gains(kappa):
    p = giovannetti_family(kappa, 7.0)[0]
    assert gaussian_eof(p)[0] == pytest.approx(g_kappa(kappa), abs=1e-9)


@pytest.mark.parametrize("nbar", [1.0, 10.0, 200.0])
def test_gaussian_eof_monotone_under_added_noise(nbar):
    # gamma + eps I is a local additive-noise channel applied to gamma, and
    # the Gaussian EOF cannot rise under it; the vacuum-boundary value is
    # the eps -> 0 limit of the values just inside
    p = giovannetti_family(2.0, nbar)[0]
    at_boundary, _ = gaussian_eof(p)
    values = [gaussian_eof(StandardFormParams(p.n + eps, p.m + eps, p.kx, p.kp))[0]
              for eps in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)]
    assert all(v <= at_boundary + 1e-9 for v in values)
    assert all(later >= earlier for earlier, later in zip(values, values[1:]))


def test_gaussian_eof_matches_grid_oracle():
    # 2000 states with n, m log-uniform up to 1e3: the coarse scan, edge
    # bisection and polish never land above the 2048-point grid, and raise
    # Infeasible only where the grid finds no feasible point either
    rng = np.random.default_rng(97)
    worst = -math.inf
    for _ in range(2000):
        p = log_uniform_entangled_params(rng)
        grid = _grid_m_opt(p)
        try:
            val, _ = gaussian_eof(p)
        except Infeasible:
            assert grid == math.inf
            continue
        assert grid < math.inf
        worst = max(worst, val - f_aux(math.sqrt(grid) - math.sqrt(grid - 1.0)))
    assert worst <= 1e-11


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(log_n=st.floats(math.log(1.0001), math.log(1e3)),
       log_m=st.floats(math.log(1.0001), math.log(1e3)),
       ratio=st.floats(0.02, 1.0), s=st.floats(-1.0, 1.0),
       log_eps=st.floats(-12.0, 0.0))
def test_gaussian_eof_properties(log_n, log_m, ratio, s, log_eps):
    p = entangled_params_at(math.exp(log_n), math.exp(log_m), ratio, s)
    assume(p is not None)
    val, _ = gaussian_eof(p)
    swapped, _ = gaussian_eof(StandardFormParams(p.m, p.n, p.kx, p.kp))
    assert abs(val - swapped) <= 1e-9
    assert eof(p).eof <= val + 1e-9
    eps = 10.0 ** log_eps
    noisy, _ = gaussian_eof(StandardFormParams(p.n + eps, p.m + eps, p.kx, p.kp))
    assert noisy <= val + 1e-9


def test_minimizer_constraint_residuals():
    for p in (StandardFormParams(2.0, 1.5, 1.0, -1.0),
              StandardFormParams(3.0, 2.0, 1.8, -1.2),
              StandardFormParams(2.5, 2.0, 1.3, -1.2)):
        m_opt, cand = minimize_reduced_determinant(p)
        assert m_opt >= 1.0
        res_x, res_p = cand.constraint_residuals(p)
        assert abs(res_x) < 1e-10 and abs(res_p) < 1e-10
        assert cand.det_gamma > 0.0
        assert cand.reduced_det == pytest.approx(m_opt, abs=1e-9)


def test_mesh_independence_on_benchmarks(table1_params):
    for p in table1_params:
        coarse, _ = minimize_reduced_determinant(p, n_scan=2048)
        fine, _ = minimize_reduced_determinant(p, n_scan=4096)
        ec = f_aux(math.sqrt(coarse) - math.sqrt(coarse - 1.0))
        ef = f_aux(math.sqrt(fine) - math.sqrt(fine - 1.0))
        assert abs(ec - ef) < 1e-9


GRID_POINTS = 2048   # the test-only grid oracle's resolution in x1


def _grid_objective(xs, cx11, cx22, kx, p11, p22, p12):
    """Objective of _candidates_at_x1 at every x1 in xs, inf where none.

    The same closed form, thresholds and feasibility filters, evaluated over
    the whole grid with the same operations in the same order, so each entry
    equals the scalar minimum exactly.
    """
    dx = kx - xs
    dp = xs - p12
    alpha2 = dx * dx
    beta2 = dp * dp
    a_coef = cx22 - p22
    den = cx11 - p11
    b_coef = a_coef * (cx11 + p11) - alpha2 + beta2
    c_coef = p11 * a_coef * cx11 - p11 * alpha2 + beta2 * cx11
    best = np.full(xs.shape, math.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        if abs(a_coef) < 1e-14:
            roots = [(c_coef / b_coef, np.abs(b_coef) > 1e-14)]
        else:
            ad = a_coef * den
            disc = (ad - (kx - p12) ** 2) * (ad - (kx + p12 - 2.0 * xs) ** 2)
            real = ~(disc < 0.0)
            sq = np.sqrt(disc)
            q = np.where(b_coef >= 0.0, 0.5 * (b_coef + sq), 0.5 * (b_coef - sq))
            roots = [(q / a_coef, real), (c_coef / q, real & (q != 0.0))]
        for u, ok in roots:
            if abs(den) > 1e-12:
                v = (-a_coef * u + (cx11 * cx22 - alpha2)
                     - (p11 * p22 - beta2)) / den
            else:
                du = cx11 - u
                ok = ok & ~(np.abs(du) < 1e-14)
                v = cx22 - alpha2 / du
            det_g = u * v - xs * xs
            rejected = ((u <= 0.0) | (v <= 0.0) | (det_g <= 0.0)
                        | ((cx11 - u) < -_PSD_SIDE_TOL)
                        | ((cx22 - v) < -_PSD_SIDE_TOL)
                        | ((u - p11) < -_PSD_SIDE_TOL)
                        | ((v - p22) < -_PSD_SIDE_TOL))
            obj = 1.0 + xs * xs / det_g
            best = np.where(ok & ~rejected, np.minimum(best, obj), best)
    return best


def _grid_m_opt(params):
    """The grid oracle's winner: min of _grid_objective over GRID_POINTS x1."""
    coefs = bounds_mod._scan_coefficients(params)
    xs = np.linspace(-coefs[2], coefs[2], GRID_POINTS)
    return float(_grid_objective(xs, *coefs).min())


def _scalar_grid_objective(xs, coefs):
    out = []
    for x1 in xs:
        cand = bounds_mod._candidates_at_x1(float(x1), *coefs)
        out.append(math.inf if cand is None else cand[2])
    return np.array(out)


def test_grid_objective_equals_scalar_candidates(table1_params):
    rng = np.random.default_rng(79)
    states = table1_params + [random_entangled_params(rng) for _ in range(50)]
    for p in states:
        coefs = bounds_mod._scan_coefficients(p)
        xs = np.linspace(-coefs[2], coefs[2], GRID_POINTS)
        grid = _grid_objective(xs, *coefs)
        assert (grid == _scalar_grid_objective(xs, coefs)).all()
        assert np.isfinite(grid).any()


@pytest.mark.parametrize("coefs, n_points", [
    # (cx11, cx22, kx, p11, p22, p12)
    # a_coef = cx22 - p22 = 0: linear in u, and b_coef = 0 at x1 = 0.5
    ((3.0, 1.5, 1.0, 0.5, 1.5, 0.0), 5),
    # a_coef = -3e-15 is taken as 0; the quadratic would give a feasible
    # point at x1 = 0.5
    ((3.0, 2.0, 0.5, 2.0, 2.000000000000003, 0.5), 17),
    # den = cx11 - p11 = 0: v from the x constraint, u = cx11 skipped
    ((2.0, 3.0, 1.0, 2.0, 0.5, 0.0), 5),
    # den = -3e-13 is taken as 0, which leaves one feasible point at x1 = 0.5
    ((3.0, 2.0, 0.5, 3.0000000000003, -1.0, 0.0), 9),
    # b_coef = c_coef = 0 at x1 = 0, so q = 0 there; feasible at x1 > 0
    ((1.0, 5.0, 2.0, 0.0, 1.0, 0.0), 5),
    # disc < 0 for x1 <= 0, feasible for x1 > 0
    ((2.0, 1.0, 1.0, 0.25, 0.5, 0.5), 9),
    # roots with u <= 0 or v <= 0 that pass the four feasible-side filters
    ((0.5, -0.5, 1.0, -1.0, -2.0, 0.0), 5),
])
def test_grid_objective_degenerate_branches(coefs, n_points):
    # no random state reaches these branches, so the coefficients are
    # given directly
    xs = np.linspace(-coefs[2], coefs[2], n_points)
    grid = _grid_objective(xs, *coefs)
    assert (grid == _scalar_grid_objective(xs, coefs)).all()


def test_feasible_edge_reaches_the_discriminant_root():
    # real roots need (aD - (kx + p12 - 2 x1)^2) >= 0: for these
    # coefficients the feasible x1 range starts at (1.5 - sqrt(0.875)) / 2
    coefs = (2.0, 1.0, 1.0, 0.25, 0.5, 0.5, False)
    inside = bounds_mod._candidates_at_x1(0.5, *coefs)
    assert bounds_mod._candidates_at_x1(0.0, *coefs) is None and inside is not None
    edge, cand = bounds_mod._feasible_edge(coefs, 0.0, 0.5, inside)
    assert edge == pytest.approx(0.5 * (1.5 - math.sqrt(0.875)), abs=1e-12)
    assert cand == bounds_mod._candidates_at_x1(edge, *coefs)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_m_opt(params):
    """Reference minimizer: the grid oracle, polished by golden section.

    The 2048-point grid and golden-section polish minimize_reduced_determinant
    ran before its coarse scan and Brent's method, kept to check that they
    find a minimum at least as low.  Returns (m_opt, grid winner's objective).
    """
    coefs = bounds_mod._scan_coefficients(params)
    kx = coefs[2]

    def objective(x1):
        cand = bounds_mod._candidates_at_x1(x1, *coefs)
        return math.inf if cand is None else cand[2]

    xs = np.linspace(-kx, kx, GRID_POINTS)
    grid = _grid_objective(xs, *coefs)
    i0 = int(np.argmin(grid))
    obj0, x1_0 = float(grid[i0]), float(xs[i0])
    step = xs[1] - xs[0]
    a, b = max(x1_0 - step, -kx), min(x1_0 + step, kx)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(300):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = objective(d)
        tiny_bracket = (b - a) <= 1e-13 * max(1.0, abs(a) + abs(b))
        if abs(fc - fd) <= 1e-12 * max(1.0, abs(fc)) and tiny_bracket:
            break
    # an infeasible or worse polished point falls back to the grid winner
    return min(objective(c if fc < fd else d), obj0), obj0


def test_polish_matches_golden_section_reference(table1_params):
    rng = np.random.default_rng(83)
    states = table1_params + [random_entangled_params(rng) for _ in range(200)]
    for p in states:
        ref, obj0 = _golden_section_m_opt(p)
        m_opt, cand = minimize_reduced_determinant(p)
        assert m_opt <= ref * (1.0 + 1e-12)
        assert m_opt <= obj0
        res_x, res_p = cand.constraint_residuals(p)
        assert abs(res_x) < 1e-10 and abs(res_p) < 1e-10


def test_polish_evaluation_count(monkeypatch, table1_params):
    # counts scalar evaluations, times nothing, in three phases: the scan
    # (SCAN_POINTS), the bisection of a feasibility edge, and the Brent
    # polish; golden section took a median of 55 polish evaluations
    rng = np.random.default_rng(89)
    states = table1_params + [random_entangled_params(rng) for _ in range(100)]
    phase = ["scan"]
    calls = {"scan": 0, "edge": 0, "polish": 0}
    scalar = bounds_mod._candidates_at_x1

    def counted(*args):
        calls[phase[0]] += 1
        return scalar(*args)

    def in_phase(name, fn):
        def run(*args):
            phase[0] = name
            try:
                return fn(*args)
            finally:
                phase[0] = "scan"
        return run

    monkeypatch.setattr(bounds_mod, "_candidates_at_x1", counted)
    monkeypatch.setattr(bounds_mod, "_feasible_edge",
                        in_phase("edge", bounds_mod._feasible_edge))
    monkeypatch.setattr(bounds_mod, "_brent_polish",
                        in_phase("polish", bounds_mod._brent_polish))
    counts = {name: [] for name in calls}
    for p in states:
        for name in calls:
            calls[name] = 0
        minimize_reduced_determinant(p)
        for name, n in calls.items():
            counts[name].append(n)
    assert set(counts["scan"]) == {bounds_mod.SCAN_POINTS}
    # each bisected edge is narrowed from one scan step to 1e-12 relative
    assert max(counts["edge"]) <= 2 * 50
    assert np.median(counts["polish"]) <= 30
    assert max(counts["polish"]) <= 60


def test_minimizer_empty_grid_is_infeasible():
    with pytest.raises(Infeasible):
        minimize_reduced_determinant(StandardFormParams(2.0, 1.5, 1.0, -1.0),
                                     n_scan=0)


def test_bounds_report_runs_the_pipeline_once(monkeypatch, table1_params):
    p = StandardFormParams(2.0, 1.5, 1.2, -1.0)
    assert eof(p).method == "general"
    calls = []
    solve = eof_core.solve_squeezings

    def counted(params):
        calls.append(params)
        return solve(params)

    monkeypatch.setattr(eof_core, "solve_squeezings", counted)
    report = bounds_report(p)
    assert report.gaussian_eof > report.eof > 0.0
    assert len(calls) == 1
    calls.clear()
    cli._table1_rows()
    # row 2 is squeezed thermal: its closed form runs no solve
    assert eof(table1_params[1]).method == "squeezed_thermal"
    assert len(calls) == len(table1_params) - 1


def test_gaussian_eof_dominates_exact_eof():
    # the Gaussian EOF is an achievable upper bound on the EOF, and a mode
    # swap is a local operation that leaves it unchanged
    rng = np.random.default_rng(61)
    for _ in range(200):
        p = random_entangled_params(rng, n_hi=50.0)
        val, m_opt = gaussian_eof(p)
        assert m_opt >= 1.0
        assert val >= eof(p).eof - 1e-9
        swapped, _ = gaussian_eof(StandardFormParams(p.m, p.n, p.kx, p.kp))
        assert abs(val - swapped) <= 1e-9


def test_gaussian_eof_equality_on_symmetric_randoms():
    rng = np.random.default_rng(67)
    for _ in range(10):
        p = random_symmetric_entangled_params(rng)
        val, _ = gaussian_eof(p)
        assert val == pytest.approx(symmetric_eof(p.n, p.kx, p.kp).eof, abs=1e-8)


def test_rigolin_lower_benchmark_cells():
    assert rigolin_lower(StandardFormParams(2.0, 1.5, 1.2, -1.0)) == pytest.approx(
        0.28919, abs=5e-5)
    assert rigolin_lower(StandardFormParams(2.6, 1.7, 1.3, -0.9)) == 0.0
    assert rigolin_lower(StandardFormParams(2.5, 2.0, 1.3, -1.2)) == pytest.approx(
        0.00001, abs=5e-5)


def test_rigolin_lower_symmetric_input_is_exact():
    p = StandardFormParams(2.0, 2.0, 1.2, -0.8)
    assert rigolin_lower(p) == pytest.approx(general_route_eof(p), abs=1e-10)


@pytest.mark.parametrize("params", [
    StandardFormParams(0.5, 2.0, 0.3, -0.2),   # n < 1, mean invariant >= 1
    StandardFormParams(2.0, 1.5, 0.5, 0.4),    # kp > 0
    StandardFormParams(2.0, 1.5, 0.2, -0.5)])  # kx < -kp
def test_bounds_refuse_non_canonical(params):
    for func in (rigolin_lower, oliveira_upper, minimize_reduced_determinant):
        with pytest.raises(DomainError):
            func(params)


def test_oliveira_upper_benchmark_cells():
    assert oliveira_upper(StandardFormParams(2.0, 1.5, 1.0, -1.0)) == pytest.approx(
        0.56616, abs=5e-5)
    assert oliveira_upper(StandardFormParams(2.0, 1.5, 1.2, -1.0)) is None
    assert oliveira_upper(StandardFormParams(3.0, 2.0, 1.8, -1.2)) is None
    assert oliveira_upper(StandardFormParams(3.0, 2.0, 1.7, -1.2)) is None


def test_oliveira_upper_construction_regression():
    # frozen values of this construction for the two physical asymmetric
    # benchmark rows; they disagree with the published cells (see the
    # acceptance suite), so they are pinned here as regression values
    assert oliveira_upper(StandardFormParams(2.6, 1.7, 1.3, -0.9)) == pytest.approx(
        0.4239573161804951, abs=1e-10)
    assert oliveira_upper(StandardFormParams(2.5, 2.0, 1.3, -1.2)) == pytest.approx(
        0.1485477692950078, abs=1e-10)


def test_oliveira_upper_bounds_the_eof_when_physical():
    rng = np.random.default_rng(71)
    for _ in range(20):
        p = random_entangled_params(rng)
        upper = oliveira_upper(p)
        if upper is not None:
            assert upper >= eof(p).eof - 1e-9


def test_bounds_report_sandwich(table1_params, table1):
    for p, row in zip(table1_params, table1["rows"]):
        report = bounds_report(p)
        assert report.rigolin_lower - 1e-9 <= report.eof <= report.gaussian_eof + 1e-9
        if report.oliveira_physical:
            assert report.eof <= report.oliveira_upper + 1e-9
        assert report.oliveira_physical == (row["oliveira_upper"] is not None)
        # informational: this method's EOF sits below the published
        # independent evaluation
        assert report.eof <= row["marians_eof"] + 1e-9


def test_bounds_report_random_states():
    rng = np.random.default_rng(73)
    for _ in range(10):
        p = random_entangled_params(rng)
        report = bounds_report(p)  # raises SandwichViolation on any breach
        assert report.m_opt >= 1.0


def test_bounds_report_separable_all_zero():
    report = bounds_report(StandardFormParams(1.5, 1.5, 0.2, -0.2))
    assert report.eof == 0.0
    assert report.gaussian_eof == 0.0
    assert report.rigolin_lower == 0.0
    assert report.m_opt == 1.0
    assert report.oliveira_physical and report.oliveira_upper == 0.0


def test_bounds_report_serialization():
    d = bounds_report(StandardFormParams(2.0, 1.5, 1.0, -1.0)).to_dict()
    assert set(d) == {"eof", "gaussian_eof", "rigolin_lower", "oliveira_upper",
                      "oliveira_physical", "m_opt"}
