import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaussian_eof import (DomainError, Infeasible, SandwichViolation,
                          StandardFormParams, bounds_report, eof, f_aux,
                          g_kappa, gaussian_eof, giovannetti_family,
                          minimize_reduced_determinant, oliveira_upper,
                          reduce_to_standard_params, rigolin_lower,
                          squeezed_vacuum_cm, standard_form_nu,
                          validate_standard_form)
from gaussian_eof import bounds as bounds_mod
from gaussian_eof import cli, eof_core
from gaussian_eof.standard_form import TOL_PSD

from conftest import (entangled_params_at, general_route_eof,
                      is_bona_fide_params, kx_at_nu_minus,
                      log_uniform_entangled_params,
                      random_entangled_params,
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
    assert val == pytest.approx(eof(p).eof, abs=1e-8)


def test_gaussian_eof_separable_symmetric_is_zero():
    # (2, 1, -0.8) is separable: (n-kx)(n+kp) = 1.2 > 1
    p = StandardFormParams(2.0, 2.0, 1.0, -0.8)
    val, m_opt = gaussian_eof(p)
    assert val == 0.0 and m_opt == 1.0
    assert eof(p).eof == 0.0


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


def test_bounds_sandwich_next_to_pure_states():
    # gamma + eps I next to the pure amplifier states: C_x - C_p^{-1} is
    # O(eps) and formed by cancellation, yet the Gaussian EOF still bounds
    # the EOF from above (the x1-root minimizer broke this on 74 of them)
    for kappa in np.geomspace(1.01, 100.0, 21):
        pure = giovannetti_family(float(kappa), 0.0)[0]
        for eps in np.geomspace(1e-11, 1e-3, 9):
            report = bounds_report(StandardFormParams(
                pure.n + eps, pure.m + eps, pure.kx, pure.kp))
            assert report.gaussian_eof >= report.eof - 1e-10


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
    # every angle of the touching ellipse gives a Gamma between C_p^{-1}
    # and C_x that touches both, to rounding: the minimizer keeps no filter
    rng = np.random.default_rng(101)
    states = [StandardFormParams(2.0, 1.5, 1.0, -1.0),
              StandardFormParams(3.0, 2.0, 1.8, -1.2),
              StandardFormParams(2.5, 2.0, 1.3, -1.2)]
    states += [log_uniform_entangled_params(rng) for _ in range(300)]
    states += [giovannetti_family(2.0, nbar)[0] for nbar in (0.1, 1.0, 10.0, 200.0)]
    for p in states:
        m_opt, cand = minimize_reduced_determinant(p)
        assert m_opt >= 1.0
        assert cand.det_gamma > 0.0
        assert cand.reduced_det == pytest.approx(m_opt, abs=1e-9)
        gamma = np.array([[cand.x0 + cand.x3, cand.x1],
                          [cand.x1, cand.x0 - cand.x3]])
        det_p = p.n * p.m - p.kp * p.kp
        below = gamma - np.array([[p.m, -p.kp], [-p.kp, p.n]]) / det_p
        above = np.array([[p.n, p.kx], [p.kx, p.m]]) - gamma
        scale = max(p.n, p.m)   # of the entries
        for diff in (below, above):
            assert np.linalg.eigvalsh(diff)[0] >= -1e-14 * scale
            assert abs(np.linalg.det(diff)) <= 1e-14 * scale ** 2
        res_x, res_p = cand.constraint_residuals(p)
        assert max(abs(res_x), abs(res_p)) <= 1e-14 * scale ** 2


GRID_POINTS = 2048   # the test-only grid oracle's resolution in x1
_PSD_SIDE_TOL = 1e-11   # the oracle's feasible-side filters


def _scan_coefficients(params):
    """(cx11, cx22, kx, p11, p22, p12): C_x entries and C_p^{-1} entries."""
    n, m, kx, kp = (float(params.n), float(params.m), float(params.kx),
                    float(params.kp))
    det_p = n * m - kp * kp
    return n, m, kx, m / det_p, n / det_p, -kp / det_p


def _grid_objective(xs, cx11, cx22, kx, p11, p22, p12):
    """1 + x1^2 / det Gamma at the best feasible touching point at every x1
    in xs, inf where none.

    At fixed x1 the two touching conditions (cx11 - u)(cx22 - v) =
    (kx - x1)^2 and (u - p11)(v - p22) = (x1 - p12)^2, u/v = x0 +/- x3,
    meet on a line, which leaves a quadratic a u^2 - b u + c = 0,
    a = cx22 - p22, whose discriminant factors as
    det(C_x - C_p^{-1}) (aD - (kx + p12 - 2 x1)^2), D = cx11 - p11.  A root
    counts where it is real, u, v and det Gamma are positive and the
    differences touch from the feasible side.  This is the x1-root
    formulation the package used before the touching ellipse, kept as an
    independent reference.
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
    coefs = _scan_coefficients(params)
    xs = np.linspace(-coefs[2], coefs[2], GRID_POINTS)
    return float(_grid_objective(xs, *coefs).min())


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_m_opt(params):
    """Reference minimizer: the grid oracle, polished by golden section.

    The 2048-point grid and golden-section polish minimize_reduced_determinant
    ran before its coarse scan and Brent's method, kept to check that they
    find a minimum at least as low.  Returns (m_opt, grid winner's objective).
    """
    coefs = _scan_coefficients(params)
    kx = coefs[2]

    def objective(x1):
        return float(_grid_objective(np.array([x1]), *coefs)[0])

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


def test_minimizer_evaluation_count(monkeypatch, table1_params):
    # counts objective evaluations, times nothing: the anchor, the four
    # roots of the stationarity quartic and the Newton-polished winner; the
    # 32-angle scan and Brent polish took a median of 55
    rng = np.random.default_rng(89)
    states = table1_params + [random_entangled_params(rng) for _ in range(100)]
    calls = [0]
    objective = bounds_mod._objective

    def counted(*args):
        calls[0] += 1
        return objective(*args)

    monkeypatch.setattr(bounds_mod, "_objective", counted)
    counts = []
    for p in states:
        calls[0] = 0
        minimize_reduced_determinant(p)
        counts.append(calls[0])
    assert max(counts) <= 6


def test_minimizer_lands_in_narrow_basins(monkeypatch):
    # n, m up to 1e5: the basin can be 1e-5 wide in theta, and there the
    # quartic's coefficients cancel and misplace the root by about 1e-7, so
    # that a neighbouring angle scored 1e-3 lower in m_opt - 1 before the
    # Newton step on N; the returned angle is a local minimum to rounding
    rng = np.random.default_rng(7)
    scored = []
    objective = bounds_mod._objective

    def recorded(theta, ellipse):
        scored.append((objective(theta, ellipse), theta, ellipse))
        return scored[-1][0]

    monkeypatch.setattr(bounds_mod, "_objective", recorded)
    for _ in range(300):
        p = log_uniform_entangled_params(rng, 1.0001, 1e5)
        scored.clear()
        m_opt, _ = minimize_reduced_determinant(p)
        value, theta, ellipse = min(scored, key=lambda s: s[0])
        assert value == m_opt
        for h in np.geomspace(1e-10, 1e-3, 15):
            for side in (-1.0, 1.0):
                nearby = objective(theta + side * h, ellipse)
                assert nearby >= m_opt - 1e-7 * (m_opt - 1.0), (p, h)


def _exact_two_mode_squeezed_vacuum(k):
    """(n, n, s, -s) with n = (k^2 + 1) / 2k, s = (k^2 - 1) / 2k: for k a
    power of 2 n^2 - s^2 = 1 holds in floats, so K = C_x - C_p^{-1} = 0."""
    n, s = (k * k + 1.0) / (2.0 * k), (k * k - 1.0) / (2.0 * k)
    return StandardFormParams(n, n, s, -s)


def test_minimizer_degenerate_inputs(monkeypatch):
    # pure states (N = 0 identically where K = 0 exactly, rounding noise
    # where it is reduced from a CM), nu_- = 1 members (K of rank one, the
    # leading coefficient near 0) and symmetric squeezed thermal states,
    # whose stationarity quartic is biquadratic, a (t^4 - 1)
    rng = np.random.default_rng(113)
    exact_pure = [_exact_two_mode_squeezed_vacuum(2.0 ** j) for j in range(1, 12)]
    assert all(bounds_mod._blocks(p)[1] == (0.0, 0.0, 0.0) for p in exact_pure)
    states = exact_pure + [reduce_to_standard_params(squeezed_vacuum_cm(float(r)))
                           for r in rng.uniform(0.05, 3.0, 20)]
    states += [giovannetti_family(float(kappa), float(nbar))[0]
               for kappa, nbar in zip(np.geomspace(1.01, 60.0, 30),
                                      rng.uniform(0.0, 200.0, 30))]
    biquadratic = []
    for _ in range(20):
        p = random_symmetric_entangled_params(rng)
        biquadratic.append(StandardFormParams(p.n, p.n, p.kx, -p.kx))
    quartics = []
    solve = bounds_mod._quartic_roots

    def recorded(*coefs):
        quartics.append(coefs)
        return solve(*coefs)

    monkeypatch.setattr(bounds_mod, "_quartic_roots", recorded)
    for p in states + biquadratic:
        quartics.clear()
        m_opt, cand = minimize_reduced_determinant(p)
        assert math.isfinite(m_opt) and m_opt >= 1.0, p
        scale = max(p.n, p.m)   # of the entries
        res_x, res_p = cand.constraint_residuals(p)
        assert max(abs(res_x), abs(res_p)) <= 1e-10 * max(1.0, scale * scale), p
        if p in exact_pure:
            assert quartics == []
        if p in biquadratic:
            a, b, c, d, e = quartics[0]
            assert abs(b) + abs(c) + abs(d) <= 1e-12 * abs(a), p
            assert e == pytest.approx(-a, rel=1e-12), p
        if p in biquadratic or validate_standard_form(p).is_pure:
            # symmetric states: the Gaussian EOF is the EOF
            value = f_aux(math.sqrt(m_opt) - math.sqrt(m_opt - 1.0))
            assert value == pytest.approx(eof(p).eof, rel=1e-10, abs=0.0), p


def test_quartic_with_a_fourfold_root():
    # (t - 2)^4: the depressed quartic is y^4 = 0, whose resolvent root is 0
    assert bounds_mod._quartic_roots(1.0, -8.0, 24.0, -32.0, 16.0) == [2.0]


def test_minimizer_non_bona_fide_is_infeasible():
    # canonical but below the uncertainty relation: C_x - C_p^{-1} is not
    # PSD, so no pure state lies below the CM
    for params in ((1.0, 1.0, 0.9, -0.9), (1.5, 1.5, 1.4, -0.2),
                   (2.0, 1.5, 1.7, -0.1), (3.0, 2.0, 2.4, -1.0)):
        p = StandardFormParams(*params)
        assert not is_bona_fide_params(*params)
        with pytest.raises(Infeasible):
            minimize_reduced_determinant(p)


def test_minimizer_skips_angles_where_det_gamma_rounds_to_zero(monkeypatch):
    # at n near 4.6e8 det Gamma = u v - x1^2 rounds to 0 at a candidate
    # angle, where 1 + x1^2 / det Gamma raised ZeroDivisionError; such an
    # angle gets no score, and where none is scored the state is Infeasible
    p = StandardFormParams(458497204.1392829, 458497204.84233105,
                           458497204.48873943, -458497204.48873943)
    m_opt, cand = minimize_reduced_determinant(p)
    assert 1.0 <= m_opt < math.inf and cand.det_gamma > 0.0
    assert bounds_mod._objective(0.0, (1.0, 1.0, 1.0, 0.0, 0.0, 0.0)) == math.inf
    monkeypatch.setattr(bounds_mod, "_objective", lambda theta, ellipse: math.inf)
    with pytest.raises(Infeasible, match="det Gamma"):
        minimize_reduced_determinant(StandardFormParams(2.0, 1.5, 1.0, -1.0))


def _edge_state(rng, target):
    """n, m log-uniform on [1.1, 50], t on [0.05, 1] and the largest kx with
    nu_-(n, m, kx, -t kx) >= target(rng)."""
    n, m = (float(v) for v in np.exp(rng.uniform(math.log(1.1), math.log(50.0), 2)))
    t = rng.uniform(0.05, 1.0)
    return n, m, t, kx_at_nu_minus(n, m, t, target(rng))


def test_bounds_report_just_below_the_uncertainty_relation():
    # nu_- = 1 - 10^U(-12, -9.05): bona fide within TOL_PSD, so eof()
    # accepts them, and so must the minimizer; there C_x - C_p^{-1} is
    # slightly indefinite, which the minimizer used to refuse (Infeasible
    # on 277 of these 300)
    rng = np.random.default_rng(5)
    for _ in range(300):
        n, m, t, kx = _edge_state(
            rng, lambda r: 1.0 - 10.0 ** r.uniform(-12.0, -9.05))
        p = StandardFormParams(n, m, kx, -t * kx)
        report = bounds_report(p)
        assert report.gaussian_eof >= report.eof - bounds_mod.SANDWICH_TOL, p


def test_minimizer_on_pure_states():
    # two-mode squeezed vacua, reduced from their CMs, and the pure
    # amplifier members (2k - 1, 2k - 1, 2 sqrt(k(k - 1)), -...): K = 0 up
    # to rounding, which the minimizer used to refuse on 28 of these 80
    states = [reduce_to_standard_params(squeezed_vacuum_cm(float(r)))
              for r in np.linspace(0.05, 3.0, 40)]
    for k in np.geomspace(1.01, 1e3, 40):
        s = 2.0 * math.sqrt(k * (k - 1.0))
        states.append(StandardFormParams(2.0 * k - 1.0, 2.0 * k - 1.0, s, -s))
    for p in states:
        assert validate_standard_form(p).is_pure, p
        m_opt, _ = minimize_reduced_determinant(p)
        m_opt = max(m_opt, 1.0)
        value = f_aux(math.sqrt(m_opt) - math.sqrt(m_opt - 1.0))
        assert value == pytest.approx(eof(p).eof, rel=1e-10, abs=0.0), p


def test_minimizer_infeasible_exactly_when_not_bona_fide():
    # the largest kx with nu_- >= 1 - TOL_PSD and the next float above it,
    # and states 1e-13..1e-10 to either side of that edge
    rng = np.random.default_rng(61)
    edge = 1.0 - TOL_PSD
    states = []
    for _ in range(100):
        n, m, t, kx = _edge_state(rng, lambda r: edge)
        states += [(n, m, kx, t), (n, m, math.nextafter(kx, math.inf), t)]
        for side in (-1.0, 1.0):
            n, m, t, kx = _edge_state(
                rng, lambda r: edge + side * 10.0 ** r.uniform(-13.0, -10.0))
            states.append((n, m, kx, t))
    verdicts = set()
    for n, m, kx, t in states:
        p = StandardFormParams(n, m, kx, -t * kx)
        bona_fide = validate_standard_form(p).is_bona_fide
        verdicts.add(bona_fide)
        try:
            minimize_reduced_determinant(p)
            refused = False
        except Infeasible:
            refused = True
        assert refused is not bona_fide, (p, bona_fide)
    assert verdicts == {True, False}


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
        assert val == pytest.approx(eof(p).eof, abs=1e-8)


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


def test_bounds_report_refuses_an_eof_above_the_upper_bound(monkeypatch):
    monkeypatch.setattr(bounds_mod, "oliveira_upper", lambda params: 0.0)
    with pytest.raises(SandwichViolation, match="above the upper bound"):
        bounds_report(StandardFormParams(2.0, 1.5, 1.0, -1.0))


@pytest.mark.parametrize("params", [StandardFormParams(2.0, 2.0, 0.5, -0.5),
                                    StandardFormParams(3.0, 2.0, 0.5, -0.3)])
def test_minimizer_reaches_one_on_separable_states(params):
    # bounds_report never minimizes a separable state; the minimizer itself
    # finds m = 1 at its x1 = 0 angle
    m_opt, cand = minimize_reduced_determinant(params)
    assert m_opt == 1.0 and abs(cand.x1) < 1e-15


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
