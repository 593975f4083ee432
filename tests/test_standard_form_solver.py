import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest

from gaussian_eof import (CriticalParams, Degenerate, DomainError,
                          InvalidState, NoRoot, SqueezingSolution, StandardFormParams,
                          critical_params, eof, reduce_to_standard_params,
                          solve_squeezings, standard_form_nu,
                          standard_form_solver, validate_standard_form)

from conftest import (is_bona_fide_params, is_entangled_params,
                      random_entangled_params)


def _ratio_residual(p, r1, r2):
    return (p.n * r1 - 1) * (p.m / r2 - 1) - (p.n / r1 - 1) * (p.m * r2 - 1)


def _balance_residual(p, r1, r2):
    s = math.sqrt(r1 * r2)
    t1 = (p.n * r1 - 1) * (p.m * r2 - 1)
    t2 = (p.n / r1 - 1) * (p.m / r2 - 1)
    return (abs(s * p.kx) - abs(p.kp / s)
            - (math.sqrt(max(t1, 0.0)) - math.sqrt(max(t2, 0.0))))


def _oracle_solve(p, r1_hi=20.0, grid=4000, iters=200):
    """Independent dense-grid bracketing plus plain bisection.

    The ratio constraint is solved for r2 with numpy's polynomial roots,
    a different route from the library's closed-form quadratic.
    """
    def r2_of(r1):
        big, small = p.n * r1 - 1.0, p.n / r1 - 1.0
        roots = np.roots([small * p.m, big - small, -big * p.m])
        real = [float(r.real) for r in roots
                if abs(r.imag) < 1e-9 and r.real >= 1.0 - 1e-9]
        if not real:
            return None
        return min(real, key=lambda r2: abs(_balance_residual(p, r1, r2)))

    def res(r1):
        r2 = r2_of(r1)
        if r2 is None:
            return None
        t2 = (p.n / r1 - 1) * (p.m / r2 - 1)
        if t2 < -1e-12:
            return None
        return _balance_residual(p, r1, r2)

    xs = np.linspace(1.0, r1_hi, grid)
    vals = [res(float(x)) for x in xs]
    bracket = None
    for i in range(grid - 1):
        if vals[i] is None or vals[i + 1] is None:
            continue
        if vals[i] == 0.0 or vals[i] * vals[i + 1] < 0.0:
            bracket = (float(xs[i]), float(xs[i + 1]))
            break
    assert bracket is not None, "oracle found no bracket"
    lo, hi = bracket
    flo = res(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = res(mid)
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    r1 = 0.5 * (lo + hi)
    return r1, r2_of(r1)


def test_symmetric_closed_form():
    # separable ((n - kx)(n + kp) = 1.5), but eof() still reports the
    # squeezings of the symmetric closed form
    p = StandardFormParams(2.0, 2.0, 1.0, -0.5)
    expect = math.sqrt(1.5 / 1.0)
    report = eof(p)
    assert report.method == "separable"
    assert report.epr.r1 == report.epr.r2 == expect
    sol = solve_squeezings(p)
    assert sol.r1 == pytest.approx(expect, abs=1e-14)
    assert sol.r2 == pytest.approx(expect, abs=1e-14)
    assert sol.max_residual < 1e-12


def test_squeezed_thermal_closed_form():
    # the balance residual at r1 = 1 is exactly kx + kp = 0, so the general
    # solve lands on the closed form's (1, 1) with no residual
    for p in (StandardFormParams(2.0, 1.5, 1.0, -1.0),
              StandardFormParams(1.5, 2.0, 1.0, -1.0)):
        assert eof(p).method == "squeezed_thermal"
        sol = solve_squeezings(p)
        assert (sol.r1, sol.r2) == (1.0, 1.0)
        assert sol.residual_ratio == 0.0 and sol.residual_balance == 0.0


def test_general_solve_matches_independent_oracle():
    p = StandardFormParams(2.0, 1.5, 1.2, -1.0)
    sol = solve_squeezings(p)
    assert eof(p).method == "general"
    assert abs(sol.residual_ratio) < 1e-12
    assert abs(sol.residual_balance) < 1e-12
    r1_oracle, r2_oracle = _oracle_solve(p)
    assert sol.r1 == pytest.approx(r1_oracle, abs=1e-8)
    assert sol.r2 == pytest.approx(r2_oracle, abs=1e-8)


def test_narrow_admissible_window():
    # with n close to 1 the admissible r1 window [1, n] is narrow; the
    # root finder on that window must still find the root
    p = StandardFormParams(n=1.025506543232509, m=5.439158800175253,
                           kx=0.5114776783972613, kp=-0.09324799913869698)
    sol = solve_squeezings(p)
    assert sol.max_residual < 1e-12
    assert 1.0 <= sol.r1 < 1.03
    assert sol.r2 > 3.0


def test_single_root_reported_on_benchmarks():
    # the balance residual crosses zero once on these states; the
    # multiplicity diagnostic stays quiet
    for p in (StandardFormParams(2.0, 1.5, 1.2, -1.0),
              StandardFormParams(3.0, 2.0, 1.8, -1.2)):
        assert solve_squeezings(p).multiple_brackets is False


def test_general_solver_agrees_with_closed_forms():
    for p in (StandardFormParams(2.0, 2.0, 1.0, -0.5),
              StandardFormParams(3.0, 3.0, 1.4, -1.1),
              StandardFormParams(2.0, 1.5, 1.0, -1.0),
              StandardFormParams(2.6, 1.7, 1.1, -1.1)):
        closed = eof(p).epr  # squeezings of the closed form
        general = solve_squeezings(p)
        assert general.r1 == pytest.approx(closed.r1, abs=1e-10)
        assert general.r2 == pytest.approx(closed.r2, abs=1e-10)


def test_random_states_residuals_and_bounds():
    # n, m log-uniform on [1.0001, 50], each state also with its modes
    # swapped; the solution stays in the window 1 <= r1 <= n, 1 <= r2 <= m
    rng = np.random.default_rng(17)
    log_lo, log_hi = math.log(1.0001), math.log(50.0)
    checked = 0
    while checked < 100:
        n, m = np.exp(rng.uniform(log_lo, log_hi, 2))
        kx = rng.uniform(0.05, 1.0) * (math.sqrt(n * m) - 1e-9)
        kp = -rng.uniform(0.02, 1.0) * kx
        if not (is_bona_fide_params(n, m, kx, kp, margin=1e-9)
                and is_entangled_params(n, m, kx, kp)):
            continue
        for p in (StandardFormParams(n, m, kx, kp),
                  StandardFormParams(m, n, kx, kp)):
            sol = solve_squeezings(p)
            assert 1.0 <= sol.r1 <= p.n and 1.0 <= sol.r2 <= p.m
            assert abs(_ratio_residual(p, sol.r1, sol.r2)) < 1e-10
            assert abs(_balance_residual(p, sol.r1, sol.r2)) < 1e-10
            checked += 1


def _library_residual(p, r1):
    """The solver's balance residual at r1, as _solve_r1 sees it; the kernel
    refuses no r1."""
    return standard_form_solver._balance_kernel(p.n, p.m, p.kx, p.kp)(r1)


def _bisection_r1(p):
    """Reference: bisection of the same residual on [1, n] to adjacent floats,
    returning the end with the smaller |residual|."""
    lo, hi = 1.0, p.n
    f_lo, f_hi = _library_residual(p, lo), _library_residual(p, hi)
    assert f_lo * f_hi <= 0.0
    while f_lo != 0.0 and f_hi != 0.0:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        f_mid = _library_residual(p, mid)
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return lo if abs(f_lo) <= abs(f_hi) else hi


def _harsh_invariant(rng):
    """n or m: within 1e-6..1e-4 of the vacuum, 1e-3..1 above it, or
    log-uniform on [1, 1e5]."""
    u = rng.uniform()
    if u < 0.25:
        return 1.0 + 10.0 ** rng.uniform(-6.0, -4.0)
    if u < 0.5:
        return 1.0 + 10.0 ** rng.uniform(-3.0, 0.0)
    return 10.0 ** rng.uniform(0.0, 5.0)


def _harsh_states(seed=79, count=1500):
    """Bona fide general-route states (n != m, kx != -kp), n and m from
    _harsh_invariant; the correlation kx spans five decades below
    sqrt(nm) so that states near the vacuum stay bona fide."""
    rng = np.random.default_rng(seed)
    states = []
    while len(states) < count:
        n, m = _harsh_invariant(rng), _harsh_invariant(rng)
        kx = math.sqrt(n * m) * 10.0 ** rng.uniform(-5.0, 0.0)
        p = StandardFormParams(n, m, kx, -kx * rng.uniform(0.02, 0.98))
        if validate_standard_form(p).is_bona_fide:
            states.append(p)
    return states


def test_root_finder_calls_and_agreement():
    calls = []

    def counted(p):
        """The state's kernel, counting its evaluations in calls[-1]."""
        kernel = standard_form_solver._balance_kernel(p.n, p.m, p.kx, p.kp)

        def balance(r1, full=False):
            calls[-1] += 1
            return kernel(r1, full)
        return balance

    compared = 0
    for p in _harsh_states():
        calls.append(0)
        r1 = standard_form_solver._solve_r1(p, counted(p))
        assert 1.0 <= r1 <= p.n
        # r1 is a floating-point root: zero residual, or a sign change
        # between r1 and an adjacent float
        f = _library_residual(p, r1)
        neighbours = (_library_residual(p, math.nextafter(r1, side))
                      for side in (0.0, math.inf))
        assert f == 0.0 or any(f * g <= 0.0 for g in neighbours), p
        # with a mode within 1e-4 of the vacuum the residual sits at
        # rounding level over up to ~2e-10 of r1 (both roots have
        # |residual| ~ 1e-12), so the roots are compared elsewhere
        if min(p.n, p.m) - 1.0 >= 1e-3:
            ref = _bisection_r1(p)
            assert abs(r1 - ref) <= 1e-12 * ref, p
            compared += 1
    assert compared >= 500
    assert np.median(calls) <= 20
    assert max(calls) <= 60


# The three-call residual path that standard_form_solver._balance_kernel
# replaced, kept verbatim as the reference the kernel must match bit for bit.

def _reference_r2_of(n, m, r1):
    big = n * r1 - 1.0
    small = n / r1 - 1.0
    aq, bq, cq = small * m, big - small, -big * m
    q = -0.5 * (bq + math.sqrt(bq * bq - 4.0 * aq * cq))
    return cq / q


def _reference_balance_residual(params, r1, r2):
    n, m, kx, kp = params.n, params.m, params.kx, params.kp
    s = math.sqrt(r1 * r2)
    t1 = max(n * r1 - 1.0, 0.0) * max(m * r2 - 1.0, 0.0)
    t2 = (n / r1 - 1.0) * (m / r2 - 1.0)
    if t2 < -1e-12:
        return None  # incompatible signs: not on the solution manifold
    t2 = max(t2, 0.0)
    return abs(s * kx) - abs(kp / s) - (math.sqrt(t1) - math.sqrt(t2))


def _reference_solve_r1(params):
    n, m = params.n, params.m

    def residual(r1):
        val = _reference_balance_residual(params, r1, _reference_r2_of(n, m, r1))
        if val is None:
            raise NoRoot(f"balance residual undefined at r1 = {r1}")
        return val

    if n <= 1.0:
        raise NoRoot(f"the r1 window [1, n] is empty at n = {n}")
    lo, hi = 1.0, n
    f_lo, f_hi = residual(lo), residual(hi)
    if f_lo * f_hi > 0.0:
        if validate_standard_form(params).is_bona_fide:
            return hi
        raise NoRoot("balance residual has no sign change on the r1 bracket; "
                     "input parameters do not describe a reducible state")
    w_lo, w_hi = f_lo, f_hi
    last = 0
    while f_lo != 0.0 and f_hi != 0.0:
        x = (lo * w_hi - hi * w_lo) / (w_hi - w_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if x in (lo, hi):
                break
        f_x = residual(x)
        if (f_x < 0.0) == (f_lo < 0.0):
            lo, f_lo, w_lo = x, f_x, f_x
            if last < 0:
                w_hi *= 0.5
            last = -1
        else:
            hi, f_hi, w_hi = x, f_x, f_x
            if last > 0:
                w_lo *= 0.5
            last = 1
    return lo if abs(f_lo) <= abs(f_hi) else hi


def _reference_solution(p):
    r1 = _reference_solve_r1(p)
    r2 = _reference_r2_of(p.n, p.m, r1)
    return (r1, r2, _ratio_residual(p, r1, r2),
            _reference_balance_residual(p, r1, r2))


def _window_end_states(seed=83, count=40):
    """States bona fide only within TOL_PSD whose root lies beyond r1 = n:
    n 1e-11..1e-9 above the vacuum, nu_- just below 1."""
    rng = np.random.default_rng(seed)
    states = []
    while len(states) < count:
        n = 1.0 + 10.0 ** rng.uniform(-11.0, -9.0)
        m = 10.0 ** rng.uniform(0.0, 2.0)
        kx = 10.0 ** rng.uniform(-6.0, -4.0)
        p = StandardFormParams(n, m, kx, -kx * rng.uniform(0.2, 0.8))
        if (validate_standard_form(p).is_bona_fide
                and standard_form_nu(p.n, p.m, p.kx, p.kp)[0] < 1.0
                and _reference_solve_r1(p) == p.n):
            states.append(p)
    return states


def test_kernel_matches_the_three_call_path_bit_for_bit():
    rng = np.random.default_rng(89)
    general = [random_entangled_params(rng, n_hi=50.0) for _ in range(500)]
    window_end = _window_end_states()
    for p in general + _harsh_states() + window_end:
        sol = solve_squeezings(p)
        got = (sol.r1, sol.r2, sol.residual_ratio, sol.residual_balance)
        assert got == _reference_solution(p), p
    assert all(solve_squeezings(p).r1 == p.n for p in window_end)
    no_root = [StandardFormParams(2.0, 1.5, 1.9, -0.1),
               StandardFormParams(1.0, 3.0, 0.5, -0.2),
               StandardFormParams(1.0 - 5e-13, 2.0, 0.3, -0.1)]
    no_root += [StandardFormParams(n, m, 1.01 * math.sqrt(n * m), -0.1)
                for n, m in 1.0 + np.exp(rng.uniform(-3.0, 3.0, (20, 2)))]
    for p in no_root:
        with pytest.raises(NoRoot) as want:
            _reference_solution(p)
        with pytest.raises(NoRoot, match=f"^{re.escape(str(want.value))}$"):
            solve_squeezings(p)


def test_eof_continuous_across_closed_form_switches():
    # the closed forms take over at 1e-12 relative; states 3e-12 outside
    # (general solve, root near the r1 = 1 end for kx ~ -kp) and 5e-13
    # inside give the same EOF
    cases = (
        ((2.0, 1.5, 1.0, -1.0), "squeezed_thermal",
         lambda d: StandardFormParams(2.0, 1.5, 1.0, -(1.0 - d))),
        ((2.0, 2.0, 1.5, -1.2), "symmetric",
         lambda d: StandardFormParams(2.0, 2.0 * (1.0 + d), 1.5, -1.2)),
        ((2.0, 2.0, 1.5, -1.2), "symmetric",
         lambda d: StandardFormParams(2.0 * (1.0 - d), 2.0, 1.5, -1.2)),
    )
    for base, closed_branch, perturbed in cases:
        exact = eof(StandardFormParams(*base)).eof
        assert exact > 0.1
        outside, inside = perturbed(3e-12), perturbed(5e-13)
        assert eof(outside).method == "general"
        assert eof(inside).method == closed_branch
        assert eof(outside).eof == pytest.approx(exact, abs=1e-9)
        assert eof(inside).eof == pytest.approx(exact, abs=1e-9)


def test_solver_input_validation():
    with pytest.raises(DomainError):
        solve_squeezings(StandardFormParams(0.8, 2.0, 0.5, -0.3))
    with pytest.raises(DomainError):
        solve_squeezings(StandardFormParams(2.0, 2.0, 0.5, 0.3))
    with pytest.raises(DomainError):
        solve_squeezings(StandardFormParams(2.0, 2.0, 0.2, -0.5))
    # canonical, but the solve needs strict correlations of both signs
    with pytest.raises(DomainError, match="need kx > 0 > kp"):
        solve_squeezings(StandardFormParams(2.0, 1.5, 1.0, 0.0))
    # the ratio quadratic's discriminant overflows at r1 = n, then at r1 = 1,
    # where r2 read 0 and the balance residual raised ZeroDivisionError
    for params in ((2e77, 2e77, 1.0, -0.5), (2.0, 1e154, 1.0, -0.5)):
        with pytest.raises(DomainError, match="leave the float range"):
            solve_squeezings(StandardFormParams(*params))


def test_no_root_for_unphysical_parameters():
    # kx^2 > n m violates positivity; the balance residual never crosses zero
    with pytest.raises(NoRoot):
        solve_squeezings(StandardFormParams(2.0, 1.5, 1.9, -0.1))


def test_mode_just_below_the_vacuum_solves_as_the_vacuum():
    # m = 1 - 1e-12 passes check_canonical and the state is bona fide
    # within TOL_PSD; the solve reads that mode as m = 1
    for kx in (1e-7, 1e-5):
        below = StandardFormParams(3.0, 1.0 - 1e-12, kx, -kx)
        assert validate_standard_form(below).is_bona_fide
        assert solve_squeezings(below) == solve_squeezings(
            StandardFormParams(3.0, 1.0, kx, -kx))


def test_root_beyond_the_window_within_tolerance():
    # nu_- = 1 - 4.5e-11: bona fide within TOL_PSD, and the balance residual
    # stays positive up to r1 = n, so the window end is the root
    p = StandardFormParams(1.0 + 1e-10, 10.0, 5e-5, -2.5e-5)
    assert validate_standard_form(p).is_bona_fide
    assert standard_form_nu(p.n, p.m, p.kx, p.kp)[0] < 1.0
    sol = solve_squeezings(p)
    assert (sol.r1, sol.r2) == (p.n, p.m)


def test_critical_params_symmetric():
    p = StandardFormParams(2.0, 2.0, 1.0, -0.5)
    crit = critical_params(p, solve_squeezings(p))
    assert crit.a0 == pytest.approx(1.0, abs=1e-12)
    assert crit.b0 == pytest.approx(0.0, abs=1e-7)


def test_critical_params_squeezed_thermal():
    p = StandardFormParams(2.0, 1.5, 1.0, -1.0)
    crit = critical_params(p, solve_squeezings(p))
    assert crit.b0 == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert crit.a0 ** 4 == pytest.approx(0.5 / 1.0, abs=1e-12)
    # general formula b0 = (n - m)/(n + m - 2)
    p2 = StandardFormParams(3.0, 2.0, 1.2, -1.2)
    crit2 = critical_params(p2, solve_squeezings(p2))
    assert crit2.b0 == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_critical_params_consistency_on_randoms():
    rng = np.random.default_rng(23)
    for _ in range(30):
        p = random_entangled_params(rng)
        sol = solve_squeezings(p)
        crit = critical_params(p, sol)
        lhs = crit.a0 ** 4
        rhs = (p.m * sol.r2 - 1.0) / (p.n * sol.r1 - 1.0)
        assert lhs == pytest.approx(rhs, abs=1e-9)
        alt = (p.m / sol.r2 - 1.0) / (p.n / sol.r1 - 1.0)
        if alt > 0:
            assert lhs == pytest.approx(alt, rel=1e-7)


def test_critical_params_next_to_the_vacuum():
    # m - 1 = 3.5e-10: (m/r2 - 1)/(n/r1 - 1) has a numerator of 1.6e-12 and
    # differs from (m r2 - 1)/(n r1 - 1) by 3e-5 relative, all of it
    # rounding; the check on the ratio residual accepts the solve in both
    # mode orders, and still refuses the r -> 1/r counterpart of its r2
    p = StandardFormParams(1.015696375893642, 1.000000000345938,
                           1.3401754888834823e-05, -8.918153210717686e-06)
    for q in (p, StandardFormParams(p.m, p.n, p.kx, p.kp)):
        sol = solve_squeezings(q)
        crit = critical_params(q, sol)
        assert crit.a0 ** 4 == pytest.approx(
            (q.m * sol.r2 - 1.0) / (q.n * sol.r1 - 1.0), rel=1e-12)
        assert 0.0 < eof(q).eof < 1e-8
    for q in (p, StandardFormParams(2.0, 1.5, 1.0, -0.7)):
        sol = solve_squeezings(q)
        r2 = 1.0 / sol.r2   # with the ratio residual a solve would report
        wrong = SqueezingSolution(sol.r1, r2, _ratio_residual(q, sol.r1, r2),
                                  0.0)
        with pytest.raises(InvalidState, match="consistency check"):
            critical_params(q, wrong)


def test_critical_params_refuses_a_wrong_r1(monkeypatch):
    # a solve that returns (1 + r1)/2: r2 follows r1 through the ratio
    # constraint, so only the balance residual shows that r1 is wrong
    rng = np.random.default_rng(97)
    states = [random_entangled_params(rng, n_hi=50.0) for _ in range(200)]
    solve_r1 = standard_form_solver._solve_r1
    monkeypatch.setattr(standard_form_solver, "_solve_r1",
                        lambda p, balance: 0.5 * (1.0 + solve_r1(p, balance)))
    for p in states:
        with pytest.raises(InvalidState, match="balance residual"):
            critical_params(p, solve_squeezings(p))


def _perfbench_inputs():
    """The benchmark's seeded input generator, perfbench/inputs.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, module.load_table1(path.parents[1])


def test_critical_params_refuses_no_solve():
    # the benchmark's batch-eof and bounds-sweep inputs (seeds 1-3), the
    # harsh states and the window-end states all pass both checks
    inputs, table1 = _perfbench_inputs()
    states = [reduce_to_standard_params(item["raw"])
              for seed in (1, 2, 3) for item in inputs.batch_eof(seed)]
    states += [StandardFormParams(*item["state"]) for seed in (1, 2, 3)
               for item in inputs.bounds_sweep(seed, table1)]
    states += _harsh_states() + _window_end_states()
    checked = 0
    for p in states:
        if p.kx > 0.0 > p.kp:
            try:
                critical_params(p, solve_squeezings(p))
            except Degenerate:
                pass
            checked += 1
    assert checked >= 5000


def test_critical_params_degenerate_limit():
    p = StandardFormParams(1.0, 1.5, 0.3, -0.2)
    sol = SqueezingSolution(r1=1.0, r2=1.0, residual_ratio=0.0,
                            residual_balance=0.0)
    with pytest.raises(Degenerate):
        critical_params(p, sol)
