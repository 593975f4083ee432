import math

import numpy as np
import pytest

from gaussian_eof import (DomainError, InvalidState, StandardFormParams,
                          critical_params, delta0, delta_general, delta_prime,
                          delta_pure_squeezed, r_from_delta_prime,
                          solve_squeezings, uncertainty_floor)
from gaussian_eof.epr_uncertainty import EprQuantities
from gaussian_eof.standard_form_solver import (CriticalParams, SqueezingSolution,
                                               _uncertainty_floor)

from conftest import ppt_nu_minus, random_bona_fide_params, random_entangled_params


def _solved(n, m, kx, kp):
    p = StandardFormParams(n, m, kx, kp)
    return p, solve_squeezings(p)


def test_vacuum_uncertainty_is_one():
    p = StandardFormParams(1.0, 1.0, 0.0, 0.0)
    for a in (-2.0, -1.0, -0.3, 0.7, 1.0):
        assert delta_general(p, 1.0, 1.0, a) == pytest.approx(1.0, abs=1e-14)


def test_squeezed_vacuum_uncertainty():
    r = 0.4
    p = StandardFormParams(math.cosh(2 * r), math.cosh(2 * r),
                           math.sinh(2 * r), -math.sinh(2 * r))
    assert delta_general(p, 1.0, 1.0, -1.0) == pytest.approx(math.exp(-2 * r), abs=1e-12)
    assert delta_general(p, 1.0, 1.0, +1.0) == 1.0  # clamped


def test_delta_general_requires_solved_params():
    p = StandardFormParams(2.0, 2.0, 1.0, -0.5)
    with pytest.raises(DomainError):
        delta_general(p, 1.0, 1.0, 0.0)


@pytest.mark.parametrize("r1, r2", [(math.nan, 1.0), (1.0, math.nan),
                                    (1.0, math.inf), (0.0, 1.0), (1.0, -1.2)])
def test_delta_general_refuses_bad_squeezing_factors(r1, r2):
    with pytest.raises(DomainError):
        delta_general(StandardFormParams(2.0, 2.0, 1.0, -0.5), r1, r2, -1.0)


def test_delta_pure_squeezed_examples():
    assert delta_pure_squeezed(0.0, -1.3) == pytest.approx(1.0)
    for r in (0.2, 0.7, 1.4):
        assert delta_pure_squeezed(r, -1.0) == pytest.approx(
            math.exp(-2 * r), abs=1e-13)
    with pytest.raises(DomainError):
        delta_pure_squeezed(0.5, 1.0)
    with pytest.raises(DomainError):
        delta_pure_squeezed(-0.1, -1.0)


@pytest.mark.parametrize("a", [-1.1, -1.5, -2.5])
def test_pure_curve_minimum_matches_floor(a):
    # grid-scan oracle for the location and value of the minimum
    eta = 2.0 / (a * a + 1.0 / (a * a))
    r_star = 0.5 * math.atanh(eta)
    rs = np.linspace(0.0, 2.0 * r_star, 40001)
    vals = np.array([delta_pure_squeezed(float(r), a) for r in rs])
    i = int(np.argmin(vals))
    assert math.tanh(2 * rs[i]) == pytest.approx(eta, abs=2e-4)
    assert vals[i] == pytest.approx(uncertainty_floor(a), abs=1e-7)


@pytest.mark.parametrize("a", [0.0, -0.0, math.inf, -math.inf, math.nan])
def test_uncertainty_floor_refuses_zero_and_non_finite_a(a):
    with pytest.raises(DomainError, match="nonzero finite"):
        uncertainty_floor(a)


def test_uncertainty_floor_over_the_float_range():
    # a^2 + 1/a^2 overflows, or a^2 underflows to 0, beyond about 1e+-77;
    # the floor is then its limit 1, where the formula raised
    # OverflowError or ZeroDivisionError, and unchanged where it returns
    raised = 0
    for mag in np.geomspace(1e-300, 1e300, 1201):
        for a in (float(mag), -float(mag)):
            try:
                formula = _uncertainty_floor(a * a)
            except (OverflowError, ZeroDivisionError):
                formula = None
                raised += 1
            assert uncertainty_floor(a) == (1.0 if formula is None else formula), a
    assert raised > 0
    assert uncertainty_floor(1e-77) == uncertainty_floor(1e160) == 1.0


def test_delta_prime_identities():
    for d in (0.2, 0.6, 0.95):
        assert delta_prime(d, 0.0) == pytest.approx(d, abs=1e-15)
    for b in (0.0, 0.3, 0.8):
        assert delta_prime(1.0, b) == pytest.approx(1.0, abs=1e-14)
    b = 0.4
    assert delta_prime(b, b) == pytest.approx(
        b / (1.0 + math.sqrt(1.0 - b * b)), abs=1e-14)
    with pytest.raises(DomainError):
        delta_prime(0.2, 0.4)
    with pytest.raises(DomainError):
        delta_prime(0.5, 1.2)
    with pytest.raises(DomainError, match="above 1"):
        delta_prime(1.0 + 2e-9, 0.5)   # beyond TOL_CLAMP
    # Delta below b within TOL_CLAMP: the radicand clamps to 0; beyond it,
    # Delta is refused
    assert delta_prime(0.5 - 1e-13, 0.5) == (0.5 - 1e-13) / (1.0 + math.sqrt(0.75))
    assert delta_prime(0.5 - 1e-10, 0.5) == (0.5 - 1e-10) / (1.0 + math.sqrt(0.75))
    with pytest.raises(DomainError, match="below floor"):
        delta_prime(0.5 - 2e-9, 0.5)


def test_delta_prime_monotone_in_delta():
    for b in (0.0, 0.25, 0.6):
        ds = np.linspace(b, 1.0, 500)
        vals = [delta_prime(float(d), b) for d in ds]
        assert all(v2 > v1 - 1e-14 for v1, v2 in zip(vals, vals[1:]))


def test_r_from_delta_prime():
    assert r_from_delta_prime(1.0) == 0.0
    assert r_from_delta_prime(math.exp(-1.0)) == pytest.approx(0.5, abs=1e-14)
    for dp in np.arange(0.1, 1.0, 0.1):
        r = r_from_delta_prime(float(dp))
        assert delta_pure_squeezed(r, -1.0) == pytest.approx(float(dp), abs=1e-12)
    with pytest.raises(DomainError):
        r_from_delta_prime(0.0)
    with pytest.raises(DomainError):
        r_from_delta_prime(1.1)


def test_delta0_symmetric_closed_form():
    n, kx, kp = 2.0, 1.2, -0.8
    p, sol = _solved(n, n, kx, kp)
    epr = delta0(p, sol, critical_params(p, sol))
    assert epr.delta0 == pytest.approx(math.sqrt((n - kx) * (n + kp)), abs=1e-10)
    assert epr.delta0_prime == pytest.approx(epr.delta0, abs=1e-7)
    assert not epr.separable


def test_delta0_squeezed_thermal_closed_form():
    n, m, kx = 2.0, 1.5, 1.0
    p, sol = _solved(n, m, kx, -kx)
    epr = delta0(p, sol, critical_params(p, sol))
    nt, mt = n - 1.0, m - 1.0
    expect = (n * mt + m * nt - 2 * kx * math.sqrt(nt * mt)) / (nt + mt)
    assert epr.delta0 == pytest.approx(expect, abs=1e-12)


def test_delta0_separable_state_clamps_to_one():
    n, kx, kp = 2.15, 1.3, -0.9
    p, sol = _solved(n, n, kx, kp)
    epr = delta0(p, sol, critical_params(p, sol))
    assert epr.separable
    assert epr.delta0 == 1.0
    assert epr.delta0_prime == pytest.approx(1.0, abs=1e-12)
    # raw value sqrt(0.85 * 1.25) > 1
    assert math.sqrt((n - kx) * (n + kp)) > 1.0


def test_delta0_matches_delta_general_at_critical_parameter():
    rng = np.random.default_rng(19)
    for _ in range(30):
        p = random_entangled_params(rng)
        sol = solve_squeezings(p)
        crit = critical_params(p, sol)
        epr = delta0(p, sol, crit)
        assert delta_general(p, sol.r1, sol.r2, -crit.a0) == pytest.approx(
            epr.delta0, abs=1e-12)


def test_delta0_prime_below_delta0_on_entangled_states():
    rng = np.random.default_rng(29)
    for _ in range(100):
        p = random_entangled_params(rng)
        sol = solve_squeezings(p)
        epr = delta0(p, sol, critical_params(p, sol))
        assert epr.delta0_prime <= epr.delta0 + 1e-12
        if epr.b0 > 1e-6 and epr.delta0 < 1.0 - 1e-9:
            assert epr.delta0_prime < epr.delta0


def test_separability_flag_agrees_with_ppt():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 120:
        p = random_bona_fide_params(rng)
        nu_pt = ppt_nu_minus(p.n, p.m, p.kx, p.kp)
        if abs(nu_pt - 1.0) < 1e-6:
            continue  # skip the boundary band
        sol = solve_squeezings(p)
        epr = delta0(p, sol, critical_params(p, sol))
        assert epr.separable == (nu_pt >= 1.0), (p, nu_pt, epr)
        checked += 1


def test_squeezed_thermal_uncertainty_decreases_with_correlation():
    n, m = 2.0, 1.5
    vals = []
    for kx in np.linspace(0.2, 1.2, 30):
        p, sol = _solved(n, m, float(kx), -float(kx))
        epr = delta0(p, sol, critical_params(p, sol))
        vals.append(epr.delta0)
    assert all(b < a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_delta0_rejects_uncertainty_below_floor():
    # squeezed vacuum at a = -1 has raw uncertainty e^(-2) ~ 0.135; a floor
    # of 0.9 is inconsistent with it and must be rejected
    r = 1.0
    p = StandardFormParams(math.cosh(2 * r), math.cosh(2 * r),
                           math.sinh(2 * r), -math.sinh(2 * r))
    sol = SqueezingSolution(r1=1.0, r2=1.0, residual_ratio=0.0,
                            residual_balance=0.0)
    with pytest.raises(InvalidState):
        delta0(p, sol, CriticalParams(a0=1.0, b0=0.9))


def test_epr_quantities_serialization():
    epr = EprQuantities(a0=1.0, b0=0.0, delta0=0.5, delta0_prime=0.5,
                        separable=False, r1=1.0, r2=1.0)
    d = epr.to_dict()
    assert d["delta0"] == 0.5 and d["separable"] is False
