import functools
import json
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from gaussian_eof import (DomainError, InvalidState, NoRoot,
                          StandardFormParams, eof, eof_from_cm, f_aux, g_kappa,
                          giovannetti_family, solve_squeezings,
                          squeezed_vacuum_cm, standard_form_nu,
                          validate_standard_form)
from gaussian_eof import bounds_report, eof_core
from gaussian_eof.cli import main as cli_main
from gaussian_eof.standard_form import TOL_PSD

from conftest import (beam_splitter, fresh_python, general_route_eof,
                      general_route_epr, is_bona_fide_params,
                      is_entangled_params, kx_at_nu_minus, local_rotation,
                      local_squeeze, near_pure_cm, random_local_symplectic,
                      two_mode_squeezer)
from fock_oracle import entropy_of_spectrum, schmidt_coeffs_squeezed


def pure_entropy(r):
    """Exact entanglement of the two-mode squeezed vacuum, in bits."""
    if r == 0.0:
        return 0.0
    ch2, sh2 = math.cosh(r) ** 2, math.sinh(r) ** 2
    return ch2 * math.log2(ch2) - sh2 * math.log2(sh2)


def test_f_aux_endpoint():
    assert f_aux(1.0) == 0.0
    assert f_aux(1.0 + 1e-13) == 0.0  # clamped boundary


def test_f_aux_direct_evaluation():
    # independent route: the raw c_plus/c_minus formula
    for d in (0.25, 0.5, 0.9, 0.99):
        cp = (d ** -0.5 + d ** 0.5) ** 2 / 4.0
        cm = (d ** -0.5 - d ** 0.5) ** 2 / 4.0
        direct = cp * math.log2(cp) - cm * math.log2(cm)
        assert f_aux(d) == pytest.approx(direct, rel=1e-13)
    assert f_aux(0.25) == pytest.approx(1.4729424832117068, abs=1e-12)


@pytest.mark.parametrize("r", [0.2, 0.5, 1.0])
def test_f_aux_squeezed_state_identity(r):
    assert f_aux(math.exp(-2 * r)) == pytest.approx(pure_entropy(r), rel=1e-12)


def test_f_aux_domain():
    with pytest.raises(DomainError):
        f_aux(0.0)
    with pytest.raises(DomainError):
        f_aux(-0.3)
    with pytest.raises(DomainError):
        f_aux(1.01)


def test_f_aux_decreasing_and_convex():
    xs = np.linspace(0.01, 0.999, 1000)
    vals = np.array([f_aux(float(x)) for x in xs])
    d1 = np.diff(vals)
    d2 = np.diff(vals, 2)
    assert np.all(d1 < 0.0)
    assert np.all(d2 > 0.0)


def test_f_aux_no_precision_loss_near_one():
    # weakly entangled states: c_minus underflows in the naive formula
    d = 1.0 - 1e-9
    val = f_aux(d)
    s = (1.0 - d) ** 2 / (4.0 * d)
    assert val == pytest.approx(s * (math.log2(1.0 / s) + 1.0 / math.log(2.0)),
                                rel=1e-6)
    assert f_aux(1.0 - 1e-200) >= 0.0


def test_eof_benchmark_rows():
    assert eof(StandardFormParams(2.0, 1.5, 1.0, -1.0)).eof == pytest.approx(
        0.2022298409, abs=1e-7)
    assert eof(StandardFormParams(2.0, 1.5, 1.2, -1.0)).eof == pytest.approx(
        0.3784745926, abs=1e-7)


def test_eof_separable_symmetric_state():
    report = eof(StandardFormParams(1.5, 1.5, 0.2, -0.2))
    assert report.method == "separable"
    assert report.eof == 0.0
    # direct: Delta0 = sqrt(1.3 * 1.3) = 1.3 > 1
    assert math.sqrt((1.5 - 0.2) * (1.5 - 0.2)) == pytest.approx(1.3)


def test_eof_product_state():
    report = eof(StandardFormParams(2.0, 3.0, 0.0, 0.0))
    assert report.eof == 0.0 and report.method == "separable"


def test_eof_pure_state_dispatch():
    r = 0.7
    c, s = math.cosh(2 * r), math.sinh(2 * r)
    report = eof(StandardFormParams(c, c, s, -s))
    assert report.method == "pure"
    assert report.eof == pytest.approx(pure_entropy(r), rel=1e-12)


def test_eof_rejects_non_canonical():
    with pytest.raises(DomainError):
        eof(StandardFormParams(2.0, 2.0, 0.5, 0.4))
    with pytest.raises(DomainError):
        eof(StandardFormParams(2.0, 2.0, 0.3, -0.5))
    with pytest.raises(DomainError):
        eof(StandardFormParams(0.9, 2.0, 0.3, -0.2))


# (2, 1.5, 1.2, -1) with one entry replaced by NaN or +-inf
NON_FINITE = [pytest.param(i, v, id=f"{name}={v}")
              for i, name in enumerate(("n", "m", "kx", "kp"))
              for v in ("nan", "inf", "-inf")]

_CALL = """
import importlib, sys
from gaussian_eof import DomainError, StandardFormParams
module, name, *entries = sys.argv[1:]
func = getattr(importlib.import_module("gaussian_eof." + module), name)
for i in range(0, len(entries), 4):
    try:
        print("returned", func(StandardFormParams(*map(float, entries[i:i + 4]))))
    except DomainError as exc:
        print(exc)
"""


@functools.cache
def _non_finite_outputs(func):
    """func's output line on each NON_FINITE state, keyed by (entry, value).

    One fresh interpreter per function, with a timeout: a solve that loops
    on a NaN bracket fails the tests instead of hanging the suite.
    """
    cases = [param.values for param in NON_FINITE]
    args = []
    for entry, value in cases:
        entries = ["2", "1.5", "1.2", "-1"]
        entries[entry] = value
        args += entries
    lines = fresh_python(_CALL, *func.split("."), *args, timeout=20).split("\n")
    assert len(lines) == len(cases) + 1 and lines[-1] == "", lines
    return dict(zip(cases, lines))


@pytest.mark.parametrize("func", [
    "standard_form_solver.solve_squeezings",
    "bounds.minimize_reduced_determinant", "bounds.rigolin_lower",
    "bounds.oliveira_upper"])
@pytest.mark.parametrize("entry, value", NON_FINITE)
def test_non_finite_parameters_raise(func, entry, value):
    assert _non_finite_outputs(func)[entry, value] == "parameters must be finite"


@pytest.mark.parametrize("entry, value", NON_FINITE)
def test_non_finite_parameters_raise_in_the_pipeline(entry, value):
    # no entry of the pipeline meets such parameters: they are refused
    # where they would be made
    entries = [2.0, 1.5, 1.2, -1.0]
    entries[entry] = float(value)
    with pytest.raises(DomainError, match="parameters must be finite"):
        StandardFormParams(*entries)


def test_eof_rejects_non_bona_fide():
    with pytest.raises(InvalidState):
        eof(StandardFormParams(1.5, 1.5, 1.2, -1.0))
    # canonical, but kx^2 > nm: no positive matrix at all
    with pytest.raises(InvalidState, match="no positive matrix"):
        eof(StandardFormParams(1.0, 1.0, 2.0, -0.5))


def test_eof_from_cm_matches_params_route():
    p = StandardFormParams(2.0, 1.5, 1.0, -1.0)
    from gaussian_eof import standard_form_cm
    assert eof_from_cm(standard_form_cm(p, 1.0, 1.0)).eof == pytest.approx(
        eof(p).eof, abs=1e-12)


def test_eof_from_cm_pure_state_after_beam_splitter():
    # a pure state behind local squeezers, a two-mode squeezer and a beam
    # splitter: its EOF is that of the squeezed vacuum with the same n
    l1 = local_rotation(0.5, 1.0) @ local_squeeze(0.8, -0.8) @ local_rotation(1.0, 0.5)
    l2 = local_rotation(1.0, 0.5) @ local_squeeze(-0.8, 0.8) @ local_rotation(0.5, 1.0)
    sym = l1 @ two_mode_squeezer(1.5) @ beam_splitter(0.5) @ l2
    report = eof_from_cm(sym @ sym.T)
    assert report.method == "pure"
    assert report.eof == pytest.approx(
        g_kappa(0.5 * (report.params.n + 1.0)), abs=1e-9)


def test_eof_from_cm_local_frame_invariance_near_purity():
    # pairs of random local frames of near-pure raw CMs; every frame is
    # accepted and scored
    rng = np.random.default_rng(41)
    for _ in range(1000):
        gamma = near_pure_cm(rng)[0]
        frames = []
        for sym in (random_local_symplectic(rng), random_local_symplectic(rng)):
            moved = sym @ gamma @ sym.T
            frames.append(0.5 * (moved + moved.T))
        first, second = (eof_from_cm(g).eof for g in frames)
        assert first == pytest.approx(second, abs=1e-9)


def test_symmetric_eof_pure_identity():
    for r in (0.2, 0.8):
        n, k = math.cosh(2 * r), math.sinh(2 * r)
        assert eof(StandardFormParams(n, n, k, -k)).eof == pytest.approx(
            pure_entropy(r), rel=1e-11)


def test_symmetric_eof_separable():
    report = eof(StandardFormParams(2.15, 2.15, 1.3, -0.9))
    assert report.eof == 0.0 and report.method == "separable"


def test_symmetric_eof_domain():
    with pytest.raises(InvalidState, match="no positive matrix"):
        eof(StandardFormParams(1.5, 1.5, 1.6, -0.1))  # kx > n
    with pytest.raises(DomainError):
        eof(StandardFormParams(0.8, 0.8, 0.3, -0.2))  # n < 1
    # the closed form itself still refuses a non-positive argument
    with pytest.raises(DomainError, match="not a positive matrix"):
        eof_core._symmetric(1.5, 1.6, -0.1)


def test_symmetric_matches_general_pipeline():
    # n log-uniform on [1.0001, 50]: eof() takes the closed form, and the
    # general solve is the reference it is held to
    rng = np.random.default_rng(53)
    log_lo, log_hi = math.log(1.0001), math.log(50.0)
    checked = 0
    while checked < 100:
        n = math.exp(rng.uniform(log_lo, log_hi))
        kx = rng.uniform(0.05, 1.0) * (n - 1e-9)
        kp = -rng.uniform(0.02, 1.0) * kx
        if not (is_bona_fide_params(n, n, kx, kp, margin=1e-9)
                and is_entangled_params(n, n, kx, kp)):
            continue
        p = StandardFormParams(n, n, kx, kp)
        report = eof(p)
        assert report.method == "symmetric"
        assert report.epr == eof_core._symmetric(n, kx, kp)
        assert abs(report.eof - general_route_eof(p)) <= 1e-12
        checked += 1


def test_float_range_edge_is_a_value_or_a_domain_error():
    # a log grid of n from 1e76 to 2e77 in several shapes (m / n, kx over
    # sqrt(nm), kp / kx).  Where the partial transpose's spectrum overflowed,
    # Simon's test read a separable state as entangled, and the squeezing
    # solve raised ZeroDivisionError
    shapes = ((1.2, 0.99, -0.9), (1.01, 0.999, -0.5), (1.5, 0.9, -0.99),
              (3.0, 0.95, -0.2), (0.7, 0.99, -0.9), (1.3, 0.97, -1.0))
    for n in map(float, np.geomspace(1e76, 2e77, 41)):
        for ratio, fx, t in shapes:
            m = ratio * n
            kx = fx * math.sqrt(n * m)
            try:
                report = eof(StandardFormParams(n, m, kx, t * kx))
            except DomainError as exc:
                assert "leave the float range" in str(exc)
            else:
                assert 0.0 <= report.eof < math.inf


def test_squeezed_thermal_closed_form_values():
    report = eof(StandardFormParams(2.0, 1.5, 1.0, -1.0))
    assert report.epr.delta0 == pytest.approx((2.5 - math.sqrt(2.0)) / 1.5,
                                              abs=1e-14)
    assert report.epr.delta0_prime == pytest.approx(0.70331, abs=5e-6)
    assert report.epr.b0 == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert report.eof == pytest.approx(0.2022298409, abs=1e-7)


def test_squeezed_thermal_matches_general_pipeline():
    # n, m log-uniform on [1.0001, 50], each state in both mode orders:
    # eof() takes the closed form, and the general solve is the reference
    rng = np.random.default_rng(59)
    log_lo, log_hi = math.log(1.0001), math.log(50.0)
    checked = 0
    while checked < 100:
        n, m = (float(v) for v in np.exp(rng.uniform(log_lo, log_hi, 2)))
        kx = rng.uniform(0.05, 1.0) * (math.sqrt(n * m) - 1e-9)
        if not (is_bona_fide_params(n, m, kx, -kx, margin=1e-9)
                and is_entangled_params(n, m, kx, -kx)):
            continue
        closed = eof(StandardFormParams(max(n, m), min(n, m), kx, -kx)).eof
        for p in (StandardFormParams(n, m, kx, -kx),
                  StandardFormParams(m, n, kx, -kx)):
            report = eof(p)
            assert report.method == "squeezed_thermal"
            assert report.eof == closed
            assert abs(closed - general_route_eof(p)) <= 1e-12
            general = general_route_epr(p)
            for name in ("a0", "delta0", "delta0_prime"):
                assert abs(getattr(report.epr, name)
                           - getattr(general, name)) <= 1e-12
            # the general route's b0 = sqrt(1 - 4/(a0^2 + a0^-2)^2) cancels
            # as n -> m
            assert abs(report.epr.b0 - general.b0) <= 1e-11
        checked += 1


def test_squeezed_thermal_symmetric_degeneration():
    # eof() sends n = m to the symmetric closed form, so the kernels are
    # compared directly
    n, kx = 2.5, 1.6
    assert f_aux(eof_core._squeezed_thermal(n, n, kx).delta0_prime) == (
        pytest.approx(f_aux(eof_core._symmetric(n, kx, -kx).delta0_prime),
                      abs=1e-12))


def test_squeezed_thermal_with_a_vacuum_mode_is_separable():
    # a mode within 1e-12 of the vacuum is pure, so the state is a product;
    # in either mode order it reports separable with the indeterminate
    # critical parameter set to a0 = 1, b0 = 0
    for n, m in ((2.0, 1.0), (2.0, 1.0 - 1e-13), (2.0, 1.0 + 1e-13)):
        for p in (StandardFormParams(n, m, 1e-7, -1e-7),
                  StandardFormParams(m, n, 1e-7, -1e-7)):
            report = eof(p)
            assert report.method == "separable" and report.eof == 0.0
            assert (report.epr.a0, report.epr.b0) == (1.0, 0.0)


def test_eof_reports_the_params_it_was_given():
    # the solved squeezings sit on the EPR quantities, not on the params;
    # the symmetric and pure closed forms take n for m within 1e-12, and
    # report the m they were given
    near = 1.25 * (1.0 + 2.0 ** -52)
    for p, method in ((StandardFormParams(2.0, 2.0 + 1e-13, 1.5, -1.0), "symmetric"),
                      (StandardFormParams(2.0 + 1e-13, 2.0, 1.5, -1.0), "symmetric"),
                      (StandardFormParams(1.25, near, 0.75, -0.75), "pure"),
                      (StandardFormParams(near, 1.25, 0.75, -0.75), "pure"),
                      (StandardFormParams(2.0, 1.5, 0.3, -0.1), "separable"),
                      (StandardFormParams(2.0, 1.5, 1.0, -1.0), "squeezed_thermal"),
                      (StandardFormParams(2.3, 1.7, 1.1, -0.9), "general")):
        report = eof(p)
        assert report.method == method
        assert report.params == p
    sol = solve_squeezings(p)   # the general state's
    assert (report.epr.r1, report.epr.r2) == (sol.r1, sol.r2)


def test_vacuum_mode_is_separable_on_the_general_route():
    # kx != -kp: these states used to reach the squeezing solve, which has
    # no root (the r1 window [1, n] is empty at n = 1); a mode within 1e-12
    # of the vacuum makes the state a product in either mode order.  The
    # last two states are bona fide within TOL_PSD and meet no other test
    # of separability: the general route gives them about 1e-10 bits
    states = [q for n, m in ((2.0, 1.0), (2.0, 1.0 - 1e-13), (2.0, 1.0 + 1e-13))
              for q in (StandardFormParams(n, m, 1e-7, -5e-8),
                        StandardFormParams(m, n, 1e-7, -5e-8))]
    states += [StandardFormParams(1.000000000000906, 1.9521958512253754,
                                  3.6085483736904805e-05, -2.7738669857500022e-05),
               StandardFormParams(1.3580695291949634, 1.0000000000008107,
                                  4.835192274908465e-05, -4.7561646187785796e-05)]
    for p in states:
        report = eof(p)
        assert report.method == "separable" and report.eof == 0.0, p
        assert (report.epr.a0, report.epr.b0) == (1.0, 0.0)
        assert (report.epr.r1, report.epr.r2) == (1.0, 1.0)


def test_ppt_band_is_separable():
    # a partial transpose with nu~_- in [1 - TOL_PSD, 1) is bona fide within
    # the tolerance, so the state is separable (Simon's criterion).  These
    # states used to reach the squeezing solve, which raised NoRoot next to
    # the vacuum and gave at most ~1e-17 bits elsewhere
    states = [StandardFormParams(1.0 + eps, 10.0, 5e-5, -2.5e-5)
              for eps in (1e-10, 1e-11)]
    for n, m, t in ((2.0, 3.0, 0.5), (1.3, 7.0, 0.9), (4.0, 1.1, 0.2)):
        kx = kx_at_nu_minus(n, m, t, 1.0 - 5e-10, flip=True)
        states.append(StandardFormParams(n, m, kx, -t * kx))
    for p in states:
        for q in (p, StandardFormParams(p.m, p.n, p.kx, p.kp)):
            nu_pt = standard_form_nu(q.n, q.m, q.kx, -q.kp)[0]
            assert 1.0 - TOL_PSD <= nu_pt < 1.0, q
            report = eof(q)
            assert report.method == "separable" and report.eof == 0.0, q
            assert (report.epr.a0, report.epr.b0) == (1.0, 0.0)
            if min(q.n, q.m) > 1.01:
                assert general_route_eof(q) <= 1e-15, q


def _thermal_entropy(x):
    """Entropy in bits of a thermal mode with mean photon number x."""
    return (x + 1.0) * math.log2(x + 1.0) - (x * math.log2(x) if x > 0 else 0.0)


def test_no_root_failure_at_the_bona_fide_edge_near_the_vacuum():
    # one mode 1e-12..1e-9 above the vacuum, nu_- within TOL_PSD of 1 on
    # either side, m log-uniform on [1.001, 1e4], kp = -t kx; each state in
    # both mode orders.  No state raises NoRoot or fails the critical-
    # parameter consistency check (InvalidState).  A bona fide state's EOF
    # is at most the entropy g((n - 1)/2) of its near-vacuum mode; a state
    # that violates the uncertainty relation within TOL_PSD has no such
    # bound, and its EOF stays below 1e-7 bits
    rng = np.random.default_rng(83)
    routes = set()
    for i in range(1000):
        side = 1.0 if i % 2 else -1.0
        n = 1.0 + 10.0 ** rng.uniform(-12.0, -9.0)
        m = math.exp(rng.uniform(math.log(1.001), math.log(1e4)))
        t = rng.uniform(0.0, 1.0)
        kx = kx_at_nu_minus(n, m, t, 1.0 + side * rng.uniform(0.0, TOL_PSD))
        for p in (StandardFormParams(n, m, kx, -t * kx),
                  StandardFormParams(m, n, kx, -t * kx)):
            assert validate_standard_form(p).is_bona_fide
            try:
                report = eof(p)
            except (NoRoot, InvalidState) as exc:
                pytest.fail(f"{p}: {exc}")
            routes.add(report.method)
            if side > 0:
                assert report.eof <= _thermal_entropy((n - 1.0) / 2.0), p
            assert report.eof <= 1e-7, p
    assert routes == {"separable", "general"}
    # a0^2 ~ 3e8 here, so the floor b0 rounds to 1 and critical_params
    # falls back to a0 = 1, b0 = 0 (Degenerate)
    p = StandardFormParams(1.0000000000018257, 589.6240022419017,
                           0.0007777029954098265, -0.0007606212219651498)
    for q in (p, StandardFormParams(p.m, p.n, p.kx, p.kp)):
        assert eof(q).eof <= 1e-7


def test_squeezed_thermal_domain():
    # either mode order is admitted; these two states are separable
    for p in (StandardFormParams(1.5, 2.0, 0.5, -0.5),       # n < m
              StandardFormParams(1.0, 1.0, 1e-13, -1e-13)):  # the vacuum
        report = eof(p)
        assert report.method == "separable" and report.eof == 0.0
    with pytest.raises(DomainError):
        eof(StandardFormParams(2.0, 1.5, -0.5, 0.5))  # not canonical
    with pytest.raises(InvalidState):
        eof(StandardFormParams(2.0, 1.5, 1.7, -1.7))  # beyond bona fide


def test_squeezed_thermal_refuses_a_negative_radicand():
    # (2, 2, 3) has kx^2 > n m: n (m - 1) - kx sqrt((n - 1)(m - 1)) = -1
    with pytest.raises(DomainError, match="negative radicand"):
        eof_core._squeezed_thermal(2.0, 2.0, 3.0)


def test_squeezed_thermal_admits_a_radicand_rounded_below_zero():
    # nu_- = 1 - 1.4e-11: the state is bona fide within TOL_PSD, and the
    # radicand n (m - 1) - kx sqrt((n - 1)(m - 1)) rounds below 0 within
    # TOL_RADICAND_ST of its scale, so the closed form clamps it to 0
    p = StandardFormParams(367043.58007021144, 1.4086356738698669,
                           387.2822088896725, -387.2822088896725)
    assert 1.0 - TOL_PSD < standard_form_nu(p.n, p.m, p.kx, p.kp)[0] < 1.0
    report = eof(p)
    assert report.method == "squeezed_thermal"
    assert report.eof == 2.3623993448970576e-05
    bounds = bounds_report(p)   # raises SandwichViolation if the sandwich fails
    assert bounds.eof == report.eof


def test_g_kappa():
    assert g_kappa(1.0) == 0.0
    assert g_kappa(2.0) == pytest.approx(2.0, abs=1e-14)
    for bad in (0.5, 1.0 - 1e-16, math.inf, math.nan):
        with pytest.raises(DomainError):
            g_kappa(bad)
    # g(cosh^2 r) is the entanglement f(e^{-2r}) of the two-mode squeezed vacuum
    for r in (0.1, 0.5, 0.8813735870195429, 1.0, 3.0, 10.0):
        assert g_kappa(math.cosh(r) ** 2) == pytest.approx(f_aux(math.exp(-2.0 * r)),
                                                           rel=1e-13)
    # g(kappa) = log2(kappa - 1) + 1/ln 2 + O(1/kappa) for large gain
    assert g_kappa(1e100) == pytest.approx(
        math.log2(1e100) + 1.0 / math.log(2.0), rel=1e-15)


def _entropy_reference(s):
    """g(1 + s) in bits for a Decimal s, at 300 digits (1e100 needs them)."""
    with localcontext() as ctx:
        ctx.prec = 300
        return float(((1 + s) * (1 + s).ln() - s * s.ln()) / Decimal(2).ln())


def _f_reference(delta):
    """f(delta) at 300 digits, for the float delta taken exactly."""
    with localcontext() as ctx:
        ctx.prec = 300
        d = Decimal(delta)
        return _entropy_reference((1 - d) ** 2 / (4 * d))


def test_entropy_kernel_matches_a_300_digit_evaluation(capsys):
    # f and g evaluate one kernel; above s = 1 (Delta below 0.17, kappa
    # above 2) (1 + s) log2(1 + s) and s log2 s cancel, so it may not
    # subtract them there
    for d in (0.9999999, 0.5, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-100):
        assert f_aux(d) == pytest.approx(_f_reference(d), rel=1e-15, abs=0.0), d
    # either side of kappa = 2, where the evaluation changes form
    for k in (1.5, 2.0 - 2.0 ** -52, 2.0, 2.0 + 2.0 ** -51, 10.0, 1e4, 1e8,
              1e12, 1e100):
        ref = _entropy_reference(Decimal(k) - 1)
        assert g_kappa(k) == pytest.approx(ref, rel=1e-15, abs=0.0), k
    # a symmetric state 20 bits in: the printed EOF is f at the printed Delta0'
    code = cli_main(["eof", "--params", "1e6", "1e6", "999999.9999995",
                     "-999999.9999995", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["method"] == "pure"
    assert payload["eof"] == pytest.approx(_f_reference(payload["delta0_prime"]),
                                           rel=1e-15, abs=0.0)


def test_giovannetti_product_member():
    params, report, g = giovannetti_family(1.0, 3.0)
    assert params.kx == pytest.approx(0.0, abs=1e-12)
    assert report.eof == 0.0 and g == 0.0


def test_giovannetti_pure_member_reaches_the_gain_entropy():
    params, report, g = giovannetti_family(2.0, 0.0)
    assert (params.n, params.m) == (3.0, 3.0)
    assert report.eof == pytest.approx(2.0, abs=1e-9)
    assert g == pytest.approx(2.0, abs=1e-14)


def test_giovannetti_mixed_member_two_routes():
    params, report, _ = giovannetti_family(2.0, 1.0)
    assert report.eof == pytest.approx(general_route_eof(params), abs=1e-10)
    assert report.eof == pytest.approx(1.703, abs=1e-3)
    assert report.eof == pytest.approx(1.702893188821817, abs=1e-12)


def test_giovannetti_refuses_a_loss_or_a_negative_noise():
    for kappa, nbar in ((0.5, 1.0), (2.0, -0.5)):
        with pytest.raises(DomainError, match="kappa >= 1 and nbar >= 0"):
            giovannetti_family(kappa, nbar)


def test_giovannetti_overflow_is_a_domain_error():
    # kx = 2(nbar + 1) sqrt(kappa(kappa - 1)) overflows at kappa = 1e200,
    # and n m at nbar = 1e300
    for kappa, nbar in ((1e200, 0.0), (1e200, 50.0), (2.0, 1e300)):
        with pytest.raises(DomainError, match="parameters overflow at kappa"):
            giovannetti_family(kappa, nbar)


def _family_member(kappa, nbar):
    """The family's parameters as documented, and the nu_- they hold,
    (sqrt((n + m)^2 - 4 kx^2) - (n - m)) / 2 for (n, m, kx, -kx), at 60
    digits."""
    n = 2.0 * (nbar + 1.0) * kappa - 1.0
    m = 2.0 * (nbar + 1.0) * kappa - (2.0 * nbar + 1.0)
    kx = 2.0 * (nbar + 1.0) * math.sqrt(kappa * (kappa - 1.0))
    with localcontext() as ctx:
        ctx.prec = 60
        dn, dm, dk = Decimal(n), Decimal(m), Decimal(kx)
        nu = ((dn + dm) ** 2 - 4 * dk * dk).sqrt() - (dn - dm)
    return StandardFormParams(n, m, kx, -kx), float(nu) / 2.0


def test_giovannetti_members_off_the_vacuum_boundary_are_a_domain_error():
    # every member lies on nu_- = 1; at large kappa the rounded parameters
    # do not.  Below 1 - TOL_PSD eof() refused them as breaking the
    # uncertainty relation (kappa = 86.5, nbar = 190), above 1 + TOL_PSD it
    # printed a value for a state that is not the member (kappa = 1e7 holds
    # nu_- = 1.02, and its EOF is 0.06 below g(kappa)); at kappa = 1.6e15
    # nu_+^2 rounds to 0, where validation divided by 0
    for kappa, nbar in ((86.5, 190.0), (300.0, 20.0), (300.0, 50.0),
                        (1e7, 0.0), (1603497754608746.0, 50.0)):
        with pytest.raises(DomainError, match=r"kappa = .*, nbar = .*nu_- = "):
            giovannetti_family(kappa, nbar)
    # standard_form_nu reads 3.5e-9 above 1 here, where the parameters
    # hold 8.9e-11: the decision takes nm - kx^2 exactly
    params, _, _ = giovannetti_family(300.0, 2.0)
    assert abs(_family_member(300.0, 2.0)[1] - 1.0) < 1e-10
    assert standard_form_nu(params.n, params.m, params.kx, params.kp)[0] > 1.0 + 3e-9


def test_giovannetti_family_unchanged_where_its_parameters_hold_the_member():
    # kappa <= 100 with nbar <= 200: DomainError falls exactly where the
    # rounded parameters hold nu_- more than TOL_PSD from 1, and only on
    # members that eof() refused before; elsewhere eof() decides, as before
    refused = 0
    for kappa in range(1, 101):
        for nbar in range(201):
            params, nu_minus = _family_member(float(kappa), float(nbar))
            off = abs(nu_minus - 1.0) > TOL_PSD
            try:
                eof(params)
                accepted = True
            except InvalidState:
                accepted = False
            try:
                giovannetti_family(float(kappa), float(nbar))
                outcome = "returned"
            except DomainError:
                outcome = "refused"
                refused += 1
            except InvalidState:
                outcome = "invalid"
            expect = ("refused" if off else
                      "returned" if accepted else "invalid")
            assert outcome == expect, (kappa, nbar, nu_minus)
            # so no member printed before is refused now
            assert not (off and accepted), (kappa, nbar, nu_minus)
    assert refused == 12


def test_giovannetti_below_gain_entropy():
    for nbar in (0.5, 2.0, 10.0, 50.0):
        _, report, g = giovannetti_family(2.0, nbar)
        assert report.eof < g


def test_eof_monotone_in_correlation():
    n, m, kp = 2.2, 1.6, -0.8
    vals = []
    for kx in np.linspace(0.8, 1.35, 25):
        vals.append(eof(StandardFormParams(n, m, float(kx), kp)).eof)
    assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))


def test_pure_pipeline_matches_fock_oracle():
    r = 0.8
    c, s = math.cosh(2 * r), math.sinh(2 * r)
    pipeline = eof(StandardFormParams(c, c, s, -s)).eof
    oracle = entropy_of_spectrum(schmidt_coeffs_squeezed(r, 400))
    assert pipeline == pytest.approx(oracle, abs=1e-10)


def test_eof_calls_each_stage_once_through_its_binding(monkeypatch):
    # the stages a traced benchmark run times under eof(): each is called
    # once, through the eof_core binding, on a general-route state
    p = StandardFormParams(2.0, 1.5, 1.2, -1.0)
    calls = {}
    for name in ("solve_squeezings", "critical_params", "delta0", "f_aux"):
        def counted(*args, _name=name, _stage=getattr(eof_core, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _stage(*args)
        monkeypatch.setattr(eof_core, name, counted)
    assert eof(p).method == "general"
    assert calls == {"solve_squeezings": 1, "critical_params": 1,
                     "delta0": 1, "f_aux": 1}


def test_report_serialization():
    d = eof(StandardFormParams(2.0, 1.5, 1.0, -1.0)).to_dict()
    assert set(d) == {"params", "a0", "b0", "delta0", "delta0_prime", "eof",
                      "method", "separable"}
    assert d["params"]["r1"] == 1.0
