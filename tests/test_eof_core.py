import math

import numpy as np
import pytest

from gaussian_eof import (Degenerate, DomainError, InvalidState, NoRoot,
                          StandardFormParams, bounds_report, eof,
                          gaussian_eof as g_eof, eof_from_cm, f_aux, g_kappa,
                          giovannetti_family, squeezed_thermal_eof,
                          squeezed_vacuum_cm, standard_form_nu, symmetric_eof,
                          validate_standard_form)
from gaussian_eof import eof_core
from gaussian_eof.standard_form import TOL_PSD

from conftest import (beam_splitter, fresh_python, general_route_eof,
                      general_route_epr, is_bona_fide_params,
                      is_entangled_params, local_rotation, local_squeeze,
                      near_pure_cm, random_local_symplectic,
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
try:
    print("returned", func(StandardFormParams(*map(float, entries))))
except DomainError as exc:
    print(exc)
"""


@pytest.mark.parametrize("func", [
    "standard_form_solver.solve_squeezings",
    "bounds.minimize_reduced_determinant", "bounds.rigolin_lower",
    "bounds.oliveira_upper"])
@pytest.mark.parametrize("entry, value", NON_FINITE)
def test_non_finite_parameters_raise(func, entry, value):
    # a fresh interpreter per call, with a timeout: a solve that loops on a
    # NaN bracket fails the test instead of hanging the suite
    entries = ["2", "1.5", "1.2", "-1"]
    entries[entry] = value
    out = fresh_python(_CALL, *func.split("."), *entries, timeout=20)
    assert out == "parameters must be finite\n"


@pytest.mark.parametrize("entry, value", NON_FINITE)
def test_non_finite_parameters_raise_in_the_pipeline(entry, value):
    entries = [2.0, 1.5, 1.2, -1.0]
    entries[entry] = float(value)
    p = StandardFormParams(*entries)
    for func in (eof, g_eof, bounds_report):
        with pytest.raises(DomainError, match="parameters must be finite"):
            func(p)


def test_eof_rejects_non_bona_fide():
    with pytest.raises(InvalidState):
        eof(StandardFormParams(1.5, 1.5, 1.2, -1.0))


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
        assert symmetric_eof(n, k, -k).eof == pytest.approx(
            pure_entropy(r), rel=1e-11)


def test_symmetric_eof_separable():
    report = symmetric_eof(2.15, 1.3, -0.9)
    assert report.eof == 0.0 and report.method == "separable"


def test_symmetric_eof_domain():
    with pytest.raises(DomainError):
        symmetric_eof(1.5, 1.6, -0.1)  # (n - kx) < 0 branch
    with pytest.raises(DomainError):
        symmetric_eof(0.8, 0.3, -0.2)


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
        assert report.eof == symmetric_eof(n, kx, kp).eof
        assert abs(report.eof - general_route_eof(p)) <= 1e-12
        checked += 1


def test_squeezed_thermal_closed_form_values():
    report = squeezed_thermal_eof(2.0, 1.5, 1.0)
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
        closed = squeezed_thermal_eof(max(n, m), min(n, m), kx).eof
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
    n, kx = 2.5, 1.6
    assert squeezed_thermal_eof(n, n, kx).eof == pytest.approx(
        symmetric_eof(n, kx, -kx).eof, abs=1e-12)


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
        report = squeezed_thermal_eof(n, m, 1e-7)
        assert report.method == "separable" and report.eof == 0.0


def test_vacuum_mode_is_separable_on_the_general_route():
    # kx != -kp: these states used to reach the squeezing solve, which has
    # no root (the r1 window [1, n] is empty at n = 1); a mode within 1e-12
    # of the vacuum makes the state a product in either mode order
    for n, m in ((2.0, 1.0), (2.0, 1.0 - 1e-13), (2.0, 1.0 + 1e-13)):
        for p in (StandardFormParams(n, m, 1e-7, -5e-8),
                  StandardFormParams(m, n, 1e-7, -5e-8)):
            report = eof(p)
            assert report.method == "separable" and report.eof == 0.0
            assert (report.epr.a0, report.epr.b0) == (1.0, 0.0)
            assert (report.params.r1, report.params.r2) == (1.0, 1.0)


def _kx_at_nu_minus(n, m, t, target, flip=False):
    """The largest kx with nu_-(n, m, kx, -t kx) >= target, by bisection to
    adjacent floats; with flip, nu_- of the partial transpose (kp -> t kx)."""
    sign = 1.0 if flip else -1.0
    lo, hi = 0.0, math.sqrt(n * m)
    while True:
        kx = 0.5 * (lo + hi)
        if kx in (lo, hi):
            return lo
        if n * m > kx * kx and standard_form_nu(n, m, kx, sign * t * kx)[0] >= target:
            lo = kx
        else:
            hi = kx


def test_ppt_band_is_separable():
    # a partial transpose with nu~_- in [1 - TOL_PSD, 1) is bona fide within
    # the tolerance, so the state is separable (Simon's criterion).  These
    # states used to reach the squeezing solve, which raised NoRoot next to
    # the vacuum and gave at most ~1e-17 bits elsewhere
    states = [StandardFormParams(1.0 + eps, 10.0, 5e-5, -2.5e-5)
              for eps in (1e-10, 1e-11)]
    for n, m, t in ((2.0, 3.0, 0.5), (1.3, 7.0, 0.9), (4.0, 1.1, 0.2)):
        kx = _kx_at_nu_minus(n, m, t, 1.0 - 5e-10, flip=True)
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
        kx = _kx_at_nu_minus(n, m, t, 1.0 + side * rng.uniform(0.0, TOL_PSD))
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
    with pytest.raises(DomainError):
        squeezed_thermal_eof(1.5, 2.0, 0.5)  # n < m
    with pytest.raises(DomainError):
        squeezed_thermal_eof(2.0, 1.5, -0.5)
    with pytest.raises(Degenerate):
        squeezed_thermal_eof(1.0, 1.0, 1e-13)
    with pytest.raises(InvalidState):
        squeezed_thermal_eof(2.0, 1.5, 1.7)  # beyond bona fide


def test_g_kappa():
    assert g_kappa(1.0) == 0.0
    assert g_kappa(2.0) == pytest.approx(2.0, abs=1e-14)
    with pytest.raises(DomainError):
        g_kappa(0.5)


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


def test_giovannetti_overflow_is_a_domain_error():
    # kx = 2(nbar + 1) sqrt(kappa(kappa - 1)) overflows at kappa = 1e200,
    # and n m at nbar = 1e300
    for kappa, nbar in ((1e200, 0.0), (1e200, 50.0), (2.0, 1e300)):
        with pytest.raises(DomainError, match="parameters overflow at kappa"):
            giovannetti_family(kappa, nbar)


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
