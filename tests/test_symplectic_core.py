import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaussian_eof import (DomainError, InvalidState, NonFiniteEntry,
                          StandardFormParams, reduce_to_standard_params,
                          squeezed_vacuum_cm, standard_form_cm,
                          standard_form_nu, validate_cm,
                          validate_standard_form)
from gaussian_eof.standard_form import TOL_SYM, _raw_cm, params_from_json_dict

from conftest import (OMEGA, eigen_solve_report, local_rotation, local_squeeze,
                      near_pure_cm, random_bona_fide_params,
                      random_local_symplectic, symplectic_eigenvalues)


def test_symplectic_form_identities():
    assert np.array_equal(OMEGA.T, -OMEGA)
    assert np.allclose(OMEGA @ OMEGA, -np.eye(4), atol=0)


def test_vacuum_is_bona_fide_and_pure():
    report = validate_cm(np.eye(4))
    assert report.is_bona_fide and report.is_pure
    assert report.symplectic_eigenvalues == pytest.approx((1.0, 1.0), abs=1e-14)


def test_half_identity_violates_uncertainty():
    report = validate_cm(0.5 * np.eye(4))
    assert report.is_positive
    assert not report.is_bona_fide
    assert report.symplectic_eigenvalues[0] == pytest.approx(0.5, abs=1e-12)


def test_squeezed_vacuum_is_pure():
    report = validate_cm(squeezed_vacuum_cm(0.5))
    assert report.is_bona_fide and report.is_pure
    assert report.symplectic_eigenvalues == pytest.approx((1.0, 1.0), abs=1e-12)


def test_squeezed_vacuum_complex_eigenvalue_crosscheck():
    # independent route: moduli of the eigenvalues of i Omega gamma
    gamma = squeezed_vacuum_cm(0.7)
    ev = np.linalg.eigvals(1j * OMEGA @ gamma)
    nus = np.sort(np.abs(ev))
    assert nus == pytest.approx(np.ones(4), abs=1e-12)
    assert symplectic_eigenvalues(gamma) == pytest.approx((1.0, 1.0), abs=1e-12)


@pytest.mark.parametrize("r", [0.0, 0.3, 1.0, 2.0])
def test_squeezed_vacuum_determinant_one(r):
    assert np.linalg.det(squeezed_vacuum_cm(r)) == pytest.approx(1.0, abs=1e-10)


def test_squeezed_vacuum_entries():
    gamma = squeezed_vacuum_cm(0.5)
    assert gamma[0, 0] == pytest.approx(math.cosh(1.0))
    assert gamma[0, 2] == pytest.approx(math.sinh(1.0))
    assert gamma[1, 3] == pytest.approx(-math.sinh(1.0))
    assert np.array_equal(squeezed_vacuum_cm(0.0), np.eye(4))


def test_squeezed_vacuum_rejects_bad_input():
    with pytest.raises(DomainError):
        squeezed_vacuum_cm(-0.1)
    with pytest.raises(DomainError):
        squeezed_vacuum_cm(float("nan"))


def test_purity_across_squeezing_range():
    for r in np.arange(0.0, 2.01, 0.1):
        assert validate_cm(squeezed_vacuum_cm(float(r))).is_pure


def test_nonfinite_entries_raise():
    gamma = np.eye(4)
    gamma[2, 2] = np.inf
    with pytest.raises(NonFiniteEntry):
        validate_cm(gamma)


def test_asymmetric_matrix_flagged():
    gamma = np.eye(4)
    gamma[0, 1] = 1e-6
    report = validate_cm(gamma)
    assert not report.is_symmetric_matrix
    assert not report.is_bona_fide


def test_wrong_shape_raises():
    with pytest.raises(DomainError):
        validate_cm(np.eye(3))


def test_reduction_roundtrip_exact():
    params = StandardFormParams(2.0, 1.5, 1.0, -1.0)
    out = reduce_to_standard_params(standard_form_cm(params, 1.0, 1.0))
    assert (out.n, out.m, out.kx, out.kp) == pytest.approx(
        (2.0, 1.5, 1.0, -1.0), abs=1e-12)


def test_reduction_after_local_rotation():
    gamma = squeezed_vacuum_cm(0.5)
    rot = local_rotation(0.7, 0.0)
    out = reduce_to_standard_params(rot @ gamma @ rot.T)
    expect = (math.cosh(1.0), math.cosh(1.0), math.sinh(1.0), -math.sinh(1.0))
    assert (out.n, out.m, out.kx, out.kp) == pytest.approx(expect, abs=1e-10)


def test_reduction_identity_is_product():
    out = reduce_to_standard_params(np.eye(4))
    assert out.is_product
    assert (out.n, out.m, out.kx, out.kp) == pytest.approx((1, 1, 0, 0), abs=1e-12)


def test_reduction_rejects_non_bona_fide():
    # each refusal names the test that failed
    asymmetric = np.eye(4)
    asymmetric[0, 1] = 1e-6
    with pytest.raises(InvalidState, match="not symmetric"):
        reduce_to_standard_params(asymmetric)
    with pytest.raises(InvalidState, match="not positive"):
        reduce_to_standard_params(np.diag([1.0, -1.0, 1.0, 1.0]))
    # A and B positive, the whole matrix not: |kx| > sqrt(nm)
    with pytest.raises(InvalidState, match="not positive"):
        reduce_to_standard_params(
            standard_form_cm(StandardFormParams(2.0, 2.0, 2.5, 0.0), 1.0, 1.0))
    with pytest.raises(InvalidState, match="symplectic eigenvalues"):
        reduce_to_standard_params(0.5 * np.eye(4))
    with pytest.raises(DomainError):
        reduce_to_standard_params(np.eye(3))
    with pytest.raises(NonFiniteEntry):
        reduce_to_standard_params(np.diag([1.0, np.nan, 1.0, 1.0]))


def test_reduction_preserves_symplectic_spectrum():
    # n, m log-uniform on [1, 1e5]: a locally transformed standard form
    # reduces to the parameters that generated it.  The float product
    # S gamma S^T is asymmetric by rounding errors of the size of its
    # largest entries, beyond 1e-12 here, and is accepted as it is.  The
    # eigen-solve's error on nu_- grows as eps nu_+^2, so it is held to the
    # reduced spectrum relative to nu_+; validate_cm's closed form keeps
    # each eigenvalue to 1e-12 of the generating spectrum
    rng = np.random.default_rng(31)
    log_hi = math.log(1e5)
    done = 0
    while done < 1000:
        n, m = (float(v) for v in np.exp(rng.uniform(0.0, log_hi, 2)))
        kx = float(rng.uniform(0.02, 1.0)) * math.sqrt(n * m)
        kp = -float(rng.uniform(0.02, 1.0)) * kx
        params = StandardFormParams(n, m, kx, kp)
        if not validate_standard_form(params).is_bona_fide:
            continue
        s = random_local_symplectic(rng)
        transported = s @ standard_form_cm(params, 1.0, 1.0) @ s.T
        reduced = reduce_to_standard_params(transported)
        assert (reduced.n, reduced.m, reduced.kx, reduced.kp) == pytest.approx(
            (n, m, kx, kp), rel=1e-12, abs=0.0), params
        eig = symplectic_eigenvalues(0.5 * (transported + transported.T))
        assert standard_form_nu(reduced.n, reduced.m, reduced.kx, reduced.kp) == (
            pytest.approx(eig, rel=0.0, abs=1e-9 * eig[1])), params
        assert validate_cm(transported).symplectic_eigenvalues == pytest.approx(
            standard_form_nu(n, m, kx, kp), rel=1e-12, abs=0.0), params
        done += 1


def test_reduction_of_near_pure_states():
    # the reduced parameters keep the symplectic spectrum (nu1, nu2) that
    # generated the raw CM.  On det C > 0 the canonical kp <= 0 is the
    # partial transpose, so the spectrum is that of kp -> -kp
    rng = np.random.default_rng(37)
    for _ in range(1000):
        gamma, (nu1, nu2) = near_pure_cm(rng)
        red = reduce_to_standard_params(gamma)
        kp = math.copysign(red.kp, np.linalg.det(gamma[:2, 2:]))
        nu_minus, nu_plus = standard_form_nu(red.n, red.m, red.kx, kp)
        assert abs(nu_minus - nu1) <= 1e-9, (nu1, nu2)
        assert abs(nu_plus - nu2) <= 1e-9 * nu2, (nu1, nu2)


def test_reduction_accepts_near_pure_states():
    # the 4x4 eigen-solve rounds nu_- below 1 - TOL_PSD on a sliver of these
    # bona fide matrices (one of this set); validate_cm and the reduction
    # validate on the closed-form spectrum and accept them all
    rng = np.random.default_rng(46)
    for _ in range(4000):
        gamma = near_pure_cm(rng)[0]
        assert validate_cm(gamma).is_bona_fide, gamma.tolist()
        reduce_to_standard_params(gamma)


def _raw_matrices(rng, size):
    """Seeded raw 4x4 matrices, half of them symmetric only up to rounding.

    Standard forms with n, m log-uniform on [0.2, 50], kx up to 1.05 sqrt(nm)
    and kp of either sign, put in a random local frame: not positive, not
    bona fide, classically correlated (det C > 0) or entangled; one in ten
    of them is made asymmetric by 1e-9 of its largest entry.  The other half
    are random symmetric matrices X X^T + c I, c in [-1, 2].
    """
    out = []
    for i in range(size // 2):
        n, m = (float(v) for v in np.exp(rng.uniform(math.log(0.2), math.log(50.0), 2)))
        kx = float(rng.uniform(0.0, 1.05)) * math.sqrt(n * m)
        kp = float(rng.uniform(-1.05, 1.05)) * kx
        s = random_local_symplectic(rng)
        gamma = s @ standard_form_cm(StandardFormParams(n, m, kx, kp), 1.0, 1.0) @ s.T
        if i % 10 == 0:
            gamma[0, 3] += 1e-9 * np.abs(gamma).max()
        out.append(gamma)
    for _ in range(size - size // 2):
        x = rng.normal(size=(4, 4)) * rng.uniform(0.2, 3.0)
        out.append(x @ x.T + rng.uniform(-1.0, 2.0) * np.eye(4))
    return out


def test_reduction_validation_matches_eigen_solve():
    # validate_cm raises the same flags as the eigen-solve, the reduction
    # accepts exactly the matrices the eigen-solve calls bona fide, and a
    # refusal names the test the eigen-solve fails first
    def flags(report):
        return (report.is_symmetric_matrix, report.is_positive,
                report.is_bona_fide, report.is_pure)

    seen = set()
    for gamma in _raw_matrices(np.random.default_rng(79), 20000):
        oracle = eigen_solve_report(gamma)
        assert flags(validate_cm(gamma)) == flags(oracle), gamma.tolist()
        try:
            reduce_to_standard_params(gamma)
            refusal = None
        except InvalidState as exc:
            refusal = str(exc)
        assert (refusal is None) == oracle.is_bona_fide, (gamma.tolist(), refusal)
        if refusal is None:
            outcome = "bona fide"
        elif not oracle.is_symmetric_matrix:
            outcome = "not symmetric"
        elif not oracle.is_positive:
            outcome = "not positive"
        else:
            outcome = "symplectic eigenvalues"
        assert refusal is None or outcome in refusal, (gamma.tolist(), refusal)
        seen.add(outcome)
    assert seen == {"bona fide", "not symmetric", "not positive",
                    "symplectic eigenvalues"}


def _numpy_raw_cm(gamma):
    """The raw-entry stage written in numpy, the reference for the scalar
    _raw_cm: the symmetric part and the symmetry flag."""
    g = np.asarray(gamma, dtype=float)
    size = float(np.abs(g).max())
    sym = bool(np.abs(g - g.T).max() <= TOL_SYM * max(1.0, size))
    return 0.5 * (g + g.T), sym


def test_scalar_raw_cm_matches_numpy():
    # on the populations of test_reduction_validation_matches_eigen_solve
    # and test_reduction_of_near_pure_states, the scalar reading of the
    # entries gives the numpy symmetric part bit for bit and the same
    # symmetry flag, so the reduction, which is scalar past this stage,
    # returns bit-identical parameters
    rng = np.random.default_rng(37)
    matrices = (_raw_matrices(np.random.default_rng(79), 20000)
                + [near_pure_cm(rng)[0] for _ in range(1000)])
    triu = np.triu_indices(4)
    asymmetric = 0
    for gamma in matrices:
        upper, sym = _raw_cm(gamma)
        gs, np_sym = _numpy_raw_cm(gamma)
        assert upper == tuple(gs[triu].tolist()), gamma.tolist()
        assert sym == np_sym, gamma.tolist()
        asymmetric += not sym
        if sym:
            try:
                expect = reduce_to_standard_params(gs)
            except InvalidState:
                continue
            assert reduce_to_standard_params(gamma) == expect
    assert asymmetric > 0


def test_reduction_accepts_lists_and_arrays():
    rng = np.random.default_rng(41)
    s = random_local_symplectic(rng)
    params = StandardFormParams(2.0, 1.5, 1.0, -0.7)
    gamma = s @ standard_form_cm(params, 1.0, 1.0) @ s.T
    gamma = 0.5 * (gamma + gamma.T)
    expect = reduce_to_standard_params(gamma)
    rows = gamma.tolist()
    for form in (rows, tuple(tuple(r) for r in rows), list(gamma)):
        assert reduce_to_standard_params(form) == expect
        assert validate_cm(form) == validate_cm(gamma)
    # integer entries are read as floats
    assert reduce_to_standard_params([[2, 0, 1, 0], [0, 2, 0, -1],
                                      [1, 0, 2, 0], [0, -1, 0, 2]]) == (
        reduce_to_standard_params(2.0 * np.eye(4) + np.array(
            [[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]], float)))


@pytest.mark.parametrize("gamma", [
    np.eye(3), np.eye(4)[:, :3], np.ones((4, 5)), np.zeros((4, 4, 1)),
    np.zeros((2, 4, 4)), np.float64(1.0), [[1.0] * 4] * 3,
    [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0, 0.0],
     [0.0, 0.0, 0.0, 1.0]],
    [[1.0, 0.0, 0.0, [0.0]]] * 4, [["x"] * 4] * 4,
], ids=["3x3", "4x3", "4x5", "4x4x1", "2x4x4", "scalar", "3 rows",
        "ragged", "nested entry", "strings"])
def test_reduction_rejects_wrong_shapes(gamma):
    with pytest.raises(DomainError):
        reduce_to_standard_params(gamma)
    with pytest.raises(DomainError):
        validate_cm(gamma)


def test_entries_too_small_to_reduce_raise():
    # the normalisation underflows at entries of about 1e-77 and below
    gamma = 1e-100 * np.eye(4)
    with pytest.raises(DomainError, match="too small"):
        reduce_to_standard_params(gamma)
    with pytest.raises(DomainError, match="too small"):
        validate_cm(gamma)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entry_at_any_position(bad):
    # checked entry by entry: max() over a NaN depends on where it sits
    for i in range(4):
        for j in range(4):
            gamma = np.eye(4)
            gamma[i, j] = bad
            for form in (gamma, gamma.tolist()):
                with pytest.raises(NonFiniteEntry):
                    reduce_to_standard_params(form)
                with pytest.raises(NonFiniteEntry):
                    validate_cm(form)


def test_spectrum_invariant_under_local_symplectics():
    rng = np.random.default_rng(7)
    for _ in range(20):
        params = random_bona_fide_params(rng)
        gamma = standard_form_cm(params, 1.0, 1.0)
        s = random_local_symplectic(rng)
        nu_a = symplectic_eigenvalues(gamma)
        nu_b = symplectic_eigenvalues(s @ gamma @ s.T)
        assert nu_a == pytest.approx(nu_b, abs=1e-9)


def test_local_generators_are_symplectic():
    rng = np.random.default_rng(3)
    for s in (local_rotation(0.3, -1.2), local_squeeze(0.4, -0.2),
              random_local_symplectic(rng)):
        assert np.allclose(s @ OMEGA @ s.T, OMEGA, atol=1e-12)


def test_classically_correlated_input_canonicalized():
    # same-sign correlations reduce to kp <= 0 (partial transpose flip)
    params = StandardFormParams(3.0, 3.0, 1.0, 0.5)
    gamma = standard_form_cm(params, 1.0, 1.0)
    assert validate_cm(gamma).is_bona_fide
    out = reduce_to_standard_params(gamma)
    assert out.kx == pytest.approx(1.0, abs=1e-10)
    assert out.kp == pytest.approx(-0.5, abs=1e-10)


def test_params_json_roundtrip():
    params = params_from_json_dict({"params": {"n": 2, "m": 1.5, "kx": 1, "kp": -1}})
    assert params == StandardFormParams(2.0, 1.5, 1.0, -1.0)
    gamma = standard_form_cm(params, 1.0, 1.0)
    again = params_from_json_dict({"gamma": gamma.tolist()})
    assert (again.n, again.m, again.kx, again.kp) == pytest.approx(
        (2.0, 1.5, 1.0, -1.0), abs=1e-12)
    with pytest.raises(DomainError):
        params_from_json_dict({"nope": 1})
    with pytest.raises(DomainError):
        params_from_json_dict({"params": {"n": 2}})


def test_standard_form_cm_uses_solved_factors():
    params = StandardFormParams(2.0, 2.0, 1.0, -0.5, r1=1.2, r2=1.2)
    gamma = standard_form_cm(params)
    assert gamma[0, 0] == pytest.approx(2.4)
    assert gamma[1, 1] == pytest.approx(2.0 / 1.2)
    assert gamma[0, 2] == pytest.approx(1.2 * 1.0)
    with pytest.raises(DomainError):
        standard_form_cm(params, r1=-1.0, r2=1.0)


def _nu_50_digits(n, m, kx, kp):
    """(nu_-, nu_+) of the same invariants, evaluated with 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        n, m, kx, kp = (Decimal(v) for v in (n, m, kx, kp))
        delta = n * n + m * m + 2 * kx * kp
        det = (n * m - kx * kx) * (n * m - kp * kp)
        nu_plus_sq = (delta + (delta * delta - 4 * det).sqrt()) / 2
        return (det / nu_plus_sq).sqrt(), nu_plus_sq.sqrt()


def _kp_at_nu_minus(n, m, kx, nu_minus):
    """A kp in [-kx, 0) that puts nu_- at the given value, or None.

    A symplectic eigenvalue nu^2 = x is a root of x^2 - Delta x + det = 0,
    a quadratic in kp at fixed n, m, kx, solved with 50 digits; a root kp
    qualifies when x is the smaller eigenvalue.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        n, m, kx = Decimal(n), Decimal(m), Decimal(kx)
        x = Decimal(nu_minus) ** 2
        a = kx * kx - n * m
        b = -2 * x * kx
        c = (n * m - kx * kx) * n * m + x * x - x * (n * n + m * m)
        disc = b * b - 4 * a * c
        if disc < 0:
            return None
        roots = ((-b + disc.sqrt()) / (2 * a), (-b - disc.sqrt()) / (2 * a))
    for kp in (float(r) for r in roots if -kx <= r < 0):
        if (n * m > kp * kp and abs(_nu_50_digits(n, m, kx, kp)[0] - 1)
                <= Decimal("2e-8")):
            return kp
    return None


def test_standard_form_nu_matches_50_digit_invariants():
    # n, m log-uniform on [1, 1e5].  kx^2 <= 0.998 nm: the float products
    # nm - kx^2 lose log10(nm / (nm - kx^2)) digits, which no formula in
    # the float parameters avoids
    rng = np.random.default_rng(71)
    log_hi = math.log(1e5)
    general = boundary = 0
    while general + boundary < 2000:
        n, m = (float(v) for v in np.exp(rng.uniform(0.0, log_hi, 2)))
        kx = float(rng.uniform(0.0, 0.999)) * math.sqrt(n * m)
        if general < 1000:
            kp = -float(rng.uniform(0.0, 1.0)) * kx
            general += 1
        else:
            # near the bona fide boundary: nu_- within 1e-8 of 1, and
            # within 2e-8 once kp is rounded to a float
            kp = _kp_at_nu_minus(n, m, kx, 1.0 + float(rng.uniform(-1e-8, 1e-8)))
            if kp is None:
                continue
            boundary += 1
        got = standard_form_nu(n, m, kx, kp)
        for value, ref in zip(got, _nu_50_digits(n, m, kx, kp)):
            assert abs(Decimal(value) - ref) <= Decimal("1e-12") * ref, (n, m, kx, kp)


def test_validate_standard_form_matches_eigen_solve():
    def flags(report):
        return report.is_positive, report.is_bona_fide, report.is_pure

    states = []
    rng = np.random.default_rng(73)
    # random states, some not positive and many not bona fide; kp of either
    # sign (kp > 0 is a classically correlated standard form)
    for _ in range(3000):
        n, m = (float(v) for v in np.exp(rng.uniform(0.0, math.log(50.0), 2)))
        kx = float(rng.uniform(0.0, 1.05)) * math.sqrt(n * m)
        kp = float(rng.uniform(-1.05, 0.5)) * kx
        states.append((n, m, kx, kp))
    # squeezed vacua, as parameters and as reduced from a locally
    # transformed squeezed vacuum CM (there n != m and kx != -kp in the
    # last digits)
    for r in np.linspace(0.0, 3.0, 61):
        c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
        states.append((c, c, s, -s))
        sym = random_local_symplectic(rng)
        red = reduce_to_standard_params(sym @ squeezed_vacuum_cm(float(r)) @ sym.T)
        states.append((red.n, red.m, red.kx, red.kp))
    # nu_- = 1 +- 2e-9, i.e. 2e-9 on either side of the bona fide tolerance:
    # two-mode squeezed thermal states diag(a, a, b, b) at squeezing r have
    # symplectic eigenvalues a and b
    for a in (1.0 - 2e-9, 1.0 + 2e-9):
        for b in (1.0 - 2e-9, 1.0 + 2e-9, 1.7, 12.0):
            for r in (0.1, 0.6, 1.3):
                c2, s2 = math.cosh(r) ** 2, math.sinh(r) ** 2
                k = (a + b) * math.cosh(r) * math.sinh(r)
                states.append((a * c2 + b * s2, a * s2 + b * c2, k, -k))
    seen = set()
    for n, m, kx, kp in states:
        p = StandardFormParams(n, m, kx, kp)
        closed = validate_standard_form(p)
        assert flags(closed) == flags(
            eigen_solve_report(standard_form_cm(p, 1.0, 1.0))), p
        seen.add(flags(closed))
    # every outcome occurs: not positive, not bona fide, mixed, pure
    assert seen == {(False, False, False), (True, False, False),
                    (True, True, False), (True, True, True)}


def test_validate_standard_form_rejects_non_finite():
    with pytest.raises(NonFiniteEntry):
        validate_standard_form(StandardFormParams(2.0, math.inf, 1.0, -1.0))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(log_n=st.floats(0.0, math.log(50.0)), log_m=st.floats(0.0, math.log(50.0)),
       u=st.floats(0.0, 0.99), v=st.floats(-1.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_standard_form_nu_is_local_symplectic_invariant(log_n, log_m, u, v, seed):
    n, m = math.exp(log_n), math.exp(log_m)
    kx = u * math.sqrt(n * m)
    kp = v * kx
    assume(validate_standard_form(StandardFormParams(n, m, kx, kp)).is_bona_fide)
    sym = random_local_symplectic(np.random.default_rng(seed))
    gamma = sym @ standard_form_cm(StandardFormParams(n, m, kx, kp), 1.0, 1.0) @ sym.T
    assert standard_form_nu(n, m, kx, kp) == pytest.approx(
        symplectic_eigenvalues(gamma), rel=1e-9)
