"""Shared fixtures: benchmark data, random state generators, reference routes.

The entanglement oracle used for generating test states is the partial
transpose criterion evaluated on the closed-form two-mode symplectic
eigenvalues (``standard_form_nu``).  eof() and validate_cm() validate
states with the same closed form, so test_symplectic_core.py holds it to a
50-digit evaluation of the invariants and to the 4x4 matrix eigen-solve
below (``symplectic_eigenvalues``, ``eigen_solve_report``), an independent
oracle that the package itself does not use.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import gaussian_eof
from gaussian_eof import (CriticalParams, Degenerate, StandardFormParams,
                          ValidityReport, critical_params, delta0, f_aux,
                          solve_squeezings, standard_form_nu)
from gaussian_eof.cli import load_table1_reference
from gaussian_eof.standard_form import TOL_PSD, _raw_cm

J = np.array([[0.0, 1.0], [-1.0, 0.0]])
OMEGA = np.block([[J, np.zeros((2, 2))], [np.zeros((2, 2)), J]])


def fresh_python(code, *args, timeout=None):
    """stdout of `code` run by a new interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gaussian_eof.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          check=True, capture_output=True, text=True,
                          timeout=timeout).stdout


def symplectic_eigenvalues(gamma):
    """The two symplectic eigenvalues of a symmetric 4x4 CM, by eigen-solve.

    Computed from the spectrum of -(Omega gamma)^2, whose eigenvalues are the
    squared symplectic eigenvalues, each doubly degenerate.  This keeps the
    computation in real arithmetic.  Its error on nu_- grows as
    eps nu_+^2.
    """
    og = OMEGA @ np.asarray(gamma, dtype=float)
    ev = np.sort(np.abs(np.linalg.eigvals(-og @ og).real))
    return (float(np.sqrt(max(0.5 * (ev[0] + ev[1]), 0.0))),
            float(np.sqrt(max(0.5 * (ev[2] + ev[3]), 0.0))))


def eigen_solve_report(gamma):
    """validate_cm's report computed by 4x4 eigen-solves, the oracle.

    The symmetry flag comes from _raw_cm; positivity from the spectrum of
    the symmetric part, and the symplectic eigenvalues from
    symplectic_eigenvalues of it, with validate_cm's tolerances.
    """
    (a0, a1, c00, c01, a2, c10, c11, b0, b1, b2), sym = _raw_cm(gamma)
    gs = np.array([[a0, a1, c00, c01], [a1, a2, c10, c11],
                   [c00, c10, b0, b1], [c01, c11, b1, b2]])
    positive = bool(np.linalg.eigvalsh(gs)[0] > 0.0)
    nu = symplectic_eigenvalues(gs)
    bona_fide = sym and positive and nu[0] >= 1.0 - TOL_PSD
    pure = bona_fide and abs(nu[0] - 1.0) <= TOL_PSD and abs(nu[1] - 1.0) <= TOL_PSD
    return ValidityReport(sym, positive, nu, bona_fide, pure)


def analytic_nu_minus(n, m, kx, kp):
    """Smaller symplectic eigenvalue from the closed two-mode formula."""
    return standard_form_nu(n, m, kx, kp)[0]


def ppt_nu_minus(n, m, kx, kp):
    """Partial transposition flips the sign of kp."""
    return analytic_nu_minus(n, m, kx, -kp)


def is_bona_fide_params(n, m, kx, kp, margin=0.0):
    if n * m <= kx * kx or n * m <= kp * kp:
        return False
    return analytic_nu_minus(n, m, kx, kp) >= 1.0 + margin


def is_entangled_params(n, m, kx, kp, margin=1e-6):
    return ppt_nu_minus(n, m, kx, kp) < 1.0 - margin


def kx_at_nu_minus(n, m, t, target, flip=False):
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


def random_entangled_params(rng, n_lo=1.05, n_hi=5.0):
    """Rejection-sample canonical parameters of a bona fide entangled state."""
    while True:
        n = rng.uniform(n_lo, n_hi)
        m = rng.uniform(n_lo, n_hi)
        kx = rng.uniform(0.05, 1.0) * (math.sqrt(n * m) - 1e-9)
        kp = -rng.uniform(0.02, 1.0) * kx
        if not is_bona_fide_params(n, m, kx, kp, margin=1e-9):
            continue
        if not is_entangled_params(n, m, kx, kp):
            continue
        return StandardFormParams(n=n, m=m, kx=kx, kp=kp)


def entangled_params_at(n, m, ratio, s):
    """Canonical state (n, m, kx, kp = -ratio kx) between the boundaries, or None.

    kx^2 is the smaller root of the quadratic
    (nm - kx^2)(nm - ratio^2 kx^2) + 1 - n^2 - m^2 = 2 s ratio kx^2.  With
    kp < 0 a state is bona fide for det + 1 >= n^2 + m^2 - 2 kx |kp| and
    entangled for det + 1 < n^2 + m^2 + 2 kx |kp| (det = (nm - kx^2)
    (nm - kp^2)), so s in (-1, 1) runs from the vacuum boundary nu_- = 1
    (s -> -1) to the separable boundary (s -> 1).  Returns None where the
    root is not below nm or the closed-form checks with their margins
    refuse the state.
    """
    b = n * m * (1.0 + ratio * ratio) + 2.0 * s * ratio
    c = (n * n - 1.0) * (m * m - 1.0)
    disc = b * b - 4.0 * ratio * ratio * c
    if disc < 0.0 or b <= 0.0:
        return None
    kx = math.sqrt(2.0 * c / (b + math.sqrt(disc)))
    kp = -ratio * kx
    if not (kx * kx < n * m and is_bona_fide_params(n, m, kx, kp, margin=1e-9)
            and is_entangled_params(n, m, kx, kp)):
        return None
    return StandardFormParams(n=n, m=m, kx=kx, kp=kp)


def log_uniform_entangled_params(rng, n_lo=1.05, n_hi=1e3):
    """Entangled state with n, m log-uniform on [n_lo, n_hi], drawn directly.

    random_entangled_params rejects nearly every draw when n and m reach
    1e3; this places the state between the boundaries instead
    (entangled_params_at) and rejects only a few.
    """
    while True:
        n, m = np.exp(rng.uniform(math.log(n_lo), math.log(n_hi), size=2))
        p = entangled_params_at(float(n), float(m), rng.uniform(0.02, 1.0),
                                rng.uniform(-1.0, 1.0))
        if p is not None:
            return p


def random_symmetric_entangled_params(rng, n_lo=1.05, n_hi=5.0):
    while True:
        n = rng.uniform(n_lo, n_hi)
        kx = rng.uniform(0.05, 1.0) * (n - 1e-9)
        kp = -rng.uniform(0.02, 1.0) * kx
        if not is_bona_fide_params(n, n, kx, kp, margin=1e-9):
            continue
        if (n - kx) * (n + kp) >= 1.0 - 1e-6:
            continue
        return StandardFormParams(n=n, m=n, kx=kx, kp=kp)


def random_bona_fide_params(rng, n_lo=1.05, n_hi=5.0):
    """Bona fide but not necessarily entangled (still canonical kp <= 0)."""
    while True:
        n = rng.uniform(n_lo, n_hi)
        m = rng.uniform(n_lo, n_hi)
        kx = rng.uniform(0.02, 1.0) * (math.sqrt(n * m) - 1e-9)
        kp = -rng.uniform(0.02, 1.0) * kx
        if is_bona_fide_params(n, m, kx, kp, margin=1e-9):
            return StandardFormParams(n=n, m=m, kx=kx, kp=kp)


def two_mode_squeezer(r):
    """Symplectic TMS(r); TMS(r) TMS(r)^T is squeezed_vacuum_cm(r)."""
    c, s = math.cosh(r) * np.eye(2), math.sinh(r) * np.diag([1.0, -1.0])
    return np.block([[c, s], [s, c]])


def beam_splitter(t):
    """Symplectic beam splitter BS(t) = [[cos t I, sin t I], [-sin t I, cos t I]]."""
    c, s = math.cos(t) * np.eye(2), math.sin(t) * np.eye(2)
    return np.block([[c, s], [-s, c]])


def local_rotation(theta_a, theta_b):
    """Direct sum of single-mode phase rotations; symplectic."""
    def rot(t):
        c, s = np.cos(t), np.sin(t)
        return np.array([[c, s], [-s, c]])
    out = np.zeros((4, 4))
    out[:2, :2] = rot(theta_a)
    out[2:, 2:] = rot(theta_b)
    return out


def local_squeeze(s_a, s_b):
    """Direct sum of single-mode squeezers diag(e^s, e^-s); symplectic."""
    return np.diag([np.exp(s_a), np.exp(-s_a), np.exp(s_b), np.exp(-s_b)])


def random_local_symplectic(rng, max_squeeze=0.8):
    """Random element of the local symplectic group Sp(2,R) x Sp(2,R)."""
    t1, t2, t3, t4 = rng.uniform(0.0, 2.0 * np.pi, size=4)
    s1, s2 = rng.uniform(-max_squeeze, max_squeeze, size=2)
    return local_rotation(t1, t2) @ local_squeeze(s1, s2) @ local_rotation(t3, t4)


def near_pure_cm(rng):
    """Raw CM S (nu1 I (+) nu2 I) S^T with nu1 - 1 log-uniform on [1e-13, 1e-6].

    S = L1 TMS(r) BS(t) L2, with random local symplectics L1, L2 (squeeze
    <= 0.8), r <= 2.5 and t uniform; nu2 - 1 is log-uniform on [1e-13, 10].
    Returns the matrix and (nu1, nu2) sorted, the symplectic eigenvalues.
    """
    nu1 = 1.0 + 10.0 ** rng.uniform(-13.0, -6.0)
    nu2 = 1.0 + 10.0 ** rng.uniform(-13.0, 1.0)
    sym = (random_local_symplectic(rng) @ two_mode_squeezer(rng.uniform(0.0, 2.5))
           @ beam_splitter(rng.uniform(0.0, math.pi)) @ random_local_symplectic(rng))
    gamma = sym @ np.diag([nu1, nu1, nu2, nu2]) @ sym.T
    return 0.5 * (gamma + gamma.T), (min(nu1, nu2), max(nu1, nu2))


def general_route_epr(params):
    """EPR quantities through the general solve, whatever the closed form.

    eof() sends symmetric and squeezed thermal states to their closed
    forms; this chains the stages of its general route by hand, so the
    closed forms can be held to an independent computation.
    """
    sol = solve_squeezings(params)
    try:
        crit = critical_params(params, sol)
    except Degenerate:
        crit = CriticalParams(a0=1.0, b0=0.0)
    return delta0(params, sol, crit)


def general_route_eof(params):
    """EOF in bits through the general solve (see general_route_epr)."""
    epr = general_route_epr(params)
    return 0.0 if epr.separable else f_aux(epr.delta0_prime)


@pytest.fixture(scope="session")
def table1():
    return load_table1_reference()


@pytest.fixture(scope="session")
def table1_params(table1):
    return [StandardFormParams(n=r["n"], m=r["m"], kx=r["kx"], kp=r["kp"])
            for r in table1["rows"]]
