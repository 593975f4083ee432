"""Matrix layer: the symplectic form and the CM constructors, in numpy.

The conventions, StandardFormParams, the closed-form validation and the
reduction of raw CMs live in standard_form, which needs no numpy.  This
module serves the matrix-facing parts of the package: the decomposition,
the examples and the tests, which build CMs in local frames.
"""

import numpy as np

from .errors import DomainError
# validate_cm and reduce_to_standard_params stay reachable here: the
# benchmark's perfbench/tracing.py wraps them as symplectic_core.*
from .standard_form import (StandardFormParams, reduce_to_standard_params,
                            validate_cm)

J = np.array([[0.0, 1.0], [-1.0, 0.0]])
OMEGA = np.block([[J, np.zeros((2, 2))], [np.zeros((2, 2)), J]])


def squeezed_vacuum_cm(r: float) -> np.ndarray:
    """CM of the standard two-mode squeezed vacuum with squeezing r >= 0."""
    if not np.isfinite(r) or r < 0.0:
        raise DomainError(f"squeezing parameter must be finite and >= 0, got {r}")
    c = np.cosh(2.0 * r)
    s = np.sinh(2.0 * r)
    return np.array([
        [c, 0.0, s, 0.0],
        [0.0, c, 0.0, -s],
        [s, 0.0, c, 0.0],
        [0.0, -s, 0.0, c],
    ])


def standard_form_cm(params: StandardFormParams,
                     r1: float | None = None,
                     r2: float | None = None) -> np.ndarray:
    """Assemble the standard-form CM, optionally with squeezing factors.

    With r1 = r2 = 1 this is the plain (n, m, kx, kp) form; otherwise the
    x entries are scaled up by the r's and the p entries down.
    """
    r1 = params.r1 if r1 is None else r1
    r2 = params.r2 if r2 is None else r2
    r1 = 1.0 if r1 is None else r1
    r2 = 1.0 if r2 is None else r2
    if r1 <= 0.0 or r2 <= 0.0:
        raise DomainError("squeezing factors must be positive")
    n, m, kx, kp = params.n, params.m, params.kx, params.kp
    s = np.sqrt(r1 * r2)
    return np.array([
        [n * r1, 0.0, s * kx, 0.0],
        [0.0, n / r1, 0.0, kp / s],
        [s * kx, 0.0, m * r2, 0.0],
        [0.0, kp / s, 0.0, m / r2],
    ])


# --- local symplectic generators (used by invariance tests and examples) ---

def local_rotation(theta_a: float, theta_b: float) -> np.ndarray:
    """Direct sum of single-mode phase rotations; symplectic."""
    def rot(t):
        c, s = np.cos(t), np.sin(t)
        return np.array([[c, s], [-s, c]])
    out = np.zeros((4, 4))
    out[:2, :2] = rot(theta_a)
    out[2:, 2:] = rot(theta_b)
    return out


def local_squeeze(s_a: float, s_b: float) -> np.ndarray:
    """Direct sum of single-mode squeezers diag(e^s, e^-s); symplectic."""
    return np.diag([np.exp(s_a), np.exp(-s_a), np.exp(s_b), np.exp(-s_b)])


def random_local_symplectic(rng: np.random.Generator,
                            max_squeeze: float = 0.8) -> np.ndarray:
    """Random element of the local symplectic group Sp(2,R) x Sp(2,R)."""
    t1, t2, t3, t4 = rng.uniform(0.0, 2.0 * np.pi, size=4)
    s1, s2 = rng.uniform(-max_squeeze, max_squeeze, size=2)
    return local_rotation(t1, t2) @ local_squeeze(s1, s2) @ local_rotation(t3, t4)
