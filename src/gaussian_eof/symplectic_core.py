"""CM constructors of the decomposition, in numpy.

The module stays for decomposition, which builds its CMs with the two
constructors below, and for the benchmark's layer names, which wrap
validate_cm and reduce_to_standard_params as symplectic_core.*: hence
their re-export from standard_form, which needs no numpy.
"""

import numpy as np

from .errors import DomainError
from .standard_form import (StandardFormParams, reduce_to_standard_params,
                            validate_cm)


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
