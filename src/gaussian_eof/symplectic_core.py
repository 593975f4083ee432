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
    c, s = np.cosh(2.0 * r), np.sinh(2.0 * r)
    return standard_form_cm(StandardFormParams(c, c, s, -s), 1.0, 1.0)


def standard_form_cm(params: StandardFormParams, r1: float,
                     r2: float) -> np.ndarray:
    """Assemble the standard-form CM reduced by the squeezing factors (r1, r2).

    With r1 = r2 = 1 this is the plain (n, m, kx, kp) form; otherwise the
    x entries are scaled up by the r's and the p entries down.
    """
    if not (0.0 < r1 < np.inf and 0.0 < r2 < np.inf):
        raise DomainError("squeezing factors must be positive and finite")
    n, m, kx, kp = params.n, params.m, params.kx, params.kp
    s = np.sqrt(r1 * r2)
    return np.array([
        [n * r1, 0.0, s * kx, 0.0],
        [0.0, n / r1, 0.0, kp / s],
        [s * kx, 0.0, m * r2, 0.0],
        [0.0, kp / s, 0.0, m / r2],
    ])
