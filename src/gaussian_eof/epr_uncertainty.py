"""EPR-like uncertainty of Gaussian and pure squeezed states.

The uncertainty Delta is the total variance of the Duan pair
u = |a| x_A + x_B / a,  v = |a| p_A - p_B / a, normalized by a^2 + 1/a^2
and clamped at 1.  At the critical parameter a = -a0 the condition
Delta < 1 is necessary and sufficient for entanglement, and the transform
Delta -> Delta' maps the uncertainty to e^(-2r) of the two-mode squeezed
state that optimally decomposes the state.

The squeezing factors (r1, r2) place a standard form (n, m, kx, kp) in the
fully reduced form the uncertainty is evaluated in; EprQuantities carries them.
"""

import math
from typing import NamedTuple

from .errors import DomainError, InvalidState
from .standard_form_solver import (CriticalParams, SqueezingSolution,
                                   _uncertainty_floor)
from .standard_form import TOL_CLAMP, TOL_UNIT_INTERVAL, StandardFormParams


class EprQuantities(NamedTuple):
    a0: float
    b0: float
    delta0: float        # clamped to [b0, 1]
    delta0_prime: float
    separable: bool      # unclamped uncertainty reached 1
    r1: float            # the squeezing factors of the reduced form
    r2: float

    def to_dict(self) -> dict:
        return self._asdict()


def delta_general(params: StandardFormParams, r1: float, r2: float, a: float) -> float:
    """EPR-like uncertainty of the reduced form (params, r1, r2) at Duan parameter a.

    Returns min(1, raw): the full-precision ratio is formed first and the
    clamp applied at the end.
    """
    if a == 0.0 or not math.isfinite(a):
        raise DomainError("Duan parameter a must be a nonzero finite real")
    if not (0.0 < r1 < math.inf and 0.0 < r2 < math.inf):
        raise DomainError("squeezing factors must be positive and finite")
    return min(1.0, _delta_raw(params, r1, r2, a))


def _delta_raw(params: StandardFormParams, r1: float, r2: float, a: float) -> float:
    n, m, kx, kp = params.n, params.m, params.kx, params.kp
    a2 = a * a
    s = math.sqrt(r1 * r2)
    sign = math.copysign(1.0, a)
    num = (a2 * (n * r1 + n / r1) / 2.0
           + (m * r2 + m / r2) / (2.0 * a2)
           + sign * (s * kx - kp / s))
    return num / (a2 + 1.0 / a2)


def delta0(params: StandardFormParams, sol: SqueezingSolution,
           crit: CriticalParams) -> EprQuantities:
    """Uncertainty at the critical parameter a = -a0, with clamping.

    The raw value is clamped into [b0, 1]; reaching 1 flags separability.
    A raw value below b0 - TOL_CLAMP is impossible for a bona fide CM and
    raises InvalidState.
    """
    raw = _delta_raw(params, sol.r1, sol.r2, -crit.a0)
    b0 = crit.b0
    if raw < b0 - TOL_CLAMP:
        raise InvalidState(
            f"uncertainty {raw} fell below its floor {b0}; CM is not bona fide")
    d0 = min(max(raw, b0), 1.0)
    separable = raw >= 1.0
    d0p = delta_prime(d0, b0)
    return EprQuantities(a0=crit.a0, b0=b0, delta0=d0, delta0_prime=d0p,
                         separable=separable, r1=sol.r1, r2=sol.r2)


def delta_pure_squeezed(r: float, a: float) -> float:
    """Uncertainty of the pure two-mode squeezed state at negative a.

    min(1, cosh 2r - eta sinh 2r), eta = 2 / (a^2 + 1/a^2), whose minimum
    over r is the floor b(a), at tanh 2r = eta.  Evaluated as e^{-2r} +
    (1 - eta) sinh 2r, 1 - eta = (a^2 - 1)^2 / (a^4 + 1), which nothing
    cancels, in the smaller of |a|, 1/|a| (eta(a) = eta(1/a)), where nothing
    overflows.  Where sinh 2r overflows the value is 1: 1 - eta is 0 or >= 1e-32.
    """
    if a >= 0.0 or not math.isfinite(a):
        raise DomainError("a must be negative")
    if r < 0.0 or not math.isfinite(r):
        raise DomainError("r must be finite and >= 0")
    x = -a
    if x <= 1.0:
        gap, w = (1.0 - x) * (1.0 + x), x
    else:
        gap, w = (x - 1.0) / x * ((x + 1.0) / x), 1.0 / x
    one_minus_eta = gap * gap / (1.0 + w ** 4)
    if one_minus_eta == 0.0:   # a = -1: sinh 2r may overflow times 0
        return math.exp(-2.0 * r)
    try:
        sinh = math.sinh(2.0 * r)
    except OverflowError:
        return 1.0
    return min(1.0, math.exp(-2.0 * r) + one_minus_eta * sinh)


def uncertainty_floor(a: float) -> float:
    """b(a) = sqrt(1 - 4/(a^2 + 1/a^2)^2), the minimum of the pure-state curve,
    and its limit 1 where a^2 + 1/a^2 leaves the float range."""
    if a == 0.0 or not math.isfinite(a):
        raise DomainError("Duan parameter a must be a nonzero finite real")
    try:
        return _uncertainty_floor(a * a)
    except (OverflowError, ZeroDivisionError):
        return 1.0


def delta_prime(delta: float, b: float) -> float:
    """The map Delta -> Delta' = (Delta + sqrt(Delta^2 - b^2)) / (1 + sqrt(1 - b^2)).

    Identity at b = 0 and at Delta = 1.  Delta beyond TOL_CLAMP out of
    [b, 1] is a domain error; within it, a negative radicand reads 0.
    """
    if not 0.0 <= b < 1.0:
        raise DomainError(f"floor b must lie in [0, 1), got {b}")
    if delta < b - TOL_CLAMP:
        raise DomainError(f"delta {delta} below floor {b}")
    if delta > 1.0 + TOL_CLAMP:
        raise DomainError(f"delta {delta} above 1")
    rad = max(delta * delta - b * b, 0.0)
    return (delta + math.sqrt(rad)) / (1.0 + math.sqrt(1.0 - b * b))


def r_from_delta_prime(dp: float) -> float:
    """Squeezing parameter with e^(-2r) = Delta', for Delta' in (0, 1]."""
    if not 0.0 < dp <= 1.0 + TOL_UNIT_INTERVAL:
        raise DomainError(f"delta_prime must lie in (0, 1], got {dp}")
    return -0.5 * math.log(min(dp, 1.0))
