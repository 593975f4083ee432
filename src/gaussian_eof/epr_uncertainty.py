"""EPR-like uncertainty of Gaussian and pure squeezed states.

The uncertainty Delta is the total variance of the Duan pair
u = |a| x_A + x_B / a,  v = |a| p_A - p_B / a, normalized by a^2 + 1/a^2
and clamped at 1.  At the critical parameter a = -a0 the condition
Delta < 1 is necessary and sufficient for entanglement, and the transform
Delta -> Delta' maps the uncertainty to e^(-2r) of the two-mode squeezed
state that optimally decomposes the state.
"""

import math
from dataclasses import dataclass

from .errors import DomainError, InvalidState
from .standard_form_solver import CriticalParams, SqueezingSolution
from .standard_form import StandardFormParams

TOL_CLAMP = 1e-9


@dataclass(frozen=True)
class EprQuantities:
    a0: float
    b0: float
    delta0: float        # clamped to [b0, 1]
    delta0_prime: float
    separable: bool      # unclamped uncertainty reached 1

    def to_dict(self) -> dict:
        return {"a0": self.a0, "b0": self.b0, "delta0": self.delta0,
                "delta0_prime": self.delta0_prime, "separable": self.separable}


def delta_general(params: StandardFormParams, a: float) -> float:
    """EPR-like uncertainty of a solved standard form at Duan parameter a.

    Returns min(1, raw): the full-precision ratio is formed first and the
    clamp applied at the end.
    """
    if a == 0.0 or not math.isfinite(a):
        raise DomainError("Duan parameter a must be a nonzero finite real")
    if params.r1 is None or params.r2 is None:
        raise DomainError("params must carry solved squeezing factors")
    return min(1.0, _delta_raw(params, params.r1, params.r2, a))


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
    A raw value below b0 - 1e-9 is impossible for a bona fide CM and raises
    InvalidState.
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
                         separable=separable)


def delta_pure_squeezed(r: float, a: float) -> float:
    """Uncertainty of the pure two-mode squeezed state at negative a.

    min(1, cosh 2r - (2 / (a^2 + 1/a^2)) sinh 2r); the minimum over r is
    the floor b(a), attained at tanh 2r = 2 / (a^2 + 1/a^2).
    """
    if a >= 0.0 or not math.isfinite(a):
        raise DomainError("a must be negative")
    if r < 0.0 or not math.isfinite(r):
        raise DomainError("r must be finite and >= 0")
    eta = 2.0 / (a * a + 1.0 / (a * a))
    return min(1.0, math.cosh(2.0 * r) - eta * math.sinh(2.0 * r))


def uncertainty_floor(a: float) -> float:
    """b(a) = sqrt(1 - 4/(a^2 + 1/a^2)^2), the minimum of the pure-state curve."""
    if a == 0.0 or not math.isfinite(a):
        raise DomainError("Duan parameter a must be a nonzero finite real")
    a2 = a * a
    return math.sqrt(max(1.0 - 4.0 / (a2 + 1.0 / a2) ** 2, 0.0))


def delta_prime(delta: float, b: float) -> float:
    """The map Delta -> Delta' = (Delta + sqrt(Delta^2 - b^2)) / (1 + sqrt(1 - b^2)).

    Identity at b = 0 and at Delta = 1.  A radicand within 1e-12 of zero is
    clamped; Delta below b beyond tolerance is a domain error.
    """
    if not 0.0 <= b < 1.0:
        raise DomainError(f"floor b must lie in [0, 1), got {b}")
    if delta < b - TOL_CLAMP:
        raise DomainError(f"delta {delta} below floor {b}")
    if delta > 1.0 + TOL_CLAMP:
        raise DomainError(f"delta {delta} above 1")
    rad = delta * delta - b * b
    if rad < 0.0:
        if rad < -1e-12:
            raise DomainError(f"negative radicand {rad}")
        rad = 0.0
    return (delta + math.sqrt(rad)) / (1.0 + math.sqrt(1.0 - b * b))


def r_from_delta_prime(dp: float) -> float:
    """Squeezing parameter with e^(-2r) = Delta', for Delta' in (0, 1]."""
    if not math.isfinite(dp) or dp <= 0.0 or dp > 1.0 + 1e-12:
        raise DomainError(f"delta_prime must lie in (0, 1], got {dp}")
    return max(-0.5 * math.log(min(dp, 1.0)), 0.0)
