"""Solver for the coupled squeezing-factor equations of the standard form.

The reduced form of a two-mode CM carries one-mode squeezing factors
(r1, r2) >= 1 fixed by two coupled algebraic conditions:

* ratio constraint:   (n r1 - 1)/(m r2 - 1) = (n/r1 - 1)/(m/r2 - 1)
* balance constraint: |sqrt(r1 r2) kx| - |kp / sqrt(r1 r2)|
                      = sqrt((n r1 - 1)(m r2 - 1)) - sqrt((n/r1 - 1)(m/r2 - 1))

Both constraints need n/r1 - 1 >= 0 and m/r2 - 1 >= 0, so r1 lies in
[1, n].  On that window the ratio constraint, a quadratic in r2 at fixed
r1, has exactly one positive root, and the balance residual is driven to
zero in r1 on [1, n] by Illinois regula falsi (a secant step that keeps
the root bracketed), down to adjacent floats.  The solver takes no
shortcut for symmetric (n = m) or squeezed-thermal (kx = -kp) inputs:
``eof()`` sends those to their closed forms, and this solve is the
reference tests hold the closed forms to.
"""

import math
from dataclasses import dataclass

from .errors import Degenerate, DomainError, InvalidState, NoRoot
from .standard_form import StandardFormParams, validate_standard_form


@dataclass(frozen=True)
class SqueezingSolution:
    r1: float
    r2: float
    residual_ratio: float
    residual_balance: float
    branch: str = "general"          # always "general": the only solve path
    multiple_brackets: bool = False  # always False: one bracket, one root

    @property
    def max_residual(self) -> float:
        return max(abs(self.residual_ratio), abs(self.residual_balance))


@dataclass(frozen=True)
class CriticalParams:
    """Critical Duan parameter a0 and the uncertainty floor b0 it induces."""
    a0: float
    b0: float


def _r2_of(n: float, m: float, r1: float) -> float:
    """The positive root r2 of the ratio constraint at fixed r1 in [1, n].

    With big = n r1 - 1 and small = n/r1 - 1 the constraint is the quadratic
    small m r2^2 + (big - small) r2 - big m = 0.  On the window the product
    of its roots, -big/small, is negative, so exactly one root is positive;
    it runs from r2 = 1 at r1 = 1 to r2 = m at r1 = n.
    """
    big = n * r1 - 1.0
    small = n / r1 - 1.0
    aq, bq, cq = small * m, big - small, -big * m
    q = -0.5 * (bq + math.sqrt(bq * bq - 4.0 * aq * cq))
    return cq / q


def _balance_residual(params: StandardFormParams, r1: float, r2: float) -> float | None:
    n, m, kx, kp = params.n, params.m, params.kx, params.kp
    s = math.sqrt(r1 * r2)
    t1 = max(n * r1 - 1.0, 0.0) * max(m * r2 - 1.0, 0.0)
    t2 = (n / r1 - 1.0) * (m / r2 - 1.0)
    if t2 < -1e-12:
        return None  # incompatible signs: not on the solution manifold
    t2 = max(t2, 0.0)
    return abs(s * kx) - abs(kp / s) - (math.sqrt(t1) - math.sqrt(t2))


def _ratio_residual(params: StandardFormParams, r1: float, r2: float) -> float:
    n, m = params.n, params.m
    return (n * r1 - 1.0) * (m / r2 - 1.0) - (n / r1 - 1.0) * (m * r2 - 1.0)


def _solve_r1(params: StandardFormParams) -> float:
    """Root of the balance residual in r1 on [1, n], by Illinois regula falsi.

    The residual is kx + kp >= 0 at r1 = 1.  Each step evaluates the secant
    point of the bracket, or its midpoint when the secant point is not
    strictly inside; when the same end is kept twice in a row, the other
    end's residual is halved for the secant (the Illinois rule of Dowell &
    Jarratt, BIT 11, 168 (1971)), so both ends close in.  The bracket is
    narrowed until its ends are adjacent floats, and the end with the
    smaller |residual| is returned.

    A state that is bona fide only within TOL_PSD (nu_- < 1) may keep the
    residual positive over the whole window, its root lying beyond r1 = n
    by a margin of the tolerance's size; the window end r1 = n is then
    returned.
    """
    n, m = params.n, params.m

    def residual(r1):
        val = _balance_residual(params, r1, _r2_of(n, m, r1))
        if val is None:
            raise NoRoot(f"balance residual undefined at r1 = {r1}")
        return val

    if n <= 1.0:
        raise NoRoot(f"the r1 window [1, n] is empty at n = {n}")
    lo, hi = 1.0, n
    f_lo, f_hi = residual(lo), residual(hi)
    if f_lo * f_hi > 0.0:
        if validate_standard_form(params).is_bona_fide:
            return hi
        raise NoRoot("balance residual has no sign change on the r1 bracket; "
                     "input parameters do not describe a reducible state")
    w_lo, w_hi = f_lo, f_hi  # residuals as weighted by the Illinois rule
    last = 0                 # end replaced by the last step: -1 lo, +1 hi
    while f_lo != 0.0 and f_hi != 0.0:
        x = (lo * w_hi - hi * w_lo) / (w_hi - w_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if x in (lo, hi):
                break
        f_x = residual(x)
        if (f_x < 0.0) == (f_lo < 0.0):
            lo, f_lo, w_lo = x, f_x, f_x
            if last < 0:
                w_hi *= 0.5
            last = -1
        else:
            hi, f_hi, w_hi = x, f_x, f_x
            if last > 0:
                w_lo *= 0.5
            last = 1
    return lo if abs(f_lo) <= abs(f_hi) else hi


def solve_squeezings(params: StandardFormParams) -> SqueezingSolution:
    """Solve for the squeezing factors (r1, r2) >= 1 of the reduced form.

    Args:
        params: canonical standard-form parameters with n, m >= 1 and
            kx >= -kp > 0 (not a product state).

    Returns:
        SqueezingSolution carrying both constraint residuals.

    Raises:
        NoRoot: if the balance residual has the same sign at both ends of
            the window r1 in [1, n] on a state that is not bona fide (as for
            kx^2 > n m), or n <= 1 leaves no window; either signals invalid
            input parameters.
    """
    n, m, kx, kp = params.n, params.m, params.kx, params.kp
    if n < 1.0 - 1e-12 or m < 1.0 - 1e-12:
        raise DomainError(f"n, m must be >= 1, got ({n}, {m})")
    if kx <= 0.0 or kp >= 0.0 or kx < -kp - 1e-12:
        raise DomainError(
            f"need kx >= -kp > 0 after canonicalization, got kx={kx}, kp={kp}")
    r1 = _solve_r1(params)
    return _finish(params, r1, _r2_of(n, m, r1))


def _finish(params: StandardFormParams, r1: float, r2: float) -> SqueezingSolution:
    res_ratio = _ratio_residual(params, r1, r2)
    res_balance = _balance_residual(params, r1, r2)
    if res_balance is None:
        raise NoRoot("solution left the admissible sign region")
    return SqueezingSolution(r1=r1, r2=r2, residual_ratio=res_ratio,
                             residual_balance=res_balance)


def _uncertainty_floor(a2: float) -> float:
    """b = sqrt(1 - 4/(a^2 + 1/a^2)^2), the floor of the EPR-like
    uncertainty at Duan parameter a, from a2 = a^2."""
    return math.sqrt(max(1.0 - 4.0 / (a2 + 1.0 / a2) ** 2, 0.0))


def critical_params(params: StandardFormParams,
                    sol: SqueezingSolution) -> CriticalParams:
    """Critical Duan parameter a0 and floor b0 from a solved standard form.

    a0^2 is the square root of (m r2 - 1)/(n r1 - 1); the ratio constraint
    makes the r -> 1/r counterpart equal, which is verified here as a
    consistency check of the solve.  The check holds the ratio residual to
    1e-13 of the sum of its terms, its rounding error: next to the vacuum
    m/r2 - 1 and n/r1 - 1 are differences of nearly equal numbers, and
    their quotient has no digits to compare.

    Raises:
        Degenerate: pure-state limit n r1 - 1 <= 1e-12 (a0 indeterminate;
            callers fall back to a0 = 1), or a0^2 so far from 1 that the
            floor b0 rounds to 1.
        InvalidState: if (r1, r2) does not satisfy the ratio constraint.
    """
    n, m, r1, r2 = params.n, params.m, sol.r1, sol.r2
    den = n * r1 - 1.0
    num = m * r2 - 1.0
    if den <= 1e-12 or num <= 1e-12:
        raise Degenerate("pure-state limit: critical parameter indeterminate")
    a0sq = math.sqrt(num / den)
    residual = _ratio_residual(params, r1, r2)
    terms = (n * r1 + 1.0) * (m / r2 + 1.0) + (n / r1 + 1.0) * (m * r2 + 1.0)
    if abs(residual) > 1e-13 * terms:
        raise InvalidState(f"critical-parameter consistency check failed: "
                           f"ratio residual {residual} against terms {terms}")
    b0 = _uncertainty_floor(a0sq)
    if b0 >= 1.0:
        raise Degenerate(
            f"critical parameter a0^2 = {a0sq}: the floor b0 rounds to 1")
    return CriticalParams(a0=math.sqrt(a0sq), b0=b0)
