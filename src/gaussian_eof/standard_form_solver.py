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
from typing import NamedTuple

from .errors import Degenerate, DomainError, InvalidState, NoRoot
from .standard_form import (
    TOL_BALANCE_RESIDUAL, TOL_RATIO_RESIDUAL, StandardFormParams,
    check_canonical, validate_standard_form)


class SqueezingSolution(NamedTuple):
    r1: float
    r2: float
    residual_ratio: float
    residual_balance: float
    balance_terms: float = 0.0       # scale of residual_balance's rounding
    branch = "general"          # the only solve path
    multiple_brackets = False   # one bracket, one root

    @property
    def max_residual(self) -> float:
        return max(abs(self.residual_ratio), abs(self.residual_balance))


class CriticalParams(NamedTuple):
    """Critical Duan parameter a0 and the uncertainty floor b0 it induces."""
    a0: float
    b0: float


def _balance_kernel(n: float, m: float, kx: float, kp: float):
    """The balance residual of the state (n, m, kx, kp) as a function of r1.

    balance(r1) is |s kx| - |kp/s| - (sqrt(t1) - sqrt(t2)), with
    s = sqrt(r1 r2), t1 = (n r1 - 1)(m r2 - 1) and t2 = (n/r1 - 1)(m/r2 - 1),
    at r2 = r2(r1), the positive root of the ratio constraint: with
    big = n r1 - 1 and small = n/r1 - 1 that is the quadratic
    small m r2^2 + (big - small) r2 - big m = 0, whose roots have the
    negative product -big/small on the window [1, n]; the positive one runs
    from r2 = 1 at r1 = 1 to r2 = m at r1 = n.  balance(r1, True) returns
    (r2, ratio residual, balance residual, balance terms), the terms
    scaling the residual's rounding: |s kx| + |kp/s|, and sqrt(t1) and
    sqrt(t2) weighted by the condition of their factors, infinite where t1
    or t2 is 0 (as at r1 = n).  Its one caller passes n > 1 and m >= 1 and
    r1 in [1, n], where big > 0 and small >= 0 hold exactly; t1 and t2 are
    clamped at 0, as r2 may round just outside [1, m].
    """
    def balance(r1, full=False):
        big, small = n * r1 - 1.0, n / r1 - 1.0
        bq, cq = big - small, -big * m
        q = -0.5 * (bq + math.sqrt(bq * bq - 4.0 * (small * m) * cq))
        r2 = cq / q
        big2, small2 = m * r2 - 1.0, m / r2 - 1.0
        t1, t2 = big * big2, small * small2
        s = math.sqrt(r1 * r2)
        sx, sp = abs(s * kx), abs(kp / s)
        st1 = math.sqrt(0.0 if t1 < 0.0 else t1)
        st2 = math.sqrt(0.0 if t2 < 0.0 else t2)
        residual = sx - sp - (st1 - st2)
        if not full:
            return residual
        # a factor x - 1 of t carries an error of about eps (x + 1), which
        # sqrt(t) passes on times the other factor over 2 sqrt(t)
        e1 = ((big2 * (n * r1 + 1.0) + big * (m * r2 + 1.0)) / (2.0 * st1)
              if st1 else math.inf)
        e2 = ((small2 * (n / r1 + 1.0) + small * (m / r2 + 1.0)) / (2.0 * st2)
              if st2 else math.inf)
        return r2, big * small2 - small * big2, residual, sx + sp + e1 + e2

    return balance


def _solve_r1(params: StandardFormParams, balance) -> float:
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
    returned.  NoRoot is raised only where n <= 1 leaves no window, or
    where the residual keeps its sign over it on a state not bona fide.
    """
    n = params.n
    if n <= 1.0:
        raise NoRoot(f"the r1 window [1, n] is empty at n = {n}")
    lo, hi = 1.0, n
    f_lo, f_hi = balance(lo), balance(hi)
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
        f_x = balance(x)
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
        params: an admissible standard form (check_canonical) with
            kx > 0 > kp.

    Returns:
        SqueezingSolution carrying both constraint residuals.

    Raises:
        DomainError: parameters not canonical, kx > 0 > kp fails, or
            the solve leaves the float range.
        NoRoot: only where the balance residual has the same sign at both
            ends of the window r1 in [1, n] on a state that is not bona fide
            (as for kx^2 > n m), or n <= 1 leaves no window: invalid input.
    """
    check_canonical(params)
    n, m, kx, kp = params.n, params.m, params.kx, params.kp
    if not kx > 0.0 > kp:
        raise DomainError(f"need kx > 0 > kp, got kx={kx}, kp={kp}")
    # the ratio quadratic's discriminant peaks at r1 = 1 or n; r2 = 0 past it
    end = max(2.0 * (n - 1.0) * m, n * n - 1.0)
    if end * end == math.inf:
        raise DomainError(f"invariants of {(n, m, kx, kp)} leave the float range")
    # m in [1 - TOL_CANONICAL, 1) solves as m = 1, so that m/r2 - 1 >= 0
    balance = _balance_kernel(n, max(m, 1.0), kx, kp)
    r1 = _solve_r1(params, balance)
    return SqueezingSolution(r1, *balance(r1, True))


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
    TOL_RATIO_RESIDUAL of the sum of its terms, its rounding error: near the
    vacuum m/r2 - 1 and n/r1 - 1 are differences of nearly equal numbers,
    whose quotient has no digits to compare.  The balance residual, pinning
    r1, is held to TOL_BALANCE_RESIDUAL of sol.balance_terms, infinite at the
    window end r1 = n, which the check thus exempts.

    Raises:
        Degenerate: pure-state limit n r1 - 1 <= 0 or m r2 - 1 <= 0 (a0
            indeterminate; callers fall back to a0 = 1), or a0^2 so far
            from 1 that the floor b0 rounds to 1.
        InvalidState: if (r1, r2) does not satisfy the ratio or the balance
            constraint.
    """
    n, m, r1, r2 = params.n, params.m, sol.r1, sol.r2
    den = n * r1 - 1.0
    num = m * r2 - 1.0
    if den <= 0.0 or num <= 0.0:
        raise Degenerate("pure-state limit: critical parameter indeterminate")
    a0sq = math.sqrt(num / den)
    terms = (n * r1 + 1.0) * (m / r2 + 1.0) + (n / r1 + 1.0) * (m * r2 + 1.0)
    if abs(sol.residual_ratio) > TOL_RATIO_RESIDUAL * terms:
        raise InvalidState(f"critical-parameter consistency check failed: "
                           f"ratio residual {sol.residual_ratio} against "
                           f"terms {terms}")
    if abs(sol.residual_balance) > TOL_BALANCE_RESIDUAL * sol.balance_terms:
        raise InvalidState(f"critical-parameter consistency check failed: "
                           f"balance residual {sol.residual_balance} against "
                           f"terms {sol.balance_terms}")
    b0 = _uncertainty_floor(a0sq)
    if b0 >= 1.0:
        raise Degenerate(
            f"critical parameter a0^2 = {a0sq}: the floor b0 rounds to 1")
    return CriticalParams(a0=math.sqrt(a0sq), b0=b0)
