"""Entanglement of formation: auxiliary function, pipeline, closed forms.

The pipeline reduces a state to standard-form parameters, solves the
squeezing-factor equations, evaluates the EPR-like uncertainty at the
critical Duan parameter and maps it through f to the EOF in bits.
"""

import math
from typing import NamedTuple

from .epr_uncertainty import EprQuantities, delta0
from .errors import Degenerate, DomainError, InvalidState
from .standard_form import (
    TOL_PSD, TOL_RADICAND_ST, TOL_SQUEEZED_THERMAL, TOL_SYMMETRIC,
    TOL_UNIT_INTERVAL, TOL_VACUUM_MODE, StandardFormParams, check_canonical,
    reduce_to_standard_params, standard_form_nu, validate_standard_form)
from .standard_form_solver import (CriticalParams, critical_params,
                                   solve_squeezings)

_LN2 = math.log(2.0)
# the EPR quantities reported for a state found separable before any solve
_SEPARABLE = EprQuantities(a0=1.0, b0=0.0, delta0=1.0, delta0_prime=1.0,
                           separable=True, r1=1.0, r2=1.0)


class EofReport(NamedTuple):
    params: StandardFormParams
    epr: EprQuantities
    eof: float
    method: str  # general | symmetric | squeezed_thermal | pure | separable

    def to_dict(self) -> dict:
        return {
            "params": dict(self.params.to_dict(), r1=self.epr.r1, r2=self.epr.r2),
            "a0": self.epr.a0,
            "b0": self.epr.b0,
            "delta0": self.epr.delta0,
            "delta0_prime": self.epr.delta0_prime,
            "eof": self.eof,
            "method": self.method,
            "separable": self.epr.separable,
        }


def _entropy(s: float) -> float:
    """g(1 + s) = (1 + s) log2(1 + s) - s log2 s in bits, 0 at s <= 0; above
    s = 1, where -s log2 s turns negative, as log2(1 + s) + s log2(1 + 1/s)."""
    if s <= 0.0:
        return 0.0
    if s <= 1.0:
        return (1.0 + s) * math.log1p(s) / _LN2 - s * math.log2(s)
    return (math.log1p(s) + s * math.log1p(1.0 / s)) / _LN2


def f_aux(delta: float) -> float:
    """Entanglement of the pure squeezed state with uncertainty delta, in bits.

    f(delta) = c+ log2 c+ - c- log2 c- with c± = (delta^-1/2 ± delta^1/2)^2 / 4.
    Since c+ - c- = 1 this is g(1 + s) at s = c- = (1 - delta)^2 / (4 delta),
    which stays accurate as delta -> 1 where c- underflows.  Below about
    delta = 1.39e-309, s leaves the float range: DomainError.
    """
    if not 0.0 < delta <= 1.0 + TOL_UNIT_INTERVAL:
        raise DomainError(f"f is defined on (0, 1], got {delta}")
    delta = min(delta, 1.0)
    s = (1.0 - delta) ** 2 / (4.0 * delta)
    if s == math.inf:
        raise DomainError(f"s = (1 - delta)^2 / (4 delta) leaves the float "
                          f"range at delta = {delta}")
    return _entropy(s)


def _report(params: StandardFormParams, epr: EprQuantities,
            method: str) -> EofReport:
    """The report of a state with EPR quantities epr: f(Delta0') bits by
    method, or 0 bits and method "separable" when epr is separable."""
    if epr.separable:
        return EofReport(params=params, epr=epr, eof=0.0, method="separable")
    return EofReport(params=params, epr=epr, eof=f_aux(epr.delta0_prime),
                     method=method)


def eof(params: StandardFormParams) -> EofReport:
    """Entanglement of formation of the state with the given standard form.

    The parameters must be an admissible standard form (check_canonical:
    n, m >= 1, kx >= -kp >= 0), and the state is validated on the
    closed-form symplectic eigenvalues of its standard form
    (validate_standard_form), with no eigen-solve.
    Dispatch, decided here and nowhere else: product and separable states
    report 0; pure and symmetric (n = m within TOL_SYMMETRIC relative)
    states take the symmetric closed form; a state with a mode within
    TOL_VACUUM_MODE of the vacuum is a product (a pure mode carries no
    correlations), and a state whose partial transpose is bona fide within
    TOL_PSD (standard_form_nu(n, m, kx, -kp)[0] >= 1 - TOL_PSD) is
    separable by Simon's criterion (PRL 84, 2726 (2000)); both report
    separable with a0 = 1, b0 = 0 and r1 = r2 = 1.  Squeezed thermal states
    (kx = -kp within TOL_SQUEEZED_THERMAL relative) take the
    squeezed-thermal closed form; everything else runs the squeezing
    solve, the critical-parameter evaluation and f.  Every route, each
    closed form a private kernel, ends in _report.

    Raises:
        DomainError: parameters not canonical, a spectrum outside the
            float range (standard_form_nu decides, for the state and its
            partial transpose), or a solve that leaves it.
        InvalidState: parameters describe no bona fide CM.
    """
    check_canonical(params)
    if params.is_product:
        return _report(params, _SEPARABLE, "separable")
    report = validate_standard_form(params)
    if not report.is_positive:
        raise InvalidState("parameters describe no positive matrix "
                           "(need nm > kx^2 and nm > kp^2)")
    if not report.is_bona_fide:
        raise InvalidState(
            f"parameters violate the uncertainty relation: nu = "
            f"{report.symplectic_eigenvalues}")
    n, m, kx, kp = params.n, params.m, params.kx, params.kp
    if report.is_pure or abs(n - m) <= TOL_SYMMETRIC * max(n, m):
        # a pure state is a two-mode squeezed vacuum, hence symmetric
        return _report(params, _symmetric(n, kx, kp),
                       "pure" if report.is_pure else "symmetric")
    if (n - 1.0 <= TOL_VACUUM_MODE or m - 1.0 <= TOL_VACUUM_MODE
            or standard_form_nu(n, m, kx, -kp)[0] >= 1.0 - TOL_PSD):
        return _report(params, _SEPARABLE, "separable")
    if abs(kx + kp) <= TOL_SQUEEZED_THERMAL * kx:
        return _report(params, _squeezed_thermal(n, m, kx), "squeezed_thermal")
    sol = solve_squeezings(params)
    try:
        crit = critical_params(params, sol)
    except Degenerate:
        crit = CriticalParams(a0=1.0, b0=0.0)
    return _report(params, delta0(params, sol, crit), "general")


def _symmetric(n: float, kx: float, kp: float) -> EprQuantities:
    """The symmetric closed form: Delta0' = min(sqrt((n - kx)(n + kp)), 1),
    separable at 1, r1 = r2 = sqrt((n + kp)/(n - kx)); it checks only that
    the argument is positive."""
    arg2 = (n - kx) * (n + kp)
    if arg2 <= 0.0:
        raise DomainError(
            f"(n - kx)(n + kp) = {arg2} <= 0: not a positive matrix")
    d0 = min(math.sqrt(arg2), 1.0)
    r = math.sqrt((n + kp) / (n - kx))
    return EprQuantities(a0=1.0, b0=0.0, delta0=d0, delta0_prime=d0,
                         separable=d0 == 1.0, r1=r, r2=r)


def _squeezed_thermal(n: float, m: float, kx: float) -> EprQuantities:
    """The squeezed-thermal closed form (kp = -kx), either mode order, with
    r1 = r2 = 1.  Needs an entangled state with both modes above the
    vacuum, which eof() checks first."""
    nt, mt = n - 1.0, m - 1.0
    cross = kx * math.sqrt(nt * mt)
    rad1 = n * mt - cross
    rad2 = m * nt - cross
    scale = max(n * mt, m * nt, 1.0)
    if rad1 < -TOL_RADICAND_ST * scale or rad2 < -TOL_RADICAND_ST * scale:
        raise DomainError(f"negative radicand in the closed form: {rad1}, {rad2}")
    dp = ((math.sqrt(max(rad1, 0.0)) + math.sqrt(max(rad2, 0.0)))
          / (math.sqrt(nt) + math.sqrt(mt))) ** 2
    return EprQuantities(a0=(mt / nt) ** 0.25, b0=abs(n - m) / (n + m - 2.0),
                         delta0=(n * mt + m * nt - 2.0 * cross) / (nt + mt),
                         delta0_prime=dp, separable=False, r1=1.0, r2=1.0)


def g_kappa(kappa: float) -> float:
    """kappa log2 kappa - (kappa - 1) log2 (kappa - 1), with the 0 log 0 limit."""
    if not 1.0 <= kappa < math.inf:
        raise DomainError(f"gain must be finite and >= 1, got {kappa}")
    return _entropy(kappa - 1.0)


def giovannetti_family(kappa: float, nbar: float
                       ) -> tuple[StandardFormParams, EofReport, float]:
    """Amplifier-channel family: squeezed thermal states indexed by gain and photon number.

    Builds n = 2(nbar+1)kappa - 1, m = n - 2 nbar,
    kx = -kp = 2(nbar+1) sqrt(kappa(kappa-1)), and returns its eof() report,
    on the squeezed-thermal route, and g(kappa) for comparison.  At kappa = 1
    the state is a product and the EOF is g(1) = 0; at nbar = 0 it is pure
    (the symmetric route) and the EOF equals g(kappa) exactly.  Every member
    has nu_- = 1; DomainError where the rounded parameters hold nu_- more
    than TOL_PSD from 1 (from about kappa = 170 at nbar = 50).
    """
    if kappa < 1.0 or nbar < 0.0:
        raise DomainError("need kappa >= 1 and nbar >= 0")
    n = 2.0 * (nbar + 1.0) * kappa - 1.0
    m = 2.0 * (nbar + 1.0) * kappa - (2.0 * nbar + 1.0)
    kx = 2.0 * (nbar + 1.0) * math.sqrt(kappa * (kappa - 1.0))
    if n * m == math.inf:   # kx^2 < nm: kx overflows only if nm does
        raise DomainError(f"the family's parameters overflow at "
                          f"kappa = {kappa}, nbar = {nbar}")
    params = StandardFormParams(n=n, m=m, kx=kx, kp=-kx)
    check_canonical(params)
    # nu_- of (n, m, kx, -kx) is 2 D / (sqrt(4 D + d^2) + d) with d = n - m
    # and D = nm - kx^2 correctly rounded; floats cancel (3.5e-9 at kappa 300)
    (a, b), (c, e), (x, y) = (v.as_integer_ratio() for v in (n, m, kx))
    det, d = (a * c * y * y - x * x * b * e) / (b * e * y * y), n - m
    nu_minus = (2.0 * det / (math.hypot(2.0 * math.sqrt(det), d) + d)
                if det > 0.0 else math.nan)
    if not abs(nu_minus - 1.0) <= TOL_PSD:
        raise DomainError(f"the family's parameters at kappa = {kappa}, "
                          f"nbar = {nbar} round to nu_- = {nu_minus}, not 1")
    return params, eof(params), g_kappa(kappa)


def eof_from_cm(gamma) -> EofReport:
    """Convenience: validate and reduce a raw CM, and run the pipeline."""
    return eof(reduce_to_standard_params(gamma))

