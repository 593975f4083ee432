"""Gaussian EOF by constrained minimization, published bounds, sandwich report.

The Gaussian EOF minimizes the entanglement of pure Gaussian states whose
CM sits below the target state's CM.  Writing the pure-state x-block as
Gamma = [[x0+x3, x1], [x1, x0-x3]], its p-block is Gamma^{-1}, so the
constraint reads C_p^{-1} <= Gamma <= C_x, where C_x and C_p are the x and
p blocks of the standard-form CM.  Some Gamma satisfies it exactly when
K = C_x - C_p^{-1} is PSD, which by the Schur complement holds exactly for
bona fide states, where negative parts of K are rounding.  The optimum
touches both ends, Gamma - C_p^{-1} and C_x - Gamma of rank one, and those
Gammas form one ellipse in the angle theta (minimize_reduced_determinant),
on which 1 + x1^2 / det Gamma is smooth.  It is scanned coarsely and
polished by Brent's parabolic minimization, in scalar arithmetic.
"""

import math
from dataclasses import asdict, dataclass

from .eof_core import EofReport, eof, f_aux, symmetric_eof
from .errors import Infeasible, SandwichViolation
from .standard_form import (StandardFormParams, check_canonical,
                            validate_standard_form)

SCAN_POINTS = 16
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_VACUUM_TOL = 1e-13   # |det K| <= this * K11 K22: nu_- = 1, K has rank one
SANDWICH_TOL = 1e-9   # slack of the bound sandwich checked by bounds_report


@dataclass(frozen=True)
class GammaCandidate:
    """Pure-state block parameters at a feasible point of the minimization."""
    x0: float
    x1: float
    x3: float

    @property
    def det_gamma(self) -> float:
        return self.x0 * self.x0 - self.x3 * self.x3 - self.x1 * self.x1

    @property
    def reduced_det(self) -> float:
        return 1.0 + self.x1 * self.x1 / self.det_gamma

    def constraint_residuals(self, params: StandardFormParams) -> tuple[float, float]:
        """det(C_x - Gamma) and det(Gamma - C_p^{-1}), both 0 at a touching point."""
        (p11, p22, p12), (k11, k22, k12) = _blocks(params)
        du, dv = self.x0 + self.x3 - p11, self.x0 - self.x3 - p22
        dx = self.x1 - p12
        ex = k12 - dx
        return (k11 - du) * (k22 - dv) - ex * ex, du * dv - dx * dx


@dataclass(frozen=True)
class BoundsReport:
    eof: float
    gaussian_eof: float
    rigolin_lower: float
    oliveira_upper: float | None
    oliveira_physical: bool
    m_opt: float

    def to_dict(self) -> dict:
        return asdict(self)


def _blocks(params: StandardFormParams) -> tuple[tuple[float, ...], ...]:
    """Entries (11, 22, 12) of C_p^{-1} and of K = C_x - C_p^{-1}."""
    n, m, kx, kp = (float(params.n), float(params.m), float(params.kx),
                    float(params.kp))
    det_p = n * m - kp * kp
    p11, p22, p12 = m / det_p, n / det_p, -kp / det_p
    return (p11, p22, p12), (n - p11, m - p22, kx - p12)


def _gamma(theta, ellipse):
    """Entries (11, 22, 12) of Gamma(theta) = C_p^{-1} + y y^T, y = S w.

    (I + R(theta)) / 2 = w w^T with w = (cos, sin)(theta / 2), so no entry
    is a difference of the large terms of K and S R S, which cancel where
    Gamma nears C_p^{-1}.
    """
    p11, p22, p12, s11, s22, s12 = ellipse
    c, sn = math.cos(0.5 * theta), math.sin(0.5 * theta)
    y1, y2 = s11 * c + s12 * sn, s12 * c + s22 * sn
    return p11 + y1 * y1, p22 + y2 * y2, p12 + y1 * y2


def _objective(theta, ellipse):
    """1 + x1^2 / det Gamma(theta)."""
    u, v, x1 = _gamma(theta, ellipse)
    return 1.0 + x1 * x1 / (u * v - x1 * x1)


def minimize_reduced_determinant(params: StandardFormParams
                                 ) -> tuple[float, GammaCandidate]:
    """Minimize det of the reduced pure-state CM over the touching ellipse.

    With K = C_x - C_p^{-1}, S = sqrt(K) = (K + sqrt(det K) I) /
    sqrt(tr K + 2 sqrt(det K)) and the reflection R(theta) =
    [[cos, sin], [sin, -cos]], the pure-state blocks touching both
    constraints are Gamma(theta) = C_p^{-1} + (K + S R(theta) S) / 2: both
    Gamma - C_p^{-1} and C_x - Gamma are then rank-one PSD.  Scans the
    2 SCAN_POINTS angles at which x1(theta) = c + a cos(theta - phi) takes
    the midpoints of SCAN_POINTS equal cells of its range (within
    [-kx, kx]), on both halves of the ellipse, and polishes the best by
    Brent's localmin between its neighbouring angles, around the ellipse.
    The scan points crowd towards the ends of the x1 range, where the
    objective can have a narrow basin.  At nu_- = 1, K has rank one and
    det K = (nu_-^2 - 1)(nu_+^2 - 1) / det C_p is rounding noise that
    standard_form_nu cannot resolve at large n; within _VACUUM_TOL K11 K22
    it is taken as 0, S = K / sqrt(tr K), and the ellipse is a segment
    traversed twice, with no separate path; tr K <= 0 means K = 0, a pure
    state.  The result is never above the best scan point.

    Raises:
        DomainError: parameters not finite or not canonical.
        Infeasible: exactly when validate_standard_form finds the state not
            bona fide; then no pure state lies below the CM.
    """
    check_canonical(params)
    if not validate_standard_form(params).is_bona_fide:
        raise Infeasible("no pure state below the CM: it is not bona fide")
    (p11, p22, p12), (k11, k22, k12) = _blocks(params)
    det_k = k11 * k22 - k12 * k12
    root = math.sqrt(det_k) if det_k > _VACUUM_TOL * k11 * k22 else 0.0
    # tr K <= 0 only by rounding at a pure state, K = 0: the ellipse is C_p^{-1}
    norm = math.sqrt(max(k11 + k22 + 2.0 * root, 0.0)) or math.inf
    s11, s22, s12 = (k11 + root) / norm, (k22 + root) / norm, k12 / norm
    ellipse = (p11, p22, p12, s11, s22, s12)
    # x1(theta) = center + xc cos(theta) + xs sin(theta)
    center = p12 + 0.5 * k12
    xc, xs = 0.5 * s12 * (s11 - s22), 0.5 * (s11 * s22 + s12 * s12)
    amp, phi = math.hypot(xc, xs) or 1.0, math.atan2(xs, xc)
    kx = float(params.kx)
    lo, hi = max(-kx, center - amp), min(kx, center + amp)
    step = (hi - lo) / SCAN_POINTS
    psis = [math.acos(max(-1.0, min(1.0, (x - center) / amp)))
            for x in (lo + (i + 0.5) * step for i in range(SCAN_POINTS))]
    thetas = [phi - psi for psi in psis] + [phi + psi for psi in psis[::-1]]
    objs = [_objective(theta, ellipse) for theta in thetas]
    i0 = min(range(len(thetas)), key=objs.__getitem__)
    ring = [thetas[-1] - 2.0 * math.pi, *thetas, thetas[0] + 2.0 * math.pi]
    theta, m_opt = _brent_polish(lambda t: _objective(t, ellipse), ring[i0],
                                 ring[i0 + 2], thetas[i0], objs[i0])
    u, v, x1 = _gamma(theta, ellipse)
    return m_opt, GammaCandidate(x0=0.5 * (u + v), x1=x1, x3=0.5 * (u - v))


def _brent_polish(f, a, b, x, fx):
    """Brent's localmin of f on [a, b] from x, whose value is fx.

    Brent, Algorithms for Minimization without Derivatives (1973), ch. 5.
    Stops at 1e-12 max(1, |x|) and returns the best point and its value.
    """
    w = v = x
    fw = fv = fx
    d = e = 0.0
    while True:
        mid = 0.5 * (a + b)
        tol1 = 1e-12 * max(1.0, abs(x))
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (b - a):
            return x, fx
        p = q = r = 0.0
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            else:
                q = -q
            r = e
            e = d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q
            if (x + d) - a < tol2 or b - (x + d) < tol2:
                d = tol1 if x < mid else -tol1
        else:
            e = (b - x) if x < mid else (a - x)
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw = w, fw, x, fx
            x, fx = u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def gaussian_eof(params: StandardFormParams) -> tuple[float, float]:
    """Gaussian EOF and the minimizer value m_opt.

    Separable states short-circuit to (0, 1): the touching variety does not
    contain the infimum there.  A pure state is its own optimal
    decomposition, so its exact EOF f(Delta') is returned with
    m_opt = (Delta' + 1/Delta')^2 / 4, for which
    sqrt(m_opt) - sqrt(m_opt - 1) = Delta'.  Otherwise returns
    f(sqrt(m_opt) - sqrt(m_opt - 1)).
    """
    return _gaussian_eof(params, eof(params))


def _gaussian_eof(params: StandardFormParams,
                  base: EofReport) -> tuple[float, float]:
    """gaussian_eof with the state's eof() report already in hand."""
    if base.epr.separable:
        return 0.0, 1.0
    if base.method == "pure":
        dp = base.epr.delta0_prime
        return base.eof, (dp + 1.0 / dp) ** 2 / 4.0
    m_opt, _ = minimize_reduced_determinant(params)
    m_opt = max(m_opt, 1.0)
    return f_aux(math.sqrt(m_opt) - math.sqrt(m_opt - 1.0)), m_opt


def rigolin_lower(params: StandardFormParams) -> float:
    """Lower bound: EOF of the symmetric surrogate with n = m = (n+m)/2."""
    check_canonical(params)
    n_sym = 0.5 * (params.n + params.m)
    return symmetric_eof(n_sym, params.kx, params.kp).eof


def oliveira_upper(params: StandardFormParams) -> float | None:
    """Upper bound: EOF of the symmetric surrogate at the smaller invariant.

    The surrogate keeps kx, kp and sets both invariants to the smaller of
    n and m; a mode swap is a local operation leaving the EOF unchanged, so
    the mode order does not matter.  The surrogate's plain standard form is
    checked bona fide (local squeezing leaves the symplectic eigenvalues
    unchanged, so no squeezed form needs checking).  A non-physical
    surrogate returns None (a reported outcome, not an error).
    """
    check_canonical(params)
    lo = min(params.n, params.m)
    surrogate = StandardFormParams(n=lo, m=lo, kx=params.kx, kp=params.kp)
    if not validate_standard_form(surrogate).is_bona_fide:
        return None
    return symmetric_eof(lo, params.kx, params.kp).eof


def bounds_report(params: StandardFormParams) -> BoundsReport:
    """All bounds plus the EOF, with the sandwich inequalities asserted.

    Raises:
        SandwichViolation: the EOF fell outside
            [rigolin_lower - SANDWICH_TOL, gaussian_eof + SANDWICH_TOL] or
            above a physical upper bound; this signals an implementation bug.
    """
    base = eof(params)
    egf, m_opt = _gaussian_eof(params, base)
    lower = rigolin_lower(params)
    upper = oliveira_upper(params)
    value = base.eof
    if value < lower - SANDWICH_TOL or value > egf + SANDWICH_TOL:
        raise SandwichViolation(f"eof {value} outside [{lower}, {egf}] "
                                f"beyond tolerance {SANDWICH_TOL}")
    if upper is not None and value > upper + SANDWICH_TOL:
        raise SandwichViolation(f"eof {value} above the upper bound {upper} "
                                f"beyond tolerance {SANDWICH_TOL}")
    return BoundsReport(eof=value, gaussian_eof=egf, rigolin_lower=lower,
                        oliveira_upper=upper,
                        oliveira_physical=upper is not None, m_opt=m_opt)
