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
on which 1 + x1^2 / det Gamma is stationary at the roots of a quartic.
"""

import cmath
import math
from typing import NamedTuple

from .eof_core import EofReport, _entropy, _symmetric, eof, f_aux
from .errors import Infeasible, SandwichViolation
from .standard_form import (_VACUUM_TOL, SANDWICH_TOL, StandardFormParams,
                            check_canonical, validate_standard_form)

_OMEGA = complex(-0.5, 0.5 * math.sqrt(3.0))   # a cube root of 1


class GammaCandidate(NamedTuple):
    """Pure-state block parameters at a feasible point of the minimization."""
    x0: float
    x1: float
    x3: float


class BoundsReport(NamedTuple):
    eof: float
    gaussian_eof: float
    rigolin_lower: float
    oliveira_upper: float | None
    oliveira_physical: bool
    m_opt: float

    def to_dict(self) -> dict:
        return self._asdict()


def _blocks(params: StandardFormParams) -> tuple[tuple[float, ...], ...]:
    """Entries (11, 22, 12) of C_p^{-1} and of K = C_x - C_p^{-1}."""
    n, m, kx, kp = params.n, params.m, params.kx, params.kp
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
    """1 + x1^2 / det Gamma(theta), or inf (no score) where det Gamma <= 0."""
    u, v, x1 = _gamma(theta, ellipse)
    det = u * v - x1 * x1
    return 1.0 + x1 * x1 / det if det > 0.0 else math.inf


def minimize_reduced_determinant(params: StandardFormParams
                                 ) -> tuple[float, GammaCandidate]:
    """Minimize det of the reduced pure-state CM over the touching ellipse.

    With K = C_x - C_p^{-1}, S = sqrt(K) = (K + sqrt(det K) I) /
    sqrt(tr K + 2 sqrt(det K)) and the reflection R(theta) =
    [[cos, sin], [sin, -cos]], the pure-state blocks touching both
    constraints are Gamma(theta) = C_p^{-1} + (K + S R(theta) S) / 2: both
    Gamma - C_p^{-1} and C_x - Gamma are then rank-one PSD.  x1 and
    D = det Gamma are affine in (cos theta, sin theta), so 1 + x1^2 / D is
    stationary where x1 = 0 (m = 1: separable) or N = 2 x1' D - x1 D' = 0,
    a quartic in t = tan((theta - theta0) / 2) with leading coefficient
    N(theta0 + pi), theta0 the multiple of pi / 2 that makes it largest.
    The best of theta0 + pi and the roots' real parts takes one Newton step
    on N from Gamma(theta) itself, kept if it scores lower: in a narrow
    basin N's coefficients cancel and misplace the root (by 1e-7 at n, m
    near 1e5).  N = 0 where K = 0, a pure state.  At nu_- = 1, K has rank
    one and det K = (nu_-^2 - 1)(nu_+^2 - 1) / det C_p is rounding noise
    that standard_form_nu cannot resolve at large n; within _VACUUM_TOL
    K11 K22 it is taken as 0, S = K / sqrt(tr K), and the ellipse is a
    segment traversed twice, with no separate path.

    Raises:
        DomainError: parameters not canonical.
        Infeasible: the state is not bona fide (validate_standard_form),
            so no pure state lies below it, or det Gamma rounds to <= 0 at
            every candidate angle.
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
    # with w = (cos, sin)(theta / 2): x1 = p12 + y1 y2 = x0 + xc cos + xs sin,
    # D = det C_p^{-1} + w^T S adj(C_p^{-1}) S w = d0 + dc cos + ds sin
    x0 = p12 + 0.5 * k12
    xc, xs = 0.5 * s12 * (s11 - s22), 0.5 * (s11 * s22 + s12 * s12)
    a11, a12 = s11 * p22 - s12 * p12, s12 * p11 - s11 * p12   # S adj(C_p^{-1})
    a21, a22 = s12 * p22 - s22 * p12, s22 * p11 - s12 * p12
    m11, m22 = a11 * s11 + a12 * s12, a21 * s12 + a22 * s22
    d0 = p11 * p22 - p12 * p12 + 0.5 * (m11 + m22)
    dc, ds = 0.5 * (m11 - m22), a11 * s12 + a12 * s22
    # N = a0 + a1 cos + b1 sin + a2 cos 2theta + b2 sin 2theta
    a0 = 1.5 * (xs * dc - xc * ds)
    a1, b1 = 2.0 * xs * d0 - x0 * ds, x0 * dc - 2.0 * xc * d0
    a2, b2 = 0.5 * (xs * dc + xc * ds), 0.5 * (xs * ds - xc * dc)
    rotated = ((a1, b1, a2, b2), (b1, -a1, -a2, -b2),   # seen from k pi / 2
               (-a1, -b1, a2, b2), (-b1, a1, -a2, -b2))
    k, (c1, s1, c2, s2) = max(enumerate(rotated),
                              key=lambda kc: abs(a0 - kc[1][0] + kc[1][2]))
    lead, theta0 = a0 - c1 + c2, 0.5 * math.pi * k
    if lead == 0.0:   # N = b2 sin 2theta, 0 at the anchors, or N = 0
        thetas = [0.5 * math.pi * i for i in range(4)]
    else:
        ts = _quartic_roots(lead, 2.0 * (s1 - 2.0 * s2), 2.0 * (a0 - 3.0 * c2),
                            2.0 * (s1 + 2.0 * s2), a0 + c1 + c2)
        thetas = [theta0 + math.pi] + [theta0 + 2.0 * math.atan(t.real) for t in ts]
    amp = math.hypot(xc, xs)
    if abs(x0) < amp:
        thetas.append(math.atan2(xs, xc) + math.acos(-x0 / amp))
    m_opt, theta = min((_objective(theta, ellipse), theta) for theta in thetas)
    if m_opt == math.inf:   # det Gamma rounds to <= 0, as at n above 1e7
        raise Infeasible("det Gamma <= 0 at every candidate on the ellipse")
    c, sn = math.cos(0.5 * theta), math.sin(0.5 * theta)
    y1, y2 = s11 * c + s12 * sn, s12 * c + s22 * sn
    z1, z2 = s12 * c - s11 * sn, s22 * c - s12 * sn   # 2 dy / dtheta
    u, v, x1 = _gamma(theta, ellipse)
    n_theta = (z1 * y2 + y1 * z2) * u * v - x1 * (y1 * z1 * v + u * y2 * z2)
    slope = (b1 * math.cos(theta) - a1 * math.sin(theta)
             + 2.0 * (b2 * math.cos(2.0 * theta) - a2 * math.sin(2.0 * theta)))
    step = theta - n_theta / slope if abs(n_theta) < math.pi * abs(slope) else theta
    m_opt, theta = min((m_opt, theta), (_objective(step, ellipse), step))
    u, v, x1 = _gamma(theta, ellipse)
    return m_opt, GammaCandidate(x0=0.5 * (u + v), x1=x1, x3=0.5 * (u - v))


def _quartic_roots(a, b, c, d, e):
    """The complex roots of a t^4 + b t^3 + c t^2 + d t + e, a != 0, by Ferrari.

    t = y - s leaves y^4 + p y^2 + q y + r, which splits into two quadratics
    through the root m of its resolvent cubic of largest size (Cardano); m is
    0 only when p = q = r = 0, so a biquadratic (q = 0) needs no own branch.
    """
    s = 0.25 * b / a
    c, d, e = c / a, d / a, e / a
    p = c - 6.0 * s * s
    q = d - 2.0 * s * c + 8.0 * s * s * s
    r = e - s * d + s * s * (c - 3.0 * s * s)
    # resolvent m^3 + p m^2 + g m - q^2 / 8; m = z - h leaves z^3 + f z + j
    g, h = 0.25 * p * p - r, p / 3.0
    f, j = g - 3.0 * h * h, h * (2.0 * h * h - g) - 0.125 * q * q
    w = cmath.sqrt(0.25 * j * j + f * f * f / 27.0)
    u = (-0.5 * j - (w if j >= 0.0 else -w)) ** (1.0 / 3.0)   # 0 iff f = j = 0
    m = max(((u * z - f / (3.0 * u * z) if u else 0.0) - h
             for z in (1.0, _OMEGA, _OMEGA.conjugate())), key=abs)
    root = cmath.sqrt(2.0 * m)
    if root == 0.0:   # y^4 = 0
        return [-s]
    ts = []
    for sign in (1.0, -1.0):
        disc = cmath.sqrt(-2.0 * (m + p + sign * q / root))
        ts += [0.5 * (sign * root + disc) - s, 0.5 * (sign * root - disc) - s]
    return ts


def gaussian_eof(params: StandardFormParams) -> tuple[float, float]:
    """Gaussian EOF and the minimizer value m_opt.

    m_opt = cosh^2 2r is the reduced determinant of the optimal pure state,
    a two-mode squeezed state with s = sinh^2 r = (sqrt(m_opt) - 1) / 2, and
    the value is its entanglement g(1 + s), with s formed as
    (m_opt - 1) / (2 (sqrt(m_opt) + 1)), where nothing cancels.  Separable
    states short-circuit to (0, 1): the touching variety does not contain
    the infimum there.  A pure state is its own optimal decomposition, so
    its exact EOF f(Delta') is returned with m_opt = (Delta' + 1/Delta')^2 / 4,
    at which g(1 + s) = f(Delta').
    """
    return _gaussian_eof(params, eof(params))


def _gaussian_eof(params: StandardFormParams,
                  base: EofReport) -> tuple[float, float]:
    """gaussian_eof with the state's eof() report in hand: on the pure
    route its Delta' is the symmetric closed form's."""
    if base.epr.separable:
        return 0.0, 1.0
    if base.method == "pure":
        dp = base.epr.delta0_prime
        return base.eof, (dp + 1.0 / dp) ** 2 / 4.0
    m_opt, _ = minimize_reduced_determinant(params)
    return _entropy(0.5 * (m_opt - 1.0) / (math.sqrt(m_opt) + 1.0)), m_opt


def rigolin_lower(params: StandardFormParams) -> float:
    """Lower bound: EOF of the symmetric surrogate with n = m = (n+m)/2."""
    check_canonical(params)
    n_sym = 0.5 * (params.n + params.m)
    return f_aux(_symmetric(n_sym, params.kx, params.kp).delta0_prime)


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
    return f_aux(_symmetric(lo, params.kx, params.kp).delta0_prime)


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
