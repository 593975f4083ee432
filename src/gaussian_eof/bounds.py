"""Gaussian EOF by constrained minimization, published bounds, sandwich report.

The Gaussian EOF minimizes the entanglement of pure Gaussian states whose
CM sits below the target state's CM.  Writing the pure-state x-block as
Gamma = [[x0+x3, x1], [x1, x0-x3]], the optimum touches both constraints
det(C_x - Gamma) = 0 and det(Gamma - C_p^{-1}) = 0, where C_x and C_p are
the x and p blocks of the standard-form CM.  At fixed x1 the two touching
conditions are rectangular hyperbolas in (x0+x3, x0-x3) whose intersection
lies on a line, so the feasible points are roots of a single quadratic;
the remaining one-dimensional problem in x1 is scanned coarsely and
polished by Brent's parabolic minimization, in scalar arithmetic.
"""

import math
from dataclasses import asdict, dataclass

from .eof_core import EofReport, eof, f_aux, symmetric_eof
from .errors import Infeasible, SandwichViolation
from .standard_form import StandardFormParams, validate_standard_form

SCAN_POINTS = 16
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_PSD_SIDE_TOL = 1e-11
_VACUUM_TOL = 1e-13   # det(C_x - C_p^-1) <= this * aD: nu_- = 1, take the double root
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
        cx11, cx22, kx, p11, p22, p12 = _scan_coefficients(params)
        u, v, x1 = self.x0 + self.x3, self.x0 - self.x3, self.x1
        return ((cx11 - u) * (cx22 - v) - (kx - x1) ** 2,
                (u - p11) * (v - p22) - (x1 - p12) ** 2)


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


def _candidates_at_x1(x1, cx11, cx22, kx, p11, p22, p12, double_root=False):
    """Lowest-objective feasible (u, v, objective) at fixed x1, u/v = x0 +/- x3.

    The two touching conditions are (cx11 - u)(cx22 - v) = (kx - x1)^2 and
    (u - p11)(v - p22) = (x1 - p12)^2; subtracting them shows all
    intersections lie on a line, leaving a quadratic a u^2 - b u + c = 0,
    a = cx22 - p22.  With D = cx11 - p11 its discriminant factors as
    det(C_x - C_p^{-1}) (aD - (kx + p12 - 2 x1)^2).  At nu_- = 1 the first
    factor is rounding noise of either sign: C_x - C_p^{-1} has rank one,
    the feasible Gammas form a segment, and double_root takes the double
    root.  Returns None where no root is feasible.
    """
    dx = kx - x1
    dp = x1 - p12
    alpha2 = dx * dx
    beta2 = dp * dp
    a_coef = cx22 - p22
    den = cx11 - p11
    b_coef = a_coef * (cx11 + p11) - alpha2 + beta2
    c_coef = p11 * a_coef * cx11 - p11 * alpha2 + beta2 * cx11
    if abs(a_coef) < 1e-14:
        roots = (c_coef / b_coef,) if abs(b_coef) > 1e-14 else ()
    elif double_root:
        roots = (0.5 * b_coef / a_coef,)
    else:
        # b^2 - 4ac, factored so that it does not cancel where the roots meet
        ad = a_coef * den
        disc = (ad - (kx - p12) ** 2) * (ad - (kx + p12 - 2.0 * x1) ** 2)
        if disc < 0.0:
            return None
        sq = math.sqrt(disc)
        q = 0.5 * (b_coef + sq) if b_coef >= 0.0 else 0.5 * (b_coef - sq)
        roots = (q / a_coef,) if q == 0.0 else (q / a_coef, c_coef / q)
    best = None
    for u in roots:
        if abs(den) > 1e-12:
            v = (-a_coef * u + (cx11 * cx22 - alpha2)
                 - (p11 * p22 - beta2)) / den
        else:
            du = cx11 - u
            if abs(du) < 1e-14:
                continue
            v = cx22 - alpha2 / du
        if u <= 0.0 or v <= 0.0:
            continue
        det_g = u * v - x1 * x1
        if det_g <= 0.0:
            continue
        # touching from the feasible side: the singular difference matrices
        # must be PSD, i.e. their diagonals non-negative
        if (cx11 - u) < -_PSD_SIDE_TOL or (cx22 - v) < -_PSD_SIDE_TOL:
            continue
        if (u - p11) < -_PSD_SIDE_TOL or (v - p22) < -_PSD_SIDE_TOL:
            continue
        obj = 1.0 + x1 * x1 / det_g
        if best is None or obj < best[2]:
            best = (u, v, obj)
    return best


def _scan_coefficients(params: StandardFormParams) -> tuple[float, ...]:
    """(cx11, cx22, kx, p11, p22, p12): C_x entries and C_p^{-1} entries."""
    n, m, kx, kp = (float(params.n), float(params.m), float(params.kx),
                    float(params.kp))
    det_p = n * m - kp * kp
    return n, m, kx, m / det_p, n / det_p, -kp / det_p


def _feasible_edge(coefs, out, inside, cand):
    """Bisect from an infeasible x1 `out` to a feasible `inside` (whose
    _candidates_at_x1 triple is cand) until they are 1e-12 relative apart;
    returns the last feasible x1 and its triple."""
    while abs(inside - out) > 1e-12 * max(1.0, abs(inside)):
        mid = 0.5 * (out + inside)
        c = _candidates_at_x1(mid, *coefs)
        if c is None:
            out = mid
        else:
            inside, cand = mid, c
    return inside, cand


def minimize_reduced_determinant(params: StandardFormParams,
                                 n_scan: int = SCAN_POINTS
                                 ) -> tuple[float, GammaCandidate]:
    """Minimize det of the reduced pure-state CM over the touching variety.

    Scans the midpoints of n_scan equal cells of the x1 range (within
    [-kx, kx]) where the touching quadratic has real roots, and polishes
    the best by Brent's localmin (successive parabolic interpolation,
    golden-section steps where a parabola is refused) to 1e-12 relative.
    The neighbouring scan points close the bracket; past the first or last
    point a range end closes it, and an infeasible neighbour is replaced by
    the feasibility edge bisected between them.  At a range end the two
    roots meet, so the objective moves as the square root of the distance
    to it, and the minimum usually sits just inside: the polish runs in
    s = sqrt(|x1 - origin|), origin being such an edge where the bracket
    has one, in which the objective is smooth.  At nu_- = 1,
    det(C_x - C_p^{-1}) = (nu_-^2 - 1)(nu_+^2 - 1) / det C_p vanishes, to
    rounding (_VACUUM_TOL aD) that standard_form_nu cannot resolve at large
    n, and the quadratic's double root is taken.  The result is never
    above the best scan point.

    Raises:
        Infeasible: no parameter point satisfies both constraints with a
            positive-definite Gamma (separable or invalid input).
    """
    cx11, cx22, kx, p11, p22, p12 = coefs = _scan_coefficients(params)
    ad = (cx22 - p22) * (cx11 - p11)
    coefs += (ad - (kx - p12) ** 2 <= _VACUUM_TOL * ad,)
    # real roots: |2 x1 - kx - p12| <= sqrt(aD), i.e. [p12, kx] at nu_- = 1
    half, mid = 0.5 * math.sqrt(max(ad, 0.0)), 0.5 * (kx + p12)
    lo, hi = max(-kx, mid - half), min(kx, mid + half)
    step = (hi - lo) / max(n_scan, 1)
    xs = [lo + (i + 0.5) * step for i in range(n_scan)]
    scan = [_candidates_at_x1(x1, *coefs) for x1 in xs]
    feasible = [i for i, cand in enumerate(scan) if cand is not None]
    if not feasible:
        raise Infeasible("no feasible touching point; state separable or invalid")
    i0 = min(feasible, key=lambda i: scan[i][2])
    x, cand = xs[i0], scan[i0]
    ends, edges = [lo, hi], [True, True]
    for k, j in enumerate((i0 - 1, i0 + 1)):
        if 0 <= j < n_scan and scan[j] is not None:
            ends[k], edges[k] = xs[j], False
        elif 0 <= j < n_scan:
            ends[k], edge = _feasible_edge(coefs, xs[j], xs[i0], scan[i0])
            if edge[2] < cand[2]:
                x, cand = ends[k], edge
    origin, far = ends[::-1] if edges[1] and not edges[0] else ends
    sign = 1.0 if far >= origin else -1.0
    s_star, polished = _brent_polish(
        lambda s: _candidates_at_x1(origin + sign * s * s, *coefs), 0.0,
        math.sqrt(abs(far - origin)), math.sqrt(abs(x - origin)), cand[2])
    if polished is not None:
        x, cand = origin + sign * s_star * s_star, polished
    u, v, m_opt = cand
    return m_opt, GammaCandidate(x0=0.5 * (u + v), x1=x, x3=0.5 * (u - v))


def _brent_polish(trial, a, b, x, fx):
    """Brent's localmin of trial(s)[2] on [a, b] from x, whose value is fx.

    Brent, Algorithms for Minimization without Derivatives (1973), ch. 5.
    trial returns a _candidates_at_x1 triple or None where no point is
    feasible, whose objective counts as inf, so a parabola is fitted only
    through finite values.  Returns the final point and its triple, or None
    in place of the triple when no trial point improved on fx.
    """
    cand = None
    w = v = x
    fw = fv = fx
    d = e = 0.0
    while True:
        mid = 0.5 * (a + b)
        tol1 = 1e-12 * max(1.0, abs(x))
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (b - a):
            return x, cand
        p = q = r = 0.0
        if abs(e) > tol1 and fw < math.inf and fv < math.inf:
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
        cu = trial(u)
        fu = math.inf if cu is None else cu[2]
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw = w, fw, x, fx
            x, fx, cand = u, fu, cu
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
    if base.epr.separable or params.is_product:
        return 0.0, 1.0
    if base.method == "pure":
        dp = base.epr.delta0_prime
        return base.eof, (dp + 1.0 / dp) ** 2 / 4.0
    m_opt, _ = minimize_reduced_determinant(params)
    m_opt = max(m_opt, 1.0)
    return f_aux(math.sqrt(m_opt) - math.sqrt(m_opt - 1.0)), m_opt


def rigolin_lower(params: StandardFormParams) -> float:
    """Lower bound: EOF of the symmetric surrogate with n = m = (n+m)/2."""
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
