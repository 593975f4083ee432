"""Gaussian EOF by constrained minimization, published bounds, sandwich report.

The Gaussian EOF minimizes the entanglement of pure Gaussian states whose
CM sits below the target state's CM.  Writing the pure-state x-block as
Gamma = [[x0+x3, x1], [x1, x0-x3]], the optimum touches both constraints
det(C_x - Gamma) = 0 and det(Gamma - C_p^{-1}) = 0, where C_x and C_p are
the x and p blocks of the standard-form CM.  At fixed x1 the two touching
conditions are rectangular hyperbolas in (x0+x3, x0-x3) whose intersection
lies on a line, so the feasible points are roots of a single quadratic;
the remaining one-dimensional problem in x1 is scanned in numpy, and the
grid winner is polished by Brent's parabolic minimization.
"""

import math
from dataclasses import dataclass

import numpy as np

from .eof_core import EofReport, eof, f_aux, symmetric_eof
from .errors import Infeasible, SandwichViolation
from .standard_form import StandardFormParams, validate_standard_form

SCAN_POINTS = 2048
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_PSD_SIDE_TOL = 1e-11
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

    def matrix(self) -> np.ndarray:
        return np.array([[self.x0 + self.x3, self.x1],
                         [self.x1, self.x0 - self.x3]])

    def constraint_residuals(self, params: StandardFormParams) -> tuple[float, float]:
        cx, cp = _xp_blocks(params)
        g = self.matrix()
        return (float(np.linalg.det(cx - g)),
                float(np.linalg.det(g - np.linalg.inv(cp))))


@dataclass(frozen=True)
class BoundsReport:
    eof: float
    gaussian_eof: float
    rigolin_lower: float
    oliveira_upper: float | None
    oliveira_physical: bool
    m_opt: float

    def to_dict(self) -> dict:
        return {
            "eof": self.eof,
            "gaussian_eof": self.gaussian_eof,
            "rigolin_lower": self.rigolin_lower,
            "oliveira_upper": self.oliveira_upper,
            "oliveira_physical": self.oliveira_physical,
            "m_opt": self.m_opt,
        }


def _xp_blocks(params: StandardFormParams) -> tuple[np.ndarray, np.ndarray]:
    n, m, kx, kp = params.n, params.m, params.kx, params.kp
    cx = np.array([[n, kx], [kx, m]])
    cp = np.array([[n, kp], [kp, m]])
    return cx, cp


def _candidates_at_x1(x1, cx11, cx22, kx, p11, p22, p12):
    """Lowest-objective feasible (u, v, objective) at fixed x1, u/v = x0 +/- x3.

    The two touching conditions are (cx11 - u)(cx22 - v) = (kx - x1)^2 and
    (u - p11)(v - p22) = (x1 - p12)^2; subtracting them shows all
    intersections lie on a line, leaving a quadratic in u.  Returns None
    where no root is feasible.
    """
    dx = kx - x1
    dp = x1 - p12
    alpha2 = dx * dx
    beta2 = dp * dp
    a_coef = cx22 - p22
    b_coef = a_coef * (cx11 + p11) - alpha2 + beta2
    c_coef = p11 * a_coef * cx11 - p11 * alpha2 + beta2 * cx11
    if abs(a_coef) < 1e-14:
        roots = (c_coef / b_coef,) if abs(b_coef) > 1e-14 else ()
    else:
        disc = b_coef * b_coef - 4.0 * a_coef * c_coef
        if disc < 0.0:
            return None
        sq = math.sqrt(disc)
        q = 0.5 * (b_coef + sq) if b_coef >= 0.0 else 0.5 * (b_coef - sq)
        roots = (q / a_coef,) if q == 0.0 else (q / a_coef, c_coef / q)
    best = None
    den = cx11 - p11
    for u in roots:
        if abs(den) > 1e-12:
            v = (-(cx22 - p22) * u + (cx11 * cx22 - alpha2)
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


def _grid_objective(xs, cx11, cx22, kx, p11, p22, p12):
    """Objective of _candidates_at_x1 at every x1 in xs, inf where none.

    The same closed form, thresholds and feasibility filters, evaluated over
    the whole grid with the same operations in the same order, so each entry
    equals the scalar minimum exactly.
    """
    dx = kx - xs
    dp = xs - p12
    alpha2 = dx * dx
    beta2 = dp * dp
    a_coef = cx22 - p22
    b_coef = a_coef * (cx11 + p11) - alpha2 + beta2
    c_coef = p11 * a_coef * cx11 - p11 * alpha2 + beta2 * cx11
    best = np.full(xs.shape, math.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        if abs(a_coef) < 1e-14:
            roots = [(c_coef / b_coef, np.abs(b_coef) > 1e-14)]
        else:
            disc = b_coef * b_coef - 4.0 * a_coef * c_coef
            real = ~(disc < 0.0)
            sq = np.sqrt(disc)
            q = np.where(b_coef >= 0.0, 0.5 * (b_coef + sq), 0.5 * (b_coef - sq))
            roots = [(q / a_coef, real), (c_coef / q, real & (q != 0.0))]
        den = cx11 - p11
        for u, ok in roots:
            if abs(den) > 1e-12:
                v = (-a_coef * u + (cx11 * cx22 - alpha2)
                     - (p11 * p22 - beta2)) / den
            else:
                du = cx11 - u
                ok = ok & ~(np.abs(du) < 1e-14)
                v = cx22 - alpha2 / du
            det_g = u * v - xs * xs
            rejected = ((u <= 0.0) | (v <= 0.0) | (det_g <= 0.0)
                        | ((cx11 - u) < -_PSD_SIDE_TOL)
                        | ((cx22 - v) < -_PSD_SIDE_TOL)
                        | ((u - p11) < -_PSD_SIDE_TOL)
                        | ((v - p22) < -_PSD_SIDE_TOL))
            obj = 1.0 + xs * xs / det_g
            best = np.where(ok & ~rejected, np.minimum(best, obj), best)
    return best


def _scan_coefficients(params: StandardFormParams) -> tuple[float, ...]:
    """(cx11, cx22, kx, p11, p22, p12): C_x entries and C_p^{-1} entries."""
    n, m, kx, kp = (float(params.n), float(params.m), float(params.kx),
                    float(params.kp))
    det_p = n * m - kp * kp
    return n, m, kx, m / det_p, n / det_p, -kp / det_p


def minimize_reduced_determinant(params: StandardFormParams,
                                 n_scan: int = SCAN_POINTS
                                 ) -> tuple[float, GammaCandidate]:
    """Minimize det of the reduced pure-state CM over the touching variety.

    Scans x1 in [-kx, kx] in numpy, solving the touching conditions exactly
    at every grid point at once, and polishes the winner within one grid
    step on either side by Brent's localmin (successive parabolic
    interpolation, golden-section steps where a parabola is refused) to
    1e-12 relative in x1.  The result is never above the grid winner.

    Raises:
        Infeasible: no parameter point satisfies both constraints with a
            positive-definite Gamma (separable or invalid input).
    """
    coefs = _scan_coefficients(params)
    kx = coefs[2]
    xs = np.linspace(-kx, kx, n_scan)
    grid = _grid_objective(xs, *coefs)
    if not np.any(grid < math.inf):
        raise Infeasible("no feasible touching point; state separable or invalid")
    i0 = int(np.argmin(grid))
    obj0, x1_0 = float(grid[i0]), float(xs[i0])
    step = float(xs[1] - xs[0]) if n_scan > 1 else kx
    x1_star, cand = _brent_polish(coefs, max(x1_0 - step, -kx),
                                  min(x1_0 + step, kx), x1_0, obj0)
    if cand is None:
        # no feasible point at or below obj0 was found: keep the grid point
        x1_star, cand = x1_0, _candidates_at_x1(x1_0, *coefs)
    u, v, obj = cand
    m_opt = min(obj, obj0)
    return m_opt, GammaCandidate(x0=0.5 * (u + v), x1=float(x1_star),
                                 x3=0.5 * (u - v))


def _brent_polish(coefs, a, b, x, fx):
    """Brent's localmin of the objective on [a, b] from x, whose value is fx.

    Brent, Algorithms for Minimization without Derivatives (1973), ch. 5.
    The objective is inf where no point is feasible, so a parabola is
    fitted only through finite values.  Returns the final x and its
    _candidates_at_x1 triple, or None when no trial point improved on fx.
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
        cu = _candidates_at_x1(u, *coefs)
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
