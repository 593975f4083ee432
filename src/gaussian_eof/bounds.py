"""Gaussian EOF by constrained minimization, published bounds, sandwich report.

The Gaussian EOF minimizes the entanglement of pure Gaussian states whose
CM sits below the target state's CM.  Writing the pure-state x-block as
Gamma = [[x0+x3, x1], [x1, x0-x3]], the optimum touches both constraints
det(C_x - Gamma) = 0 and det(Gamma - C_p^{-1}) = 0, where C_x and C_p are
the x and p blocks of the standard-form CM.  At fixed x1 the two touching
conditions are rectangular hyperbolas in (x0+x3, x0-x3) whose intersection
lies on a line, so the feasible points are roots of a single quadratic;
the remaining one-dimensional problem in x1 is scanned in numpy, polished
by golden section.
"""

import math
from dataclasses import dataclass

import numpy as np

from .eof_core import EofReport, eof, f_aux, symmetric_eof
from .errors import Infeasible, SandwichViolation
from .standard_form import StandardFormParams, validate_standard_form

SCAN_POINTS = 2048
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
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
    """Feasible (u, v, objective) triples at fixed x1, u/v = x0 +/- x3.

    The two touching conditions are (cx11 - u)(cx22 - v) = (kx - x1)^2 and
    (u - p11)(v - p22) = (x1 - p12)^2; subtracting them shows all
    intersections lie on a line, leaving a quadratic in u.
    """
    alpha2 = (kx - x1) ** 2
    beta2 = (x1 - p12) ** 2
    a_coef = cx22 - p22
    b_coef = a_coef * (cx11 + p11) - alpha2 + beta2
    c_coef = p11 * a_coef * cx11 - p11 * alpha2 + beta2 * cx11
    if abs(a_coef) < 1e-14:
        roots = [c_coef / b_coef] if abs(b_coef) > 1e-14 else []
    else:
        disc = b_coef * b_coef - 4.0 * a_coef * c_coef
        if disc < 0.0:
            return []
        sq = math.sqrt(disc)
        q = 0.5 * (b_coef + sq) if b_coef >= 0.0 else 0.5 * (b_coef - sq)
        roots = [q / a_coef] if q == 0.0 else [q / a_coef, c_coef / q]
    out = []
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
        out.append((u, v, 1.0 + x1 * x1 / det_g))
    return out


def _grid_objective(xs, cx11, cx22, kx, p11, p22, p12):
    """Smallest objective of _candidates_at_x1 at every x1 in xs, inf where none.

    The same closed form, thresholds and feasibility filters, evaluated over
    the whole grid with the same operations in the same order, so each entry
    equals the scalar minimum exactly.  The squares go through float_power,
    i.e. the C pow that the scalar ``** 2`` calls; ``x * x`` can differ from
    it in the last bit.
    """
    alpha2 = np.float_power(kx - xs, 2)
    beta2 = np.float_power(xs - p12, 2)
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
    cx, cp = _xp_blocks(params)
    pinv = np.linalg.inv(cp)
    return (float(cx[0, 0]), float(cx[1, 1]), float(cx[0, 1]),
            float(pinv[0, 0]), float(pinv[1, 1]), float(pinv[0, 1]))


def minimize_reduced_determinant(params: StandardFormParams,
                                 n_scan: int = SCAN_POINTS
                                 ) -> tuple[float, GammaCandidate]:
    """Minimize det of the reduced pure-state CM over the touching variety.

    Scans x1 in [-kx, kx] in numpy, solving the touching conditions exactly
    at every grid point at once, and polishes the winner by golden section
    to 1e-12 in the objective.

    Raises:
        Infeasible: no parameter point satisfies both constraints with a
            positive-definite Gamma (separable or invalid input).
    """
    coefs = _scan_coefficients(params)
    kx = coefs[2]

    def best(x1):
        cands = _candidates_at_x1(x1, *coefs)
        if not cands:
            return None
        return min(cands, key=lambda c: c[2])

    xs = np.linspace(-kx, kx, n_scan)
    grid = _grid_objective(xs, *coefs)
    if not np.any(grid < math.inf):
        raise Infeasible("no feasible touching point; state separable or invalid")
    i0 = int(np.argmin(grid))
    obj0, x1_0 = float(grid[i0]), float(xs[i0])
    step = xs[1] - xs[0] if n_scan > 1 else kx
    lo = max(x1_0 - step, -kx)
    hi = min(x1_0 + step, kx)

    def objective(x1):
        cand = best(x1)
        return math.inf if cand is None else cand[2]

    # golden-section polish, stopping on the objective
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(300):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = objective(d)
        tiny_bracket = (b - a) <= 1e-13 * max(1.0, abs(a) + abs(b))
        if abs(fc - fd) <= 1e-12 * max(1.0, abs(fc)) and tiny_bracket:
            break
    x1_star = c if fc < fd else d
    cand = best(x1_star)
    if cand is None or cand[2] > obj0:
        x1_star = x1_0
        cand = best(x1_0)
    u, v, obj = cand
    m_opt = float(min(obj, obj0))
    return m_opt, GammaCandidate(x0=0.5 * (u + v), x1=float(x1_star),
                                 x3=0.5 * (u - v))


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
