"""Standard-form layer: the parameters (n, m, kx, kp), their closed-form
validation, and the reduction of a raw CM to them, in scalar arithmetic.

Conventions used throughout the package:

* quadrature ordering (x_A, p_A, x_B, p_B);
* the covariance matrix is dimensionless and vacuum-normalized, so the
  vacuum CM is the 4x4 identity (some texts use a 1/2 normalization);
* a matrix is a bona fide CM iff both symplectic eigenvalues are >= 1.

Standard form parameters (n, m, kx, kp) refer to the locally-equivalent CM
with diagonal blocks n*I, m*I and off-diagonal block diag(kx, kp); the
one-mode squeezing factors (r1, r2), when present, place the CM in the
fully reduced form used by the EPR-uncertainty pipeline.

Raw matrices are validated and reduced here too, in closed form: one
signed standard form serves both validate_cm and reduce_to_standard_params.

This module imports only the standard library, so the eof() pipeline and
the CLI validate report run without numpy; symplectic_core holds the
matrix constructors.
"""

import math
from dataclasses import asdict, dataclass, replace

from .errors import DomainError, InvalidState, NonFiniteEntry

TOL_SYM = 1e-12       # max |gamma_ij - gamma_ji|, relative to max(1, max |gamma_ij|)
TOL_PSD = 1e-9        # bona fide / purity tolerance on symplectic eigenvalues
TOL_PRODUCT = 1e-12   # |kx|, |kp| below this means product state


@dataclass(frozen=True)
class StandardFormParams:
    """Standard-form description (n, m, kx, kp) plus optional squeezing factors.

    n and m are the local symplectic invariants sqrt(det A), sqrt(det B) of
    the two mode blocks; kx and kp are the x and p correlations after
    canonicalization (kx >= |kp|, kp <= 0 for entangled candidates).
    """

    n: float
    m: float
    kx: float
    kp: float
    r1: float | None = None
    r2: float | None = None

    @property
    def is_product(self) -> bool:
        return abs(self.kx) < TOL_PRODUCT and abs(self.kp) < TOL_PRODUCT

    def with_squeezings(self, r1: float, r2: float) -> "StandardFormParams":
        return StandardFormParams(self.n, self.m, self.kx, self.kp, r1, r2)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ValidityReport:
    is_symmetric_matrix: bool
    is_positive: bool
    symplectic_eigenvalues: tuple[float, float]
    is_bona_fide: bool
    is_pure: bool

    def to_dict(self) -> dict:
        return {
            "is_symmetric_matrix": self.is_symmetric_matrix,
            "is_positive": self.is_positive,
            "symplectic_eigenvalues": list(self.symplectic_eigenvalues),
            "is_bona_fide": self.is_bona_fide,
            "is_pure": self.is_pure,
        }


def standard_form_nu(n: float, m: float, kx: float,
                     kp: float) -> tuple[float, float]:
    """Symplectic eigenvalues (nu_-, nu_+) of the standard form (n, m, kx, kp).

    Closed form in the invariants Delta = n^2 + m^2 + 2 kx kp and
    det = (nm - kx^2)(nm - kp^2): nu_+^2 = (Delta + sqrt(Delta^2 - 4 det))/2
    and nu_-^2 = det / nu_+^2, which does not cancel when nu_+ >> nu_-.  The
    discriminant is evaluated as (n^2 - m^2)^2 + 4 (n kx + m kp)(m kx + n kp),
    which is exactly 0 on symmetric squeezed thermal states (pure ones
    included), where Delta^2 - 4 det cancels to rounding noise of size
    sqrt(eps) Delta.  Defined for a positive matrix: n > 0, nm > kx^2 and
    nm > kp^2.
    """
    delta = n * n + m * m + 2.0 * kx * kp
    det = (n * m - kx * kx) * (n * m - kp * kp)
    diff = n * n - m * m
    disc = diff * diff + 4.0 * (n * kx + m * kp) * (m * kx + n * kp)
    nu_plus_sq = 0.5 * (delta + math.sqrt(max(disc, 0.0)))
    return math.sqrt(det / nu_plus_sq), math.sqrt(nu_plus_sq)


def check_canonical(params: StandardFormParams) -> None:
    """Refuse parameters that are no admissible standard form: each must be
    finite, n, m >= 1 and kx >= -kp >= 0, each within 1e-12.

    Raises:
        DomainError: naming the first test that failed.
    """
    n, m, kx, kp = params.n, params.m, params.kx, params.kp
    if not (math.isfinite(n) and math.isfinite(m) and math.isfinite(kx)
            and math.isfinite(kp)):
        raise DomainError("parameters must be finite")
    if n < 1.0 - 1e-12 or m < 1.0 - 1e-12:
        raise DomainError(f"n, m must be >= 1, got ({n}, {m})")
    if kx < -1e-12 or kp > 1e-12 or kx < -kp - 1e-12:
        raise DomainError(
            f"parameters not canonical (need kx >= -kp >= 0): kx={kx}, kp={kp}")


def validate_standard_form(params: StandardFormParams) -> ValidityReport:
    """Validity of the plain standard form (n, m, kx, kp), in closed form.

    Positive iff n > 0, nm > kx^2 and nm > kp^2; bona fide iff also
    nu_- >= 1 - TOL_PSD; pure iff both symplectic eigenvalues lie within
    TOL_PSD of 1.  A matrix that is not positive has no symplectic
    eigenvalues and reports (nan, nan).

    Raises:
        NonFiniteEntry: if any parameter is NaN or infinite.
        DomainError: if standard_form_nu overflows to a non-finite value.
    """
    n, m, kx, kp = params.n, params.m, params.kx, params.kp
    if not (math.isfinite(n) and math.isfinite(m) and math.isfinite(kx)
            and math.isfinite(kp)):
        raise NonFiniteEntry("standard-form parameters must be finite")
    nm = n * m
    if not (n > 0.0 and nm > kx * kx and nm > kp * kp):
        return ValidityReport(True, False, (math.nan, math.nan), False, False)
    nu = standard_form_nu(n, m, kx, kp)
    if not (math.isfinite(nu[0]) and math.isfinite(nu[1])):
        raise DomainError(f"invariants of {(n, m, kx, kp)} leave the float range")
    bona_fide = nu[0] >= 1.0 - TOL_PSD
    pure = bona_fide and abs(nu[0] - 1.0) <= TOL_PSD and abs(nu[1] - 1.0) <= TOL_PSD
    return ValidityReport(True, True, nu, bona_fide, pure)


def _raw_cm(gamma) -> tuple[tuple[float, ...], bool]:
    """The upper triangle of (gamma + gamma^T)/2, row by row, and whether
    gamma is symmetric.

    gamma is a 4x4 array (read through its tolist()) or a nested sequence.
    The ten entries are (a0, a1, c00, c01, a2, c10, c11, b0, b1, b2), for
    the blocks A = [[a0, a1], [a1, a2]], B = [[b0, b1], [b1, b2]] and
    C = [[c00, c01], [c10, c11]].  Symmetric means
    |gamma_ij - gamma_ji| <= TOL_SYM max(1, max |gamma_ij|): the float
    product S gamma S^T of a symmetric gamma is asymmetric by rounding
    errors of the size of its largest entries.

    Raises:
        DomainError: if gamma is not a 4x4 matrix of numbers.
        NonFiniteEntry: if any entry is NaN or infinite.
    """
    rows = gamma.tolist() if hasattr(gamma, "tolist") else gamma
    try:
        r0, r1, r2, r3 = rows
        shaped = len(r0) == len(r1) == len(r2) == len(r3) == 4
        flat = [*map(float, r0), *map(float, r1), *map(float, r2), *map(float, r3)]
    except (TypeError, ValueError):   # a scalar, a 3-D array, a non-number
        shaped = False
    if not shaped:
        shape = getattr(gamma, "shape", None)
        raise DomainError("expected a 4x4 matrix of numbers"
                          + ("" if shape is None else f", got shape {shape}"))
    # entry by entry: max() over a NaN depends on where the NaN sits
    if not all(map(math.isfinite, flat)):
        raise NonFiniteEntry("covariance matrix has non-finite entries")
    (a0, a1, c00, c01, a1t, a2, c10, c11,
     c00t, c10t, b0, b1, c01t, c11t, b1t, b2) = flat
    skew = max(abs(a1 - a1t), abs(c00 - c00t), abs(c01 - c01t),
               abs(c10 - c10t), abs(c11 - c11t), abs(b1 - b1t))
    upper = (a0, 0.5 * (a1 + a1t), 0.5 * (c00 + c00t), 0.5 * (c01 + c01t),
             a2, 0.5 * (c10 + c10t), 0.5 * (c11 + c11t),
             b0, 0.5 * (b1 + b1t), b2)
    return upper, skew <= TOL_SYM * max(1.0, max(map(abs, flat)))


def _signed_form(a0, a1, c00, c01, a2, c10, c11, b0, b1, b2):
    """The signed standard form (n, m, q + r, q - r) of the _raw_cm upper
    triangle; None when A or B is not positive, DomainError where the
    normalisation underflows.

    The local normalisation of Duan et al. (PRL 84, 2722 (2000)) in closed
    form: the local symplectics sqrt(n) A^{-1/2} and sqrt(m) B^{-1/2} turn
    the diagonal blocks into n I and m I, n = sqrt(det A), m = sqrt(det B),
    and C into C' = sqrt(nm) A^{-1/2} C B^{-1/2}, whose singular values are
    q + r and |q - r|.  kp = q - r has the sign of det C, so the form keeps
    det A, det B, det C and det gamma, and with them the symplectic
    spectrum (Serafini, Illuminati & De Siena, J. Phys. B 37, L21 (2004)):
    it is positive, bona fide or pure exactly when the matrix is.
    """
    det_a = a0 * a2 - a1 * a1
    det_b = b0 * b2 - b1 * b1
    if not (a0 > 0.0 and det_a > 0.0 and b0 > 0.0 and det_b > 0.0):
        return None
    n = math.sqrt(det_a)
    m = math.sqrt(det_b)
    # A^{-1/2} = adj(A + nI) / (n sqrt(tr A + 2n)), likewise B^{-1/2}; the
    # entries of adj(A + nI) C adj(B + mI):
    x00, x01 = (a2 + n) * c00 - a1 * c10, (a2 + n) * c01 - a1 * c11
    x10, x11 = (a0 + n) * c10 - a1 * c00, (a0 + n) * c11 - a1 * c01
    y00, y01 = x00 * (b2 + m) - x01 * b1, x01 * (b0 + m) - x00 * b1
    y10, y11 = x10 * (b2 + m) - x11 * b1, x11 * (b0 + m) - x10 * b1
    norm = n * m * (a0 + a2 + 2.0 * n) * (b0 + b2 + 2.0 * m)
    if norm == 0.0:   # underflow, at entries of about 1e-77 and below
        raise DomainError("covariance matrix entries too small to reduce")
    scale = 0.5 / math.sqrt(norm)
    # C' = 2 scale y, whose determinant q^2 - r^2 has the sign of det C
    q = scale * math.hypot(y00 + y11, y10 - y01)
    r = scale * math.hypot(y00 - y11, y01 + y10)
    return StandardFormParams(n, m, q + r, q - r)


def validate_cm(gamma) -> ValidityReport:
    """Check symmetry, positivity and the uncertainty relation for a raw CM.

    gamma is a 4x4 array or nested sequence of numbers.  Bona fide means
    gamma + i*Omega >= 0, equivalently both symplectic eigenvalues
    >= 1 - TOL_PSD; states on the boundary within tolerance are accepted
    and flagged pure.  The report is validate_standard_form of the signed
    standard form of (gamma + gamma^T)/2, in closed form; bona fide and
    pure also require gamma to be symmetric.  A matrix that is not
    positive reports (nan, nan).

    Raises:
        DomainError: if gamma is not a 4x4 matrix of numbers, its entries
            are too small to reduce or its invariants overflow.
        NonFiniteEntry: if any entry is NaN or infinite.
    """
    upper, sym = _raw_cm(gamma)
    form = _signed_form(*upper)
    if form is None:
        return ValidityReport(sym, False, (math.nan, math.nan), False, False)
    report = validate_standard_form(form)
    if sym:
        return report
    return replace(report, is_symmetric_matrix=False, is_bona_fide=False,
                   is_pure=False)


def reduce_to_standard_params(gamma) -> StandardFormParams:
    """Validate a raw CM and reduce it to its standard form (n, m, kx, kp).

    gamma and its validation are validate_cm's; the result is the signed
    standard form (_signed_form), kx >= |kp|, canonicalized to kp <= 0.
    For classically-correlated inputs (det C > 0) the sign flip on kp
    amounts to a partial transposition, which leaves every entanglement
    quantity unchanged because such states are separable whenever they
    are bona fide.

    Raises:
        DomainError: as validate_cm.
        NonFiniteEntry: if any entry is NaN or infinite.
        InvalidState: if gamma is not a bona fide CM; the message names the
            test that failed (symmetric, positive, symplectic eigenvalues).
    """
    upper, sym = _raw_cm(gamma)
    if not sym:
        raise InvalidState("not a bona fide CM: the matrix is not symmetric")
    form = _signed_form(*upper)
    report = None if form is None else validate_standard_form(form)
    if report is None or not report.is_positive:
        raise InvalidState("not a bona fide CM: the matrix is not positive")
    if not report.is_bona_fide:
        raise InvalidState(
            f"not a bona fide CM: closed-form symplectic eigenvalues "
            f"{report.symplectic_eigenvalues}")
    n, m, kx, kp = form.n, form.m, form.kx, -abs(form.kp)
    if kx < TOL_PRODUCT and abs(kp) < TOL_PRODUCT:
        kx = kp = 0.0
    return StandardFormParams(n=n, m=m, kx=kx, kp=kp)


def params_from_json_dict(payload: dict) -> StandardFormParams:
    """Parse the CM JSON schema: {"gamma": [[...]]} or {"params": {...}}."""
    if "gamma" in payload:
        return reduce_to_standard_params(payload["gamma"])
    if "params" in payload:
        p = payload["params"]
        try:
            return StandardFormParams(n=float(p["n"]), m=float(p["m"]),
                                      kx=float(p["kx"]), kp=float(p["kp"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed params object: {exc}") from exc
    raise DomainError('input JSON must contain "gamma" or "params"')
