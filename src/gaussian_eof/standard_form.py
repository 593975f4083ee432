"""Standard-form layer: the parameters (n, m, kx, kp), their closed-form
validation, and the reduction of a raw CM to them, in scalar arithmetic.

Conventions used throughout the package:

* quadrature ordering (x_A, p_A, x_B, p_B);
* the covariance matrix is dimensionless and vacuum-normalized, so the
  vacuum CM is the 4x4 identity (some texts use a 1/2 normalization);
* a matrix is a bona fide CM iff both symplectic eigenvalues are >= 1.

Standard form parameters (n, m, kx, kp) refer to the locally-equivalent CM
with diagonal blocks n*I, m*I and off-diagonal block diag(kx, kp).

Raw matrices are validated and reduced here too, in closed form:
reduce_to_standard_params reads the signed standard form validate_cm judged.

This module imports only the standard library, so the eof() pipeline and
the CLI validate report run without numpy; decomposition holds the
matrix constructors.
"""

import math
from typing import NamedTuple

from .errors import DomainError, InvalidState

# Every tolerance of the package, one name per job; the modules that apply
# one import it from here.
# validity of the input
TOL_SYM = 1e-12       # max |gamma_ij - gamma_ji|, relative to max(1, max |gamma_ij|)
TOL_PSD = 1e-9        # bona fide / purity tolerance on symplectic eigenvalues
TOL_CANONICAL = 1e-12  # slack of n, m >= 1 and kx >= -kp >= 0 (check_canonical)
# the routes of eof()
TOL_PRODUCT = 1e-12   # |kx|, |kp| below this means product state
TOL_VACUUM_MODE = 1e-12  # n - 1 or m - 1 at most this: that mode is the vacuum
TOL_SYMMETRIC = 1e-12  # |n - m| at most this times max(n, m): symmetric route
TOL_SQUEEZED_THERMAL = 1e-12  # |kx + kp| at most this times kx: its closed form
# the closed forms
TOL_UNIT_INTERVAL = 1e-12  # an argument of f or r(Delta') up to 1 + this reads 1
TOL_CLAMP = 1e-9      # Delta0 below b0, or above 1, by more than this is refused
TOL_RADICAND_ST = 1e-9  # _squeezed_thermal radicands from -this times scale up are 0
# the r1 solve
TOL_RATIO_RESIDUAL = 1e-13  # ratio residual allowed, relative to its terms
TOL_BALANCE_RESIDUAL = 1e-12  # balance residual allowed, relative to balance_terms
# the Gaussian EOF, the bound sandwich and the decomposition
_VACUUM_TOL = 1e-13   # |det K| <= this * K11 K22: nu_- = 1, K has rank one
SANDWICH_TOL = 1e-9   # slack of the bound sandwich checked by bounds_report
PSD_TOL = 1e-9        # a decomposition weight eigenvalue below -this: NotPsd
TOL_NULL_EIG = 1e-12  # sampler eigenvalues below this max(lam_max, 1) are null


class StandardFormParams(NamedTuple("StandardFormParams", [
        ("n", float), ("m", float), ("kx", float), ("kp", float)])):
    """Standard-form description (n, m, kx, kp) of a state: four finite floats.

    n and m are the local symplectic invariants sqrt(det A), sqrt(det B) of
    the two mode blocks; kx and kp are the x and p correlations after
    canonicalization (kx >= |kp|, kp <= 0 for entangled candidates).
    """

    __slots__ = ()

    def __new__(cls, n, m, kx, kp):
        try:
            if not (math.isfinite(n) and math.isfinite(m) and math.isfinite(kx)
                    and math.isfinite(kp)):
                raise DomainError("parameters must be finite")
        except OverflowError:   # an int that no float holds
            raise DomainError("parameters leave the float range") from None
        return tuple.__new__(cls, (float(n), float(m), float(kx), float(kp)))

    @classmethod
    def _make(cls, iterable):
        """Build through __new__, so _replace checks its fields too."""
        return cls(*iterable)

    @property
    def is_product(self) -> bool:
        return abs(self.kx) < TOL_PRODUCT and abs(self.kp) < TOL_PRODUCT

    def to_dict(self) -> dict:
        return self._asdict()


class ValidityReport(NamedTuple):
    """A state's validity; form is the standard form judged (the parameters,
    or a raw CM's signed form; None when A or B is not positive), not in
    to_dict."""
    is_symmetric_matrix: bool
    is_positive: bool
    symplectic_eigenvalues: tuple[float, float]
    is_bona_fide: bool
    is_pure: bool
    form: StandardFormParams | None = None

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
    """Symplectic eigenvalues (nu_-, nu_+) of the standard form (n, m, kx, kp),
    the one test of whether it has a spectrum.

    Closed form in the invariants Delta = n^2 + m^2 + 2 kx kp and
    det = (nm - kx^2)(nm - kp^2): nu_+^2 = (Delta + sqrt(Delta^2 - 4 det))/2
    and nu_-^2 = det / nu_+^2, which does not cancel when nu_+ >> nu_-.  The
    discriminant is evaluated as (n^2 - m^2)^2 + 4 (n kx + m kp)(m kx + n kp),
    which is exactly 0 on symmetric squeezed thermal states (pure ones
    included), where Delta^2 - 4 det cancels to rounding noise of size
    sqrt(eps) Delta.  (nan, nan) where the matrix is not positive (n > 0,
    nm - kx^2 > 0 and nm - kp^2 > 0 fail); DomainError where nm, kx^2,
    kp^2, nu_+^2 or nu_- leave the float range or nu_+^2 rounds to 0, so
    never (0, inf).
    """
    nm, kx2, kp2 = n * m, kx * kx, kp * kp
    det_x, det_p = nm - kx2, nm - kp2
    if n > 0.0 and det_x > 0.0 and det_p > 0.0:
        delta = n * n + m * m + 2.0 * kx * kp
        diff = n * n - m * m
        disc = diff * diff + 4.0 * (n * kx + m * kp) * (m * kx + n * kp)
        nu_plus_sq = 0.5 * (delta + math.sqrt(max(disc, 0.0)))
        # else delta rounds to 0 (n ~ 1e17) or overflows, as where nm does
        if 0.0 < nu_plus_sq < math.inf:
            nu_minus = math.sqrt(det_x * det_p / nu_plus_sq)
            if nu_minus < math.inf:
                return nu_minus, math.sqrt(nu_plus_sq)
    elif max(abs(nm), kx2, kp2) < math.inf:
        return math.nan, math.nan
    raise DomainError(f"invariants of {(n, m, kx, kp)} leave the float range")


def check_canonical(params: StandardFormParams) -> None:
    """Refuse parameters that are no admissible standard form: n, m >= 1
    and kx >= -kp >= 0, each within TOL_CANONICAL.

    Raises:
        DomainError: naming the first test that failed.
    """
    n, m, kx, kp = params.n, params.m, params.kx, params.kp
    if n < 1.0 - TOL_CANONICAL or m < 1.0 - TOL_CANONICAL:
        raise DomainError(f"n, m must be >= 1, got ({n}, {m})")
    if kx < -TOL_CANONICAL or kp > TOL_CANONICAL or kx < -kp - TOL_CANONICAL:
        raise DomainError(
            f"parameters not canonical (need kx >= -kp >= 0): kx={kx}, kp={kp}")


def validate_standard_form(params: StandardFormParams) -> ValidityReport:
    """Validity of the plain standard form (n, m, kx, kp), in closed form.

    standard_form_nu decides positivity and the float range (its NaN pair
    reads as not positive); bona fide iff also nu_- >= 1 - TOL_PSD; pure
    iff both symplectic eigenvalues lie within TOL_PSD of 1.

    Raises:
        DomainError: from standard_form_nu, outside the float range.
    """
    nu = standard_form_nu(params.n, params.m, params.kx, params.kp)
    bona_fide = nu[0] >= 1.0 - TOL_PSD
    pure = bona_fide and abs(nu[0] - 1.0) <= TOL_PSD and abs(nu[1] - 1.0) <= TOL_PSD
    return ValidityReport(True, not math.isnan(nu[0]), nu, bona_fide, pure,
                          params)


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
        DomainError: if gamma is not a 4x4 matrix of finite floats.
    """
    rows = gamma.tolist() if hasattr(gamma, "tolist") else gamma
    try:
        r0, r1, r2, r3 = rows
        shaped = len(r0) == len(r1) == len(r2) == len(r3) == 4
        flat = [*map(float, r0), *map(float, r1), *map(float, r2), *map(float, r3)]
    except (TypeError, ValueError):   # a scalar, a 3-D array, a non-number
        shaped = False
    except OverflowError:   # an int that no float holds
        raise DomainError("covariance matrix entries leave the float range") from None
    if not shaped:
        shape = getattr(gamma, "shape", None)
        raise DomainError("expected a 4x4 matrix of numbers"
                          + ("" if shape is None else f", got shape {shape}"))
    # entry by entry: max() over a NaN depends on where the NaN sits
    if not all(map(math.isfinite, flat)):
        raise DomainError("covariance matrix has non-finite entries")
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
    normalisation underflows or overflows.

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
    if math.isnan(det_a) or math.isnan(det_b):   # inf - inf
        raise DomainError("covariance matrix entries leave the float range")
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
    if norm == math.inf:   # overflow, at entries of about 1e77 and above
        raise DomainError("covariance matrix entries leave the float range")
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
        DomainError: if gamma is not a 4x4 matrix of finite numbers, its
            entries are too small to reduce or its invariants overflow.
    """
    upper, sym = _raw_cm(gamma)
    form = _signed_form(*upper)
    if form is None:
        return ValidityReport(sym, False, (math.nan, math.nan), False, False)
    report = validate_standard_form(form)
    return report if sym else report._replace(
        is_symmetric_matrix=False, is_bona_fide=False, is_pure=False)


def reduce_to_standard_params(gamma) -> StandardFormParams:
    """Validate a raw CM and reduce it to its standard form (n, m, kx, kp).

    The validation is validate_cm's, and the result its report's form, the
    signed standard form (_signed_form), kx >= |kp|, canonicalized to
    kp <= 0.  For classically-correlated inputs (det C > 0) the sign flip on
    kp amounts to a partial transposition, which leaves every entanglement
    quantity unchanged because such states are separable whenever they are
    bona fide.

    Raises:
        DomainError: as validate_cm.
        InvalidState: if gamma is not a bona fide CM; the message names the
            test that failed (symmetric, positive, symplectic eigenvalues).
    """
    report = validate_cm(gamma)
    if not report.is_symmetric_matrix:
        raise InvalidState("not a bona fide CM: the matrix is not symmetric")
    if not report.is_positive:
        raise InvalidState("not a bona fide CM: the matrix is not positive")
    if not report.is_bona_fide:
        raise InvalidState(
            f"not a bona fide CM: closed-form symplectic eigenvalues "
            f"{report.symplectic_eigenvalues}")
    form = report.form
    kx, kp = (0.0, 0.0) if form.is_product else (form.kx, -abs(form.kp))
    return StandardFormParams(form.n, form.m, kx, kp)
