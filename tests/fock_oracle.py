"""Truncated-Fock-space oracle: Schmidt spectra, entropy, spectrum uncertainty.

Independent verification route for the pipeline, used by the tests only:
geometric Schmidt spectra of two-mode squeezed states, their entanglement
entropy, and the spectrum functional delta(c) that lower-bounds the
EPR-like uncertainty over all states sharing the spectrum.  Tests import it
as `from fock_oracle import ...`, like conftest.
"""

import math
from dataclasses import dataclass

import numpy as np

from gaussian_eof import (DomainError, GaussianEofError, InvalidState,
                          delta_prime, r_from_delta_prime, uncertainty_floor)

DEFAULT_TRUNCATION = 256
TAIL_TOL = 1e-12


class TruncationTooCoarse(GaussianEofError):
    """Schmidt spectrum truncation leaves too much tail mass."""


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Non-increasing Schmidt coefficients with an explicit truncation tail."""
    coeffs: np.ndarray
    truncation: int
    tail_mass: float

    @classmethod
    def from_coefficients(cls, coeffs, tail_mass: float | None = None) -> "SchmidtSpectrum":
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise DomainError("coefficients must form a non-empty vector")
        if np.any(c < 0.0):
            raise DomainError("Schmidt coefficients are non-negative")
        if np.any(np.diff(c) > 1e-15):
            raise DomainError("Schmidt coefficients must be non-increasing")
        norm2 = float((c * c).sum())
        if norm2 > 1.0 + 1e-9:
            raise DomainError(f"squared norm {norm2} exceeds 1")
        if tail_mass is None:
            tail_mass = max(1.0 - norm2, 0.0)
        return cls(coeffs=c, truncation=int(c.size), tail_mass=float(tail_mass))

    def _require_converged(self) -> None:
        if self.tail_mass >= TAIL_TOL:
            raise TruncationTooCoarse(
                f"tail mass {self.tail_mass} >= {TAIL_TOL}; increase the truncation")


def schmidt_coeffs_squeezed(r: float, n_trunc: int = DEFAULT_TRUNCATION) -> SchmidtSpectrum:
    """Geometric Schmidt spectrum of the two-mode squeezed vacuum.

    c_N = tanh(r)^N / cosh(r) for N = 0 .. n_trunc-1; the discarded tail
    carries exactly tanh(r)^(2 n_trunc) of the squared norm.
    """
    if n_trunc < 1:
        raise DomainError("n_trunc must be a positive integer")
    if r < 0.0 or not math.isfinite(r):
        raise DomainError(f"squeezing parameter must be finite and >= 0, got {r}")
    q = math.tanh(r)
    coeffs = q ** np.arange(n_trunc) / math.cosh(r)
    tail = q ** (2 * n_trunc)
    return SchmidtSpectrum(coeffs=coeffs, truncation=n_trunc, tail_mass=tail)


def entropy_of_spectrum(spectrum: SchmidtSpectrum) -> float:
    """Entanglement entropy -sum c_N^2 log2 c_N^2 in bits, with 0 log 0 = 0."""
    spectrum._require_converged()
    p = spectrum.coeffs ** 2
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def delta_of_spectrum(spectrum: SchmidtSpectrum, a: float) -> float:
    """Spectrum uncertainty delta(c) = 1 + 2 sum_N (c_N^2 - eta c_N c_{N-1}) N.

    eta = 2/(a^2 + 1/a^2).  Equals the EPR-like uncertainty of the pure
    state whose Schmidt basis is the Fock basis in matching order.  The
    cross-term sum starts at N = 1; the N = 0 term vanishes either way.
    """
    if a >= 0.0 or not math.isfinite(a):
        raise DomainError("a must be negative")
    spectrum._require_converged()
    c = spectrum.coeffs
    eta = 2.0 / (a * a + 1.0 / (a * a))
    ns = np.arange(c.size, dtype=float)
    direct = float((ns * c * c).sum())
    cross = float((ns[1:] * c[1:] * c[:-1]).sum())
    return 1.0 + 2.0 * (direct - eta * cross)


def minimal_entropy_spectrum(delta: float, b: float, a: float,
                             n_trunc: int = DEFAULT_TRUNCATION) -> SchmidtSpectrum:
    """The geometric spectrum of unit norm whose uncertainty equals delta.

    This is the entropy minimizer among all unit-norm spectra with the same
    delta(c).  The floor b must be the one induced by a; the squeezing
    parameter is recovered through the delta -> delta' map (small-r branch).
    """
    if not 0.0 <= b < 1.0:
        raise DomainError(f"floor b must lie in [0, 1), got {b}")
    if not b <= delta < 1.0:
        raise DomainError(f"delta must lie in [b, 1) = [{b}, 1), got {delta}")
    if abs(b - uncertainty_floor(a)) > 1e-9:
        raise DomainError(
            f"floor {b} inconsistent with Duan parameter {a} "
            f"(expected {uncertainty_floor(a)})")
    r = r_from_delta_prime(delta_prime(delta, b))
    spectrum = schmidt_coeffs_squeezed(r, n_trunc)
    achieved = delta_of_spectrum(spectrum, a)
    if abs(achieved - delta) > 1e-9:
        raise InvalidState(
            f"round trip failed: delta(c) = {achieved}, requested {delta}; "
            f"increase n_trunc")
    return spectrum
