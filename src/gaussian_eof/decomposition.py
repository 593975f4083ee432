"""Optimal pure-state decomposition: Gaussian weight, sampling, reconstruction.

An entangled state decomposes (when the weight matrix is PSD) into the
two-mode squeezed state with e^(-2 r_opt) = Delta'_0 and its phase-space
displaced copies, weighted by g(xi) proportional to exp(-xi^T M^{-1} xi)
with M = gamma_sigma - gamma_psi.  Two factor conventions are centralized
here: the weight corresponds to displacement covariance M/2, and the
vacuum-normalized CM convention contributes the factor 2 in the
reconstruction gamma_hat = gamma_psi + 2 * (second moment of xi).
"""

import math
from dataclasses import dataclass

import numpy as np

from .eof_core import eof
from .epr_uncertainty import r_from_delta_prime
from .errors import DomainError, NotPsd
from .standard_form import StandardFormParams
from .symplectic_core import squeezed_vacuum_cm, standard_form_cm

PSD_TOL = 1e-9
_CHUNK = 16384


@dataclass(frozen=True)
class DecompositionSpec:
    r_opt: float
    weight_matrix: np.ndarray      # M = gamma_sigma - gamma_psi, PSD
    target_cm: np.ndarray          # gamma_sigma in the reduced frame

    @property
    def core_cm(self) -> np.ndarray:
        return squeezed_vacuum_cm(self.r_opt)


def decomposition_spec(params: StandardFormParams) -> DecompositionSpec:
    """Build the decomposition data for an entangled state.

    Runs the pipeline, forms M = gamma_sigma(reduced form) - gamma_psi(r_opt)
    and verifies positive semidefiniteness.

    Raises:
        DomainError: separable input (the pipeline short-circuits upstream).
        NotPsd: min eigenvalue of M below -1e-9, which flags an
            inconsistency between the claimed decomposition and the state.
    """
    report = eof(params)
    if report.epr.separable:
        raise DomainError("separable states have no squeezed-state decomposition")
    r_opt = r_from_delta_prime(report.epr.delta0_prime)
    gamma_sigma = standard_form_cm(report.params)
    m_weight = gamma_sigma - squeezed_vacuum_cm(r_opt)
    eigvals = np.linalg.eigvalsh(m_weight)
    if eigvals[0] < -PSD_TOL:
        raise NotPsd(
            f"weight matrix has eigenvalue {eigvals[0]:.3e} < -{PSD_TOL}; "
            "the squeezed-state decomposition does not exist for this state")
    return DecompositionSpec(r_opt=r_opt, weight_matrix=m_weight,
                             target_cm=gamma_sigma)


def sample_displacements(spec: DecompositionSpec, n_samples: int,
                         seed: int) -> np.ndarray:
    """Draw displacement vectors from the Gaussian weight, covariance M/2.

    Sampling goes through the symmetric square root of M/2; eigenvalues
    within tolerance of zero are clamped, so rank-deficient weights sample
    inside their column space.  The result is reproducible for a given
    seed.
    """
    if n_samples < 0:
        raise DomainError("n_samples must be >= 0")
    cov = 0.5 * spec.weight_matrix
    lam, vec = np.linalg.eigh(cov)
    # eigenvalues at numerical-noise level are null directions: exact zeros
    lam[lam < 1e-12 * max(float(lam[-1]), 1.0)] = 0.0
    factor = (vec * np.sqrt(lam)) @ vec.T
    # _CHUNK-sized draws from children spawned off the seed fix the random stream
    n_chunks = max((n_samples + _CHUNK - 1) // _CHUNK, 1)
    seeds = np.random.SeedSequence(seed).spawn(n_chunks)
    chunks = [np.random.default_rng(child).standard_normal(
        (min(_CHUNK, n_samples - i * _CHUNK), 4)) @ factor.T
        for i, child in enumerate(seeds)]
    return np.concatenate(chunks, axis=0)


def reconstruct_cm(spec: DecompositionSpec, samples: np.ndarray) -> np.ndarray:
    """Reassemble the mixture CM: gamma_psi(r_opt) + 2 * empirical second moment."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 4:
        raise DomainError("samples must have shape (n, 4)")
    if samples.shape[0] == 0:
        return spec.core_cm.copy()
    second = samples.T @ samples / samples.shape[0]
    return spec.core_cm + 2.0 * second


def verify_reconstruction(params: StandardFormParams, n_samples: int = 100_000,
                          seed: int = 12345) -> dict:
    """Monte-Carlo check that sampled displacements rebuild the target CM.

    The tolerance is the 5-standard-error bound 5 sqrt(2/n) max|gamma_sigma|
    on the largest entrywise deviation; n_samples < 1 raises DomainError.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    spec = decomposition_spec(params)
    samples = sample_displacements(spec, n_samples, seed)
    gamma_hat = reconstruct_cm(spec, samples)
    err = float(np.abs(gamma_hat - spec.target_cm).max())
    tol = 5.0 * math.sqrt(2.0 / n_samples) * float(np.abs(spec.target_cm).max())
    return {
        "r_opt": spec.r_opt,
        "n_samples": int(n_samples),
        "max_abs_error": err,
        "tolerance": tol,
        "pass": bool(err < tol),
    }
