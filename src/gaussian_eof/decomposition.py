"""Optimal pure-state decomposition: Gaussian weight, sampling, reconstruction.

An entangled state decomposes (when the weight matrix is PSD) into the
two-mode squeezed state with e^(-2 r_opt) = Delta'_0 and its phase-space
displaced copies, weighted by g(xi) proportional to exp(-xi^T M^{-1} xi)
with M = gamma_sigma - gamma_psi.  Two factor conventions are centralized
here: the weight corresponds to displacement covariance M/2, and the
vacuum-normalized CM convention contributes the factor 2 in the
reconstruction gamma_hat = gamma_psi + 2 * (second moment of xi).
It is the package's only numpy module, and holds the two CM constructors.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import NamedTuple

import numpy as np

from .eof_core import eof
from .epr_uncertainty import r_from_delta_prime
from .errors import DomainError, NotPsd
from .standard_form import PSD_TOL, TOL_NULL_EIG, StandardFormParams

# rows per chunk of draws; chunk i comes from child i of SeedSequence(seed),
# whichever thread draws it, so no thread count changes a bit of the result
_CHUNK = 16384


def squeezed_vacuum_cm(r: float) -> np.ndarray:
    """CM of the standard two-mode squeezed vacuum with squeezing r >= 0."""
    if not np.isfinite(r) or r < 0.0:
        raise DomainError(f"squeezing parameter must be finite and >= 0, got {r}")
    c, s = np.cosh(2.0 * r), np.sinh(2.0 * r)
    return standard_form_cm(StandardFormParams(c, c, s, -s), 1.0, 1.0)


def standard_form_cm(params: StandardFormParams, r1: float,
                     r2: float) -> np.ndarray:
    """Assemble the standard-form CM reduced by the squeezing factors (r1, r2).

    With r1 = r2 = 1 this is the plain (n, m, kx, kp) form; otherwise the
    x entries are scaled up by the r's and the p entries down.
    """
    if not (0.0 < r1 < np.inf and 0.0 < r2 < np.inf):
        raise DomainError("squeezing factors must be positive and finite")
    n, m, kx, kp = params.n, params.m, params.kx, params.kp
    s = np.sqrt(r1 * r2)
    return np.array([
        [n * r1, 0.0, s * kx, 0.0],
        [0.0, n / r1, 0.0, kp / s],
        [s * kx, 0.0, m * r2, 0.0],
        [0.0, kp / s, 0.0, m / r2],
    ])


class DecompositionSpec(NamedTuple):
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
        NotPsd: min eigenvalue of M below -PSD_TOL, which flags an
            inconsistency between the claimed decomposition and the state.
    """
    report = eof(params)
    if report.epr.separable:
        raise DomainError("separable states have no squeezed-state decomposition")
    r_opt = r_from_delta_prime(report.epr.delta0_prime)
    gamma_sigma = standard_form_cm(report.params, report.epr.r1, report.epr.r2)
    m_weight = gamma_sigma - squeezed_vacuum_cm(r_opt)
    eigvals = np.linalg.eigvalsh(m_weight)
    if eigvals[0] < -PSD_TOL:
        raise NotPsd(
            f"weight matrix has eigenvalue {eigvals[0]:.3e} < -{PSD_TOL}; "
            "the squeezed-state decomposition does not exist for this state")
    return DecompositionSpec(r_opt=r_opt, weight_matrix=m_weight,
                             target_cm=gamma_sigma)


def _check_count(name: str, value, minimum: int) -> None:
    """Refuse a value that is not an integer >= minimum; numpy ints pass."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sample_displacements(spec: DecompositionSpec, n_samples: int,
                         seed: int) -> np.ndarray:
    """Draw displacement vectors from the Gaussian weight, covariance M/2.

    Sampling goes through the symmetric square root of M/2; eigenvalues
    below TOL_NULL_EIG max(lam_max, 1) are clamped to zero, so
    rank-deficient weights sample inside their column space.  The result
    is one C-contiguous (n_samples, 4) array, filled chunk by chunk: chunk
    i holds the standard normals of child i of SeedSequence(seed), times
    the factor.  The children and the chunk size fix the stream, so the
    result is reproducible for a given seed.

    One loop draws chunk i into its rows, on min(usable CPUs, chunks)
    threads that live only for the call (one chunk or one CPU starts
    none), and the calling thread copies the chunks in order into one
    buffer and multiplies them back: the same draws and products, and so
    the same result, at any thread count; a failed draw raises in the caller.

    Raises:
        DomainError: n_samples not an integer >= 0, seed not an integer
            >= 0, or a result too large to allocate.
    """
    _check_count("n_samples", n_samples, 0)
    _check_count("seed", seed, 0)
    lam, vec = np.linalg.eigh(0.5 * spec.weight_matrix)
    # eigenvalues at numerical-noise level are null directions: exact zeros
    lam[lam < TOL_NULL_EIG * max(float(lam[-1]), 1.0)] = 0.0
    factor = (vec * np.sqrt(lam)) @ vec.T
    # allocated before any child is spawned, so an absurd n_samples fails
    # here and not in spawning a child per chunk
    try:
        samples = np.empty((n_samples, 4))
    except (MemoryError, ValueError) as exc:
        raise DomainError(
            f"n_samples = {n_samples} needs {32 * n_samples} bytes of "
            "samples, more than can be allocated") from exc
    # the children spawned off the seed and _CHUNK fix the random stream.
    # The chunks also keep the time steady: one (2e5, 4) product took 1 ms
    # in most fresh processes, 80 ms in some; 13 chunks 1.1-6 ms (openblas
    # 0.3.31, 2 vCPUs)
    n_chunks = max((n_samples + _CHUNK - 1) // _CHUNK, 1)
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    chunks = [samples[i * _CHUNK:(i + 1) * _CHUNK] for i in range(n_chunks)]
    z = np.empty((min(_CHUNK, n_samples), 4))

    def draw(i: int) -> np.ndarray:
        # numpy only: it releases the GIL while it draws, and no function of
        # the package runs on a worker (perfbench/tracing.py's wrappers keep
        # one span stack, which is not thread-safe)
        np.random.default_rng(children[i]).standard_normal(out=chunks[i])
        return chunks[i]

    workers = min(_usable_cpus(), n_chunks)
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        # each chunk, copied in order into the buffer and multiplied back:
        # the same products at any thread count, and no temporary, which a
        # product of the rows into themselves would allocate
        for rows in (map if pool is None else pool.map)(draw, range(n_chunks)):
            k = len(rows)
            z[:k] = rows
            np.matmul(z[:k], factor.T, out=rows)
    return samples


def reconstruct_cm(spec: DecompositionSpec, samples: np.ndarray) -> np.ndarray:
    """Reassemble the mixture CM: gamma_psi(r_opt) + 2 * empirical second moment."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 4:
        raise DomainError("samples must have shape (n, 4)")
    if samples.shape[0] == 0:
        return spec.core_cm.copy()
    # one product over all samples: a chunked sum would round differently
    second = samples.T @ samples / samples.shape[0]
    return spec.core_cm + 2.0 * second


def verify_reconstruction(params: StandardFormParams, n_samples: int = 100_000,
                          seed: int = 12345) -> dict:
    """Monte-Carlo check that sampled displacements rebuild the target CM.

    The tolerance is the 5-standard-error bound 5 sqrt(2/n) max|gamma_sigma|
    on the largest entrywise deviation.  n_samples must be an integer
    >= 1 and seed an integer >= 0; anything else raises DomainError
    before any work.
    """
    _check_count("n_samples", n_samples, 1)
    _check_count("seed", seed, 0)
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
