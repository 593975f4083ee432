import math

import numpy as np
import pytest

from gaussian_eof import (DecompositionSpec, DomainError, NotPsd,
                          StandardFormParams, decomposition_spec, eof,
                          r_from_delta_prime, reconstruct_cm,
                          sample_displacements, squeezed_vacuum_cm,
                          standard_form_cm, verify_reconstruction)

SYMMETRIC = StandardFormParams(2.0, 2.0, 1.2, -0.8)


def test_spec_on_symmetric_state():
    spec = decomposition_spec(SYMMETRIC)
    eig = np.linalg.eigvalsh(spec.weight_matrix)
    assert eig[0] > -1e-12
    report = eof(SYMMETRIC)
    assert spec.r_opt == pytest.approx(
        r_from_delta_prime(report.epr.delta0_prime), abs=1e-14)
    # exact reassembly identity
    assert np.allclose(spec.core_cm + spec.weight_matrix, spec.target_cm,
                       atol=1e-12)


def test_spec_on_pure_state_is_zero_weight():
    r = 0.6
    c, s = math.cosh(2 * r), math.sinh(2 * r)
    spec = decomposition_spec(StandardFormParams(c, c, s, -s))
    assert np.allclose(spec.weight_matrix, 0.0, atol=1e-9)
    samples = sample_displacements(spec, 100, seed=5)
    assert np.allclose(samples, 0.0, atol=1e-7)
    assert np.allclose(reconstruct_cm(spec, samples), spec.core_cm, atol=1e-6)


def test_spec_rejects_separable_input():
    with pytest.raises(DomainError):
        decomposition_spec(StandardFormParams(1.5, 1.5, 0.2, -0.2))


def test_spec_not_psd_on_asymmetric_benchmark_rows():
    # the weight matrix is indefinite for the asymmetric benchmark states
    # (min eigenvalue -3.56e-4 for the squeezed-thermal row); the claimed
    # squeezed-state decomposition does not exist there and the module
    # reports that honestly
    with pytest.raises(NotPsd):
        decomposition_spec(StandardFormParams(2.0, 1.5, 1.0, -1.0))
    with pytest.raises(NotPsd):
        decomposition_spec(StandardFormParams(2.5, 2.0, 1.3, -1.2))


def test_sampling_is_deterministic_and_seed_sensitive():
    spec = decomposition_spec(SYMMETRIC)
    a = sample_displacements(spec, 5000, seed=42)
    b = sample_displacements(spec, 5000, seed=42)
    c = sample_displacements(spec, 5000, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_moments():
    spec = decomposition_spec(SYMMETRIC)
    n = 100_000
    xi = sample_displacements(spec, n, seed=11)
    assert xi.shape == (n, 4)
    cov = 0.5 * spec.weight_matrix
    # mean within 4 standard errors
    se_mean = np.sqrt(np.diag(cov) / n)
    assert np.all(np.abs(xi.mean(axis=0)) <= 4.0 * se_mean + 1e-12)
    # second moment within 4 standard errors entrywise
    second = xi.T @ xi / n
    se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov * cov) / n)
    assert np.all(np.abs(second - cov) <= 4.0 * se + 1e-12)


def test_rank_deficient_sampling_stays_in_range():
    spec = decomposition_spec(SYMMETRIC)
    lam, vec = np.linalg.eigh(spec.weight_matrix)
    null = vec[:, lam < 1e-12]
    xi = sample_displacements(spec, 2000, seed=3)
    assert np.max(np.abs(xi @ null)) < 1e-12


def test_reconstruction_within_statistical_bound():
    report = verify_reconstruction(SYMMETRIC, n_samples=100_000, seed=12345)
    assert report["pass"] is True
    assert report["max_abs_error"] < report["tolerance"]
    assert set(report) == {"r_opt", "n_samples", "max_abs_error", "tolerance",
                           "pass"}


def test_reconstruction_needs_a_sample():
    # zero draws are no evidence: refused, while the sampler still returns
    # an empty (0, 4) array
    for n in (0, -3):
        with pytest.raises(DomainError, match="n_samples must be >= 1"):
            verify_reconstruction(SYMMETRIC, n_samples=n)
    spec = decomposition_spec(SYMMETRIC)
    assert sample_displacements(spec, 0, seed=1).shape == (0, 4)
    with pytest.raises(DomainError, match="n_samples must be >= 0"):
        sample_displacements(spec, -1, seed=1)


def test_reconstruction_exact_identity():
    # gamma_psi + M = gamma_sigma holds exactly by construction
    report = eof(SYMMETRIC)
    gamma_sigma = standard_form_cm(report.params, report.epr.r1, report.epr.r2)
    r_opt = r_from_delta_prime(report.epr.delta0_prime)
    m_weight = gamma_sigma - squeezed_vacuum_cm(r_opt)
    assert np.allclose(squeezed_vacuum_cm(r_opt) + m_weight, gamma_sigma,
                       atol=1e-12)


def test_full_rank_synthetic_weight():
    # exercise full-rank sampling on a synthetic PSD weight
    m_weight = np.diag([0.5, 0.4, 0.3, 0.2])
    spec = DecompositionSpec(r_opt=0.3, weight_matrix=m_weight,
                             target_cm=squeezed_vacuum_cm(0.3) + m_weight)
    xi = sample_displacements(spec, 200_000, seed=21)
    cov = 0.5 * m_weight
    se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov * cov) / 200_000)
    assert np.all(np.abs(xi.T @ xi / 200_000 - cov) <= 4.0 * se + 1e-12)


def test_reconstruct_cm_validation():
    spec = decomposition_spec(SYMMETRIC)
    with pytest.raises(DomainError):
        reconstruct_cm(spec, np.zeros((5, 3)))
    empty = reconstruct_cm(spec, np.zeros((0, 4)))
    assert np.allclose(empty, spec.core_cm)
