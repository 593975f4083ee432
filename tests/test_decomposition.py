import math
import tracemalloc

import numpy as np
import pytest

from gaussian_eof import (DecompositionSpec, DomainError, NotPsd,
                          StandardFormParams, decomposition_spec, eof,
                          r_from_delta_prime, reconstruct_cm,
                          sample_displacements, squeezed_vacuum_cm,
                          standard_form_cm, verify_reconstruction)
from gaussian_eof.decomposition import _CHUNK
from gaussian_eof.standard_form import TOL_NULL_EIG

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


@pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                               3 * _CHUNK + 7])
def test_sampling_stream_across_chunks(n):
    # the documented scheme: chunk i is the standard normals of child i of
    # SeedSequence(seed), times the factor, in rows of at most _CHUNK
    spec = decomposition_spec(SYMMETRIC)
    lam, vec = np.linalg.eigh(0.5 * spec.weight_matrix)
    lam[lam < TOL_NULL_EIG * max(float(lam[-1]), 1.0)] = 0.0
    factor = (vec * np.sqrt(lam)) @ vec.T
    children = np.random.SeedSequence(77).spawn(max(-(-n // _CHUNK), 1))
    expected = np.concatenate(
        [np.random.default_rng(child).standard_normal(
            (min(_CHUNK, n - i * _CHUNK), 4)) @ factor.T
         for i, child in enumerate(children)], axis=0)
    got = sample_displacements(spec, n, seed=77)
    assert got.shape == (n, 4) and got.dtype == np.float64
    assert got.flags.c_contiguous
    assert np.array_equal(got, expected)


def test_reconstruction_report_is_pinned():
    # 13 chunks of draws and one second-moment product, bit for bit
    assert verify_reconstruction(SYMMETRIC, 200_000, seed=12345) == {
        "r_opt": 0.010205498630063804, "n_samples": 200000,
        "max_abs_error": 0.001671452074510537,
        "tolerance": 0.03872983346207416, "pass": True}


def test_reconstruction_peak_memory():
    # one (n, 4) result and one chunk of normals; 1.25x the result's 6.4 MB
    n = 200_000
    verify_reconstruction(SYMMETRIC, n, seed=1)   # warm-up
    tracemalloc.start()
    try:
        verify_reconstruction(SYMMETRIC, n, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * n * 4 * 8


@pytest.mark.parametrize("kwargs, match", [
    ({"n_samples": 2.5}, "n_samples must be an integer"),
    ({"n_samples": True}, "n_samples must be an integer"),
    ({"n_samples": "10"}, "n_samples must be an integer"),
    ({"seed": 2.5}, "seed must be an integer"),
    ({"seed": None}, "seed must be an integer"),
    ({"seed": -1}, "seed must be >= 0"),
])
def test_sampling_refuses_non_integer_counts_and_seeds(kwargs, match):
    spec = decomposition_spec(SYMMETRIC)
    args = {"n_samples": 10, "seed": 1, **kwargs}
    with pytest.raises(DomainError, match=match):
        sample_displacements(spec, **args)
    # refused before any work: this state would raise NotPsd
    with pytest.raises(DomainError, match=match):
        verify_reconstruction(StandardFormParams(2.0, 1.5, 1.0, -1.0), **args)


def test_sampling_accepts_numpy_integers():
    spec = decomposition_spec(SYMMETRIC)
    assert np.array_equal(
        sample_displacements(spec, np.int32(50), seed=np.uint64(4)),
        sample_displacements(spec, 50, seed=4))
    assert (verify_reconstruction(SYMMETRIC, np.int64(500), seed=np.int16(3))
            == verify_reconstruction(SYMMETRIC, 500, seed=3))


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
