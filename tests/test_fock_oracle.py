import math

import numpy as np
import pytest

from gaussian_eof import DomainError, delta_prime, f_aux, uncertainty_floor

from conftest import pure_entropy
from fock_oracle import (SchmidtSpectrum, TruncationTooCoarse,
                         delta_of_spectrum, entropy_of_spectrum,
                         minimal_entropy_spectrum, schmidt_coeffs_squeezed)


def test_zero_squeezing_spectrum():
    spec = schmidt_coeffs_squeezed(0.0, 16)
    assert spec.coeffs[0] == 1.0
    assert np.all(spec.coeffs[1:] == 0.0)
    assert spec.tail_mass == 0.0


def test_geometric_tail_is_exact():
    spec = schmidt_coeffs_squeezed(0.5, 200)
    assert spec.tail_mass < 1e-60
    assert spec.tail_mass == pytest.approx(math.tanh(0.5) ** 400, rel=1e-12)


@pytest.mark.parametrize("r,n_trunc", [(0.3, 64), (0.9, 256), (1.7, 512)])
def test_norm_plus_tail_is_one(r, n_trunc):
    spec = schmidt_coeffs_squeezed(r, n_trunc)
    total = float((spec.coeffs ** 2).sum()) + spec.tail_mass
    assert total == pytest.approx(1.0, abs=1e-15)


def test_schmidt_input_validation():
    with pytest.raises(DomainError):
        schmidt_coeffs_squeezed(-0.2, 16)
    with pytest.raises(DomainError):
        schmidt_coeffs_squeezed(0.5, 0)


def test_entropy_known_values():
    ebit = SchmidtSpectrum.from_coefficients([1 / math.sqrt(2), 1 / math.sqrt(2)])
    assert entropy_of_spectrum(ebit) == pytest.approx(1.0, abs=1e-12)
    trivial = SchmidtSpectrum.from_coefficients([1.0, 0.0, 0.0])
    assert entropy_of_spectrum(trivial) == 0.0


def test_entropy_matches_closed_form():
    spec = schmidt_coeffs_squeezed(0.8, 400)
    assert entropy_of_spectrum(spec) == pytest.approx(
        pure_entropy(0.8), abs=1e-10)


def test_truncation_too_coarse():
    spec = schmidt_coeffs_squeezed(2.0, 10)
    with pytest.raises(TruncationTooCoarse):
        entropy_of_spectrum(spec)
    with pytest.raises(TruncationTooCoarse):
        delta_of_spectrum(spec, -1.0)


def test_delta_trivial_spectrum():
    spec = SchmidtSpectrum.from_coefficients([1.0, 0.0])
    assert delta_of_spectrum(spec, -0.7) == pytest.approx(1.0, abs=1e-15)


def test_delta_geometric_identity():
    rng = np.random.default_rng(83)
    for _ in range(100):
        r = rng.uniform(0.05, 1.5)
        a = -rng.uniform(0.3, 3.0)
        eta = 2.0 / (a * a + 1.0 / (a * a))
        analytic = math.cosh(2 * r) - eta * math.sinh(2 * r)
        spec = schmidt_coeffs_squeezed(float(r), 256)
        assert delta_of_spectrum(spec, float(a)) == pytest.approx(
            analytic, abs=1e-10)


def test_delta_unit_duan_parameter():
    for r in (0.2, 0.6, 1.1):
        spec = schmidt_coeffs_squeezed(r, 256)
        assert delta_of_spectrum(spec, -1.0) == pytest.approx(
            math.exp(-2 * r), abs=1e-12)


def test_delta_requires_negative_a():
    spec = schmidt_coeffs_squeezed(0.5, 64)
    with pytest.raises(DomainError):
        delta_of_spectrum(spec, 1.0)


def test_entropy_delta_consistency_with_f():
    for r in (0.2, 0.5, 1.0):
        spec = schmidt_coeffs_squeezed(r, 400)
        assert f_aux(delta_of_spectrum(spec, -1.0)) == pytest.approx(
            entropy_of_spectrum(spec), abs=1e-9)


def test_bounded_ratio_spectra_stay_below_one():
    # spectra with c_N <= eta c_{N-1} have delta(c) <= 1
    rng = np.random.default_rng(89)
    for _ in range(50):
        a = -rng.uniform(0.4, 2.5)
        eta = 2.0 / (a * a + 1.0 / (a * a))
        ratios = eta * rng.uniform(0.1, 1.0, size=24)
        c = np.concatenate([[1.0], np.cumprod(ratios)])
        c /= math.sqrt(float((c * c).sum()))
        spec = SchmidtSpectrum.from_coefficients(c)
        assert delta_of_spectrum(spec, float(a)) <= 1.0 + 1e-12


def test_monotone_truncation():
    for r in (0.6, 1.2):
        for n_trunc in (32, 64):
            lo = schmidt_coeffs_squeezed(r, n_trunc)
            hi = schmidt_coeffs_squeezed(r, 2 * n_trunc)
            if lo.tail_mass >= 1e-12:
                continue
            assert abs(entropy_of_spectrum(hi) - entropy_of_spectrum(lo)) \
                < 10.0 * lo.tail_mass + 1e-15
            assert abs(delta_of_spectrum(hi, -1.3) - delta_of_spectrum(lo, -1.3)) \
                < 10.0 * lo.tail_mass + 1e-15


def test_minimal_entropy_spectrum_roundtrip():
    rng = np.random.default_rng(97)
    for _ in range(25):
        a = -rng.uniform(0.5, 2.0)
        b = uncertainty_floor(float(a))
        delta = rng.uniform(b + 1e-3, 0.995)
        spec = minimal_entropy_spectrum(float(delta), b, float(a))
        assert delta_of_spectrum(spec, float(a)) == pytest.approx(
            float(delta), abs=1e-9)


def test_minimal_entropy_spectrum_near_one():
    a = -1.0
    spec = minimal_entropy_spectrum(1.0 - 1e-9, 0.0, a)
    assert spec.coeffs[0] == pytest.approx(1.0, abs=1e-9)
    assert entropy_of_spectrum(spec) < 1e-7


def test_minimal_entropy_spectrum_validation():
    with pytest.raises(DomainError):
        minimal_entropy_spectrum(0.5, 0.6, -1.0)   # delta below floor
    with pytest.raises(DomainError):
        minimal_entropy_spectrum(0.5, 0.3, -1.0)   # floor inconsistent with a
    with pytest.raises(DomainError):
        minimal_entropy_spectrum(1.0, 0.0, -1.0)   # delta not < 1


def test_from_coefficients_validation():
    with pytest.raises(DomainError):
        SchmidtSpectrum.from_coefficients([0.5, -0.1])
    with pytest.raises(DomainError):
        SchmidtSpectrum.from_coefficients([0.3, 0.5])
    with pytest.raises(DomainError):
        SchmidtSpectrum.from_coefficients([1.0, 0.5])  # norm > 1
