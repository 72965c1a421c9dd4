import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from espkit.densemat import hermitian_eig, kron_all, propagator
from espkit.errors import DimensionError, NumericalError
from espkit.hilbert import PAULI_Y, PAULI_Z, SpinMagnitude
from espkit.model import ExchangeCoupling, spin_star_hamiltonian

from conftest import charpoly_eigvals, expm_taylor, hermitian_eigvals, random_hermitian, spectral_exp_skew


def test_eig_identity():
    spec = hermitian_eig(np.eye(4))
    assert np.allclose(spec.eigenvalues, [1, 1, 1, 1])


def test_eig_pauli_y():
    spec = hermitian_eig(PAULI_Y)
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_eig_matches_charpoly_oracle(rng):
    h = random_hermitian(rng, 8)
    spec = hermitian_eig(h)
    assert np.max(np.abs(spec.eigenvalues - charpoly_eigvals(h))) < 1e-9


def test_eig_roundtrip_and_unitarity(rng):
    for n in (2, 3, 4, 8, 12, 16, 32):
        h = random_hermitian(rng, n)
        spec = hermitian_eig(h)
        recon = spec.eigenvectors @ np.diag(spec.eigenvalues).astype(complex) @ spec.eigenvectors.conj().T
        assert np.linalg.norm(recon - h) <= 1e-10 * np.linalg.norm(h)
        gram = spec.eigenvectors.conj().T @ spec.eigenvectors
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-12


def test_eig_eigenvalues_sorted(rng):
    h = random_hermitian(rng, 12)
    w = hermitian_eigvals(h)
    assert np.all(np.diff(w) >= 0)


def test_eig_rejects_nonsquare():
    with pytest.raises(DimensionError):
        hermitian_eig(np.zeros((2, 3)))


def test_eig_rejects_nonhermitian():
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_zero_matrix():
    spec = hermitian_eig(np.zeros((5, 5)))
    assert np.allclose(spec.eigenvalues, 0.0)
    assert np.allclose(spec.eigenvectors, np.eye(5))


def test_eig_failures_are_numerical_errors(monkeypatch):
    with pytest.raises(NumericalError):
        hermitian_eig(np.full((3, 3), np.nan))

    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(NumericalError, match="did not converge"):
        hermitian_eig(np.eye(3))


def test_exp_at_zero_is_identity(rng):
    h = random_hermitian(rng, 6)
    assert np.allclose(spectral_exp_skew(h, 0.0), np.eye(6), atol=1e-14)


def test_exp_diagonal_generator():
    u = spectral_exp_skew(PAULI_Z, np.pi / 2)
    expected = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
    assert np.allclose(u, expected, atol=1e-14)


def test_exp_matches_taylor_oracle():
    h = spin_star_hamiltonian(ExchangeCoupling(1, 1, 1), SpinMagnitude(1))
    t = 0.3
    u = spectral_exp_skew(h, t)
    oracle = expm_taylor(-1j * h * t)
    assert np.linalg.norm(u - oracle) <= 1e-10


def test_exp_unitarity(rng):
    for n in (4, 8, 16):
        h = random_hermitian(rng, n)
        u = spectral_exp_skew(h, 0.7)
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-12


def test_exp_group_property(rng):
    h = random_hermitian(rng, 8)
    spec = hermitian_eig(h)
    u1 = propagator(spec, 0.4)
    u2 = propagator(spec, 1.1)
    u12 = propagator(spec, 1.5)
    assert np.max(np.abs(u1 @ u2 - u12)) <= 1e-10


def test_kron_identities():
    assert np.allclose(kron_all(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_pauli_y_pair():
    yy = kron_all(PAULI_Y, PAULI_Y)
    expected = np.zeros((4, 4))
    expected[0, 3] = -1
    expected[1, 2] = 1
    expected[2, 1] = 1
    expected[3, 0] = -1
    assert np.allclose(yy, expected)
    assert np.max(np.abs(yy.imag)) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_kron_mixed_product_identity(seed):
    gen = np.random.default_rng(seed)
    a, c = (gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2)) for _ in range(2))
    b, d = (gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3)) for _ in range(2))
    lhs = kron_all(a, b) @ kron_all(c, d)
    rhs = kron_all(a @ c, b @ d)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))
