import warnings

import numpy as np
import pytest

from espkit.cli import MIXED_J, PRODUCT_CASES
from espkit.densemat import hermitian_eig, hermitian_part
from espkit.dynamics import SpectralPropagator, basis_parity
from espkit.errors import DimensionError, NumericalError
from espkit.hilbert import PAULI_X, PAULI_Y, PAULI_Z, SpinMagnitude
from espkit.model import ExchangeCoupling, spin_star_hamiltonian

from conftest import charpoly_eigvals, expm_taylor, hermitian_eigvals, random_hermitian, spectral_exp_skew


def test_eig_identity():
    w, _ = hermitian_eig(np.eye(4))
    assert np.allclose(w, [1, 1, 1, 1])


def test_eig_pauli_y():
    w, _ = hermitian_eig(PAULI_Y)
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)


def test_eig_matches_charpoly_oracle(rng):
    h = random_hermitian(rng, 8)
    w, _ = hermitian_eig(h)
    assert np.max(np.abs(w - charpoly_eigvals(h))) < 1e-9


def test_eig_roundtrip_and_unitarity(rng):
    for n in (2, 3, 4, 8, 12, 16, 32):
        h = random_hermitian(rng, n)
        w, v = hermitian_eig(h)
        recon = v @ np.diag(w).astype(complex) @ v.conj().T
        assert np.linalg.norm(recon - h) <= 1e-10 * np.linalg.norm(h)
        gram = v.conj().T @ v
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-12


def test_eig_eigenvalues_sorted(rng):
    h = random_hermitian(rng, 12)
    w = hermitian_eigvals(h)
    assert np.all(np.diff(w) >= 0)


def test_eig_rejects_nonsquare():
    for shape in ((2, 3), (2, 3, 4), (3,)):
        with pytest.raises(DimensionError):
            hermitian_eig(np.zeros(shape))


def test_eig_rejects_nonhermitian():
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):  # one matrix of a stack is enough
        hermitian_eig(np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])]))


def test_eig_guard_does_not_overflow():
    """||A||_F and A/2 + A†/2 stay finite for entries near the largest double: a defect of 1e150 on
    entries of 1e160 is rejected, and a Hermitian matrix is diagonalized or rejected as numerics,
    with no warning either way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="defect 1.000e\\+150"):
            hermitian_eig(np.array([[1e160, 1e150], [0.0, 1e160]]))
        w, _ = hermitian_eig(np.full((2, 2), 1e300))
        assert np.max(np.abs(w - [0.0, 2e300])) <= 1e-15 * 2e300
        with pytest.raises(NumericalError, match="non-finite eigenvalues"):
            hermitian_eig(np.array([[1e308, 1.5e308], [1.5e308, -1e308]]))


def test_eig_zero_matrix():
    """Every basis is an eigenbasis of 0: LAPACK returns the identity, exactly."""
    w, v = hermitian_eig(np.zeros((5, 5)))
    assert np.array_equal(w, np.zeros(5))
    assert np.array_equal(v, np.eye(5))


def test_eig_failures_are_numerical_errors(monkeypatch):
    with pytest.raises(NumericalError):
        hermitian_eig(np.full((3, 3), np.nan))

    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(NumericalError, match="did not converge"):
        hermitian_eig(np.eye(3))


def block_hermitian(rng, sizes) -> np.ndarray:
    """A Hermitian matrix made of dense random blocks of the given sizes on shuffled index sets."""
    perm = rng.permutation(sum(sizes))
    h = np.zeros((perm.size, perm.size), dtype=complex)
    for idx in np.split(perm, np.cumsum(sizes)[:-1]):
        h[np.ix_(idx, idx)] = random_hermitian(rng, idx.size)
    return h


def test_eig_is_exact_where_the_parity_does_not_fit(rng, monkeypatch):
    """hermitian_eig diagonalizes what the parity does not split as one matrix: dense Hermitian
    matrices of sizes that are and are not multiples of 4, and a spin-star H plus a transverse field on
    A, each from one eigh call, with residual <= 1e-14 ||H||, orthogonality defect <= 1e-14 and
    ascending eigenvalues."""
    s = SpinMagnitude(2)
    tilted = spin_star_hamiltonian(MIXED_J, s) + 0.3 * np.kron(np.eye(s.dim), np.kron(PAULI_X, np.eye(2)))
    odd = basis_parity(tilted.shape[0]) < 0
    assert np.any(tilted[np.ix_(odd, ~odd)])
    matrices = [random_hermitian(rng, n) for n in (2, 3, 5, 6, 16, 32)] + [tilted]
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    for h in matrices:
        w, v = hermitian_eig(h)
        assert np.linalg.norm(h @ v - v * w) <= 1e-14 * np.linalg.norm(h)
        assert np.max(np.abs(v.conj().T @ v - np.eye(h.shape[0]))) <= 1e-14
        assert np.all(np.diff(w) >= 0)
    assert calls == [h.shape for h in matrices]


def test_eig_calls_eigh_once_per_matrix(monkeypatch, rng):
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    matrices = [block_hermitian(rng, sizes) for sizes in ((8, 8), (1, 3, 4, 4, 3, 1), (32,))]
    matrices.append(spin_star_hamiltonian(MIXED_J, SpinMagnitude(3)))
    for h in matrices:
        hermitian_eig(h)
    assert calls == [h.shape for h in matrices]


def repro_hamiltonians() -> list[np.ndarray]:
    """The Hamiltonians of every repro target: the PRODUCT_CASES couplings and MIXED_J at S = 1/2, 1 and 3/2."""
    couplings = sorted({j for _, j, _ in PRODUCT_CASES} | {MIXED_J}, key=str)
    return [spin_star_hamiltonian(j, SpinMagnitude(two_s)) for j in couplings for two_s in (1, 2, 3)]


def test_eig_of_a_real_matrix_has_real_eigenvectors(monkeypatch):
    """Every repro H has an imaginary part of exactly 0, and gets float64 eigenvectors from one eigh call."""
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a.dtype)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    matrices = repro_hamiltonians()
    assert len(matrices) == 15  # five couplings, three spins
    for h in matrices:
        assert h.dtype == np.complex128 and not np.any(h.imag)
        w, v = hermitian_eig(h)
        assert v.dtype == np.float64
        assert np.linalg.norm(h @ v - v * w) <= 1e-14 * np.linalg.norm(h)
        assert np.max(np.abs(v.T @ v - np.eye(h.shape[0]))) <= 1e-14
    assert calls == [np.float64] * len(matrices)


def test_eig_of_a_complex_matrix_is_unchanged(rng):
    """A complex Hermitian input is diagonalized as before real inputs took their real part: bit for bit,
    the complex eigh of its Hermitian part."""
    for sizes in ((8, 8), (1, 3, 4, 4, 3, 1), (16,)):
        h = block_hermitian(rng, sizes)
        w_ref, v_ref = np.linalg.eigh(hermitian_part(h))
        w, v = hermitian_eig(h)
        assert v.dtype == np.complex128
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)


def test_spin_star_hamiltonian_splits_into_parity_blocks():
    """Every repro Hamiltonian, and 20 seeded couplings of random signs with |J_i| in [0.3, 1.5], at
    S = 1/2, 1 and 3/2: H is exactly 0.0 between the two basis_parity sectors, and the eigenvectors
    SpectralPropagator assembles from the sector blocks are exactly 0.0 off each one's sector, with
    residual <= 1e-14 ||H|| and orthogonality defect <= 1e-14."""
    rng = np.random.default_rng(1998)
    couplings = [ExchangeCoupling(*(rng.choice([-1.0, 1.0], 3) * rng.uniform(0.3, 1.5, 3))) for _ in range(20)]
    matrices = repro_hamiltonians() + [spin_star_hamiltonian(j, SpinMagnitude(two_s)) for j in couplings for two_s in (1, 2, 3)]
    assert len(matrices) == 75
    for h in matrices:
        odd = basis_parity(h.shape[0]) < 0
        assert np.all(h[np.ix_(odd, ~odd)] == 0.0)
        prop = SpectralPropagator(h)
        v, w = prop.v, prop.w
        assert np.all(np.all(v[odd] == 0.0, axis=0) | np.all(v[~odd] == 0.0, axis=0))
        assert np.linalg.norm(h @ v - v * w) <= 1e-14 * np.linalg.norm(h)
        assert np.max(np.abs(v.T @ v - np.eye(h.shape[0]))) <= 1e-14


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
    prop = SpectralPropagator(h)
    u1 = prop.unitary(0.4)
    u2 = prop.unitary(1.1)
    u12 = prop.unitary(1.5)
    assert np.max(np.abs(u1 @ u2 - u12)) <= 1e-10

