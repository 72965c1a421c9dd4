import numpy as np
import pytest

from espkit.densemat import kron_all
from espkit.errors import NumericalError
from espkit.hilbert import PAULI_Y
from espkit.monotones import cne, concurrence, negativity
from espkit.states import bell_ket_by_label, bell_mixture, esp_weighting

from conftest import custom_weighting, hermitian_eigvals, monotone_sample, random_two_qubit_dm, random_unitary

SINGLET = bell_ket_by_label("beta-").to_density().matrix
UP_UP = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)


def concurrence_oracle(rho: np.ndarray) -> float:
    """Square roots of the eigenvalues of rho*rho', via the general
    (non-Hermitian) eigenvalue problem."""
    yy = kron_all(PAULI_Y, PAULI_Y)
    flipped = yy @ rho.conj() @ yy
    gammas = np.sqrt(np.abs(np.sort(np.linalg.eigvals(rho @ flipped).real)))
    return max(0.0, 2 * gammas[-1] - gammas.sum())


def test_cne_singlet():
    lam, count = cne(SINGLET)
    assert np.isclose(lam, -0.5, atol=1e-14)
    assert count == 1


def test_cne_product():
    lam, count = cne(UP_UP)
    assert abs(lam) <= 1e-14
    assert count == 0


def test_cne_two_component_mixture():
    rho = bell_mixture(custom_weighting((0.505, 0.495, 0.0, 0.0)))
    lam, count = cne(rho)
    assert np.isclose(lam, -0.005, atol=1e-15)
    assert count == 1


def test_negativity_extremes():
    assert np.isclose(negativity(SINGLET), 0.5, atol=1e-14)
    assert negativity(UP_UP) == 0.0


def test_negativity_werner_mixture():
    w = 0.5
    rho = w * SINGLET + (1 - w) * np.eye(4, dtype=complex) / 4
    # closed-form partial-transpose spectrum: (1-3w)/4 once, (1+w)/4 thrice
    oracle = max(0.0, -(1 - 3 * w) / 4)
    assert np.isclose(negativity(rho), oracle, atol=1e-14)
    assert np.isclose(negativity(rho), 0.125, atol=1e-14)


def test_concurrence_singlet():
    assert np.isclose(concurrence(SINGLET), 1.0, atol=1e-12)


def test_concurrence_bell_mixture_closed_form(rng):
    for _ in range(20):
        weights = rng.dirichlet(np.ones(4))
        rho = bell_mixture(custom_weighting(weights))
        expected = max(0.0, 2 * weights.max() - 1.0)
        assert np.isclose(concurrence(rho), expected, atol=1e-12)


def test_concurrence_pure_state():
    amps = np.array([np.sqrt(0.8), 0, 0, np.sqrt(0.2)])
    rho = np.outer(amps, amps)
    # pure-state oracle 2|ad - bc|
    assert np.isclose(concurrence(rho), 2 * np.sqrt(0.8 * 0.2), atol=1e-12)
    assert np.isclose(concurrence(rho), 0.8, atol=1e-12)


def test_concurrence_matches_general_eig_oracle(rng):
    for _ in range(50):
        rho = random_two_qubit_dm(rng)
        assert np.isclose(concurrence(rho), concurrence_oracle(rho), atol=1e-10)


def test_monotone_sample_singlet():
    s = monotone_sample(SINGLET)
    assert np.allclose((s.cne, s.negativity, s.concurrence), (-0.5, 0.5, 1.0), atol=1e-12)
    assert s.negative_count == 1


def test_monotone_sample_product():
    s = monotone_sample(UP_UP)
    assert s.cne >= -1e-12
    assert s.negativity == 0.0
    assert s.concurrence <= 1e-12
    assert s.negative_count == 0


def test_faithfulness_on_random_states(rng):
    """Negativity and concurrence vanish together (1000 seeded samples)."""
    for _ in range(1000):
        s = monotone_sample(random_two_qubit_dm(rng))
        assert (s.negativity > 1e-9) == (s.concurrence > 1e-9)
        assert 0.0 <= s.negativity <= 0.5 + 1e-12
        assert 0.0 <= s.concurrence <= 1.0 + 1e-12
        assert s.negative_count in (0, 1)
        # with at most one negative eigenvalue the two forms coincide
        assert abs(s.negativity - max(0.0, -s.cne)) <= 1e-15


def test_local_unitary_invariance(rng):
    for _ in range(25):
        rho = random_two_qubit_dm(rng)
        u = kron_all(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = u @ rho @ u.conj().T
        assert abs(negativity(rotated) - negativity(rho)) <= 1e-10
        assert abs(concurrence(rotated) - concurrence(rho)) <= 1e-10


def test_pt_spectrum_regression_random_weightings(rng):
    from espkit.hilbert import partial_transpose_b

    for _ in range(50):
        weights = rng.dirichlet(np.ones(4))
        rho = bell_mixture(custom_weighting(weights))
        spectrum = np.sort(hermitian_eigvals(partial_transpose_b(rho)))
        assert np.max(np.abs(spectrum - np.sort(0.5 - weights))) <= 1e-12


def test_clip_budget_enforced():
    bad = np.diag([1.0 + 1e-6, 0.5e-6, -1e-6, -0.5e-6]).astype(complex)
    bad /= np.trace(bad).real
    with pytest.raises(NumericalError):
        concurrence(bad)


def test_weighting_monotones_consistent():
    w = esp_weighting("W9", 0.01)
    rho = bell_mixture(w)
    s = monotone_sample(rho)
    assert np.isclose(s.cne, -0.005, atol=1e-15)
    assert np.isclose(s.negativity, 0.005, atol=1e-15)
    assert np.isclose(s.concurrence, 0.01, atol=1e-12)
