import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from espkit.hilbert import SpinMagnitude, partial_trace_c, partial_transpose_b
from espkit.monotones import cne, negativity
from espkit.states import (
    BellKind,
    WEIGHTING_IDS,
    bell_initial,
    bell_ket,
    bell_ket_by_label,
    bell_mixture,
    esp_weighting,
    mixed_initial,
    product_basis_initial,
    product_initial,
    pure_initial,
)
from espkit.model import ProductSpinSpec

from conftest import hermitian_eigvals


def test_singlet_is_maximally_entangled():
    singlet = bell_ket(BellKind("beta", -1, 0.0))
    expected = np.array([0, 1, -1, 0]) / np.sqrt(2)
    assert np.allclose(singlet.amplitudes, expected)
    assert np.isclose(negativity(singlet.to_density()), 0.5)


def test_partially_entangled_alpha_amplitudes():
    ket = bell_ket(BellKind("alpha", +1, 0.6))
    assert np.allclose(ket.amplitudes, [np.sqrt(0.8), 0, 0, np.sqrt(0.2)])


@pytest.mark.parametrize("p", [0.0, 0.3, 0.9])
def test_plus_minus_overlap_equals_p(p):
    for family in ("alpha", "beta"):
        plus = bell_ket(BellKind(family, +1, p)).amplitudes
        minus = bell_ket(BellKind(family, -1, p)).amplitudes
        assert np.isclose(np.vdot(plus, minus).real, p, atol=1e-14)


def test_bell_kind_rejects_bad_p():
    with pytest.raises(ValueError):
        BellKind("alpha", +1, 1.0)
    with pytest.raises(ValueError):
        BellKind("alpha", +1, -0.1)
    assert BellKind("beta") == BellKind("beta", +1, 0.0)


def test_weighting_w1():
    w = esp_weighting("W1", 0.01)
    assert w.weights == (0.505, 0.495, 0.0, 0.0)
    assert w.bell_count == 2 and not w.penetrable


def test_weighting_w9_row():
    e = 0.3
    w = esp_weighting("W9", e)
    assert np.allclose(w.weights, ((1 - e) / 4, 0.0, (1 + e) / 2, (1 - e) / 4))
    assert w.bell_count == 3 and w.penetrable


def test_weighting_w14_at_zero():
    w = esp_weighting("W14", 0.0)
    assert np.allclose(w.weights, (1 / 6, 1 / 6, 1 / 6, 1 / 2))
    lam, _ = cne(bell_mixture(w))
    assert abs(lam) <= 1e-15


def test_weighting_epsilon_range():
    with pytest.raises(ValueError):
        esp_weighting("W1", 1.0)
    with pytest.raises(ValueError):
        esp_weighting("W3", -1.5)


def test_weighting_unknown_id():
    with pytest.raises(ValueError):
        esp_weighting("W15", 0.0)


@pytest.mark.parametrize("eps", [-0.1, -0.01, 0.0, 0.01, 0.1])
def test_weights_sum_exactly_one(eps):
    for wid in WEIGHTING_IDS:
        w = esp_weighting(wid, eps)
        assert sum(w.weights) == 1.0


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-0.99, max_value=0.99), st.integers(1, 14))
def test_weights_normalized_everywhere(eps, idx):
    w = esp_weighting(f"W{idx}", eps)
    assert abs(sum(w.weights) - 1.0) <= 1e-14
    assert all(x >= 0 for x in w.weights)


def test_more_than_two_bell_components_is_penetrable():
    for wid in WEIGHTING_IDS:
        w = esp_weighting(wid, 0.01)
        assert w.penetrable is (w.bell_count > 2)


def test_bell_counts_and_matched_spin():
    for wid in WEIGHTING_IDS:
        w = esp_weighting(wid, 0.01)
        idx = int(wid[1:])
        expected = 2 if idx <= 6 else (3 if idx <= 10 else 4)
        assert w.bell_count == expected
        assert w.matched_spin().dim == expected


@pytest.mark.parametrize("wid", WEIGHTING_IDS)
def test_penetrability_witness(wid):
    """Two-component weightings stay entangled at both switch signs; the
    others change side with the sign of the dominant slot."""
    idx = int(wid[1:])
    for eps in (0.01, -0.01):
        lam, count = cne(bell_mixture(esp_weighting(wid, eps)))
        if idx <= 6:
            assert np.isclose(lam, -abs(eps) / 2, atol=1e-15)
            assert count == 1
        else:
            assert np.isclose(lam, -eps / 2, atol=1e-15)
            assert count == (1 if eps > 0 else 0)


def test_mixed_initial_purity_half():
    rho = mixed_initial(esp_weighting("W1", 0.0), SpinMagnitude(1))
    assert np.isclose(np.trace(rho.matrix @ rho.matrix).real, 0.5, atol=1e-14)


def test_mixed_initial_pt_spectrum():
    w = esp_weighting("W9", 0.01)
    rho = mixed_initial(w, SpinMagnitude(1))
    red = partial_trace_c(rho)
    spectrum = hermitian_eigvals(partial_transpose_b(red))
    assert np.max(np.abs(np.sort(spectrum) - np.sort(0.5 - np.asarray(w.weights)))) <= 1e-14


def test_mixed_initial_w13_separable_side():
    rho = mixed_initial(esp_weighting("W13", -0.01), SpinMagnitude(1))
    assert negativity(partial_trace_c(rho)) == 0.0


def test_pure_initial_w9_assignment():
    e = 0.04
    w = esp_weighting("W9", e)
    s = SpinMagnitude(2)
    psi = pure_initial(w, s)
    expected = np.zeros(12, dtype=complex)
    alpha_plus = bell_ket_by_label("alpha+").amplitudes
    beta_plus = bell_ket_by_label("beta+").amplitudes
    beta_minus = bell_ket_by_label("beta-").amplitudes
    expected[0:4] = np.sqrt((1 - e) / 4) * alpha_plus
    expected[4:8] = np.sqrt((1 + e) / 2) * beta_plus
    expected[8:12] = np.sqrt((1 - e) / 4) * beta_minus
    assert np.allclose(psi.amplitudes, expected, atol=1e-15)


def test_pure_initial_w13_assignment():
    e = -0.02
    w = esp_weighting("W13", e)
    s = SpinMagnitude(3)
    psi = pure_initial(w, s)
    share = np.sqrt((1 - e) / 6)
    main = np.sqrt((1 + e) / 2)
    expected = np.zeros(16, dtype=complex)
    expected[0:4] = share * bell_ket_by_label("alpha+").amplitudes
    expected[4:8] = share * bell_ket_by_label("alpha-").amplitudes
    expected[8:12] = main * bell_ket_by_label("beta+").amplitudes
    expected[12:16] = share * bell_ket_by_label("beta-").amplitudes
    assert np.allclose(psi.amplitudes, expected, atol=1e-15)


@pytest.mark.parametrize("eps", [0.01, -0.01])
@pytest.mark.parametrize("wid", WEIGHTING_IDS)
def test_purification_marginal_matches_mixture(wid, eps):
    w = esp_weighting(wid, eps)
    s = w.matched_spin()
    psi = pure_initial(w, s)
    marginal = partial_trace_c(psi.to_density()).matrix
    mixture = partial_trace_c(mixed_initial(w, s)).matrix
    assert np.max(np.abs(marginal - mixture)) <= 1e-14


def test_pure_initial_count_mismatch():
    with pytest.raises(ValueError):
        pure_initial(esp_weighting("W9", 0.01), SpinMagnitude(1))


def test_product_initial_basis_vector():
    rho = product_basis_initial("uuu", SpinMagnitude(1))
    expected = np.zeros((8, 8), dtype=complex)
    expected[0, 0] = 1.0
    assert np.allclose(rho.matrix, expected)


def test_product_initial_up_down_marginal():
    rho = product_basis_initial("uud", SpinMagnitude(1))
    red = partial_trace_c(rho)
    assert np.allclose(red.matrix, np.diag([0.0, 1.0, 0.0, 0.0]))
    assert negativity(red) == 0.0


def test_product_initial_mixed_env_purity():
    spec = ProductSpinSpec(theta_a=np.pi / 2, theta_b=np.pi / 2, env_weights=(0.7, 0.3))
    rho = product_initial(spec, SpinMagnitude(1))
    assert np.isclose(np.trace(rho.matrix @ rho.matrix).real, 0.58, atol=1e-14)


FACTOR_TOL = 1e-15


def assert_exact_factor(rho, columns):
    """rho carries an ensemble factor B with B B† = matrix and the given column count."""
    b = rho.factor
    assert b.shape == (rho.matrix.shape[0], columns)
    assert np.max(np.abs(b @ b.conj().T - rho.matrix)) <= FACTOR_TOL


def test_product_initial_factor_random_angles_and_env():
    rng = np.random.default_rng(3)
    for two_s in (1, 2, 3):
        for _ in range(8):
            env = rng.dirichlet(np.ones(two_s + 1))
            env[rng.integers(two_s + 1)] = 0.0  # one level left empty
            env /= env.sum()
            theta_a, theta_b = rng.uniform(0.0, np.pi, 2)
            phi_a, phi_b = rng.uniform(0.0, 2.0 * np.pi, 2)
            spec = ProductSpinSpec(theta_a, phi_a, theta_b, phi_b, tuple(env))
            assert_exact_factor(product_initial(spec, SpinMagnitude(two_s)), np.count_nonzero(env))
    for state in ("uuu", "uud", "udd"):
        assert_exact_factor(product_basis_initial(state, SpinMagnitude(2)), 1)


@pytest.mark.parametrize("eps", [0.01, -0.01])
@pytest.mark.parametrize("wid", WEIGHTING_IDS)
def test_weighting_factors(wid, eps):
    w = esp_weighting(wid, eps)
    assert_exact_factor(bell_mixture(w), w.bell_count)
    assert_exact_factor(mixed_initial(w, SpinMagnitude(2)), w.bell_count)
    assert_exact_factor(pure_initial(w, w.matched_spin()).to_density(), 1)


def test_ket_factors():
    for kind in (BellKind("alpha", -1, 0.3), BellKind("beta", +1, 0.0)):
        assert_exact_factor(bell_ket(kind).to_density(), 1)
        assert_exact_factor(bell_initial(kind, SpinMagnitude(1)).to_density(), 1)
