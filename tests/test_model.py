import numpy as np
import pytest

from espkit.hilbert import ID2, PAULI_X, PAULI_Y, PAULI_Z, SpinMagnitude, SystemDims, qubit_ket, spin_operators
from espkit.model import (
    ExchangeCoupling,
    ProductSpinSpec,
    direct_hamiltonian,
    direct_immediate_concurrence,
    direct_immediate_concurrence_free,
    spin_star_hamiltonian,
)
from espkit.monotones import concurrence

from conftest import (
    charpoly_eigvals,
    embed,
    embedded_spin_star_hamiltonian,
    hermitian_eigvals,
    rotation_matrix,
    spectral_exp_skew,
)


def test_zero_coupling_gives_zero_matrix():
    h = spin_star_hamiltonian(ExchangeCoupling(0, 0, 0), SpinMagnitude(1))
    assert np.max(np.abs(h)) == 0.0


def test_ising_like_diagonal_entry():
    h = spin_star_hamiltonian(ExchangeCoupling(0, 0, 1), SpinMagnitude(1))
    assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0
    assert np.isclose(h[0, 0].real, 1.0)  # all-up state: (1/2)(+1) + (1/2)(+1)


def test_isotropic_coupling_conserves_total_z():
    s = SpinMagnitude(1)
    dims = SystemDims.for_spin(s)
    h = spin_star_hamiltonian(ExchangeCoupling(1, 1, 1), s)
    _, _, sz = spin_operators(s)
    total_z = embed(sz, "C", dims) + embed(np.diag([0.5, -0.5]).astype(complex), "A", dims) + embed(
        np.diag([0.5, -0.5]).astype(complex), "B", dims
    )
    assert np.max(np.abs(h @ total_z - total_z @ h)) <= 1e-12


@pytest.mark.parametrize("two_s", [1, 2, 3])
@pytest.mark.parametrize(
    "j",
    # the last four: the other fig2 couplings, and one whose Jy is zero
    [(1.0, 0.5, 1.0), (-0.5, -0.5, -1.0), (0.3, -0.7, 1.1), (0.0, 0.0, 1.0), (1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, -0.5, 1.0), (1.0, 0.0, 1.0)],
)
def test_hamiltonian_is_the_embedded_sum_bit_for_bit(j, two_s):
    """One Kronecker product per coupling, with sigma_a ⊗ I + I ⊗ sigma_a built once, gives exactly
    the nine-embed, three-product construction and the nine-Kronecker-product formula
    sum_a J_a kron(S_a, kron(sigma_a, I) + kron(I, sigma_a)); H is real."""
    j, s = ExchangeCoupling(*j), SpinMagnitude(two_s)
    nine_krons = sum(
        c * np.kron(s_op, np.kron(pauli, ID2) + np.kron(ID2, pauli))
        for c, s_op, pauli in zip(j.as_array(), spin_operators(s), (PAULI_X, PAULI_Y, PAULI_Z))
        if c != 0.0
    )
    h = spin_star_hamiltonian(j, s)
    assert np.array_equal(h, embedded_spin_star_hamiltonian(j, s))
    assert np.array_equal(h, nine_krons)
    assert not np.any(h.imag)


def test_hamiltonian_symmetric_under_qubit_swap():
    s = SpinMagnitude(2)
    h = spin_star_hamiltonian(ExchangeCoupling(0.3, -0.7, 1.1), s)
    dim_c = s.dim
    swapped = h.reshape(dim_c, 2, 2, dim_c, 2, 2).transpose(0, 2, 1, 3, 5, 4).reshape(h.shape)
    assert np.max(np.abs(h - swapped)) <= 1e-14
    assert np.max(np.abs(h - h.conj().T)) <= 1e-14


def test_hamiltonian_bilinear_in_coupling():
    s = SpinMagnitude(1)
    j = ExchangeCoupling(0.4, -1.2, 0.9)
    t = 0.37
    assert np.allclose(spin_star_hamiltonian(j, s) * t, spin_star_hamiltonian(ExchangeCoupling(*(j.as_array() * t)), s))


def test_direct_heisenberg_spectrum():
    h = direct_hamiltonian(ExchangeCoupling(1, 1, 1))
    assert np.allclose(hermitian_eigvals(h), [-3.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_direct_zz_diagonal():
    h = direct_hamiltonian(ExchangeCoupling(0, 0, 1))
    assert np.allclose(h, np.diag([1.0, -1.0, -1.0, 1.0]))


def test_direct_eigenvalues_match_charpoly(rng):
    j = ExchangeCoupling(*rng.standard_normal(3))
    h = direct_hamiltonian(j)
    assert np.max(np.abs(hermitian_eigvals(h) - charpoly_eigvals(h))) <= 1e-9


def numeric_direct_concurrence(jdir: ExchangeCoupling, theta_b: float, dt: float) -> float:
    psi = np.kron(qubit_ket(0.0, 0.0), qubit_ket(theta_b, 0.0))
    rho = np.outer(psi, psi.conj())
    u = spectral_exp_skew(direct_hamiltonian(jdir), dt)
    return concurrence(u @ rho @ u.conj().T)


def test_isotropic_inplane_no_entanglement():
    assert direct_immediate_concurrence(ExchangeCoupling(1, 1, 0), 0.0, 1e-3) == 0.0


def test_leading_order_arithmetic():
    assert np.isclose(direct_immediate_concurrence(ExchangeCoupling(1, 2, 0), 0.0, 1e-3), 2e-3)


def test_leading_order_even_in_dt():
    j = ExchangeCoupling(1.3, -0.4, 0.8)
    assert direct_immediate_concurrence(j, 0.9, 1e-3) == direct_immediate_concurrence(j, 0.9, -1e-3)


def test_leading_order_matches_full_numerics():
    j = ExchangeCoupling(1, 0.5, 3)
    dt = 1e-3
    for theta_b in (0.35, 0.7, 2.0):
        expected = direct_immediate_concurrence(j, theta_b, dt)
        assert abs(numeric_direct_concurrence(j, theta_b, dt) - expected) <= 5e-6


def test_degenerate_angle_leaves_quadratic_residual():
    # Jy = Jx cos(theta_b) kills the linear term; what remains is the
    # quadratic residual, bounded by the dominant coupling squared
    j = ExchangeCoupling(1, 0.5, 3)
    theta_b = np.pi / 3
    dt = 1e-3
    assert direct_immediate_concurrence(j, theta_b, dt) <= 1e-15
    residual = numeric_direct_concurrence(j, theta_b, dt)
    assert residual <= 1.05 * j.jz**2 * dt**2


def test_out_of_plane_independence():
    dt = 1e-3
    theta_b = 0.35
    for jx, jy in ((1.0, 0.5), (1.0, 2.0), (2.0, -1.0)):
        values = [numeric_direct_concurrence(ExchangeCoupling(jx, jy, jz), theta_b, dt) for jz in (-5.0, 0.0, 5.0)]
        assert max(values) - min(values) <= 1e-7


def test_coordinate_free_matches_axis_form():
    j = ExchangeCoupling(1, 0.5, 9)
    theta_b = 0.7
    n_a = np.array([0.0, 0.0, 1.0])
    n_b = np.array([np.sin(theta_b), 0.0, np.cos(theta_b)])
    free = direct_immediate_concurrence_free(j, n_a, n_b, 1e-3)
    axis = direct_immediate_concurrence(j, theta_b, 1e-3)
    assert abs(free - axis) <= 1e-12


def test_coordinate_free_collinear_zero():
    z = np.array([0.0, 0.0, 1.0])
    assert direct_immediate_concurrence_free(ExchangeCoupling(1, 1, 1), z, z, 1e-3) == 0.0


def test_coordinate_free_rotation_invariant(rng):
    j = np.array([1.0, -0.6, 0.4])
    n_a = np.array([0.0, 0.0, 1.0])
    n_b = np.array([np.sin(1.1), 0.0, np.cos(1.1)])
    base = direct_immediate_concurrence_free(ExchangeCoupling(*j), n_a, n_b, 1e-3)
    for _ in range(20):
        rot = rotation_matrix(rng.standard_normal(3), rng.uniform(0, 2 * np.pi))
        rotated = direct_immediate_concurrence_free(
            ExchangeCoupling(*(rot @ j)), rot @ n_a, rot @ n_b, 1e-3
        )
        assert abs(rotated - base) <= 1e-10


def test_coordinate_free_rejects_non_unit():
    with pytest.raises(ValueError):
        direct_immediate_concurrence_free(
            ExchangeCoupling(1, 1, 1), np.array([0.0, 0.0, 2.0]), np.array([1.0, 0.0, 0.0]), 1e-3
        )


def test_short_time_window_warning():
    with pytest.warns(UserWarning):
        direct_immediate_concurrence(ExchangeCoupling(1, 0, 0), 0.2, 0.2)


def test_product_spec_env_validation():
    spec = ProductSpinSpec(env_weights=(0.5, 0.6))
    with pytest.raises(ValueError):
        spec.resolved_env(SpinMagnitude(1))
    ok = ProductSpinSpec().resolved_env(SpinMagnitude(2))
    assert np.allclose(ok, [1.0, 0.0, 0.0])
    for bad in ({"theta_a": np.nan}, {"phi_b": np.inf}, {"env_weights": (np.nan, 1.0)}):
        with pytest.raises(ValueError, match="finite"):
            ProductSpinSpec(**bad)
    for s in (np.nan, np.inf):
        with pytest.raises(ValueError, match="half-integer"):
            SpinMagnitude.from_s(s)
