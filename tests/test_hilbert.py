import numpy as np
import pytest

from espkit.errors import DimensionError
from espkit.hilbert import (
    AB_DIMS,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityOperator,
    Ket,
    SpinMagnitude,
    SystemDims,
    basis_ket_c,
    partial_trace_c,
    partial_transpose_b,
    spin_operators,
    trace_out_c,
)
from espkit.model import ExchangeCoupling, spin_star_hamiltonian
from espkit.states import BellKind, bell_ket, bell_mixture, product_basis_initial
from espkit.dynamics import evolve_exact

from conftest import (
    custom_weighting,
    embed,
    hermitian_eigvals,
    partial_transpose_a,
    ptrace_first_loop,
    random_two_qubit_dm,
)


def commutator(a, b):
    return a @ b - b @ a


def test_spin_half_is_half_pauli():
    sx, sy, sz = spin_operators(SpinMagnitude(1))
    assert np.allclose(sx, PAULI_X / 2)
    assert np.allclose(sy, PAULI_Y / 2)
    assert np.allclose(sz, PAULI_Z / 2)


def test_spin_one_z_descending():
    _, _, sz = spin_operators(SpinMagnitude(2))
    assert np.allclose(sz, np.diag([1.0, 0.0, -1.0]))


@pytest.mark.parametrize("two_s", [1, 2, 3, 4])
def test_spin_algebra_identities(two_s):
    s = SpinMagnitude(two_s)
    sx, sy, sz = spin_operators(s)
    assert np.max(np.abs(commutator(sx, sy) - 1j * sz)) <= 1e-12
    assert np.max(np.abs(commutator(sy, sz) - 1j * sx)) <= 1e-12
    assert np.max(np.abs(commutator(sz, sx) - 1j * sy)) <= 1e-12
    casimir = sx @ sx + sy @ sy + sz @ sz
    assert np.max(np.abs(casimir - s.s * (s.s + 1) * np.eye(s.dim))) <= 1e-12
    for op in (sx, sy, sz):
        assert np.max(np.abs(op - op.conj().T)) <= 1e-12


def test_embed_definition():
    dims = SystemDims(dim_c=2)
    assert np.allclose(embed(PAULI_Z, "A", dims), np.kron(np.eye(2), np.kron(PAULI_Z, np.eye(2))))


def test_embed_disjoint_slots_commute(rng):
    dims = SystemDims(dim_c=3)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = embed(x, "A", dims)
    b = embed(y, "B", dims)
    assert np.max(np.abs(a @ b - b @ a)) <= 1e-12


def test_embed_trace_multiplicative(rng):
    dims = SystemDims(dim_c=2)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.isclose(np.trace(embed(x, "C", dims)), np.trace(x) * 4)


def test_embed_dimension_mismatch():
    with pytest.raises(DimensionError):
        embed(np.eye(3), "A", SystemDims(dim_c=2))


def test_partial_trace_product_state(rng):
    ab = random_two_qubit_dm(rng)
    env = np.diag([0.25, 0.75]).astype(complex)
    rho = DensityOperator(np.kron(env, ab), SystemDims(dim_c=2))
    red = partial_trace_c(rho)
    assert np.max(np.abs(red.matrix - ab)) <= 1e-14
    assert red.dims == AB_DIMS


def test_partial_trace_singlet_marginal():
    singlet = bell_ket(BellKind("beta", -1))
    env = basis_ket_c(SpinMagnitude(1), 0.5)
    full = np.kron(np.outer(env, env.conj()), singlet.to_density().matrix)
    red = partial_trace_c(DensityOperator(full, SystemDims(dim_c=2)))
    w = hermitian_eigvals(partial_transpose_b(red))
    assert np.allclose(np.sort(w), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_trace_matches_loop_oracle():
    s = SpinMagnitude(1)
    h = spin_star_hamiltonian(ExchangeCoupling(1, 1, 1), s)
    rho0 = product_basis_initial("uud", s)
    rho_t = evolve_exact(h, rho0, 0.5)
    red = partial_trace_c(rho_t)
    assert abs(np.trace(red.matrix) - 1.0) <= 1e-12
    oracle = ptrace_first_loop(rho_t.matrix, 2)
    assert np.max(np.abs(red.matrix - oracle)) <= 1e-14


def test_partial_trace_linear(rng):
    a = np.kron(np.diag([1.0, 0.0]).astype(complex), random_two_qubit_dm(rng))
    b = np.kron(np.diag([0.0, 1.0]).astype(complex), random_two_qubit_dm(rng))
    mix = 0.3 * a + 0.7 * b
    assert np.allclose(
        trace_out_c(mix, 2),
        0.3 * trace_out_c(a, 2) + 0.7 * trace_out_c(b, 2),
    )


def test_partial_transpose_product_fixed():
    up_up = np.zeros((4, 4), dtype=complex)
    up_up[0, 0] = 1.0
    assert np.allclose(partial_transpose_b(up_up), up_up)


def test_partial_transpose_singlet_spectrum():
    rho = bell_ket(BellKind("beta", -1)).to_density()
    w = hermitian_eigvals(partial_transpose_b(rho))
    assert np.allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-14)


def test_partial_transpose_bell_mixture_spectrum(rng):
    weights = rng.dirichlet(np.ones(4))
    rho = bell_mixture(custom_weighting(weights))
    w = hermitian_eigvals(partial_transpose_b(rho))
    assert np.max(np.abs(np.sort(w) - np.sort(0.5 - weights))) <= 1e-12


def test_partial_transpose_involution_and_trace(rng):
    rho = random_two_qubit_dm(rng)
    pt = partial_transpose_b(rho)
    assert abs(np.trace(pt) - 1.0) <= 1e-14
    assert np.max(np.abs(pt - pt.conj().T)) <= 1e-14
    assert np.max(np.abs(partial_transpose_b(pt) - rho)) == 0.0


def test_partial_transpose_side_independent_spectrum(rng):
    for _ in range(100):
        rho = random_two_qubit_dm(rng)
        wa = hermitian_eigvals(partial_transpose_a(rho))
        wb = hermitian_eigvals(partial_transpose_b(rho))
        assert np.max(np.abs(wa - wb)) <= 1e-10


def test_density_operator_validation():
    bad_trace = np.eye(4, dtype=complex)
    with pytest.raises(ValueError):
        DensityOperator(bad_trace, AB_DIMS)
    not_psd = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        DensityOperator(not_psd, AB_DIMS)


def test_ket_normalization_enforced():
    with pytest.raises(ValueError):
        Ket(np.array([1.0, 1.0, 0.0, 0.0]), AB_DIMS)


def test_spin_magnitude_from_s():
    assert SpinMagnitude.from_s(1.5).two_s == 3
    with pytest.raises(ValueError):
        SpinMagnitude.from_s(0.7)
