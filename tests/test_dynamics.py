import math
from dataclasses import replace

import numpy as np
import pytest

from espkit import densemat, dynamics
from espkit.dynamics import (
    EvolutionSpec,
    SpectralPropagator,
    Trajectory,
    _rk4,
    evolve_exact,
    evolve_series,
    integrate_vonneumann,
    sample_trajectory,
    time_reversed_state,
)
from espkit.errors import DimensionError, NumericalError
from espkit.hilbert import PAULI_Y, SpinMagnitude, partial_trace_c, spin_operators
from espkit.model import ExchangeCoupling, ProductSpinSpec, spin_star_hamiltonian
from espkit.monotones import negativity
from espkit.states import BellKind, bell_ket, esp_weighting, mixed_initial, product_basis_initial, product_initial
from espkit.hilbert import DensityOperator, SystemDims, basis_ket_c

from conftest import hermitian_eigvals, spectral_exp_skew


INTEGRATOR_TOL = 1e-12  # RK4 at the default 1e-4 step against exact evolution


def seeded_configs():
    return [
        (ExchangeCoupling(1, 1, 1), SpinMagnitude(1), "uud"),
        (ExchangeCoupling(1, -1, 1), SpinMagnitude(1), "udd"),
        (ExchangeCoupling(1, 0.5, 1), SpinMagnitude(2), "uuu"),
        (ExchangeCoupling(-0.5, -0.5, -1), SpinMagnitude(1), "uud"),
        (ExchangeCoupling(0.7, -0.3, 1.2), SpinMagnitude(2), "udd"),
    ]


def test_exact_at_zero_is_identity():
    s = SpinMagnitude(1)
    h = spin_star_hamiltonian(ExchangeCoupling(1, 1, 1), s)
    rho0 = product_basis_initial("uud", s)
    assert np.array_equal(evolve_exact(h, rho0, 0.0).matrix, rho0.matrix)


def test_exact_stationary_state():
    s = SpinMagnitude(1)
    h = spin_star_hamiltonian(ExchangeCoupling(0, 0, 1), s)
    rho0 = product_basis_initial("uud", s)  # z-product state commutes with the zz coupling
    for t in (0.5, 2.0, 7.0):
        assert np.max(np.abs(evolve_exact(h, rho0, t).matrix - rho0.matrix)) <= 1e-12


def test_exact_matches_integrator_oracle():
    s = SpinMagnitude(1)
    h = spin_star_hamiltonian(ExchangeCoupling(1, 1, 1), s)
    rho0 = product_basis_initial("uud", s)
    got = evolve_exact(h, rho0, 0.5)
    oracle = integrate_vonneumann(h, rho0, 0.5)
    assert np.linalg.norm(got.matrix - oracle.matrix) <= INTEGRATOR_TOL


def test_exact_vs_integrator_seeded_sweep():
    for j, s, state in seeded_configs():
        h = spin_star_hamiltonian(j, s)
        rho0 = product_basis_initial(state, s)
        for t in (0.5, 1.0, 5.0):
            exact = evolve_exact(h, rho0, t)
            rk = integrate_vonneumann(h, rho0, t)
            assert np.linalg.norm(exact.matrix - rk.matrix) <= INTEGRATOR_TOL


@pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 51])  # odd and even step counts, several bits set
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_rk4_powering_matches_step_loop(n, sign):
    """The powered propagator equals n plain RK4 steps T rho T†, T = sum_{k<=4} (-iH dt)^k / k!."""
    s = SpinMagnitude(1)
    h = spin_star_hamiltonian(ExchangeCoupling(0.7, -0.3, 1.2), s)
    rho0 = mixed_initial(esp_weighting("W9", 0.01), s).matrix
    max_step = 1e-2
    t = sign * (n - 0.5) * max_step  # ceil(|t| / max_step) = n steps
    a = -1j * h * (t / n)
    step = sum(np.linalg.matrix_power(a, k) / math.factorial(k) for k in range(5))
    rho = rho0
    for _ in range(n):
        rho = step @ rho @ step.conj().T
    assert np.max(np.abs(_rk4(h, rho0, t, max_step) - rho)) <= 1e-14


def test_rk4_zero_time_returns_copy():
    s = SpinMagnitude(1)
    h = spin_star_hamiltonian(ExchangeCoupling(1, 1, 1), s)
    rho0 = product_basis_initial("uud", s).matrix
    out = _rk4(h, rho0, 0.0, 1e-4)
    assert np.array_equal(out, rho0) and out is not rho0


def test_every_evolve_entry_accepts_a_propagator(monkeypatch):
    """Bit for bit the bare matrix's results: evolve_exact reuses the spectrum, the others the matrix."""
    s = SpinMagnitude(2)
    h = spin_star_hamiltonian(ExchangeCoupling(0.7, -0.3, 1.2), s)
    rho0 = product_basis_initial("udd", s)
    expected = (evolve_exact(h, rho0, 0.3).matrix, evolve_series(h, rho0, 0.01), integrate_vonneumann(h, rho0, 0.01).matrix)
    prop = SpectralPropagator(h)

    def no_eig(*args, **kwargs):
        raise AssertionError("H diagonalized again")

    monkeypatch.setattr(dynamics, "hermitian_eig", no_eig)
    got = (evolve_exact(prop, rho0, 0.3).matrix, evolve_series(prop, rho0, 0.01), integrate_vonneumann(prop, rho0, 0.01).matrix)
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


def test_integrator_never_diagonalizes(monkeypatch):
    s = SpinMagnitude(1)
    h = spin_star_hamiltonian(ExchangeCoupling(1, -0.5, 1), s)
    rho0 = product_basis_initial("udd", s)
    spec = EvolutionSpec(t_max=0.2, n_steps=8, method="integrator", emit_negative_times=True)
    exact_state = evolve_exact(h, rho0, 0.2).matrix
    exact_traj = sample_trajectory(h, rho0, replace(spec, method="exact"))

    def no_eig(*args, **kwargs):
        raise AssertionError("the integrator diagonalized H")

    monkeypatch.setattr(densemat, "hermitian_eig", no_eig)
    monkeypatch.setattr(dynamics, "hermitian_eig", no_eig)
    with pytest.raises(AssertionError):
        evolve_exact(h, rho0, 0.2)  # the patch reaches the spectral path
    assert np.linalg.norm(integrate_vonneumann(h, rho0, 0.2).matrix - exact_state) <= INTEGRATOR_TOL
    traj = sample_trajectory(h, rho0, spec)
    assert np.max(np.abs(traj.cne - exact_traj.cne)) <= INTEGRATOR_TOL


def test_exact_preserves_trace_spectrum_energy():
    s = SpinMagnitude(2)
    h = spin_star_hamiltonian(ExchangeCoupling(1, 0.5, 1), s)
    rho0 = product_basis_initial("uuu", s)
    rho_t = evolve_exact(h, rho0, 1.7)
    assert abs(np.trace(rho_t.matrix) - 1.0) <= 1e-12
    w0 = hermitian_eigvals(rho0.matrix)
    wt = hermitian_eigvals(rho_t.matrix)
    assert np.max(np.abs(w0 - wt)) <= 1e-10
    e0 = np.trace(h @ rho0.matrix).real
    et = np.trace(h @ rho_t.matrix).real
    assert abs(e0 - et) <= 1e-10


def test_exact_dimension_mismatch():
    h = spin_star_hamiltonian(ExchangeCoupling(1, 1, 1), SpinMagnitude(1))
    rho0 = product_basis_initial("uuu", SpinMagnitude(2))
    with pytest.raises(DimensionError):
        evolve_exact(h, rho0, 0.1)


def test_series_order_one_is_initial_state():
    s = SpinMagnitude(1)
    h = spin_star_hamiltonian(ExchangeCoupling(1, -1, 1), s)
    rho0 = product_basis_initial("udd", s)
    assert np.array_equal(evolve_series(h, rho0, 0.05, 1), rho0.matrix)


def test_series_hermitian_trace_one():
    s = SpinMagnitude(1)
    h = spin_star_hamiltonian(ExchangeCoupling(1, 0.5, -1), s)
    rho0 = mixed_initial(esp_weighting("W9", 0.01), s)
    for order in (2, 3):
        out = evolve_series(h, rho0, 0.05, order)
        assert abs(np.trace(out) - 1.0) <= 1e-14
        assert np.max(np.abs(out - out.conj().T)) <= 1e-14


def test_series_third_order_accuracy():
    """Richardson order estimate of the two-commutator truncation error."""
    s = SpinMagnitude(1)
    h = spin_star_hamiltonian(ExchangeCoupling(1, 1, 1), s)
    rho0 = product_basis_initial("uud", s)
    gaps = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        exact = evolve_exact(h, rho0, dt).matrix
        series = evolve_series(h, rho0, dt, 3)
        gaps.append(np.linalg.norm(series - exact))
    order1 = np.log2(gaps[0] / gaps[1])
    order2 = np.log2(gaps[1] / gaps[2])
    assert order1 >= 2.7
    assert order2 >= 2.7


def test_trajectory_isotropic_inplane_coupling():
    """At Jx = Jy the quadratic growth is suppressed: the all-up state is an
    exact eigenstate (flat zero negativity), while up-down-down grows at
    fourth order and then oscillates periodically."""
    from espkit.analysis import exact_cne_function, fit_short_time

    s = SpinMagnitude(1)
    h = spin_star_hamiltonian(ExchangeCoupling(1, 1, 1), s)

    rho_uuu = product_basis_initial("uuu", s)
    assert np.max(np.abs(h @ rho_uuu.matrix - rho_uuu.matrix @ h)) == 0.0
    traj_uuu = sample_trajectory(h, rho_uuu, EvolutionSpec(t_max=10.0, n_steps=1000))
    assert np.all(traj_uuu.negativity <= 1e-9)
    fit_uuu = fit_short_time(exact_cne_function(h, rho_uuu))
    assert abs(fit_uuu.coefficient(2)) <= 1e-6

    rho_udd = product_basis_initial("udd", s)
    fit_udd = fit_short_time(exact_cne_function(h, rho_udd))
    assert abs(fit_udd.coefficient(2)) <= 1e-6  # leading order beyond dt²
    assert fit_udd.coefficient(4) < -0.5
    traj_udd = sample_trajectory(h, rho_udd, EvolutionSpec(t_max=10.0, n_steps=1000))
    peak = traj_udd.negativity.max()
    assert peak > 0.1
    peaks = np.flatnonzero(
        (traj_udd.negativity[1:-1] > traj_udd.negativity[:-2])
        & (traj_udd.negativity[1:-1] >= traj_udd.negativity[2:])
        & (traj_udd.negativity[1:-1] > 0.5 * peak)
    )
    assert len(peaks) >= 3  # recurring oscillation over the window


def test_trajectory_initial_sample_singlet():
    s = SpinMagnitude(1)
    h = spin_star_hamiltonian(ExchangeCoupling(1, 0.5, 1), s)
    env = basis_ket_c(s, s.s)
    ab = bell_ket(BellKind("beta", -1)).to_density().matrix
    rho0 = DensityOperator(np.kron(np.outer(env, env.conj()), ab), SystemDims.for_spin(s))
    traj = sample_trajectory(h, rho0, EvolutionSpec(t_max=1.0, n_steps=10))
    assert np.allclose(
        (traj.cne[0], traj.negativity[0], traj.concurrence[0], traj.negative_count[0]),
        (-0.5, 0.5, 1.0, 1),
        atol=1e-12,
    )


def test_trajectory_zero_interval_near_t4():
    s = SpinMagnitude(2)
    h = spin_star_hamiltonian(ExchangeCoupling(1, 0.5, 1), s)
    traj = sample_trajectory(h, product_basis_initial("uuu", s), EvolutionSpec(t_max=6.0, n_steps=1200))
    window = (traj.times >= 3.9) & (traj.times <= 4.1)
    assert np.all(traj.negativity[window] <= 1e-9)


def test_trajectory_negative_times_grid():
    s = SpinMagnitude(1)
    h = spin_star_hamiltonian(ExchangeCoupling(-0.5, -0.5, -1), s)
    rho0 = mixed_initial(esp_weighting("W9", 0.01), s)
    traj = sample_trajectory(h, rho0, EvolutionSpec(t_max=0.5, n_steps=100, emit_negative_times=True))
    assert traj.times[0] == -0.5 and traj.times[-1] == 0.5
    assert len(traj) == 101
    assert traj.meta["max_trace_deviation"] <= 1e-12


def test_trajectory_methods_agree():
    s = SpinMagnitude(1)
    h = spin_star_hamiltonian(ExchangeCoupling(1, -0.5, 1), s)
    rho0 = product_basis_initial("udd", s)
    spec_exact = EvolutionSpec(t_max=0.5, n_steps=10)
    spec_rk = EvolutionSpec(t_max=0.5, n_steps=10, method="integrator")
    t_exact = sample_trajectory(h, rho0, spec_exact)
    t_rk = sample_trajectory(h, rho0, spec_rk)
    assert np.max(np.abs(t_exact.negativity - t_rk.negativity)) <= INTEGRATOR_TOL


def test_series_trajectory_short_window():
    s = SpinMagnitude(1)
    h = spin_star_hamiltonian(ExchangeCoupling(-0.5, -0.5, -1), s)
    rho0 = mixed_initial(esp_weighting("W1", 0.01), s)
    spec = EvolutionSpec(t_max=0.01, n_steps=10, method="series")
    traj = sample_trajectory(h, rho0, spec)
    exact = sample_trajectory(h, rho0, EvolutionSpec(t_max=0.01, n_steps=10))
    assert np.max(np.abs(traj.cne - exact.cne)) <= 1e-9


def test_coupling_negation_equals_time_reversal():
    s = SpinMagnitude(1)
    h = spin_star_hamiltonian(ExchangeCoupling(1, 0.5, 1), s)
    h_neg = spin_star_hamiltonian(-ExchangeCoupling(1, 0.5, 1), s)
    prop = SpectralPropagator(h)
    prop_neg = SpectralPropagator(h_neg)
    for t in (0.3, 1.0, 2.5):
        assert np.max(np.abs(prop.unitary(-t) - prop_neg.unitary(t))) <= 1e-12


def test_time_reversal_closure():
    s = SpinMagnitude(1)
    j = ExchangeCoupling(1, -0.5, 1)
    h = spin_star_hamiltonian(j, s)
    rho0 = product_basis_initial("udd", s)
    n0 = negativity(partial_trace_c(rho0))
    rho_t = evolve_exact(h, rho0, 2.0)
    flipped = time_reversed_state(rho_t, s)
    rho_back = evolve_exact(h, flipped, 2.0)
    assert abs(negativity(partial_trace_c(rho_back)) - n0) <= 1e-8


def test_propagator_rejects_phases_with_no_correct_bit():
    """eps max|w| |t| >= 1 raises, also where that product overflows, and without a warning; below it, it evolves."""
    prop = SpectralPropagator(np.diag([1e200, -1e200]))
    b0 = np.eye(2, dtype=np.complex128)
    for t in (1e200, 1.0 / (np.finfo(np.float64).eps * 1e200)):
        with pytest.raises(NumericalError, match="no correct bit"):
            prop.unitary(t)
        with pytest.raises(NumericalError, match="no correct bit"):
            prop.evolve_factor(b0, np.array([0.0, -t]))
    t_ok = 0.5 / (np.finfo(np.float64).eps * 1e200)
    assert np.allclose(np.abs(prop.unitary(t_ok)), np.eye(2))
    assert prop.evolve_factor(b0, np.array([t_ok])).shape == (1, 2, 2)


def test_time_reversal_is_the_spin_flip_and_an_exact_involution(rng):
    """Theta = exp(-i pi Sy) ⊗ sigma_y ⊗ sigma_y, built by diagonalization, agrees with the signed
    reversal to 1e-15 for S = 0 to 3/2, on real and complex states; two flips return rho bit for bit."""
    for two_s in (0, 1, 2, 3):
        s = SpinMagnitude(two_s)
        theta = np.kron(spectral_exp_skew(spin_operators(s)[1], np.pi), np.kron(PAULI_Y, PAULI_Y))
        b = rng.normal(size=(4 * s.dim, 3)) + 1j * rng.normal(size=(4 * s.dim, 3))
        states = [
            product_basis_initial("uud", s),
            product_initial(ProductSpinSpec(theta_a=1.1, phi_a=np.pi / 4, theta_b=0.4), s),
            DensityOperator.from_factor(b / np.linalg.norm(b), SystemDims.for_spin(s)),
        ]
        for rho in states:
            flipped = time_reversed_state(rho, s)
            assert np.max(np.abs(flipped.matrix - theta @ rho.matrix.conj() @ theta.conj().T)) <= 1e-15
            assert np.array_equal(time_reversed_state(flipped, s).matrix, rho.matrix)


def test_evolution_spec_validation():
    with pytest.raises(ValueError):
        EvolutionSpec(t_max=1.0, n_steps=0)
    with pytest.raises(ValueError):
        EvolutionSpec(t_max=1.0, n_steps=10, method="magic")
    with pytest.raises(ValueError):
        EvolutionSpec(t_max=-1.0, n_steps=10).time_grid()
    # the window is checked when the plan is made, not when it is sampled
    # and so is its grid: a spacing that underflows repeats sample times, a window that overflows is NaN
    for bad in (
        {"t_max": np.nan},
        {"t_max": np.inf},
        {"t_max": -np.inf},
        {"t_max": 0.0},
        {"t_max": 1e-321},
        {"t_max": 1.7e308, "emit_negative_times": True},
    ):
        with pytest.raises(ValueError):
            EvolutionSpec(n_steps=10, **bad)
    assert EvolutionSpec(t_max=1.0, n_steps=4, emit_negative_times=True).start == -1.0


def test_trajectory_needs_two_finite_samples():
    t = np.array([0.0, 0.5, 1.0])
    ok = Trajectory(t, -t, t, t, np.zeros(3, dtype=np.int64))
    assert len(ok) == 3
    with pytest.raises(ValueError, match="two samples"):
        Trajectory(t[:1], t[:1], t[:1], t[:1], np.zeros(1, dtype=np.int64))
    for column in range(4):
        arrays = [t.copy() for _ in range(4)]
        arrays[column][1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Trajectory(*arrays, np.zeros(3, dtype=np.int64))
