import math
from dataclasses import replace

import numpy as np
import pytest

from espkit import analysis, densemat, dynamics
from espkit.cli import FIG5_CASES, MIXED_J, MIXED_SPEC
from espkit.dynamics import (
    EvolutionSpec,
    SpectralPropagator,
    Trajectory,
    _checked_initial,
    _rk4,
    evolve_exact,
    evolve_series,
    integrate_vonneumann,
    group_batches,
    initial_factor,
    sample_trajectory,
    series_batches,
    time_reversed_state,
)
from espkit.errors import DimensionError, NumericalError
from espkit.hilbert import PAULI_Y, SpinMagnitude, partial_trace_c, spin_operators
from espkit.model import ExchangeCoupling, ProductSpinSpec, spin_star_hamiltonian
from espkit.monotones import negativity
from espkit.states import (
    BellKind,
    bell_ket,
    esp_weighting,
    mixed_initial,
    product_basis_initial,
    product_initial,
    pure_initial,
)
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
    for t in (1e200, 1.0 / (np.finfo(np.float64).eps * 1e200)):
        with pytest.raises(NumericalError, match="no correct bit"):
            prop.unitary(t)
        with pytest.raises(NumericalError, match="no correct bit"):
            prop.phases(np.array([0.0, -t]))
    t_ok = 0.5 / (np.finfo(np.float64).eps * 1e200)
    assert np.allclose(np.abs(prop.unitary(t_ok)), np.eye(2))
    assert prop.phases(np.array([t_ok])).shape == (1, 2)


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


SYMMETRIC_WINDOWS = sorted(
    {(MIXED_SPEC.t_max, MIXED_SPEC.n_steps)}  # fig4
    | {(spec.t_max, spec.n_steps) for _, _, spec, _, _ in FIG5_CASES}
    # the benchmark's evolve windows and their smoke sizes, its smoke fig4 and fig5 windows, and an odd n
    | {(0.5, 200), (0.05, 100), (0.5, 40), (0.05, 20), (1.5, 300), (1.0, 300), (3.0, 1200), (3.0, 1201)}
)


@pytest.mark.parametrize("t_max, n_steps", SYMMETRIC_WINDOWS)
def test_symmetric_window_is_exactly_symmetric(t_max, n_steps):
    """t_k = -t_{n-k} bit for bit, the ends are exactly ±t_max, and every time lies within 2 ulps of
    t_max of np.linspace, which is not symmetric.  An odd n has no t = 0 sample."""
    t = EvolutionSpec(t_max=t_max, n_steps=n_steps, emit_negative_times=True).time_grid()
    assert t.shape == (n_steps + 1,)
    assert np.array_equal(t, -t[::-1])
    assert t[0] == -t_max and t[-1] == t_max
    assert np.all(np.diff(t) > 0)
    assert np.max(np.abs(t - np.linspace(-t_max, t_max, n_steps + 1))) <= 2 * np.spacing(t_max)
    assert (0.0 in t) == (n_steps % 2 == 0)


def test_forward_window_is_linspace():
    for t_max, n_steps in ((10.0, 2000), (6.0, 1200), (0.3, 3000)):
        t = EvolutionSpec(t_max=t_max, n_steps=n_steps).time_grid()
        assert np.array_equal(t, np.linspace(0.0, t_max, n_steps + 1))


def real_preparations():
    """(H, rho0) of mixed W9 (X-shaped reduced states), pure W9 (LAPACK path) and uud at S = 1: all real."""
    half, w9 = SpinMagnitude(1), esp_weighting("W9", 0.01)
    one = SpinMagnitude(2)
    return [
        (spin_star_hamiltonian(MIXED_J, half), mixed_initial(w9, half)),
        (spin_star_hamiltonian(MIXED_J, w9.matched_spin()), pure_initial(w9, w9.matched_spin()).to_density()),
        (spin_star_hamiltonian(ExchangeCoupling(1, 1, 1), one), product_basis_initial("uud", one)),
    ]


def complex_preparation():
    """A product state with phi_A = pi/4 at J = (1, 0.5, 1), S = 1: rho0 is complex, so not time-even."""
    s = SpinMagnitude(2)
    spec = ProductSpinSpec(theta_a=np.pi / 2, phi_a=np.pi / 4, theta_b=np.pi / 2)
    return spin_star_hamiltonian(ExchangeCoupling(1, 0.5, 1), s), product_initial(spec, s)


@pytest.mark.parametrize("method", ["exact", "series", "integrator"])
def test_real_preparations_reduce_to_conjugates_at_minus_t(method):
    """For real H and rho0, each method's reduced state at -t is conj of its state at t, bit for bit,
    when every time is evaluated: the mirrored values are the values a full evaluation computes.  The
    factor methods yield L, so L(-t) = conj(L(t)); ``series`` yields its truncation rho_AB."""
    t = EvolutionSpec(t_max=0.5, n_steps=40, emit_negative_times=True).time_grid()
    for h, rho0 in real_preparations():
        assert not np.any(h.imag) and not np.any(rho0.matrix.imag)
        h, rho0 = _checked_initial(h, rho0)
        if method == "series":
            parts, width = list(series_batches(h, rho0, t)), 4
        else:
            b0 = initial_factor(rho0)[0]
            parts = [l for (l,) in group_batches(h, [b0], rho0.dims.dim_c, t, method)]
            width = rho0.dims.dim_c * b0.shape[1]
        assert all(part.shape[1:] == (4, width) for part in parts)
        state = np.concatenate(parts)
        assert np.array_equal(state[::-1], state.conj())


def test_real_preparations_evaluate_each_abs_t_once(monkeypatch):
    """n = 1200 on [-T, T]: a real preparation propagates its 601 distinct |t|, a complex one all 1201 times."""
    counts = []
    phases = SpectralPropagator.phases

    def spied(self, times):
        counts.append(len(times))
        return phases(self, times)

    monkeypatch.setattr(SpectralPropagator, "phases", spied)
    spec = EvolutionSpec(t_max=1.0, n_steps=1200, emit_negative_times=True)
    for h, rho0 in real_preparations():
        counts.clear()
        sample_trajectory(h, rho0, spec)
        assert sum(counts) == 601
    h, rho0 = complex_preparation()
    counts.clear()
    traj = sample_trajectory(h, rho0, spec)
    assert sum(counts) == 1201
    lam_plus, lam_minus = traj.cne[traj.times == 0.1][0], traj.cne[traj.times == -0.1][0]
    assert abs(lam_plus + 4.65e-5) <= 1e-7 and abs(lam_minus + 3.22e-5) <= 1e-7


def test_evaluation_times_is_the_unique_abs_t_bit_for_bit(monkeypatch):
    """evaluation_times of a real preparation gives np.unique(|t|, return_inverse=True) bit for bit, whether
    it skips the sort (forward windows) or not (symmetric windows, the formula check's unsorted dts)."""
    seen = []

    def spied(h, rho0, times):
        seen.append(times)
        return dynamics.evaluation_times(h, rho0, times)

    monkeypatch.setattr(analysis, "evaluation_times", spied)
    analysis.validate_formula("mixed_W6", {"j": MIXED_J, "epsilon": 0.01, "s": SpinMagnitude(1)})
    (dts,) = seen
    assert np.any(np.diff(dts) < 0) and np.unique(dts).size < dts.size
    forward = [EvolutionSpec(t_max=t, n_steps=n).time_grid() for t, n in ((10.0, 2000), (0.3, 3000), (1e-3, 1))]
    symmetric = [EvolutionSpec(t_max=t, n_steps=n, emit_negative_times=True).time_grid() for t, n in ((1.0, 1200), (0.5, 41))]
    assert [len(t) % 2 for t in symmetric] == [1, 0]
    h, rho0 = _checked_initial(*real_preparations()[0])
    for times in [*forward, *symmetric, dts]:
        got = dynamics.evaluation_times(h, rho0, times)
        expected = np.unique(np.abs(times), return_inverse=True)
        for a, b in zip(got, expected, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_integrator_powers_each_abs_t_once(monkeypatch):
    """The RK4 increment of a real preparation is formed once per distinct |t|, never at a negative time."""
    times = []
    increment = dynamics._rk4_increment

    def spied(h, t_final, max_step):
        times.append(t_final)
        return increment(h, t_final, max_step)

    monkeypatch.setattr(dynamics, "_rk4_increment", spied)
    h, rho0 = real_preparations()[0]
    sample_trajectory(h, rho0, EvolutionSpec(t_max=0.1, n_steps=20, method="integrator", emit_negative_times=True))
    assert len(times) == 11 and min(times) == 0.0


@pytest.mark.parametrize("method", ["exact", "series", "integrator"])
def test_real_trajectories_are_palindromes(method):
    """lambda*, N and C of a real preparation read the same reversed, bit for bit, on a symmetric window."""
    spec = EvolutionSpec(t_max=0.002 if method == "series" else 0.5, n_steps=40, method=method, emit_negative_times=True)
    for h, rho0 in real_preparations():
        traj = sample_trajectory(h, rho0, spec)
        for column in (traj.cne, traj.negativity, traj.concurrence, traj.negative_count):
            assert np.array_equal(column, column[::-1])


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


def test_trajectory_columns_share_one_length():
    """A short lambda* or a short count raises, naming the five lengths; nothing is dropped silently."""
    t = np.array([0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match=r"differ in length: \[3, 2, 3, 3, 3\]"):
        Trajectory(t, t[:2], t, t, np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError, match=r"differ in length: \[3, 3, 3, 3, 1\]"):
        Trajectory(t, t, t, t, np.zeros(1, dtype=np.int64))


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
