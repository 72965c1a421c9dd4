"""The batched sampling path against the per-matrix chain and a 50-digit oracle."""

from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from espkit import dynamics, monotones
from espkit.analysis import DEFAULT_FIT_WINDOW, exact_cne_function, truncated_cne_function
from espkit.cli import FIG5_CASES, HALF, main
from espkit.dynamics import (
    EvolutionSpec,
    SpectralPropagator,
    evolve_series,
    integrate_vonneumann,
    sample_trajectory,
)
from espkit.errors import NumericalError
from espkit.hilbert import DensityOperator, Ket, SpinMagnitude, SystemDims, pair_factor, trace_out_c
from espkit.model import ExchangeCoupling, ProductSpinSpec, spin_star_hamiltonian
from espkit.monotones import CHUNK, cne, concurrence, negativity
from espkit.states import esp_weighting, mixed_initial, product_basis_initial, product_initial, pure_initial

from conftest import monotone_sample, trajectory_columns

MIXED_J = ExchangeCoupling(-0.5, -0.5, -1.0)
CHAIN_TOL = 1e-14
ORACLE_TOL = 1e-14


def state_case(kind):
    if kind == "product":
        s = SpinMagnitude(2)
        return spin_star_hamiltonian(ExchangeCoupling(1.0, 0.5, 1.0), s), product_basis_initial("uud", s)
    if kind == "product_env":  # general angles, three env levels: a 4 x 9 factor of rho_AB
        s = SpinMagnitude(2)
        spec = ProductSpinSpec(theta_a=1.1, phi_a=0.4, theta_b=2.3, phi_b=-1.7, env_weights=(0.5, 0.3, 0.2))
        return spin_star_hamiltonian(ExchangeCoupling(1.0, -0.5, 0.8), s), product_initial(spec, s)
    if kind == "mixed":
        s = SpinMagnitude(1)
        return spin_star_hamiltonian(MIXED_J, s), mixed_initial(esp_weighting("W9", 0.01), s)
    w = esp_weighting("W13", -0.01)
    s = w.matched_spin()
    return spin_star_hamiltonian(MIXED_J, s), pure_initial(w, s)


def chain_states(h, initial, spec):
    """Full states at every grid time, one public per-matrix call each, with the per-time factor
    L(t) of rho_AB from U(t) B0 for ``exact`` (None for the other methods)."""
    rho0 = initial.to_density() if isinstance(initial, Ket) else initial
    times = spec.time_grid()
    if spec.method == "exact":
        prop = SpectralPropagator(h)
        dim_c = rho0.dims.dim_c
        return [
            (prop.evolve_matrix(rho0.matrix, float(t)), pair_factor(prop.unitary(float(t)) @ rho0.factor, dim_c))
            for t in times
        ]
    if spec.method == "series":
        return [(evolve_series(h, rho0, float(t), 3), None) for t in times]
    out, rho, t_prev = [], rho0, 0.0
    for t in times:
        rho = integrate_vonneumann(h, rho, float(t) - t_prev)
        t_prev = float(t)
        out.append((rho.matrix, None))
    return out


@pytest.mark.parametrize("n_samples", [255, 256, 257, 513])  # around multiples of the batch size
@pytest.mark.parametrize("kind", ["product", "product_env", "mixed", "pure"])
@pytest.mark.parametrize("method", ["exact", "series", "integrator"])
def test_batched_path_matches_per_matrix_chain(method, kind, n_samples):
    """Where the chain has a factor, its concurrence comes from it: eigendecomposing a rank-deficient
    rho_AB to factor it costs ~6.6e-14 (uud at t = 1.046875), beyond CHAIN_TOL."""
    assert 256 % CHUNK == 0
    h, initial = state_case(kind)
    t_max = {"exact": 2.0, "series": 0.002, "integrator": 0.01}[method]
    spec = EvolutionSpec(t_max=t_max, n_steps=n_samples - 1, method=method, emit_negative_times=True)
    traj = sample_trajectory(h, initial, spec)
    assert len(traj) == n_samples
    dim_c = h.shape[0] // 4
    for k, (rho, factor) in enumerate(chain_states(h, initial, spec)):
        red = trace_out_c(rho, dim_c)
        lam, count = cne(red)
        assert abs(traj.cne[k] - lam) <= CHAIN_TOL
        assert traj.negative_count[k] == count
        assert abs(traj.negativity[k] - negativity(red)) <= CHAIN_TOL
        if factor is None:
            assert abs(traj.concurrence[k] - concurrence(red)) <= CHAIN_TOL
        sample = monotone_sample(red, factor)
        assert abs(traj.cne[k] - sample.cne) <= CHAIN_TOL
        assert abs(traj.concurrence[k] - sample.concurrence) <= CHAIN_TOL


@pytest.mark.parametrize("kind", ["product", "product_env", "mixed", "pure"])
@pytest.mark.parametrize("method", ["exact", "integrator"])
def test_factor_methods_never_form_rho(monkeypatch, method, kind):
    """exact and integrator sample from the propagated factor: no full rho(t), no partial trace of one,
    and no psd_factor, since every constructed state carries its B0."""
    h, initial = state_case(kind)
    spec = EvolutionSpec(t_max=0.5, n_steps=100, method=method, emit_negative_times=True)
    before = sample_trajectory(h, initial, spec)
    lam_before = exact_cne_function(h, initial)(spec.time_grid())

    def forbidden(*args, **kwargs):
        raise AssertionError("sampling formed a full density matrix")

    monkeypatch.setattr(dynamics, "trace_out_c", forbidden)
    monkeypatch.setattr(SpectralPropagator, "evolve_matrix", forbidden)
    monkeypatch.setattr(dynamics, "psd_factor", forbidden)
    monkeypatch.setattr(monotones, "psd_factor", forbidden)
    with pytest.raises(AssertionError):
        sample_trajectory(h, initial, replace(spec, method="series"))  # the patch reaches the rho-stack path
    after = sample_trajectory(h, initial, spec)
    for column in ("cne", "negativity", "concurrence", "negative_count"):
        assert np.array_equal(getattr(after, column), getattr(before, column))
    assert np.array_equal(exact_cne_function(h, initial)(spec.time_grid()), lam_before)


@pytest.mark.parametrize("kind", ["product", "product_env", "mixed", "pure"])
def test_exact_sampler_is_the_trajectory_path(kind):
    """The short-time lambda* sampler and the exact trajectory take their states from the same batches, bit for bit."""
    h, initial = state_case(kind)
    spec = EvolutionSpec(t_max=0.7, n_steps=2 * CHUNK + 9, emit_negative_times=True)  # three batches
    traj = sample_trajectory(h, initial, spec)
    assert np.array_equal(exact_cne_function(h, initial)(spec.time_grid()), traj.cne)


def lapack_calls(monkeypatch) -> list:
    """The LAPACK routines monotones runs (eigh included), every eigvalsh, SVD and QR call by name,
    and "rho_AB" for each (T, 4, 4) rho_AB = L L† formed, in call order."""
    calls = []
    real_lapack = monotones._lapack
    monkeypatch.setattr(monotones, "_lapack", lambda fn, *a, **k: calls.append(fn) or real_lapack(fn, *a, **k))
    for name in ("eigvalsh", "svd", "qr"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k))
    real_gram = monotones._gram
    monkeypatch.setattr(monotones, "_gram", lambda l: calls.append("rho_AB") or real_gram(l))
    return calls


def test_series_truncations_are_factored_once_per_batch_and_never_x_decided(monkeypatch):
    """A series trajectory factors each batch of truncations once, with psd_factor, for the concurrence,
    and never reaches the X decision, which only factor batches make: the uud product, X-shaped under
    the factor methods, takes LAPACK on its truncations."""
    h, initial = state_case("product")
    factored = []
    real_psd_factor = monotones.psd_factor
    monkeypatch.setattr(monotones, "psd_factor", lambda m: factored.append(m.shape) or real_psd_factor(m))
    monkeypatch.setattr(monotones, "_x_factor", lambda l: pytest.fail("a series batch reached the X decision"))
    sample_trajectory(h, initial, EvolutionSpec(t_max=0.002, n_steps=2 * CHUNK + 8, method="series"))
    assert factored == [(CHUNK, 4, 4), (CHUNK, 4, 4), (9, 4, 4)]


def test_truncated_sampler_takes_eigvalsh_alone(monkeypatch):
    """The series lambda*(dt) sampler takes one eigvalsh per batch of truncations: no eigh, no SVD, no QR."""
    h, initial = state_case("pure")
    sampler = truncated_cne_function(h, initial, 3)
    calls = lapack_calls(monkeypatch)
    sampler(np.linspace(0.0, 0.002, 2 * CHUNK + 9))
    assert calls == [np.linalg.eigvalsh, "eigvalsh"] * 3


@pytest.mark.parametrize("kind,lapack", [("product", False), ("mixed", False), ("product_env", True), ("pure", True)])
@pytest.mark.parametrize("method", ["exact", "integrator"])
def test_only_states_off_the_x_take_lapack(monkeypatch, method, kind, lapack):
    """Parity-definite states (a z-basis product, fig4's Bell mixture W9 at S = 1/2) stay exactly
    X-shaped and are sampled from their factors alone: monotones runs no LAPACK routine (eigh
    included), nothing calls eigvalsh, SVD or QR, and no (T, 4, 4) rho_AB = L L† is formed.
    General angles and the purified W13 weighting form rho_AB and take LAPACK."""
    h, initial = state_case(kind)
    calls = lapack_calls(monkeypatch)
    sample_trajectory(h, initial, EvolutionSpec(t_max=2.0, n_steps=2 * CHUNK + 9, method=method))
    exact_cne_function(h, initial)(np.linspace(-0.01, 0.01, 5))
    assert bool(calls) == lapack
    if lapack:
        assert {np.linalg.eigvalsh, np.linalg.svd, "eigvalsh", "svd", "rho_AB"} <= set(calls)


@pytest.mark.parametrize("method", ["exact", "integrator"])
def test_a_group_shares_each_batch_and_keeps_each_state_s_x_decision(monkeypatch, method):
    """fig5's S = 1/2 group on its window: W3 pairs one alpha with one beta state and stays X-shaped,
    W6 pairs two beta states and does not.  The group takes one phase table per batch (``exact``)
    or one RK4 increment per time (``integrator``), not one per state, and forms rho_AB and calls
    eigvalsh only for W6's batches, on W6's own factors."""
    spec, other = (next(case[2] for case in FIG5_CASES if case[0] == wid) for wid in ("W3", "W6"))
    assert other == spec
    spec = replace(spec, method=method)
    w3, w6 = (pure_initial(esp_weighting(wid, 0.01), HALF).to_density() for wid in ("W3", "W6"))
    prop = SpectralPropagator(spin_star_hamiltonian(MIXED_J, HALF))
    evaluated, _ = dynamics.evaluation_times(prop, w6, spec.time_grid())
    w6_factors = [l for (l,) in dynamics.group_batches(prop, [w6.factor], w6.dims.dim_c, evaluated, method)]
    n_batches = len(w6_factors)
    assert n_batches == 2 and evaluated.size == 301

    shared = []
    phases, rk4 = SpectralPropagator.phases, dynamics._rk4_increment
    monkeypatch.setattr(SpectralPropagator, "phases", lambda self, ts: shared.append(ts.size) or phases(self, ts))
    monkeypatch.setattr(dynamics, "_rk4_increment", lambda *a: shared.append(1) or rk4(*a))
    gram = []
    real_gram = monotones._gram
    calls = lapack_calls(monkeypatch)
    monkeypatch.setattr(monotones, "_gram", lambda l: gram.append(l) or real_gram(l))
    trajectories = dynamics.sample_trajectories(prop, [w3, w6], spec)

    assert sum(shared) == evaluated.size and len(shared) == (n_batches if method == "exact" else evaluated.size)
    assert len(gram) == calls.count("eigvalsh") == calls.count(np.linalg.eigvalsh) == n_batches
    assert all(np.array_equal(l, factor) for l, factor in zip(gram, w6_factors))
    for traj, initial in zip(trajectories, (w3, w6)):
        assert np.array_equal(traj.cne, sample_trajectory(prop, initial, spec).cne)


def mixed_group():
    """One H at S = 3/2 and a group of states that mixes every sampling path: the three z-basis
    products (X-shaped); a real product at general angles over three environment levels (not
    X-shaped); a complex product with phi_A != 0, evaluated at every time rather than at each |t|
    once; and real mixtures of the purified weightings W11-W14 at four switches, with initial
    factors B0 of widths 1-16 (factors L of widths 4-64)."""
    s = SpinMagnitude(3)
    dims = SystemDims.for_spin(s)
    kets = [pure_initial(esp_weighting(f"W{i}", eps), s).amplitudes for eps in (0.01, -0.01, 0.02, -0.005) for i in range(11, 15)]
    initials = [product_basis_initial(state, s) for state in ("uuu", "uud", "udd")]
    initials.append(product_initial(ProductSpinSpec(theta_a=1.1, theta_b=2.3, env_weights=(0.5, 0.3, 0.2, 0.0)), s))
    initials.append(product_initial(ProductSpinSpec(theta_a=np.pi / 2, phi_a=np.pi / 4, theta_b=np.pi / 2), s))
    initials += [DensityOperator.from_factor(np.stack(kets[:r], axis=1) / np.sqrt(r), dims) for r in range(1, 17)]
    return spin_star_hamiltonian(ExchangeCoupling(1.0, 0.5, 0.8), s), initials


@pytest.mark.parametrize("method", ["exact", "series", "integrator"])
def test_group_matches_each_trajectory_bit_for_bit(method):
    """Sampled as one group, every state's lambda*, N, C, negative count and meta are those of its own
    sample_trajectory, bit for bit."""
    h, initials = mixed_group()
    assert np.any(initials[4].matrix.imag) and not any(np.any(rho.matrix.imag) for rho in initials[:4] + initials[5:])
    t_max = {"exact": 2.0, "series": 5e-4, "integrator": 0.01}[method]
    spec = EvolutionSpec(t_max=t_max, n_steps=2 * CHUNK + 10, method=method, emit_negative_times=True)  # t = 0 too
    group = dynamics.sample_trajectories(h, initials, spec)
    assert len(group) == len(initials)
    for traj, initial in zip(group, initials):
        alone = sample_trajectory(h, initial, spec)
        assert trajectory_columns(traj) == trajectory_columns(alone)
        assert traj.meta == alone.meta


def unnormalized(rho, scale):
    """rho with its factor scaled by ``scale``, and the matching matrix.

    ``DensityOperator.from_factor`` refuses the result, whose trace is off
    by scale² - 1, so it is assembled here by hand.
    """
    b = scale * rho.factor
    with pytest.raises(ValueError, match="trace deviates"):
        DensityOperator.from_factor(b, rho.dims)
    state = DensityOperator(b @ b.conj().T, rho.dims, validate=False)
    object.__setattr__(state, "factor", b)
    return state


def test_trace_deviation_is_the_norm_drift_of_the_factor():
    """A factor off by 1e-10 in norm shows as 2e-10 of trace drift; one off by 0.1 % drifts 2e-3,
    beyond the 1e-9 budget, and raises."""
    h, initial = state_case("mixed")
    spec = EvolutionSpec(t_max=0.5, n_steps=20)
    scaled = unnormalized(initial, 1.0 + 1e-10)
    bad = unnormalized(initial, 1.001)
    for method in ("exact", "integrator"):
        meta = sample_trajectory(h, scaled, replace(spec, method=method)).meta
        assert abs(meta["max_trace_deviation"] - ((1.0 + 1e-10) ** 2 - 1.0)) <= 1e-14
        assert meta["max_psd_clip"] == 0.0
        with pytest.raises(NumericalError, match="2.001e-03 from unit trace"):
            sample_trajectory(h, bad, replace(spec, method=method))


def test_bare_matrix_is_factored_once_within_the_clip_budget():
    """A matrix without a factor is factored by eigh at the start; its negative dust is dropped and reported."""
    h, initial = state_case("mixed")
    spec = EvolutionSpec(t_max=0.5, n_steps=20)
    factored = sample_trajectory(h, initial, spec)
    null = np.zeros(initial.matrix.shape[0])
    null[4] = 1.0  # environment level m = 0: empty in this state

    def bare(dust):
        return DensityOperator(initial.matrix - dust * np.outer(null, null), initial.dims, validate=False)

    for dust in (0.0, 1e-10):
        traj = sample_trajectory(h, bare(dust), spec)
        assert traj.meta["max_psd_clip"] == pytest.approx(dust, abs=1e-15)
        assert np.max(np.abs(traj.cne - factored.cne)) <= CHAIN_TOL
    with pytest.raises(NumericalError, match="clipped"):
        sample_trajectory(h, bare(1e-8), spec)


# (state kind, id, epsilon, environment 2S, coupling, t): next to the 1e-9
# threshold, and the generic uud point where a square-root concurrence
# loses ~9 digits
ORACLE_SAMPLES = [
    ("product", "uud", None, 2, MIXED_J, -0.995),
    ("product", "uuu", None, 2, ExchangeCoupling(1.0, 0.5, 1.0), 4.29),
    ("pure", "W9", 0.01, 2, MIXED_J, 0.955),
    ("pure", "W9", 0.01, 2, MIXED_J, 0.965),
    ("pure", "W13", 0.01, 3, MIXED_J, 0.06),
    ("mixed", "W9", 0.01, 2, MIXED_J, -0.11),
    ("mixed", "W6", -0.01, 2, MIXED_J, 0.25),
    # rank-deficient rho_AB where an eigendecomposed factor of it picks up
    # eigenvalue dust: ~1e-9 of concurrence error, and a nonzero value
    # where the oracle gives exactly 0
    ("product", "uud", None, 2, ExchangeCoupling(1, -1, 1), 2.435),
    ("product", "udd", None, 2, ExchangeCoupling(1, 1, 1), 9.425),
    # a rho_AB eigenvalue of 2.9e-8: eigendecomposing rho_AB to factor it
    # costs 6.6e-14 of concurrence, the closed form on the factor 5.6e-17
    ("product", "uud", None, 2, ExchangeCoupling(1.0, 0.5, 1.0), 1.046875),
]


def oracle_monotones(h, rho0, dim_c, t):
    """lambda*, negativity and concurrence at 50 digits for the given double inputs.

    Concurrence from the eigenvalues of rho (σy⊗σy) rho* (σy⊗σy), whose
    square roots are exact at this precision even where rho_AB is rank
    deficient.
    """
    with mp.workdps(50):
        w, v = mp.eighe(mp.matrix(h.tolist()))
        phases = mp.diag([mp.exp(-1j * w[k] * mp.mpf(t)) for k in range(h.shape[0])])
        u = v * phases * v.H
        rho = u * mp.matrix(rho0.tolist()) * u.H
        red = mp.zeros(4, 4)
        for c in range(dim_c):
            for a in range(4):
                for b in range(4):
                    red[a, b] += rho[4 * c + a, 4 * c + b]
        pt = mp.matrix(4, 4)
        for a in range(4):
            for b in range(4):
                pt[a, b] = red[(a & 2) | (b & 1), (b & 2) | (a & 1)]
        lam = sorted(mp.re(x) for x in mp.eighe(pt, eigvals_only=True))
        flip = mp.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
        r = red * flip * red.conjugate() * flip
        gammas = sorted((mp.sqrt(max(mp.re(x), 0)) for x in mp.eig(r, left=False, right=False)), reverse=True)
        conc = max(mp.mpf(0), gammas[0] - gammas[1] - gammas[2] - gammas[3])
        return float(lam[0]), float(-sum(x for x in lam if x < 0)), float(conc)


@pytest.mark.parametrize("kind,ident,eps,two_s,j,t", ORACLE_SAMPLES)
def test_monotones_match_50_digit_oracle(kind, ident, eps, two_s, j, t):
    s = SpinMagnitude(two_s)
    if kind == "product":
        rho0 = product_basis_initial(ident, s)
    elif kind == "mixed":
        rho0 = mixed_initial(esp_weighting(ident, eps), s)
    else:
        rho0 = pure_initial(esp_weighting(ident, eps), s).to_density()
    h = spin_star_hamiltonian(j, s)
    traj = sample_trajectory(h, rho0, EvolutionSpec(t_max=abs(t), n_steps=1, emit_negative_times=True))
    k = int(t > 0)  # the grid is [-|t|, |t|]
    assert traj.times[k] == t
    exact = oracle_monotones(h, rho0.matrix, s.dim, t)
    got = (traj.cne[k], traj.negativity[k], traj.concurrence[k])
    assert np.max(np.abs(np.array(got) - exact)) <= ORACLE_TOL


@pytest.mark.parametrize("kind", ["product", "product_env", "mixed", "pure"])
def test_exact_sampler_matches_oracle_on_fit_window(kind):
    """The short-time fits sample lambda* to about 1e-15 across the default fit window."""
    h, initial = state_case(kind)
    rho0 = initial.to_density() if isinstance(initial, Ket) else initial
    dts = np.linspace(*DEFAULT_FIT_WINDOW, 3)
    lam = exact_cne_function(h, initial)(dts)
    exact = [oracle_monotones(h, rho0.matrix, h.shape[0] // 4, dt)[0] for dt in dts]
    assert np.max(np.abs(lam - exact)) <= 1e-15


def test_fig2_rows_keep_twice_negativity_below_concurrence(tmp_path):
    out = tmp_path / "fig2"
    assert main(["repro", "fig2", "--out", str(out)]) == 0
    csvs = [p for p in sorted(out.glob("fig2_*.csv")) if not p.name.endswith("_coefficients.csv")]
    assert csvs
    for path in csvs:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert np.all(2.0 * data[:, 1] <= data[:, 2] + 1e-14), path.name


def test_separable_samples_of_a_product_trajectory_write_zero_negativity():
    """Every sample of a product trajectory with lambda* >= 0 has negativity 0.0, never -0.0."""
    s = SpinMagnitude(1)
    traj = sample_trajectory(
        spin_star_hamiltonian(ExchangeCoupling(1.0, 0.5, 1.0), s), product_basis_initial("uud", s), EvolutionSpec(10.0, 400)
    )
    separable = traj.cne >= 0.0
    assert 0 < np.count_nonzero(separable) < len(traj)
    assert all(repr(n) == "0.0" for n in traj.negativity[separable].tolist())
