"""The batched sampling path against the per-matrix chain and a 50-digit oracle."""

from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from espkit import dynamics
from espkit.analysis import DEFAULT_FIT_WINDOW, exact_cne_function
from espkit.cli import main
from espkit.dynamics import (
    EvolutionSpec,
    SpectralPropagator,
    evolve_series,
    integrate_vonneumann,
    sample_trajectory,
)
from espkit.errors import NumericalError
from espkit.hilbert import DensityOperator, Ket, SpinMagnitude, partial_trace_c_matrix
from espkit.model import ExchangeCoupling, ProductSpinSpec, spin_star_hamiltonian
from espkit.monotones import CHUNK, cne, concurrence, negativity
from espkit.states import esp_weighting, mixed_initial, product_basis_initial, product_initial, pure_initial

from conftest import monotone_sample

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
    """Full states at every grid time, one public per-matrix call each."""
    rho0 = initial.to_density() if isinstance(initial, Ket) else initial
    times = spec.time_grid()
    if spec.method == "exact":
        prop = SpectralPropagator(h)
        return [prop.evolve_matrix(rho0.matrix, float(t)) for t in times]
    if spec.method == "series":
        return [evolve_series(h, rho0, float(t), 3) for t in times]
    out, rho, t_prev = [], rho0, 0.0
    for t in times:
        rho = integrate_vonneumann(h, rho, float(t) - t_prev)
        t_prev = float(t)
        out.append(rho.matrix)
    return out


@pytest.mark.parametrize("n_samples", [255, 256, 257, 513])  # around multiples of the batch size
@pytest.mark.parametrize("kind", ["product", "product_env", "mixed", "pure"])
@pytest.mark.parametrize("method", ["exact", "series", "integrator"])
def test_batched_path_matches_per_matrix_chain(method, kind, n_samples):
    assert 256 % CHUNK == 0
    h, initial = state_case(kind)
    t_max = {"exact": 2.0, "series": 0.002, "integrator": 0.01}[method]
    spec = EvolutionSpec(t_max=t_max, n_steps=n_samples - 1, method=method, emit_negative_times=True)
    traj = sample_trajectory(h, initial, spec)
    assert len(traj) == n_samples
    dim_c = h.shape[0] // 4
    for k, rho in enumerate(chain_states(h, initial, spec)):
        red = partial_trace_c_matrix(rho, dim_c)
        lam, count = cne(red)
        assert abs(traj.cne[k] - lam) <= CHAIN_TOL
        assert traj.negative_count[k] == count
        assert abs(traj.negativity[k] - negativity(red)) <= CHAIN_TOL
        assert abs(traj.concurrence[k] - concurrence(red)) <= CHAIN_TOL
        sample = monotone_sample(red)
        assert abs(traj.cne[k] - sample.cne) <= CHAIN_TOL
        assert abs(traj.concurrence[k] - sample.concurrence) <= CHAIN_TOL


@pytest.mark.parametrize("kind", ["product", "product_env", "mixed", "pure"])
@pytest.mark.parametrize("method", ["exact", "integrator"])
def test_factor_methods_never_form_rho(monkeypatch, method, kind):
    """exact and integrator sample from the propagated factor: no full rho(t), no partial trace of one."""
    h, initial = state_case(kind)
    spec = EvolutionSpec(t_max=0.5, n_steps=100, method=method, emit_negative_times=True)
    before = sample_trajectory(h, initial, spec)
    lam_before = exact_cne_function(h, initial)(spec.time_grid())

    def forbidden(*args, **kwargs):
        raise AssertionError("sampling formed a full density matrix")

    monkeypatch.setattr(dynamics, "trace_out_c", forbidden)
    monkeypatch.setattr(SpectralPropagator, "evolve_matrix", forbidden)
    with pytest.raises(AssertionError):
        sample_trajectory(h, initial, replace(spec, method="series"))  # the patch reaches the rho-stack path
    after = sample_trajectory(h, initial, spec)
    for column in ("cne", "negativity", "concurrence", "negative_count"):
        assert np.array_equal(getattr(after, column), getattr(before, column))
    assert np.array_equal(exact_cne_function(h, initial)(spec.time_grid()), lam_before)


@pytest.mark.parametrize("kind", ["product", "product_env", "mixed", "pure"])
def test_exact_sampler_is_the_trajectory_path(kind):
    """The short-time lambda* sampler and the exact trajectory take rho_AB from the same batches, bit for bit."""
    h, initial = state_case(kind)
    spec = EvolutionSpec(t_max=0.7, n_steps=2 * CHUNK + 9, emit_negative_times=True)  # three batches
    traj = sample_trajectory(h, initial, spec)
    assert np.array_equal(exact_cne_function(h, initial)(spec.time_grid()), traj.cne)


def test_trace_deviation_is_the_norm_drift_of_the_factor():
    """A factor off by 1e-10 in norm shows as 2e-10 of trace drift, whatever the matrix says; one off
    by 0.1 % drifts 2e-3, beyond the 1e-9 budget, and raises."""
    h, initial = state_case("mixed")
    spec = EvolutionSpec(t_max=0.5, n_steps=20)
    scaled = DensityOperator(initial.matrix, initial.dims, factor=(1.0 + 1e-10) * initial.factor)
    bad = DensityOperator(initial.matrix, initial.dims, factor=1.001 * initial.factor)
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
