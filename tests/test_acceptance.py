"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module stays within a couple of minutes on one core.
"""

import numpy as np

from espkit.analysis import (
    WEIGHTING_LABELS,
    WEIGHTING_TABLE_SIGNS,
    alpha_pair_cne,
    beta_pair_cne,
    build_mixed_trajectory,
    build_product_trajectory,
    build_pure_trajectory,
    classify_trajectory,
    detect_transitions,
    env_diag_pair_cne,
    exact_cne_function,
    fit_short_time,
    product_cne_quadratic,
    truncated_cne_function,
    weighting_cne_expansion,
)
from espkit.dynamics import EvolutionSpec, SpectralPropagator, evolve_exact, time_reversed_state
from espkit.errors import GuardViolation
from espkit.hilbert import (
    SpinMagnitude,
    SystemDims,
    Ket,
    basis_ket_c,
    partial_trace_c,
    partial_transpose_b,
    qubit_ket,
)
from espkit.model import (
    ExchangeCoupling,
    ProductSpinSpec,
    direct_hamiltonian,
    direct_immediate_concurrence,
    direct_immediate_concurrence_free,
    spin_star_hamiltonian,
)
from espkit.monotones import concurrence, negativity
from espkit.states import (
    BellKind,
    bell_ket,
    bell_mixture,
    esp_weighting,
    mixed_initial,
    product_basis_initial,
    product_initial,
)

from conftest import (
    SEED,
    custom_weighting,
    hermitian_eigvals,
    monotone_sample,
    random_hermitian,
    random_two_qubit_dm,
    spectral_exp_skew,
)

MIXED_J = ExchangeCoupling(-0.5, -0.5, -1.0)
HALF = SpinMagnitude(1)
DTS = np.array([1e-3, 1e-2])  # short-time sample times of the closed-form and symmetry checks
FIG2_COUPLINGS = (
    ExchangeCoupling(1, 1, 1),
    ExchangeCoupling(1, -1, 1),
    ExchangeCoupling(1, 0.5, 1),
    ExchangeCoupling(1, -0.5, 1),
)


def table1_configs():
    for state in ("uuu", "uud", "udd"):
        for j in FIG2_COUPLINGS:
            try:
                product_cne_quadratic(state, j, HALF)
            except GuardViolation:
                continue
            for two_s in (1, 2):
                yield state, j, SpinMagnitude(two_s)


def test_criterion_1_product_state_coefficients():
    """Fitted dt² coefficients match the product-state closed forms."""
    for state, j, s in table1_configs():
        expected = product_cne_quadratic(state, j, s)
        fit = fit_short_time(exact_cne_function(spin_star_hamiltonian(j, s), product_basis_initial(state, s)))
        if abs(expected) > 1e-12:
            assert abs(fit.coefficient(2) - expected) <= 1e-3 * abs(expected), (state, j, s.s, fit.coefficient(2), expected)
        else:
            assert abs(fit.coefficient(2)) <= 1e-6, (state, j, s.s, fit.coefficient(2))
    print("ACCEPTANCE 1 (product-state short-time coefficients): PASS")


def test_criterion_2_weighting_coefficients_and_labels():
    """Mixed-weighting c0/c2/c4 match the tabulated expansions; trajectory
    labels match at the tabulated switch sign."""
    h = spin_star_hamiltonian(MIXED_J, HALF)
    for i in range(1, 15):
        wid = f"W{i}"
        for sgn in (+1, -1):
            eps = sgn * 1e-2
            w = esp_weighting(wid, eps)
            fit = fit_short_time(exact_cne_function(h, mixed_initial(w, HALF)), n_points=17, max_power=6)
            # the constant term always follows the partial-transpose spectrum
            c0_expected = float(np.min(0.5 - np.asarray(w.weights)))
            assert abs(fit.coefficient(0) - c0_expected) <= 1e-6, (wid, eps, fit.coefficient(0), c0_expected)
            if sgn not in WEIGHTING_TABLE_SIGNS[wid]:
                continue
            exp = weighting_cne_expansion(wid, MIXED_J, eps)
            assert abs(fit.coefficient(0) - exp.c0) <= 1e-6, (wid, eps)
            if exp.c2 is not None:
                assert abs(fit.coefficient(2) - exp.c2) <= 1e-2 * abs(exp.c2) + 1e-9, (wid, eps, fit.coefficient(2), exp.c2)
            if exp.c4 is not None:
                # the positive-switch quartic of W6 is the 1/eps-leading part
                # of the true coefficient; it carries an O(1) remainder
                tol = 0.1 if (wid == "W6" and eps > 0) else 1e-2
                assert abs(fit.coefficient(4) - exp.c4) <= tol * abs(exp.c4), (wid, eps, fit.coefficient(4), exp.c4)
            traj = build_mixed_trajectory(wid, eps, MIXED_J, HALF, EvolutionSpec(t_max=1.5, n_steps=1200, emit_negative_times=True))
            label = classify_trajectory(traj).label
            assert label == WEIGHTING_LABELS[wid], (wid, eps, label)
    print("ACCEPTANCE 2 (weighting expansions and trajectory labels): PASS")


def test_criterion_3_partial_transpose_spectrum_identity():
    """Bell-mixture partial transposes have spectrum {1/2 - w_i}."""
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        weights = rng.dirichlet(np.ones(4))
        rho = bell_mixture(custom_weighting(weights))
        spectrum = np.sort(hermitian_eigvals(partial_transpose_b(rho)))
        assert np.max(np.abs(spectrum - np.sort(0.5 - weights))) <= 1e-12
    print("ACCEPTANCE 3 (partial-transpose spectrum identity): PASS")


def _bell_pair_state(family, sign, p, s):
    pair = bell_ket(BellKind(family, sign, p))
    amps = np.kron(basis_ket_c(s, s.s), pair.amplitudes)
    return Ket(amps, SystemDims.for_spin(s))


def _quadratic(exp, dt):
    """c0 + c2 dt² of a closed form that tabulates no quartic."""
    assert exp.c4 is None
    return exp.c0 + exp.c2 * dt * dt


def test_criterion_4_truncated_series_formulas():
    """Two-term-series closed forms hold across spins and mixing degrees."""
    env_cases = {
        1: ((0.7, 0.3), np.pi / 4, np.pi / 3),
        2: ((0.5, 0.3, 0.2), 0.6, 1.1),
        3: ((0.4, 0.3, 0.2, 0.1), 1.0, 0.4),
    }
    worst_alpha = 0.0
    for two_s in (1, 2, 3):
        s = SpinMagnitude(two_s)
        h = spin_star_hamiltonian(MIXED_J, s)
        env, ta, tb = env_cases[two_s]
        rho0 = product_initial(ProductSpinSpec(theta_a=ta, theta_b=tb, env_weights=env), s)
        for dt, lam_env in zip(DTS, truncated_cne_function(h, rho0, 2)(DTS)):
            dev = abs(lam_env - _quadratic(env_diag_pair_cne(MIXED_J, s, env, ta, tb), dt))
            assert dev <= 1e-8, ("env_diag", two_s, dt, dev)
        for p in (0.0, 0.3, 0.6):
            for sign in (+1, -1):
                lams_beta = truncated_cne_function(h, _bell_pair_state("beta", sign, p, s), 2)(DTS)
                lams_alpha = truncated_cne_function(h, _bell_pair_state("alpha", sign, p, s), 2)(DTS)
                for dt, lam_beta, lam_alpha in zip(DTS, lams_beta, lams_alpha):
                    dev_beta = abs(lam_beta - _quadratic(beta_pair_cne(MIXED_J, s, p), dt))
                    assert dev_beta <= 1e-8, ("beta", two_s, p, sign, dt, dev_beta)
                    dev_alpha = abs(lam_alpha - _quadratic(alpha_pair_cne(MIXED_J, s, p), dt))
                    worst_alpha = max(worst_alpha, dev_alpha)
                    x = s.s * MIXED_J.jz * dt
                    # the displayed quadratic form truncates the exact
                    # series eigenvalue -(sqrt(1-p^2)/2) sqrt(1+16 x^2);
                    # its own quartic remainder dominates at the larger dt
                    exact_k2 = -np.sqrt(1 - p * p) / 2 * np.sqrt(1 + 16 * x * x)
                    assert abs(lam_alpha - exact_k2) <= 1e-12, ("alpha-exact", two_s, p, dt)
                    remainder_bound = max(1e-8, 1.05 * np.sqrt(1 - p * p) / 2 * 32 * x**4)
                    assert dev_alpha <= remainder_bound, ("alpha", two_s, p, sign, dt, dev_alpha)
    print(f"ACCEPTANCE 4 (truncated-series closed forms): PASS (max displayed-form deviation {worst_alpha:.2e})")


def _direct_numeric_concurrence(jdir, theta_b, dt):
    psi = np.kron(qubit_ket(0.0, 0.0), qubit_ket(theta_b, 0.0))
    rho = np.outer(psi, psi.conj())
    u = spectral_exp_skew(direct_hamiltonian(jdir), dt)
    return concurrence(u @ rho @ u.conj().T)


def test_criterion_5_direct_exchange():
    """Leading-order direct-exchange concurrence: grid agreement and
    out-of-plane independence."""
    dt = 1e-3
    for jtuple in ((1, 0.5, 3), (1, 2, 0), (2, -1, 1)):
        j = ExchangeCoupling(*jtuple)
        for theta_b in (0.35, 0.7, 2.0):
            numeric = _direct_numeric_concurrence(j, theta_b, dt)
            axis = direct_immediate_concurrence(j, theta_b, dt)
            n_b = np.array([np.sin(theta_b), 0.0, np.cos(theta_b)])
            free = direct_immediate_concurrence_free(j, np.array([0.0, 0.0, 1.0]), n_b, dt)
            assert abs(numeric - axis) <= 5e-6, (jtuple, theta_b)
            assert abs(numeric - free) <= 5e-6, (jtuple, theta_b)
    for jx, jy in ((1.0, 0.5), (1.0, 2.0), (2.0, -1.0)):
        values = [_direct_numeric_concurrence(ExchangeCoupling(jx, jy, jz), 0.35, dt) for jz in (-5.0, 0.0, 5.0)]
        assert max(values) - min(values) <= 1e-7, (jx, jy, values)
    print("ACCEPTANCE 5 (direct-exchange closed forms): PASS")


def test_criterion_6_symmetry_suite():
    """Coupling negation, time-reversal closure and local time-even symmetry."""
    # exact unitary identity
    for j in FIG2_COUPLINGS + (MIXED_J,):
        for two_s in (1, 2):
            s = SpinMagnitude(two_s)
            plus = SpectralPropagator(spin_star_hamiltonian(j, s))
            minus = SpectralPropagator(spin_star_hamiltonian(-j, s))
            for t in (0.5, 2.0):
                assert np.max(np.abs(plus.unitary(-t) - minus.unitary(t))) <= 1e-12

    # time-reversal closure from t = 2
    closure_cases = [
        (ExchangeCoupling(1, 1, 1), HALF, product_basis_initial("uud", HALF)),
        (ExchangeCoupling(1, -0.5, 1), SpinMagnitude(2), product_basis_initial("udd", SpinMagnitude(2))),
        (MIXED_J, HALF, mixed_initial(esp_weighting("W9", 0.01), HALF)),
    ]
    for j, s, rho0 in closure_cases:
        h = spin_star_hamiltonian(j, s)
        n0 = negativity(partial_trace_c(rho0))
        rho_t = evolve_exact(h, rho0, 2.0)
        back = evolve_exact(h, time_reversed_state(rho_t, s), 2.0)
        assert abs(negativity(partial_trace_c(back)) - n0) <= 1e-8, (j, s.s)

    # local time-even symmetry across every tabulated configuration
    for state, j, s in table1_configs():
        cne_fn = exact_cne_function(spin_star_hamiltonian(j, s), product_basis_initial(state, s))
        for dt, n_plus, n_minus in zip(DTS, np.maximum(0.0, -cne_fn(DTS)), np.maximum(0.0, -cne_fn(-DTS))):
            assert abs(n_plus - n_minus) <= 1e-8, (state, j, s.s, dt)
    h_mixed = spin_star_hamiltonian(MIXED_J, HALF)
    for i in range(1, 15):
        wid = f"W{i}"
        for sgn in WEIGHTING_TABLE_SIGNS[wid]:
            rho0 = mixed_initial(esp_weighting(wid, sgn * 1e-2), HALF)
            cne_fn = exact_cne_function(h_mixed, rho0)
            for dt, n_plus, n_minus in zip(DTS, np.maximum(0.0, -cne_fn(DTS)), np.maximum(0.0, -cne_fn(-DTS))):
                assert abs(n_plus - n_minus) <= 1e-8, (wid, sgn, dt)
    print("ACCEPTANCE 6 (symmetry relations): PASS")


def test_criterion_7_pure_state_recipe():
    """Quantum-weighted preparations: penetrable switches give transitions
    straddling t = 0; two-component switches never cross."""
    wide = EvolutionSpec(t_max=1.0, n_steps=1200, emit_negative_times=True)
    for wid in ("W9", "W13"):
        traj = build_pure_trajectory(wid, +1e-2, MIXED_J, wide)
        cls = classify_trajectory(traj)
        assert cls.label == "p6" and cls.crossed_before and cls.crossed_after, (wid, cls.label)
        events = detect_transitions(traj)
        assert any(ev.t_birth is not None and ev.t_birth < 0 for ev in events)
        assert any(ev.t_death is not None and ev.t_death > 0 for ev in events)
    for wid in ("W7", "W8", "W10", "W11", "W12", "W14"):
        traj = build_pure_trajectory(wid, -1e-2, MIXED_J, wide)
        cls = classify_trajectory(traj)
        assert cls.label == "p4" and cls.crossed_before and cls.crossed_after, (wid, cls.label)

    narrow = EvolutionSpec(t_max=0.3, n_steps=600, emit_negative_times=True)
    for i in range(1, 7):
        wid = f"W{i}"
        for sgn in (+1, -1):
            traj = build_pure_trajectory(wid, sgn * 1e-2, MIXED_J, narrow)
            assert detect_transitions(traj) == [], (wid, sgn)
            assert classify_trajectory(traj).label == "p3", (wid, sgn)

    # the negative-switch W4 preparation has a positive local minimum near t=0.11
    traj = build_pure_trajectory("W4", -1e-2, MIXED_J, EvolutionSpec(t_max=0.3, n_steps=3000))
    n = traj.negativity
    interior = np.arange(1, len(n) - 1)
    minima = interior[(n[interior] < n[interior - 1]) & (n[interior] <= n[interior + 1])]
    assert minima.size > 0
    t_min = traj.times[minima[0]]
    assert abs(t_min - 0.11) <= 0.02, t_min
    assert n[minima[0]] > 1e-9
    print("ACCEPTANCE 7 (pure-state recipe): PASS")


def test_criterion_8_long_time_transition():
    """The S=1 curves show a finite-duration transition around t = 4."""
    for j, state in ((ExchangeCoupling(1, 0.5, 1), "uuu"), (ExchangeCoupling(1, -0.5, 1), "udd")):
        traj = build_product_trajectory(state, j, SpinMagnitude(2), EvolutionSpec(t_max=6.0, n_steps=2400))
        events = detect_transitions(traj)
        hits = [
            ev
            for ev in events
            if ev.kind == "TFD" and 3.0 <= 0.5 * (ev.t_death + ev.t_birth) <= 5.0
        ]
        assert hits, (j, state, events)
    print("ACCEPTANCE 8 (long-time finite-duration transition): PASS")


def test_criterion_9_randomized_property_suites():
    """Bulk randomized checks: eigensolver round-trip and monotone faithfulness."""
    rng = np.random.default_rng(SEED)
    dims = [2, 3, 4, 6, 8, 12, 16, 24, 32]
    from espkit.densemat import hermitian_eig

    for k in range(100):
        n = dims[k % len(dims)]
        h = random_hermitian(rng, n)
        spec = hermitian_eig(h)
        recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
        assert np.linalg.norm(recon - h) <= 1e-10 * max(1.0, np.linalg.norm(h))
        gram = spec.eigenvectors.conj().T @ spec.eigenvectors
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-12

    for _ in range(1000):
        sample = monotone_sample(random_two_qubit_dm(rng))
        assert (sample.negativity > 1e-9) == (sample.concurrence > 1e-9)
        assert sample.negative_count in (0, 1)
        assert 0.0 <= sample.negativity <= 0.5 + 1e-12
        assert 0.0 <= sample.concurrence <= 1.0 + 1e-12
    print("ACCEPTANCE 9 (randomized property suites): PASS")
