from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from espkit import analysis, dynamics
from espkit.analysis import (
    FORMULAS,
    WEIGHTING_LABELS,
    WEIGHTING_TABLE_SIGNS,
    TransitionEvent,
    _crossing_time,
    classify_trajectory,
    detect_transitions,
    exact_cne_function,
    fit_short_time,
    product_cne_quadratic,
    symmetry_suite,
    truncated_cne_function,
    validate_formula,
    weighting_cne_expansion,
)
from espkit.densemat import hermitian_eig
from espkit.dynamics import EvolutionSpec, SpectralPropagator, Trajectory, evolve_series, sample_trajectory
from espkit.errors import GuardViolation, ResolutionError, WindowError
from espkit.hilbert import DensityOperator, SpinMagnitude, SystemDims, basis_ket_c, trace_out_c
from espkit.model import ExchangeCoupling, spin_star_hamiltonian
from espkit.monotones import CHUNK, cne
from espkit.states import BellKind, bell_ket, esp_weighting, mixed_initial, product_basis_initial, pure_initial

from conftest import pure_trajectory

MIXED_J = ExchangeCoupling(-0.5, -0.5, -1.0)
HALF = SpinMagnitude(1)
CHAIN_TOL = 1e-14  # batched factor sampler against the per-matrix U rho U† chain


def synthetic_trajectory(times, negativity):
    times = np.asarray(times, dtype=float)
    negativity = np.asarray(negativity, dtype=float)
    cne = -negativity
    return Trajectory(times, cne, negativity, negativity, (negativity > 1e-9).astype(np.int64))


# ---------------------------------------------------------------------------
# detection


def test_detect_constant_zero():
    t = np.linspace(0, 1, 101)
    traj = synthetic_trajectory(t, np.zeros_like(t))
    assert detect_transitions(traj) == []


def test_detect_constant_entangled():
    s = HALF
    h = spin_star_hamiltonian(ExchangeCoupling(0, 0, 0), s)
    env = basis_ket_c(s, s.s)
    ab = bell_ket(BellKind("beta", -1)).to_density().matrix
    rho0 = DensityOperator(np.kron(np.outer(env, env.conj()), ab), SystemDims.for_spin(s))
    traj = sample_trajectory(h, rho0, EvolutionSpec(t_max=2.0, n_steps=100))
    assert np.allclose(traj.negativity, 0.5, atol=1e-12)
    assert detect_transitions(traj) == []


def test_detect_synthetic_triangle_dip():
    t = np.linspace(0, 1, 201)
    n = np.clip(np.abs(t - 0.5) - 0.2, 0.0, None)  # zero exactly on [0.3, 0.7]
    traj = synthetic_trajectory(t, n)
    events = detect_transitions(traj, threshold=1e-9)
    assert len(events) == 1
    ev = events[0]
    assert ev.kind == "TFD"
    assert abs(ev.t_death - 0.3) <= 0.005 + 1e-9
    assert abs(ev.t_birth - 0.7) <= 0.005 + 1e-9
    assert abs(ev.duration - 0.4) <= 0.01


def test_detect_short_dip_rejected_by_dwell():
    t = np.linspace(0, 1, 201)
    n = 0.1 + np.zeros_like(t)
    n[100] = 0.0  # single-sample graze
    traj = synthetic_trajectory(t, n)
    assert detect_transitions(traj) == []


def test_detect_window_edges_give_esd_esb():
    t = np.linspace(0, 1, 201)
    n = np.where(t < 0.4, 0.0, 0.2)  # starts dead, births at 0.4
    events = detect_transitions(synthetic_trajectory(t, n))
    assert [ev.kind for ev in events] == ["ESB"]
    n2 = np.where(t < 0.6, 0.2, 0.0)  # dies at 0.6, stays dead
    events2 = detect_transitions(synthetic_trajectory(t, n2))
    assert [ev.kind for ev in events2] == ["ESD"]
    assert abs(events2[0].t_death - 0.6) <= 0.005 + 1e-9


def test_detect_undersampled_raises():
    t = np.linspace(0, 1, 11)
    traj = synthetic_trajectory(t, np.zeros_like(t))
    with pytest.raises(ResolutionError):
        detect_transitions(traj, min_duration=0.05)


def test_detect_accepts_min_duration_of_three_rounded_spacings():
    """min_duration = 3 * spacing is the coarsest sampling allowed, even where (3 * spacing) / 3 rounds below it."""
    traj = synthetic_trajectory([0.0, 0.7, 1.4], [0.0, 0.0, 0.0])
    assert traj.spacing > 3.0 * traj.spacing / 3.0
    assert detect_transitions(traj, min_duration=3.0 * traj.spacing) == []
    with pytest.raises(ResolutionError):
        detect_transitions(traj, min_duration=2.99 * traj.spacing)


def scan_transitions(traj, threshold, min_duration):
    """Reference detector: the per-sample scan that walks each zero run one sample at a time."""
    t, n = traj.times, traj.negativity
    below = n <= threshold
    events, i, size = [], 0, len(t)
    while i < size:
        if not below[i]:
            i += 1
            continue
        j = i
        while j + 1 < size and below[j + 1]:
            j += 1
        has_death, has_birth = i > 0, j < size - 1
        t_start = _crossing_time(t[i - 1], n[i - 1], t[i], n[i], threshold) if has_death else t[0]
        t_end = _crossing_time(t[j], n[j], t[j + 1], n[j + 1], threshold) if has_birth else t[-1]
        dwell = t_end - t_start
        if dwell >= min_duration:
            if has_death and has_birth:
                events.append(TransitionEvent("TFD", t_start, t_end, dwell))
            elif has_death:
                events.append(TransitionEvent("ESD", t_start, None, dwell))
            elif has_birth:
                events.append(TransitionEvent("ESB", None, t_end, dwell))
        i = j + 1
    return events


# alternating below/above-threshold runs of (length, magnitude): single-sample runs,
# runs at either edge and, with one run, a run over the whole window
_RUNS = st.lists(st.tuples(st.integers(1, 12), st.floats(0.0, 1.0)), min_size=1, max_size=8)
_STEPS = st.lists(st.floats(0.5, 1.5), min_size=96, max_size=96)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    first_below=st.booleans(),
    runs=_RUNS,
    steps=_STEPS,
    threshold=st.sampled_from([0.0, 1e-9, 0.05]),
    dwell_spacings=st.sampled_from([None, 3.0, 3.5, 4.5, 12.0]),
)
@example(first_below=True, runs=[(7, 0.0)], steps=[1.0] * 96, threshold=1e-9, dwell_spacings=None)
@example(first_below=True, runs=[(1, 1.0), (1, 0.0), (1, 0.5), (1, 1.0), (1, 0.0)], steps=[1.0] * 96, threshold=0.05, dwell_spacings=3.5)
@example(first_below=True, runs=[(9, 0.0), (9, 0.3)], steps=[1.0] * 96, threshold=1e-9, dwell_spacings=None)
@example(first_below=False, runs=[(9, 0.3), (9, 0.0)], steps=[1.0] * 96, threshold=1e-9, dwell_spacings=None)
@example(first_below=False, runs=[(1, 0.3), (9, 0.0), (1, 0.3)], steps=[1.0] * 96, threshold=1e-9, dwell_spacings=None)
# spacing 0.0142, where (3 * spacing) / 3 rounds below the spacing
@example(first_below=True, runs=[(3, 0.0)], steps=[1.25, 1.07, 1.42] + [1.0] * 93, threshold=1e-9, dwell_spacings=3.0)
def test_run_loop_matches_per_sample_scan(first_below, runs, steps, threshold, dwell_spacings):
    # magnitude 1 puts a below-threshold run exactly on the threshold
    n = np.concatenate([
        np.full(length, threshold * mag if (k % 2 == 0) == first_below else threshold + 1e-3 + mag)
        for k, (length, mag) in enumerate(runs)
    ])
    assume(n.size >= 2)
    traj = synthetic_trajectory(np.cumsum(np.asarray(steps[: n.size]) * 0.01), n)
    min_duration = 5.0 * traj.spacing if dwell_spacings is None else dwell_spacings * traj.spacing
    expected = scan_transitions(traj, threshold, min_duration)
    assert detect_transitions(traj, threshold, None if dwell_spacings is None else min_duration) == expected


def test_detect_mixed_tfd_straddles_zero():
    w10 = mixed_initial(esp_weighting("W10", -0.01), HALF)
    traj = sample_trajectory(spin_star_hamiltonian(MIXED_J, HALF), w10, EvolutionSpec(t_max=1.5, n_steps=1200, emit_negative_times=True))
    events = detect_transitions(traj)
    tfd = [ev for ev in events if ev.kind == "TFD"]
    assert len(tfd) == 1
    assert tfd[0].t_death < 0 < tfd[0].t_birth
    assert classify_trajectory(traj).label == "p4"


def test_detector_idempotent_through_serialization(tmp_path):
    from espkit.cli import read_trajectory_csv, write_trajectory_csv

    w9 = mixed_initial(esp_weighting("W9", 0.01), HALF)
    traj = sample_trajectory(spin_star_hamiltonian(MIXED_J, HALF), w9, EvolutionSpec(t_max=1.5, n_steps=1200, emit_negative_times=True))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj)
    events_a = detect_transitions(traj)
    events_b = detect_transitions(read_trajectory_csv(path))
    assert events_a == events_b


# ---------------------------------------------------------------------------
# short-time fits


def test_fit_uud_isotropic():
    s = HALF
    j = ExchangeCoupling(1, 1, 1)
    h = spin_star_hamiltonian(j, s)
    fit = fit_short_time(exact_cne_function(h, product_basis_initial("uud", s)))
    expected = product_cne_quadratic("uud", j, s)
    assert np.isclose(expected, 0.25 * (2 - np.sqrt(8)), atol=1e-15)
    assert abs(fit.coefficient(2) - expected) <= 1e-3 * abs(expected)
    assert fit.residual <= 1e-10 * max(1.0, abs(fit.coefficient(0)))


def test_fit_uuu_anisotropic():
    s = HALF
    j = ExchangeCoupling(1, 0.5, 1)
    h = spin_star_hamiltonian(j, s)
    fit = fit_short_time(exact_cne_function(h, product_basis_initial("uuu", s)))
    assert abs(fit.coefficient(2) - (-0.125)) <= 1e-3 * 0.125


def test_fit_mixed_w1():
    h = spin_star_hamiltonian(MIXED_J, HALF)
    fit = fit_short_time(exact_cne_function(h, mixed_initial(esp_weighting("W1", 0.01), HALF)))
    assert abs(fit.coefficient(0) - (-0.005)) <= 1e-6
    assert abs(fit.coefficient(2) - 0.12625) <= 1e-3 * 0.12625


def test_fit_window_validation():
    with pytest.raises(WindowError):
        fit_short_time(lambda dt: dt, n_points=5)
    with pytest.raises(WindowError):
        fit_short_time(lambda dt: dt, window=(1e-2, 1e-3))
    # HI**4 underflows to 0 or overflows: no coefficient can be unscaled
    for window in ((1e-200, 2e-200), (1e200, 1e201)):
        with pytest.raises(WindowError, match="normal float"):
            fit_short_time(lambda dt: dt, window=window)


def test_fit_full_parity_recovers_odd_series():
    fit = fit_short_time(lambda dt: 0.3 - 2.0 * dt + 5.0 * dt**2, parity="full", max_power=3)
    assert abs(fit.coefficient(0) - 0.3) <= 1e-10
    assert abs(fit.coefficient(1) - (-2.0)) <= 1e-6
    assert abs(fit.coefficient(2) - 5.0) <= 1e-3


# ---------------------------------------------------------------------------
# closed forms


def test_product_quadratic_guards():
    with pytest.raises(GuardViolation):
        product_cne_quadratic("uuu", ExchangeCoupling(1, -1, 1), HALF)
    with pytest.raises(GuardViolation):
        product_cne_quadratic("udd", ExchangeCoupling(1, 1, 1), HALF)


def test_weighting_expansion_guard():
    with pytest.raises(GuardViolation):
        weighting_cne_expansion("W9", MIXED_J, -0.01)
    with pytest.raises(GuardViolation):
        weighting_cne_expansion("W10", MIXED_J, +0.01)


def test_weighting_expansion_values():
    exp = weighting_cne_expansion("W9", MIXED_J, 0.01)
    assert np.isclose(exp.c0, -0.005)
    assert np.isclose(exp.c2, 0.25 * (1 + 0.03) / 4 + 0.25 * 1.01 / 2)
    assert exp.c4 is None and WEIGHTING_LABELS["W9"] == "p6"


def test_validate_formula_truncated_series():
    for sc, p in ((1, 0.0), (2, 0.3), (3, 0.6)):
        for fid in ("alpha_pair", "beta_pair"):
            check = validate_formula(
                fid,
                {"j": MIXED_J, "s": SpinMagnitude(sc), "p": p, "sign": +1},
                dts=(1e-3, 1e-2),
            )
            assert check.passed, (fid, sc, p, check)


def test_alpha_pair_truncation_remainder_structure():
    """The two-term truncation of the alpha-pair eigenvalue is exactly
    -(sqrt(1-p^2)/2) sqrt(1 + 16 x^2) with x = S Jz dt; the displayed
    quadratic form deviates by ~32 x^4 at larger dt."""
    s = SpinMagnitude(3)
    p = 0.3
    params = {"j": MIXED_J, "s": s, "p": p, "sign": +1}
    h, initial = FORMULAS["alpha_pair"].build(params)
    dts = np.array([1e-3, 5e-3, 1e-2])
    x = s.s * MIXED_J.jz * dts
    closed = -np.sqrt(1 - p * p) / 2 * np.sqrt(1 + 16 * x * x)
    assert np.max(np.abs(truncated_cne_function(h, initial, 2)(dts) - closed)) <= 1e-12


def test_validate_formula_env_diag():
    check = validate_formula(
        "env_diag_pair",
        {"j": ExchangeCoupling(-0.5, -0.5, 1.0), "s": HALF, "env_weights": (0.7, 0.3), "theta_a": np.pi / 4, "theta_b": np.pi / 3},
        dts=(1e-3, 1e-2),
    )
    assert check.passed
    assert check.max_deviation <= 1e-9


def test_validate_formula_full_numerics_w6():
    check = validate_formula("mixed_W6", {"j": MIXED_J, "epsilon": 0.01, "s": HALF}, dts=(1e-3, 5e-3, 1e-2))
    # the tabulated quartic keeps only the 1/epsilon-leading part; deviation
    # at dt=1e-2 stays within ten percent of the quartic term itself
    quartic = abs(weighting_cne_expansion("W6", MIXED_J, 0.01).c4) * (1e-2) ** 4
    assert check.rows[-1][3] <= 0.1 * quartic


# (weighting, epsilon, label, (c0, c2, c4) at MIXED_J, (c0, c2, c4) at ANISO_J): every tabulated
# (weighting, sign) pair at |epsilon| = 0.01 and 0.2, as the expansions evaluated before they became one table
ANISO_J = ExchangeCoupling(0.3, -0.7, 1.1)
PINNED_EXPANSIONS = [
    ("W1", 0.01, "p6", (-0.005, 0.12625, None), (-0.005, 0.04545, None)),
    ("W1", 0.2, "p6", (-0.1, 0.15, None), (-0.1, 0.054, None)),
    ("W2", 0.01, "p6", (-0.005, 0.0025, None), (-0.005, 0.0009, None)),
    ("W2", 0.2, "p6", (-0.1, 0.05, None), (-0.1, 0.018, None)),
    ("W3", 0.01, "p6", (-0.005, 0.12625, None), (-0.005, 0.04545, None)),
    ("W3", 0.2, "p6", (-0.1, 0.15, None), (-0.1, 0.054, None)),
    ("W4", 0.01, "p6", (-0.005, 0.0025, None), (-0.005, 0.0049, None)),
    ("W4", 0.2, "p6", (-0.1, 0.05, None), (-0.1, 0.09799999999999999, None)),
    ("W5", 0.01, "p6", (-0.005, 0.12625, None), (-0.005, 0.24744999999999998, None)),
    ("W5", 0.2, "p6", (-0.1, 0.15, None), (-0.1, 0.29399999999999993, None)),
    ("W6", 0.01, "p3", (-0.005, 0.2525, -1.6149479166666667), (-0.005, 0.2929, -1.1395072499999996)),
    ("W6", 0.2, "p3", (-0.1, 0.3, -0.13749999999999998), (-0.1, 0.348, -0.09701999999999997)),
    ("W6", -0.01, "p3", (-0.005, None, -1.5314062499999999), (-0.005, None, -1.0805602499999998)),
    ("W6", -0.2, "p3", (-0.1, None, -0.05000000000000001), (-0.1, None, -0.03528)),
    ("W7", 0.01, "p6", (-0.005, 0.064375, None), (-0.005, 0.023175, None)),
    ("W7", 0.2, "p6", (-0.1, 0.1, None), (-0.1, 0.036, None)),
    ("W8", 0.01, "p6", (-0.005, 0.064375, None), (-0.005, 0.12617499999999998, None)),
    ("W8", 0.2, "p6", (-0.1, 0.1, None), (-0.1, 0.19599999999999998, None)),
    ("W9", 0.01, "p6", (-0.005, 0.190625, None), (-0.005, 0.270625, None)),
    ("W9", 0.2, "p6", (-0.1, 0.25, None), (-0.1, 0.3299999999999999, None)),
    ("W10", -0.01, "p4", (0.005, None, -0.008050031565656566), (0.005, None, -0.0056801022727272716)),
    ("W10", -0.2, "p4", (0.1, None, -0.014062499999999999), (0.1, None, -0.009922499999999997)),
    ("W11", 0.01, "p6", (-0.005, 0.085, None), (-0.005, 0.0306, None)),
    ("W11", 0.2, "p6", (-0.1, 0.11666666666666665, None), (-0.1, 0.042, None)),
    ("W12", 0.01, "p6", (-0.005, 0.085, None), (-0.005, 0.1666, None)),
    ("W12", 0.2, "p6", (-0.1, 0.11666666666666665, None), (-0.1, 0.2286666666666666, None)),
    ("W13", 0.01, "p6", (-0.005, 0.17, None), (-0.005, 0.19720000000000001, None)),
    ("W13", 0.2, "p6", (-0.1, 0.2333333333333333, None), (-0.1, 0.27066666666666667, None)),
    ("W14", -0.01, "p4", (0.005, None, -0.021685799319727892), (0.005, None, -0.015301499999999997)),
    ("W14", -0.2, "p4", (0.1, None, -0.05), (0.1, None, -0.03528)),
]

PINNED_FORMULAS = [
    ("product_uuu", "full_numerics", 3, 4),
    ("product_uud", "full_numerics", 3, 4),
    ("product_udd", "full_numerics", 3, 4),
    *((f"mixed_W{i}", "full_numerics", 3, 6 if i in (6, 10, 14) else 4) for i in range(1, 15)),
    ("env_diag_pair", "truncated_series", 2, 4),
    ("alpha_pair", "truncated_series", 2, 4),
    ("beta_pair", "truncated_series", 2, 4),
]


@pytest.mark.parametrize("wid, eps, label, at_mixed_j, at_aniso_j", PINNED_EXPANSIONS)
def test_weighting_expansion_pinned(wid, eps, label, at_mixed_j, at_aniso_j):
    for j, (c0, c2, c4) in ((MIXED_J, at_mixed_j), (ANISO_J, at_aniso_j)):
        exp = weighting_cne_expansion(wid, j, eps)
        assert (exp.c0, exp.c2, exp.c4, WEIGHTING_LABELS[wid]) == (c0, c2, c4, label), (wid, eps, j)


def test_weighting_table_is_the_pinned_pairs():
    tabulated = [(wid, sgn) for wid, signs in WEIGHTING_TABLE_SIGNS.items() for sgn in signs]
    assert tabulated == [(wid, int(np.sign(eps))) for wid, eps, *_ in PINNED_EXPANSIONS[::2]]
    assert WEIGHTING_LABELS == {wid: label for wid, _, label, *_ in PINNED_EXPANSIONS}


def test_weighting_expansion_rejects_unknown_ids_and_untabulated_signs():
    for wid in ("W0", "W15", "w1", ""):
        with pytest.raises(ValueError, match="unknown weighting id"):
            weighting_cne_expansion(wid, MIXED_J, 0.01)
    for wid, signs in WEIGHTING_TABLE_SIGNS.items():
        for eps in (0.01, -0.01, 0.0):
            if np.sign(eps) not in signs:
                with pytest.raises(GuardViolation):
                    weighting_cne_expansion(wid, MIXED_J, eps)


def test_formula_table_pinned():
    derived = [(fid, f.mode, f.truncation_order, f.coefficients(_formula_params(fid)).next_order) for fid, f in FORMULAS.items()]
    assert derived == PINNED_FORMULAS
    with pytest.raises(KeyError):
        validate_formula("mixed_W15", {"j": MIXED_J, "s": HALF, "epsilon": 0.01})


def _formula_params(fid: str) -> dict:
    """Parameters inside each closed form's guards."""
    params = {"j": ExchangeCoupling(1.0, -0.5, 1.0) if fid == "product_udd" else MIXED_J, "s": HALF}
    if fid.startswith("mixed_"):
        params["epsilon"] = 0.01 * WEIGHTING_TABLE_SIGNS[fid[len("mixed_"):]][0]
    elif fid == "env_diag_pair":
        params.update(s=SpinMagnitude(2), env_weights=(0.5, 0.3, 0.2), theta_a=0.6, theta_b=1.1)
    elif fid in ("alpha_pair", "beta_pair"):
        params.update(s=SpinMagnitude(3), p=0.3, sign=-1)
    return params


def test_fit_short_time_samples_once():
    calls = []

    def sampler(dts):
        calls.append(np.shape(dts))
        return 0.3 + 5.0 * dts**2

    fit_short_time(sampler, n_points=17)
    assert calls == [(17,)]


def test_samplers_match_per_time_evaluation_across_chunks():
    """A grid longer than one batch gives, bit for bit, the lambda* of each time sampled on its own."""
    s = SpinMagnitude(2)
    h = spin_star_hamiltonian(ExchangeCoupling(1, 0.5, 1), s)
    initial = product_basis_initial("uud", s)
    dts = np.linspace(-0.05, 0.05, 2 * CHUNK + 7)
    exact = exact_cne_function(h, initial)
    assert np.array_equal(exact(dts), [exact(dts[k:k + 1])[0] for k in range(dts.size)])
    prop = SpectralPropagator(h)
    chain = [cne(trace_out_c(prop.evolve_matrix(initial.matrix, dt), 3))[0] for dt in dts]
    assert np.max(np.abs(exact(dts) - chain)) <= CHAIN_TOL
    truncated = truncated_cne_function(h, initial, 3)
    series = [cne(trace_out_c(evolve_series(h, initial, dt, 3), 3))[0] for dt in dts]
    assert np.array_equal(truncated(dts), series)
    assert truncated(dts[:0]).shape == (0,)


def test_validate_formula_rejects_a_wrong_c0_or_c2(monkeypatch):
    """A wrong constant or quadratic shrinks more slowly than the neglected order, and the references catch it."""
    for fid, formula in FORMULAS.items():
        params = _formula_params(fid)
        exp = formula.coefficients(params)
        assert validate_formula(fid, params).passed, fid
        wrong = [exp._replace(c0=exp.c0 + 1e-6)] + ([exp._replace(c2=2.0 * exp.c2)] if exp.c2 else [])
        for bad in wrong:
            monkeypatch.setitem(FORMULAS, fid, replace(formula, coefficients=lambda p, bad=bad: bad))
            assert not validate_formula(fid, params).passed, (fid, bad)


def test_validate_formula_has_no_per_dt_path(monkeypatch):
    """Every registered closed form validates with the per-time evolution entry points disabled."""

    def per_dt(*args, **kwargs):
        raise AssertionError("per-time evolution called")

    monkeypatch.setattr(SpectralPropagator, "evolve_matrix", per_dt)
    monkeypatch.setattr(dynamics, "evolve_series", per_dt)
    monkeypatch.setattr(analysis, "evolve_series", per_dt, raising=False)
    for fid in FORMULAS:
        check = validate_formula(fid, _formula_params(fid), dts=(1e-3, 3e-3, 1e-2))
        assert check.passed, (fid, check)


# ---------------------------------------------------------------------------
# classification


def test_classify_requires_negative_times():
    t = np.linspace(0, 1, 101)
    with pytest.raises(ValueError):
        classify_trajectory(synthetic_trajectory(t, np.zeros_like(t)))


@pytest.mark.parametrize(
    "wid,sign,expected",
    [("W9", +1, "p6"), ("W14", -1, "p4"), ("W6", +1, "p3"), ("W6", -1, "p3"), ("W10", -1, "p4"), ("W2", +1, "p6")],
)
def test_classify_mixed_weightings(wid, sign, expected):
    initial = mixed_initial(esp_weighting(wid, sign * 0.01), HALF)
    traj = sample_trajectory(spin_star_hamiltonian(MIXED_J, HALF), initial, EvolutionSpec(t_max=1.5, n_steps=1200, emit_negative_times=True))
    cls = classify_trajectory(traj)
    assert cls.label == expected


def test_classify_boundary_touch_from_inside():
    # all-up product state under anisotropic in-plane exchange: lambda*(0) = 0
    # and the state is entangled at both sides near t = 0
    h = spin_star_hamiltonian(ExchangeCoupling(1, 0.5, 1), HALF)
    traj = sample_trajectory(h, product_basis_initial("uuu", HALF), EvolutionSpec(t_max=0.2, n_steps=400, emit_negative_times=True))
    cls = classify_trajectory(traj)
    assert cls.label == "p2"


def test_classify_boundary_stays_outside():
    t = np.linspace(-1, 1, 401)
    traj = synthetic_trajectory(t, np.zeros_like(t))
    traj = Trajectory(traj.times, 0.2 * t**2, traj.negativity, traj.concurrence, traj.negative_count)
    assert classify_trajectory(traj).label == "p1"


def test_classify_odd_crossing():
    t = np.linspace(-1, 1, 401)
    cne = 0.05 * t
    neg = np.maximum(0.0, -cne)
    traj = Trajectory(t, cne, neg, neg, (neg > 1e-9).astype(np.int64))
    assert classify_trajectory(traj).label == "p0"


def test_classify_separable_stays_outside():
    t = np.linspace(-1, 1, 401)
    cne = 0.01 + 0.2 * t**2
    neg = np.zeros_like(t)
    traj = Trajectory(t, cne, neg, neg, np.zeros(len(t), dtype=np.int64))
    assert classify_trajectory(traj).label == "p5"


@pytest.mark.parametrize(
    "cne_at, label, crossed",
    [
        (lambda t: t - 0.5, "unclassified", (False, True)),  # entangled at 0, death after only
        (lambda t: -0.5 - t, "unclassified", (True, False)),  # entangled at 0, birth before only
        (lambda t: 0.5 + t, "unclassified", (True, False)),  # separable at 0, death before only
        (lambda t: 0.5 - t, "unclassified", (False, True)),  # separable at 0, birth after only
        (lambda t: np.abs(t) - 0.5, "p6", (True, True)),
        (lambda t: 0.5 - np.abs(t), "p4", (True, True)),
        (lambda t: -0.5 + 0.1 * t * t, "p3", (False, False)),
        (lambda t: 0.5 + 0.1 * t * t, "p5", (False, False)),
    ],
)
def test_classify_off_boundary_rule(cne_at, label, crossed):
    """Entangled at t = 0 pairs a birth before with a death after, separable a death before with a birth after."""
    t = np.linspace(-1, 1, 401)
    cne = cne_at(t)
    neg = np.maximum(0.0, -cne)
    traj = Trajectory(t, cne, neg, neg, (neg > 1e-9).astype(np.int64))
    cls = classify_trajectory(traj)
    assert (cls.label, cls.crossed_before, cls.crossed_after) == (label, *crossed)
    assert cls.events == detect_transitions(traj)
    assert cls.diagnostics == {}


def test_classify_pure_recipe_labels():
    for wid, sign, expected in (("W9", +1, "p6"), ("W13", +1, "p6"), ("W7", -1, "p4"), ("W14", -1, "p4")):
        traj = pure_trajectory(wid, sign * 0.01, MIXED_J, EvolutionSpec(t_max=1.0, n_steps=1200, emit_negative_times=True))
        cls = classify_trajectory(traj)
        assert cls.label == expected, (wid, cls)


# ---------------------------------------------------------------------------
# symmetry suite


def test_symmetry_suite_product_state():
    report = symmetry_suite(ExchangeCoupling(1, 1, 1), HALF, product_basis_initial("uud", HALF))
    assert report.passed
    assert report.coupling_negation_unitary <= 1e-12
    assert report.coupling_negation_grid <= 1e-10
    assert report.time_reversal_closure <= 1e-8
    assert report.dt2_symmetry <= 1e-8


def test_symmetry_suite_dt2_is_exact_for_real_preparations():
    """Real H and rho0 make lambda* even in t by construction: N(dt) = N(-dt) bit for bit."""
    w9 = esp_weighting("W9", 0.01)
    cases = [
        (ExchangeCoupling(1, 1, 1), HALF, product_basis_initial("uud", HALF)),
        (MIXED_J, HALF, mixed_initial(w9, HALF)),
        (MIXED_J, w9.matched_spin(), pure_initial(w9, w9.matched_spin())),
    ]
    for j, s, initial in cases:
        report = symmetry_suite(j, s, initial, t_max=1.0, n_steps=400)
        assert report.passed and report.dt2_symmetry == 0.0


def test_sampler_evaluates_each_abs_dt_once(monkeypatch):
    """A real preparation's lambda*(dt) sampler propagates each distinct |dt| once and gathers it back."""
    counts = []
    phases = SpectralPropagator.phases

    def spied(self, times):
        counts.append(times.tolist())
        return phases(self, times)

    monkeypatch.setattr(SpectralPropagator, "phases", spied)
    h = spin_star_hamiltonian(MIXED_J, HALF)
    sampler = exact_cne_function(h, mixed_initial(esp_weighting("W9", 0.01), HALF))
    lam = sampler(np.array([1e-2, -1e-3, 1e-3, -1e-2, 0.0]))
    assert counts == [[0.0, 1e-3, 1e-2]]
    assert lam[0] == lam[3] and lam[1] == lam[2]


def test_exact_sampler_diagonalizes_and_factors_once(monkeypatch):
    """A sampler made on a bare H and a bare rho0 diagonalizes H and factors rho0 when it is made:
    three calls add no eigendecomposition, and each returns the same lambda*."""
    eigs, factors = [], []
    monkeypatch.setattr(dynamics, "hermitian_eig", lambda a: eigs.append(a.shape) or hermitian_eig(a))
    real_psd_factor = dynamics.psd_factor
    monkeypatch.setattr(dynamics, "psd_factor", lambda m: factors.append(m.shape) or real_psd_factor(m))
    initial = mixed_initial(esp_weighting("W9", 0.01), HALF)
    sampler = exact_cne_function(spin_star_hamiltonian(MIXED_J, HALF), DensityOperator(initial.matrix, initial.dims))
    dts = np.linspace(-0.01, 0.01, 9)
    values = [sampler(dts) for _ in range(3)]
    assert eigs == [(2, 4, 4)] and factors == [(8, 8)]
    assert all(np.array_equal(v, values[0]) for v in values)


def test_symmetry_suite_diagonalizes_each_hamiltonian_once(monkeypatch):
    """H(J) and H(-J): two eigendecompositions, each of one stack of sector blocks; the spin flip is a
    signed reversal, with none."""
    calls = []

    def counted(a):
        calls.append(a.shape)
        return hermitian_eig(a)

    monkeypatch.setattr(dynamics, "hermitian_eig", counted)
    assert symmetry_suite(ExchangeCoupling(1, 1, 1), HALF, product_basis_initial("uud", HALF)).passed
    assert calls == [(2, 4, 4), (2, 4, 4)]


def test_symmetry_suite_death_birth_mirror():
    report = symmetry_suite(ExchangeCoupling(1, 0.5, 1), SpinMagnitude(2), product_basis_initial("uuu", SpinMagnitude(2)), t_max=6.0, n_steps=2400)
    assert report.passed
    assert report.event_mirror is not None
    assert report.event_mirror <= 3 * (12.0 / 2400)


def test_symmetry_y_negation_swaps_states():
    spec = EvolutionSpec(t_max=10.0, n_steps=1000)
    a = sample_trajectory(spin_star_hamiltonian(ExchangeCoupling(1, -1, 1), HALF), product_basis_initial("uuu", HALF), spec)
    b = sample_trajectory(spin_star_hamiltonian(ExchangeCoupling(1, 1, 1), HALF), product_basis_initial("udd", HALF), spec)
    assert np.max(np.abs(a.negativity - b.negativity)) <= 1e-8
