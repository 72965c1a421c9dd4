import mpmath as mp
import numpy as np
import pytest

from espkit import monotones
from espkit.dynamics import series_batches
from espkit.errors import NumericalError
from espkit.hilbert import PAULI_Y, SpinMagnitude
from espkit.model import ExchangeCoupling, spin_star_hamiltonian
from espkit.monotones import (
    YY_SIGNS,
    batch_columns,
    batch_pt_min,
    cne,
    concurrence,
    negativity,
    negativity_and_count,
    pt_min,
    x_columns,
    x_pt_min,
)
from espkit.states import BellKind, bell_ket, bell_mixture, esp_weighting, pure_initial

from conftest import custom_weighting, hermitian_eigvals, monotone_sample, random_two_qubit_dm, random_unitary

SINGLET = bell_ket(BellKind("beta", -1)).to_density().matrix
UP_UP = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)


def concurrence_oracle(rho: np.ndarray) -> float:
    """Square roots of the eigenvalues of rho*rho', via the general
    (non-Hermitian) eigenvalue problem."""
    yy = np.kron(PAULI_Y, PAULI_Y)
    flipped = yy @ rho.conj() @ yy
    gammas = np.sqrt(np.abs(np.sort(np.linalg.eigvals(rho @ flipped).real)))
    return max(0.0, 2 * gammas[-1] - gammas.sum())


def test_yy_signs_are_the_pauli_y_pair():
    """σy⊗σy = antidiag(-1, 1, 1, -1): YY_SIGNS on the rows of the row reversal."""
    yy = np.kron(PAULI_Y, PAULI_Y)
    expected = np.zeros((4, 4))
    expected[0, 3] = -1
    expected[1, 2] = 1
    expected[2, 1] = 1
    expected[3, 0] = -1
    assert np.allclose(yy, expected)
    assert np.max(np.abs(yy.imag)) == 0.0
    assert np.array_equal(YY_SIGNS * np.eye(4)[::-1], expected)


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
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
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


def random_x_factor(rng, columns: int, sectors=(0, 1)) -> np.ndarray:
    """A trace-one (4, k) factor whose every column sits on {00, 11} (sector 0) or on {01, 10} (sector 1)."""
    l = np.zeros((4, columns), dtype=complex)
    for c in range(columns):
        rows = ([0, 3], [1, 2])[rng.choice(sectors)]
        l[rows, c] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return l / np.linalg.norm(l)


def shifted_x_factor(rng, target: float) -> np.ndarray:
    """An X factor [L, sqrt(d) I] / norm whose lambda* sits at ``target`` (to roundoff), from an entangled L."""
    while True:
        l = random_x_factor(rng, int(rng.integers(1, 5)))
        lam = cne(l @ l.conj().T)[0]
        if lam < target - 1e-3:
            break
    d = (target - lam) / (1.0 - 4.0 * target)  # (lam + d) / (1 + 4 d) = target
    shifted = np.hstack([l, np.sqrt(d) * np.eye(4)])
    return shifted / np.linalg.norm(shifted)


def diagonal_x_factor(rng, columns: int) -> np.ndarray:
    """A trace-one (4, k) factor whose every column has one nonzero entry: rho is diagonal, both coherences 0."""
    l = np.zeros((4, columns), dtype=complex)
    l[rng.integers(4, size=columns), np.arange(columns)] = rng.standard_normal(columns) + 1j * rng.standard_normal(columns)
    return l / np.linalg.norm(l)


def x_factor_cases(rng) -> list[np.ndarray]:
    cases = [random_x_factor(rng, k) for k in range(1, 17) for _ in range(4)]
    cases += [random_x_factor(rng, k, sectors=(sector,)) for k in (1, 2, 3) for sector in (0, 1)]  # rank <= 2
    cases += [diagonal_x_factor(rng, k) for k in (1, 2, 3, 5, 8)]
    for target in (0.0, 1e-9, -1e-9):
        cases += [shifted_x_factor(rng, target + rng.uniform(-1e-12, 1e-12)) for _ in range(8)]
    return cases


def padded(l: np.ndarray, width: int) -> np.ndarray:
    """``l`` with zero columns appended up to ``width``: the same state L L†."""
    out = np.zeros((4, max(width, l.shape[1])), dtype=complex)
    out[:, : l.shape[1]] = l
    return out


def lapack_spy(monkeypatch) -> list:
    """The LAPACK routines espkit's monotones call from now on, in order."""
    calls = []
    real_lapack = monotones._lapack
    monkeypatch.setattr(monotones, "_lapack", lambda fn, *a, **k: calls.append(fn) or real_lapack(fn, *a, **k))
    return calls


def x_entries(*factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rho_ii, (|rho_03|, |rho_12|)) of rho = L L† for each X factor, as the (4, S, 1) and (2, S, 1) arrays
    x_columns takes: S states at one time, from the row norms and row products of L."""
    with np.errstate(invalid="ignore", over="ignore"):
        diag = np.array([np.sum(np.abs(l) ** 2, axis=1) for l in factors]).T
        coherence = np.abs([[l[0] @ l[3].conj(), l[1] @ l[2].conj()] for l in factors]).T
    return diag[:, :, None], coherence[:, :, None]


def test_x_closed_forms_match_the_lapack_path(rng, monkeypatch):
    """The closed forms (no rho_AB, no LAPACK) on the diagonal and coherences of X states agree with eigvalsh
    and QR/SVD on their factors to 1e-15, over widths 1..16, rank-deficient factors, zero coherences and
    lambda* near 0 and ±1e-9; the trace drift is that of the state."""
    dense_factor = np.linalg.cholesky(random_two_qubit_dm(rng))
    cases = x_factor_cases(rng)  # built with cne, which takes eigvalsh
    calls = lapack_spy(monkeypatch)
    near_threshold = 0
    for l in cases:
        red = l @ l.conj().T
        assert np.all(np.delete(red.ravel(), [0, 3, 5, 6, 9, 10, 12, 15]) == 0.0)  # off-X entries exactly 0.0
        lam, conc, trace_dev = x_columns(*x_entries(l))
        assert lam.shape == conc.shape == (1, 1) and trace_dev.shape == (1,)
        assert np.array_equal(x_pt_min(*x_entries(l)), lam)
        assert not calls
        width = max(4, l.shape[1])
        lapack_lam, lapack_conc, *_ = batch_columns(np.stack([padded(l, width), padded(dense_factor, width)]))
        assert {np.linalg.eigvalsh, np.linalg.svd} <= set(calls)
        calls.clear()
        assert abs(lam[0, 0] - lapack_lam[0]) <= 1e-15
        assert abs(conc[0, 0] - lapack_conc[0]) <= 1e-15
        assert abs(trace_dev[0] - abs(np.trace(red).real - 1.0)) <= 1e-15
        assert abs(pt_min(red[None])[0] - lapack_lam[0]) <= 1e-15  # the bare matrix takes eigvalsh
        calls.clear()
        near_threshold += min(abs(abs(lam[0, 0]) - x) for x in (0.0, 1e-9)) <= 2e-12
    assert near_threshold >= 24


def test_one_column_off_the_x_sends_the_batch_to_lapack(rng, monkeypatch):
    """A factor batch takes eigvalsh for lambda* and SVD for C, for every factor of the batch, and forms
    rho_AB = L L† for it: X factors and one with a column on both sectors alike, since the X states of
    a trajectory never reach it.  Its values agree with the closed forms on the X ones to 1e-15."""
    l = random_x_factor(rng, 3)
    off = l.copy()
    off[1 if off[0, 0] != 0 else 0, 0] = 0.3  # column 0 now reaches both {00, 11} and {01, 10}
    off /= np.linalg.norm(off)
    calls = lapack_spy(monkeypatch)
    grams = []
    real_gram = monotones._gram
    monkeypatch.setattr(monotones, "_gram", lambda m: grams.append(m.shape) or real_gram(m))
    mixed_lam, mixed_conc, *_ = batch_columns(np.stack([l, l, off]))
    assert calls == [np.linalg.eigvalsh, np.linalg.svd] and grams == [(3, 4, 3)]
    lam, conc, _ = x_columns(*x_entries(l))
    assert abs(mixed_lam[0] - lam[0, 0]) <= 1e-15 and abs(mixed_conc[0] - conc[0, 0]) <= 1e-15
    rho = off @ off.conj().T
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    assert abs(mixed_lam[2] - np.linalg.eigvalsh(pt)[0]) <= 1e-15
    gammas = np.linalg.svd(off.T @ np.kron(PAULI_Y, PAULI_Y) @ off, compute_uv=False)  # the 3 nonzero gamma values
    assert abs(mixed_conc[2] - max(0.0, gammas[0] - gammas[1] - gammas[2])) <= 1e-15
    calls.clear()
    assert np.array_equal(batch_pt_min(np.stack([l, l, off])), mixed_lam)
    assert calls == [np.linalg.eigvalsh]  # lambda* alone pays for no QR or SVD


def test_a_bare_x_matrix_takes_one_lapack_call_per_quantifier(rng, monkeypatch):
    """A bare 4x4 matrix has no factor and no X decision: on an X-shaped state, cne and negativity
    each take one eigvalsh and concurrence one eigh and one SVD.  lambda* and N agree with the closed
    forms on the factor to 1e-15; C to 2e-15, because the factor that eigh makes of rho moves it by
    up to 1.2e-15 here (the LAPACK concurrence of the original factor agrees to 1e-15)."""
    cases = x_factor_cases(rng)
    calls = lapack_spy(monkeypatch)
    for l in cases:
        rho = l @ l.conj().T
        calls.clear()
        (lam,), (conc,), _ = x_columns(*x_entries(l))
        assert not calls
        assert abs(cne(rho)[0] - lam[0]) <= 1e-15
        assert calls == [np.linalg.eigvalsh]
        calls.clear()
        assert abs(negativity(rho) - negativity_and_count(lam[0])[0]) <= 1e-15
        assert calls == [np.linalg.eigvalsh]
        calls.clear()
        assert abs(concurrence(rho) - conc[0]) <= 2e-15
        assert calls == [np.linalg.eigh, np.linalg.svd]


@pytest.mark.parametrize("width", [1, 4, 6])
def test_non_finite_factor_entries_raise(rng, width):
    """A NaN or inf in an X-shaped factor raises NumericalError on the closed-form path, as on LAPACK's."""
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        l = random_x_factor(rng, width)
        row = int(np.flatnonzero(l[:, 0])[0])
        l[row, 0] = bad
        for run in (
            lambda: x_columns(*x_entries(random_x_factor(rng, width), l)),
            lambda: batch_columns(np.stack([random_x_factor(rng, width), l])),
            lambda: batch_pt_min(l[None]),
        ):
            with pytest.raises(NumericalError, match="non-finite"):
                run()


def _x_oracle(l: np.ndarray) -> tuple:
    """lambda* and C of rho = L L† at 50 digits, from the two 2x2 blocks of rho^{T_B} and the X concurrence."""
    with mp.workdps(50):
        m = [[mp.mpc(complex(x)) for x in row] for row in l]
        rho = [[mp.fsum(m[i][k] * mp.conj(m[j][k]) for k in range(l.shape[1])) for j in range(4)] for i in range(4)]
        d = [mp.re(rho[i][i]) for i in range(4)]
        lower = [
            (a + b) / 2 - mp.sqrt(((a - b) / 2) ** 2 + abs(c) ** 2)
            for a, b, c in ((d[0], d[3], rho[1][2]), (d[1], d[2], rho[0][3]))
        ]
        conc = 2 * max(0, abs(rho[0][3]) - mp.sqrt(d[1] * d[2]), abs(rho[1][2]) - mp.sqrt(d[0] * d[3]))
        return min(lower), conc


def test_x_closed_forms_match_50_digits():
    """Twenty seeded X factors of widths 1..16, entangled and separable: lambda* and C of the closed forms
    lie within 1e-15 of a 50-digit evaluation of the same blocks."""
    rng = np.random.default_rng(2007)
    factors = [random_x_factor(rng, int(k)) for k in rng.integers(1, 17, size=16)]
    factors += [shifted_x_factor(rng, target) for target in (0.0, 1e-9, -1e-9, 0.1)]
    lams, concs, _ = x_columns(*x_entries(*factors))
    lams, concs = lams[:, 0], concs[:, 0]
    entangled = 0
    for l, lam, conc in zip(factors, lams, concs):
        lam_mp, conc_mp = _x_oracle(l)
        assert abs(lam - float(lam_mp)) <= 1e-15
        assert abs(conc - float(conc_mp)) <= 1e-15
        entangled += lam < -1e-9
    assert 4 <= entangled <= 16


def _series_states() -> list[np.ndarray]:
    """Reduced states of the three-term series truncation of pure W11..W14 at S = 3/2, |eps| in [0.005, 0.02], |t| <= 0.05."""
    s = SpinMagnitude(3)
    h = spin_star_hamiltonian(ExchangeCoupling(-0.5, -0.5, -1.0), s)
    times = np.linspace(-0.05, 0.05, 41)
    states = []
    for wid in ("W11", "W12", "W13", "W14"):
        for eps in (-0.02, -0.005, 0.005, 0.02):
            for red in series_batches(h, pure_initial(esp_weighting(wid, eps), s).to_density(), times):
                states.extend(red)
    return states


def test_partial_transpose_has_at_most_one_negative_eigenvalue(rng):
    """The fact N and the count are derived from: a full eigvalsh of each partial transpose, taken
    without espkit, has at most one eigenvalue below -1e-12, and its negative mass is the derived N
    to 1e-15.  Inputs: random full-rank and rank-deficient states, the X-shaped cases (near-threshold
    ones included) and the series truncations that ``series`` trajectories sample."""
    states = [random_two_qubit_dm(rng) for _ in range(200)]
    for rank in (1, 2, 3):
        for _ in range(100):
            g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
            states.append(g @ g.conj().T / np.linalg.norm(g) ** 2)
    states += [l @ l.conj().T for l in x_factor_cases(rng)]
    states += _series_states()
    entangled = 0
    for rho in states:
        pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)  # (i, j; k, l) -> (i, l; k, j)
        w = np.linalg.eigvalsh(0.5 * (pt + pt.conj().T))
        assert np.count_nonzero(w < -1e-12) <= 1
        neg, count = negativity_and_count(pt_min(rho[None])[0])
        assert abs(-np.sum(np.minimum(w, 0.0)) - neg) <= 1e-15
        assert count == (w[0] < -1e-12)
        entangled += bool(count)
    assert 0.3 * len(states) < entangled < len(states)
