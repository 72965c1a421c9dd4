"""Independent numpy reference for the spin-star model.

Nothing here imports espkit: spin operators, the Hamiltonian, the initial
states, propagation, partial trace, partial transpose, lambda*, negativity,
Wootters concurrence and the order-3 commutator truncation are rebuilt from
the model's definitions, so a check against this module is a check against
an implementation that shares no code with the package.

Conventions follow the package's documented ones: the space is
environment ⊗ A ⊗ B, the environment basis runs from m = +S downwards, the
qubit basis is (uu, ud, du, dd) with A on the left, hbar = 1.

States are kept as ensemble factors B0 with rho0 = B0 B0^†.  Propagating
B(t) = U(t) B0 and regrouping it into the 4 x (dim_c r) factor L of rho_AB
gives the concurrence from the singular values of L^T (σy⊗σy) L (Wootters,
PRL 80, 2245) without a matrix square root, which keeps it accurate to
roundoff next to C = 0.
"""

from __future__ import annotations

import numpy as np

THRESHOLD = 1e-9

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SYSY = np.kron(SY, SY)

# Bell vectors in (alpha+, alpha-, beta+, beta-) order
_R = 1.0 / np.sqrt(2.0)
BELL = np.array(
    [[_R, 0, 0, _R], [_R, 0, 0, -_R], [0, _R, _R, 0], [0, _R, -_R, 0]],
    dtype=complex,
)

# weighting id -> (dominant slot, slots sharing (1 - eps)/2 evenly)
WEIGHTING_SLOTS = {
    "W1": (0, (1,)), "W2": (0, (2,)), "W3": (0, (3,)),
    "W4": (1, (2,)), "W5": (1, (3,)), "W6": (2, (3,)),
    "W7": (0, (1, 2)), "W8": (1, (2, 3)), "W9": (2, (0, 3)), "W10": (3, (0, 1)),
    "W11": (0, (1, 2, 3)), "W12": (1, (0, 2, 3)), "W13": (2, (0, 1, 3)), "W14": (3, (0, 1, 2)),
}

PRODUCT_ANGLES = {"uuu": (0.0, 0.0), "uud": (0.0, np.pi), "udd": (np.pi, np.pi)}


# ---------------------------------------------------------------------------
# model


def spin_matrices(two_s: int):
    """(Sx, Sy, Sz) for spin S = two_s/2, basis m = S, S-1, ..., -S."""
    s = two_s / 2.0
    m = s - np.arange(two_s + 1)
    raise_ = np.diag(np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1)), k=1).astype(complex)
    lower = raise_.conj().T
    return (raise_ + lower) / 2.0, (raise_ - lower) / 2.0j, np.diag(m).astype(complex)


def hamiltonian(j, two_s: int) -> np.ndarray:
    """sum_a J_a S_a ⊗ (σ_a ⊗ 1 + 1 ⊗ σ_a) on environment ⊗ A ⊗ B."""
    eye2 = np.eye(2)
    h = 0
    for ja, sa, pa in zip(j, spin_matrices(two_s), (SX, SY, SZ)):
        h = h + ja * np.kron(sa, np.kron(pa, eye2) + np.kron(eye2, pa))
    return np.asarray(h, dtype=complex)


def env_level(two_s: int, index: int) -> np.ndarray:
    e = np.zeros(two_s + 1, dtype=complex)
    e[index] = 1.0
    return e


def qubit(theta: float) -> np.ndarray:
    return np.array([np.cos(theta / 2.0), np.sin(theta / 2.0)], dtype=complex)


def weights(weighting_id: str, eps: float) -> np.ndarray:
    main, shares = WEIGHTING_SLOTS[weighting_id]
    w = np.zeros(4)
    w[main] = (1.0 + eps) / 2.0
    w[list(shares)] = (1.0 - eps) / (2.0 * len(shares))
    return w


def product_factor(state, two_s: int, env=None) -> np.ndarray:
    """B0 of env ⊗ |a><a| ⊗ |b><b| with a diagonal environment (default |m=S>).

    ``state`` is a named z-basis configuration or a (theta_a, theta_b) pair
    of polar angles (azimuth zero).
    """
    theta_a, theta_b = PRODUCT_ANGLES[state] if isinstance(state, str) else state
    pair = np.kron(qubit(theta_a), qubit(theta_b))
    env = np.eye(two_s + 1)[0] if env is None else np.asarray(env, dtype=float)
    cols = [np.sqrt(p) * np.kron(env_level(two_s, k), pair) for k, p in enumerate(env) if p > 0]
    return np.array(cols).T


def mixed_factor(weighting_id: str, eps: float, two_s: int) -> np.ndarray:
    """B0 of |m=S><m=S| ⊗ sum_i w_i |Bell_i><Bell_i|."""
    w = weights(weighting_id, eps)
    top = env_level(two_s, 0)
    return np.array([np.sqrt(p) * np.kron(top, BELL[i]) for i, p in enumerate(w) if p > 0]).T


def bell_pair_factor(family: str, sign: int, p: float, two_s: int) -> np.ndarray:
    """|m=S> ⊗ (sqrt((1+p)/2) |first> + sign sqrt((1-p)/2) |second>), first/second = uu/dd or ud/du."""
    pair = np.zeros(4, dtype=complex)
    first, second = (0, 3) if family == "alpha" else (1, 2)
    pair[first] = np.sqrt((1.0 + p) / 2.0)
    pair[second] = sign * np.sqrt((1.0 - p) / 2.0)
    return np.kron(env_level(two_s, 0), pair).reshape(-1, 1)


def pure_factor(weighting_id: str, eps: float) -> tuple[np.ndarray, int]:
    """Purification: the k-th nonzero Bell weight pairs with the k-th level from m = S."""
    w = weights(weighting_id, eps)
    nonzero = [i for i in range(4) if w[i] > 0]
    two_s = len(nonzero) - 1
    psi = sum(np.sqrt(w[i]) * np.kron(env_level(two_s, k), BELL[i]) for k, i in enumerate(nonzero))
    return psi.reshape(-1, 1), two_s


# ---------------------------------------------------------------------------
# reduction and monotones


def pair_factor(b: np.ndarray, dim_c: int) -> np.ndarray:
    """Regroup a (4 dim_c, r) factor of rho into the 4 x (dim_c r) factor of rho_AB."""
    r = b.shape[-1]
    lead = b.shape[:-2]
    return np.swapaxes(b.reshape(lead + (dim_c, 4, r)), -3, -2).reshape(lead + (4, dim_c * r))


def partial_trace(rho: np.ndarray, dim_c: int) -> np.ndarray:
    lead = rho.shape[:-2]
    return np.trace(rho.reshape(lead + (dim_c, 4, dim_c, 4)), axis1=-4, axis2=-2)


def partial_transpose(red: np.ndarray) -> np.ndarray:
    """Transpose qubit B: out[ab, a'b'] = in[ab', a'b]."""
    lead = red.shape[:-2]
    t = red.reshape(lead + (2, 2, 2, 2))
    return np.swapaxes(t, -3, -1).reshape(lead + (4, 4))


def pt_spectrum(red: np.ndarray) -> np.ndarray:
    pt = partial_transpose(red)
    return np.linalg.eigvalsh((pt + np.conj(np.swapaxes(pt, -1, -2))) / 2.0)


def concurrence_from_factor(l: np.ndarray):
    """Wootters concurrence of rho_AB = L L^† from the singular values of L^T (σy⊗σy) L."""
    tau = np.swapaxes(l, -1, -2) @ SYSY @ l
    s = np.linalg.svd(tau, compute_uv=False)
    if s.shape[-1] < 4:  # rank of rho_AB below 4: the missing singular values are zero
        s = np.concatenate([s, np.zeros(s.shape[:-1] + (4 - s.shape[-1],))], axis=-1)
    return np.maximum(0.0, s[..., 0] - s[..., 1] - s[..., 2] - s[..., 3])


# ---------------------------------------------------------------------------
# propagation


class Evolution:
    """Exact evolution of an ensemble factor under H via numpy's eigh."""

    def __init__(self, h: np.ndarray, b0: np.ndarray):
        self.h = h
        self.b0 = b0
        self.dim_c = h.shape[0] // 4
        self.w, self.v = np.linalg.eigh(h)
        self.vb0 = self.v.conj().T @ b0

    def factor(self, times) -> np.ndarray:
        """B(t) = U(t) B0 for every t, shape (T, n, r)."""
        phases = np.exp(-1j * np.outer(np.atleast_1d(times), self.w))
        return self.v @ (phases[:, :, None] * self.vb0)

    def monotones(self, times):
        """(lambda*, negativity, concurrence, negative count) arrays at the given times.

        The count is of partial-transpose eigenvalues below -1e-12.
        """
        l = pair_factor(self.factor(times), self.dim_c)
        red = l @ np.conj(np.swapaxes(l, -1, -2))
        w = pt_spectrum(red)
        neg = -np.sum(np.where(w < 0.0, w, 0.0), axis=-1)
        return w[:, 0], neg, concurrence_from_factor(l), np.sum(w < -1e-12, axis=-1)

    def lam_star(self, t: float) -> float:
        return float(self.monotones([t])[0][0])

    def root(self, lo: float, hi: float, iters: int = 200) -> float:
        """Bisection root of lambda*(t) + threshold on a sign-changing bracket."""
        g = lambda t: self.lam_star(t) + THRESHOLD  # noqa: E731
        glo = g(lo)
        if glo * g(hi) > 0:
            raise ValueError(f"no sign change of lambda*+threshold on [{lo}, {hi}]")
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            gm = g(mid)
            if gm * glo > 0:
                lo, glo = mid, gm
            else:
                hi = mid
            if hi - lo < 1e-13:
                break
        return 0.5 * (lo + hi)


def series_state(h: np.ndarray, rho0: np.ndarray, dt: float, order: int = 3) -> np.ndarray:
    """Commutator truncation rho0 - i dt [H, rho0] - (dt²/2) [H, [H, rho0]] (first ``order`` terms)."""
    out = rho0.astype(complex)
    c1 = h @ rho0 - rho0 @ h
    if order >= 2:
        out = out - 1j * dt * c1
    if order >= 3:
        out = out - 0.5 * dt * dt * (h @ c1 - c1 @ h)
    return out


def series_monotones(h: np.ndarray, b0: np.ndarray, dt: float, order: int = 3):
    """(lambda*, negativity) of the truncated series at dt; the state need not be positive."""
    red = partial_trace(series_state(h, b0 @ b0.conj().T, dt, order), h.shape[0] // 4)
    w = pt_spectrum(red)
    return float(w[0]), float(-np.sum(w[w < 0.0]))


# ---------------------------------------------------------------------------
# transition detection on sampled negativity, with root-refined times


def transitions(evo: Evolution, times: np.ndarray, neg: np.ndarray, min_duration: float | None = None):
    """Dwell-qualified separable runs of a sampled trajectory.

    Returns ``(events, dwells)``: events as (kind, t_death, t_birth) with
    kind TFD (bounded on both sides), ESD (runs to the window end) or ESB
    (starts at the window start), and the dwell of every separable run
    that touches a crossing, qualified or not.  Crossing times are roots
    of lambda*(t) + threshold bracketed by the samples on either side, so
    they belong to the dynamics rather than to the grid.  A run qualifies
    when its dwell is at least ``min_duration`` (five spacings by default).
    """
    spacing = float(np.max(np.diff(times)))
    if min_duration is None:
        min_duration = 5.0 * spacing
    below = neg <= THRESHOLD
    events, dwells = [], []
    i, n = 0, len(times)
    while i < n:
        if not below[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and below[j + 1]:
            j += 1
        t_death = evo.root(times[i - 1], times[i]) if i > 0 else None
        t_birth = evo.root(times[j], times[j + 1]) if j < n - 1 else None
        if t_death is not None or t_birth is not None:
            dwell = (times[-1] if t_birth is None else t_birth) - (times[0] if t_death is None else t_death)
            dwells.append(dwell)
            if dwell >= min_duration:
                kind = "TFD" if t_death is not None and t_birth is not None else "ESD" if t_birth is None else "ESB"
                events.append((kind, t_death, t_birth))
        i = j + 1
    return events, dwells
