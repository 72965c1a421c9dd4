"""50-digit mpmath oracle for lambda*, negativity and concurrence.

Builds the Hamiltonian and initial state from the model's definitions in
mpmath arithmetic, evolves by the eigendecomposition of H, and evaluates
the monotones of the reduced pair state.  Concurrence comes from the
eigenvalues of rho (σy⊗σy) rho* (σy⊗σy), whose square roots are exact at
this precision even where rho_AB is rank deficient.

The samples sit where the package's double-precision path is most
exposed: next to the 1e-9 entanglement threshold, and at the generic
``uud``, S = 1, t = -0.995 point where the square-root concurrence loses
about nine digits.
"""

from __future__ import annotations

import mpmath as mp

from reference import WEIGHTING_SLOTS

DIGITS = 50

MIXED_J = (-0.5, -0.5, -1.0)

# (kind, id, epsilon or None, two_s, J, t)
SAMPLES = (
    ("product", "uud", None, 2, MIXED_J, -0.995),
    ("product", "uuu", None, 2, (1.0, 0.5, 1.0), 4.29),
    ("pure", "W9", 0.01, 2, MIXED_J, 0.955),
    ("pure", "W9", 0.01, 2, MIXED_J, 0.965),
    ("pure", "W13", 0.01, 3, MIXED_J, 0.06),
    ("mixed", "W9", 0.01, 2, MIXED_J, -0.11),
    ("mixed", "W6", -0.01, 2, MIXED_J, 0.25),
)



def _kron(a, b):
    out = mp.zeros(a.rows * b.rows, a.cols * b.cols)
    for i in range(a.rows):
        for j in range(a.cols):
            if a[i, j] == 0:
                continue
            for k in range(b.rows):
                for m in range(b.cols):
                    out[i * b.rows + k, j * b.cols + m] = a[i, j] * b[k, m]
    return out


def _spins(two_s):
    s = mp.mpf(two_s) / 2
    dim = two_s + 1
    up = mp.zeros(dim, dim)
    for i in range(1, dim):
        m = s - i
        up[i - 1, i] = mp.sqrt(s * (s + 1) - m * (m + 1))
    down = up.H
    sz = mp.diag([s - i for i in range(dim)])
    return (up + down) / 2, (up - down) / (2 * mp.mpc(0, 1)), sz


def _hamiltonian(j, two_s):
    i = mp.mpc(0, 1)
    paulis = (mp.matrix([[0, 1], [1, 0]]), mp.matrix([[0, -i], [i, 0]]), mp.matrix([[1, 0], [0, -1]]))
    eye = mp.eye(2)
    h = mp.zeros(4 * (two_s + 1), 4 * (two_s + 1))
    for ja, sa, pa in zip(j, _spins(two_s), paulis):
        h += mp.mpf(ja) * _kron(sa, _kron(pa, eye) + _kron(eye, pa))
    return h


def _bell(index):
    r = 1 / mp.sqrt(2)
    rows = ((r, 0, 0, r), (r, 0, 0, -r), (0, r, r, 0), (0, r, -r, 0))
    return mp.matrix(rows[index])


def _env(two_s, k):
    e = mp.zeros(two_s + 1, 1)
    e[k] = 1
    return e


def _initial(kind, ident, eps, two_s):
    """rho0 as an mpmath matrix."""
    if kind == "product":
        up, down = mp.matrix([1, 0]), mp.matrix([0, 1])
        qa, qb = {"uuu": (up, up), "uud": (up, down), "udd": (down, down)}[ident]
        psi = _kron(_env(two_s, 0), _kron(qa, qb))
        return psi * psi.H
    main, shares = WEIGHTING_SLOTS[ident]
    e = mp.mpf(eps)
    w = [mp.mpf(0)] * 4
    w[main] = (1 + e) / 2
    for slot in shares:
        w[slot] = (1 - e) / (2 * len(shares))
    if kind == "mixed":
        rho = mp.zeros(4 * (two_s + 1), 4 * (two_s + 1))
        for b in range(4):
            if w[b] != 0:
                psi = _kron(_env(two_s, 0), _bell(b))
                rho += w[b] * (psi * psi.H)
        return rho
    psi = mp.zeros(4 * (two_s + 1), 1)
    for k, b in enumerate(b for b in range(4) if w[b] != 0):
        psi += mp.sqrt(w[b]) * _kron(_env(two_s, k), _bell(b))
    return psi * psi.H


def monotones(kind, ident, eps, two_s, j, t):
    """(lambda*, negativity, concurrence) at 50 digits, returned as floats."""
    with mp.workdps(DIGITS):
        h = _hamiltonian(j, two_s)
        w, v = mp.eighe(h)
        tt = mp.mpf(t)
        phases = mp.diag([mp.exp(-mp.mpc(0, 1) * w[k] * tt) for k in range(h.rows)])
        u = v * phases * v.H
        rho = u * _initial(kind, ident, eps, two_s) * u.H
        red = mp.zeros(4, 4)
        for c in range(two_s + 1):
            for a in range(4):
                for b in range(4):
                    red[a, b] += rho[4 * c + a, 4 * c + b]
        pt = mp.zeros(4, 4)
        for ia in range(2):
            for ib in range(2):
                for ja in range(2):
                    for jb in range(2):
                        pt[2 * ia + ib, 2 * ja + jb] = red[2 * ia + jb, 2 * ja + ib]
        lam = sorted(mp.re(x) for x in mp.eighe(pt, eigvals_only=True))
        neg = -sum(x for x in lam if x < 0)
        i = mp.mpc(0, 1)
        sy = mp.matrix([[0, -i], [i, 0]])
        flip = _kron(sy, sy)
        r = red * flip * red.H.T * flip
        gammas = sorted((mp.sqrt(max(mp.re(x), 0)) for x in mp.eig(r, left=False, right=False)), reverse=True)
        conc = max(mp.mpf(0), gammas[0] - gammas[1] - gammas[2] - gammas[3])
        return float(lam[0]), float(neg), float(conc)
