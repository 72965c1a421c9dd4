"""Shared fixtures, independent numerical oracles and the helpers only tests call."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest

from espkit.densemat import as_complex_matrix, hermitian_eig
from espkit.dynamics import SpectralPropagator, sample_trajectory
from espkit.errors import DimensionError
from espkit.hilbert import ID2, PAULI_X, PAULI_Y, PAULI_Z, SystemDims, as_pair_matrix, spin_operators
from espkit.monotones import batch_columns, matrix_columns, negativity_and_count
from espkit.model import spin_star_hamiltonian
from espkit.states import EspWeighting, esp_weighting, pure_initial

SEED = 20240917


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(SEED)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_two_qubit_dm(rng: np.random.Generator) -> np.ndarray:
    """Random full-rank two-qubit density matrix (Ginibre construction)."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    return m / np.trace(m).real


def hermitian_eigvals(a) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix."""
    return hermitian_eig(a)[0]


def spectral_exp_skew(h, t: float) -> np.ndarray:
    """Evolution operator exp(-iHt) for Hermitian H, via the spectral theorem."""
    return SpectralPropagator(h).unitary(t)


def transpose_a(stack: np.ndarray) -> np.ndarray:
    """Batched partial transpose on qubit A: out[ab, a'b'] = in[a'b, ab']."""
    lead = stack.shape[:-2]
    return stack.reshape(*lead, 2, 2, 2, 2).swapaxes(-4, -2).reshape(*lead, 4, 4)


def partial_transpose_a(rho) -> np.ndarray:
    """Partial transpose on qubit A (spectrum-equivalent to the B side)."""
    return transpose_a(as_pair_matrix(rho))


def embed(op, slot: str, dims: SystemDims) -> np.ndarray:
    """Embed a single-subsystem operator into the full product space.

    ``slot`` is one of "C", "A", "B"; the other factors get identities.
    """
    op = as_complex_matrix(op)
    slot_dims = {"C": dims.dim_c, "A": 2, "B": 2}
    if slot not in slot_dims:
        raise ValueError(f"slot must be C, A or B, got {slot!r}")
    d = slot_dims[slot]
    if op.shape != (d, d):
        raise DimensionError(f"operator shape {op.shape} does not fit slot {slot} of dimension {d}")
    factors = {
        "C": np.eye(dims.dim_c, dtype=np.complex128),
        "A": ID2,
        "B": ID2,
    }
    factors[slot] = op
    return np.kron(np.kron(factors["C"], factors["A"]), factors["B"])


def embedded_spin_star_hamiltonian(j, s) -> np.ndarray:
    """sum_a J_a S_a^C (sigma_a^A + sigma_a^B) from nine embeds and three products: the
    reference that ``model.spin_star_hamiltonian`` must reproduce bit for bit."""
    dims = SystemDims.for_spin(s)
    h = np.zeros((dims.total, dims.total), dtype=np.complex128)
    for coupling, s_op, pauli in zip(j.as_array(), spin_operators(s), (PAULI_X, PAULI_Y, PAULI_Z)):
        if coupling == 0.0:
            continue
        sc = embed(s_op, "C", dims)
        h += coupling * sc @ (embed(pauli, "A", dims) + embed(pauli, "B", dims))
    return h


def custom_weighting(weights) -> EspWeighting:
    """A weighting outside the tabulated set (weights must sum to one), at switch 0."""
    return EspWeighting("custom", 0.0, tuple(float(x) for x in weights))


class MonotoneSample(NamedTuple):
    """The three quantifiers of one reduced density matrix."""

    cne: float
    negativity: float
    concurrence: float
    negative_count: int


def pure_trajectory(weighting_id: str, epsilon: float, j, spec):
    """The trajectory of a purified weighting at its matched environment spin."""
    w = esp_weighting(weighting_id, epsilon)
    s = w.matched_spin()
    return sample_trajectory(spin_star_hamiltonian(j, s), pure_initial(w, s), spec)


def monotone_sample(rho, factor=None) -> MonotoneSample:
    """Bundle cne, negativity and concurrence for one density matrix, through the batched entry points.

    Given ``factor`` (rho = factor factor†), all three come from it, as for a batch of the factor
    methods (:func:`batch_columns`); else lambda* comes from ``rho`` and the concurrence from the
    factor :func:`matrix_columns` makes of it, as for a series batch.
    """
    columns = matrix_columns(as_pair_matrix(rho)[None]) if factor is None else batch_columns(factor[None])
    lam, conc = columns[0][0], columns[1][0]
    neg, count = negativity_and_count(lam)
    return MonotoneSample(float(lam), float(neg), float(conc), int(count))


def charpoly_eigvals(h: np.ndarray) -> np.ndarray:
    """Eigenvalues via characteristic-polynomial roots (Faddeev-LeVerrier
    coefficients, companion-matrix root finding) - independent of any
    rotation-based eigensolver."""
    n = h.shape[0]
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    m = np.zeros_like(h)
    eye = np.eye(n, dtype=np.complex128)
    for k in range(1, n + 1):
        m = h @ m + coeffs[k - 1] * eye
        coeffs[k] = -np.trace(h @ m) / k
    return np.sort(np.roots(coeffs).real)


def expm_taylor(a: np.ndarray, terms: int = 64) -> np.ndarray:
    """Scaling-and-squaring Taylor series for exp(a)."""
    norm = np.linalg.norm(a)
    s = 0
    if norm > 0.5:
        s = int(np.ceil(np.log2(norm))) + 1
    b = a / (2.0**s)
    out = np.eye(a.shape[0], dtype=np.complex128)
    term = np.eye(a.shape[0], dtype=np.complex128)
    for k in range(1, terms + 1):
        term = term @ b / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def ptrace_first_loop(rho: np.ndarray, dim_c: int) -> np.ndarray:
    """Index-summation partial trace over the leading factor."""
    out = np.zeros((4, 4), dtype=np.complex128)
    for a in range(4):
        for b in range(4):
            for m in range(dim_c):
                out[a, b] += rho[m * 4 + a, m * 4 + b]
    return out


def rotation_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation about a unit axis."""
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def reference_read_trajectory_csv(path):
    """Per-line trajectory CSV reader: the reference for the numpy pass of ``cli.read_trajectory_csv``.

    The loop of ``split``, ``float`` and ``int`` calls that reader replaced,
    plus the negative-count range it checks since.  It takes two spellings
    the numpy pass rejects: ``_`` digit separators and non-ASCII digits.
    """
    from espkit.cli import CSV_HEADER, MAX_NEGATIVE_COUNT
    from espkit.dynamics import Trajectory
    from espkit.errors import ConfigError

    try:
        header, *lines = path.read_text(encoding="utf-8").split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if header.strip() != CSV_HEADER:
        raise ConfigError(f"{path}:1: expected header {CSV_HEADER!r}, got {header.strip()!r}")
    rows = []
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ConfigError(f"{path}:{lineno}: expected 5 columns, got {len(parts)}")
        try:
            rows.append((float(parts[0]), float(parts[1]), float(parts[2]), float(parts[3]), int(parts[4])))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        if not 0 <= rows[-1][4] <= MAX_NEGATIVE_COUNT:
            raise ConfigError(f"{path}:{lineno}: negative_count must be in 0..{MAX_NEGATIVE_COUNT}, got {rows[-1][4]}")
    arr = np.array(rows, dtype=np.float64).reshape(-1, 5)
    try:
        return Trajectory(arr[:, 0], arr[:, 3], arr[:, 1], arr[:, 2], arr[:, 4].astype(np.int64))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def trajectory_columns(traj) -> list[tuple[str, bytes]]:
    """The five CSV columns of a trajectory as dtype and raw bytes, for bit-for-bit comparison."""
    columns = (traj.times, traj.negativity, traj.concurrence, traj.cne, traj.negative_count)
    return [(c.dtype.str, np.ascontiguousarray(c).tobytes()) for c in columns]
