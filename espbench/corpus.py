"""Seeded corpus of trajectory CSVs for the ``detect`` workload.

Every well-formed file is computed by :mod:`reference`, so its events and
labels are known apart from the package.  The slot structure is fixed and
only parameters vary with the seed, so every seed gives the same number of
files and rows:

* 6 product curves from t = 0 (S cycles through 1/2, 1, 3/2), 2001 rows;
* 2 product curves whose window opens inside a separable run (ESB) and
  2 whose window closes inside one (ESD), 2001 rows;
* 6 classically mixed weightings (S = 1/2) at their tabulated switch sign, window
  [-1.5, 1.5], 1201 rows, labelled with the paper's p-label;
* 4 purified three/four-component weightings at their recipe sign,
  window [-1, 1], 1201 rows (p6 for W9 and W13, p4 otherwise), and
  2 purified two-component weightings, window [-0.3, 0.3], 601 rows (p3).

Three malformed files follow, the same for every seed: a bad header, a row
with four columns, and times that do not increase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

CSV_HEADER = "t,negativity,concurrence,cne,negative_count"
MIXED_J = (-0.5, -0.5, -1.0)
FIG2_COUPLINGS = ((1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 0.5, 1.0), (1.0, -0.5, 1.0))

# near-boundary trajectory labels of the paper, at the tabulated switch signs
MIXED_LABELS = {
    ("W1", 1): "p6", ("W2", 1): "p6", ("W3", 1): "p6", ("W4", 1): "p6", ("W5", 1): "p6",
    ("W6", 1): "p3", ("W6", -1): "p3",
    ("W7", 1): "p6", ("W8", 1): "p6", ("W9", 1): "p6", ("W10", -1): "p4",
    ("W11", 1): "p6", ("W12", 1): "p6", ("W13", 1): "p6", ("W14", -1): "p4",
}
PURE_RECIPE_SIGNS = {"W7": -1, "W8": -1, "W9": 1, "W10": -1, "W11": -1, "W12": -1, "W13": 1, "W14": -1}

# a file is redrawn when a separable run's dwell lies this many spacings or
# fewer from the minimum duration, where sampled and root-refined crossing
# times may legitimately disagree about qualification
DWELL_MARGIN_SPACINGS = 2.0
MAX_DRAWS = 50

MALFORMED = {
    "bad_header.csv": "t,negativity,concurrence,cne\n0.0,0.0,0.0,0.1\n0.1,0.0,0.0,0.1\n",
    "wrong_columns.csv": CSV_HEADER + "\n0.0,0.0,0.0,0.1,0\n0.1,0.0,0.0,0.1\n",
    "non_increasing.csv": CSV_HEADER + "\n0.0,0.0,0.0,0.1,0\n0.1,0.0,0.0,0.1,0\n0.1,0.0,0.0,0.1,0\n0.2,0.0,0.0,0.1,0\n",
}


@dataclass
class Case:
    name: str
    path: Path
    rows: int
    spacing: float = 0.0
    events: list = field(default_factory=list)  # (kind, t_death, t_birth)
    label: str | None = None
    malformed: bool = False


def write_csv(path: Path, times, lam, neg, conc, count) -> None:
    lines = [CSV_HEADER]
    for row in zip(times, neg, conc, lam, count):
        lines.append(",".join((repr(float(row[0])), repr(float(row[1])), repr(float(row[2])),
                               repr(float(row[3])), str(int(row[4])))))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _ambiguous(dwells, times) -> bool:
    spacing = float(np.max(np.diff(times)))
    return any(abs(d - 5.0 * spacing) <= DWELL_MARGIN_SPACINGS * spacing for d in dwells)


def _runs(evo: ref.Evolution, t_lo: float, t_hi: float, n: int):
    """Root-bracketed separable runs (t_death, t_birth) strictly inside [t_lo, t_hi]."""
    times = np.linspace(t_lo, t_hi, n + 1)
    events, _ = ref.transitions(evo, times, evo.monotones(times)[1])
    return [(d, b) for kind, d, b in events if kind == "TFD" and b - d > 0.2]


def _product_slot(rng, slot: int):
    """(evolution, t_min, t_max) of a product curve; slots 6-9 cut the window inside a run."""
    state = ("uuu", "uud", "udd")[slot % 3]
    two_s = 1 + slot % 3
    j = FIG2_COUPLINGS[int(rng.integers(len(FIG2_COUPLINGS)))]
    if slot >= 6:
        state, j, two_s = [("uuu", (1.0, 0.5, 1.0), 2), ("udd", (1.0, -0.5, 1.0), 2)][slot % 2]
    evo = ref.Evolution(ref.hamiltonian(j, two_s), ref.product_factor(state, two_s))
    if slot < 6:
        return evo, 0.0, float(rng.uniform(8.0, 10.0))
    death, birth = _runs(evo, 0.0, 10.0, 4000)[0]
    cut = death + float(rng.uniform(0.3, 0.7)) * (birth - death)
    if slot < 8:  # window opens inside the run: a birth with no death before it
        return evo, cut, cut + 5.0
    return evo, max(0.0, cut - 5.0), cut


def build(directory: Path, seed: int):
    """Write the corpus for ``seed`` into ``directory``; returns the cases in call order."""
    rng = np.random.default_rng(seed)
    directory.mkdir(parents=True, exist_ok=True)
    cases: list[Case] = []

    def emit(name, evo, t_min, t_max, n_steps, label):
        """Write one file unless its dwells are ambiguous; False asks for new parameters."""
        times = np.linspace(t_min, t_max, n_steps + 1)
        lam, neg, conc, count = evo.monotones(times)
        events, dwells = ref.transitions(evo, times, neg)
        if _ambiguous(dwells, times):
            return False
        path = directory / name
        write_csv(path, times, lam, neg, conc, count)
        cases.append(Case(name, path, len(times), float(np.max(np.diff(times))), events, label))
        return True

    for slot in range(10):
        for _ in range(MAX_DRAWS):
            if emit(f"product_{slot}.csv", *_product_slot(rng, slot), 2000, None):
                break
        else:
            raise RuntimeError(f"no unambiguous parameters for product slot {slot}")

    mixed_keys = sorted(MIXED_LABELS)
    for k in range(6):
        for _ in range(MAX_DRAWS):
            wid, sign = mixed_keys[int(rng.integers(len(mixed_keys)))]
            evo = ref.Evolution(ref.hamiltonian(MIXED_J, 1), ref.mixed_factor(wid, 0.01 * sign, 1))
            if emit(f"mixed_{k}_{wid}.csv", evo, -1.5, 1.5, 1200, MIXED_LABELS[(wid, sign)]):
                break
        else:
            raise RuntimeError(f"no unambiguous mixed weighting for slot {k}")

    penetrable = sorted(PURE_RECIPE_SIGNS)
    for k in range(6):
        for _ in range(MAX_DRAWS):
            if k < 4:
                wid = penetrable[int(rng.integers(len(penetrable)))]
                eps, t_max, n_steps = 0.01 * PURE_RECIPE_SIGNS[wid], 1.0, 1200
                label = "p6" if wid in ("W9", "W13") else "p4"
            else:
                wid = f"W{int(rng.integers(1, 7))}"
                eps, t_max, n_steps, label = 0.01 * float(rng.choice([-1.0, 1.0])), 0.3, 600, "p3"
            b0, two_s = ref.pure_factor(wid, eps)
            evo = ref.Evolution(ref.hamiltonian(MIXED_J, two_s), b0)
            if emit(f"pure_{k}_{wid}.csv", evo, -t_max, t_max, n_steps, label):
                break
        else:
            raise RuntimeError(f"no unambiguous purified weighting for slot {k}")

    for name, text in MALFORMED.items():
        path = directory / name
        path.write_text(text, encoding="utf-8")
        cases.append(Case(name, path, 0, malformed=True))
    return cases
