"""Independent reference values for the benchmark's correctness checks.

Nothing here calls the opcov library: the truth matrix, its norm, the scaling
quantities and the expected supremum are rebuilt from their definitions with
numpy/scipy, so a defect in a library layer cannot hide in its own oracle.
Seed-independent values are computed once by ``python3 perfbench/oracle.py``
and committed as ``reference.json``; the per-pass checks in ``workloads.py``
compare against them and recompute the seed-dependent values (sample and
thresholded errors) from the pass's own ensemble.

Run ``python3 perfbench/oracle.py`` after changing a workload's sizes or
lengthscales; it takes about a minute on one core.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

# scipy.integrate, scipy.optimize and scipy.sparse.linalg are imported where
# they are used: the library does not import the last two, and a pass's
# wall time, which includes its imports, must not pay for the oracle's.

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Dense eigvalsh is the oracle up to this order; above it (the d=2 cells,
# where eigvalsh costs ~7 s per matrix) ARPACK's eigsh on the same dense
# matrix, an algorithm unrelated to the library's Lanczos, takes its place.
DENSE_MAX_ORDER = 2048

# Draws behind each committed expected-supremum reference.
ESUP_DRAWS = 20_000


def mesh_coords(d: int, m: int) -> np.ndarray:
    """Cell-centred points of [0,1]^d, first axis slowest."""
    axis = (np.arange(m) + 0.5) / m
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def kernel_profile(family: str, lam: float, r):
    """k(r) for the two benchmark kernels: SE and Matern nu = 3/2."""
    r = np.asarray(r, dtype=float)
    if family == "se":
        return np.exp(-0.5 * (r / lam) ** 2)
    z = math.sqrt(3.0) * r / lam
    return (1.0 + z) * np.exp(-z)


def truth_matrix(family: str, lam: float, d: int, m: int) -> np.ndarray:
    entries = kernel_profile(family, lam, cdist(*[mesh_coords(d, m)] * 2))
    np.fill_diagonal(entries, 1.0)
    return entries


def sym_norm(a: np.ndarray) -> float:
    """Largest |eigenvalue| of a symmetric matrix."""
    if a.shape[0] <= DENSE_MAX_ORDER:
        return float(np.max(np.abs(np.linalg.eigvalsh(a))))
    from scipy.sparse.linalg import eigsh

    v0 = np.ones(a.shape[0]) / math.sqrt(a.shape[0])
    return float(abs(eigsh(a, k=1, which="LM", tol=1e-13, v0=v0, return_eigenvectors=False)[0]))


def _radial(family: str, q: float) -> float:
    """integral_0^inf k_1(r)^q dr (d = 1)."""
    from scipy.integrate import quad

    return quad(lambda r: float(kernel_profile(family, 1.0, r)) ** q, 0.0, np.inf,
                epsabs=0.0, epsrel=1e-12, limit=400)[0]


def _half_width(family: str) -> float:
    from scipy.optimize import brentq

    if family == "se":
        return math.sqrt(2.0 * math.log(2.0))
    return brentq(lambda s: float(kernel_profile(family, 1.0, s)) - 0.5, 0.0, 10.0, xtol=1e-15)


def cell_key(family: str, lam: float, d: int, m: int) -> str:
    return f"{family}:{lam!r}:{d}:{m}"


def fig_reference(family: str, lam: float, d: int, m: int) -> dict:
    return {"norm": sym_norm(truth_matrix(family, lam, d, m))}


def theory_reference(family: str, lam: float, m: int, q: float, seed: int = 12345) -> dict:
    """Seed-independent ScalingReport fields at d = 1, plus an esup estimate.

    The supremum reference draws ESUP_DRAWS fields through an eigenvector
    factor of the oracle matrix, so it shares no code with the library's
    Cholesky sampler.
    """
    entries = truth_matrix(family, lam, 1, m)
    weight = 1.0 / m
    vals, vecs = np.linalg.eigh(entries)
    norm = float(np.max(np.abs(vals)))
    root = vecs * np.sqrt(np.maximum(vals, 0.0))
    rng = np.random.default_rng(seed)
    sups = np.concatenate([
        (rng.standard_normal((2_000, m)) @ root.T).max(axis=1)
        for _ in range(ESUP_DRAWS // 2_000)
    ])
    return {
        "norm": norm,
        "Rq_q": weight * float(np.max(np.sum(np.abs(entries) ** q, axis=1))),
        "Rq_q_asymptotic": 2.0 * lam * _radial(family, q),
        "op_norm_asymptotic": 2.0 * lam * _radial(family, 1.0),
        "esup_prediction": math.sqrt(math.log(1.0 / (_half_width(family) * lam))),
        "esup_mean": float(sups.mean()),
        "esup_sd": float(sups.std(ddof=1)),
        "esup_draws": int(sups.size),
    }


def build_reference(specs: dict) -> dict:
    """Reference values for every cell the given workload specs run."""
    ref: dict = {}
    for spec in specs.values():
        for family, lam in spec.cells():
            key = cell_key(family, lam, spec.d, spec.m)
            if key in ref and (spec.kind != "theory" or "Rq_q" in ref[key]):
                continue
            if spec.kind == "theory":
                ref[key] = theory_reference(family, lam, spec.m, spec.q)
            else:
                ref[key] = fig_reference(family, lam, spec.d, spec.m)
    return ref


def main() -> int:
    from _source import add_checkout_source

    add_checkout_source()
    from workloads import WORKLOADS

    ref = build_reference(WORKLOADS)
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(ref)} reference cells to {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
