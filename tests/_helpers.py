"""Shared test utilities: hand-built ensembles and meshes for edge cases, and
the dense spectral-norm oracle."""

import numpy as np

from opcov.sampling import CovMatrix, Ensemble, Mesh


def make_mesh(L: int, weight: float | None = None) -> Mesh:
    coords = ((np.arange(L) + 0.5) / L)[:, None]
    return Mesh(d=1, m=L, L=L, coords=coords, weight=1.0 / L if weight is None else weight)


def make_ensemble(fields, weight: float | None = None) -> Ensemble:
    fields = np.atleast_2d(np.asarray(fields, dtype=float))
    N, L = fields.shape
    mesh = make_mesh(L, weight)
    return Ensemble(mesh=mesh, N=N, fields=fields, sups=fields.max(axis=1))


def spectral_norm_dense(cov) -> float:
    """Largest |eigenvalue| of a CovMatrix or array by the dense eigensolver."""
    a = cov.entries if isinstance(cov, CovMatrix) else np.asarray(cov, dtype=float)
    return float(np.max(np.abs(np.linalg.eigvalsh(a))))
