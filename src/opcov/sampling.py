"""Meshes on the unit cube, discretized covariance matrices, exact Gaussian draws.

The mesh is cell-centered so that the quadrature weight is exactly 1/L and
discrete sums approximate integrals over [0,1]^d with no boundary correction.
Sampling uses a dense symmetric factorization (exact, no circulant embedding
or truncation) with a fixed diagonal-jitter ladder; the jitter actually used
is recorded on the ensemble.  ``stationary_matvec`` applies a covariance
without its dense product, through the FFT of a circulant embedding; it is
used for operator norms, not for sampling.  ``covariance_matvec`` picks it
for an assembled covariance, which records its mesh, and the dense product
for any other matrix.  Randomness comes from the
counter-based Philox generator keyed through ``numpy.random.SeedSequence`` so
that per-trial substreams are independent of execution order and thread
count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.spatial.distance import cdist

from .kernels import KernelModel, eval_kernel

__all__ = [
    "Mesh",
    "CovMatrix",
    "CovFactor",
    "Ensemble",
    "SamplingError",
    "MAX_MESH_POINTS",
    "build_mesh",
    "covariance_matrix",
    "factorize",
    "stationary_matvec",
    "covariance_matvec",
    "sample_ensemble",
    "ensemble_sup_mean",
    "substream",
    "derive_seed",
]

# Dense L x L storage caps the mesh size; 12,500 points (~1.25 GB per matrix
# at float64) is the desk-scale limit for every supported dimension.
MAX_MESH_POINTS = 12_500

_JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8)


class SamplingError(RuntimeError):
    """Mesh construction or Gaussian sampling failure."""


def _seed_sequence(master_seed: int, key: tuple) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))


def derive_seed(master_seed: int, *key: int) -> int:
    """A 64-bit child seed for substream ``key`` of ``master_seed``.

    Stable across platforms and numpy versions (SeedSequence hashing is part
    of numpy's compatibility guarantee), so runs are reproducible and trial
    substreams never collide in practice.
    """
    return int(_seed_sequence(master_seed, key).generate_state(1, np.uint64)[0])


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for substream ``key`` of ``master_seed``."""
    return np.random.Generator(np.random.Philox(seed=_seed_sequence(master_seed, key)))


@dataclass(frozen=True)
class Mesh:
    """Uniform cell-centered grid on [0,1]^d.

    coords has shape (L, d) with L = m**d points ordered lexicographically by
    axis (first axis varies slowest); weight = 1/L is the volume per cell.
    """

    d: int
    m: int
    L: int
    coords: np.ndarray
    weight: float


@dataclass(frozen=True)
class CovMatrix:
    """Symmetric L x L covariance matrix sampled on a mesh.

    ``mesh_weight`` is carried along so operator norms can be formed as
    weight * (matrix spectral norm) without re-deriving the mesh.  ``mesh``
    is set only by :func:`covariance_matrix`: it marks the matrix as a
    stationary kernel sampled on that uniform mesh, i.e. multilevel Toeplitz,
    which :func:`covariance_matvec` applies through the FFT.
    """

    entries: np.ndarray
    mesh_weight: float
    mesh: Mesh | None = None

    @property
    def L(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class CovFactor:
    """Cached lower-triangular factor of a covariance matrix plus jitter used.

    Factor once per covariance, then draw any number of ensembles from it;
    this is the hot path for repeated-trial experiments.
    """

    cov: CovMatrix
    lower: np.ndarray
    jitter: float


@dataclass
class Ensemble:
    """N sampled field realizations on a mesh.

    fields has shape (N, L); sups[n] is the maximum of fields[n] over the
    mesh (the discretized supremum over the domain).  ``seed`` and ``jitter``
    record how the draw was produced.
    """

    mesh: Mesh
    N: int
    fields: np.ndarray
    sups: np.ndarray
    seed: int
    jitter: float


def build_mesh(d: int, m: int) -> Mesh:
    """Cell-centered uniform mesh of [0,1]^d with m points per axis."""
    if d not in (1, 2, 3):
        raise SamplingError(f"dimension d must be 1, 2 or 3, got {d}")
    if m < 2:
        raise SamplingError(f"points per axis m must be >= 2, got {m}")
    L = m**d
    if L > MAX_MESH_POINTS:
        raise SamplingError(
            f"mesh of {L} points exceeds the dense-storage limit {MAX_MESH_POINTS}"
        )
    axis = (np.arange(m) + 0.5) / m
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    coords = np.stack([g.ravel() for g in grids], axis=-1)
    return Mesh(d=d, m=m, L=L, coords=coords, weight=1.0 / L)


def covariance_matrix(kernel: KernelModel, mesh: Mesh) -> CovMatrix:
    """Discretize the covariance operator: entries[i, j] = k(|x_i - x_j|).

    Symmetric by construction with a unit diagonal.  Rejects meshes beyond
    the dense-storage limit before allocating.
    """
    if mesh.L > MAX_MESH_POINTS:
        raise SamplingError(
            f"covariance matrix of order {mesh.L} exceeds the dense-storage "
            f"limit {MAX_MESH_POINTS}; refusing to allocate {mesh.L}x{mesh.L}"
        )
    try:
        dist = cdist(mesh.coords, mesh.coords)
        entries = eval_kernel(kernel, dist)
    except MemoryError as exc:  # pragma: no cover - depends on host memory
        raise SamplingError(
            f"allocation of the {mesh.L}x{mesh.L} covariance matrix failed: {exc}"
        ) from exc
    entries = 0.5 * (entries + entries.T)
    np.fill_diagonal(entries, 1.0)
    return CovMatrix(entries=entries, mesh_weight=mesh.weight, mesh=mesh)


# Tile edge of the exact symmetry check: a tile and its mirror stay in cache.
_SYMMETRY_TILE = 256


def _exactly_symmetric(a: np.ndarray) -> bool:
    """a == a.T bit for bit, compared tile by tile; NaN never compares equal."""
    n = a.shape[0]
    for i in range(0, n, _SYMMETRY_TILE):
        for j in range(i, n, _SYMMETRY_TILE):
            tile = a[i : i + _SYMMETRY_TILE, j : j + _SYMMETRY_TILE]
            if not np.array_equal(tile, a[j : j + _SYMMETRY_TILE, i : i + _SYMMETRY_TILE].T):
                return False
    return True


def factorize(cov: CovMatrix) -> CovFactor:
    """Lower Cholesky factor of cov, escalating diagonal jitter on failure.

    The jitter ladder is fixed at {0, 1e-12, 1e-10, 1e-8}; the rung that
    succeeded is recorded for reproducibility.  Raises ``SamplingError`` if
    the matrix is still not factorizable at the top rung.
    """
    entries = cov.entries
    if not _exactly_symmetric(entries):
        raise SamplingError("covariance matrix must be exactly symmetric")
    for jitter in _JITTER_LADDER:
        shifted = entries
        if jitter != 0.0:
            shifted = entries.copy()
            shifted.flat[:: cov.L + 1] += jitter
        try:
            lower = np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            continue
        return CovFactor(cov=cov, lower=lower, jitter=jitter)
    raise SamplingError(
        f"Cholesky failed at maximum jitter {_JITTER_LADDER[-1]:g}; "
        "input matrix is severely indefinite"
    )


def stationary_matvec(cov: CovMatrix, mesh: Mesh) -> Callable[[np.ndarray], np.ndarray]:
    """v -> cov.entries @ v in O(L log L), for a stationary kernel on ``mesh``.

    A stationary isotropic kernel sampled on the uniform grid gives a
    d-level symmetric Toeplitz matrix, fixed by its first row.  Mirrored to
    c_0 .. c_{m-1}, 0, c_{m-1} .. c_1 along every axis (2m points, an
    FFT-friendly length), that row generates a d-level circulant whose
    leading (m,)*d block is the covariance; the d-dimensional FFT
    diagonalizes the circulant (Chan & Ng 1996).  Agrees with the dense
    product to rounding.
    """
    if mesh.L != cov.L:
        raise SamplingError("mesh size does not match covariance order")
    m, d = mesh.m, mesh.d
    shape, axes = (m,) * d, tuple(range(d))
    size = (2 * m,) * d
    embed = np.pad(cov.entries[0].reshape(shape), (0, 1))
    mirror = np.r_[0 : m + 1, m - 1 : 0 : -1]
    for axis in axes:
        embed = np.take(embed, mirror, axis=axis)
    eig = np.fft.rfftn(embed, axes=axes)
    block = (slice(0, m),) * d

    def matvec(v: np.ndarray) -> np.ndarray:
        spec = np.fft.rfftn(v.reshape(shape), s=size, axes=axes)
        return np.fft.irfftn(eig * spec, s=size, axes=axes)[block].ravel()

    return matvec


def covariance_matvec(cov: CovMatrix) -> Callable[[np.ndarray], np.ndarray]:
    """v -> cov.entries @ v: by FFT when ``cov`` records its mesh, densely otherwise.

    Only :func:`covariance_matrix` records a mesh, so a hand-built or
    estimated matrix, which need not be Toeplitz, always gets the dense
    product.
    """
    if cov.mesh is None:
        entries = cov.entries
        return lambda v: entries @ v
    return stationary_matvec(cov, cov.mesh)


def sample_ensemble(cov: CovMatrix | CovFactor, N: int, seed: int, mesh: Mesh) -> Ensemble:
    """Draw N i.i.d. fields ~ N(0, cov) on the mesh.

    Deterministic given (cov, N, seed): the same inputs give bit-identical
    ensembles on any machine and under any thread count.  Pass a
    :class:`CovFactor` to reuse a factorization across many draws.
    """
    if N < 1:
        raise SamplingError(f"sample count N must be >= 1, got {N}")
    factor = cov if isinstance(cov, CovFactor) else factorize(cov)
    if mesh.L != factor.cov.L:
        raise SamplingError("mesh size does not match covariance order")
    rng = substream(seed)
    z = rng.standard_normal((N, factor.cov.L))
    fields = z @ factor.lower.T
    sups = fields.max(axis=1)
    return Ensemble(mesh=mesh, N=N, fields=fields, sups=sups, seed=int(seed), jitter=factor.jitter)


def ensemble_sup_mean(ens: Ensemble) -> float:
    """Arithmetic mean over the ensemble of the per-field mesh maxima."""
    return float(ens.sups.mean())

