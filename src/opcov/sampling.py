"""Meshes on the unit cube, stationary covariances held as their first row, exact Gaussian draws.

The mesh is cell-centered so that the quadrature weight is exactly 1/L and
discrete sums approximate integrals over [0,1]^d with no boundary correction.

A stationary isotropic kernel sampled on the uniform mesh is a d-level
symmetric Toeplitz matrix, fixed by its first row, so :func:`covariance_matrix`
records the mesh, the kernel and that row and no L x L array.  Columns are
gathered from the row on request (``CovMatrix.columns``, exactly symmetric
and Toeplitz) and never kept; ``covariance_matvec`` applies the covariance
through the FFT of a circulant embedding of the row.  A :class:`CovMatrix` is
only such a truth.  The explicit matrices are plain ``numpy.ndarray``s: the
sample covariance of :func:`opcov.estimation.sample_covariance` and the
EnKF's hard-thresholded leave-one-out columns.  A figure's thresholded
estimate is neither: it is the operator that
``opcov.estimation._thresholded_block`` returns.

Draws are exact in distribution up to a recorded ``jitter``, a bound (up to
rounding) on the spectral norm of the difference between the drawn
covariance and the matrix.  :func:`factorize` picks one of four samplers
from the covariance alone and returns a :class:`CovFactor` that names it
(``sampler``) and holds its root (``root``):

* ``kronecker``: an SE truth at d >= 2 is the d-fold Kronecker power of its
  one-axis m x m Toeplitz factor C1, so draws apply a root of C1 along every
  axis; the jitter bounds the clipping of C1's negative eigenvalues.
* ``circulant``: a circulant embedding of the first row with 2 ceil(p m)
  points per axis, for the first padding p in {1, 1.5, 2} whose eigenvalues
  are nonnegative up to rounding (lambda_min >= -64 eps lambda_max), draws
  through its FFT, two fields per complex transform (Dietrich & Newsam 1997;
  Wood & Chan 1994); the jitter is the clipped |lambda_min|.
* ``block-circulant``: otherwise the first axis alone is embedded, with
  2M = 2 ceil(p m) blocks for p in {3, 4, 6, 8, 12} while 2M <= m^2, and the
  other d - 1 axes are kept exact.  The FFT along the first axis leaves 2M
  real symmetric blocks of order m^(d-1), M + 1 of them distinct; draws
  apply a root of each and transform back, two fields per complex transform,
  and the jitter is the clipped |lambda_min| of all blocks.  At d = 1 the
  blocks are 1 x 1 and this is the circulant sampler at a larger padding, so
  such a truth is drawn and named ``circulant``.
* ``cholesky``: otherwise the matrix is gathered from the row and gets a
  dense Cholesky factor with a fixed diagonal-jitter ladder, and the jitter is
  the diagonal shift used.

Every sampler yields its fields in consecutive blocks (:func:`field_blocks`),
which :func:`sample_ensemble` stacks.  Randomness comes from the
counter-based Philox generator keyed through ``numpy.random.SeedSequence`` so
that per-trial substreams are independent of execution order and thread
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

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
    "covariance_matvec",
    "sample_ensemble",
    "field_blocks",
    "substream",
    "derive_seed",
]

# A covariance is held as its first row, and the Kronecker and embedding
# samplers hold at most an m x m root, a spectrum of (2 ceil(p m))^d numbers
# (p <= 2 at d >= 2; at d = 1 the first-axis rungs reach p = 12) or
# M + 1 <= m^2/2 + 1 blocks of order m^(d-1), about L^2 / 2 numbers.  But a
# Cholesky-path truth (a non-SE kernel at large lengthscales whose embeddings
# stay negative up to the size rule) still factors the L x L matrix; 12,500
# points (~1.25 GB per matrix at float64) is the desk-scale limit for every
# supported dimension.  The figure trials store only the sparse part of a
# thresholded block, at most L(L+1)/4 entries of 12 bytes.  The commands
# hold an N x L ensemble to the same MAX_MESH_POINTS**2 values.
MAX_MESH_POINTS = 12_500

_JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8)

# A circulant embedding draws by FFT when lambda_min >= -_CIRCULANT_TOL *
# lambda_max: rounding-level negatives are at most 1.6e-16 relative on the
# reference grids, real ones at least 2e-5.
_CIRCULANT_TOL = 64 * np.finfo(float).eps
# Paddings p tried in order, 2 ceil(p m) points per axis (Wood & Chan 1994).
# p = 1 is the minimal embedding.  The full embedding stops at 2: at p = 3 a
# d = 2 field takes 18 complex normals per mesh point, and the Matern cell at
# m = 64, lambda = 0.3 then drew 13 fields in 107-125 ms, against 28-37 ms
# through its Cholesky factor.
_PADDINGS = (1.0, 1.5, 2.0)
# Then the first-axis embedding, 2M = 2 ceil(p m) blocks, tried only while
# 2M <= m^2, so its M + 1 distinct roots hold at most about L^2 / 2 numbers.
# The same Matern cell passes at p = 3, where the full embedding is still
# negative, and draws 13 fields in 17-19 ms (2p complex normals per mesh
# point), against 30 ms by Cholesky (2-core x86 host, one BLAS thread).
# 2M <= m^2 is a draw-cost rule too: a field costs 2M B^2 multiply-adds
# (B = m^(d-1)), a Cholesky one L^2 = m^2 B^2.  Lifted, it made d = 3 Matern
# draws 4-6 times slower (20 fields: nu = 3/2, lambda = 0.8, m = 10 from 1.4-1.9
# to 8-9 ms; nu = 5/2, lambda = 0.794, m = 15 from 15-19 to 64-74 ms).
_FIRST_AXIS_PADDINGS = (3.0, 4.0, 6.0, 8.0, 12.0)
# Complex entries per block of FFT draws, field entries per block of Kronecker
# draws (and block entries per slice of the first-axis eigh), so temporaries
# stay small next to the output.
_DRAW_CHUNK = 1 << 16


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
    """Uniform cell-centered grid on [0,1]^d with m points per axis.

    The L = m**d points, at (i + 0.5) / m on each axis, are ordered
    lexicographically by axis (first axis varies slowest); weight = 1/L is
    the volume per cell.
    """

    d: int
    m: int

    @property
    def L(self) -> int:
        return self.m**self.d

    @property
    def weight(self) -> float:
        return 1.0 / self.L


def _toeplitz_gather(row: np.ndarray, mesh: Mesh, cols=None) -> np.ndarray:
    """Entries C[i, j] = row[|i - j|] (per axis) of a d-level Toeplitz matrix.

    Every row and the columns ``cols``.  Every column (``cols`` None) is
    gathered as an (m,)*2d array whose axis a pairs with axis d + a, by m x m
    index arrays that broadcast, never L x L.
    """
    m, d = mesh.m, mesh.d
    first = row.reshape((m,) * d)
    if cols is None:
        ax = np.arange(m)
        gap = np.abs(ax[:, None] - ax[None, :])
        return first[tuple(gap.reshape((1,) * a + (m,) + (1,) * (d - 1) + (m,) + (1,) * (d - 1 - a))
                           for a in range(d))].reshape(mesh.L, mesh.L)
    rows = np.unravel_index(np.arange(mesh.L), first.shape)
    picked = np.unravel_index(np.asarray(cols), first.shape)
    return first[tuple(np.abs(i[:, None] - j[None, :]) for i, j in zip(rows, picked))]


# eq and repr off: the fields are arrays, compared elementwise and printed whole
@dataclass(frozen=True, repr=False, eq=False)
class CovMatrix:
    """The stationary ``kernel`` sampled on a uniform ``mesh``, held as its first row.

    The L x L matrix is multilevel Toeplitz with first row ``row`` and is
    never stored: :func:`covariance_matvec` applies it through the FFT and
    ``columns`` gathers a block of it.  Built by :func:`covariance_matrix`.
    ``entries`` stays None and no library code reads it; perfbench's traced
    pass replaces it with a counting view.
    """

    mesh: Mesh
    kernel: KernelModel
    row: np.ndarray
    entries: np.ndarray | None = None

    @property
    def L(self) -> int:
        return self.mesh.L

    def columns(self, cols) -> np.ndarray:
        """The L x k block of columns ``cols``, gathered from the row."""
        return _toeplitz_gather(self.row, self.mesh, cols)


@dataclass(frozen=True)
class CovFactor:
    """How to draw from a covariance, computed once and reused for every draw.

    ``sampler`` names the sampler :func:`factorize` chose; ``root`` is its root:

    * ``kronecker``: an m x m root A of the one-axis factor C1 of an SE
      truth, A A^T = C1 with negative eigenvalues clipped;
    * ``circulant``: sqrt(max(eig, 0) / n) for the n = (2M)^d eigenvalues of
      the circulant embedding with M = ceil(p m) points of offset per axis;
    * ``block-circulant``: the M + 1 distinct roots R_j = V_j sqrt(max(w_j,
      0) / 2M), each B x B with B = m^(d-1), of the blocks eigh(Lambda_j) =
      V_j diag(w_j) V_j^T, j <= M, of the first-axis embedding with 2M
      blocks; block j > M draws through R_(2M - j);
    * ``cholesky``: the lower Cholesky factor of the matrix plus ``jitter``
      on the diagonal.

    ``jitter`` bounds, up to rounding, the spectral norm of the difference
    between the drawn covariance and the matrix.
    """

    cov: CovMatrix
    jitter: float
    sampler: str
    root: np.ndarray


@dataclass
class Ensemble:
    """N sampled field realizations on a mesh.

    fields has shape (N, L).  N and sups (sups[n] is the maximum of fields[n]
    over the mesh, the discretized supremum) are computed from it once.
    """

    mesh: Mesh
    fields: np.ndarray
    N: int = field(init=False)
    sups: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.N = len(self.fields)
        self.sups = self.fields.max(axis=1)


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
    return Mesh(d=d, m=m)


def covariance_matrix(kernel: KernelModel, mesh: Mesh) -> CovMatrix:
    """Discretize the covariance operator: C[i, j] = k(|x_i - x_j|).

    Records the first row, k of the distances from point 0, with a unit
    diagonal entry; every other entry is that row at |i - j| per axis.
    """
    axis = (np.arange(mesh.m) + 0.5) / mesh.m
    grids = np.meshgrid(*([axis - axis[0]] * mesh.d), indexing="ij")
    row = eval_kernel(kernel, np.sqrt(sum(g * g for g in grids)).ravel())
    row[0] = 1.0
    return CovMatrix(mesh=mesh, kernel=kernel, row=row)


def _even(M: int) -> np.ndarray:
    """Offsets min(k, 2M - k) for k < 2M: indices 0..M extended to the 2M-periodic even sequence."""
    return np.r_[0 : M + 1, M - 1 : 0 : -1]


def _mirror(block: np.ndarray, M: int) -> np.ndarray:
    """Extend offsets 0..M on every axis to the 2M-periodic even sequence."""
    mirror = _even(M)
    for axis in range(block.ndim):
        block = np.take(block, mirror, axis=axis)
    return block


def _offset_table(cov: CovMatrix, sizes: tuple) -> np.ndarray:
    """The kernel at offsets (k_0, ..., k_{d-1}) h, k_a < sizes[a] (h = 1/m).

    The covariance's own row where every offset is below m.
    """
    m, d = cov.mesh.m, cov.mesh.d
    grids = np.meshgrid(*(np.arange(n) / m for n in sizes), indexing="ij")
    table = eval_kernel(cov.kernel, np.sqrt(sum(g * g for g in grids)))
    table[(slice(0, m),) * d] = cov.row.reshape((m,) * d)
    return table


def _embedding_eigenvalues(cov: CovMatrix, M: int) -> np.ndarray:
    """Eigenvalues of the circulant embedding with 2M points per axis, on the (2M,)*d grid.

    The embedding's first row is the kernel at offsets min(k, 2M - k) h per
    axis.  M = m is the minimal embedding.
    """
    return np.fft.fftn(_mirror(_offset_table(cov, (M + 1,) * cov.mesh.d), M)).real


def _first_axis_eigh(cov: CovMatrix, M: int) -> tuple[np.ndarray, np.ndarray]:
    """eigh of the M + 1 distinct diagonal blocks of the first-axis embedding with 2M blocks.

    Along its first axis the truth is block Toeplitz, with (d-1)-level
    Toeplitz blocks T_k of order B = m^(d-1) at first-axis offset k h.  The
    sequence T_min(k, 2M - k), k < 2M, generates a block circulant whose
    leading m x m array of blocks is the truth.  It is the principal
    submatrix of the full embedding at the same M that keeps the first m
    points of every other axis, so it is nonnegative wherever that one is.
    The FFT along the first axis block-diagonalizes it into Lambda_j = sum_k
    T_min(k, 2M - k) exp(-2 pi i j k / 2M), real symmetric and even in j, so
    j = 0..M are all the distinct blocks.  The transform commutes with the
    Toeplitz gather, so each Lambda_j is gathered from the real FFT of the
    (2M, m^(d-1)) offset table by the index that :func:`_toeplitz_gather`
    makes of the row 0..B-1 on a (d-1)-axis mesh; eigh then overwrites it.
    """
    m, d, B = cov.mesh.m, cov.mesh.d, cov.L // cov.mesh.m  # B = m^(d-1)
    rows = _offset_table(cov, (M + 1,) + (m,) * (d - 1)).reshape(M + 1, B)
    gap = _toeplitz_gather(np.arange(B), Mesh(d - 1, m))
    blocks = np.take(np.fft.rfft(rows[_even(M)], axis=0).real, gap, axis=1)
    w, step = np.empty((M + 1, B)), max(1, _DRAW_CHUNK // (B * B))
    for j in range(0, M + 1, step):
        w[j : j + step], blocks[j : j + step] = np.linalg.eigh(blocks[j : j + step])
    return w, blocks


def _kronecker_root(cov: CovMatrix) -> tuple[np.ndarray, float]:
    """Root A of the one-axis factor C1 of an SE truth, and the jitter of its clip.

    The SE kernel factors over the axes, exp(-|x|^2 / 2 lam^2) = prod_a
    exp(-x_a^2 / 2 lam^2), so the truth is C1 (x) ... (x) C1 (d factors) with
    C1 the m x m Toeplitz matrix of the row's last-axis slice (the first m
    entries), gathered by :func:`_toeplitz_gather` as a one-axis truth.  With
    eigh(C1) = V diag(w) V^T, A = V sqrt(max(w, 0)) gives A A^T = C1 + E,
    where E = V diag(max(-w, 0)) V^T has norm delta = max(0, -w_min).  The
    drawn covariance is (C1 + E)^(x)d; expanding it, the difference from
    C1^(x)d is a sum of Kronecker products holding E in k >= 1 of the d
    slots, and ||X (x) Y|| = ||X|| ||Y||, so its spectral norm is at most
    sum_k binom(d, k) delta^k ||C1||^(d-k) = (||C1|| + delta)^d - ||C1||^d,
    the recorded jitter (0 when C1 is nonnegative).  The truth's row and
    C1^(x)d agree to rounding, so the bound holds up to rounding.
    """
    m, d = cov.mesh.m, cov.mesh.d
    w, v = np.linalg.eigh(_toeplitz_gather(cov.row[:m], Mesh(1, m)))
    norm = float(np.max(np.abs(w)))
    delta = max(0.0, -float(w[0]))
    return v * np.sqrt(np.maximum(w, 0.0)), (norm + delta) ** d - norm**d


def _cholesky_ladder(cov: CovMatrix) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of cov plus the smallest jitter rung that factors.

    The matrix is gathered from the row here, so a jitter rung sets its
    diagonal in place.
    """
    try:
        a = _toeplitz_gather(cov.row, cov.mesh)
    except MemoryError as exc:  # pragma: no cover - depends on host memory
        raise SamplingError(
            f"allocation of the {cov.L}x{cov.L} covariance matrix failed: {exc}"
        ) from exc
    diag = a.diagonal().copy()
    for jitter in _JITTER_LADDER:
        if jitter != 0.0:
            a.flat[:: cov.L + 1] = diag + jitter
        try:
            return np.linalg.cholesky(a), jitter
        except np.linalg.LinAlgError:
            continue
    raise SamplingError(
        f"Cholesky failed at maximum jitter {_JITTER_LADDER[-1]:g}; "
        "input matrix is severely indefinite"
    )


def _embedding_factor(cov: CovMatrix, M: int, first_axis: bool) -> CovFactor | None:
    """The FFT or block-circulant factor of an embedding with 2M points of the first axis.

    None when its eigenvalues are negative beyond rounding, lambda_min <
    -64 eps lambda_max.  A rejected rung's arrays die with the call, before
    the next rung or the L x L arrays are allocated: held, a rung pinned
    heap space that the gathered matrix then could not reuse (a d = 1
    Cholesky cell's peak RSS rose by one L x L array), and the previous
    first-axis rung added its blocks to the next one's.
    """
    if first_axis and cov.mesh.d > 1:
        eig, vecs = _first_axis_eigh(cov, M)
    else:
        eig, vecs = _embedding_eigenvalues(cov, M), None
    low, high = float(eig.min()), float(eig.max())
    if low < -_CIRCULANT_TOL * high:
        return None
    jitter = max(0.0, -low)
    if vecs is None:
        return CovFactor(cov, jitter, "circulant", np.sqrt(np.maximum(eig, 0.0) / eig.size))
    vecs *= np.sqrt(np.maximum(eig, 0.0) / (2 * M))[:, None, :]
    return CovFactor(cov, jitter, "block-circulant", vecs)


def factorize(cov: CovMatrix) -> CovFactor:
    """Prepare draws from cov by the Kronecker, circulant, block-circulant or Cholesky sampler.

    An SE truth at d >= 2 takes the Kronecker sampler: the root of its
    one-axis factor, with the clip bound (||C1|| + delta)^d - ||C1||^d as
    ``jitter`` (see :func:`_kronecker_root`).  Every other truth tries
    circulant embeddings with 2 ceil(p m) points per axis for p = 1, 1.5, 2
    and takes the FFT sampler at the first whose eigenvalues satisfy
    lambda_min >= -64 eps lambda_max.  Next it tries first-axis embeddings
    (see :func:`_first_axis_eigh`) with 2M = 2 ceil(p m) blocks for p = 3, 4,
    6, 8, 12 while 2M <= m^2, by the same rule on the eigenvalues of all
    blocks; at d = 1 the blocks are 1 x 1 and this is the full embedding, so
    the FFT sampler draws it.  On both embedding paths negatives are clipped
    and |lambda_min| is recorded as ``jitter``: the drawn covariance is the
    truth plus a principal submatrix of the clip, whose norm is at most
    |lambda_min|.  Otherwise the matrix, gathered from the row, is
    Cholesky-factored with a fixed diagonal-jitter ladder {0, 1e-12, 1e-10,
    1e-8}; the rung that succeeded is recorded.  The factor names the path
    taken as ``sampler`` and holds its ``root``.  Raises ``SamplingError``
    when the matrix is still not factorizable at the top rung.
    """
    m = cov.mesh.m
    if cov.kernel.family == "se" and cov.mesh.d >= 2:
        root, jitter = _kronecker_root(cov)
        return CovFactor(cov, jitter, "kronecker", root)
    for p in _PADDINGS + _FIRST_AXIS_PADDINGS:
        M = math.ceil(p * m)
        first_axis = p in _FIRST_AXIS_PADDINGS
        if first_axis and 2 * M > m * m:
            break
        factor = _embedding_factor(cov, M, first_axis)
        if factor is not None:
            return factor
    lower, jitter = _cholesky_ladder(cov)
    return CovFactor(cov, jitter, "cholesky", lower)


def covariance_matvec(cov: CovMatrix) -> Callable[[np.ndarray], np.ndarray]:
    """v -> C v for the L x L matrix C of cov, in O(L log L) and without forming C.

    A stationary isotropic kernel sampled on the uniform grid gives a
    d-level symmetric Toeplitz matrix, fixed by its first row ``cov.row``.
    Mirrored to c_0 .. c_{m-1}, 0, c_{m-1} .. c_1 along every axis (2m
    points, an FFT-friendly length), that row generates a d-level circulant
    whose leading (m,)*d block is the covariance; the d-dimensional FFT
    diagonalizes the circulant (Chan & Ng 1996).  Agrees with the dense
    product to rounding.
    """
    m, d = cov.mesh.m, cov.mesh.d
    shape, axes = (m,) * d, tuple(range(d))
    size = (2 * m,) * d
    eig = np.fft.rfftn(_mirror(np.pad(cov.row.reshape(shape), (0, 1)), m), axes=axes)
    block = (slice(0, m),) * d

    def matvec(v: np.ndarray) -> np.ndarray:
        spec = np.fft.rfftn(v.reshape(shape), s=size, axes=axes)
        return np.fft.irfftn(eig * spec, s=size, axes=axes)[block].ravel()

    return matvec


def _interleave(y: np.ndarray, n: int) -> np.ndarray:
    """The first n of the fields y[0].real, y[0].imag, y[1].real, ... as an (n, L) block."""
    fields = np.empty((n, y.shape[1]))
    fields[0::2] = y.real
    fields[1::2] = y.imag[: n // 2]
    return fields


def _circulant_fields(factor: CovFactor, N: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """N fields from the circulant embedding, two per complex FFT, in blocks.

    Pair k takes the next ``spectrum.size`` complex standard normals z from
    ``rng``; the real and imaginary parts of FFT(spectrum * z), cut to the
    mesh block, are fields 2k and 2k + 1, independent with the embedded
    covariance.  Pairs are drawn in blocks of fixed size, in order, so the
    first N fields of a larger draw are the N-field draw.
    """
    mesh, spectrum = factor.cov.mesh, factor.root
    m, d, L = mesh.m, mesh.d, mesh.L
    axes = tuple(range(1, d + 1))
    block = (slice(None),) + (slice(0, m),) * d
    per_chunk = max(1, _DRAW_CHUNK // spectrum.size)
    pairs = (N + 1) // 2
    for first in range(0, pairs, per_chunk):
        p = min(per_chunk, pairs - first)
        z = rng.standard_normal((p,) + spectrum.shape + (2,)).view(complex)[..., 0]
        z *= spectrum
        y = np.fft.fftn(z, axes=axes)[block].reshape(p, L)
        yield _interleave(y, min(2 * p, N - 2 * first))


def _block_circulant_fields(factor: CovFactor, N: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """N fields from the first-axis embedding, two per complex FFT along the first axis, in blocks.

    Pair k takes the next 2M x B complex standard normals z_j from ``rng``;
    the real and imaginary parts of FFT_axis0(R_min(j, 2M - j) z_j), cut to
    the first m blocks, are fields 2k and 2k + 1, independent with the
    embedded covariance.  The roots are real, so they apply to the real and
    imaginary parts side by side as real batched matmuls over j <= M and the
    mirrored j > M (a complex one would cast R to complex on every block).
    Pairs are drawn in blocks of fixed size, in order, so the first N fields
    of a larger draw are the N-field draw.
    """
    m, L, roots = factor.cov.mesh.m, factor.cov.L, factor.root
    M, B = roots.shape[0] - 1, roots.shape[1]
    per_chunk = max(1, _DRAW_CHUNK // (2 * M * B))
    pairs = (N + 1) // 2
    # Every product has 2 per_chunk columns, the last block's zero-padded:
    # BLAS rounds a column differently by the number of columns beside it.
    x = np.zeros((2 * M, B, per_chunk, 2))
    xs, y = x.reshape(2 * M, B, 2 * per_chunk), np.empty((2 * M, B, 2 * per_chunk))
    for first in range(0, pairs, per_chunk):
        p = min(per_chunk, pairs - first)
        x[:, :, :p] = rng.standard_normal((p, 2 * M, B, 2)).transpose(1, 2, 0, 3)
        x[:, :, p:] = 0.0
        np.matmul(roots, xs[: M + 1], out=y[: M + 1])
        np.matmul(roots[M - 1 : 0 : -1], xs[M + 1 :], out=y[M + 1 :])
        z = np.fft.fft(y.view(complex)[..., :p], axis=0)[:m].transpose(2, 0, 1).reshape(p, L)
        yield _interleave(z, min(2 * p, N - 2 * first))


def _kronecker_fields(factor: CovFactor, N: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """N fields A (x) ... (x) A z from N x L standard normals z, in blocks.

    Each field's (m,)*d array takes A along its leading axis, which then
    rotates to the back; after d turns every axis has had A once and the
    order is restored.  Each product is per field and the normals are drawn
    in order, so the first N fields of a larger draw are the N-field draw.
    """
    m, L = factor.cov.mesh.m, factor.cov.L
    per_block = max(1, _DRAW_CHUNK // L)
    for first in range(0, N, per_block):
        n = min(per_block, N - first)
        x = rng.standard_normal((n, m, L // m))
        for _ in range(factor.cov.mesh.d):
            x = np.matmul(factor.root, x).transpose(0, 2, 1).reshape(n, m, L // m)
        yield x.reshape(n, L)


def _cholesky_fields(factor: CovFactor, N: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """N fields z @ root.T in one block: a GEMM rounds a row by the rows beside it."""
    yield rng.standard_normal((N, factor.cov.L)) @ factor.root.T


_SAMPLERS = {"kronecker": _kronecker_fields, "circulant": _circulant_fields,
             "block-circulant": _block_circulant_fields, "cholesky": _cholesky_fields}


def field_blocks(factor: CovFactor, N: int, seed: int, mesh: Mesh) -> Iterator[np.ndarray]:
    """:func:`sample_ensemble`'s N fields as consecutive (n, L) blocks, checked on the call.

    A caller that needs one statistic per field never holds the N x L array.
    Cholesky draws one block; the others about ``_DRAW_CHUNK`` numbers each.
    """
    if N < 1:
        raise SamplingError(f"sample count N must be >= 1, got {N}")
    if mesh != factor.cov.mesh:
        raise SamplingError(f"{mesh} does not match the covariance's {factor.cov.mesh}")
    return _SAMPLERS[factor.sampler](factor, N, substream(seed))


def sample_ensemble(factor: CovFactor, N: int, seed: int, mesh: Mesh) -> Ensemble:
    """Draw N i.i.d. fields ~ N(0, factor.cov) on the mesh.

    The fields are the blocks of :func:`field_blocks`, stacked.  Deterministic
    given (factor, N, seed): the same inputs give bit-identical ensembles on
    any machine and under any thread count; on every path but Cholesky the
    first N fields of a larger draw equal the N-field draw.  One
    :func:`factorize` serves every draw.
    """
    blocks = field_blocks(factor, N, seed, mesh)
    fields = next(blocks)
    if len(fields) < N:  # one block is the ensemble; more are copied in, never all held
        head, fields, start = fields, np.empty((N, mesh.L)), len(fields)
        fields[:start] = head
        for block in blocks:
            fields[start : start + len(block)] = block
            start += len(block)
    return Ensemble(mesh=mesh, fields=fields)
