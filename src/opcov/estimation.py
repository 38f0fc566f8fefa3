"""Sample and thresholded covariance estimators, norms, and error reports.

The estimator pipeline is: sample covariance (no mean subtraction; fields are
centered by model), data-driven threshold from the ensemble average of
per-field suprema, and hard thresholding with the keep-ties convention
|entry| >= rho.

Spectral norms come from one helper around ARPACK's implicitly restarted
Lanczos (``scipy.sparse.linalg.eigsh``, k=1): ``which="LM"`` for norms and
``which="SA"`` for the smallest eigenvalue.  The norm of a truth starts from
the sine vector prod_a sin(pi i_a / (m + 1)).  A truth has nonnegative
entries, positive next to the diagonal, and is symmetric under reversing any
axis.  So its top eigenvector is positive (Perron-Frobenius) and unchanged by
those reversals, like the sine vector, and the top eigenvectors of a Toeplitz
matrix are close to sines (Grenander & Szego, *Toeplitz Forms*).  Lanczos from
such a start stays, up to rounding, out of the antisymmetric half of the
tightly clustered top spectrum.  Every other solve starts from a seeded
Gaussian vector: the smallest eigenvalue of a truth may belong to an
antisymmetric eigenvector, which a symmetric start cannot reach.  Either way,
ARPACK's restarts draw from a seeded stream.  The helper's stopping rule
certifies the residual ||A x - theta x|| <= tol |theta|, with no matvec
budget and no dense fallback; non-convergence raises
:class:`SpectralNormError`.  The Krylov basis is picked from the operand:
wide (64) for a truth, whose top eigenvalues cluster about 1e-5 apart at
small lengthscales, and narrow (12) for everything else, whose top eigenvalue
is separated.  Operators of order at most 64 are built from their columns and
solved by ``eigvalsh``.

Each operand has one constructor, here, which the EnKF borrows.  A
:class:`~opcov.sampling.CovMatrix` truth is applied by FFT
(:func:`_as_operator`), a rank-N product F^T (F v) / s is :func:`_gram`, a
thresholded estimate is the operator :func:`_thresholded_block` returns, and a
difference is ``LinearOperator`` subtraction, a + (-1 b), which rounds as
a - b does.  The norm helpers take a CovMatrix or a ``LinearOperator``, not
an explicit array.

A figure trial (:func:`estimate_and_report`) is given ||truth|| and forms no
L x L matrix.  Its sample error is the norm of ``_gram(F, N)`` minus the
truth.  The thresholded estimate is exactly zero, with error 1, when the
threshold exceeds every diagonal entry of the sample covariance (and hence,
by Cauchy-Schwarz, every entry); that costs one O(NL) pass.  Otherwise only
the rows and columns that Cauchy-Schwarz leaves able to hold a surviving
entry are scanned, in row panels, and only the sparse part of the estimate is
stored: its kept entries, or the dropped ones that it differs by from the
sample covariance, whichever are fewer.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

from .sampling import CovMatrix, Ensemble, covariance_matvec, substream

__all__ = [
    "ThresholdRule",
    "EstimatorReport",
    "EstimationError",
    "SpectralNormError",
    "sample_covariance",
    "threshold_parameter",
    "hard_threshold",
    "spectral_norm",
    "min_eigenvalue",
    "relative_error",
    "estimate_and_report",
]


class EstimationError(ValueError):
    """Invalid estimator inputs or parameters."""


class SpectralNormError(RuntimeError):
    """The eigensolver did not converge."""


@dataclass(frozen=True)
class ThresholdRule:
    """Data-driven threshold rule rho_hat built from the mean supremum S.

    form = "full":        rho_hat = c0 * max(1/N, S/sqrt(N), S^2/N),
                          valid for 1 <= c0 <= sqrt(N);
    form = "simplified":  rho_hat = c0 * S/sqrt(N), any c0 >= 1.

    The full form's c0 <= sqrt(N) hypothesis is enforced at application time
    (it depends on N); the simplified form is deliberately unrestricted since
    the reference experiments use c0 = 5 with N as small as 2.
    """

    c0: float = 1.0
    form: str = "full"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c0) and self.c0 >= 1.0):
            raise EstimationError(f"threshold prefactor c0 must be >= 1, got {self.c0!r}")
        if self.form not in ("full", "simplified"):
            raise EstimationError(f"threshold form must be 'full' or 'simplified', got {self.form!r}")

    def rho(self, s_bar: float, N: int) -> float:
        """The threshold for mean supremum ``s_bar`` over ``N`` fields.

        With the expected supremum in place of ``s_bar`` this is the
        population threshold rho_N.

        The simplified form is clamped at zero in the degenerate case of a
        negative mean supremum (possible only on very coarse meshes); a zero
        threshold keeps every entry, which is what a negative one would do.
        """
        if self.form == "full":
            if self.c0 > math.sqrt(N):
                raise EstimationError(
                    f"full-form threshold requires c0 <= sqrt(N): c0={self.c0}, N={N}"
                )
            return self.c0 * max(1.0 / N, s_bar / math.sqrt(N), s_bar * s_bar / N)
        return max(0.0, self.c0 * s_bar / math.sqrt(N))


@dataclass(frozen=True)
class EstimatorReport:
    """Per-trial estimator diagnostics.

    eps_sample and eps_thresh are relative spectral errors of the sample and
    thresholded estimators; nnz_fraction is the fraction of entries surviving
    the threshold indicator; psd_min_eig is the most negative eigenvalue of
    the thresholded matrix (0.0 if it is PSD).
    """

    rho_hat: float
    eps_sample: float
    eps_thresh: float
    nnz_fraction: float
    psd_min_eig: float


def sample_covariance(ens: Ensemble) -> np.ndarray:
    """(1/N) sum_n u_n u_n^T on the mesh; symmetric PSD by construction.

    No mean subtraction: the fields are centered by model.
    """
    entries = ens.fields.T @ ens.fields
    entries /= ens.N
    return 0.5 * (entries + entries.T)


def threshold_parameter(ens: Ensemble, rule: ThresholdRule) -> float:
    """The data-driven threshold rho_hat for this ensemble under ``rule``."""
    return rule.rho(float(ens.sups.mean()), ens.N)


def _survivors(a: np.ndarray, rho: float) -> np.ndarray:
    """The keep-ties indicator |a| >= rho of hard thresholding, for rho >= 0.

    Compared as a >= rho or a <= -rho, which decides every entry as |a|
    does without a temporary copy of ``a``.
    """
    return (a >= rho) | (a <= -rho)


def hard_threshold(cov: np.ndarray, rho: float) -> np.ndarray:
    """Zero every entry with |entry| < rho; ties (|entry| = rho) are kept.

    Entrywise, so a block of columns thresholds to those columns of the
    thresholded matrix.
    """
    if not (rho >= 0.0):
        raise EstimationError(f"threshold rho must be >= 0, got {rho!r}")
    return np.where(_survivors(cov, rho), cov, 0.0)


# ---------------------------------------------------------------------------
# spectral norms
# ---------------------------------------------------------------------------


# ARPACK's relative accuracy of the Ritz value (the default of every norm;
# the EnKF passes its own), and its cap on implicit restarts, read at call time.
_TOL = 1e-9
_MAXITER = 10_000
# At or below this order the operator is applied to the identity's columns
# and the explicit matrix goes to eigvalsh (a size rule, not a fallback).
_SMALL = 64
# Krylov basis sizes.  The top eigenvalues of a truth cluster about 1e-5
# apart at small lengthscales and need a wide basis; every other operand (a
# rank-N difference, a thresholded estimate) has a separated
# top eigenvalue, where a narrow basis restarts cheaply.
_NCV_TRUTH = 64
_NCV = 12
# ARPACK asks for a random vector after it finds an invariant subspace; an
# eigsh that takes ``rng`` draws it from the seeded stream.
_EIGSH_TAKES_RNG = "rng" in inspect.signature(eigsh).parameters


def _as_operator(obj) -> LinearOperator:
    """A CovMatrix as the LinearOperator of :func:`covariance_matvec`; a LinearOperator as is."""
    if isinstance(obj, CovMatrix):
        return LinearOperator((obj.L, obj.L), matvec=covariance_matvec(obj), dtype=float)
    return obj


def _gram(F: np.ndarray, scale: float) -> LinearOperator:
    """v -> F^T (F v) / scale."""
    return LinearOperator((F.shape[1],) * 2, matvec=lambda v: F.T @ (F @ v) / scale, dtype=float)


def _sine_start(mesh) -> np.ndarray:
    """The outer product over the axes of sin(pi i / (m + 1)), i = 1..m, flattened."""
    s = np.sin(np.pi * np.arange(1, mesh.m + 1) / (mesh.m + 1))
    return functools.reduce(np.multiply.outer, [s] * mesh.d).ravel()


def _extreme_eigenvalue(obj, which: str, seed: int, tol: float = _TOL) -> float:
    """The eigenvalue of largest magnitude (``which="LM"``) or the smallest ("SA").

    ARPACK's implicitly restarted Lanczos (``eigsh``, k=1); ``tol`` bounds the
    residual ||A x - theta x|| by tol |theta| and ``_MAXITER`` caps the
    restarts, which draw from a stream seeded by ``seed``.  As the module
    docstring says, a truth gets the wide Krylov basis and, for its largest
    eigenvalue, the start :func:`_sine_start`.  An operator of order at most
    64 is built from its columns and solved by eigvalsh.
    Raises :class:`SpectralNormError` when ARPACK does not converge.  The
    "SA" solve is meant for estimates: on a truth whose smallest eigenvalues
    cluster at rounding level (large lengthscales) it may not meet its
    relative tolerance.  No command calls it on a truth.
    """
    op = _as_operator(obj)
    n = op.shape[0]
    if n <= _SMALL:
        vals = np.linalg.eigvalsh(np.stack([op.matvec(e) for e in np.eye(n)], axis=1))
        return float(vals[np.argmax(np.abs(vals))] if which == "LM" else vals[0])
    rng = substream(seed, 0x5E07)
    truth = isinstance(obj, CovMatrix)
    v0 = _sine_start(obj.mesh) if truth and which == "LM" else rng.standard_normal(n)
    ncv = _NCV_TRUTH if truth else _NCV
    try:
        (theta,) = eigsh(op, k=1, which=which, v0=v0, ncv=ncv, tol=tol, maxiter=_MAXITER,
                         return_eigenvectors=False,
                         **({"rng": rng} if _EIGSH_TAKES_RNG else {}))
    except ArpackError as exc:
        # ARPACK rejects a start vector that the operator maps to zero.  A
        # random v0 is mapped to zero only by the zero operator, whose
        # eigenvalues are all 0.  The sine start is positive and a truth has
        # a unit diagonal and nonnegative entries, so a truth never maps it
        # to zero and any error there is raised.
        if isinstance(exc, ArpackNoConvergence) or np.any(op.matvec(v0)):
            raise SpectralNormError(
                f"ARPACK ({which}) did not reach tol={tol:g} within {_MAXITER} restarts "
                f"on an operator of order {n}: {exc}"
            ) from exc
        return 0.0
    return float(theta)


def spectral_norm(cov, seed: int = 0, tol: float = _TOL) -> float:
    """Largest absolute eigenvalue of a CovMatrix or a symmetric LinearOperator.

    Deterministic given ``seed``.  A CovMatrix truth is applied by FFT, so it
    takes no dense product.
    """
    return abs(_extreme_eigenvalue(cov, "LM", seed, tol))


def min_eigenvalue(cov, seed: int = 0) -> float:
    """Smallest eigenvalue of an estimate, a symmetric LinearOperator.

    On a truth the solve may not converge (see :func:`_extreme_eigenvalue`).
    """
    return _extreme_eigenvalue(cov, "SA", seed)


def relative_error(est, truth, seed: int = 0, *, truth_norm: float) -> float:
    """Relative spectral error ||est - truth|| / ``truth_norm``.

    ``est`` and ``truth`` are anything :func:`spectral_norm` takes: a
    CovMatrix or a LinearOperator giving the matrix's action.
    ``truth_norm`` is ||truth||, which a caller computes once per truth.
    Quadrature weights cancel in the ratio, so plain matrix norms are used.
    The difference is applied matrix-free, a CovMatrix by FFT.
    """
    op, truth_op = _as_operator(est), _as_operator(truth)
    if op.shape != truth_op.shape:
        raise EstimationError(f"order mismatch: est {op.shape[0]} vs truth {truth_op.shape[0]}")
    if truth_norm == 0.0:
        raise EstimationError("relative_error is undefined for a zero truth matrix")
    return abs(_extreme_eigenvalue(op - truth_op, "LM", seed)) / truth_norm


# Rows per panel of :func:`_thresholded_block`, which holds one panel of
# _TILE x k entries (and a survivor mask of it) and never the k x k block.
_TILE = 64


def _upper_panels(G: np.ndarray, N: int, rho: float):
    """Each row panel of the upper triangle of G^T G / N, with its survivors.

    Yields (i, panel, keep): ``panel`` is rows i to i + _TILE of the product,
    from column i on, and ``keep`` is its keep-ties indicator with the
    entries left of the diagonal cleared.  Each entry off the diagonal is
    computed once, so the estimate built from the upper triangle is exactly
    symmetric.  Every panel is written into one buffer, which the next
    panel overwrites.
    """
    k = G.shape[1]
    buf = np.empty((min(_TILE, k), k))
    for i in range(0, k, _TILE):
        panel = np.matmul(G[:, i : i + _TILE].T, G[:, i:], out=buf[: min(_TILE, k - i), : k - i])
        panel /= N
        yield i, panel, np.triu(_survivors(panel, rho))


def _thresholded_block(ens: Ensemble, rho: float):
    """The hard-thresholded sample covariance as an operator on ``idx``.

    With d the diagonal of the sample covariance S, |S_ij| <= sqrt(d_i d_j)
    (Cauchy-Schwarz), so an entry can survive only in a row and a column
    with d_i max(d) >= rho^2; a margin of a few N eps covers the rounding of
    the N-term sums.  Returns those indices ``idx``, the thresholded block
    T = S[idx, idx] as a LinearOperator of order k = ``idx.size``, and T's
    number of surviving entries (keep-ties, as :func:`hard_threshold`).  A
    threshold above max(d) leaves no index, and no survivor leaves the zero
    matrix: then the operator is None and no product is formed.

    Two passes over the row panels of :func:`_upper_panels`.  The first
    counts the survivors of each row.  The second stores the smaller set of
    upper-triangle entries as CSR (12 bytes an entry, in arrays sized by
    the first pass): the kept ones, so that T = U + U^T - diag(U), or the
    dropped ones, so that T is the Gram operator of the block's columns
    minus that.  With nothing dropped T is the Gram operator itself.
    """
    F, N = ens.fields, ens.N
    diag = np.einsum("ni,ni->i", F, F) / N
    margin = 1.0 + 4.0 * N * np.finfo(float).eps
    idx = np.flatnonzero(diag * (np.max(diag) * margin * margin) >= rho * rho)
    k = idx.size
    G = F[:, idx]
    kept = np.zeros(k, dtype=np.int64)
    kept_diag = 0
    for i, _, keep in _upper_panels(G, N, rho):
        kept[i : i + len(keep)] = np.count_nonzero(keep, axis=1)
        kept_diag += int(np.count_nonzero(np.diagonal(keep)))
    nnz = 2 * int(kept.sum()) - kept_diag
    if nnz == 0:
        return idx, None, 0
    gram = _gram(G, N)
    dropped = np.arange(k, 0, -1) - kept
    store_kept = kept.sum() <= dropped.sum()
    per_row = kept if store_kept else dropped
    if not per_row.any():
        return idx, gram, nnz
    # k <= MAX_MESH_POINTS, so the k(k+1)/2 upper entries fit int32 indices
    indptr = np.zeros(k + 1, dtype=np.int32)
    np.cumsum(per_row, out=indptr[1:])
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=np.int32)
    for i, panel, keep in _upper_panels(G, N, rho):
        stored = keep if store_kept else np.triu(~keep)
        lo, hi = indptr[i], indptr[i + len(panel)]
        data[lo:hi] = panel[stored]
        indices[lo:hi] = np.broadcast_to(np.arange(i, k, dtype=np.int32), stored.shape)[stored]
    upper = csr_array((data, indices, indptr), shape=(k, k))
    upper_diag = upper.diagonal()

    def matvec(v):
        sparse = upper @ v + upper.T @ v - upper_diag * v
        return sparse if store_kept else gram.matvec(v) - sparse

    return idx, LinearOperator((k, k), matvec=matvec, dtype=float), nnz


def estimate_and_report(
    ens: Ensemble,
    truth: CovMatrix,
    rule: ThresholdRule,
    seed: int = 0,
    *,
    truth_norm: float,
) -> EstimatorReport:
    """Run the full estimator pipeline for one ensemble and report errors.

    ``truth_norm`` is ||truth||, computed once per lengthscale by the caller
    and shared by its trials.  No L x L matrix is formed: the sample error is
    applied as F^T (F v) / N - C v, with C v by FFT, and the thresholded
    estimate is its principal block on the rows that can hold a surviving
    entry, applied from its sparse part (:func:`_thresholded_block`; none
    when the threshold exceeds every diagonal entry, and then the estimate
    is exactly zero).  When every entry
    survives, the estimate is the sample covariance and shares its error.
    An ensemble of zero fields needs no case of its own: its sample error is
    ||C|| / ||C||, exactly 1 at order <= 64 and 1 to rounding above.
    """
    L = truth.L
    if ens.mesh != truth.mesh:
        raise EstimationError(f"ensemble and truth live on different meshes: {ens.mesh}, {truth.mesh}")
    rho_hat = threshold_parameter(ens, rule)
    eps_sample = relative_error(_gram(ens.fields, ens.N), truth, seed=seed, truth_norm=truth_norm)
    idx, block, nnz = _thresholded_block(ens, rho_hat)
    if nnz == 0:
        eps_thresh, min_eig = 1.0, 0.0
    elif nnz == L * L:
        # nothing is thresholded away: the estimate is the sample covariance,
        # a Gram matrix and so PSD
        eps_thresh, min_eig = eps_sample, 0.0
    else:
        def thresh_matvec(v):
            out = np.zeros(L)
            out[idx] = block.matvec(v[idx])
            return out

        thresh = LinearOperator((L, L), matvec=thresh_matvec, dtype=float)
        eps_thresh = relative_error(thresh, truth, seed=seed, truth_norm=truth_norm)
        # the zero rows and columns off ``idx`` add only the eigenvalue 0,
        # which psd_min_eig clips to anyway
        min_eig = min_eigenvalue(block, seed=seed)
    return EstimatorReport(
        rho_hat=rho_hat,
        eps_sample=eps_sample,
        eps_thresh=eps_thresh,
        nnz_fraction=float(nnz) / L**2,
        psd_min_eig=min(0.0, min_eig),
    )
