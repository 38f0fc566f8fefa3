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
(:func:`_as_operator`), a rank-N product F^T (F v) / s is :func:`_gram`, an
explicit array (every estimate here is one) is wrapped as it is, and a
difference is ``LinearOperator`` subtraction, a + (-1 b), which rounds as
a - b does.

A figure trial (:func:`estimate_and_report`) is given ||truth|| and forms no
L x L matrix unless every row of its thresholded estimate can hold a
surviving entry.  Its sample error is the norm of ``_gram(F, N)`` minus the
truth.  The thresholded estimate is exactly zero, with error 1, when the
threshold exceeds every diagonal entry of the sample covariance (and hence,
by Cauchy-Schwarz, every entry); that costs one O(NL) pass.  Otherwise it is
formed and thresholded densely, but only on the rows and columns that
Cauchy-Schwarz leaves able to hold a surviving entry.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import (
    ArpackError,
    ArpackNoConvergence,
    LinearOperator,
    aslinearoperator,
    eigsh,
)

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
    """The keep-ties indicator |a| >= rho of hard thresholding."""
    return np.abs(a) >= rho


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
# rank-N difference, a thresholded block, an explicit array) has a separated
# top eigenvalue, where a narrow basis restarts cheaply.
_NCV_TRUTH = 64
_NCV = 12
# ARPACK asks for a random vector after it finds an invariant subspace; an
# eigsh that takes ``rng`` draws it from the seeded stream.
_EIGSH_TAKES_RNG = "rng" in inspect.signature(eigsh).parameters


def _as_operator(obj) -> LinearOperator:
    """``obj`` as a LinearOperator; a CovMatrix acts through :func:`covariance_matvec`."""
    if isinstance(obj, LinearOperator):
        return obj
    if isinstance(obj, CovMatrix):
        return LinearOperator((obj.L, obj.L), matvec=covariance_matvec(obj), dtype=float)
    return aslinearoperator(np.asarray(obj, dtype=float))


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
    """Largest absolute eigenvalue of a symmetric array, CovMatrix or LinearOperator.

    Deterministic given ``seed``.  A CovMatrix truth is applied by FFT, so it
    takes no dense product.
    """
    return abs(_extreme_eigenvalue(cov, "LM", seed, tol))


def min_eigenvalue(cov, seed: int = 0) -> float:
    """Smallest eigenvalue of an estimate (array or LinearOperator).

    On a truth the solve may not converge (see :func:`_extreme_eigenvalue`).
    """
    return _extreme_eigenvalue(cov, "SA", seed)


def relative_error(est, truth, seed: int = 0, *, truth_norm: float) -> float:
    """Relative spectral error ||est - truth|| / ``truth_norm``.

    ``est`` and ``truth`` are anything :func:`spectral_norm` takes: a
    CovMatrix, an array or a LinearOperator giving the matrix's action.
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


# Edge of the tiles in which :func:`_thresholded_block` symmetrizes and
# thresholds its block.  Each whole-matrix temporary is one more page-faulted
# k x k array: on a 2218-row block (a fig2-d2 SE trial, one BLAS thread on a
# 2-core x86 host) the whole-matrix form took 139-162 ms and tiles of 128 take
# 63 ms; at ~300 rows both take 1 ms.
_TILE = 128


def _thresholded_block(ens: Ensemble, rho: float):
    """The hard-thresholded sample covariance as its principal block on ``idx``.

    With d the diagonal of the sample covariance S, |S_ij| <= sqrt(d_i d_j)
    (Cauchy-Schwarz), so an entry can survive only in a row and a column
    with d_i max(d) >= rho^2; a margin of a few N eps covers the rounding of
    the N-term sums.  Returns those indices ``idx``, the thresholded block
    S[idx, idx], formed as :func:`sample_covariance` forms S (so exactly
    symmetric) and thresholded as :func:`hard_threshold` does, and its number
    of surviving entries.  A threshold above max(d) leaves no index: the
    estimate is the zero matrix, the block is None and no product is formed.

    The product is the only array as large as the block.  It is symmetrized
    and thresholded in place, one tile and its mirror at a time, which gives
    the same bytes as the whole-matrix expressions.
    """
    F, N = ens.fields, ens.N
    diag = np.einsum("ni,ni->i", F, F) / N
    margin = 1.0 + 4.0 * N * np.finfo(float).eps
    idx = np.flatnonzero(diag * (np.max(diag) * margin * margin) >= rho * rho)
    if idx.size == 0:
        return idx, None, 0
    G = F[:, idx]
    block = G.T @ G
    block /= N
    nnz = 0
    for i in range(0, idx.size, _TILE):
        for j in range(i, idx.size, _TILE):
            upper = block[i : i + _TILE, j : j + _TILE]
            lower = block[j : j + _TILE, i : i + _TILE]
            tile = 0.5 * (upper + lower.T)
            nnz += int(np.count_nonzero(_survivors(tile, rho))) * (1 if i == j else 2)
            tile = hard_threshold(tile, rho)
            upper[...] = tile
            lower[...] = tile.T
    return idx, block, nnz


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
    and shared by its trials.  No L x L matrix is formed
    unless every row can hold a surviving entry: the sample error is applied
    as F^T (F v) / N - C v, with C v by FFT, and the thresholded estimate
    is its principal block on the rows that can (:func:`_thresholded_block`;
    none when the threshold exceeds every diagonal entry, and then the
    estimate is exactly zero).  When every entry
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
            out[idx] = block @ v[idx]
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
