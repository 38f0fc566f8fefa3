"""Sample and thresholded covariance estimators, norms, and error reports.

The estimator pipeline is: sample covariance (no mean subtraction; fields are
centered by model), data-driven threshold from the ensemble average of
per-field suprema, hard thresholding with the keep-ties convention
|entry| >= rho, and optional eigenvalue clipping to restore positive
semi-definiteness (which at most doubles the spectral estimation error).

Spectral norms are computed by seeded power iteration with Rayleigh-Ritz
extraction over a small Krylov basis (restarted Lanczos).  One matrix
application per step, a residual-certified stopping rule, and restarts on
stagnation; the subspace extraction is what lets the estimate converge when
the largest and smallest eigenvalues nearly tie in magnitude, where a bare
power iteration stalls.

A figure trial (:func:`estimate_and_report`) forms no L x L matrix unless
every row of its thresholded estimate can hold a surviving entry.  The sample
error is applied as the rank-N product F^T (F v) / N minus the truth, which an
assembled (Toeplitz) covariance applies by FFT.  The thresholded estimate is
exactly zero when the threshold exceeds every diagonal entry of the sample
covariance (and hence, by Cauchy-Schwarz, every entry); that costs one O(NL)
pass.  Otherwise it is formed and thresholded densely, but only on the rows
and columns that Cauchy-Schwarz leaves able to hold a surviving entry.

Every norm has a budget of max(128, L // 6) matrix applications, where the
Krylov work on one BLAS thread costs as much as a dense symmetric eigensolve.
A spectrum the iteration cannot certify within it (small-lengthscale
covariances, whose top eigenvalues cluster 1e-5 apart) gets the exact
``eigvalsh`` answer for the explicit operand: the matrix, the shifted
``s I - A`` of the min-eigenvalue solve, or ``est - truth``, materialized only
then.  The worst case, a solve that would have certified just past the
budget, costs about twice the better of the two paths.  The fallback holds
one extra L x L copy, two when it builds the operand (+800 MB each at
L = 10,000).  ``spectral_norm``, ``min_eigenvalue`` and ``relative_error``
also take a :class:`SymmetricOperator`, an operand given by its action, whose
explicit matrix is built only for that fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sampling import CovMatrix, Ensemble, covariance_matvec, ensemble_sup_mean, substream

__all__ = [
    "ThresholdRule",
    "EstimatorReport",
    "EstimationError",
    "SpectralNormError",
    "SymmetricOperator",
    "REPORT_CSV_HEADER",
    "sample_covariance",
    "threshold_parameter",
    "hard_threshold",
    "psd_projection",
    "spectral_norm",
    "spectral_norm_dense",
    "min_eigenvalue",
    "relative_error",
    "estimate_and_report",
]


class EstimationError(ValueError):
    """Invalid estimator inputs or parameters."""


class SpectralNormError(RuntimeError):
    """Power iteration failed to converge; carries the last iterate."""

    def __init__(self, message: str, estimate: float, residual: float, iterations: int):
        super().__init__(message)
        self.estimate = estimate
        self.residual = residual
        self.iterations = iterations


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


REPORT_CSV_HEADER = "seed,d,m,lambda,N,c0,form,rho_hat,eps_sample,eps_thresh,nnz_fraction,psd_min_eig"


def report_csv_row(
    report: EstimatorReport, seed: int, d: int, m: int, lam: float, N: int, rule: ThresholdRule
) -> str:
    """One CSV row in the REPORT_CSV_HEADER schema, full float64 round-trip."""
    return ",".join([
        str(int(seed)), str(int(d)), str(int(m)), repr(float(lam)), str(int(N)),
        repr(float(rule.c0)), rule.form,
        repr(report.rho_hat), repr(report.eps_sample), repr(report.eps_thresh),
        repr(report.nnz_fraction), repr(report.psd_min_eig),
    ])


def sample_covariance(ens: Ensemble) -> CovMatrix:
    """(1/N) sum_n u_n u_n^T on the mesh; symmetric PSD by construction.

    No mean subtraction: the fields are centered by model.
    """
    entries = ens.fields.T @ ens.fields
    entries /= ens.N
    entries = 0.5 * (entries + entries.T)
    return CovMatrix(entries=entries, mesh_weight=ens.mesh.weight)


def threshold_parameter(ens: Ensemble, rule: ThresholdRule) -> float:
    """The data-driven threshold rho_hat for this ensemble under ``rule``."""
    return rule.rho(ensemble_sup_mean(ens), ens.N)


def _survivors(a: np.ndarray, rho: float) -> np.ndarray:
    """The keep-ties indicator |a| >= rho of hard thresholding."""
    return np.abs(a) >= rho


def hard_threshold(cov, rho: float):
    """Zero every entry with |entry| < rho; ties (|entry| = rho) are kept.

    Takes a CovMatrix, or a plain array such as a block of its columns
    (thresholding is entrywise), and returns the same kind.
    """
    if not (rho >= 0.0):
        raise EstimationError(f"threshold rho must be >= 0, got {rho!r}")
    a = _operand(cov)
    entries = np.where(_survivors(a, rho), a, 0.0)
    if isinstance(cov, CovMatrix):
        return CovMatrix(entries=entries, mesh_weight=cov.mesh_weight)
    return entries


def psd_projection(cov: CovMatrix) -> CovMatrix:
    """Clip negative eigenvalues to zero and reconstruct.

    The result is PSD up to eigensolver tolerance and satisfies
    ||proj(A) - C|| <= 2 ||A - C|| for any PSD target C.
    """
    if not np.all(np.isfinite(cov.entries)):
        raise EstimationError("psd_projection requires finite entries")
    vals, vecs = np.linalg.eigh(cov.entries)
    clipped = np.maximum(vals, 0.0)
    entries = (vecs * clipped) @ vecs.T
    entries = 0.5 * (entries + entries.T)
    return CovMatrix(entries=entries, mesh_weight=cov.mesh_weight)


# ---------------------------------------------------------------------------
# spectral norms
# ---------------------------------------------------------------------------


# Defaults shared by every norm entry point.
_TOL = 1e-9
_MAXITER = 10_000


def _operand(obj):
    """The explicit matrix behind ``obj``; a CovMatrix keeps its own array."""
    return obj.entries if isinstance(obj, CovMatrix) else np.asarray(obj, dtype=float)


@dataclass(frozen=True)
class SymmetricOperator:
    """A symmetric n x n matrix given by its action on vectors.

    ``matvec`` applies it; ``dense`` builds it explicitly and is called only
    when the Krylov budget runs out (see :func:`_power_spectral_norm`).
    """

    n: int
    matvec: Callable[[np.ndarray], np.ndarray]
    dense: Callable[[], np.ndarray]


def _as_operator(obj) -> SymmetricOperator:
    """``obj`` as a SymmetricOperator; an explicit matrix keeps its own storage."""
    if isinstance(obj, SymmetricOperator):
        return obj
    a = _operand(obj)
    return SymmetricOperator(a.shape[0], lambda v: a @ v, lambda: a)


def _top_ritz(alpha, beta, j):
    """Largest-|value| eigenpair of the j-step Lanczos tridiagonal."""
    T = np.zeros((j, j))
    T[np.arange(j), np.arange(j)] = alpha[:j]
    if j > 1:
        T[np.arange(j - 1), np.arange(1, j)] = beta[: j - 1]
        T[np.arange(1, j), np.arange(j - 1)] = beta[: j - 1]
    vals, vecs = np.linalg.eigh(T)
    top = int(np.argmax(np.abs(vals)))
    return float(vals[top]), vecs[:, top]


def _lanczos_sweep(matvec, start, ncv, budget, tol):
    """One Lanczos sweep with full reorthogonalization from a unit start vector.

    Checks convergence after every step and exits as soon as the Ritz pair of
    largest |value| is certified: its residual norm ||A y - theta y||, which
    equals beta_j * |last component of y| exactly (the reorthogonalization
    keeps the formula trustworthy), drops to tol * |theta|.  Returns
    (theta, ritz_vector, residual, matvecs_used).
    """
    n = start.size
    steps = min(ncv, n, budget)
    V = np.empty((steps, n))
    alpha = np.empty(steps)
    beta = np.empty(steps)
    V[0] = start
    used = 0
    j = 0
    exhausted = False
    while j < steps:
        w = matvec(V[j])
        used += 1
        alpha[j] = float(V[j] @ w)
        w = w - alpha[j] * V[j]
        if j > 0:
            w = w - beta[j - 1] * V[j - 1]
        w = w - V[: j + 1].T @ (V[: j + 1] @ w)
        beta[j] = float(np.linalg.norm(w))
        j += 1
        theta, y = _top_ritz(alpha, beta, j)
        resid = beta[j - 1] * abs(float(y[-1]))
        if beta[j - 1] < 1e-300:
            exhausted = True  # invariant subspace: Ritz values are exact
            break
        if resid <= tol * abs(theta):
            break
        if j < steps:
            V[j] = w / beta[j - 1]
    ritz = V[:j].T @ y
    nrm = float(np.linalg.norm(ritz))
    if nrm > 0.0:
        ritz /= nrm
    if exhausted:
        resid = 0.0
    return theta, ritz, resid, used


def _power_spectral_norm(matvec, n, seed, tol, maxiter, dense=None, ncv=128):
    """Largest |eigenvalue| of a symmetric operator by restarted Krylov iteration.

    Power iteration with Rayleigh-Ritz extraction over a small Krylov basis,
    restarted from the best Ritz vector; one operator application per step,
    ``maxiter`` caps the total number of applications.  Plain power iteration
    stalls beyond recovery when the two largest |eigenvalues| nearly tie
    (covariances of small-lengthscale kernels have top gaps of order 1e-5);
    the subspace extraction converges through such clusters while keeping the
    same certificate: an exact residual norm below tol * |estimate|.

    ``dense`` returns the operator as an explicit n x n matrix; it is called
    only when the certificate is not met within max(ncv, n // 6) applications,
    the measured point where Krylov work on one BLAS thread costs as much as a
    dense symmetric eigensolve, and the exact ``eigvalsh`` answer is returned
    instead.  Without ``dense``, or with ``maxiter`` at or below that budget,
    the iteration runs to ``maxiter`` and raises :class:`SpectralNormError`.
    """
    limit = maxiter if dense is None else min(maxiter, max(ncv, n // 6))
    rng = substream(seed, 0x5E07)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    used = 0
    best = (math.inf, 0.0)  # (relative residual, |theta|)
    last_rel = math.inf
    stagnant = 0
    while used < limit:
        theta, ritz, resid, sweep_used = _lanczos_sweep(matvec, v, ncv, limit - used, tol)
        used += sweep_used
        scale = abs(theta)
        if scale == 0.0 and resid == 0.0:
            return 0.0
        rel = resid / max(scale, 1e-300)
        if rel < best[0]:
            best = (rel, scale)
        if rel <= tol:
            return scale
        # Restart on stagnation: a sweep that failed to cut the residual
        # meaningfully gets a fresh random direction mixed in.
        if rel > 0.9 * last_rel:
            stagnant += 1
        else:
            stagnant = 0
        last_rel = rel
        if stagnant >= 3:
            stagnant = 0
            fresh = rng.standard_normal(n)
            v = ritz + fresh / np.linalg.norm(fresh)
            v /= np.linalg.norm(v)
        else:
            v = ritz
    if limit < maxiter:
        return spectral_norm_dense(dense())
    raise SpectralNormError(
        f"spectral norm iteration did not reach tol={tol:g} within {maxiter} "
        f"matrix applications (best estimate {best[1]!r}, relative residual {best[0]:.3e})",
        estimate=best[1], residual=best[0], iterations=used,
    )


def spectral_norm(cov, seed: int = 0, tol: float = _TOL, maxiter: int = _MAXITER) -> float:
    """Largest absolute eigenvalue of a symmetric matrix, CovMatrix or SymmetricOperator.

    Seeded restarted Lanczos, with the dense eigensolver as the fallback for
    spectra it cannot certify cheaply; deterministic given ``seed``.  Raises
    :class:`SpectralNormError` when an explicit ``maxiter`` at or below the
    Krylov budget is exhausted, reporting the last estimate and residual.
    """
    op = _as_operator(cov)
    return _power_spectral_norm(op.matvec, op.n, seed, tol, maxiter, op.dense)


def spectral_norm_dense(cov) -> float:
    """Dense eigensolver path: the solver's fallback and the test oracle."""
    return float(np.max(np.abs(np.linalg.eigvalsh(_operand(cov)))))


def min_eigenvalue(cov, seed: int = 0, tol: float = _TOL, maxiter: int = _MAXITER) -> float:
    """Smallest eigenvalue via two spectral norms (shift by the norm).

    Takes anything :func:`spectral_norm` takes.
    """
    op = _as_operator(cov)
    n = op.n
    s = _power_spectral_norm(op.matvec, n, seed, tol, maxiter, op.dense)
    if s == 0.0:
        return 0.0
    t = _power_spectral_norm(lambda v: s * v - op.matvec(v), n, seed + 1, tol, maxiter,
                             lambda: s * np.eye(n) - op.dense())
    return s - t


def relative_error(est, truth: CovMatrix, seed: int = 0,
                   truth_norm: float | None = None) -> float:
    """Relative spectral error ||est - truth|| / ||truth||.

    ``est`` is anything :func:`spectral_norm` takes: a CovMatrix, an array
    or a :class:`SymmetricOperator` giving the estimate's action.  Quadrature
    weights cancel in the ratio, so plain matrix norms are used.  The
    difference is applied matrix-free, the truth through
    :func:`covariance_matvec` (by FFT when it records its mesh); it is
    materialized only if the dense fallback is taken.  An explicit estimate
    with no nonzero entry has error exactly 1.
    """
    op = _as_operator(est)
    if op.n != truth.L:
        raise EstimationError(f"order mismatch: est {op.n} vs truth {truth.L}")
    if truth_norm is None:
        truth_norm = spectral_norm(truth, seed=seed)
    if truth_norm == 0.0:
        raise EstimationError("relative_error is undefined for a zero truth matrix")
    if not isinstance(est, SymmetricOperator) and not np.any(_operand(est)):
        # A fully thresholded estimate: the difference is -truth exactly.
        return 1.0
    truth_matvec = covariance_matvec(truth)
    diff_norm = _power_spectral_norm(lambda v: op.matvec(v) - truth_matvec(v), op.n, seed,
                                     _TOL, _MAXITER, lambda: op.dense() - truth.entries)
    return diff_norm / truth_norm


def _thresholded_block(ens: Ensemble, rho: float):
    """The hard-thresholded sample covariance as its principal block on ``idx``.

    With d the diagonal of the sample covariance S, |S_ij| <= sqrt(d_i d_j)
    (Cauchy-Schwarz), so an entry can survive only in a row and a column
    with d_i max(d) >= rho^2; a margin of a few N eps covers the rounding of
    the N-term sums.  Returns those indices ``idx``, the thresholded block
    S[idx, idx], formed as :func:`sample_covariance` forms S (so exactly
    symmetric), and its number of surviving entries.  A threshold above
    max(d) leaves no index: the estimate is the zero matrix, the block is
    None and no product is formed.
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
    block = 0.5 * (block + block.T)
    nnz = int(np.count_nonzero(_survivors(block, rho)))
    return idx, hard_threshold(block, rho), nnz


def estimate_and_report(
    ens: Ensemble,
    truth: CovMatrix,
    rule: ThresholdRule,
    seed: int = 0,
    truth_norm: float | None = None,
) -> EstimatorReport:
    """Run the full estimator pipeline for one ensemble and report errors.

    ``truth_norm`` may be passed to reuse ||truth|| across trials on the same
    lengthscale; it is recomputed otherwise.  No L x L matrix is formed
    unless every row can hold a surviving entry: the sample error is applied
    as F^T (F v) / N - C v, with C v by FFT for an assembled truth, and the
    thresholded estimate is its principal block on the rows that can
    (:func:`_thresholded_block`; none when the threshold exceeds every
    diagonal entry, and then the estimate is exactly zero).
    """
    L = truth.L
    if ens.mesh.L != L:
        raise EstimationError("ensemble and truth live on different meshes")
    if truth_norm is None:
        truth_norm = spectral_norm(truth, seed=seed)
    F, N = ens.fields, ens.N
    rho_hat = threshold_parameter(ens, rule)
    if np.any(F):
        sample = SymmetricOperator(L, lambda v: F.T @ (F @ v) / N,
                                   lambda: sample_covariance(ens).entries)
        eps_sample = relative_error(sample, truth, seed=seed, truth_norm=truth_norm)
    else:
        eps_sample = 1.0  # the zero sample covariance: the difference is -truth
    idx, block, nnz = _thresholded_block(ens, rho_hat)
    if nnz == 0:
        eps_thresh, min_eig = 1.0, 0.0
    else:
        def thresh_matvec(v):
            out = np.zeros(L)
            out[idx] = block @ v[idx]
            return out

        def thresh_dense():
            out = np.zeros((L, L))
            out[np.ix_(idx, idx)] = block
            return out

        thresh = block if idx.size == L else SymmetricOperator(L, thresh_matvec, thresh_dense)
        eps_thresh = relative_error(thresh, truth, seed=seed, truth_norm=truth_norm)
        min_eig = min_eigenvalue(thresh, seed=seed)
    return EstimatorReport(
        rho_hat=rho_hat,
        eps_sample=eps_sample,
        eps_thresh=eps_thresh,
        nnz_fraction=float(nnz) / L**2,
        psd_min_eig=min(0.0, min_eig),
    )
