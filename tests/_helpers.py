"""Shared test utilities: hand-built ensembles and meshes for edge cases, the
dense spectral-norm oracle, and the Monte Carlo statistics of the sup-norm and
threshold-concentration checks."""

import numpy as np

from opcov.estimation import ThresholdRule, sample_covariance, threshold_parameter
from opcov.sampling import (
    CovMatrix,
    Ensemble,
    Mesh,
    _toeplitz_gather,
    covariance_matrix,
    derive_seed,
    factorize,
    sample_ensemble,
)
from opcov.theory import expected_supremum_mc


def make_mesh(L: int) -> Mesh:
    """A d = 1 mesh of any size, one point included (build_mesh asks m >= 2)."""
    return Mesh(d=1, m=L)


def make_ensemble(fields) -> Ensemble:
    fields = np.atleast_2d(np.asarray(fields, dtype=float))
    N, L = fields.shape
    mesh = make_mesh(L)
    return Ensemble(mesh=mesh, N=N, fields=fields, sups=fields.max(axis=1))


def dense_truth(cov: CovMatrix) -> np.ndarray:
    """The L x L matrix of a first-row truth, gathered whole from its row."""
    return _toeplitz_gather(cov.row, cov.mesh)


def spectral_norm_dense(cov) -> float:
    """Largest |eigenvalue| of a CovMatrix or array by the dense eigensolver."""
    a = dense_truth(cov) if isinstance(cov, CovMatrix) else np.asarray(cov, dtype=float)
    return float(np.max(np.abs(np.linalg.eigvalsh(a))))


def _population_threshold(factor, mesh, rule, N, seed, esup_samples):
    """rho_N: ``rule`` at the expected supremum, estimated on substream 0xE5 of ``seed``."""
    esup, _ = expected_supremum_mc(factor, mesh, esup_samples, derive_seed(seed, 0xE5))
    return rule.rho(esup, N)


def supnorm_errors(kernel, mesh, N, trials, seed, esup_samples=10_000):
    """Per-trial max |khat - k| / rho_N of the sample covariance, over all entries
    and over the middle mesh point's column; rho_N is the full-form, c0 = 1
    population threshold.  Trial t draws from ``derive_seed(seed, t)``."""
    factor = factorize(covariance_matrix(kernel, mesh))
    rho_N = _population_threshold(factor, mesh, ThresholdRule(c0=1.0, form="full"), N, seed,
                                  esup_samples)
    truth = dense_truth(factor.cov)
    max_all = np.empty(trials)
    max_column = np.empty(trials)
    for t in range(trials):
        ens = sample_ensemble(factor, N, derive_seed(seed, t), mesh)
        err = np.abs(sample_covariance(ens) - truth)
        max_all[t] = err.max() / rho_N
        max_column[t] = err[:, mesh.L // 2].max() / rho_N
    return max_all, max_column


def threshold_ratios(kernel, mesh, N, rule, trials, seed, esup_samples=10_000):
    """Per-trial rho_hat / rho_N, and rho_N itself.  Trial t draws from
    ``derive_seed(seed, t)``."""
    factor = factorize(covariance_matrix(kernel, mesh))
    rho_N = _population_threshold(factor, mesh, rule, N, seed, esup_samples)
    ratios = np.empty(trials)
    for t in range(trials):
        ens = sample_ensemble(factor, N, derive_seed(seed, t), mesh)
        ratios[t] = threshold_parameter(ens, rule) / rho_N
    return ratios, rho_N
