"""One ensemble Kalman analysis step: mean-field, stochastic, and localized gains.

Conventions.  The state space is the mesh discretization of L^2 on the unit
cube, with inner product weight * <u, v>.  The observation y = A u + eta
reads d_y distinct mesh sites, A u = u[sites], with noise eta ~ N(0, Gamma),
Gamma = noise_std^2 I.  Under the weighted inner product the adjoint of A is
A^T / weight, so the weights cancel in the Kalman gain and the matrix formula
K = C A^T (A C A^T + Gamma)^-1 holds verbatim: C A^T is the columns of C at
the sites and A C A^T + Gamma their rows at the sites plus noise_std^2 on the
diagonal.  Weighted norms reappear only in reported quantities:
||A|| = 1 / sqrt(weight) (A has orthonormal rows), ||Gamma^-1|| =
1 / noise_std^2, covariance operator norms are weight * (matrix norm), state
discrepancies are sqrt(weight) times the Euclidean norm, and gains carry
sqrt(weight) * smax.  Pointwise evaluation is unbounded on L^2 and only makes
sense after discretization.  No general observation operator or noise
covariance is modelled, since every caller observes mesh sites.

All three analysis updates share the observation y and the per-particle
noises, so two updates of one particle differ by exactly their gain
difference applied to the innovation, and no update is formed: a discrepancy
is sqrt(weight) ||(K_hat - K*)(y - A u_n - eta_n)||, and the stochastic
K_hat - K* is also what the continuity check bounds.  The mean-field gain K*
uses the population covariance; the stochastic and localized gains K_hat use
leave-one-out sample covariances.

Nothing of order L x L is formed per particle.  A gain reads a covariance
only through C A^T, i.e. through its columns at the observed sites, so the
leave-one-out covariances are kept as those columns only: rank-one downdates
(S[:, sites] - u_n u_n[sites]^T) / (N - 1) of the Gram columns S[:, sites],
computed once per trial and thresholded entrywise; the mean-field gain reads
the same columns of the truth, gathered from its first row.  Every covariance
norm goes through :func:`opcov.estimation.spectral_norm` (ARPACK) on the
operands of :mod:`opcov.estimation`, without a dense product: the truth norm
||C|| behind c_const and the continuity bound is applied by FFT, and the
continuity check's ||loo - C|| is that of ``_gram(F_n, N - 1) - C``, where
F_n is the ensemble without particle n.

The continuity check needs ||loo - C|| only through a bound that increases
with it, so a lower bound that already satisfies the inequality settles the
particle.  ||(loo - C) v|| / ||v|| <= ||loo - C|| for any nonzero v, so one
Gaussian probe v per trial serves every particle, with F^T (F v) and C v
formed once; a gain difference within the bound at the particle's ratio
(with no tolerance slack) passes.  Only a particle this certificate cannot
pass runs the ARPACK solve, and that solve's Ritz value decides it with the
1e-6 relative slack that covers the solver tolerance, so the flag is the one
the full solve alone would give.  The comparison returns one record per
trial, which its callers pool (``enkf-demo``: :func:`opcov.cli.run_enkf_demo`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve

from .estimation import ThresholdRule, _as_operator, _gram, hard_threshold, spectral_norm
from .kernels import KernelModel
from .sampling import (
    Ensemble,
    Mesh,
    covariance_matrix,
    derive_seed,
    factorize,
    sample_ensemble,
    substream,
)

__all__ = [
    "EnkfError",
    "ObservationModel",
    "AnalysisComparison",
    "AnalysisComparisonSummary",
    "pointwise_observation",
    "kalman_gain",
    "loo_covariances",
    "gain_continuity_bound",
    "gain_operator_norm",
    "state_norm",
    "compare_analysis_updates",
]

DEFAULT_NOISE_STD = math.sqrt(0.1)

# Relative tolerance of the covariance norms behind c_const and the
# gain-continuity check, looser than the library's 1e-9 by measurement: at
# d = 1, m = 1250, SE lambda = 1e-3 (2 cores, one BLAS thread) the truth norm
# takes 161 FFT matvecs (17 ms) at 1e-7 and 385 (42 ms) at 1e-9, against
# about 57 ms for a whole two-trial comparison at that cell, so 1e-9 would
# add about 45%.  At lambda >= 0.01 both take 65 matvecs and give bit-equal
# norms.
_NORM_TOL = 1e-7


class EnkfError(RuntimeError):
    """Observation model or analysis step failure."""


@dataclass(frozen=True)
class ObservationModel:
    """Pointwise observations y = u[sites] + eta with eta ~ N(0, noise_std^2 I).

    ``sites`` are distinct and ascending flat indices into the ``L`` mesh
    values.  :func:`pointwise_observation` puts them at
    ``floor((i + 0.5) L / d_y)``, which depends on the point count alone, not
    on d: a model built on a d = 1, m = 64 mesh equals one built on d = 2,
    m = 8 (both have sites 8, 24, 40, 56).  ``L`` is thus all a model holds of
    its mesh: it sets :attr:`a_op_norm`, and :func:`compare_analysis_updates`
    rejects a model whose point count is not the mesh's.
    """

    sites: np.ndarray
    L: int
    noise_std: float

    @property
    def d_y(self) -> int:
        return self.sites.size

    @property
    def a_op_norm(self) -> float:
        """The weighted operator norm 1 / sqrt(weight) of the site selection A."""
        return 1.0 / math.sqrt(1.0 / self.L)

    @property
    def gamma_inv_norm(self) -> float:
        """||Gamma^-1|| = 1 / noise_std^2."""
        return 1.0 / self.noise_std**2


def pointwise_observation(
    mesh: Mesh, d_y: int, noise_std: float = DEFAULT_NOISE_STD
) -> ObservationModel:
    """d_y pointwise evaluations at equispaced mesh sites, Gamma = noise_std^2 I."""
    if not (noise_std > 0.0):
        raise EnkfError(f"noise_std must be > 0, got {noise_std}")
    if noise_std == math.inf:
        raise EnkfError(f"noise_std must be finite, got {noise_std}")
    if not (np.finfo(float).tiny <= noise_std * noise_std < math.inf):
        # Gamma = noise_std^2 I and ||Gamma^-1|| must both be finite
        raise EnkfError(f"noise_std^2 must be a normal float, got noise_std={noise_std!r}")
    if not (1 <= d_y <= mesh.L):
        raise EnkfError(f"need 1 <= d_y <= L, got d_y={d_y}, L={mesh.L}")
    sites = np.floor((np.arange(d_y) + 0.5) * mesh.L / d_y).astype(int)
    return ObservationModel(sites=sites, L=mesh.L, noise_std=noise_std)


def kalman_gain(CA: np.ndarray, obs: ObservationModel) -> tuple[np.ndarray, bool]:
    """(K, indefinite): the gain K = C A^T (A C A^T + Gamma)^-1 from CA = C A^T.

    The gain needs only an invertible innovation matrix S = A C A^T + Gamma.
    S is solved through its Cholesky factor; a hard-thresholded covariance
    can make S indefinite, and then a symmetric-indefinite solve takes over
    and ``indefinite`` is True.  A singular or numerically singular S
    (condition number beyond 1 / (d_y eps)) raises :class:`EnkfError`.  CA is
    the L x d_y block of the covariance's columns at the observed sites.
    """
    S = CA[obs.sites] + obs.noise_std**2 * np.eye(obs.d_y)
    S = 0.5 * (S + S.T)  # exactly symmetric
    try:
        return cho_solve(cho_factor(S, lower=True), CA.T).T, False
    except np.linalg.LinAlgError:
        pass
    eig = np.abs(np.linalg.eigvalsh(S))
    if not (np.min(eig) * S.shape[0] > np.finfo(float).eps * np.max(eig)):
        raise EnkfError(
            "innovation covariance A C A^T + Gamma is singular or numerically singular"
        )
    return solve(S, CA.T, assume_a="sym").T, True


def loo_covariances(
    ens: Ensemble, rule: ThresholdRule, cols: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray, float]]:
    """Yield (n, sample_loo, thresholded_loo, rho_loo) columns for each particle.

    ``sample_loo`` holds the columns ``cols`` of the leave-one-out sample
    covariance, the rank-one downdate (S[:, cols] - u_n u_n[cols]^T) / (N - 1)
    of the Gram columns S[:, cols]; ``thresholded_loo`` is the same block
    hard-thresholded (entrywise, so exactly those columns of the thresholded
    matrix).  The threshold is recomputed from the N - 1 remaining suprema.
    """
    if ens.N < 2:
        raise EnkfError(f"leave-one-out covariances need N >= 2, got N={ens.N}")
    S_cols = ens.fields.T @ ens.fields[:, cols]
    sup_total = float(ens.sups.sum())
    for n in range(ens.N):
        u = ens.fields[n]
        loo = (S_cols - np.outer(u, u[cols])) / (ens.N - 1)
        s_bar = (sup_total - float(ens.sups[n])) / (ens.N - 1)
        rho = rule.rho(s_bar, ens.N - 1)
        yield n, loo, hard_threshold(loo, rho), rho


def gain_continuity_bound(delta_norm: float, cov_norm: float, obs: ObservationModel) -> float:
    """Continuity bound on the Kalman gain under a covariance perturbation.

    delta_norm and cov_norm are weighted operator norms of the covariance
    perturbation and of the reference covariance.  The bound is exact for
    positive semi-definite perturbations of a PSD covariance.
    """
    if delta_norm < 0.0 or cov_norm < 0.0:
        raise EnkfError("norms must be nonnegative")
    a, g = obs.a_op_norm, obs.gamma_inv_norm
    return delta_norm * a * g * (1.0 + cov_norm * a * a * g)


def _probe_lower_bound(u: np.ndarray, N: int, v: np.ndarray, gram_v: np.ndarray,
                       cov_v: np.ndarray) -> float:
    """||(loo - C) v|| / ||v||, a lower bound on ||loo - C|| for loo without
    particle ``u`` of the N in F, from gram_v = F^T (F v) and cov_v = C v.

    :func:`gain_continuity_bound` increases with the perturbation norm, so a
    gain difference within the bound at this value is within it at ||loo - C||.
    """
    return float(np.linalg.norm((gram_v - u * (u @ v)) / (N - 1) - cov_v) / np.linalg.norm(v))


def gain_operator_norm(gain: np.ndarray, mesh_weight: float) -> float:
    """Weighted operator norm of a gain matrix (observations to state)."""
    return math.sqrt(mesh_weight) * float(np.linalg.svd(gain, compute_uv=False)[0])


def state_norm(v: np.ndarray, mesh_weight: float) -> float:
    """Mesh-weighted Euclidean norm, the discrete L^2 norm of a field."""
    return math.sqrt(mesh_weight) * float(np.linalg.norm(v))


@dataclass(frozen=True)
class AnalysisComparison:
    """Per-particle discrepancies of one trial, in the weighted state norm.

    ``c_consts`` holds the per-particle conditioning constants
    ||A|| ||Gamma^-1|| ||C|| |y - A u_n - eta_n|; ``continuity_ok`` records
    whether the gain-continuity inequality held for every (PSD) leave-one-out
    sample covariance of the trial.  ``indefinite_gains`` counts the particles
    whose localized gain had an indefinite innovation matrix, solved by the
    symmetric-indefinite path of :func:`kalman_gain` instead of Cholesky;
    ``zero_localized`` counts those whose thresholded leave-one-out columns at
    the sites were all zero, so that their localized gain is the zero gain.
    ``continuity_full_solves`` counts the particles whose continuity check the
    trial's one-probe certificate could not pass, so it took the ARPACK norm;
    ``continuity_min_margin`` is the smallest bound / actual over the
    certified particles (inf when none was certified).  ``enkf-demo`` sums
    the counters over the trials and takes the smallest margin.
    """

    disc_vanilla: np.ndarray
    disc_localized: np.ndarray
    innovation_norms: np.ndarray
    c_consts: np.ndarray
    continuity_ok: bool
    indefinite_gains: int
    zero_localized: int
    continuity_full_solves: int
    continuity_min_margin: float

    @property
    def mean_vanilla(self) -> float:
        return float(self.disc_vanilla.mean())

    @property
    def mean_localized(self) -> float:
        return float(self.disc_localized.mean())


@dataclass(frozen=True)
class AnalysisComparisonSummary:
    """The comparison's trials, in order, and the ``sampler`` that drew their fields.

    Callers compute every statistic but ``frac_localized_better`` from ``trials``.
    """

    trials: list[AnalysisComparison]
    sampler: str

    @property
    def frac_localized_better(self) -> float:
        return float(np.mean([t.mean_localized < t.mean_vanilla for t in self.trials]))


def compare_analysis_updates(
    kernel: KernelModel,
    mesh: Mesh,
    obs: ObservationModel,
    N: int,
    rule: ThresholdRule,
    trials: int,
    seed: int,
) -> AnalysisComparisonSummary:
    """Compare stochastic and localized analysis updates to the mean-field one.

    Each trial draws a forecast ensemble, one observation from a fresh truth
    draw, and per-particle noises shared across the three updates.  The
    localized update thresholds the leave-one-out covariance without PSD
    projection; the gain-continuity inequality is therefore checked on the
    vanilla leave-one-out covariance, the (always PSD) object the inequality
    is stated for.
    """
    if N < 2:
        raise EnkfError(f"need N >= 2 particles, got {N}")
    if trials < 1:
        raise EnkfError(f"need at least one trial, got {trials}")
    if obs.L != mesh.L:
        raise EnkfError("observation model does not match the mesh")
    cov = covariance_matrix(kernel, mesh)
    factor = factorize(cov)
    truth = _as_operator(cov)
    gain_true, _ = kalman_gain(cov.columns(obs.sites), obs)
    cov_op_norm = mesh.weight * spectral_norm(cov, seed=derive_seed(seed, 0xC0), tol=_NORM_TOL)
    w = mesh.weight
    results: list[AnalysisComparison] = []
    for t in range(trials):
        ens = sample_ensemble(factor, N, derive_seed(seed, t, 0), mesh)
        F = ens.fields
        u_truth = sample_ensemble(factor, 1, derive_seed(seed, t, 3), mesh).fields[0]
        rng = substream(seed, t, 1)
        y = u_truth[obs.sites] + obs.noise_std * rng.standard_normal(obs.d_y)
        etas = obs.noise_std * rng.standard_normal((N, obs.d_y))
        disc_v = np.empty(N)
        disc_l = np.empty(N)
        innov_norms = np.empty(N)
        c_consts = np.empty(N)
        continuity_ok = True
        indefinite = 0
        zero_localized = 0
        full_solves = 0
        min_margin = math.inf
        # one probe for every particle's continuity certificate
        v = substream(seed, t, 2).standard_normal(mesh.L)
        gram_v = F.T @ (F @ v)
        cov_v = truth.matvec(v)
        for n, loo, loo_thresh, _rho in loo_covariances(ens, rule, obs.sites):
            u = F[n]
            innov = y - u[obs.sites] - etas[n]
            gain_v, _ = kalman_gain(loo, obs)
            gain_l, indefinite_l = kalman_gain(loo_thresh, obs)
            delta_v = gain_v - gain_true
            indefinite += indefinite_l
            zero_localized += not loo_thresh.any()
            disc_v[n] = state_norm(delta_v @ innov, w)
            disc_l[n] = state_norm((gain_l - gain_true) @ innov, w)
            innov_norms[n] = float(np.linalg.norm(innov))
            c_consts[n] = obs.a_op_norm * obs.gamma_inv_norm * cov_op_norm * innov_norms[n]
            actual = gain_operator_norm(delta_v, w)
            certified = gain_continuity_bound(
                w * _probe_lower_bound(u, N, v, gram_v, cov_v), cov_op_norm, obs
            )
            if actual <= certified:
                min_margin = min(min_margin, certified / actual if actual else math.inf)
            else:
                full_solves += 1
                delta = w * spectral_norm(_gram(np.delete(F, n, axis=0), N - 1) - truth,
                                          seed=derive_seed(seed, t, 2, n), tol=_NORM_TOL)
                bound = gain_continuity_bound(delta, cov_op_norm, obs)
                if actual > bound * (1.0 + 1e-6):
                    continuity_ok = False
        results.append(AnalysisComparison(
            disc_vanilla=disc_v, disc_localized=disc_l,
            innovation_norms=innov_norms, c_consts=c_consts,
            continuity_ok=continuity_ok, indefinite_gains=indefinite,
            zero_localized=zero_localized,
            continuity_full_solves=full_solves, continuity_min_margin=min_margin,
        ))
    return AnalysisComparisonSummary(trials=results, sampler=factor.sampler)
