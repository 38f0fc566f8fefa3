"""Scaling quantities of the estimation theory.

This module computes discretized and asymptotic versions of the quantities
that drive the estimator error: the L^q sparsity level of the kernel, the
covariance operator norm, the effective rank, and the expected supremum of
the field.  The ``theory`` command reports them side by side per lengthscale
(:func:`scaling_report`).  The expected supremum keeps only the maxima of
fields drawn in blocks (:func:`expected_supremum_mc`), never an ensemble.

The small-lengthscale limits of R_q^q and of the operator norm each need one
radial integral of the unit-lengthscale kernel.  It is computed with numpy
alone, by a fixed composite Gauss-Legendre rule on panels graded
geometrically toward r = 0 (:func:`_radial_integral`), so importing this
module loads no ``scipy.integrate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimation import EstimationError, spectral_norm
from .kernels import KernelError, KernelModel, eval_kernel, half_width
from .sampling import (
    CovFactor,
    CovMatrix,
    Mesh,
    covariance_matrix,
    derive_seed,
    factorize,
    field_blocks,
    sample_ensemble,  # noqa: F401  perfbench's traced pass wraps theory.sample_ensemble by name
)

__all__ = [
    "ScalingReport",
    "sparsity_level",
    "sparsity_asymptotic",
    "operator_norm_asymptotic",
    "expected_supremum_mc",
    "supremum_scaling_prediction",
    "scaling_report",
]

# Surface area of the unit sphere in R^d for d = 1, 2, 3.
SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}

# The radial rule: relative tolerance of its self-check, the number of
# geometric panels, and the Gauss-Legendre nodes and weights on [-1, 1] of
# the checking order and of the returned one.
_EPSREL = 1e-10
_PANELS = 60
_GAUSS_LEGENDRE = [np.polynomial.legendre.leggauss(n) for n in (16, 32)]


def _check_q(q: float) -> None:
    if not (0.0 < q < 1.0):
        raise EstimationError(f"sparsity exponent q must lie in (0, 1), got {q!r}")


def _check_draws(M: int) -> None:
    if M < 2:
        raise EstimationError(f"need M >= 2 Monte Carlo fields, got {M}")


def sparsity_level(cov: CovMatrix, q: float) -> float:
    """Discretized R_q^q: max_i weight * sum_j |k(x_i, x_j)|^q.

    Returned as R_q^q (not R_q); callers exponentiate if they need R_q.
    Works from the first row of the truth, w = |row|^q: the row sums of a
    multilevel Toeplitz matrix are sum_j w[|i - j|], one axis at a time, and
    along one axis that is cs[i] + cs[m - 1 - i] - w[0] with cs the running
    sum of w.
    """
    _check_q(q)
    sums = (np.abs(cov.row) ** q).reshape((cov.mesh.m,) * cov.mesh.d)
    for axis in range(sums.ndim):
        cs = np.cumsum(sums, axis=axis)
        sums = cs + np.flip(cs, axis=axis) - np.take(sums, [0], axis=axis)
    return cov.mesh.weight * float(np.max(sums))


def _radial_integral(kernel: KernelModel, q: float, d: int) -> float:
    """integral_0^inf k_1(r)^q r^(d-1) dr by a composite Gauss-Legendre rule.

    r_max, found by doubling, is the first power of two with k_1(r_max)^q <=
    1e-16 (the kernel is strictly decreasing).  The panels [R 2^-(k+1), R 2^-k]
    for k = 0..59, plus [0, R 2^-60], with R = 4 r_max, cover the range and
    the tail beyond r_max; their geometric grading toward r = 0 resolves
    every accepted kernel there, SE and Matern nu = 1/2, 3/2 and 5/2.  The
    order-32 sum is returned, and the order-16 sum on the same panels checks
    it.
    """
    unit = KernelModel(kernel.family, 1.0, kernel.nu)
    r_max = 1.0
    for _ in range(80):
        if eval_kernel(unit, r_max) ** q <= 1e-16:
            break
        r_max *= 2.0
    else:
        raise KernelError("kernel decays too slowly for radial quadrature")
    edges = np.append(4.0 * r_max * 2.0 ** -np.arange(_PANELS + 1.0), 0.0)[:, None]
    half, mid = 0.5 * (edges[:-1] - edges[1:]), 0.5 * (edges[:-1] + edges[1:])
    sums = []
    for nodes, weights in _GAUSS_LEGENDRE:
        r = mid + half * nodes
        sums.append(float(np.sum(half * weights * eval_kernel(unit, r) ** q * r ** (d - 1))))
    coarse, fine = sums
    err = abs(coarse - fine) / fine
    if err > 100.0 * _EPSREL:
        raise EstimationError(
            f"radial quadrature did not reach epsrel={_EPSREL:g} "
            f"(estimated relative error {err:.2e})"
        )
    return fine


def sparsity_asymptotic(kernel: KernelModel, q: float, d: int) -> float:
    """Small-lengthscale limit of R_q^q: lam^d A(d) integral k_1(r)^q r^(d-1) dr.

    Accepts q = 1 as the operator-norm limit case.
    """
    if not (0.0 < q <= 1.0):
        raise EstimationError(f"q must lie in (0, 1], got {q!r}")
    if d not in SPHERE_AREA:
        raise EstimationError(f"dimension d must be 1, 2 or 3, got {d}")
    try:
        scale = kernel.lam**d
    except OverflowError:  # a huge lengthscale: the limit is beyond the float range
        scale = math.inf
    return scale * SPHERE_AREA[d] * _radial_integral(kernel, q, d)


def operator_norm_asymptotic(kernel: KernelModel, d: int) -> float:
    """Small-lengthscale covariance operator norm: the q = 1 sparsity limit."""
    return sparsity_asymptotic(kernel, 1.0, d)


def expected_supremum_mc(
    factor: CovFactor, mesh: Mesh, M: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate (mean, stderr) of the expected field supremum.

    Draws the M fields of ``sample_ensemble(factor, M, seed, mesh)`` block by
    block and keeps only their maxima, so memory grows with M by M numbers.
    """
    _check_draws(M)
    sups = np.concatenate([block.max(axis=1) for block in field_blocks(factor, M, seed, mesh)])
    mean = float(sups.mean())
    stderr = float(sups.std(ddof=1) / math.sqrt(M))
    return mean, stderr


def supremum_scaling_prediction(kernel: KernelModel, d: int) -> float:
    """sqrt(d log(sqrt(d) / (s lam))) with s the kernel half-width.

    Valid only where the logarithm is positive (lam < sqrt(d) / s); raises
    otherwise, since the scaling statement does not apply there.
    """
    if d not in SPHERE_AREA:
        raise EstimationError(f"dimension d must be 1, 2 or 3, got {d}")
    s = half_width(kernel)
    arg = math.sqrt(d) / (s * kernel.lam)
    if arg <= 1.0:
        raise EstimationError(
            f"lengthscale {kernel.lam} is outside the scaling regime "
            f"(needs lam < sqrt(d)/s = {math.sqrt(d) / s:.6g})"
        )
    return math.sqrt(d * math.log(arg))


@dataclass(frozen=True)
class ScalingReport:
    """Discretized vs asymptotic scaling quantities at one lengthscale.

    ``esup_prediction`` is NaN when the lengthscale lies outside the validity
    region of the supremum scaling law.
    """

    lam: float
    Rq_q: float
    Rq_q_asymptotic: float
    op_norm: float
    op_norm_asymptotic: float
    eff_rank: float
    esup_mc: float
    esup_prediction: float

    def csv_row(self) -> str:
        return ",".join(repr(float(v)) for v in (
            self.lam, self.Rq_q, self.Rq_q_asymptotic, self.op_norm,
            self.op_norm_asymptotic, self.eff_rank, self.esup_mc, self.esup_prediction,
        ))


def scaling_report(
    kernel: KernelModel, mesh: Mesh, q: float, M: int, seed: int
) -> ScalingReport:
    """Assemble every scaling quantity for one (kernel, mesh) pair.

    One covariance assembly and one spectral norm serve R_q^q, the operator
    norm and the effective rank r(C) = Tr / norm (weights cancel in the ratio;
    the unit diagonal makes the trace L).
    """
    cov = covariance_matrix(kernel, mesh)
    Rq_q = sparsity_level(cov, q)
    factor = factorize(cov)
    mat_norm = spectral_norm(cov, seed=derive_seed(seed, 1))
    esup, _ = expected_supremum_mc(factor, mesh, M, derive_seed(seed, 2))
    try:
        prediction = supremum_scaling_prediction(kernel, mesh.d)
    except EstimationError:
        prediction = math.nan
    return ScalingReport(
        lam=kernel.lam,
        Rq_q=Rq_q,
        Rq_q_asymptotic=sparsity_asymptotic(kernel, q, mesh.d),
        op_norm=mesh.weight * mat_norm,
        op_norm_asymptotic=operator_norm_asymptotic(kernel, mesh.d),
        eff_rank=float(mesh.L) / mat_norm,
        esup_mc=esup,
        esup_prediction=prediction,
    )

