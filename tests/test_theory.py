import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from _helpers import dense_truth, make_ensemble, make_mesh, supnorm_errors, threshold_ratios
from opcov.estimation import EstimationError, ThresholdRule, sample_covariance
from opcov.kernels import eval_kernel, matern_kernel, se_kernel
from opcov.sampling import build_mesh, covariance_matrix, factorize, sample_ensemble
from opcov.theory import (
    ScalingReport,
    expected_supremum_mc,
    operator_norm_asymptotic,
    scaling_report,
    sparsity_asymptotic,
    sparsity_level,
    supremum_scaling_prediction,
)

# Frozen from the pre-build scan of (1 + sqrt(3) s) exp(-sqrt(3) s) = 1/2.
MATERN32_HALF_WIDTH = 0.96899409


def gauss_legendre_radial(kernel, q, d, r_max, n):
    """Independent fixed-order quadrature oracle for the radial integral."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    edges = np.linspace(0.0, r_max, n + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        total += 0.5 * (b - a) * np.sum(weights * eval_kernel(kernel, x) ** q * x ** (d - 1))
    return total


# ---------------------------------------------------------------------------
# sparsity level and asymptotics
# ---------------------------------------------------------------------------


def test_sparsity_level_diagonal_limit():
    # off-diagonal entries underflow to machine zero: only the diagonal is left
    mesh = build_mesh(1, 4)
    got = sparsity_level(covariance_matrix(se_kernel(1e-8), mesh), q=0.5)
    assert got == pytest.approx(mesh.weight, abs=1e-15)


def test_sparsity_level_approaches_l1_bound_as_q_to_1():
    mesh = build_mesh(1, 200)
    kernel = se_kernel(0.05)
    cov = covariance_matrix(kernel, mesh)
    got = sparsity_level(cov, q=1 - 1e-7)
    row_sum_bound = mesh.weight * float(np.max(np.sum(np.abs(dense_truth(cov)), axis=1)))
    assert got == pytest.approx(row_sum_bound, abs=1e-6)


def test_sparsity_level_matches_asymptotic_at_small_lengthscale():
    mesh = build_mesh(1, 1250)
    kernel = se_kernel(0.01)
    got = sparsity_level(covariance_matrix(kernel, mesh), q=0.5)
    want = sparsity_asymptotic(kernel, 0.5, 1)
    assert abs(got - want) / want < 0.05


@pytest.mark.parametrize("d,m", [(1, 40), (1, 41), (2, 9), (2, 12), (3, 5)])
@pytest.mark.parametrize("kernel", [se_kernel(0.1), se_kernel(0.02), matern_kernel(0.2, 1.5)],
                         ids=["se-0.1", "se-0.02", "matern-0.2"])
@pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
def test_sparsity_level_matches_dense_row_sums(d, m, kernel, q):
    mesh = build_mesh(d, m)
    cov = covariance_matrix(kernel, mesh)
    want = mesh.weight * float(np.max(np.sum(np.abs(dense_truth(cov)) ** q, axis=1)))
    assert sparsity_level(cov, q) == pytest.approx(want, rel=1e-12)


def test_sparsity_level_rejects_bad_q():
    cov = covariance_matrix(se_kernel(0.1), build_mesh(1, 4))
    for q in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(EstimationError):
            sparsity_level(cov, q)


def test_sparsity_asymptotic_closed_forms():
    lam = 0.037
    assert sparsity_asymptotic(se_kernel(lam), 1.0, 1) == pytest.approx(
        lam * math.sqrt(2 * math.pi), rel=1e-8
    )
    # d=2, q=0.25: integral of exp(-q r^2 / 2) r dr = 1/q
    assert sparsity_asymptotic(se_kernel(lam), 0.25, 2) == pytest.approx(
        lam**2 * 2 * math.pi * 4.0, rel=1e-8
    )


def test_sparsity_asymptotic_of_a_huge_lengthscale_is_inf():
    # lam^d is beyond the float range
    assert sparsity_asymptotic(se_kernel(1e300), 0.5, 2) == math.inf
    assert sparsity_asymptotic(se_kernel(1e300), 0.5, 1) == pytest.approx(
        1e300 * 2 * math.sqrt(math.pi), rel=1e-8
    )


def test_operator_norm_asymptotic_closed_forms():
    lam = 0.02
    assert operator_norm_asymptotic(se_kernel(lam), 1) == pytest.approx(
        lam * math.sqrt(2 * math.pi), rel=1e-8
    )
    assert operator_norm_asymptotic(se_kernel(lam), 2) == pytest.approx(
        2 * math.pi * lam**2, rel=1e-8
    )


def test_matern_radial_integral_against_doubled_resolution_oracle():
    kernel = matern_kernel(1.0, 1.5)
    # r_max wide enough that the tail is negligible at q = 0.5
    coarse = gauss_legendre_radial(kernel, 0.5, 1, r_max=60.0, n=200)
    fine = gauss_legendre_radial(kernel, 0.5, 1, r_max=60.0, n=400)
    assert coarse == pytest.approx(fine, rel=1e-10)  # oracle self-consistent
    got = sparsity_asymptotic(kernel, 0.5, 1)
    assert got == pytest.approx(2.0 * fine, rel=1e-6)
    # q = 1 has the closed form 2/sqrt(3) for this family
    assert operator_norm_asymptotic(kernel, 1) == pytest.approx(
        2.0 * 2.0 / math.sqrt(3.0), rel=1e-10
    )


@pytest.mark.parametrize("kernel", [se_kernel(1.0), *(matern_kernel(1.0, nu) for nu in (
    0.5, 1.5, 2.5))], ids=lambda k: f"{k.family}-{k.nu}")
def test_radial_rule_matches_adaptive_quadrature(kernel):
    sphere = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}
    for q in (0.1, 0.25, 0.5, 0.9, 1.0):
        for d in (1, 2, 3):
            integral, _ = quad(lambda r: eval_kernel(kernel, r) ** q * r ** (d - 1), 0.0, np.inf,
                               epsabs=0.0, epsrel=1e-12, limit=1000)
            got = sparsity_asymptotic(kernel, q, d)
            assert got == pytest.approx(sphere[d] * integral, rel=1e-11), (q, d)


def test_radial_rule_raises_when_its_orders_disagree(monkeypatch):
    # a step at r = 0.3 falls inside the panel [0.25, 0.5], where the order-16
    # and order-32 sums differ far beyond the self-check's 1e-8
    monkeypatch.setattr("opcov.theory.eval_kernel",
                        lambda kernel, r: np.where(np.asarray(r) < 0.3, 1.0, 0.0))
    with pytest.raises(EstimationError, match=r"did not reach epsrel=1e-10 \(estimated"):
        sparsity_asymptotic(se_kernel(0.1), 0.5, 1)


def cq_constant(kernel, q, d):
    """C_q, the ratio of the radial integrals at exponents q and 1: lam^d A(d) cancels."""
    return sparsity_asymptotic(kernel, q, d) / sparsity_asymptotic(kernel, 1.0, d)


def test_cq_constant_closed_forms():
    # for the squared exponential C_q = q^(-d/2)
    for q in (0.1, 0.25, 0.5, 0.9):
        assert cq_constant(se_kernel(0.3), q, 1) == pytest.approx(q**-0.5, rel=1e-8)
        assert cq_constant(se_kernel(0.3), q, 2) == pytest.approx(1.0 / q, rel=1e-8)


def test_cq_constant_matern_cross_check():
    kernel = matern_kernel(1.0, 1.5)
    num = gauss_legendre_radial(kernel, 0.5, 1, r_max=60.0, n=400)
    den = gauss_legendre_radial(kernel, 1.0, 1, r_max=60.0, n=400)
    assert cq_constant(kernel, 0.5, 1) == pytest.approx(num / den, rel=1e-6)


# ---------------------------------------------------------------------------
# effective rank
# ---------------------------------------------------------------------------


def test_effective_rank_identity_and_rank_one():
    # lambda -> 0 gives the identity (rank L), lambda -> inf the all-ones matrix
    mesh = build_mesh(1, 9)
    tiny = scaling_report(se_kernel(1e-8), mesh, q=0.5, M=2, seed=0)
    assert tiny.eff_rank == pytest.approx(9.0, rel=1e-9)
    wide = scaling_report(se_kernel(1e8), build_mesh(1, 6), q=0.5, M=2, seed=0)
    assert wide.eff_rank == pytest.approx(1.0, rel=1e-9)


def test_effective_rank_se_small_lengthscale():
    mesh = build_mesh(1, 1250)
    got = scaling_report(se_kernel(0.01), mesh, q=0.5, M=2, seed=0).eff_rank
    want = 1.0 / (0.01 * math.sqrt(2 * math.pi))
    assert abs(got - want) / want < 0.10


def test_effective_rank_scales_inversely_with_lengthscale():
    mesh = build_mesh(1, 1250)
    lams = [10**-1.5, 10**-2.0, 10**-2.5, 10**-3.0]
    ranks = [scaling_report(se_kernel(l), mesh, q=0.5, M=2, seed=0).eff_rank for l in lams]
    slope = np.polyfit(np.log(1.0 / np.array(lams)), np.log(ranks), 1)[0]
    assert 0.9 <= slope <= 1.1


# ---------------------------------------------------------------------------
# expected supremum
# ---------------------------------------------------------------------------


def test_expected_supremum_single_point_mesh():
    mesh = make_mesh(1)
    factor = factorize(covariance_matrix(se_kernel(0.1), mesh))
    M = 4000
    mean, stderr = expected_supremum_mc(factor, mesh, M, seed=5)
    assert abs(mean) <= 4.0 / math.sqrt(M)
    assert stderr == pytest.approx(1.0 / math.sqrt(M), rel=0.2)


def test_expected_supremum_matches_iid_oracle():
    # lambda -> 0 on a 16-point mesh makes the covariance exactly the identity,
    # so the supremum is the max of 16 iid standard normals; brute-force MC.
    mesh = build_mesh(1, 16)
    kernel = se_kernel(1e-8)
    assert np.array_equal(dense_truth(covariance_matrix(kernel, mesh)), np.eye(16))
    mean, stderr = expected_supremum_mc(
        factorize(covariance_matrix(kernel, mesh)), mesh, 20_000, seed=77
    )
    rng = np.random.default_rng(123456)
    draws = rng.standard_normal((1_000_000, 16)).max(axis=1)
    oracle = draws.mean()
    oracle_se = draws.std(ddof=1) / 1000.0
    assert abs(mean - oracle) <= 4.0 * math.hypot(stderr, oracle_se)


def test_sup_mean_of_large_ensemble_matches_mc():
    # the ensemble statistic and the MC estimator must agree within noise
    mesh = build_mesh(1, 1250)
    kernel = se_kernel(0.01)
    factor = factorize(covariance_matrix(kernel, mesh))
    ens = sample_ensemble(factor, 500, seed=901, mesh=mesh)
    s_bar = float(ens.sups.mean())
    s_se = float(ens.sups.std(ddof=1)) / math.sqrt(500)
    mc, mc_se = expected_supremum_mc(factor, mesh, 2000, seed=902)
    assert abs(s_bar - mc) <= 3.0 * math.hypot(s_se, mc_se)


# the four cells of the sampling thread test, a d = 3 first-axis cell (21
# pairs per draw block) and a Kronecker cell of 16 fields per block; the
# last entry says whether 61 fields cross a block edge (Cholesky draws one
# block, and Kronecker at L = 1024 blocks of 64 fields)
_SUP_CELLS = [((2, 32), se_kernel(0.3), "kronecker", False),
              ((2, 32), matern_kernel(0.02, 1.5), "circulant", True),
              ((2, 32), matern_kernel(0.8, 1.5), "block-circulant", True),
              ((2, 5), matern_kernel(0.8, 1.5), "cholesky", False),
              ((3, 8), matern_kernel(0.5, 1.5), "block-circulant", True),
              ((2, 64), se_kernel(0.02), "kronecker", True)]


@pytest.mark.parametrize("M", [9, 61])
@pytest.mark.parametrize("dm,kernel,sampler,crosses", _SUP_CELLS,
                         ids=[f"{s}-d{dm[0]}m{dm[1]}" for dm, _, s, _ in _SUP_CELLS])
def test_streamed_suprema_are_the_ensemble_suprema(dm, kernel, sampler, crosses, M):
    # the supremum estimate keeps only each block's row maxima; they are the
    # ensemble's sups bit for bit, and so are its mean and stderr
    from opcov.sampling import field_blocks

    mesh = build_mesh(*dm)
    factor = factorize(covariance_matrix(kernel, mesh))
    assert factor.sampler == sampler
    sups = sample_ensemble(factor, M, seed=17, mesh=mesh).sups
    blocks = list(field_blocks(factor, M, 17, mesh))
    assert (len(blocks) > 1) == (crosses and M == 61)
    assert np.array_equal(np.concatenate([b.max(axis=1) for b in blocks]), sups)
    mean, stderr = expected_supremum_mc(factor, mesh, M, seed=17)
    assert mean == float(sups.mean())
    assert stderr == float(sups.std(ddof=1) / math.sqrt(M))


def test_expected_supremum_memory_does_not_grow_with_the_draws():
    # d = 1, m = 1250 (the theory benchmark's mesh): from 200 to 20,000 fields
    # the traced peak grows by under 64 bytes a field, where a held field
    # takes 8 L = 10 kB, and stays below 5% of the 8 M L bytes of the ensemble
    import tracemalloc

    mesh = build_mesh(1, 1250)
    factor = factorize(covariance_matrix(se_kernel(0.01), mesh))
    peaks = {}
    for M in (200, 20_000):
        tracemalloc.start()
        try:
            expected_supremum_mc(factor, mesh, M, seed=3)
            peaks[M] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[20_000] - peaks[200] < 64 * (20_000 - 200)
    assert peaks[20_000] < 0.05 * 8 * 20_000 * mesh.L


def test_supremum_prediction_arranged_values():
    s = math.sqrt(2 * math.log(2))
    assert supremum_scaling_prediction(se_kernel(1 / (math.e * s)), 1) == pytest.approx(1.0, rel=1e-12)
    lam2 = math.sqrt(2) / (math.e**2 * s)
    assert supremum_scaling_prediction(se_kernel(lam2), 2) == pytest.approx(2.0, rel=1e-12)


def test_supremum_prediction_matern_uses_derived_half_width():
    lam = 1e-3
    want = math.sqrt(math.log(1.0 / (MATERN32_HALF_WIDTH * lam)))
    assert supremum_scaling_prediction(matern_kernel(lam, 1.5), 1) == pytest.approx(
        want, rel=1e-7
    )


def test_supremum_prediction_rejects_large_lengthscale():
    with pytest.raises(EstimationError, match="regime"):
        supremum_scaling_prediction(se_kernel(2.0), 1)


def test_supremum_ratio_band_over_decades():
    # two-decade sweep: MC mean over prediction stays in a fixed band
    mesh = build_mesh(1, 1250)
    ratios = []
    for i, lam in enumerate((1e-1, 1e-2, 1e-3)):
        kernel = se_kernel(lam)
        factor = factorize(covariance_matrix(kernel, mesh))
        mean, _ = expected_supremum_mc(factor, mesh, 500, seed=40 + i)
        ratios.append(mean / supremum_scaling_prediction(kernel, 1))
    assert all(0.7 <= r <= 1.4 for r in ratios)


# ---------------------------------------------------------------------------
# concentration experiments
# ---------------------------------------------------------------------------


def test_zero_sample_guard_statistic():
    # single all-zero field: khat = 0 and the sup error equals max |k| = 1
    ens = make_ensemble(np.zeros((1, 8)))
    khat = sample_covariance(ens)
    truth = covariance_matrix(se_kernel(0.2), build_mesh(1, 8))
    assert np.max(np.abs(khat - dense_truth(truth))) == 1.0


def test_supnorm_experiment_large_sample_limit():
    # Both the sup error and rho_N scale as 1/sqrt(N), so the normalized
    # statistic is N-stable; the sanity check at N -> infinity is that it
    # stays within the contract bound, not that it vanishes.
    mesh = build_mesh(1, 8)
    max_all, max_column = supnorm_errors(se_kernel(0.3), mesh, N=100_000, trials=30, seed=17,
                                         esup_samples=2000)
    q99 = np.quantile(max_all, 0.99)
    assert q99 <= 10.0
    assert np.quantile(max_column, 0.99) <= q99
    small_n, _ = supnorm_errors(se_kernel(0.3), mesh, N=1000, trials=30, seed=17,
                                esup_samples=2000)
    assert 0.5 <= q99 / np.quantile(small_n, 0.99) <= 2.0


def test_supnorm_experiment_stability_across_master_seeds():
    mesh = build_mesh(1, 200)
    q90s = []
    for seed in range(5):
        max_all, _ = supnorm_errors(se_kernel(0.05), mesh, N=50, trials=100, seed=1000 + seed,
                                    esup_samples=2000)
        q90s.append(np.quantile(max_all, 0.90))
    cv = np.std(q90s, ddof=1) / np.mean(q90s)
    assert cv < 0.3
    assert all(math.isfinite(v) for v in q90s)


def test_threshold_concentration_near_one():
    # P[rho_hat < rho_N / 2] <= 2 exp(-N min(rho_N, rho_N^2) / 8), plus a
    # Monte Carlo allowance of 3 / sqrt(trials)
    mesh = build_mesh(1, 200)
    N, trials = 400, 100
    ratios, rho_N = threshold_ratios(se_kernel(0.05), mesh, N=N, rule=ThresholdRule(c0=1.0),
                                     trials=trials, seed=3, esup_samples=4000)
    assert 0.9 <= ratios.mean() <= 1.1
    assert np.all(ratios >= 0.5)
    bound = 2.0 * math.exp(-N * min(rho_N, rho_N * rho_N) / 8.0) + 3.0 / math.sqrt(trials)
    assert np.mean(ratios < 0.5) <= bound


def test_threshold_concentration_degenerate_single_sample():
    mesh = build_mesh(1, 64)
    ratios, _ = threshold_ratios(se_kernel(0.1), mesh, N=1, rule=ThresholdRule(c0=1.0),
                                 trials=50, seed=9, esup_samples=1000)
    assert math.isfinite(ratios.mean())
    assert ratios.mean() < 20.0


# ---------------------------------------------------------------------------
# scaling report
# ---------------------------------------------------------------------------


def test_scaling_report_fields_consistent():
    mesh = build_mesh(1, 312)
    report = scaling_report(se_kernel(0.02), mesh, q=0.5, M=200, seed=1)
    assert report.lam == 0.02
    assert abs(report.Rq_q - report.Rq_q_asymptotic) / report.Rq_q_asymptotic < 0.1
    assert abs(report.op_norm - report.op_norm_asymptotic) / report.op_norm_asymptotic < 0.1
    assert report.eff_rank > 1.0
    assert report.esup_mc > 0.0
    assert math.isfinite(report.esup_prediction)
    row = report.csv_row()
    assert len(row.split(",")) == len(dataclasses.fields(ScalingReport))


def test_scaling_report_marks_invalid_prediction_as_nan():
    mesh = build_mesh(1, 32)
    report = scaling_report(se_kernel(5.0), mesh, q=0.5, M=64, seed=2)
    assert math.isnan(report.esup_prediction)
