import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.sparse.linalg import LinearOperator

from _helpers import dense_truth, make_ensemble, spectral_norm_dense
from opcov import enkf, estimation, sampling
from opcov.estimation import (
    EstimationError,
    EstimatorReport,
    SpectralNormError,
    ThresholdRule,
    estimate_and_report,
    hard_threshold,
    min_eigenvalue,
    relative_error,
    sample_covariance,
    spectral_norm,
    threshold_parameter,
)
from opcov.kernels import matern_kernel, se_kernel
from opcov.sampling import build_mesh, covariance_matrix, derive_seed, factorize, sample_ensemble


def cov(entries):
    return np.asarray(entries, dtype=float)


# ---------------------------------------------------------------------------
# threshold rule and parameter
# ---------------------------------------------------------------------------


def test_rule_validation():
    with pytest.raises(EstimationError):
        ThresholdRule(c0=0.5)
    with pytest.raises(EstimationError):
        ThresholdRule(c0=2.0, form="soft")
    ThresholdRule(c0=1.0, form="simplified")


def test_threshold_parameter_zero_sup_hits_1_over_N():
    ens = make_ensemble(np.zeros((4, 3)))
    assert threshold_parameter(ens, ThresholdRule(c0=1.0, form="full")) == 0.25


def test_threshold_parameter_arithmetic():
    fields = np.zeros((4, 3))
    fields[:, 0] = 2.0  # every sup equals 2
    ens = make_ensemble(fields)
    assert threshold_parameter(ens, ThresholdRule(c0=1.0, form="full")) == 1.0
    assert threshold_parameter(ens, ThresholdRule(c0=5.0, form="simplified")) == 5.0


def test_full_form_restricts_prefactor():
    ens = make_ensemble(np.zeros((4, 3)))
    with pytest.raises(EstimationError, match="sqrt"):
        threshold_parameter(ens, ThresholdRule(c0=5.0, form="full"))
    # simplified deliberately allows the same prefactor at the same N
    threshold_parameter(ens, ThresholdRule(c0=5.0, form="simplified"))


def test_simplified_clamps_negative_sup_mean():
    fields = -np.ones((3, 2))
    assert threshold_parameter(make_ensemble(fields), ThresholdRule(5.0, "simplified")) == 0.0


def test_population_threshold_matches_sample_formula():
    # rho_N: the rule applied to the expected supremum instead of the sample mean
    rule = ThresholdRule(c0=2.0, form="full")
    assert rule.rho(2.0, 4) == 2.0 * max(0.25, 1.0, 1.0)
    assert rule.rho(0.0, 4) == 0.5


# ---------------------------------------------------------------------------
# sample covariance
# ---------------------------------------------------------------------------


def test_sample_covariance_rank_one():
    ens = make_ensemble([[1.0, -1.0]])
    got = sample_covariance(ens)
    assert np.array_equal(got, [[1.0, -1.0], [-1.0, 1.0]])


def test_sample_covariance_zero_fields():
    ens = make_ensemble(np.zeros((5, 4)))
    assert np.array_equal(sample_covariance(ens), np.zeros((4, 4)))


def test_sample_covariance_optional_centering():
    # no mean subtraction: a caller who wants it centers the fields first
    fields = np.array([[1.0, 1.0], [3.0, 3.0]])
    raw = sample_covariance(make_ensemble(fields))
    centered = sample_covariance(make_ensemble(fields - fields.mean(axis=0)))
    assert raw[0, 0] == 5.0
    assert centered[0, 0] == 1.0


def test_sample_covariance_monte_carlo():
    mesh = build_mesh(1, 4)
    truth = covariance_matrix(se_kernel(0.5), mesh)
    N = 100_000
    ens = sample_ensemble(factorize(truth), N, seed=31, mesh=mesh)
    got = sample_covariance(ens)
    C = dense_truth(truth)
    sigma = np.sqrt((np.outer(np.diag(C), np.diag(C)) + C**2) / N)
    assert np.all(np.abs(got - C) <= 5 * sigma)


def test_sample_covariance_is_psd():
    mesh = build_mesh(1, 16)
    truth = covariance_matrix(se_kernel(0.2), mesh)
    factor = factorize(truth)
    for seed in range(3):
        sc = sample_covariance(sample_ensemble(factor, 6, seed=seed, mesh=mesh))
        norm = spectral_norm_dense(sc)
        assert np.min(np.linalg.eigvalsh(sc)) >= -1e-10 * norm


# ---------------------------------------------------------------------------
# hard threshold
# ---------------------------------------------------------------------------


def test_hard_threshold_zero_rho_is_identity():
    x = cov([[1.0, 0.2], [0.2, 1.0]])
    assert np.array_equal(hard_threshold(x, 0.0), x)


def test_hard_threshold_keeps_boundary_ties():
    x = cov([[1.0, 0.3], [0.3, 1.0]])
    assert np.array_equal(hard_threshold(x, 0.3), x)


def test_hard_threshold_keeps_diagonal_only():
    x = cov([[1.0, 0.4, -0.2], [0.4, 1.0, 0.1], [-0.2, 0.1, 1.0]])
    got = hard_threshold(x, 0.5)
    assert np.array_equal(got, np.eye(3))


def test_hard_threshold_rejects_negative_rho():
    with pytest.raises(EstimationError):
        hard_threshold(cov(np.eye(2)), -0.1)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), rho=st.floats(0.0, 2.0))
def test_hard_threshold_idempotent_and_symmetric(seed, rho):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(5, 5))
    x = cov(0.5 * (a + a.T))
    once = hard_threshold(x, rho)
    twice = hard_threshold(once, rho)
    assert np.array_equal(once, twice)
    assert np.array_equal(once, once.T)
    # entrywise: a block of columns thresholds to those columns of the result
    assert np.array_equal(hard_threshold(x[:, [0, 3]], rho), once[:, [0, 3]])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), rho1=st.floats(0.0, 1.0), rho2=st.floats(0.0, 1.0))
def test_hard_threshold_monotone_in_rho(seed, rho1, rho2):
    lo, hi = min(rho1, rho2), max(rho1, rho2)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(6, 6))
    x = cov(0.5 * (a + a.T))
    survived_hi = hard_threshold(x, hi) != 0
    survived_lo = hard_threshold(x, lo) != 0
    assert np.all(survived_lo | ~survived_hi)  # hi survivors subset of lo survivors


# ---------------------------------------------------------------------------
# spectral norms
# ---------------------------------------------------------------------------


def test_spectral_norm_examples():
    assert spectral_norm(cov(np.diag([3.0, -5.0, 1.0]))) == pytest.approx(5.0, rel=1e-12)
    assert spectral_norm(cov(np.eye(17))) == pytest.approx(1.0, rel=1e-12)
    assert spectral_norm(cov(np.zeros((4, 4)))) == 0.0
    for n in (3, 100):  # eigvalsh of the built columns, then ARPACK
        diag = np.resize([3.0, -5.0, 1.0], n)
        op = LinearOperator((n, n), matvec=lambda v: diag * v, dtype=float)
        assert spectral_norm(op) == pytest.approx(5.0, rel=1e-12)
        assert min_eigenvalue(op) == pytest.approx(-5.0, rel=1e-12)


def test_zero_operand_at_arpack_size():
    # ARPACK rejects a start vector the operator maps to zero; the answers
    # stay exact
    n = 100
    truth = covariance_matrix(se_kernel(0.05), build_mesh(1, n))
    zero_op = LinearOperator((n, n), matvec=lambda v: np.zeros(n), dtype=float)
    for zero in (np.zeros((n, n)), zero_op):
        assert spectral_norm(zero, seed=3) == 0.0
        assert min_eigenvalue(zero, seed=3) == 0.0
    assert relative_error(np.zeros((n, n)), truth) == 1.0
    # est = truth makes the difference operator zero
    assert relative_error(truth, truth) == 0.0
    C = dense_truth(truth)
    assert relative_error(C, C) == 0.0
    same = LinearOperator((n, n), matvec=lambda v: C @ v, dtype=float)
    assert relative_error(same, C) == 0.0


def test_spectral_norm_matches_dense_oracle():
    rng = np.random.default_rng(11)
    for trial in range(25):
        L = int(rng.integers(5, 101))
        a = rng.normal(size=(L, L))
        sym = 0.5 * (a + a.T)
        want = spectral_norm_dense(sym)
        got = spectral_norm(sym, seed=trial)
        assert abs(got - want) <= 1e-8 * want


def test_spectral_norm_deterministic_given_seed():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(40, 40))
    sym = 0.5 * (a + a.T)
    assert spectral_norm(sym, seed=5) == spectral_norm(sym, seed=5)


def test_spectral_norm_nonconvergence_reports_state(monkeypatch):
    # a clustered spectrum with an absurdly small restart cap; the error
    # names the solve, the tolerance, the cap and the order
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.normal(size=(100, 100)))
    vals = np.linspace(0.99999, 1.0, 100)
    sym = (q * vals) @ q.T
    monkeypatch.setattr(estimation, "_MAXITER", 1)
    with pytest.raises(SpectralNormError, match=r"\(LM\).*tol=1e-09 within 1 restarts.*order 100"):
        spectral_norm(0.5 * (sym + sym.T), seed=0)
    # at order 64 and below the built matrix goes to eigvalsh, which has no cap
    small = 0.5 * (sym[:64, :64] + sym[:64, :64].T)
    assert spectral_norm(small, seed=0) == spectral_norm_dense(small)


def test_clustered_spectrum_converges_without_dense():
    # a small-lengthscale truth: its top eigenvalues cluster, and the 1e-9
    # certificate takes hundreds of matvecs; ARPACK reaches it from the
    # operator's action alone
    L = 300
    truth = covariance_matrix(se_kernel(1e-3), build_mesh(1, L))
    sym = dense_truth(truth)
    vals = np.linalg.eigvalsh(sym)
    want = float(np.max(np.abs(vals)))
    calls = []
    op = LinearOperator((L, L), matvec=lambda v: calls.append(1) or sym @ v, dtype=float)
    assert abs(spectral_norm(op) - want) <= 1e-12 * want
    assert len(calls) > 128
    assert abs(spectral_norm(truth) - want) <= 1e-12 * want
    assert min_eigenvalue(sym) == pytest.approx(vals[0], rel=1e-12)
    half = 0.5 * np.eye(L)
    got = relative_error(cov(sym), cov(half), truth_norm=0.5)
    assert got == pytest.approx(spectral_norm_dense(sym - half) / 0.5, rel=1e-12)


@pytest.fixture(scope="module")
def small_lengthscale_truths():
    out = []
    for kernel in (se_kernel(1e-3), matern_kernel(1e-3, 1.5), se_kernel(5e-4),
                   matern_kernel(5e-4, 1.5)):
        truth = covariance_matrix(kernel, build_mesh(1, 1250))
        out.append((truth, spectral_norm_dense(truth)))
    return out


@pytest.mark.parametrize("seed", range(6))
def test_small_lengthscale_truth_norm_is_exact(seed, small_lengthscale_truths):
    # the smallest fig1 lengthscales cluster the top eigenvalues about 1e-5
    # apart; the norm starts from the sine vector, and restarts draw from
    # the seed
    for truth, want in small_lengthscale_truths:
        assert abs(spectral_norm(truth, seed=seed) - want) <= 1e-12 * want


@pytest.mark.parametrize("d, m, lam", [(2, 64, 0.02), (3, 16, 0.05)])
def test_multilevel_truth_norm_is_exact(d, m, lam):
    # the sine start over every axis.  An SE truth is the d-fold Kronecker
    # power of its d = 1 truth, so its norm is the d-th power of that one's
    # (a dense solve at L = 4096 takes ~12 s on one BLAS thread)
    truth = covariance_matrix(se_kernel(lam), build_mesh(d, m))
    want = spectral_norm_dense(covariance_matrix(se_kernel(lam), build_mesh(1, m))) ** d
    assert abs(spectral_norm(truth) - want) <= 1e-12 * want


def test_truth_min_eigenvalue_keeps_random_start():
    # at these even m the bottom eigenvector is antisymmetric, so a Lanczos
    # run from the symmetric sine vector would miss it
    for m, kernel in ((200, se_kernel(0.005)), (100, matern_kernel(0.02, 1.5))):
        truth = covariance_matrix(kernel, build_mesh(1, m))
        want = float(np.linalg.eigvalsh(dense_truth(truth))[0])
        assert min_eigenvalue(truth, seed=1) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_enkf_truth_norm_matvec_budget(seed, monkeypatch):
    # the EnKF's ||C|| at its tolerance: 161 FFT matvecs from the sine start,
    # 737-801 from a random one
    calls = []
    real = estimation.covariance_matvec

    def counting(cov):
        matvec = real(cov)
        return lambda v: calls.append(1) or matvec(v)

    monkeypatch.setattr(estimation, "covariance_matvec", counting)
    truth = covariance_matrix(se_kernel(1e-3), build_mesh(1, 1250))
    spectral_norm(truth, seed=derive_seed(seed, 0xC0), tol=enkf._NORM_TOL)
    assert 0 < len(calls) <= 256


def test_mesh_truth_norm_takes_no_dense_product():
    # a truth whose entries field is not a matrix has the norm of the dense
    # oracle, and the products, columns, extreme eigenvalues, errors and
    # R_q^q of the truth itself.  The SE cell's smallest eigenvalues sit at
    # rounding level, where ARPACK's relative tolerance is never met, so only
    # the well-conditioned cell asks for the smallest one.
    from opcov.theory import sparsity_level

    for d, m, kernel, well_conditioned in ((1, 200, se_kernel(0.01), False),
                                           (2, 12, matern_kernel(0.1, 1.5), True)):
        truth = covariance_matrix(kernel, build_mesh(d, m))
        guarded = dataclasses.replace(truth, entries=object())
        want = spectral_norm_dense(truth)
        assert abs(spectral_norm(guarded, seed=2) - want) <= 1e-12 * want
        v = np.random.default_rng(5).standard_normal(truth.L)
        assert np.array_equal(sampling.covariance_matvec(guarded)(v),
                              sampling.covariance_matvec(truth)(v))
        cols = [0, truth.L - 1]
        assert np.array_equal(guarded.columns(cols), truth.columns(cols))
        if well_conditioned:
            assert min_eigenvalue(guarded, seed=2) == min_eigenvalue(truth, seed=2)
        S = sample_covariance(sample_ensemble(factorize(truth), 9, seed=3, mesh=truth.mesh))
        assert relative_error(S, guarded, seed=2) == relative_error(S, truth, seed=2)
        assert sparsity_level(guarded, 0.5) == sparsity_level(truth, 0.5)


@pytest.mark.parametrize("d,m,kernel,sampler", [
    (2, 32, se_kernel(0.3), "kronecker"),
    (2, 32, matern_kernel(0.02, 1.5), "circulant"),
    (2, 32, matern_kernel(0.8, 1.5), "block-circulant"),
    (2, 5, matern_kernel(0.8, 1.5), "cholesky"),
])
def test_factorize_and_report_do_not_read_the_entries_field(d, m, kernel, sampler):
    # a truth whose entries field is not a matrix gives the same factor,
    # draws and report as the truth itself, on every sampler
    mesh = build_mesh(d, m)
    cov = covariance_matrix(kernel, mesh)
    guarded = dataclasses.replace(cov, entries=object())
    factor, got = factorize(cov), factorize(guarded)
    assert got.sampler == factor.sampler == sampler
    assert got.jitter == factor.jitter and np.array_equal(got.root, factor.root)
    ens = sample_ensemble(got, 9, seed=3, mesh=mesh)
    assert np.array_equal(ens.fields, sample_ensemble(factor, 9, seed=3, mesh=mesh).fields)
    rule = ThresholdRule(c0=1.0, form="simplified")
    assert estimate_and_report(ens, guarded, rule, seed=2) == estimate_and_report(ens, cov, rule, seed=2)


def test_report_rejects_a_truth_on_another_mesh():
    # a d = 2 draw on 16 points, scored against a d = 1 truth on 16 points
    ens = sample_ensemble(factorize(covariance_matrix(se_kernel(0.3), build_mesh(2, 4))), 3,
                          seed=0, mesh=build_mesh(2, 4))
    truth = covariance_matrix(se_kernel(0.3), build_mesh(1, 16))
    with pytest.raises(EstimationError, match="different meshes"):
        estimate_and_report(ens, truth, ThresholdRule(c0=1.0, form="simplified"))


def test_spectral_norm_in_threads_matches_serial():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(150, 150))
    sym = 0.5 * (a + a.T)
    truth = covariance_matrix(se_kernel(2e-3), build_mesh(1, 400))
    F = rng.normal(size=(9, 400))
    truth_matvec = sampling.covariance_matvec(truth)
    sample_minus_truth = LinearOperator(
        (400, 400), matvec=lambda v: F.T @ (F @ v) / 9 - truth_matvec(v), dtype=float)
    operands = [truth, sym, sample_minus_truth, truth, sym, sample_minus_truth,
                cov(np.diag(np.arange(1.0, 81.0))), truth]
    serial = [spectral_norm(obj, seed=s) for s, obj in enumerate(operands)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda s: spectral_norm(operands[s], seed=s), range(8)))
    assert threaded == serial


def test_min_eigenvalue_matches_dense():
    rng = np.random.default_rng(8)
    for trial in range(10):
        for L in (30, 120):  # eigvalsh of the built columns, then ARPACK
            a = rng.normal(size=(L, L))
            sym = 0.5 * (a + a.T)
            want = float(np.min(np.linalg.eigvalsh(sym)))
            got = min_eigenvalue(sym, seed=trial)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-9)
    assert min_eigenvalue(np.diag([1.0, -0.5])) == pytest.approx(-0.5, rel=1e-10)
    assert min_eigenvalue(np.zeros((3, 3))) == 0.0


# ---------------------------------------------------------------------------
# relative error and the row-sum bound
# ---------------------------------------------------------------------------


def test_relative_error_examples():
    truth = cov(np.eye(4))
    assert relative_error(truth, truth) == 0.0
    doubled = cov(2 * np.eye(4))
    assert relative_error(doubled, truth) == pytest.approx(1.0, rel=1e-12)
    shifted = cov(np.eye(4) + 0.1 * np.eye(4))
    assert relative_error(shifted, truth) == pytest.approx(0.1, rel=1e-9)


def test_relative_error_rejects_zero_truth_and_mismatch():
    with pytest.raises(EstimationError):
        relative_error(cov(np.eye(2)), cov(np.zeros((2, 2))))
    with pytest.raises(EstimationError):
        relative_error(cov(np.eye(2)), cov(np.eye(3)))


def test_relative_error_scale_invariant():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(8, 8))
    est = cov(0.5 * (a + a.T))
    b = rng.normal(size=(8, 8))
    truth = cov(b @ b.T)
    base = relative_error(est, truth)
    scaled = relative_error(3.7 * est, 3.7 * truth)
    assert scaled == pytest.approx(base, rel=1e-8)


def test_relative_error_zero_estimate_shortcut():
    truth = cov(np.eye(5))
    assert relative_error(cov(np.zeros((5, 5))), truth) == 1.0


def test_l1_operator_bound_dominates_weighted_norm():
    # the weighted largest absolute row sum bounds the weighted spectral norm
    def row_sum_bound(a, weight):
        return weight * float(np.max(np.sum(np.abs(a), axis=1)))

    mesh = build_mesh(1, 1250)
    c = covariance_matrix(se_kernel(0.05), mesh)
    assert row_sum_bound(dense_truth(c), mesh.weight) >= mesh.weight * spectral_norm(c, seed=0)
    rng = np.random.default_rng(4)
    for trial in range(20):
        a = rng.normal(size=(7, 7))
        x = cov(0.5 * (a + a.T))
        assert row_sum_bound(x, 1 / 7) >= spectral_norm_dense(x) / 7 - 1e-12


# ---------------------------------------------------------------------------
# the composed report
# ---------------------------------------------------------------------------


def test_report_on_single_zero_field():
    ens = make_ensemble(np.zeros((1, 6)))
    truth = covariance_matrix(se_kernel(1e-8), ens.mesh)
    assert np.array_equal(dense_truth(truth), np.eye(6))
    report = estimate_and_report(ens, truth, ThresholdRule(c0=1.0, form="full"))
    assert report.eps_sample == 1.0  # estimate is the zero matrix
    assert report.eps_thresh == 1.0
    assert report.rho_hat == 1.0  # c0 / N with N = 1
    assert report.nnz_fraction == 0.0
    assert report.psd_min_eig == 0.0


def test_report_thresholding_beats_sample_for_identity_truth():
    # lambda -> 0 analog: independent entries, L=16, N=8; thresholding should
    # win in a clear majority of seeds.
    mesh = build_mesh(1, 16)
    truth = covariance_matrix(se_kernel(1e-8), mesh)
    assert np.array_equal(dense_truth(truth), np.eye(16))
    rule = ThresholdRule(c0=1.0, form="full")
    truth_norm = 1.0
    wins = 0
    seeds = 1000
    factor = factorize(truth)
    for seed in range(seeds):
        ens = sample_ensemble(factor, 8, seed=seed, mesh=mesh)
        report = estimate_and_report(ens, truth, rule, seed=seed, truth_norm=truth_norm)
        wins += report.eps_thresh <= report.eps_sample
    assert wins > seeds // 2


def _dense_report(ens, truth, rho, truth_norm):
    """The former dense formulation at threshold ``rho``: the L x L sample
    covariance, thresholded whole, and exact norms and eigenvalues."""
    F = ens.fields
    S = F.T @ F / ens.N
    S = 0.5 * (S + S.T)
    T = hard_threshold(S, rho)
    C = dense_truth(truth)
    return EstimatorReport(
        rho_hat=rho,
        eps_sample=spectral_norm_dense(S - C) / truth_norm,
        eps_thresh=spectral_norm_dense(T - C) / truth_norm if np.any(T) else 1.0,
        nnz_fraction=float(np.count_nonzero(np.abs(S) >= rho)) / S.size,
        psd_min_eig=min(0.0, float(np.linalg.eigvalsh(T)[0])),
    )


def _assert_reports_agree(got, want):
    assert got.rho_hat == want.rho_hat
    assert got.nnz_fraction == want.nnz_fraction
    assert got.eps_sample == pytest.approx(want.eps_sample, rel=1e-12)
    assert got.eps_thresh == pytest.approx(want.eps_thresh, rel=1e-12)
    assert got.psd_min_eig == pytest.approx(want.psd_min_eig, abs=1e-9)


@pytest.mark.parametrize("d,m,kernels", [
    (1, 60, [se_kernel(0.5), se_kernel(0.05), matern_kernel(0.5, 1.5), matern_kernel(0.05, 1.5)]),
    (2, 8, [se_kernel(0.5), se_kernel(0.1), matern_kernel(0.5, 1.5), matern_kernel(0.1, 1.5)]),
    # above the order where the norm helper builds columns, so ARPACK runs
    (1, 100, [se_kernel(0.5), se_kernel(0.05), matern_kernel(0.5, 1.5), matern_kernel(0.05, 1.5)]),
])
def test_report_matches_dense_formulation(d, m, kernels, monkeypatch):
    # rho_hat and nnz are equal and the errors agree to rounding whether the
    # estimate is zero, a principal block or the whole matrix; each must occur
    block_orders = []
    real_hard_threshold = estimation.hard_threshold
    monkeypatch.setattr(estimation, "hard_threshold",
                        lambda a, rho: block_orders.append(len(a)) or real_hard_threshold(a, rho))
    mesh = build_mesh(d, m)
    sides = set()
    for kernel in kernels:
        truth = covariance_matrix(kernel, mesh)
        factor = factorize(truth)
        truth_norm = spectral_norm_dense(truth)
        N = max(2, math.ceil(5 * d * math.log(1.0 / kernel.lam)))
        for c0 in (1.0, 5.0):
            rule = ThresholdRule(c0=c0, form="simplified")
            for seed in range(3):
                ens = sample_ensemble(factor, N, seed, mesh)
                block_orders.clear()
                got = estimate_and_report(ens, truth, rule, seed=seed, truth_norm=truth_norm)
                want = _dense_report(ens, truth, threshold_parameter(ens, rule), truth_norm)
                _assert_reports_agree(got, want)
                if not block_orders:
                    sides.add("zero")
                    assert got.nnz_fraction == 0.0
                else:
                    sides.add("block" if block_orders[0] < mesh.L else "whole")
    assert sides == {"zero", "block", "whole"}


@pytest.mark.parametrize("m", [60, 120])
def test_report_block_operands_match_dense(m, monkeypatch):
    # a principal block of fewer than L rows with a negative eigenvalue: the
    # sample and block operands, built from their columns (m = 60) or taken
    # by ARPACK (m = 120), must reproduce the dense formulation
    mesh = build_mesh(1, m)
    truth = covariance_matrix(se_kernel(0.05), mesh)
    ens = sample_ensemble(factorize(truth), 4, seed=5, mesh=mesh)
    truth_norm = spectral_norm_dense(truth)
    rho = 0.6 * float(np.max(np.einsum("ni,ni->i", ens.fields, ens.fields))) / ens.N
    want = _dense_report(ens, truth, rho, truth_norm)
    monkeypatch.setattr(estimation, "threshold_parameter", lambda ens, rule: rho)
    block_orders = []
    real_hard_threshold = estimation.hard_threshold
    monkeypatch.setattr(estimation, "hard_threshold",
                        lambda a, rho: block_orders.append(len(a)) or real_hard_threshold(a, rho))
    got = estimate_and_report(ens, truth, ThresholdRule(c0=5.0, form="simplified"),
                              seed=1, truth_norm=truth_norm)
    assert 0 < block_orders[0] < mesh.L
    assert got.psd_min_eig < 0.0
    _assert_reports_agree(got, want)


@pytest.mark.parametrize("d,m,quantile", [(1, 300, 0.0), (1, 300, 0.3), (2, 20, 0.1)])
def test_thresholded_block_tiles_match_whole_matrix_form(d, m, quantile):
    # a block of several tiles, the last one partial, holds the bytes and the
    # survivor count of the whole-matrix symmetrize-and-threshold
    mesh = build_mesh(d, m)
    factor = factorize(covariance_matrix(se_kernel(0.05), mesh))
    ens = sample_ensemble(factor, 5, seed=4, mesh=mesh)
    F, N = ens.fields, ens.N
    diag = np.einsum("ni,ni->i", F, F) / N
    rho = math.sqrt(float(np.quantile(diag, quantile)) * float(diag.max()))
    idx, block, nnz = estimation._thresholded_block(ens, rho)
    assert idx.size > estimation._TILE and idx.size % estimation._TILE != 0
    G = F[:, idx]
    whole = G.T @ G
    whole /= N
    whole = 0.5 * (whole + whole.T)
    assert 0 < nnz < whole.size
    assert nnz == np.count_nonzero(np.abs(whole) >= rho)
    assert block.tobytes() == hard_threshold(whole, rho).tobytes()


@pytest.mark.parametrize("keep", ["every entry", "most entries"])
def test_report_whole_matrix_matches_dense(keep, monkeypatch):
    # every row qualifies, so the block is the whole matrix (m = 100 takes
    # ARPACK); with nothing thresholded away the estimate is the sample
    # covariance, which shares its error and is PSD without a solve
    mesh = build_mesh(1, 100)
    truth = covariance_matrix(se_kernel(0.3), mesh)
    ens = sample_ensemble(factorize(truth), 7, seed=2, mesh=mesh)
    truth_norm = spectral_norm_dense(truth)
    S = sample_covariance(ens)
    rho = 0.0 if keep == "every entry" else float(np.quantile(np.abs(S), 0.2))
    monkeypatch.setattr(estimation, "threshold_parameter", lambda ens, rule: rho)
    if keep == "every entry":
        monkeypatch.setattr(estimation, "min_eigenvalue",
                            lambda *a, **k: pytest.fail("min-eigenvalue solve run"))
    got = estimate_and_report(ens, truth, ThresholdRule(c0=5.0, form="simplified"),
                              seed=3, truth_norm=truth_norm)
    _assert_reports_agree(got, _dense_report(ens, truth, rho, truth_norm))
    if keep == "every entry":
        assert got.nnz_fraction == 1.0
        assert (got.eps_thresh, got.psd_min_eig) == (got.eps_sample, 0.0)
    else:
        assert 0.5 < got.nnz_fraction < 1.0 and got.psd_min_eig < 0.0


def test_report_zero_shortcut_boundary(monkeypatch):
    # a threshold just below the largest diagonal entry keeps it; just above,
    # the estimate is exactly zero and no Gram product is formed
    mesh = build_mesh(1, 50)
    truth = covariance_matrix(se_kernel(0.05), mesh)
    ens = sample_ensemble(factorize(truth), 6, seed=3, mesh=mesh)
    rule = ThresholdRule(c0=5.0, form="simplified")
    truth_norm = spectral_norm_dense(truth)
    diag_max = float(np.max(np.einsum("ni,ni->i", ens.fields, ens.fields))) / ens.N
    for rho in (diag_max * (1.0 - 1e-9), diag_max):
        monkeypatch.setattr(estimation, "threshold_parameter", lambda ens, rule: rho)
        got = estimate_and_report(ens, truth, rule, seed=1, truth_norm=truth_norm)
        assert got.nnz_fraction > 0.0
        _assert_reports_agree(got, _dense_report(ens, truth, rho, truth_norm))
    rho = diag_max * (1.0 + 1e-9)
    monkeypatch.setattr(estimation, "threshold_parameter", lambda ens, rule: rho)
    real_survivors = estimation._survivors
    monkeypatch.setattr(estimation, "_survivors",
                        lambda *a: pytest.fail("Gram block formed") or real_survivors(*a))
    got = estimate_and_report(ens, truth, rule, seed=1, truth_norm=truth_norm)
    assert (got.rho_hat, got.eps_thresh, got.nnz_fraction, got.psd_min_eig) == (rho, 1.0, 0.0, 0.0)
    assert got.eps_sample == pytest.approx(
        spectral_norm_dense(sample_covariance(ens) - dense_truth(truth)) / truth_norm, rel=1e-12)


def test_report_mismatched_mesh_rejected():
    ens = make_ensemble(np.zeros((2, 4)))
    with pytest.raises(EstimationError):
        estimate_and_report(ens, covariance_matrix(se_kernel(0.1), build_mesh(1, 5)),
                            ThresholdRule())


def test_reference_mesh_fig_trial_forms_no_square_matrix():
    # one fig2 trial per kernel on the reference mesh (d = 2, m = 100) under
    # the reference rule c0 = 5: set-up, draw and report; the truth is its
    # first row, drawn through its one-axis Kronecker factor (SE) or by FFT
    # (Matern), so nothing of order L x L is allocated
    import tracemalloc

    mesh = build_mesh(2, 100)
    lam = 0.02
    N = math.ceil(5 * 2 * math.log(1 / lam))
    for kernel, sampler in ((se_kernel(lam), "kronecker"), (matern_kernel(lam, 1.5), "circulant")):
        tracemalloc.start()
        try:
            truth = covariance_matrix(kernel, mesh)
            factor = factorize(truth)
            truth_norm = spectral_norm(truth, seed=1)
            ens = sample_ensemble(factor, N, seed=2, mesh=mesh)
            report = estimate_and_report(ens, truth, ThresholdRule(c0=5.0, form="simplified"),
                                         seed=2, truth_norm=truth_norm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert factor.sampler == sampler
        assert math.isfinite(report.eps_sample) and report.eps_sample > 0.0
        assert peak < 0.1 * 8 * mesh.L**2
