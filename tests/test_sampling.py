import math

import numpy as np
import pytest

from _helpers import make_ensemble, make_mesh
from opcov.estimation import ThresholdRule, threshold_parameter
from opcov.kernels import matern_kernel, se_kernel
from opcov.sampling import (
    MAX_MESH_POINTS,
    CovMatrix,
    SamplingError,
    build_mesh,
    covariance_matrix,
    covariance_matvec,
    derive_seed,
    factorize,
    sample_ensemble,
    substream,
)


def _entries_at(points, kernel):
    """The kernel at every pair of ``points``, with a unit diagonal."""
    from scipy.spatial.distance import cdist

    from opcov.kernels import eval_kernel

    entries = eval_kernel(kernel, cdist(points, points))
    np.fill_diagonal(entries, 1.0)
    return entries


def _mesh_points(d, m):
    """The L x d cell centres of build_mesh(d, m), first axis slowest."""
    axis = (np.arange(m) + 0.5) / m
    return np.stack([g.ravel() for g in np.meshgrid(*([axis] * d), indexing="ij")], axis=-1)


def test_mesh_1d_two_points():
    mesh = build_mesh(1, 2)
    assert mesh.L == 2
    assert mesh.weight == 0.5
    # the truth is the kernel between the cell centres 0.25 and 0.75
    kernel = se_kernel(0.3)
    assert np.array_equal(covariance_matrix(kernel, mesh).entries,
                          _entries_at([[0.25], [0.75]], kernel))


def test_mesh_2d_two_points_lexicographic():
    mesh = build_mesh(2, 2)
    want = [(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)]
    kernel = se_kernel(0.3)
    assert np.array_equal(covariance_matrix(kernel, mesh).entries, _entries_at(want, kernel))
    assert mesh.weight == 0.25


def test_mesh_reference_resolution():
    mesh = build_mesh(1, 1250)
    assert mesh.L == 1250
    assert mesh.weight == 8e-4
    assert mesh.weight * mesh.L == 1.0


@pytest.mark.parametrize("d,m", [(0, 4), (4, 4), (1, 1), (1, 0)])
def test_mesh_rejects_bad_arguments(d, m):
    with pytest.raises(SamplingError):
        build_mesh(d, m)


def test_mesh_rejects_oversize():
    with pytest.raises(SamplingError, match="exceeds"):
        build_mesh(3, 24)  # 13824 > MAX_MESH_POINTS
    assert 24**3 > MAX_MESH_POINTS


def test_covariance_matrix_se_2point():
    cov = covariance_matrix(se_kernel(1.0), build_mesh(1, 2))
    off = math.exp(-1.0 / 8.0)
    assert cov.entries == pytest.approx(np.array([[1.0, off], [off, 1.0]]), rel=1e-15)


def test_covariance_matrix_unit_diagonal_and_symmetry():
    for kernel in (se_kernel(0.05), matern_kernel(0.1, 1.5)):
        cov = covariance_matrix(kernel, build_mesh(2, 7))
        assert np.all(np.diag(cov.entries) == 1.0)
        assert np.array_equal(cov.entries, cov.entries.T)


def test_covariance_matrix_matern_entry_matches_scalar_kernel():
    from opcov.kernels import eval_kernel

    kernel = matern_kernel(0.1, 1.5)
    cov = covariance_matrix(kernel, build_mesh(1, 4))
    r = 0.75  # distance between the first and last cell centers
    want = (1 + 7.5 * math.sqrt(3)) * math.exp(-7.5 * math.sqrt(3))
    assert cov.entries[0, 3] == pytest.approx(want, rel=1e-13)
    assert cov.entries[0, 3] == pytest.approx(eval_kernel(kernel, r), rel=1e-15)


def test_sampling_is_deterministic():
    mesh = build_mesh(1, 9)
    factor = factorize(covariance_matrix(se_kernel(0.3), mesh))
    a = sample_ensemble(factor, 5, seed=123, mesh=mesh)
    b = sample_ensemble(factor, 5, seed=123, mesh=mesh)
    assert np.array_equal(a.fields, b.fields)
    assert np.array_equal(a.sups, b.sups)
    c = sample_ensemble(factor, 5, seed=124, mesh=mesh)
    assert not np.array_equal(a.fields, c.fields)


def test_sups_cache_coherent():
    mesh = build_mesh(1, 30)
    factor = factorize(covariance_matrix(se_kernel(0.1), mesh))
    ens = sample_ensemble(factor, 40, seed=9, mesh=mesh)
    assert np.array_equal(ens.sups, ens.fields.max(axis=1))
    assert np.all(np.isfinite(ens.fields))


def test_jitter_ladder_recorded():
    # the all-ones row: a singular PSD matrix whose embedding [1, 1, 1, k(1),
    # 1, 1] has the eigenvalue k(1) - 1 < 0, so it takes Cholesky, where
    # plain Cholesky fails and the first jitter rung succeeds
    mesh = build_mesh(1, 3)
    ones = CovMatrix(mesh, se_kernel(0.1), np.ones(3))
    factor = factorize(ones)
    assert factor.sampler == "cholesky"
    assert factor.jitter in (0.0, 1e-12)


def test_jittered_factor_is_the_shifted_matrix_factor():
    # SE at a long lengthscale needs the first jitter rung
    cov = covariance_matrix(se_kernel(0.5), build_mesh(1, 200))
    factor = factorize(cov)
    assert factor.jitter == 1e-12
    want = np.linalg.cholesky(cov.entries + factor.jitter * np.eye(cov.L))
    assert np.array_equal(factor.lower, want)


def test_factorize_rejects_indefinite():
    # the row [1, 2] gives [[1, 2], [2, 1]], eigenvalues 3 and -1; its
    # embedding [1, 2, k(1), 2] has the eigenvalue k(1) - 3 < 0
    bad = CovMatrix(build_mesh(1, 2), se_kernel(0.1), np.array([1.0, 2.0]))
    with pytest.raises(SamplingError, match="jitter"):
        factorize(bad)


def test_sample_requires_positive_count():
    mesh = build_mesh(1, 2)
    cov = covariance_matrix(se_kernel(0.1), mesh)
    with pytest.raises(SamplingError):
        sample_ensemble(factorize(cov), 0, seed=1, mesh=mesh)


def test_single_point_fields_are_standard_normal():
    mesh = make_mesh(1)
    factor = factorize(covariance_matrix(se_kernel(0.1), mesh))
    ens = sample_ensemble(factor, 3, seed=7, mesh=mesh)
    assert ens.fields.shape == (3, 1)
    assert np.array_equal(ens.sups, ens.fields[:, 0])


def test_empirical_covariance_matches_target():
    # Monte Carlo oracle: 2e5 draws on a 5-point mesh, 5 sigma per entry.
    mesh = build_mesh(1, 5)
    cov = covariance_matrix(se_kernel(0.3), mesh)
    N = 200_000
    ens = sample_ensemble(factorize(cov), N, seed=2024, mesh=mesh)
    emp = ens.fields.T @ ens.fields / N
    C = cov.entries
    sigma = np.sqrt((np.outer(np.diag(C), np.diag(C)) + C**2) / N)
    assert np.all(np.abs(emp - C) <= 5.0 * sigma)
    assert np.max(np.abs(emp - C)) < 0.02


def test_ensemble_sup_mean():
    # the threshold reads the mean of the per-field maxima: S = 3 over N = 2
    # fields gives the full form's S^2 / N, and S = 0 the simplified form's 0
    rule = ThresholdRule(c0=1.0, form="full")
    assert threshold_parameter(make_ensemble([[2.0, 1.0], [4.0, 0.0]]), rule) == 4.5
    rule = ThresholdRule(c0=1.0, form="simplified")
    assert threshold_parameter(make_ensemble([[0.0, 0.0, 0.0]]), rule) == 0.0


def test_substreams_are_disjoint_and_stable():
    a = substream(7, 1, 2).standard_normal(4)
    b = substream(7, 1, 2).standard_normal(4)
    c = substream(7, 1, 3).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)


@pytest.mark.parametrize("d,m", [(1, 40), (1, 41), (2, 8), (2, 9), (3, 4), (3, 5)])
@pytest.mark.parametrize("kernel", [se_kernel(0.1), se_kernel(0.01), matern_kernel(0.2, 1.5)],
                         ids=["se-0.1", "se-0.01", "matern-0.2"])
def test_stationary_matvec_matches_dense_product(d, m, kernel):
    mesh = build_mesh(d, m)
    cov = covariance_matrix(kernel, mesh)
    matvec = covariance_matvec(cov)
    rng = np.random.default_rng(m)
    for v in (rng.standard_normal(mesh.L), np.eye(mesh.L)[-1]):
        want = cov.entries @ v
        assert np.max(np.abs(matvec(v) - want)) <= 1e-12 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# first-row truths and the circulant sampler
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,m", [(1, 50), (1, 51), (2, 8), (2, 13), (3, 5)])
@pytest.mark.parametrize("kernel", [se_kernel(0.1), se_kernel(0.01), matern_kernel(0.2, 1.5)],
                         ids=["se-0.1", "se-0.01", "matern-0.2"])
def test_gathered_entries_match_pairwise_distances(d, m, kernel):
    mesh = build_mesh(d, m)
    cov = covariance_matrix(kernel, mesh)
    want = _entries_at(_mesh_points(d, m), kernel)
    got = cov.entries
    assert np.max(np.abs(got - want)) <= 1e-14
    assert np.array_equal(got, got.T)
    # exactly Toeplitz: every entry is the first row at |i - j| per axis
    idx = np.array(np.unravel_index(np.arange(mesh.L), (m,) * d)).T
    gap = np.abs(idx[:, None, :] - idx[None, :, :])
    flat = np.ravel_multi_index(tuple(np.moveaxis(gap, -1, 0)), (m,) * d)
    assert np.array_equal(got, cov.row[flat])
    cols = [0, mesh.L // 2, mesh.L - 1]
    assert np.array_equal(cov.columns(cols), got[:, cols])


def test_truth_holds_its_row_not_a_matrix():
    mesh = build_mesh(2, 40)
    cov = covariance_matrix(se_kernel(0.05), mesh)
    held = [v for v in vars(cov).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in held) == cov.row.nbytes == 8 * mesh.L
    assert cov.L == mesh.L
    # every read gathers afresh, so a caller's changes never reach the truth
    first = cov.entries
    first[0, 0] = 7.0
    assert cov.entries[0, 0] == 1.0


def _minimal_embedding_eigenvalues(kernel, m):
    """d = 1: the row c_0 .. c_{m-1}, k(1), c_{m-1} .. c_1 and its DFT."""
    from scipy.spatial.distance import cdist

    from opcov.kernels import eval_kernel

    points = _mesh_points(1, m)
    row = eval_kernel(kernel, cdist(points[:1], points)[0])
    row[0] = 1.0
    return np.fft.fft(np.r_[row, eval_kernel(kernel, 1.0), row[:0:-1]]).real


def test_sampler_routing():
    # SE lambda = 0.3 at d = 2 factors over the axes: the Kronecker sampler,
    # whatever its embedding; Matern at the same cell stays negative up to
    # the top padding (p = 2) and keeps the Cholesky factor
    mesh = build_mesh(2, 64)
    factor = factorize(covariance_matrix(se_kernel(0.3), mesh))
    assert factor.sampler == "kronecker" and factor.axis_root.shape == (64, 64)
    assert factor.spectrum is None and factor.lower is None
    factor = factorize(covariance_matrix(matern_kernel(0.3, 1.5), mesh))
    assert factor.sampler == "cholesky" and factor.lower.shape == (mesh.L, mesh.L)
    assert factor.spectrum is None and factor.axis_root is None
    # SE lambda = 0.01 at d = 1 is negative only at rounding level: the FFT
    # sampler, with the clipped |lambda_min| recorded as the jitter
    kernel = se_kernel(0.01)
    factor = factorize(covariance_matrix(kernel, build_mesh(1, 1250)))
    eig = _minimal_embedding_eigenvalues(kernel, 1250)
    assert factor.sampler == "circulant" and factor.lower is None
    assert factor.spectrum.shape == (2500,)
    assert eig.min() < 0.0
    assert factor.jitter == pytest.approx(-eig.min(), rel=1e-6, abs=1e-16)
    assert factor.jitter <= 64 * np.finfo(float).eps * eig.max()
    # a nonnegative embedding draws with no jitter at all
    assert factorize(covariance_matrix(se_kernel(1e-3), build_mesh(1, 1250))).jitter == 0.0


def _embedding_extremes(kernel, m, M):
    """d = 2: (min, max) eigenvalue of the embedding with 2M points per axis.

    Built from the kernel alone, at offsets min(k, 2M - k) / m per axis.
    """
    from opcov.kernels import eval_kernel

    k = np.arange(2 * M)
    offset = np.minimum(k, 2 * M - k) / m
    eig = np.fft.fft2(eval_kernel(kernel, np.hypot(offset[:, None], offset[None, :]))).real
    return eig.min(), eig.max()


@pytest.mark.parametrize("m,lam,M", [(8, 0.3, 12), (16, 0.3, 24), (6, 0.5, 12),
                                     (24, 0.3, 48), (100, 0.147, 150), (64, 0.02, 64)])
def test_padding_ladder_takes_the_first_nonnegative_rung(m, lam, M):
    # Matern at d = 2 draws by FFT from the first embedding, 2 ceil(p m)
    # points per axis for p = 1, 1.5, 2, whose eigenvalues are nonnegative
    # up to 64 eps; every smaller rung is clearly negative
    kernel = matern_kernel(lam, 1.5)
    factor = factorize(covariance_matrix(kernel, build_mesh(2, m)))
    assert factor.sampler == "circulant"
    assert factor.spectrum.shape == (2 * M, 2 * M)
    tol = 64 * np.finfo(float).eps
    low, high = _embedding_extremes(kernel, m, M)
    assert low >= -tol * high
    assert factor.jitter == pytest.approx(max(0.0, -low), abs=tol * high)
    for p in (1.0, 1.5, 2.0):
        if math.ceil(p * m) < M:
            low, high = _embedding_extremes(kernel, m, math.ceil(p * m))
            assert low < -1e3 * tol * high


@pytest.mark.parametrize("d,m,lam", [(2, 24, 0.3), (2, 24, 0.05), (2, 32, 0.5), (3, 10, 0.3),
                                     (3, 10, 1.0)])
def test_kronecker_factor_matches_truth(d, m, lam):
    # the drawn covariance (A (x) ... (x) A)(A (x) ... (x) A)^T is the truth
    # within the recorded clip bound, up to rounding
    from _helpers import spectral_norm_dense

    cov = covariance_matrix(se_kernel(lam), build_mesh(d, m))
    factor = factorize(cov)
    assert factor.sampler == "kronecker" and factor.axis_root.shape == (m, m)
    assert factor.spectrum is None and factor.lower is None
    root = factor.axis_root
    for _ in range(d - 1):
        root = np.kron(root, factor.axis_root)
    gap = spectral_norm_dense(root @ root.T - cov.entries)
    assert 0.0 <= factor.jitter
    assert gap <= factor.jitter + 64 * np.finfo(float).eps * spectral_norm_dense(cov)


@pytest.mark.parametrize("d,m,kernel,sampler", [
    (1, 12, se_kernel(0.1), "circulant"),
    # SE at d >= 2 is Kronecker, so the d >= 2 FFT and Cholesky cells are Matern
    (2, 6, matern_kernel(0.15, 1.5), "circulant"),
    (3, 3, matern_kernel(0.3, 1.5), "circulant"),
    (2, 5, matern_kernel(0.8, 1.5), "cholesky"),
    (2, 5, se_kernel(0.3), "kronecker"),
    (3, 3, se_kernel(0.3), "kronecker"),
    (2, 8, matern_kernel(0.3, 1.5), "circulant"),  # padded, p = 1.5
    (2, 6, matern_kernel(0.5, 1.5), "circulant"),  # padded, p = 2
])
def test_empirical_covariance_matches_target_on_each_sampler(d, m, kernel, sampler):
    # criterion 06's protocol: 2e5 draws, 5 standard errors per entry
    mesh = build_mesh(d, m)
    cov = covariance_matrix(kernel, mesh)
    factor = factorize(cov)
    assert factor.sampler == sampler
    N = 200_000
    ens = sample_ensemble(factor, N, seed=606, mesh=mesh)
    emp = ens.fields.T @ ens.fields / N
    C = cov.entries
    sigma = np.sqrt((np.outer(np.diag(C), np.diag(C)) + C**2) / N)
    assert np.max(np.abs(emp - C) / sigma) <= 5.0


def _assert_larger_draw_extends_smaller(factor, mesh):
    big = sample_ensemble(factor, 61, seed=3, mesh=mesh).fields
    for N in (1, 2, 7, 52, 53):
        assert np.array_equal(sample_ensemble(factor, N, seed=3, mesh=mesh).fields, big[:N])


@pytest.mark.parametrize("d,m,lam", [(1, 1250, 0.01), (2, 64, 0.02), (3, 6, 0.05), (2, 16, 0.3)])
def test_larger_circulant_draw_extends_smaller_draw(d, m, lam):
    # (1, 1250) holds 26 pairs per FFT block, so 61 fields cross a block edge;
    # so does (2, 16, 0.3), padded to 48 points per axis (28 pairs a block).
    # SE at d >= 2 is Kronecker, so the d >= 2 cells are Matern.
    # (The Cholesky path's product z @ lower.T rounds differently per N.)
    mesh = build_mesh(d, m)
    kernel = se_kernel(lam) if d == 1 else matern_kernel(lam, 1.5)
    factor = factorize(covariance_matrix(kernel, mesh))
    assert factor.sampler == "circulant"
    _assert_larger_draw_extends_smaller(factor, mesh)


@pytest.mark.parametrize("d,m,lam", [(2, 64, 0.02), (2, 24, 0.3), (3, 6, 0.05)])
def test_larger_kronecker_draw_extends_smaller_draw(d, m, lam):
    mesh = build_mesh(d, m)
    factor = factorize(covariance_matrix(se_kernel(lam), mesh))
    assert factor.sampler == "kronecker"
    _assert_larger_draw_extends_smaller(factor, mesh)


def test_draws_in_threads_match_serial():
    from concurrent.futures import ThreadPoolExecutor

    mesh = build_mesh(2, 32)
    kernels = (se_kernel(0.3), matern_kernel(0.02, 1.5), matern_kernel(0.8, 1.5))
    factors = [factorize(covariance_matrix(kernel, mesh)) for kernel in kernels]
    assert [f.sampler for f in factors] == ["kronecker", "circulant", "cholesky"]
    jobs = [(f, seed) for f in factors for seed in range(6)]

    def draw(job):
        return sample_ensemble(job[0], 9, seed=job[1], mesh=mesh).fields

    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(draw, jobs))
    for job, got in zip(jobs, threaded):
        assert np.array_equal(got, draw(job))
