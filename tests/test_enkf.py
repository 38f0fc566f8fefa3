import math

import numpy as np
import pytest
import scipy.linalg

from _helpers import dense_truth, make_ensemble, spectral_norm_dense
from opcov import enkf
from opcov.enkf import (
    EnkfError,
    ObservationModel,
    gain_continuity_bound,
    gain_operator_norm,
    kalman_gain,
    loo_covariances,
    pointwise_observation,
    state_norm,
    compare_analysis_updates,
)
from opcov.estimation import (
    EstimationError,
    ThresholdRule,
    hard_threshold,
    threshold_parameter,
)
from opcov.kernels import matern_kernel, se_kernel
from opcov.sampling import (
    build_mesh,
    covariance_matrix,
    derive_seed,
    factorize,
    sample_ensemble,
    substream,
)


def spd(rng, L, scale=1.0):
    a = rng.normal(size=(L, L))
    return scale * (a @ a.T) / L + 0.1 * np.eye(L)


def dense_pair(obs):
    """The explicit operator A (rows of the identity at the sites) and Gamma."""
    return np.eye(obs.L)[obs.sites], obs.noise_std**2 * np.eye(obs.d_y)


def one_site(noise_std=1.0):
    """A = [[1]] on a one-value state of weight 1, Gamma = [[noise_std^2]]."""
    return ObservationModel(sites=np.array([0]), L=1, noise_std=noise_std)


# ---------------------------------------------------------------------------
# observation models
# ---------------------------------------------------------------------------


def test_pointwise_rows_are_unit_vectors():
    mesh = build_mesh(1, 16)
    obs = pointwise_observation(mesh, 4)
    assert obs.d_y == 4 and obs.L == 16
    assert np.all(np.diff(obs.sites) > 0) and 0 <= obs.sites[0] and obs.sites[-1] < 16
    # orthonormal rows at distinct sites: sigma_max(A) = 1
    assert obs.a_op_norm == pytest.approx(1.0 / math.sqrt(mesh.weight), rel=1e-12)
    assert obs.gamma_inv_norm == pytest.approx(10.0, rel=1e-12)  # Gamma = 0.1 I
    # the norms equal, to the last bit, those of the explicit operator and
    # noise covariance, so every reported constant keeps its value
    for mesh, d_y, noise_std in [(mesh, 4, math.sqrt(0.1)), (build_mesh(1, 1250), 8, 0.3),
                                 (build_mesh(2, 8), 4, 1.0), (build_mesh(1, 7), 7, 1e-3)]:
        obs = pointwise_observation(mesh, d_y, noise_std)
        A, Gamma = dense_pair(obs)
        assert obs.a_op_norm == np.linalg.svd(A, compute_uv=False)[0] / math.sqrt(mesh.weight)
        assert obs.gamma_inv_norm == 1.0 / np.min(np.linalg.eigvalsh(Gamma))


def test_observation_site_bounds():
    mesh = build_mesh(1, 8)
    with pytest.raises(EnkfError):
        pointwise_observation(mesh, 0)
    with pytest.raises(EnkfError):
        pointwise_observation(mesh, 9)
    with pytest.raises(EnkfError):
        pointwise_observation(mesh, 4, noise_std=0.0)
    with pytest.raises(EnkfError, match="finite"):
        pointwise_observation(mesh, 4, noise_std=math.inf)


# ---------------------------------------------------------------------------
# kalman gain
# ---------------------------------------------------------------------------


def test_gain_zero_covariance():
    mesh = build_mesh(1, 8)
    obs = pointwise_observation(mesh, 3)
    gain, indefinite = kalman_gain(np.zeros((8, 3)), obs)
    assert np.array_equal(gain, np.zeros((8, 3))) and not indefinite


def test_gain_scalar_case():
    obs = one_site()
    gain, indefinite = kalman_gain(np.array([[1.0]]), obs)
    assert gain == pytest.approx(np.array([[0.5]])) and not indefinite


def test_gain_residual_identity():
    rng = np.random.default_rng(5)
    L, d_y = 8, 3
    C = spd(rng, L)
    obs = pointwise_observation(build_mesh(1, L), d_y, noise_std=1.0)
    A, Gamma = dense_pair(obs)
    gain, indefinite = kalman_gain(C[:, obs.sites], obs)
    residual = gain @ (A @ C @ A.T + Gamma) - C @ A.T
    assert np.max(np.abs(residual)) < 1e-10
    assert not indefinite  # a positive definite S takes the Cholesky solve


def test_gain_rejects_indefinite_inner_matrix():
    # an indefinite but invertible S = A C A^T + Gamma has no Cholesky factor;
    # the symmetric-indefinite solve gives the exact gain and says so, and
    # only a singular S is rejected
    # S = CA[sites] + noise_std^2 I, the covariance block at the sites plus noise
    obs = one_site(noise_std=1e-3)
    gain, indefinite = kalman_gain(np.array([[-1.0]]), obs)
    assert gain == pytest.approx(np.array([[-1.0 / (-1.0 + 1e-6)]]), rel=1e-15)
    assert indefinite
    with pytest.raises(EnkfError, match="singular"):
        kalman_gain(np.array([[-(1e-3**2)]]), obs)  # S = 0 exactly
    obs2 = pointwise_observation(build_mesh(1, 2), 2, noise_std=1e-10)
    with pytest.raises(EnkfError, match="singular"):
        kalman_gain(np.diag([-2.0, 0.0]), obs2)  # S = diag(-2, 1e-20): condition 2e20
    # A C A^T = Q diag(-2, 1, 3) Q^T: S = A C A^T + 0.01 I is indefinite, K S = C A^T
    rng = np.random.default_rng(12)
    obs3 = pointwise_observation(build_mesh(1, 6), 3, noise_std=0.1)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    block = q @ np.diag([-2.0, 1.0, 3.0]) @ q.T
    CA = rng.normal(size=(6, 3))
    CA[obs3.sites] = 0.5 * (block + block.T)
    S = CA[obs3.sites] + dense_pair(obs3)[1]
    assert np.min(np.linalg.eigvalsh(S)) < 0.0 < np.max(np.linalg.eigvalsh(S))
    gain, indefinite = kalman_gain(CA, obs3)
    assert indefinite
    assert np.array_equal(gain, scipy.linalg.solve(S, CA.T, assume_a="sym").T)
    assert np.max(np.abs(gain @ S - CA)) < 1e-12


def test_one_cholesky_per_innovation_matrix(monkeypatch):
    # the truth's gain, then the stochastic and the localized gain of each
    # particle: 1 + 2 N trials factorizations, none repeated
    calls = []
    inner = enkf.cho_factor

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(enkf, "cho_factor", counting)
    mesh = build_mesh(1, 48)
    obs = pointwise_observation(mesh, 4)
    compare_analysis_updates(se_kernel(0.05), mesh, obs, N=8,
                             rule=ThresholdRule(c0=1.0, form="simplified"), trials=3, seed=9)
    assert len(calls) == 1 + 2 * 8 * 3


# ---------------------------------------------------------------------------
# leave-one-out covariances
# ---------------------------------------------------------------------------


def test_loo_two_particles():
    ens = make_ensemble([[1.0, 2.0], [3.0, -1.0]])
    rule = ThresholdRule(c0=1.0, form="simplified")
    items = list(loo_covariances(ens, rule, np.arange(2)))
    assert len(items) == 2
    _, loo0, _, _ = items[0]
    u2 = np.array([3.0, -1.0])
    assert np.allclose(loo0, np.outer(u2, u2), atol=1e-14)


def test_loo_downdate_matches_direct_recomputation():
    rng = np.random.default_rng(21)
    fields = rng.normal(size=(5, 6))
    ens = make_ensemble(fields)
    rule = ThresholdRule(c0=1.0, form="simplified")
    cols = np.array([1, 4])
    for n, loo, _, _ in loo_covariances(ens, rule, cols):
        others = np.delete(fields, n, axis=0)
        direct = others.T @ others / 4
        assert np.max(np.abs(loo - direct[:, cols])) < 1e-12


def test_loo_requires_two_particles():
    ens = make_ensemble([[1.0, 2.0]])
    with pytest.raises(EnkfError):
        next(loo_covariances(ens, ThresholdRule(), np.arange(2)))


def test_loo_full_form_needs_c0_within_sqrt_n_minus_one():
    # c0 = 2.1 fits sqrt(5) for the whole ensemble but not sqrt(4) for each
    # leave-one-out one; the shared ThresholdRule.rho check reports it
    ens = make_ensemble(np.eye(5))
    rule = ThresholdRule(c0=2.1, form="full")
    threshold_parameter(ens, rule)
    with pytest.raises(EstimationError, match="sqrt"):
        next(loo_covariances(ens, rule, np.arange(5)))


def test_loo_threshold_close_to_full_threshold():
    mesh = build_mesh(1, 32)
    cov = covariance_matrix(se_kernel(0.1), mesh)
    ens = sample_ensemble(factorize(cov), 100, seed=3, mesh=mesh)
    rule = ThresholdRule(c0=1.0, form="simplified")
    rho_full = threshold_parameter(ens, rule)
    rhos = np.array([rho for _, _, _, rho in loo_covariances(ens, rule, np.arange(32))])
    assert np.max(np.abs(rhos - rho_full)) <= 10.0 * rho_full / 100.0


# ---------------------------------------------------------------------------
# gain continuity
# ---------------------------------------------------------------------------


def test_continuity_bound_values():
    obs = one_site()
    assert gain_continuity_bound(0.0, 1.0, obs) == 0.0
    assert gain_continuity_bound(0.1, 1.0, obs) == pytest.approx(0.2)
    with pytest.raises(EnkfError):
        gain_continuity_bound(-0.1, 1.0, obs)


def test_continuity_bound_never_violated_on_spd_perturbations():
    rng = np.random.default_rng(2)
    L, d_y = 16, 4
    w = 1.0 / L
    mesh = build_mesh(1, L)
    obs = pointwise_observation(mesh, d_y)
    C = spd(rng, L)
    gain_ref, _ = kalman_gain(C[:, obs.sites], obs)
    c_norm = w * spectral_norm_dense(C)
    for _ in range(200):
        Chat = spd(rng, L, scale=float(rng.uniform(0.2, 3.0)))
        gain_hat, _ = kalman_gain(Chat[:, obs.sites], obs)
        actual = gain_operator_norm(gain_hat - gain_ref, w)
        bound = gain_continuity_bound(w * spectral_norm_dense(Chat - C), c_norm, obs)
        assert actual <= bound * (1 + 1e-9)


def test_shared_noise_coupling_identity():
    # with shared (y, eta), the update difference is exactly the gain
    # difference applied to the innovation
    rng = np.random.default_rng(13)
    L, d_y = 12, 4
    mesh = build_mesh(1, L)
    obs = pointwise_observation(mesh, d_y)
    C = spd(rng, L)
    Chat = spd(rng, L)
    u = rng.normal(size=L)
    eta = rng.normal(size=d_y)
    y = rng.normal(size=d_y)
    A, _ = dense_pair(obs)
    g_true, _ = kalman_gain(C[:, obs.sites], obs)
    g_hat, _ = kalman_gain(Chat[:, obs.sites], obs)
    v_star = u + g_true @ (y - A @ u - eta)
    v_hat = u + g_hat @ (y - A @ u - eta)
    innovation = y - A @ u - eta
    assert np.max(np.abs((v_hat - v_star) - (g_hat - g_true) @ innovation)) < 1e-10


# ---------------------------------------------------------------------------
# the three-way comparison experiment
# ---------------------------------------------------------------------------


def test_degenerate_rank_one_loo_gives_finite_updates():
    # all-equal fields: leave-one-out covariance is rank one, updates finite
    field = np.linspace(-1.0, 1.0, 8)
    ens = make_ensemble(np.tile(field, (4, 1)))
    mesh = build_mesh(1, 8)
    obs = pointwise_observation(mesh, 3)
    rule = ThresholdRule(c0=1.0, form="simplified")
    for _, loo, loo_t, _ in loo_covariances(ens, rule, obs.sites):
        for est in (loo, loo_t):
            gain, _ = kalman_gain(est, obs)
            out = field + gain @ (np.ones(3) - field[obs.sites])
            assert np.all(np.isfinite(out))


def test_comparison_structure_and_determinism():
    mesh = build_mesh(1, 48)
    obs = pointwise_observation(mesh, 4)
    rule = ThresholdRule(c0=5.0, form="simplified")
    a = compare_analysis_updates(se_kernel(0.05), mesh, obs, N=8, rule=rule, trials=4, seed=77)
    b = compare_analysis_updates(se_kernel(0.05), mesh, obs, N=8, rule=rule, trials=4, seed=77)
    assert len(a.trials) == 4
    assert a.mean_vanilla == b.mean_vanilla
    assert a.mean_localized == b.mean_localized
    for comp in a.trials:
        assert comp.disc_vanilla.shape == (8,)
        assert np.all(comp.disc_vanilla >= 0)
        assert np.all(comp.c_consts >= 0)
    quantiles = a.pooled_quantiles()
    assert set(quantiles) == {
        "vanilla_q50", "vanilla_q90", "vanilla_q99",
        "localized_q50", "localized_q90", "localized_q99",
    }
    assert a.continuity_all_ok


def _dense_comparison(kernel, mesh, obs, N, rule, trials, seed):
    """The per-particle dense formulation: an L x L leave-one-out matrix,
    thresholded whole, gains from the full C A^T, exact ||loo - C||.

    Per trial: disc_vanilla, disc_localized, innovation norms, ||loo - C||,
    ||(loo - C) v|| / ||v|| for the trial's one Gaussian probe v, the gain
    differences ||gain_v - gain_true||, the continuity flag and the number
    of particles whose thresholded columns at the sites are all zero."""
    cov = covariance_matrix(kernel, mesh)
    factor = factorize(cov)
    w = mesh.weight
    C = dense_truth(cov)  # gathered from the row once; the dense reference needs it
    A, Gamma = dense_pair(obs)
    gamma_lower = np.linalg.cholesky(Gamma)
    gain_true, _ = kalman_gain(C @ A.T, obs)
    cov_norm = w * spectral_norm_dense(cov)
    out = []
    for t in range(trials):
        ens = sample_ensemble(factor, N, derive_seed(seed, t, 0), mesh)
        u_truth = sample_ensemble(factor, 1, derive_seed(seed, t, 3), mesh).fields[0]
        rng = substream(seed, t, 1)
        y = A @ u_truth + gamma_lower @ rng.standard_normal(obs.d_y)
        etas = rng.standard_normal((N, obs.d_y)) @ gamma_lower.T
        S = ens.fields.T @ ens.fields
        v = substream(seed, t, 2).standard_normal(mesh.L)
        disc_v, disc_l, innov_norms, deltas, along_v, actuals, ok = [], [], [], [], [], [], True
        zero = 0
        for n in range(N):
            u = ens.fields[n]
            loo = (S - np.outer(u, u)) / (N - 1)
            s_bar = (ens.sups.sum() - ens.sups[n]) / (N - 1)
            thresh = hard_threshold(loo, rule.rho(s_bar, N - 1))
            innov = y - A @ u - etas[n]
            v_star = u + gain_true @ innov
            gain_v, _ = kalman_gain(loo @ A.T, obs)
            gain_l, _ = kalman_gain(thresh @ A.T, obs)
            zero += not (thresh @ A.T).any()
            disc_v.append(state_norm(u + gain_v @ innov - v_star, w))
            disc_l.append(state_norm(u + gain_l @ innov - v_star, w))
            innov_norms.append(np.linalg.norm(innov))
            deltas.append(spectral_norm_dense(loo - C))
            along_v.append(np.linalg.norm((loo - C) @ v) / np.linalg.norm(v))
            actuals.append(gain_operator_norm(gain_v - gain_true, w))
            bound = gain_continuity_bound(w * deltas[-1], cov_norm, obs)
            ok &= actuals[-1] <= bound * (1.0 + 1e-6)
        out.append((np.array(disc_v), np.array(disc_l), np.array(innov_norms),
                    np.array(deltas), np.array(along_v), np.array(actuals), ok, zero))
    return out


_DENSE_CASES = pytest.mark.parametrize("d,m,kernel", [
    (1, 48, se_kernel(0.05)),
    (1, 47, matern_kernel(0.1, 1.5)),
    (2, 8, se_kernel(0.2)),
    (2, 9, matern_kernel(0.3, 1.5)),
])


def _dense_case_obs(mesh):
    # c0 = 1 keeps part of each leave-one-out column block, so the localized
    # gain differs from the stochastic one; Gamma = I keeps A C A^T + Gamma
    # positive definite for these indefinite thresholded blocks
    return pointwise_observation(mesh, 4, noise_std=1.0), ThresholdRule(c0=1.0, form="simplified")


def _record_norms(monkeypatch):
    """Record every ARPACK norm compare_analysis_updates takes, in call order:
    the truth norm, then one ||loo - C|| per particle that reaches the solve."""
    norms, seeds = [], []
    inner = enkf.spectral_norm

    def recording(*args, **kwargs):
        seeds.append(kwargs["seed"])
        norms.append(inner(*args, **kwargs))
        return norms[-1]

    monkeypatch.setattr(enkf, "spectral_norm", recording)
    return norms, seeds


@_DENSE_CASES
def test_comparison_matches_dense_leave_one_out_formulation(d, m, kernel, monkeypatch):
    mesh = build_mesh(d, m)
    obs, rule = _dense_case_obs(mesh)
    # nothing is certified, so every particle's ||loo - C|| takes the full solve
    monkeypatch.setattr(enkf, "_probe_lower_bound", lambda *args: 0.0)
    norms, _ = _record_norms(monkeypatch)
    got = compare_analysis_updates(kernel, mesh, obs, N=8, rule=rule, trials=3, seed=29)
    want = _dense_comparison(kernel, mesh, obs, 8, rule, 3, 29)
    # ten times the solver's 1e-7 certificate
    np.testing.assert_allclose(norms[1:], np.concatenate([w[3] for w in want]), rtol=1e-6)
    assert got.continuity_full_solves == 3 * 8
    for comp, (disc_v, disc_l, innov_norms, _, _, _, ok, zero) in zip(got.trials, want):
        np.testing.assert_allclose(comp.disc_vanilla, disc_v, rtol=1e-12)
        np.testing.assert_allclose(comp.disc_localized, disc_l, rtol=1e-12)
        np.testing.assert_allclose(comp.innovation_norms, innov_norms, rtol=1e-12)
        assert comp.continuity_ok == ok and comp.zero_localized == zero == 0
        assert not np.allclose(disc_l, disc_v) and np.all(disc_l > 0)


@pytest.mark.parametrize("d,m,kernel,c0", [
    (1, 48, se_kernel(0.05), 2.5),
    (1, 47, matern_kernel(0.1, 1.5), 2.5),
    (2, 8, se_kernel(0.2), 2.0),
])
def test_zero_localized_frac_matches_dense_formulation(d, m, kernel, c0):
    # c0 between 1 and 5 leaves some leave-one-out site blocks all zero and
    # others not; a zero block gives the zero gain, so disc_localized is the
    # norm of the mean-field increment
    mesh = build_mesh(d, m)
    obs, _ = _dense_case_obs(mesh)
    rule = ThresholdRule(c0=c0, form="simplified")
    got = compare_analysis_updates(kernel, mesh, obs, N=8, rule=rule, trials=3, seed=29)
    want = _dense_comparison(kernel, mesh, obs, 8, rule, 3, 29)
    assert [c.zero_localized for c in got.trials] == [w[7] for w in want]
    assert got.zero_localized_frac == sum(w[7] for w in want) / (3 * 8)
    assert 0.0 < got.zero_localized_frac < 1.0
    for comp, w in zip(got.trials, want):
        np.testing.assert_allclose(comp.disc_localized, w[1], rtol=1e-12)


@_DENSE_CASES
def test_continuity_certificate_is_a_lower_bound_on_the_dense_norm(d, m, kernel, monkeypatch):
    mesh = build_mesh(d, m)
    obs, rule = _dense_case_obs(mesh)
    lower = []
    inner = enkf._probe_lower_bound

    def recording(*args):
        lower.append(inner(*args))
        return lower[-1]

    monkeypatch.setattr(enkf, "_probe_lower_bound", recording)
    norms, _ = _record_norms(monkeypatch)
    got = compare_analysis_updates(kernel, mesh, obs, N=8, rule=rule, trials=3, seed=29)
    want = _dense_comparison(kernel, mesh, obs, 8, rule, 3, 29)
    dense = np.concatenate([w[3] for w in want])
    # the trial's one probe, applied to each particle's loo - C
    np.testing.assert_allclose(lower, np.concatenate([w[4] for w in want]), rtol=1e-12)
    assert np.all(np.array(lower) <= dense * (1.0 + 1e-12))
    # every particle of these cases is certified: only the truth norm is solved
    assert len(norms) == 1 and got.continuity_full_solves == 0
    assert 1.0 <= got.continuity_min_margin < math.inf
    assert got.continuity_min_margin == min(c.continuity_min_margin for c in got.trials)
    assert [c.continuity_ok for c in got.trials] == [w[6] for w in want]


@_DENSE_CASES
def test_uncertified_particle_takes_the_full_solve(d, m, kernel, monkeypatch):
    # odd particles get a lower bound whose continuity bound falls 1e-7
    # relative short of their gain difference: below it, yet inside the full
    # solve's 1e-6 slack, so only a certificate without that slack sends them
    # to ARPACK; even particles keep the real certificate
    mesh = build_mesh(d, m)
    obs, rule = _dense_case_obs(mesh)
    want = _dense_comparison(kernel, mesh, obs, 8, rule, 3, 29)
    norms, seeds = _record_norms(monkeypatch)
    keys = iter([(t, n) for t in range(3) for n in range(8)])
    inner = enkf._probe_lower_bound

    def short_on_odd(*args):
        t, n = next(keys)
        if n % 2 == 0:
            return inner(*args)
        slope = mesh.weight * gain_continuity_bound(1.0, mesh.weight * norms[0], obs)
        return want[t][5][n] / slope / (1.0 + 1e-7)

    monkeypatch.setattr(enkf, "_probe_lower_bound", short_on_odd)
    got = compare_analysis_updates(kernel, mesh, obs, N=8, rule=rule, trials=3, seed=29)
    assert [c.continuity_full_solves for c in got.trials] == [4, 4, 4]
    assert seeds[1:] == [derive_seed(29, t, 2, n) for t in range(3) for n in range(1, 8, 2)]
    np.testing.assert_allclose(norms[1:], np.concatenate([w[3][1::2] for w in want]), rtol=1e-6)
    assert [c.continuity_ok for c in got.trials] == [w[6] for w in want]


def test_continuity_certificate_applies_the_truth_once_per_trial(monkeypatch):
    # every particle's certificate reads the trial's one product C v; only a
    # full solve would apply the truth again
    calls = []
    inner = enkf.covariance_matvec

    def counting(cov):
        matvec = inner(cov)

        def counted(v):
            calls.append(v.shape)
            return matvec(v)

        return counted

    monkeypatch.setattr(enkf, "covariance_matvec", counting)
    mesh = build_mesh(1, 96)
    obs = pointwise_observation(mesh, 4)
    got = compare_analysis_updates(se_kernel(0.05), mesh, obs, N=12,
                                   rule=ThresholdRule(), trials=3, seed=17)
    assert got.continuity_full_solves == 0 and got.continuity_all_ok
    assert calls == [(96,)] * 3


def test_comparison_vanilla_discrepancy_shrinks_at_root_n_rate():
    mesh = build_mesh(1, 64)
    obs = pointwise_observation(mesh, 4)
    rule = ThresholdRule(c0=5.0, form="simplified")
    kernel = se_kernel(0.1)
    small = compare_analysis_updates(kernel, mesh, obs, N=500, rule=rule, trials=8, seed=5)
    large = compare_analysis_updates(kernel, mesh, obs, N=2000, rule=rule, trials=8, seed=6)
    assert large.mean_vanilla < 0.05
    ratio = small.mean_vanilla / large.mean_vanilla
    assert 1.4 <= ratio <= 2.6  # sqrt(4) = 2 within 30%


def test_comparison_validation():
    mesh = build_mesh(1, 16)
    obs = pointwise_observation(mesh, 4)
    with pytest.raises(EnkfError):
        compare_analysis_updates(se_kernel(0.1), mesh, obs, N=1,
                            rule=ThresholdRule(), trials=2, seed=0)
    with pytest.raises(EnkfError):
        compare_analysis_updates(se_kernel(0.1), build_mesh(1, 8), obs, N=4,
                            rule=ThresholdRule(), trials=2, seed=0)


def test_state_norm_is_weighted():
    v = np.array([3.0, 4.0])
    assert state_norm(v, 0.25) == pytest.approx(2.5)
