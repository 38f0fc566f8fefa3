"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criterion 12 (the full full-scale figure run) is marked
slow and only runs when OPCOV_FULL_SCALE=1 is set.
"""

import math
import os
import time

import numpy as np
import pytest

from _helpers import dense_truth, spectral_norm_dense, supnorm_errors, threshold_ratios
from opcov.cli import ExperimentConfig, _config_from_argv, run_figure
from opcov.enkf import pointwise_observation, compare_analysis_updates
from opcov.estimation import ThresholdRule, _SMALL, estimate_and_report, spectral_norm
from opcov.kernels import se_kernel
from opcov.sampling import build_mesh, covariance_matrix, factorize, sample_ensemble
from opcov.theory import expected_supremum_mc, sparsity_asymptotic, supremum_scaling_prediction


def report(number: int, ok: bool, detail: str, t0: float) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} ({time.perf_counter() - t0:.1f}s) {detail}")
    return ok


def desk_fig1_summaries(tmp_path, lambdas, trials, m=312, seed=20260314):
    cfg = ExperimentConfig(
        experiment="custom", kernel="se", d=1, m=m,
        lambda_grid=list(lambdas), c0=5.0, form="simplified",
        trials=trials, master_seed=seed, output_dir=str(tmp_path / "fig1_desk"),
    )
    return run_figure(cfg)["se"]


def test_criterion_01_figure1_desk_scale(tmp_path):
    """Thresholded error flat within x2 while the sample error diverges x3."""
    t0 = time.perf_counter()
    lambdas = np.logspace(-0.5, -2.5, 9)
    summaries = desk_fig1_summaries(tmp_path, lambdas, trials=30)
    by_lam = sorted(summaries, key=lambda row: row["lambda"])  # ascending in lambda
    small = np.mean([row["mean_eps_thresh"] for row in by_lam[:3]])
    large = np.mean([row["mean_eps_thresh"] for row in by_lam[-3:]])
    flat_ratio = small / large
    divergence = by_lam[0]["mean_eps_sample"] / by_lam[-1]["mean_eps_sample"]
    ok = (0.5 <= flat_ratio <= 2.0) and (divergence >= 3.0)
    assert report(
        1, ok,
        f"thresholded flat ratio {flat_ratio:.3f} in [0.5, 2], "
        f"sample divergence {divergence:.2f} >= 3", t0,
    )


def test_criterion_02_large_lengthscale_crossover():
    """At lambda = 10^-0.1 thresholding hurts: eps_thresh >= eps in most trials."""
    t0 = time.perf_counter()
    lam = 10.0**-0.1
    mesh = build_mesh(1, 312)
    cov = covariance_matrix(se_kernel(lam), mesh)
    factor = factorize(cov)
    truth_norm = spectral_norm(cov, seed=0)
    rule = ThresholdRule(c0=5.0, form="simplified")
    N = max(2, math.ceil(5 * math.log(1 / lam)))
    worse = 0
    trials = 30
    for trial in range(trials):
        ens = sample_ensemble(factor, N, seed=7000 + trial, mesh=mesh)
        r = estimate_and_report(ens, cov, rule, seed=trial, truth_norm=truth_norm)
        worse += r.eps_thresh >= r.eps_sample
    ok = worse >= trials // 2 + 1
    assert report(2, ok, f"thresholding hurt in {worse}/{trials} trials at lambda={lam:.3f} (N={N})", t0)


def test_criterion_03_effective_rank_error_scaling():
    """Sample-covariance error grows with a slope between the two regimes."""
    t0 = time.perf_counter()
    mesh = build_mesh(1, 1250)
    N, trials = 20, 30
    lams = [10.0**-1.5, 10.0**-2.0, 10.0**-2.5]
    means = []
    for i, lam in enumerate(lams):
        cov = covariance_matrix(se_kernel(lam), mesh)
        factor = factorize(cov)
        truth_norm = spectral_norm(cov, seed=i)
        errs = []
        for trial in range(trials):
            ens = sample_ensemble(factor, N, seed=1000 * i + trial, mesh=mesh)
            r = estimate_and_report(
                ens, cov, ThresholdRule(c0=1.0, form="full"), seed=trial, truth_norm=truth_norm
            )
            errs.append(r.eps_sample)
        means.append(np.mean(errs))
    slope = np.polyfit(np.log(1.0 / np.array(lams)), np.log(means), 1)[0]
    ok = 0.4 <= slope <= 1.1
    assert report(3, ok, f"regression slope {slope:.3f} in [0.4, 1.1] (means {np.round(means, 3)})", t0)


def test_criterion_04_psd_projection_factor_two():
    """||proj(A) - C|| <= 2 ||A - C|| on 500 randomized pairs, no violations."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    violations = 0
    for _ in range(500):
        L = int(rng.integers(2, 33))
        a = rng.normal(size=(L, L))
        sym = 0.5 * (a + a.T)
        b = rng.normal(size=(L, L))
        target = b @ b.T / L
        vals, vecs = np.linalg.eigh(sym)  # the projection clips negative eigenvalues
        proj = (vecs * np.maximum(vals, 0.0)) @ vecs.T
        lhs = spectral_norm_dense(proj - target)
        rhs = spectral_norm_dense(sym - target)
        if lhs > 2.0 * rhs * (1.0 + 1e-10):
            violations += 1
    ok = violations == 0
    assert report(4, ok, f"{violations} violations out of 500 randomized pairs", t0)


def test_criterion_05_spectral_norm_oracle_equivalence():
    """The ARPACK spectral norm matches the dense eigensolver to 1e-8.

    Every matrix is larger than the order below which the norm helper takes
    ``eigvalsh`` itself, so each one goes through ARPACK at the defaults of
    ``spectral_norm``.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for trial in range(200):
        L = int(rng.integers(_SMALL + 1, 257))
        kind = trial % 3
        if kind == 0:  # dense Gaussian symmetric
            a = rng.normal(size=(L, L))
            sym = 0.5 * (a + a.T)
        elif kind == 1:  # planted uniform spectrum
            q, _ = np.linalg.qr(rng.normal(size=(L, L)))
            sym = (q * rng.uniform(-1, 1, size=L)) @ q.T
            sym = 0.5 * (sym + sym.T)
        else:  # adversarial near-tie between +max and -max
            delta = 10.0 ** rng.uniform(-8, -3)
            vals = np.concatenate([[1.0, -(1 - delta)], rng.uniform(-0.8, 0.8, size=L - 2)])
            q, _ = np.linalg.qr(rng.normal(size=(L, L)))
            sym = (q * vals) @ q.T
            sym = 0.5 * (sym + sym.T)
        want = spectral_norm_dense(sym)
        got = spectral_norm(sym, seed=trial)
        worst = max(worst, abs(got - want) / want)
    ok = worst <= 1e-8
    assert report(5, ok, f"worst relative error {worst:.2e} <= 1e-8 over 200 matrices", t0)


def test_criterion_06_sampler_correctness():
    """Empirical covariance of 2e5 draws within 5 standard errors entrywise."""
    t0 = time.perf_counter()
    mesh = build_mesh(1, 8)
    cov = covariance_matrix(se_kernel(0.3), mesh)
    N = 200_000
    ens = sample_ensemble(factorize(cov), N, seed=606, mesh=mesh)
    emp = ens.fields.T @ ens.fields / N
    C = dense_truth(cov)
    sigma = np.sqrt((np.outer(np.diag(C), np.diag(C)) + C**2) / N)
    z = np.max(np.abs(emp - C) / sigma)
    ok = z <= 5.0
    assert report(6, ok, f"max entrywise z-score {z:.2f} <= 5", t0)


def test_criterion_07_threshold_concentration():
    """P[rho_hat < rho_N / 2] within the stated bound at N=400."""
    t0 = time.perf_counter()
    mesh = build_mesh(1, 400)
    N, trials = 400, 1000
    ratios, rho_N = threshold_ratios(se_kernel(0.05), mesh, N=N, rule=ThresholdRule(c0=1.0),
                                     trials=trials, seed=707, esup_samples=10_000)
    below_half = np.mean(ratios < 0.5)
    # 2 exp(-N min(rho_N, rho_N^2) / 8), plus a Monte Carlo allowance of 3 / sqrt(trials)
    bound = 2.0 * math.exp(-N * min(rho_N, rho_N * rho_N) / 8.0) + 3.0 / math.sqrt(trials)
    ok = below_half <= bound
    assert report(
        7, ok,
        f"P[rho_hat < rho_N/2] = {below_half:.4f} <= {bound:.4f} "
        f"(mean ratio {ratios.mean():.3f})", t0,
    )


def test_criterion_08_supnorm_control():
    """99% quantile of max_ij |khat - k| / rho_N stays below 10."""
    t0 = time.perf_counter()
    mesh = build_mesh(1, 200)
    max_all, _ = supnorm_errors(se_kernel(0.05), mesh, N=50, trials=200, seed=808,
                                esup_samples=10_000)
    q99 = np.quantile(max_all, 0.99)
    ok = q99 <= 10.0
    assert report(8, ok, f"q99 of normalized sup error {q99:.2f} <= 10", t0)


def test_criterion_09_analytic_identities():
    """Quadrature reproduces the closed forms to 1e-8."""
    t0 = time.perf_counter()
    worst = 0.0
    for q in (0.25, 0.5, 0.75):  # C_q = q^(-1/2); lam A(1) cancels in the ratio
        got = sparsity_asymptotic(se_kernel(0.1), q, 1) / sparsity_asymptotic(se_kernel(0.1), 1.0, 1)
        worst = max(worst, abs(got - q**-0.5) / q**-0.5)
    lam = 0.05
    got = sparsity_asymptotic(se_kernel(lam), 1.0, 1)
    want = lam * math.sqrt(2 * math.pi)
    worst = max(worst, abs(got - want) / want)
    ok = worst <= 1e-8
    assert report(9, ok, f"worst relative identity error {worst:.2e} <= 1e-8", t0)


def test_criterion_10_supremum_scaling():
    """MC supremum over prediction stays in a band of width x2 over two decades."""
    t0 = time.perf_counter()
    mesh = build_mesh(1, 1250)
    ratios = []
    for i, lam in enumerate((1e-1, 1e-2, 1e-3)):
        kernel = se_kernel(lam)
        factor = factorize(covariance_matrix(kernel, mesh))
        mean, _ = expected_supremum_mc(factor, mesh, 2000, seed=100 + i)
        ratios.append(mean / supremum_scaling_prediction(kernel, 1))
    spread = max(ratios) / min(ratios)
    ok = spread <= 2.0
    assert report(
        10, ok, f"ratio band width {spread:.3f} <= 2 (ratios {np.round(ratios, 3)})", t0
    )


def test_criterion_11_enkf_ordering_and_continuity():
    """Localized beats vanilla in >= 90% of trials; gain continuity never fails."""
    t0 = time.perf_counter()
    lam = 10.0**-2.5
    mesh = build_mesh(1, 312)
    obs = pointwise_observation(mesh, 8)  # Gamma = 0.1 I
    N = max(2, math.ceil(5 * math.log(1 / lam)))
    summary = compare_analysis_updates(
        se_kernel(lam), mesh, obs, N=N, rule=ThresholdRule(c0=5.0, form="simplified"),
        trials=50, seed=1111,
    )
    ok = summary.frac_localized_better >= 0.9 and summary.continuity_all_ok
    assert report(
        11, ok,
        f"localized better in {summary.frac_localized_better:.0%} of 50 trials "
        f"(mean {summary.mean_localized:.3f} vs {summary.mean_vanilla:.3f}); "
        f"continuity {'held' if summary.continuity_all_ok else 'VIOLATED'}", t0,
    )


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("OPCOV_FULL_SCALE") != "1",
    reason="full-scale run; set OPCOV_FULL_SCALE=1 to enable",
)
def test_criterion_12_full_scale_figure1(tmp_path):
    """Full 30-lengthscale, 100-trial reference run reproduces criteria 1-2."""
    t0 = time.perf_counter()
    threads = int(os.environ.get("OPCOV_THREADS", "1"))
    cfg = _config_from_argv(["fig1", "--out", str(tmp_path / "fig1"), "--seed", "12",
                             "--threads", str(threads), "--plot"])
    summaries = run_figure(cfg)
    elapsed = time.perf_counter() - t0
    problems = []
    for name, lam_summaries in summaries.items():
        by_lam = sorted(lam_summaries, key=lambda row: row["lambda"])
        small = np.mean([row["mean_eps_thresh"] for row in by_lam[:3]])
        large = np.mean([row["mean_eps_thresh"] for row in by_lam[-3:]])
        if not 0.5 <= small / large <= 2.0:
            problems.append(f"{name}: thresholded curve not flat ({small / large:.2f})")
        if by_lam[0]["mean_eps_sample"] / by_lam[-1]["mean_eps_sample"] < 3.0:
            problems.append(f"{name}: no divergence")
        if by_lam[-1]["frac_thresh_worse"] < 0.5:
            problems.append(f"{name}: no crossover at lambda={by_lam[-1]['lambda']:.3f}")
    ok = not problems
    assert report(
        12, ok,
        f"full-scale run in {elapsed / 60:.1f} min with threads={threads}; "
        + ("all qualitative checks held" if ok else "; ".join(problems)), t0,
    )
