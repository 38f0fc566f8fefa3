"""Names and units of every metric the benchmark reports (stdlib only).

``run.py`` prints these; ``BENCHMARK.json`` lists the same names, and the
smoke test keeps the two in step.  All ``.s`` layer metrics are self times:
a span's duration minus that of the spans it encloses.
"""

# (name, unit, better) for untraced runs.
END_TO_END = [
    ("wall_s", "s", "lower"),          # median wall time of one pass
    ("setup_s", "s", "lower"),         # import + mesh (+ per-lengthscale set-up), median
    ("trials_per_s", "1/s", "higher"),
    ("trial_ms.p50", "ms", "lower"),
    ("trial_ms.p75", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# (name, unit) for traced runs.
PER_LAYER = [
    ("kernels.eval_kernel.s", "s"),
    ("sampling.covariance_matrix.s", "s"),
    ("sampling.covariance_matrix.bytes", "B"),
    ("sampling.factorize.s", "s"),
    ("sampling.factorize.jitter", "1"),
    ("sampling.sample_ensemble.s", "s"),
    ("sampling.sample_ensemble.fields", "count"),
    ("estimation.spectral_norm.truth.s", "s"),
    ("estimation.spectral_norm.truth.matvecs", "count"),
    ("estimation.relative_error.sample.s", "s"),
    ("estimation.relative_error.thresh.s", "s"),
    ("estimation.sample_covariance.s", "s"),
    ("estimation.threshold_parameter.s", "s"),
    ("estimation.hard_threshold.s", "s"),
    ("estimation.min_eigenvalue.s", "s"),
    ("estimation.estimate_and_report.s", "s"),
    ("estimation.zero_estimate_frac", "ratio"),
    ("enkf.compare_analysis_updates.s", "s"),
    ("enkf.spectral_norm.s", "s"),
    ("enkf.spectral_norm.calls", "count"),
    ("enkf.loo_covariances.s", "s"),
    ("enkf.loo_covariances.calls", "count"),
    ("enkf.kalman_gain.s", "s"),
    ("enkf.kalman_gain.calls", "count"),
    ("theory.scaling_report.s", "s"),
    ("theory.sample_ensemble.s", "s"),
    ("theory.factorize.s", "s"),
    ("theory.spectral_norm.s", "s"),
    ("theory.quadrature.s", "s"),
    ("driver.import_s", "s"),
    ("driver.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]
