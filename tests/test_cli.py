import argparse
import csv
import itertools
import math
import re
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from opcov import cli
from opcov.cli import (
    _COMMANDS,
    _SETTINGS,
    ConfigError,
    ExperimentConfig,
    _build_parser,
    _check_figure,
    _config_from_argv,
    _flag,
    main,
    run_figure,
    sample_size,
)
from opcov.estimation import SpectralNormError


def result_files(out_dir):
    """Every file of a run's output directory but its wall-clock timing file,
    by name, as bytes."""
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())
            if not path.name.endswith("_timing.txt")}


def read_rows(path):
    """Data rows of a harness CSV."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# sample-size rule
# ---------------------------------------------------------------------------


def test_sample_size_reference_values():
    cfg = _config_from_argv(["fig1"])
    assert sample_size(1e-3, cfg) == 35  # ceil(5 ln 1000)
    assert sample_size(10**-0.1, cfg) == 2  # floored at 2
    cfg2 = _config_from_argv(["fig2"])
    assert sample_size(10**-2.3, cfg2) == 53  # ceil(5 ln(lambda^-2))


def test_sample_size_overrides():
    cfg = _config_from_argv(["fig1", "--n-fixed", "100"])
    assert sample_size(1e-3, cfg) == 100


def test_fig_grids():
    cfg1 = _config_from_argv(["fig1"])
    assert len(cfg1.lambda_grid) == 30
    assert cfg1.lambda_grid[0] == pytest.approx(10**-0.1)
    assert cfg1.lambda_grid[-1] == pytest.approx(1e-3)
    assert cfg1.trials == 100 and cfg1.m == 1250 and cfg1.d == 1
    # validate() rewrites lambda_grid in place, so each config holds its own
    assert cfg1.lambda_grid is not _config_from_argv(["fig1"]).lambda_grid
    cfg2 = _config_from_argv(["fig2"])
    assert len(cfg2.lambda_grid) == 10
    assert cfg2.m == 100 and cfg2.d == 2 and cfg2.trials == 30
    assert cfg2.lambda_grid[-1] == pytest.approx(10**-2.3)
    assert cfg2.m**2 == 10_000


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig(lambda_grid=[]).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(lambda_grid=[0.1, 0.2]).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(lambda_grid=[0.1, -0.2]).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(lambda_grid=[0.1], trials=0).validate()
    with pytest.raises(ConfigError, match="unknown experiment 'fig3'"):
        ExperimentConfig(experiment="fig3").validate()


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def test_custom_single_point_single_row(tmp_path):
    code = main([
        "custom", "--kernel", "se", "--m", "16", "--lambdas", "0.2",
        "--trials", "1", "--n-fixed", "4",
        "--c0", "1", "--form", "full", "--seed", "3", "--out", str(tmp_path / "o"),
    ])
    assert code == 0
    rows = read_rows(tmp_path / "o" / "custom_se_trials.csv")
    assert len(rows) == 1
    assert rows[0]["N"] == "4" and rows[0]["form"] == "full"


def test_custom_matern_rows_use_the_kernel_smoothness(tmp_path):
    # custom steps its one --kernel to each lengthscale, keeping nu = 2.5;
    # every row equals estimate_and_report on matern_kernel(lambda, 2.5)
    # with the command's seeds
    from opcov.estimation import ThresholdRule, estimate_and_report, spectral_norm
    from opcov.kernels import matern_kernel
    from opcov.sampling import (
        build_mesh,
        covariance_matrix,
        derive_seed,
        factorize,
        sample_ensemble,
    )

    seed, lams, trials = 4, [0.3, 0.05], 2
    assert main(["custom", "--kernel", "matern:nu=2.5", "--m", "64", "--c0", "1",
                 "--lambdas", "0.3,0.05", "--trials", str(trials), "--seed", str(seed),
                 "--out", str(tmp_path / "o")]) == 0
    cfg = ExperimentConfig(experiment="custom", m=64, c0=1.0, lambda_grid=lams)
    rule = ThresholdRule(c0=1.0, form="simplified")
    mesh = build_mesh(1, 64)
    want = [",".join(_TRIAL_COLUMNS)]
    for lam_idx, lam in enumerate(lams):
        truth = covariance_matrix(matern_kernel(lam, 2.5), mesh)
        factor = factorize(truth)
        truth_norm = spectral_norm(truth, seed=derive_seed(seed, 0xA0, 0, lam_idx))
        N = sample_size(lam, cfg)
        for trial in range(trials):
            trial_seed = derive_seed(seed, 0, lam_idx, trial)
            ens = sample_ensemble(factor, N, trial_seed, mesh)
            report = estimate_and_report(ens, truth, rule, seed=trial_seed, truth_norm=truth_norm)
            want.append(",".join([
                str(trial_seed), "1", "64", repr(lam), str(N), "1.0", "simplified",
                repr(report.rho_hat), repr(report.eps_sample), repr(report.eps_thresh),
                repr(report.nnz_fraction), repr(report.psd_min_eig), str(trial),
            ]))
    assert (tmp_path / "o" / "custom_matern_trials.csv").read_text().splitlines() == want


# every CSV's columns, written out independently of the writer
_TRIAL_COLUMNS = ("seed", "d", "m", "lambda", "N", "c0", "form", "rho_hat", "eps_sample",
                  "eps_thresh", "nnz_fraction", "psd_min_eig", "trial")
_SUMMARY_COLUMNS = ("lambda", "N", "trials", "mean_eps_sample", "ci95_eps_sample",
                    "mean_eps_thresh", "ci95_eps_thresh", "mean_rho_hat", "mean_nnz_fraction",
                    "zero_estimate_frac", "frac_thresh_worse", "sampler", "jitter")
_CSV_COLUMNS = {
    **{f"{fig}_{family}_{kind}.csv": columns
       for fig in ("fig1", "fig2", "custom") for family in ("se", "matern")
       for kind, columns in (("trials", _TRIAL_COLUMNS), ("summary", _SUMMARY_COLUMNS))},
    "enkf_demo_trials.csv": ("seed", "trial", "n", "disc_vanilla", "disc_localized",
                             "innovation_norm", "c_const"),
    "enkf_demo_summary.csv": ("lambda", "N", "trials", "mean_disc_vanilla",
                              "mean_disc_localized", "frac_localized_better",
                              "zero_localized_frac", "continuity_all_ok",
                              "vanilla_q50", "vanilla_q90", "vanilla_q99",
                              "localized_q50", "localized_q90", "localized_q99",
                              "indefinite_gains", "sampler", "continuity_full_solves",
                              "continuity_min_margin"),
    "theory_sweep.csv": ("lambda", "Rq_q", "Rq_q_asymptotic", "op_norm", "op_norm_asymptotic",
                         "eff_rank", "esup_mc", "esup_prediction"),
}
_INT_COLUMNS = {"seed", "d", "m", "N", "trial", "trials", "n", "indefinite_gains",
                "continuity_full_solves"}
_TEXT_COLUMNS = {"form": {"full", "simplified"}, "continuity_all_ok": {"True", "False"},
                 "sampler": {"block-circulant", "cholesky", "circulant", "kronecker"}}


def test_readme_quotes_the_csv_headers_the_commands_write():
    # the figure trial and summary headers and the enkf-demo summary header,
    # in the order README quotes them
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    quoted = re.findall(r"^\w+(?:,\w+)+$", readme, flags=re.MULTILINE)
    assert quoted == [",".join(_TRIAL_COLUMNS), ",".join(_SUMMARY_COLUMNS),
                      ",".join(_CSV_COLUMNS["enkf_demo_summary.csv"])]


def check_one_cell_rule(path):
    """Assert that a harness CSV is its header, then rows of well-formed cells:
    integer and text columns as written out above, every other cell a float
    written as its shortest round-trip repr."""
    columns = _CSV_COLUMNS[path.name]
    header, *rows = path.read_text().splitlines()
    assert header == ",".join(columns), path.name
    assert rows
    for row in rows:
        cells = row.split(",")
        assert len(cells) == len(columns)
        for column, cell in zip(columns, cells):
            if column in _INT_COLUMNS:
                assert str(int(cell)) == cell, (path.name, column, cell)
            elif column in _TEXT_COLUMNS:
                assert cell in _TEXT_COLUMNS[column], (path.name, column, cell)
            else:
                assert repr(float(cell)) == cell, (path.name, column, cell)


def test_mean_rho_hat_whose_sum_overflows_is_finite(tmp_path):
    # at lambda = 0.3 the two trials' rho_hat are 8.7e307 and 1.16e308: their
    # sum overflows, their mean does not; the mean of two values is exactly
    # half the rounded sum at either row
    assert main(["custom", "--lambdas", "0.794,0.3", "--m", "2", "--trials", "2",
                 "--c0", "1e308", "--n-fixed", "1", "--out", str(tmp_path)]) == 0
    trials = read_rows(tmp_path / "custom_se_trials.csv")
    for row in read_rows(tmp_path / "custom_se_summary.csv"):
        a, b = (float(t["rho_hat"]) for t in trials if t["lambda"] == row["lambda"])
        assert math.isfinite(float(row["mean_rho_hat"]))
        assert float(row["mean_rho_hat"]) == a / 2 + b / 2


def test_every_csv_cell_follows_the_one_cell_rule(tmp_path):
    # one small run of each command; every cell outside the integer and text
    # columns is a float written as its shortest round-trip repr (fig2's
    # Matern cell at lambda = 0.8 draws by the first-axis embedding)
    runs = [
        "fig1 --m 32 --lambdas 0.3,0.1 --trials 2",
        "fig2 --m 8 --lambdas 0.8,0.1 --trials 2",
        "custom --kernel matern:nu=2.5 --m 32 --c0 1 --lambdas 0.3,0.05 --trials 2",
        "enkf-demo --m 32 --lambdas 0.3,0.1 --trials 2 --dy 4",
        "theory --m 32 --lambdas 0.1,0.05 --esup-samples 16",
    ]
    seen = set()
    for i, line in enumerate(runs):
        out = tmp_path / str(i)
        assert main(line.split() + ["--out", str(out)]) == 0
        for path in out.glob("*.csv"):
            seen.add(path.name)
            check_one_cell_rule(path)
    assert len(seen) == 13  # fig1, fig2: 2 kernels x 2; custom, enkf-demo: 2; theory: 1


def test_timing_names_the_sampler(tmp_path):
    # Matern at d = 3, m = 10: lambda = 0.8 stays negative on every embedding
    # the size rule allows, 0.5 passes the first-axis one at p = 3, and 0.05
    # the minimal full one
    assert main(["custom", "--kernel", "matern:nu=1.5", "--d", "3", "--m", "10",
                 "--lambdas", "0.8,0.5,0.05", "--trials", "1", "--out", str(tmp_path / "o")]) == 0
    rows = read_rows(tmp_path / "o" / "custom_matern_summary.csv")
    assert [row["sampler"] for row in rows] == ["cholesky", "block-circulant", "circulant"]
    assert all(float(row["jitter"]) >= 0.0 for row in rows)
    # the timing file holds only wall-clock seconds
    lines = (tmp_path / "o" / "custom_timing.txt").read_text().splitlines()
    assert len(lines) == 3
    assert all(re.fullmatch(r"custom_matern lambda=\S+ setup_s=[0-9.]+ trials_s=[0-9.]+", ln)
               for ln in lines)


def test_sweep_releases_each_cholesky_factor_before_the_next(tmp_path):
    # Matern at d = 3, m = 10 factorizes both lengthscales by Cholesky; a
    # cell's set-up holds the gathered matrix and its factor (numpy's LAPACK
    # work copy is not traced), so holding the previous factor as well would
    # reach three L x L arrays
    import tracemalloc

    cfg = _config_from_argv(["custom", "--kernel", "matern:nu=1.5", "--d", "3", "--m", "10",
                             "--lambdas", "0.8,0.7", "--trials", "1", "--out", str(tmp_path)])
    tracemalloc.start()
    try:
        run_figure(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [row["sampler"] for row in read_rows(tmp_path / "custom_matern_summary.csv")] == \
        ["cholesky", "cholesky"]
    assert peak < 2.5 * 8 * (10**3) ** 2


def test_run_figure_returns_the_summary_rows_it_writes(tmp_path):
    rows = run_figure(_config_from_argv(["fig1", "--m", "16", "--lambdas", "0.3,0.1",
                                         "--trials", "2", "--out", str(tmp_path)]))
    assert set(rows) == {"se", "matern"}
    for family, written in rows.items():
        parsed = read_rows(tmp_path / f"fig1_{family}_summary.csv")
        assert [list(row) for row in written] == [list(row) for row in parsed]
        assert all(type(value)(cells[key]) == value
                   for row, cells in zip(written, parsed) for key, value in row.items())


def test_figure_check_that_can_check_nothing_is_refused(tmp_path, capsys):
    # 5 lengthscales are too few for flatness and divergence, and a largest
    # one below 10**-0.2 has no crossover: nothing would be evaluated
    lambdas = "0.6,0.3,0.1,0.05,0.02"
    out = tmp_path / "o"
    assert main(["fig1", "--m", "8", "--lambdas", lambdas, "--trials", "1", "--check",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "at least 6 lengthscales" in err and "largest lengthscale >= 10**-0.2" in err
    assert not out.exists()
    # either condition alone makes the check evaluate something
    for grid in (lambdas + ",0.01", "0.7," + lambdas):
        assert main(["fig1", "--m", "8", "--lambdas", grid, "--trials", "1", "--check",
                     "--out", str(tmp_path / grid)]) in (0, 3)
        assert (tmp_path / grid / "fig1_check.txt").exists()
    # and without --check the short grid runs
    assert main(["fig1", "--m", "8", "--lambdas", lambdas, "--trials", "1",
                 "--out", str(out)]) == 0


def test_full_form_with_large_c0_rejected():
    code = main([
        "custom", "--kernel", "se", "--m", "16", "--lambdas", "0.2",
        "--trials", "1", "--n-fixed", "16",
        "--c0", "5", "--form", "full", "--seed", "3", "--out", "/tmp/never",
    ])
    assert code == 1  # c0 = 5 > sqrt(16)


# command line: the part of its error message that names the bad key or value
_BAD_VALUES = {
    "custom --c0 0.5": "c0 must be >= 1, got 0.5",
    "custom --m 1": "m must be >= 2, got 1",
    "custom --d 4": "d must be 1, 2 or 3, got 4",
    "custom --d 3 --m 24": "13824 points",  # over the dense-storage limit
    "theory --q 1.5": "q must lie in (0, 1), got 1.5",
    "theory --q 0": "q must lie in (0, 1), got 0.0",
    "theory --esup-samples 1": "Monte Carlo fields, got 1",
    "enkf-demo --dy 0": "d_y=0",
    "enkf-demo --noise-std 0": "noise_std must be > 0, got 0.0",
    "enkf-demo --noise-std nan": "noise_std must be > 0, got nan",
    "enkf-demo --noise-std inf": "noise_std must be finite, got inf",
    # Gamma = noise_std^2 I and its inverse must both be finite
    "enkf-demo --noise-std 1e300": "noise_std^2 must be a normal float, got noise_std=1e+300",
    "enkf-demo --noise-std 5e-324": "noise_std^2 must be a normal float, got noise_std=5e-324",
    "custom --lambdas inf,0.1": "lambda_grid entries must be finite",
    "theory --lambdas inf,0.1": "lambda_grid entries must be finite",
    "custom --kernel bogus": "unknown kernel family token 'bogus'",
    # Matern exists at its three closed forms only
    "custom --kernel matern:nu=150": "nu must be 0.5, 1.5 or 2.5, got 150.0",
    "theory --kernel matern:nu=5e-324": "nu must be 0.5, 1.5 or 2.5, got 5e-324",
    "custom --kernel matern:nu=3.7": "nu must be 0.5, 1.5 or 2.5, got 3.7",
    # a spec names a family and its shape; --lambdas sets every lengthscale
    "custom --kernel se:lambda=0.5": "--lambdas sets every lengthscale",
    "enkf-demo --kernel matern:lambda=1,nu=1.5": "--lambdas sets every lengthscale",
    # one N x L ensemble holds at most MAX_MESH_POINTS**2 values
    "theory --m 32 --esup-samples 1000000000000": "1000000000000 fields on 32 points",
    "custom --m 32 --n-fixed 1000000000000": "1000000000000 fields on 32 points",
    "fig1 --m 32 --n-fixed 1000000000000000000000": "1000000000000000000000 fields on 32 points",
    # subnormal: 1/lambda overflows in the sample-size rule
    "custom --lambdas 1e-320": "lambda_grid entries must be normal floats",
    "fig1 --lambdas 1e-320": "lambda_grid entries must be normal floats",
    # no particle left out of one
    "enkf-demo --n-fixed 1": "n_fixed >= 2 particles, got 1",
    "custom --n-fixed -1": "n_fixed must be >= 0 (0: the reference rule), got -1",
    # numpy's SeedSequence takes only nonnegative integers
    "custom --seed -1": "seed must be >= 0, got -1",
    "theory --seed -1": "seed must be >= 0, got -1",
    # full form needs c0 <= sqrt(N - 1) on the N - 1 member leave-one-out ensembles
    "enkf-demo --form full --c0 3 --lambdas 0.3": "c0=3.0, N=6",
    "enkf-demo --form full --c0 2.5 --lambdas 0.3": "c0=2.5, N=6",  # sqrt(6) < 2.5 < sqrt(7)
    # every figure run writes its SVG; there is no switch for it
    "fig1 --plot": "fig1 does not read --plot",
}


@pytest.mark.parametrize("line", list(_BAD_VALUES))
def test_bad_values_are_configuration_errors(line, tmp_path, capsys):
    argv = line.split()
    out = tmp_path / "o"
    args = argv + ["--out", str(out)]
    if argv[0] in _SETTINGS["trials"].commands:
        args += ["--trials", "1"]
    if "--lambdas" not in argv:
        args += ["--lambdas", "0.2"]
    if "--m" not in argv:
        args += ["--m", "16"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and _BAD_VALUES[line] in err
    assert not out.exists()  # refused before any work


# one valid value per setting, as flag text (None: a bare switch) and parsed
_SETTING_VALUES = {
    "master_seed": ("7", 7), "output_dir": ("o", "o"), "lambda_grid": ("0.3,0.1", [0.3, 0.1]),
    "m": ("16", 16), "d": ("2", 2), "kernel": ("matern:nu=2.5", "matern:nu=2.5"),
    "trials": ("3", 3), "c0": ("2.5", 2.5), "form": ("full", "full"),
    "n_fixed": ("4", 4), "check": (None, True), "threads": ("2", 2),
    "dy": ("4", 4), "noise_std": ("0.5", 0.5), "q": ("0.3", 0.3), "esup_samples": ("64", 64),
}

# what each command reads, written out independently of the table
_EVERY = {"master_seed", "output_dir", "lambda_grid", "m"}
_RULE_KEYS = {"trials", "c0", "form", "n_fixed", "check"}
_FIGURE_KEYS = _EVERY | _RULE_KEYS | {"threads"}
_READS = {
    "fig1": _FIGURE_KEYS,
    "fig2": _FIGURE_KEYS,
    "custom": _FIGURE_KEYS | {"d", "kernel"},
    "enkf-demo": _EVERY | _RULE_KEYS | {"d", "kernel", "dy", "noise_std"},
    "theory": _EVERY | {"d", "kernel", "q", "esup_samples"},
}


_PRESETS = {"fig1": ExperimentConfig(experiment="fig1", m=1250, trials=100,
                                     lambda_grid=list(np.logspace(-0.1, -3.0, 30))),
            "fig2": ExperimentConfig(experiment="fig2", d=2, m=100, trials=30,
                                     lambda_grid=list(np.logspace(-0.1, -2.3, 10))),
            "enkf-demo": ExperimentConfig(experiment="enkf-demo", m=1250, trials=20,
                                          lambda_grid=list(np.logspace(-1.0, -3.0, 5))),
            "custom": ExperimentConfig(experiment="custom"),
            "theory": ExperimentConfig(experiment="theory")}


def test_each_command_reads_exactly_its_settings(capsys):
    assert set(_SETTING_VALUES) == set(_SETTINGS)
    assert sum(map(len, _READS.values())) == 53
    subs = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subs.choices) == set(_READS)
    for command, sub in subs.choices.items():
        read = _READS[command]
        assert read == {key for key, setting in _SETTINGS.items() if command in setting.commands}
        flags = {opt for action in sub._actions for opt in action.option_strings}
        assert flags - {"-h", "--help"} == {_flag(key) for key in read}
        # a flag left out keeps the command's preset
        assert _config_from_argv([command]) == _PRESETS[command]
        for key, (text, value) in _SETTING_VALUES.items():
            flag_argv = [_flag(key)] if text is None else [_flag(key), text]
            if key in read:
                assert getattr(_config_from_argv([command, *flag_argv]), key) == value
                continue
            assert main([command, *flag_argv]) == 1
            assert re.search(f"{command} does not read {re.escape(_flag(key))}\\b",
                             capsys.readouterr().err)
        # there are no config files: --config is unread like any other flag
        assert main([command, "--config", "run.cfg"]) == 1
        assert f"{command} does not read --config run.cfg" in capsys.readouterr().err


def test_flag_prefixes_are_refused(capsys):
    # argparse would otherwise take an unambiguous prefix for the whole flag
    for argv in (["theory", "--e", "64"], ["custom", "--thr", "3"],
                 ["enkf-demo", "--noise", "0.5"]):
        assert main(argv) == 1
        assert f"{argv[0]} does not read {argv[1]} {argv[2]}" in capsys.readouterr().err
    assert _config_from_argv(["theory", "--esup-samples=64"]).esup_samples == 64


def test_bad_flag_exits_one(capsys):
    assert main(["custom", "--lambdas", "0.1,0.2", "--m", "8"]) == 1
    assert "descending" in capsys.readouterr().err
    # a value its flag cannot parse names the flag and the value
    for argv, message in ((["custom", "--trials", "seven"], "--trials: invalid int value: 'seven'"),
                          (["theory", "--lambdas", "0.1,x"], "--lambdas: not a comma-separated "
                                                              "list of floats: '0.1,x'")):
        assert main(argv) == 1
        assert message in capsys.readouterr().err


def test_unwritable_output_is_runtime_failure():
    code = main([
        "custom", "--kernel", "se", "--m", "8", "--lambdas", "0.2",
        "--trials", "1", "--n-fixed", "2", "--seed", "0",
        "--out", "/proc/opcov_forbidden/x",
    ])
    assert code == 2


def test_solver_failure_is_runtime_failure(monkeypatch, capsys, tmp_path):
    def no_convergence(*args, **kwargs):
        raise SpectralNormError("ARPACK (LM) did not reach tol")

    monkeypatch.setattr(cli, "spectral_norm", no_convergence)
    assert main(["custom", "--m", "16", "--lambdas", "0.1", "--trials", "1",
                 "--out", str(tmp_path / "o")]) == 2
    assert "runtime failure" in capsys.readouterr().err


def test_row_counts_and_rerun_determinism(tmp_path):
    args = [
        "custom", "--kernel", "se", "--m", "24", "--lambdas", "0.3,0.2,0.1",
        "--trials", "2", "--n-fixed", "5", "--seed", "11",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    a = result_files(tmp_path / "a")
    assert set(a) == {"custom_se_trials.csv", "custom_se_summary.csv", "custom_se.svg"}
    assert a == result_files(tmp_path / "b")
    rows = read_rows(tmp_path / "a" / "custom_se_trials.csv")
    assert len(rows) == 6  # 3 lengthscales x 2 trials


def test_threaded_run_matches_serial(tmp_path):
    args = [
        "custom", "--kernel", "se", "--m", "24", "--lambdas", "0.2,0.1",
        "--trials", "4", "--n-fixed", "6", "--seed", "5",
    ]
    assert main(args + ["--out", str(tmp_path / "serial")]) == 0
    assert main(args + ["--out", str(tmp_path / "par"), "--threads", "4"]) == 0
    assert result_files(tmp_path / "serial") == result_files(tmp_path / "par")


def test_summary_matches_independent_aggregation(tmp_path):
    out = tmp_path / "o"
    assert main([
        "custom", "--kernel", "se", "--m", "32", "--lambdas", "0.2,0.1",
        "--trials", "6", "--n-fixed", "8", "--seed", "2",
        "--out", str(out),
    ]) == 0
    trials = read_rows(out / "custom_se_trials.csv")
    summary = read_rows(out / "custom_se_summary.csv")
    for srow in summary:
        lam = srow["lambda"]
        eps = [float(r["eps_sample"]) for r in trials if r["lambda"] == lam]
        mean = statistics.fmean(eps)
        ci = 1.96 * statistics.stdev(eps) / math.sqrt(len(eps))
        assert abs(mean - float(srow["mean_eps_sample"])) < 1e-12
        assert abs(ci - float(srow["ci95_eps_sample"])) < 1e-12
        assert int(srow["trials"]) == len(eps)
        zero = statistics.fmean(float(r["nnz_fraction"]) == 0 for r in trials
                                if r["lambda"] == lam)
        assert float(srow["zero_estimate_frac"]) == zero


def test_plot_writes_valid_svg(tmp_path):
    import xml.dom.minidom

    out = tmp_path / "o"
    assert main([
        "custom", "--kernel", "se", "--m", "16", "--lambdas", "0.4,0.2,0.1",
        "--trials", "2", "--n-fixed", "4", "--seed", "8",
        "--out", str(out),
    ]) == 0
    svg = out / "custom_se.svg"
    assert svg.exists()
    xml.dom.minidom.parse(str(svg))


def test_check_mode_flags_flat_sample_curve(tmp_path):
    # a narrow lengthscale window cannot show the 3x divergence: exit code 3
    out = tmp_path / "o"
    code = main([
        "custom", "--kernel", "se", "--m", "64",
        "--lambdas", "0.32,0.3,0.29,0.28,0.27,0.26",
        "--trials", "4", "--seed", "4", "--out", str(out), "--check",
    ])
    assert code == 3
    report = (out / "custom_check.txt").read_text()
    assert "FAIL" in report


def test_crossover_needs_thresholding_no_better_in_most_trials():
    # a tie is no majority: at 0.5 the crossover fails, at 0.6 it holds
    row = {"lambda": 0.794, "frac_thresh_worse": 0.5}
    assert _check_figure([row]) == [
        "no large-lengthscale crossover: thresholding was no better than the sample "
        "covariance in only 50% of trials, not in most, at lambda=0.794"]
    assert _check_figure([{**row, "frac_thresh_worse": 0.6}]) == []


def test_enkf_demo_emits_summary_rows(tmp_path):
    out = tmp_path / "o"
    assert main([
        "enkf-demo", "--kernel", "se", "--m", "48", "--lambdas", "0.2,0.05",
        "--trials", "2", "--dy", "4", "--seed", "6", "--out", str(out),
    ]) == 0
    rows = read_rows(out / "enkf_demo_summary.csv")
    assert len(rows) == 2
    trials = read_rows(out / "enkf_demo_trials.csv")
    cfg = _config_from_argv(["enkf-demo", "--m", "48"])
    n_small = sample_size(0.2, cfg)
    n_large = sample_size(0.05, cfg)
    assert len(trials) == 2 * (n_small + n_large)
    assert [row["lambda"] for row in rows] == ["0.2", "0.05"]
    for row in rows:
        # the one-probe certificate passes every particle of this run
        assert row["continuity_full_solves"] == "0"
        assert 1.0 <= float(row["continuity_min_margin"]) < math.inf


def test_enkf_demo_summary_recomputes_from_its_trial_rows(tmp_path):
    # the means, the ordering fraction and the pooled quantiles of each
    # summary row, recomputed from the per-particle rows: every cell
    # round-trips exactly, so the two agree bit for bit
    out = tmp_path / "o"
    assert main("enkf-demo --m 32 --lambdas 0.3,0.1 --trials 3 --dy 4".split()
                + ["--out", str(out)]) == 0
    particles = read_rows(out / "enkf_demo_trials.csv")
    summary = read_rows(out / "enkf_demo_summary.csv")
    seeds = list(dict.fromkeys(row["seed"] for row in particles))  # one per lengthscale
    assert len(seeds) == len(summary) == 2
    for seed, srow in zip(seeds, summary):
        rows = [row for row in particles if row["seed"] == seed]
        disc = {name: [np.array([float(row[f"disc_{name}"]) for row in rows
                                 if int(row["trial"]) == t]) for t in range(3)]
                for name in ("vanilla", "localized")}
        means = {name: [float(x.mean()) for x in per_trial] for name, per_trial in disc.items()}
        want = {
            "mean_disc_vanilla": float(np.mean(means["vanilla"])),
            "mean_disc_localized": float(np.mean(means["localized"])),
            "frac_localized_better": float(np.mean(
                [loc < van for loc, van in zip(means["localized"], means["vanilla"])])),
        }
        for name, per_trial in disc.items():
            quantiles = np.quantile(np.concatenate(per_trial), [0.5, 0.9, 0.99])
            want.update({f"{name}_q{q}": float(v) for q, v in zip((50, 90, 99), quantiles)})
        assert len(rows) == 3 * int(srow["N"])
        assert {key: float(srow[key]) for key in want} == want


def test_enkf_demo_rerun_identical(tmp_path):
    args = ["enkf-demo", "--kernel", "se", "--m", "32", "--lambdas", "0.2",
            "--trials", "2", "--dy", "4", "--seed", "9"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert result_files(tmp_path / "a") == result_files(tmp_path / "b")


def test_enkf_demo_check_verdict_matches_its_rows(tmp_path):
    # the verdict written is the one the summary rows it judges give,
    # whichever that is: PASS and exit 0, or exit 3 and a FAIL line per
    # violated criterion
    out = tmp_path / "o"
    code = main("enkf-demo --m 32 --lambdas 0.3,0.1 --trials 2 --dy 4 --check".split()
                + ["--out", str(out)])
    rows = read_rows(out / "enkf_demo_summary.csv")
    frac = float(rows[-1]["frac_localized_better"])
    problems = []
    if frac < 0.9:
        problems.append(f"localized update beat the stochastic one in only {frac:.0%} "
                        "of trials at the smallest lengthscale")
    if not all(row["continuity_all_ok"] == "True" for row in rows):
        problems.append("gain-continuity inequality violated in some trial")
    verdict = (out / "enkf_demo_check.txt").read_text().splitlines()
    assert verdict == (["FAIL", *problems] if problems else ["PASS"])
    assert code == (3 if problems else 0)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 9, 11])
def test_enkf_demo_small_ensemble_does_not_fail_by_seed(seed, tmp_path):
    # at c0 = 1 and N = 8 the thresholded leave-one-out covariance makes
    # A C A^T + Gamma indefinite for some seeds; the gain must still be formed,
    # and the summary records how many localized gains needed that solve.
    # Seeds 0-5 are the command's original failure report; under the
    # circulant sampler 9 and 11 are the first that reach the indefinite solve.
    assert main([
        "enkf-demo", "--c0", "1", "--m", "48", "--lambdas", "0.05", "--n-fixed", "8", "--trials", "3", "--dy", "4", "--seed", str(seed),
        "--out", str(tmp_path / "o"),
    ]) == 0
    (row,) = read_rows(tmp_path / "o" / "enkf_demo_summary.csv")
    assert row["sampler"] == "circulant"
    assert (int(row["indefinite_gains"]) > 0) == (seed in (9, 11))


def test_theory_sweep_csv(tmp_path):
    out = tmp_path / "o"
    assert main([
        "theory", "--kernel", "matern:nu=1.5", "--m", "64",
        "--lambdas", "0.1,0.05", "--seed", "2", "--out", str(out),
        "--esup-samples", "128", "--q", "0.5",
    ]) == 0
    rows = read_rows(out / "theory_sweep.csv")
    assert len(rows) == 2
    assert set(rows[0]) == {
        "lambda", "Rq_q", "Rq_q_asymptotic", "op_norm", "op_norm_asymptotic",
        "eff_rank", "esup_mc", "esup_prediction",
    }
    assert float(rows[0]["lambda"]) == 0.1


def test_numpy_logspace_grid_serializes_as_plain_floats(tmp_path):
    # preset grids come from np.logspace; CSVs must carry bare round-trip reprs
    cfg = ExperimentConfig(
        experiment="custom", kernel="se", m=16,
        lambda_grid=list(np.logspace(-0.5, -1.0, 3)),
        n_fixed=3, trials=2, master_seed=1,
        output_dir=str(tmp_path / "o"),
    )
    run_figure(cfg)
    for name in ("custom_se_trials.csv", "custom_se_summary.csv"):
        text = (tmp_path / "o" / name).read_text()
        assert "np.float64" not in text
        for row in read_rows(tmp_path / "o" / name):
            assert float(row["lambda"]) > 0



@pytest.mark.parametrize("kernel", ["se", "matern:nu=0.5", "matern:nu=1.5", "matern:nu=2.5"])
def test_tiny_lengthscales_run_with_each_closed_form(kernel, tmp_path):
    # the truth at a tiny lengthscale is the identity, for every closed form
    for lam in ("1e-200", repr(sys.float_info.min)):
        out = tmp_path / lam
        assert main(["custom", "--kernel", kernel, "--m", "16", "--lambdas", lam,
                     "--trials", "1", "--out", str(out)]) == 0
        (row,) = read_rows(out / f"custom_{kernel.partition(':')[0]}_summary.csv")
        assert math.isfinite(float(row["mean_eps_sample"]))


def test_plot_labels_log_axes_that_span_no_power_of_ten():
    # lambda in [0.2, 0.4] and errors in [0.18, 0.39] hold no power of ten:
    # each log axis is ticked at its two ends, labelled by value; a single
    # lengthscale sits mid-axis
    from opcov._svg import error_figure

    for xs, ys, want_left, want_bottom in (
        ([0.4, 0.2], [0.18, 0.39], ["0.138462", "0.507"], ["0.2", "0.4"]),  # y: [0.18/1.3, 0.39*1.3]
        ([0.2], [0.18], ["0.138462", "0.234"], ["0.2"]),
    ):
        svg = "\n".join(error_figure("t", xs, ys, ys, [4] * len(xs)))
        assert re.findall(r'text-anchor="end">([^<]*)<', svg) == want_left
        assert re.findall(r'y="402" text-anchor="middle">([^<]*)<', svg) == want_bottom


# ---------------------------------------------------------------------------
# every command over drawn flag values
# ---------------------------------------------------------------------------

_HUGE = "10000000000000000000000"
_LAMBDAS = ("0.794", "0.3", "0.1", "0.02", "2", "1e300", "1e-200", repr(sys.float_info.min))
_BAD_LAMBDAS = ("5e-324", "0", "-0.1", "nan", "inf")
# flag text per setting, as (values a command may accept, values it should
# refuse): typical values, then zero, negatives, non-finite, subnormal and
# huge ones, and text that is no number; valid m and trials stay small
# (m <= 8, trials <= 2), so an accepted run does little work
_DRAWN = {
    "master_seed": (("0", "7", str(2**64)), ("-1", "x")),
    "lambda_grid": (
        # distinct lengthscales in descending order
        st.lists(st.sampled_from(_LAMBDAS), min_size=1, max_size=3, unique=True)
        .map(lambda grid: ",".join(sorted(grid, key=float, reverse=True))),
        # any order, empty, or with a bad entry
        st.lists(st.sampled_from(_LAMBDAS + _BAD_LAMBDAS), max_size=3).map(",".join),
    ),
    "m": (("2", "3", "5", "8"), ("1", "0", "-1", "nan", _HUGE)),
    "d": (("1", "2", "3"), ("0", "4", "-1", _HUGE)),
    "kernel": (("se", "matern:nu=0.5", "matern:nu=1.5", "matern:nu=2.5"),
               ("se:lambda=0.1", "matern:lambda=0.1,nu=1.5", "matern", "", "matern:nu=3.7",
                "matern:nu=100", f"matern:nu={sys.float_info.min!r}", "matern:nu=150",
                "matern:nu=0", "matern:nu=5e-324", "matern:nu=nan")),
    "trials": (("1", "2"), ("0", "-1", "nan")),
    "c0": (("1", "2.5", "5", "1e308"), ("0", "-1", "nan", "inf", "-inf", "5e-324")),
    "form": (("simplified", "full"), ("other",)),
    "n_fixed": (("0", "1", "2", "3", "1000"), ("-1", str(10**12), _HUGE)),
    # no huge value: a pool never starts more threads than there are trials,
    # but a drawn value need not rest on that
    "threads": (("1", "2"), ("0", "-1")),
    "dy": (("1", "4", "8", "9"), ("0", "-1", _HUGE)),
    "noise_std": (("0.5", "1", "1e150", "1e-150"), ("0", "-1", "nan", "inf", "-inf", "1e308",
                                                   "5e-324")),
    "q": (("0.5", "0.1", "0.99"), ("0", "0.01", "1", "-1", "nan", "inf")),
    "esup_samples": (("2", "16"), ("0", "1", "-1", str(10**12), _HUGE)),
}
_RUN_IDS = itertools.count()


def _strategy(values):
    return values if isinstance(values, st.SearchStrategy) else st.sampled_from(values)


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_every_command_line_ends_in_an_exit_code(data, tmp_path, capsys):
    command = data.draw(st.sampled_from(_COMMANDS), label="command")
    keys = [key for key, setting in _SETTINGS.items()
            if command in setting.commands and key != "output_dir"]
    valued = [key for key in keys if _SETTINGS[key].parse is not bool]
    # at most one setting takes a value it should refuse; half the lines none
    bad = data.draw(st.sampled_from([None] * len(valued) + valued), label="bad")
    argv = [command]
    for key in keys:
        if _SETTINGS[key].parse is bool:
            if data.draw(st.booleans(), label=key):
                argv.append(_flag(key))
            continue
        good, refused = map(_strategy, _DRAWN[key])
        if key == bad:
            value = data.draw(refused, label=key)
        elif key in ("m", "trials"):  # always set: no preset's desk-scale size runs
            value = data.draw(good, label=key)
        else:
            value = data.draw(st.none() | good, label=key)
        if value is not None:
            argv.append(f"{_flag(key)}={value}")
    out = tmp_path / f"run{next(_RUN_IDS)}"
    code = main([*argv, "--out", str(out)])
    assert "Traceback" not in capsys.readouterr().err
    assert code in (0, 1, 3), argv
    if code == 3:
        assert "--check" in argv
    if code != 1 and "--check" in argv and command in ("fig1", "fig2", "custom"):
        event("a figure --check ran")
    if code == 1:
        assert not out.exists()  # refused before any work
    if code == 0:
        csvs = list(out.glob("*.csv"))
        assert csvs
        for path in csvs:
            check_one_cell_rule(path)
