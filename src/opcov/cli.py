"""Experiment harness: reference-figure reproductions, EnKF demo, custom sweeps.

Commands (also exposed as the ``opcov`` console script)::

    opcov fig1       d=1 error curves over a lengthscale grid, both kernels
    opcov fig2       d=2 variant on the 100x100 mesh
    opcov enkf-demo  localized vs stochastic analysis step over a grid
    opcov custom     single-kernel sweep with explicit grids
    opcov theory     scaling-report sweep (sparsity, norms, effective rank)

Each command reads the settings in ``_SETTINGS`` that name it, as flags
only; a flag the command does not read is a configuration error.  Runs are
deterministic given the master seed: each (kernel, lengthscale, trial) cell
draws from its own substream, so results are identical for any ``--threads``
value; output rows are written in grid order by one CSV writer,
``_write_csv``, the only formatter of library records, and every
per-lengthscale result is a column of the command's summary CSV, which a
figure command also draws as ``<name>.svg`` (``_svg.error_figure``).  Every
file goes through ``_write_lines``, and a result file holds nothing but
results, so reruns are byte-identical file for file; wall times go to a
separate timing file.  ``--kernel`` names a family and its shape (``se`` or
``matern:nu={0.5,1.5,2.5}``); ``--lambdas`` sets every lengthscale.

Exit codes: 0 success, 1 configuration error, 2 runtime failure,
3 acceptance-threshold violation under ``--check``.
"""

from __future__ import annotations

import argparse
import copy
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import enkf as enkf_mod
from ._svg import error_figure
from .estimation import (
    EstimationError,
    SpectralNormError,
    ThresholdRule,
    estimate_and_report,
    spectral_norm,
)
from .kernels import KernelError, KernelModel, parse_kernel
from .sampling import (
    MAX_MESH_POINTS,
    Mesh,
    SamplingError,
    build_mesh,
    covariance_matrix,
    derive_seed,
    factorize,
    sample_ensemble,
)
from .theory import _check_draws, _check_q, scaling_report

__all__ = [
    "ConfigError",
    "CheckFailure",
    "ExperimentConfig",
    "sample_size",
    "run_figure",
    "run_enkf_demo",
    "run_theory",
    "main",
]


class ConfigError(ValueError):
    """Bad flag value or flag combination."""


class CheckFailure(RuntimeError):
    """A --check criterion was violated."""


# A figure's --check judges flatness and divergence on its three smallest
# against its three largest of at least _CHECK_MIN_LAMBDAS lengthscales, and
# the crossover at a largest lengthscale of at least _CROSSOVER_LAMBDA.
_CHECK_MIN_LAMBDAS = 6
_CROSSOVER_LAMBDA = 10**-0.2


@dataclass
class ExperimentConfig:
    experiment: str = "custom"
    kernel: str = "se"
    d: int = 1
    m: int = 312
    lambda_grid: list[float] = field(default_factory=lambda: [0.1])
    n_fixed: int = 0  # 0: the reference rule of sample_size
    c0: float = 5.0
    form: str = "simplified"
    trials: int = 30
    master_seed: int = 0
    output_dir: str = "opcov_out"
    threads: int = 1
    check: bool = False
    # enkf-demo
    dy: int = 8
    noise_std: float = enkf_mod.DEFAULT_NOISE_STD
    # theory
    q: float = 0.5
    esup_samples: int = 2000

    def validate(self) -> tuple[Mesh, ThresholdRule, list[KernelModel],
                                enkf_mod.ObservationModel | None]:
        """Check every setting; return ``(mesh, rule, kernels, obs)``, the objects checked.

        A run uses these and builds none of its own.  ``kernels`` are the
        unit-lengthscale base kernels stepped to each lengthscale: both
        reference families (Matern at nu = 1.5) for fig1 and fig2, the parsed
        ``kernel`` otherwise.  ``obs`` is enkf-demo's observation model, None
        otherwise.  A bad value raises ConfigError; nothing is written.
        """
        if self.experiment not in _COMMANDS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if not len(self.lambda_grid):
            raise ConfigError("lambda_grid must not be empty")
        # numpy scalars sneak in via logspace grids; plain floats keep the
        # CSV writers on the shortest round-trip repr
        self.lambda_grid = [float(l) for l in self.lambda_grid]
        if any(not (0 < l < math.inf) for l in self.lambda_grid):
            raise ConfigError("lambda_grid entries must be finite and strictly positive")
        if any(l < sys.float_info.min for l in self.lambda_grid):
            # 1/lambda of a subnormal lengthscale overflows in the sample-size rule
            raise ConfigError(f"lambda_grid entries must be normal floats, >= {sys.float_info.min!r}")
        if any(nxt >= prev for prev, nxt in zip(self.lambda_grid, self.lambda_grid[1:])):
            raise ConfigError("lambda_grid must be sorted in strictly descending order")
        if (self.check and self.experiment in _FIGURES
                and len(self.lambda_grid) < _CHECK_MIN_LAMBDAS
                and self.lambda_grid[0] < _CROSSOVER_LAMBDA):
            raise ConfigError(
                f"--check would check nothing: flatness and divergence need at least "
                f"{_CHECK_MIN_LAMBDAS} lengthscales and the crossover a largest lengthscale "
                f">= 10**-0.2, got {len(self.lambda_grid)} up to {self.lambda_grid[0]!r}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.master_seed < 0:
            # seeds feed numpy's SeedSequence, which takes only nonnegative integers
            raise ConfigError(f"seed must be >= 0, got {self.master_seed}")
        if self.n_fixed < 0:
            raise ConfigError(f"n_fixed must be >= 0 (0: the reference rule), got {self.n_fixed}")
        if self.experiment == "enkf-demo" and self.n_fixed == 1:
            # each analysis leaves one particle out of the ensemble
            raise ConfigError(f"enkf-demo needs n_fixed >= 2 particles, got {self.n_fixed}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        # The library's own checks, run before any work so that a bad value
        # is a configuration error rather than a failure mid-run.
        try:
            rule = ThresholdRule(c0=self.c0, form=self.form)
            mesh = build_mesh(self.d, self.m)
            kernels = ([KernelModel("se", 1.0), KernelModel("matern", 1.0, 1.5)]
                       if self.experiment in ("fig1", "fig2") else [parse_kernel(self.kernel)])
            obs = (enkf_mod.pointwise_observation(mesh, self.dy, self.noise_std)
                   if self.experiment == "enkf-demo" else None)
            if self.experiment == "theory":
                _check_q(self.q)
                _check_draws(self.esup_samples)
        except (EstimationError, SamplingError, enkf_mod.EnkfError, KernelError) as exc:
            raise ConfigError(str(exc)) from None
        # figure and EnKF runs hold one N x L ensemble at a time, within the limit
        # of one dense matrix; theory keeps N suprema, and the cap bounds its draws
        if self.experiment == "theory":
            N = self.esup_samples
        else:
            N = max(sample_size(lam, self) for lam in self.lambda_grid)
        if N * mesh.L > MAX_MESH_POINTS**2:
            raise ConfigError(f"an ensemble of {N} fields on {mesh.L} points exceeds "
                              f"the limit of {MAX_MESH_POINTS**2} values")
        if rule.form == "full":
            # enkf-demo thresholds leave-one-out ensembles of N - 1 members
            shrink = 1 if self.experiment == "enkf-demo" else 0
            for lam in self.lambda_grid:
                try:
                    rule.rho(0.0, sample_size(lam, self) - shrink)
                except EstimationError as exc:
                    raise ConfigError(f"{exc} at lambda={lam!r}") from None
        return mesh, rule, kernels, obs


# Each command's preset: the ExperimentConfig fields it sets other than to
# the defaults.  A command not listed starts from the defaults.
_PRESETS = {
    # d=1 reference setup: 1250-point mesh, 30 lengthscales in [1e-3, 1e-0.1]
    "fig1": {"m": 1250, "lambda_grid": list(np.logspace(-0.1, -3.0, 30)), "trials": 100},
    # d=2 reference setup: 100x100 mesh, 10 lengthscales in [1e-2.3, 1e-0.1]
    "fig2": {"d": 2, "m": 100, "lambda_grid": list(np.logspace(-0.1, -2.3, 10)), "trials": 30},
    "enkf-demo": {"m": 1250, "lambda_grid": list(np.logspace(-1.0, -3.0, 5)), "trials": 20},
}


def sample_size(lam: float, cfg: ExperimentConfig) -> int:
    """N for one lengthscale: ``n_fixed`` when it is set (>= 1), else the
    reference rule N = ceil(5 d ln(1/lam)), floored at 2.

    The natural log and the exponent d are an assumption about the reference
    description, not a value checked against it.
    """
    if cfg.n_fixed:
        return cfg.n_fixed
    return max(2, math.ceil(5.0 * cfg.d * math.log(1.0 / lam)))


# ---------------------------------------------------------------------------
# flags
# ---------------------------------------------------------------------------

def _parse_lambda_grid(text: str) -> list[float]:
    try:
        grid = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        grid = []
    if not grid:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of floats: {text!r}")
    return grid


class _Setting(NamedTuple):
    parse: Callable[[str], object]  # the flag's argparse type; bool: a bare switch
    commands: tuple[str, ...]
    flag: str | None = None  # None: --<key> with dashes for underscores
    help: str | None = None


_FIGURES = ("fig1", "fig2", "custom")
_RULE = (*_FIGURES, "enkf-demo")  # the commands that threshold an ensemble
_COMMANDS = (*_RULE, "theory")

# Every setting a command reads, by ExperimentConfig field.
_SETTINGS = {
    "master_seed": _Setting(int, _COMMANDS, "--seed", "master seed"),
    "output_dir": _Setting(str, _COMMANDS, "--out", "output directory"),
    "lambda_grid": _Setting(_parse_lambda_grid, _COMMANDS, "--lambdas",
                            "comma-separated descending lengthscale grid"),
    "m": _Setting(int, _COMMANDS, help="mesh points per axis"),
    "d": _Setting(int, ("custom", "enkf-demo", "theory")),
    "kernel": _Setting(str, ("custom", "enkf-demo", "theory"),
                       help="se or matern:nu={0.5,1.5,2.5}"),
    "trials": _Setting(int, _RULE),
    "c0": _Setting(float, _RULE),
    "form": _Setting(str, _RULE, help="full or simplified"),
    "n_fixed": _Setting(int, _RULE, help="fixed sample size N; 0 for N = ceil(5 d ln(1/lambda))"),
    "check": _Setting(bool, _RULE, help=(
        "verify qualitative acceptance thresholds; exit 3 on violation")),
    "threads": _Setting(int, _FIGURES, help="worker threads per lengthscale"),
    "dy": _Setting(int, ("enkf-demo",)),
    "noise_std": _Setting(float, ("enkf-demo",)),
    "q": _Setting(float, ("theory",)),
    "esup_samples": _Setting(int, ("theory",)),
}


def _flag(key: str) -> str:
    return _SETTINGS[key].flag or "--" + key.replace("_", "-")


# ---------------------------------------------------------------------------
# figure runs
# ---------------------------------------------------------------------------


def _write_lines(path: Path, lines: list[str]) -> None:
    """Write ``lines``, one per line."""
    with open(path, "w", newline="") as fh:
        fh.write("".join(line + "\n" for line in lines))


def _cell(value) -> str:
    """The one CSV cell rule: ``str`` for strings, bools and integers, else the
    shortest round-trip ``repr`` of the value as a float."""
    if isinstance(value, (str, int, np.integer)):  # bool is an int
        return str(value)
    return repr(float(value))


def _write_csv(path: Path, rows: list[dict]) -> None:
    """Write a CSV: the first row's keys as the header, then one line per row."""
    _write_lines(path, [",".join(rows[0]), *(",".join(map(_cell, row.values())) for row in rows)])


def _row(record) -> dict:
    """A dataclass record as a CSV row: its fields in order, ``lam`` written ``lambda``."""
    return {"lambda" if f.name == "lam" else f.name: getattr(record, f.name)
            for f in fields(record)}


def _write_check(path: Path, problems: list[str]) -> None:
    """Write the ``--check`` verdict, PASS or FAIL and the violations; raise on FAIL."""
    _write_lines(path, ["FAIL", *problems] if problems else ["PASS"])
    if problems:
        raise CheckFailure("; ".join(problems))


def _lengthscale_trials(cfg: ExperimentConfig, mesh: Mesh, rule: ThresholdRule,
                        kernel: KernelModel, kernel_idx: int, lam_idx: int, name: str):
    """Set up one lengthscale and run its trials.

    Returns the trial rows, the summary row (its keys, in this order, are the
    summary CSV columns) and the timing line.  The truth and its factor die
    with this call, so a Cholesky factor is released before the next
    lengthscale factorizes.
    """
    lam, N = kernel.lam, sample_size(kernel.lam, cfg)
    t_setup = time.perf_counter()
    cov = covariance_matrix(kernel, mesh)
    factor = factorize(cov)
    truth_norm = spectral_norm(cov, seed=derive_seed(cfg.master_seed, 0xA0, kernel_idx, lam_idx))
    setup_s = time.perf_counter() - t_setup

    def one_trial(trial: int):
        t0 = time.perf_counter()
        seed = derive_seed(cfg.master_seed, kernel_idx, lam_idx, trial)
        ens = sample_ensemble(factor, N, seed, mesh)
        report = estimate_and_report(ens, cov, rule, seed=seed, truth_norm=truth_norm)
        return report, seed, time.perf_counter() - t0

    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        reports, seeds, seconds = zip(*pool.map(one_trial, range(cfg.trials)))
    trial_rows = [
        {"seed": seed, "d": cfg.d, "m": cfg.m, "lambda": lam, "N": N, "c0": float(rule.c0),
         "form": rule.form, **_row(report), "trial": trial}
        for trial, (report, seed) in enumerate(zip(reports, seeds))
    ]
    eps_s = np.array([r.eps_sample for r in reports])
    eps_t = np.array([r.eps_thresh for r in reports])
    # rho_hat >= 0 is averaged at the exact scale 2^-k < 1 / max, where no sum overflows
    rho = np.array([r.rho_hat for r in reports])
    k = int(np.frexp(rho.max())[1])

    def ci95(x):
        return 1.96 * float(x.std(ddof=1)) / math.sqrt(x.size) if x.size > 1 else 0.0

    summary = {
        "lambda": lam, "N": N, "trials": cfg.trials,
        "mean_eps_sample": float(eps_s.mean()), "ci95_eps_sample": ci95(eps_s),
        "mean_eps_thresh": float(eps_t.mean()), "ci95_eps_thresh": ci95(eps_t),
        "mean_rho_hat": float(np.ldexp(np.mean(np.ldexp(rho, -k)), k)),
        "mean_nnz_fraction": float(np.mean([r.nnz_fraction for r in reports])),
        "zero_estimate_frac": float(np.mean([r.nnz_fraction == 0 for r in reports])),
        "frac_thresh_worse": float(np.mean(eps_t >= eps_s)),
        "sampler": factor.sampler, "jitter": factor.jitter,
    }
    timing = f"{name} lambda={lam!r} setup_s={setup_s:.3f} trials_s={sum(seconds):.3f}"
    return trial_rows, summary, timing


def _check_figure(rows: list[dict]) -> list[str]:
    """Qualitative reference checks on one kernel's summary rows; returns violations."""
    problems = []
    by_lam = rows[::-1]  # ascending: the grid descends
    if len(by_lam) >= _CHECK_MIN_LAMBDAS:
        small = np.mean([r["mean_eps_thresh"] for r in by_lam[:3]])
        large = np.mean([r["mean_eps_thresh"] for r in by_lam[-3:]])
        ratio = small / large if large > 0 else math.inf
        if not (0.5 <= ratio <= 2.0):
            problems.append(
                f"thresholded curve is not flat: small/large lengthscale mean ratio {ratio:.3f}"
            )
        div = by_lam[0]["mean_eps_sample"] / by_lam[-1]["mean_eps_sample"]
        if div < 3.0:
            problems.append(
                f"sample-covariance curve does not diverge: error ratio {div:.3f} < 3"
            )
    largest = by_lam[-1]
    if largest["lambda"] >= _CROSSOVER_LAMBDA and largest["frac_thresh_worse"] <= 0.5:
        problems.append(
            "no large-lengthscale crossover: thresholding was no better than the sample "
            f"covariance in only {largest['frac_thresh_worse']:.0%} of trials, not in most, "
            f"at lambda={largest['lambda']:.4g}"
        )
    return problems


def run_figure(cfg: ExperimentConfig) -> dict[str, list[dict]]:
    """Run fig1/fig2/custom; returns each kernel family's summary rows, as written."""
    mesh, rule, kernels, _ = cfg.validate()
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summaries: dict[str, list[dict]] = {}
    timings: list[str] = []
    for kernel_idx, base in enumerate(kernels):
        name = f"{cfg.experiment}_{base.family}"
        trial_rows: list[dict] = []
        rows: list[dict] = []
        for lam_idx, lam in enumerate(cfg.lambda_grid):
            trials, summary, timing = _lengthscale_trials(
                cfg, mesh, rule, KernelModel(base.family, lam, base.nu), kernel_idx, lam_idx, name
            )
            trial_rows.extend(trials)
            rows.append(summary)
            timings.append(timing)
        _write_csv(out_dir / f"{name}_trials.csv", trial_rows)
        _write_csv(out_dir / f"{name}_summary.csv", rows)
        curves = ([r[key] for r in rows]
                  for key in ("lambda", "mean_eps_sample", "mean_eps_thresh", "N"))
        _write_lines(out_dir / f"{name}.svg", error_figure(name, *curves))
        summaries[base.family] = rows
    _write_lines(out_dir / f"{cfg.experiment}_timing.txt", timings)
    if cfg.check:
        problems = []
        for family, rows in summaries.items():
            problems.extend(f"[{family}] {p}" for p in _check_figure(rows))
        _write_check(out_dir / f"{cfg.experiment}_check.txt", problems)
    return summaries


# ---------------------------------------------------------------------------
# enkf demo and theory sweep
# ---------------------------------------------------------------------------


def run_enkf_demo(cfg: ExperimentConfig) -> list[dict]:
    """Localized vs stochastic analysis step over the lengthscale grid."""
    mesh, rule, (base,), obs = cfg.validate()
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows: list[dict] = []
    summary_rows: list[dict] = []
    for lam_idx, lam in enumerate(cfg.lambda_grid):
        kernel = KernelModel(base.family, lam, base.nu)
        N = sample_size(lam, cfg)
        seed = derive_seed(cfg.master_seed, 0xEF, lam_idx)
        summary = enkf_mod.compare_analysis_updates(
            kernel, mesh, obs, N, rule, cfg.trials, seed
        )
        trials = summary.trials
        rows.extend(
            {"seed": seed, "trial": t, "n": n, "disc_vanilla": comp.disc_vanilla[n],
             "disc_localized": comp.disc_localized[n],
             "innovation_norm": comp.innovation_norms[n], "c_const": comp.c_consts[n]}
            for t, comp in enumerate(trials) for n in range(comp.disc_vanilla.size)
        )
        quantiles = {}  # of the discrepancies of every particle of every trial
        for name in ("vanilla", "localized"):
            pooled = np.concatenate([getattr(t, f"disc_{name}") for t in trials])
            for q, value in zip((50, 90, 99), np.quantile(pooled, [0.5, 0.9, 0.99])):
                quantiles[f"{name}_q{q}"] = float(value)
        # one summary row; its keys, in this order, are the CSV columns
        summary_rows.append({
            "lambda": lam, "N": N, "trials": cfg.trials,
            "mean_disc_vanilla": float(np.mean([t.mean_vanilla for t in trials])),
            "mean_disc_localized": float(np.mean([t.mean_localized for t in trials])),
            "frac_localized_better": summary.frac_localized_better,
            "zero_localized_frac": sum(t.zero_localized for t in trials) / (cfg.trials * N),
            "continuity_all_ok": all(t.continuity_ok for t in trials),
            **quantiles,
            "indefinite_gains": sum(t.indefinite_gains for t in trials),
            "sampler": summary.sampler,
            "continuity_full_solves": sum(t.continuity_full_solves for t in trials),
            "continuity_min_margin": min(t.continuity_min_margin for t in trials),
        })
    _write_csv(out_dir / "enkf_demo_trials.csv", rows)
    _write_csv(out_dir / "enkf_demo_summary.csv", summary_rows)
    if cfg.check:
        smallest = summary_rows[-1]
        problems = []
        if smallest["frac_localized_better"] < 0.9:
            problems.append(
                "localized update beat the stochastic one in only "
                f"{smallest['frac_localized_better']:.0%} of trials at the smallest lengthscale"
            )
        if not all(r["continuity_all_ok"] for r in summary_rows):
            problems.append("gain-continuity inequality violated in some trial")
        _write_check(out_dir / "enkf_demo_check.txt", problems)
    return summary_rows


def run_theory(cfg: ExperimentConfig) -> list:
    """Scaling-report sweep over the lengthscale grid for one kernel family."""
    mesh, _, (base,), _ = cfg.validate()
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = [scaling_report(KernelModel(base.family, lam, base.nu), mesh, cfg.q,
                              cfg.esup_samples, derive_seed(cfg.master_seed, 0x7E, lam_idx))
               for lam_idx, lam in enumerate(cfg.lambda_grid)]
    _write_csv(out_dir / "theory_sweep.csv", [_row(r) for r in reports])
    return reports


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # remap argparse's exit(2) onto config errors
        raise ConfigError(message)


def _build_parser() -> _Parser:
    # no prefix matching: a command reads only the flags in _SETTINGS, spelled out
    parser = _Parser(prog="opcov", description=__doc__.splitlines()[0], allow_abbrev=False)
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        # a flag left out leaves no attribute, so the preset keeps its value
        sub = subs.add_parser(name, allow_abbrev=False, argument_default=argparse.SUPPRESS)
        for key, setting in _SETTINGS.items():
            if name not in setting.commands:
                continue
            if setting.parse is bool:
                sub.add_argument(_flag(key), dest=key, action="store_true", help=setting.help)
            else:
                sub.add_argument(_flag(key), dest=key, type=setting.parse, help=setting.help)
    return parser


def _config_from_argv(argv) -> ExperimentConfig:
    """The configuration a command line asks for: the command's preset, then its flags."""
    args, unread = _build_parser().parse_known_args(argv)
    values = vars(args)
    command = values.pop("command")
    if unread:
        raise ConfigError(f"{command} does not read {' '.join(unread)}")
    # a copy, so that no two configs share a preset's lambda_grid
    preset = copy.deepcopy(_PRESETS.get(command, {}))
    return ExperimentConfig(experiment=command, **{**preset, **values})


def main(argv=None) -> int:
    try:
        cfg = _config_from_argv(argv)
    except ConfigError as exc:
        print(f"opcov: configuration error: {exc}", file=sys.stderr)
        return 1
    try:
        if cfg.experiment in _FIGURES:
            run_figure(cfg)
        elif cfg.experiment == "enkf-demo":
            run_enkf_demo(cfg)
        else:
            run_theory(cfg)
    except CheckFailure as exc:
        print(f"opcov: check failed: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, KernelError) as exc:
        print(f"opcov: configuration error: {exc}", file=sys.stderr)
        return 1
    except (EstimationError, SpectralNormError, SamplingError, enkf_mod.EnkfError,
            OSError) as exc:
        print(f"opcov: runtime failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
