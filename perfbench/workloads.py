"""The four benchmark workloads and one pass of each.

A pass makes the same library calls the ``opcov`` commands make, in a fresh
process (``bench_pass.py``), and times them from outside:

* ``fig``: per lengthscale ``covariance_matrix`` -> ``factorize`` ->
  ``spectral_norm`` of the truth (the set-up), then per trial
  ``sample_ensemble`` -> ``estimate_and_report``; this is ``_run_kernel_sweep``
  in ``opcov.cli`` and the README quick start.
* ``enkf``: one ``compare_analysis_updates`` call, as ``enkf-demo`` makes.
* ``theory``: one ``scaling_report`` call per point, as ``theory`` makes.

Seeds are derived from the pass seed exactly as the commands derive them
from ``--seed``.  After the timed work, and outside it, every pass checks its
outputs against ``oracle.py``; a mismatch or an exception counts as a failed
operation and never aborts the pass.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from opcov import enkf, estimation, sampling, theory
from opcov.kernels import KernelModel
from opcov.sampling import derive_seed

import oracle
from metrics import PER_LAYER
from spans import Tracer

C0 = 5.0              # reference threshold prefactor, simplified form
MATERN_NU = 1.5
# Checks allow ten times the solvers' residual certificates: 1e-9 for the
# estimation norms and the theory norm, 1e-7 for the EnKF norms.
RTOL_NORM = 1e-8
RTOL_ENKF = 1e-6
ESUP_SIGMAS = 6.0     # Monte Carlo tolerance of the supremum check

LIBRARY_ERRORS = (
    sampling.SamplingError,
    estimation.EstimationError,
    estimation.SpectralNormError,
    enkf.EnkfError,
    np.linalg.LinAlgError,
)


@dataclass(frozen=True)
class Spec:
    kind: str                    # "fig", "enkf" or "theory"
    d: int
    m: int
    lams: tuple[float, ...]
    families: tuple[str, ...] = ("se", "matern")
    trials: int = 1              # fig: per lengthscale; enkf: per call
    q: float = 0.5               # theory sparsity exponent
    draws: int = 2000            # theory Monte Carlo fields
    d_y: int = 8                 # enkf observations
    noise_var: float = 0.1       # enkf observation noise variance

    def cells(self) -> list[tuple[str, float]]:
        return [(f, lam) for f in self.families for lam in self.lams]


# Why each workload exists is in README.md beside this file.
WORKLOADS = {
    "fig1-d1": Spec("fig", d=1, m=1250, lams=(10 ** -0.1, 0.3, 1e-2, 1e-3), trials=4),
    "fig2-d2": Spec("fig", d=2, m=64, lams=(0.3,), trials=3),
    "enkf-d1": Spec("enkf", d=1, m=1250, lams=(1e-3,), families=("se",), trials=2),
    "theory-d1": Spec("theory", d=1, m=1250, lams=(0.1, 0.03, 0.01)),
}


def load_reference() -> dict:
    return json.loads(oracle.REFERENCE_PATH.read_text())


def sample_size(lam: float, d: int) -> int:
    """The reference rule N = ceil(5 d ln(1/lam)), floored at 2."""
    return max(2, math.ceil(5.0 * d * math.log(1.0 / lam)))


def kernel_of(family: str, lam: float) -> KernelModel:
    return KernelModel(family, lam, MATERN_NU if family == "matern" else None)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


@dataclass
class PassLog:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    setup_s: float = 0.0
    trials: int = 0
    trial_s: list[float] = field(default_factory=list)  # one latency per timed unit
    trial_time: float = 0.0
    zero_estimates: int = 0
    checks: list = field(default_factory=list)           # run after the timed region
    digest: object = field(default_factory=hashlib.sha256)

    def fail(self, what: str, exc: BaseException | str) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {exc}")

    def record(self, *values) -> None:
        self.digest.update(repr(values).encode())


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def _fig_pass(spec: Spec, seed: int, log: PassLog, tracer: Tracer | None, ref: dict) -> None:
    t = time.perf_counter()
    mesh = sampling.build_mesh(spec.d, spec.m)
    log.setup_s += time.perf_counter() - t
    rule = estimation.ThresholdRule(c0=C0, form="simplified")
    for ki, family in enumerate(spec.families):
        for li, lam in enumerate(spec.lams):
            N = sample_size(lam, spec.d)
            cell = f"{family}/{lam!r}"
            if tracer:
                tracer.trial = f"{cell}/setup"
            t = time.perf_counter()
            log.attempted += 1
            try:
                cov = sampling.covariance_matrix(kernel_of(family, lam), mesh)
                factor = sampling.factorize(cov)
                truth_norm = estimation.spectral_norm(cov, seed=derive_seed(seed, 0xA0, ki, li))
            except LIBRARY_ERRORS as exc:
                log.setup_s += time.perf_counter() - t
                log.fail(f"{cell} setup", exc)
                log.attempted += spec.trials
                log.failed += spec.trials
                continue
            log.setup_s += time.perf_counter() - t
            log.checks.append(_truth_check(cell, truth_norm, ref[oracle.cell_key(family, lam, spec.d, spec.m)]))
            for trial in range(spec.trials):
                if tracer:
                    tracer.trial = f"{cell}/{trial}"
                s = derive_seed(seed, ki, li, trial)
                log.attempted += 1
                t = time.perf_counter()
                try:
                    ens = sampling.sample_ensemble(factor, N, s, mesh)
                    report = estimation.estimate_and_report(ens, cov, rule, seed=s, truth_norm=truth_norm)
                except LIBRARY_ERRORS as exc:
                    log.fail(f"{cell}/{trial}", exc)
                    continue
                dt = time.perf_counter() - t
                log.trials += 1
                log.trial_time += dt
                log.trial_s.append(dt)
                log.zero_estimates += report.nnz_fraction == 0.0
                log.record(family, lam, trial, report.rho_hat, report.eps_sample,
                           report.eps_thresh, report.nnz_fraction, report.psd_min_eig)
                if trial == 0:
                    log.checks.append(_trial_check(
                        f"{cell}/{trial}", spec, family, lam, ens.fields.copy(), report,
                        ref[oracle.cell_key(family, lam, spec.d, spec.m)]["norm"],
                    ))


def _enkf_pass(spec: Spec, seed: int, log: PassLog, tracer: Tracer | None, ref: dict) -> None:
    t = time.perf_counter()
    mesh = sampling.build_mesh(spec.d, spec.m)
    obs = enkf.pointwise_observation(mesh, spec.d_y, math.sqrt(spec.noise_var))
    log.setup_s += time.perf_counter() - t
    rule = estimation.ThresholdRule(c0=C0, form="simplified")
    for li, (family, lam) in enumerate(spec.cells()):
        cell = f"{family}/{lam!r}"
        if tracer:
            tracer.trial = cell
        log.attempted += 1
        t = time.perf_counter()
        try:
            summary = enkf.compare_analysis_updates(
                kernel_of(family, lam), mesh, obs, sample_size(lam, spec.d), rule,
                spec.trials, derive_seed(seed, 0xEF, li),
            )
        except LIBRARY_ERRORS as exc:
            log.fail(cell, exc)
            continue
        dt = time.perf_counter() - t
        log.trials += spec.trials
        log.trial_time += dt
        log.trial_s.append(dt / spec.trials)
        for comp in summary.trials:
            log.record(family, lam, comp.disc_vanilla.tolist(), comp.disc_localized.tolist(),
                       comp.c_consts.tolist(), comp.continuity_ok)
        norm = ref[oracle.cell_key(family, lam, spec.d, spec.m)]["norm"]
        log.checks.append(_enkf_check(cell, summary, obs, mesh.weight, norm))


def _theory_pass(spec: Spec, seed: int, log: PassLog, tracer: Tracer | None, ref: dict) -> None:
    t = time.perf_counter()
    mesh = sampling.build_mesh(spec.d, spec.m)
    log.setup_s += time.perf_counter() - t
    for family in spec.families:
        for li, lam in enumerate(spec.lams):
            cell = f"{family}/{lam!r}"
            if tracer:
                tracer.trial = cell
            log.attempted += 1
            t = time.perf_counter()
            try:
                rep = theory.scaling_report(kernel_of(family, lam), mesh, spec.q, spec.draws,
                                            derive_seed(seed, 0x7E, li))
            except LIBRARY_ERRORS as exc:
                log.fail(cell, exc)
                continue
            dt = time.perf_counter() - t
            log.trials += 1
            log.trial_time += dt
            log.trial_s.append(dt)
            log.record(rep.csv_row())
            log.checks.append(_theory_check(
                cell, rep, spec, ref[oracle.cell_key(family, lam, spec.d, spec.m)]))


PASSES = {"fig": _fig_pass, "enkf": _enkf_pass, "theory": _theory_pass}


# ---------------------------------------------------------------------------
# correctness checks (each returns a list of mismatch messages)
# ---------------------------------------------------------------------------


def _truth_check(cell: str, truth_norm: float, ref: dict):
    def check():
        if _rel(truth_norm, ref["norm"]) > RTOL_NORM:
            return [f"{cell} truth norm {truth_norm!r} vs oracle {ref['norm']!r}"]
        return []
    return check


def _trial_check(cell: str, spec: Spec, family: str, lam: float, fields: np.ndarray,
                 report, ref_norm: float):
    """Recompute rho_hat, eps_sample and eps_thresh densely from the pass's own ensemble."""
    def check():
        N = fields.shape[0]
        truth = oracle.truth_matrix(family, lam, spec.d, spec.m)
        sample = fields.T @ fields / N
        rho = max(0.0, C0 * float(fields.max(axis=1).mean()) / math.sqrt(N))
        thresh = np.where(np.abs(sample) >= rho, sample, 0.0)
        eps_sample = oracle.sym_norm(sample - truth) / ref_norm
        eps_thresh = oracle.sym_norm(thresh - truth) / ref_norm if thresh.any() else 1.0
        out = []
        for name, got, want, tol in (
            ("rho_hat", report.rho_hat, rho, 1e-12),
            ("eps_sample", report.eps_sample, eps_sample, RTOL_NORM),
            ("eps_thresh", report.eps_thresh, eps_thresh, RTOL_NORM),
        ):
            if _rel(got, want) > tol:
                out.append(f"{cell} {name} {got!r} vs oracle {want!r}")
        return out
    return check


def _enkf_check(cell: str, summary, obs, weight: float, ref_norm: float):
    """c_const / |innovation| is ||A|| ||Gamma^-1|| ||C||, a seed-free constant."""
    def check():
        out = []
        want = obs.a_op_norm * obs.gamma_inv_norm * weight * ref_norm
        for t, comp in enumerate(summary.trials):
            worst = float(np.max(np.abs(comp.c_consts / comp.innovation_norms - want))) / want
            if worst > RTOL_ENKF:
                out.append(f"{cell}/{t} c_const/innovation off by {worst:.3e} relative")
            if not comp.continuity_ok:
                out.append(f"{cell}/{t} gain-continuity inequality violated")
        if summary.frac_localized_better < 0.9:
            out.append(f"{cell} localized update beat the stochastic one in only "
                       f"{summary.frac_localized_better:.0%} of trials")
        return out
    return check


def _theory_check(cell: str, rep, spec: Spec, ref: dict):
    def check():
        weight = 1.0 / spec.m ** spec.d
        out = []
        for name, got, want, tol in (
            ("op_norm", rep.op_norm, weight * ref["norm"], RTOL_NORM),
            ("eff_rank", rep.eff_rank, spec.m ** spec.d / ref["norm"], RTOL_NORM),
            ("Rq_q", rep.Rq_q, ref["Rq_q"], 1e-10),
            ("Rq_q_asymptotic", rep.Rq_q_asymptotic, ref["Rq_q_asymptotic"], RTOL_NORM),
            ("op_norm_asymptotic", rep.op_norm_asymptotic, ref["op_norm_asymptotic"], RTOL_NORM),
            ("esup_prediction", rep.esup_prediction, ref["esup_prediction"], RTOL_NORM),
        ):
            if not _rel(got, want) <= tol:
                out.append(f"{cell} {name} {got!r} vs oracle {want!r}")
        sd = ref["esup_sd"] * math.sqrt(1.0 / spec.draws + 1.0 / ref["esup_draws"])
        if not abs(rep.esup_mc - ref["esup_mean"]) <= ESUP_SIGMAS * sd:
            out.append(f"{cell} esup_mc {rep.esup_mc!r} vs oracle {ref['esup_mean']!r} "
                       f"+- {ESUP_SIGMAS:g} x {sd:.3g}")
        return out
    return check


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


class _CountingMatrix(np.ndarray):
    """View of the truth matrix that counts the products taken with it."""

    def __matmul__(self, other):
        self.tracer.counts["estimation.spectral_norm.truth.matvecs"] += 1
        return np.asarray(self) @ other


def _install(tracer: Tracer) -> None:
    counts = tracer.counts

    def add_bytes(args, kwargs, cov):
        counts["sampling.covariance_matrix.bytes"] += 8 * cov.L ** 2

    def add_jitter(args, kwargs, factor):
        counts["sampling.factorize.jitter"] = max(counts["sampling.factorize.jitter"], factor.jitter)

    def add_fields(args, kwargs, ens):
        counts["sampling.sample_ensemble.fields"] += ens.N

    def counting_truth(args, kwargs):
        cov = args[0]
        view = np.asarray(cov.entries).view(_CountingMatrix)
        view.tracer = tracer
        return (dataclasses.replace(cov, entries=view),) + tuple(args[1:]), kwargs

    last_sample = [None]

    def keep_sample(args, kwargs, cov):
        last_sample[0] = cov

    def relative_error_name(args, kwargs):
        est = args[0] if args else kwargs["est"]
        kind = "sample" if est is last_sample[0] else "thresh"
        return f"estimation.relative_error.{kind}"

    tracer.wrap(sampling, "eval_kernel", "kernels.eval_kernel")
    tracer.wrap(sampling, "covariance_matrix", "sampling.covariance_matrix", after=add_bytes)
    tracer.wrap(sampling, "factorize", "sampling.factorize", after=add_jitter)
    tracer.wrap(sampling, "sample_ensemble", "sampling.sample_ensemble", after=add_fields)
    tracer.wrap(estimation, "spectral_norm", "estimation.spectral_norm.truth", before=counting_truth)
    tracer.wrap(estimation, "sample_covariance", "estimation.sample_covariance", after=keep_sample)
    tracer.wrap(estimation, "relative_error", relative_error_name)
    for name in ("threshold_parameter", "hard_threshold", "min_eigenvalue", "estimate_and_report"):
        tracer.wrap(estimation, name, f"estimation.{name}")
    tracer.wrap(enkf, "compare_analysis_updates", "enkf.compare_analysis_updates")
    tracer.wrap(enkf, "spectral_norm", "enkf.spectral_norm")
    tracer.wrap_generator(enkf, "loo_covariances", "enkf.loo_covariances")
    tracer.wrap(enkf, "kalman_gain", "enkf.kalman_gain")
    tracer.wrap(theory, "scaling_report", "theory.scaling_report")
    tracer.wrap(theory, "sample_ensemble", "theory.sample_ensemble", after=add_fields)
    tracer.wrap(theory, "factorize", "theory.factorize", after=add_jitter)
    tracer.wrap(theory, "spectral_norm", "theory.spectral_norm")
    tracer.wrap(theory, "sparsity_asymptotic", "theory.quadrature")
    tracer.wrap(theory, "operator_norm_asymptotic", "theory.quadrature")


def _layer_metrics(tracer: Tracer, log: PassLog, wall_s: float, import_s: float) -> dict:
    self_s, top = tracer.self_times()
    out = {}
    for name, _unit in PER_LAYER:
        if name.endswith(".s"):
            out[name] = self_s.get(name[:-2], 0.0)
        else:
            out[name] = float(tracer.counts.get(name, 0.0))
    out["estimation.zero_estimate_frac"] = log.zero_estimates / log.trials if log.trials else 0.0
    out["driver.import_s"] = import_s
    out["driver.self_s"] = wall_s - import_s - top
    out["trace.wall_s"] = wall_s
    out["trace.overhead_s"] = 0.0  # filled in by run.py from paired untraced passes
    return out


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------


def run_pass(spec: Spec, seed: int, t0: float, reference: dict, traced: bool) -> dict:
    """Time one pass of ``spec`` from ``t0`` (process start), then check it."""
    t_entry = time.perf_counter()
    import_s = t_entry - t0
    tracer = Tracer() if traced else None
    log = PassLog(setup_s=import_s)
    if tracer:
        _install(tracer)
    try:
        PASSES[spec.kind](spec, seed, log, tracer, reference)
        wall_s = time.perf_counter() - t0
    finally:
        if tracer:
            tracer.restore()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for check in log.checks:
        log.attempted += 1
        try:
            problems = check()
        except LIBRARY_ERRORS as exc:
            problems = [f"check raised {exc}"]
        if problems:
            log.failed += 1
            log.errors.extend(problems)
    result = {
        "wall_s": wall_s,
        "import_s": import_s,
        "setup_s": log.setup_s,
        "trials": log.trials,
        "trial_time": log.trial_time,
        "trial_s": log.trial_s,
        "peak_rss_mb": rss_mb,
        "attempted": log.attempted,
        "failed": log.failed,
        "errors": log.errors,
        "digest": log.digest.hexdigest(),
    }
    if tracer:
        result["layers"] = _layer_metrics(tracer, log, wall_s, import_s)
        result["spans"] = [[n, s - t0, e - t0, p, trial] for n, s, e, p, trial in tracer.spans]
    return result
