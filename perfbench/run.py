"""opcov benchmark: time whole workload passes and the library layers under them.

    python3 perfbench/run.py --workload fig1-d1 --seed 0 --seconds 20 --trace 0

Runs passes of one workload, each in a fresh process with BLAS pinned to one
thread, until ``--seconds`` have gone by and at least ``MIN_PASSES`` passes
have run (one pair of passes when traced).  Pass k uses the seed ``1000 * seed + k``, so the same
``--seed`` gives the same inputs.  Prints a run manifest, one line per metric
with its unit, and, as the last line, the JSON result.  ``--trace 1`` pairs
each untraced pass with a traced pass of the same seed and reports the
per-layer metrics, the tracing overhead, and writes the spans to
``.perfbench_out/``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from _source import ROOT, add_checkout_source
from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
# Untraced passes per run at least.  Each pass's Lanczos work depends on its
# seed (the truth norm takes 2-4k matvecs), so the spread of wall_s between
# runs shrinks with more passes; these counts keep a run within ~35 s.
MIN_PASSES = {"fig1-d1": 2, "fig2-d2": 2, "enkf-d1": 3, "theory-d1": 3}
WORKLOADS = tuple(MIN_PASSES)
DEFAULT_SEED = 0
PASSES_PER_SEED = 1000
RUN_DEADLINE_S = 170  # a run must end within 180 s, even when a pass hangs
MAX_SECONDS = 120     # leaves the slowest pass time to finish before the deadline
THREAD_PIN = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class PassError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    env = dict(os.environ, **THREAD_PIN)
    cmd = [sys.executable, str(HERE / "bench_pass.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(int(traced))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass seed={seed} did not end within the run's {RUN_DEADLINE_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassError(f"pass seed={seed} exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(passes: list[dict]) -> dict[str, float]:
    walls = [p["wall_s"] for p in passes]
    trial_ms = [1e3 * t for p in passes for t in p["trial_s"]]
    rates = [p["trials"] / p["trial_time"] for p in passes if p["trial_time"] > 0]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "trials_per_s": statistics.median(rates) if rates else 0.0,
        "trial_ms.p50": percentile(trial_ms, 50) if trial_ms else 0.0,
        "trial_ms.p75": percentile(trial_ms, 75) if trial_ms else 0.0,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {name: statistics.median(p["layers"][name] for p in traced) for name, _ in PER_LAYER}
    # Tracing starts after the imports, so their noise is left out of the overhead.
    out["trace.overhead_s"] = (statistics.median(p["wall_s"] - p["import_s"] for p in traced)
                               - statistics.median(p["wall_s"] - p["import_s"] for p in plain))
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def manifest(args, passes: list[dict], seeds: list[int]) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "pass_seeds": seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "versions": passes[0]["versions"],
        "blas_thread_pin": THREAD_PIN,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        # Seed-determined outputs of every pass; recorded, not gated.
        "output_sha256": hashlib.sha256(
            "".join(p["digest"] for p in passes).encode()).hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**53 // PASSES_PER_SEED:
        parser.error("--seed must be a nonnegative integer below 2**43")
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must lie in (0, {MAX_SECONDS}]")
    add_checkout_source()  # exits with an error when the checkout has no library

    plain: list[dict] = []
    traced: list[dict] = []
    seeds: list[int] = []
    min_passes = 1 if args.trace else MIN_PASSES[args.workload]
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    try:
        while len(seeds) < min_passes or time.monotonic() - start < args.seconds:
            seed = PASSES_PER_SEED * args.seed + len(seeds)
            seeds.append(seed)
            order = [False]
            if args.trace:
                # Pairs alternate which side runs first, so that a cold first
                # pass does not count as tracing overhead.
                order = [False, True] if len(seeds) % 2 else [True, False]
            for is_traced in order:
                (traced if is_traced else plain).append(
                    run_pass(args.workload, seed, is_traced, deadline - time.monotonic()))
            if args.trace:
                print(f"# pass seed={seed} wall_s={plain[-1]['wall_s']:.3f} "
                      f"traced_wall_s={traced[-1]['wall_s']:.3f}", file=sys.stderr)
            else:
                print(f"# pass seed={seed} wall_s={plain[-1]['wall_s']:.3f}", file=sys.stderr)
    except PassError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for err in p["errors"]:
            print(f"# FAILED {err}", file=sys.stderr)
    info = manifest(args, passes, seeds)
    if args.trace:
        metrics = per_layer(plain, traced)
        units = dict(PER_LAYER)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "manifest": info,
            "span_fields": ["name", "start_s", "end_s", "parent", "trial"],
            "passes": [{"seed": s, "spans": p["spans"]} for s, p in zip(seeds, traced)],
        }) + "\n")
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(plain)
        units = {name: unit for name, unit, _ in END_TO_END}
    print("# manifest " + json.dumps(info, sort_keys=True))
    trial_count = sum(len(p["trial_s"]) for p in plain)
    print(f"# {len(plain)} passes, {trial_count} timed trials; "
          f"failed_frac = {failed}/{attempted} = {failed / attempted:.4g}")
    for name, value in metrics.items():
        print(f"{name:42s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
