"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --seeds 11-20 --out perfbench/baseline.json

For every workload and end-to-end metric it reports the median of the runs
and the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median. That spread
is what a metric's ``bound`` in ``BENCHMARK.json`` must stay above.
Compare two commits with the same seeds and ``--seconds`` on both.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - start
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="11-20", help="inclusive range, e.g. 11-20")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds) for seed in parse_seeds(args.seeds)]
        table = {name: summarise([r["metrics"][name]["value"] for r in runs]) for name in bounds}
        table["elapsed_s"] = summarise([r["elapsed_s"] for r in runs])
        summary["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": table,
        }
        for name, s in table.items():
            bound = bounds.get(name)
            flag = "" if bound is None else ("  ok" if s["spread"] <= bound else "  OVER BOUND")
            print(f"{workload:10s} {name:14s} median={s['median']:.6g} spread={s['spread']:.4f}"
                  f"{'' if bound is None else f' bound={bound}'}{flag}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
