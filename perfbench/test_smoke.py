"""Tiny-size smoke test of the benchmark itself (seconds, not minutes).

    python3 -m pytest perfbench/test_smoke.py -q

It runs every pass kind on meshes of a few dozen points, traced and
untraced, against an oracle reference computed on the spot, and checks the
benchmark's own contract: metric names, self-time accounting, that the
correctness checks catch a wrong answer, and that ``run.py`` refuses to run
without the library source.
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

from _source import add_checkout_source

ROOT = add_checkout_source()

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

TINY = {
    "fig-d1": workloads.Spec("fig", d=1, m=48, lams=(0.3, 0.01), trials=2),
    "fig-d2": workloads.Spec("fig", d=2, m=6, lams=(0.3,), trials=2),
    "enkf": workloads.Spec("enkf", d=1, m=96, lams=(1e-3,), families=("se",), trials=2),
    "theory": workloads.Spec("theory", d=1, m=48, lams=(0.1, 0.03), draws=200),
}


@pytest.fixture(scope="module")
def reference():
    return oracle.build_reference(TINY)


def _pass(spec, reference, traced):
    return workloads.run_pass(spec, 7, time.perf_counter(), reference, traced=traced)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_pass_is_correct_and_accounted(name, reference):
    plain = _pass(TINY[name], reference, traced=False)
    traced = _pass(TINY[name], reference, traced=True)
    assert plain["failed"] == 0 and traced["failed"] == 0, plain["errors"] + traced["errors"]
    assert plain["attempted"] > 0
    assert plain["digest"] == traced["digest"], "tracing changed the outputs"

    metrics = run.end_to_end([plain, plain])
    assert list(metrics) == [n for n, _, _ in END_TO_END]
    assert all(v > 0 for v in metrics.values()), metrics

    layers = traced["layers"]
    assert list(layers) == [n for n, _ in PER_LAYER]
    accounted = (sum(v for k, v in layers.items() if k.endswith(".s"))
                 + layers["driver.import_s"] + layers["driver.self_s"])
    assert accounted == pytest.approx(traced["wall_s"], rel=1e-9)
    assert layers["driver.self_s"] >= 0.0


def test_checks_catch_a_wrong_reference(reference):
    off = {k: dict(v, norm=v["norm"] * (1 + 1e-6)) for k, v in reference.items()}
    for name in ("fig-d1", "theory"):
        out = _pass(TINY[name], off, traced=False)
        assert out["failed"] > 0 and out["errors"], name


def test_reference_covers_every_workload_cell():
    ref = workloads.load_reference()
    for spec in workloads.WORKLOADS.values():
        for family, lam in spec.cells():
            assert oracle.cell_key(family, lam, spec.d, spec.m) in ref


def test_benchmark_json_matches_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == PER_LAYER


def test_run_fails_without_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theory-d1", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
