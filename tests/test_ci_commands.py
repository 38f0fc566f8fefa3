"""Two rounds of the CI command set: statement coverage, reruns and output bytes.

``ci_commands.txt`` holds the command lines, each with the exit code it must
return: 0, or the N of an ``exit=N`` word after its name, so that a line can
run a ``--check`` FAIL verdict (3), a runtime failure (2) or a refused flag
(1).  Tier-1 runs them twice, each round in one fresh interpreter with
``OPENBLAS_NUM_THREADS=1`` and every RuntimeWarning an error, checks every
line's exit code in both rounds, and that a line exiting 1 or 2 created no
output directory, and appends ``--threads`` to exactly the commands that
``opcov.cli._SETTINGS["threads"]`` names (the others refuse the flag).

The first round runs at ``--threads 1`` with ``sys.settrace`` and
``threading.settrace`` installed before ``import opcov``, so module-level
statements and the trials of the worker pool count.  From it:

- Every library statement runs, or the test says why not.  A statement is a
  node of ``ast.stmt``; it is executable when the compiled code holds a line
  start (``dis.findlinestarts``, as coverage.py counts) whose innermost
  enclosing statement it is, and it ran when a line event fired on such a
  line.  Every executable statement must run, apart from ``raise``
  statements, the FAIL appends of ``--check``, ``main``'s exit handlers and
  the entries of ``_ALLOWED``, which no command line reaches; an allowed
  statement that runs fails the test too.
- Every result file (all but the ``*_timing.txt`` wall times) has the
  SHA-256 that ``golden_digests.json`` records.  The digests hold only where
  the file's key (library versions, machine, CPU dispatch targets, BLAS)
  matches; elsewhere that test skips and names the part that differs.

The second round runs untraced at ``--threads 2``, and every result file
must match the first round's byte for byte: a rerun, and ``--threads``,
moves no output byte.
"""

import ast
import dis
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from opcov.cli import _SETTINGS
from opcov.estimation import _EIGSH_TAKES_RNG

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src" / "opcov"
_GOLDEN = _ROOT / "tests" / "golden_digests.json"

# (module, function, the first source line of each allowed statement, why it
# is kept, the test that runs it).  An allowed statement covers every
# statement nested in it.
_ALLOWED = [
    ("enkf.py", "compare_analysis_updates",
     ("full_solves += 1",
      "delta = w * spectral_norm(_gram(np.delete(F, n, axis=0), N - 1) - truth,",
      "bound = gain_continuity_bound(delta, cov_op_norm, obs)",
      "if actual > bound * (1.0 + 1e-6):"),
     "the continuity full solve: without it continuity_ok is only a certificate, "
     "not the exact flag",
     "test_enkf.py::test_uncertified_particle_takes_the_full_solve"),
    ("estimation.py", "_extreme_eigenvalue",
     ("if isinstance(exc, ArpackNoConvergence) or np.any(op.matvec(v0)):", "return 0.0"),
     "edge guard: ARPACK rejects the start vector of the zero operator",
     "test_estimation.py::test_zero_operand_at_arpack_size"),
    ("estimation.py", "sample_covariance",
     ("entries = ens.fields.T @ ens.fields",
      "entries /= ens.N",
      "return 0.5 * (entries + entries.T)"),
     "only the benchmark calls it; deleted with ROADMAP item 12",
     "test_estimation.py::test_sample_covariance_rank_one"),
    ("theory.py", "ScalingReport.csv_row",
     ("return \",\".join(repr(float(v)) for v in (",),
     "only the benchmark calls it; deleted with ROADMAP item 12",
     "test_theory.py::test_scaling_report_fields_consistent"),
]

# Runs the command lines given as JSON in argv[1] and prints their exit codes.
_UNTRACED = r"""
import json, sys
from opcov.cli import main
print(json.dumps({"codes": [main(argv) for argv in json.loads(sys.argv[1])]}))
"""

# As _UNTRACED, under a line tracer of the files in directory argv[2], and
# prints the lines that ran too.
_TRACED = r"""
import json, sys, threading
commands, src = json.loads(sys.argv[1]), sys.argv[2]
ran = set()

def on_line(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return on_line

def on_call(frame, event, arg):
    return on_line if frame.f_code.co_filename.startswith(src) else None

threading.settrace(on_call)
sys.settrace(on_call)
from opcov.cli import main
codes = [main(argv) for argv in commands]
sys.settrace(None)
threading.settrace(None)
print(json.dumps({"codes": codes, "ran": sorted(ran)}))
"""


def _ci_commands():
    """(output name, expected exit code, argv) for each command line of
    ``ci_commands.txt``."""
    commands = []
    for words in map(str.split, (_ROOT / "tests" / "ci_commands.txt").read_text().splitlines()):
        if words and not words[0].startswith("#"):
            name, *argv = words
            code = int(argv.pop(0).removeprefix("exit=")) if argv[0].startswith("exit=") else 0
            commands.append((name, code, argv))
    return commands


def _run_round(script, out, threads, *args):
    """Run every command line in one fresh interpreter, each writing to
    ``out/<name>``, at ``threads`` worker threads where the command reads
    ``--threads``; check each line's exit code, and that a line exiting 1 or
    2 created no ``out/<name>``, and return what ``script`` prints."""
    reads_threads = _SETTINGS["threads"].commands
    lines = _ci_commands()
    commands = [[*argv, *(["--threads", str(threads)] if argv[0] in reads_threads else []),
                 "--out", str(out / name)] for name, _, argv in lines]
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               PYTHONWARNINGS="error::RuntimeWarning")
    run = subprocess.run([sys.executable, "-c", script, json.dumps(commands), *args],
                         env=env, capture_output=True, text=True, check=True)
    result = json.loads(run.stdout)
    wrong = {name: (code, got) for (name, code, _), got in zip(lines, result["codes"])
             if got != code}
    assert not wrong, f"lines with another exit code, as (expected, got): {wrong}\n{run.stderr}"
    written = [name for name, code, _ in lines if code in (1, 2) and (out / name).exists()]
    assert not written, f"lines that exit 1 or 2 but created their output directory: {written}"
    return result


@pytest.fixture(scope="module")
def traced_round(tmp_path_factory):
    """The output tree of the traced round and the (file name, line) pairs that ran."""
    out = tmp_path_factory.mktemp("threads1")
    result = _run_round(_TRACED, out, 1, str(_SRC))
    return out, {(Path(file).name, line) for file, line in result["ran"]}


def _digests(out):
    """The SHA-256 of each result file under ``out``, by its relative path."""
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*"))
            if path.is_file() and not path.name.endswith("_timing.txt")}


def _moved(expected, actual):
    """The result files that differ between two digest maps, one kind a line;
    empty when none does."""
    kinds = {"moved": sorted(p for p in expected.keys() & actual.keys() if expected[p] != actual[p]),
             "added": sorted(actual.keys() - expected.keys()),
             "removed": sorted(expected.keys() - actual.keys())}
    return "".join(f"\n{kind}: {' '.join(files)}" for kind, files in kinds.items() if files)


def _blas(config):
    blas = config["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def _digest_key():
    """What the result bytes depend on besides the source tree and the seed.
    numpy and scipy each link their own BLAS; ARPACK runs on scipy's."""
    config = np.show_config(mode="dicts")
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "eigsh_takes_rng": _EIGSH_TAKES_RNG, "machine": platform.machine(),
            "cpu_dispatch": config["SIMD Extensions"]["found"], "blas": _blas(config),
            "scipy_blas": _blas(scipy.show_config(mode="dicts"))}


def _statement_of_line(tree):
    """Each source line's innermost enclosing statement."""
    owner = {}
    for node in ast.walk(tree):  # breadth first, so a nested statement comes later
        if isinstance(node, ast.stmt):
            for line in range(node.lineno, node.end_lineno + 1):
                owner[line] = node
    return owner


def _line_starts(code):
    """The line starts of ``code`` and every code object nested in it."""
    lines = {line for _, line in dis.findlinestarts(code) if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            lines |= _line_starts(const)
    return lines


def _functions(tree):
    """Each statement's enclosing function, as Class.method or function."""
    qualname = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}" if prefix else child.name
            if isinstance(child, ast.stmt):
                qualname[child] = prefix
            visit(child, name)

    visit(tree, "")
    return qualname


def _subtree(node):
    """``node`` and every statement nested in it."""
    return {n for n in ast.walk(node) if isinstance(n, ast.stmt)}


def _exempt(path, tree):
    """Statements no command is asked to run, with everything nested in them:
    ``raise`` statements, the ``problems.append`` calls of ``--check`` and
    ``main``'s exit handlers (its ``except`` clauses, and the ``__main__``
    guard that hands its code to ``sys.exit``; the console script calls
    ``main`` itself)."""
    roots = [node for node in ast.walk(tree) if isinstance(node, ast.Raise)]
    for node in ast.walk(tree) if path.name == "cli.py" else ():
        if isinstance(node, ast.Expr) and ast.unparse(node).startswith("problems.append("):
            roots.append(node)
        elif isinstance(node, ast.FunctionDef) and node.name == "main":
            roots += [stmt for handler in ast.walk(node)
                      if isinstance(handler, ast.ExceptHandler) for stmt in handler.body]
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            roots += node.body
    return set().union(*map(_subtree, roots))


def _test_exists(reference):
    """Whether ``file.py::name`` names a test function in tests/."""
    file, name = reference.split("::")
    tree = ast.parse((_ROOT / "tests" / file).read_text())
    return any(isinstance(n, ast.FunctionDef) and n.name == name for n in ast.walk(tree))


def test_every_library_statement_runs_in_a_ci_command(traced_round):
    _, ran = traced_round
    missing = [(module, test) for module, *_, test in _ALLOWED
               if not (_SRC / module).is_file() or not _test_exists(test)]
    assert not missing, f"allowlist entries name a module or test that does not exist: {missing}"
    never_ran, stale, unmatched = [], [], []
    for path in sorted(_SRC.glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        owner = _statement_of_line(tree)
        qualname = _functions(tree)
        executable = {owner[line] for line in _line_starts(compile(source, str(path), "exec"))
                      if line in owner}
        executed = {owner[line] for file, line in ran if file == path.name and line in owner}
        lines = source.splitlines()
        allowed = set()
        for module, function, firsts, _reason, _test in _ALLOWED:
            for first in firsts if module == path.name else ():
                hits = [s for s in executable if qualname.get(s) == function
                        and lines[s.lineno - 1].strip() == first]
                if len(hits) != 1:
                    unmatched.append(f"{module} {function}: {first}")
                allowed.update(hits)
                stale += [f"{path.name}:{hit.lineno} {first}" for hit in hits
                          if _subtree(hit) & executed]
        covered = executed | _exempt(path, tree) | set().union(*map(_subtree, allowed))
        never_ran += [f"{path.name}:{s.lineno} {lines[s.lineno - 1].strip()}"
                      for s in sorted(executable - covered, key=lambda s: s.lineno)]
    assert not unmatched, f"allowlist entries that name no single statement: {unmatched}"
    assert not stale, f"allowed statements that a CI command runs: {stale}"
    assert not never_ran, f"statements no CI command runs: {never_ran}"


def test_rerun_at_two_threads_writes_the_same_bytes(traced_round, tmp_path):
    _run_round(_UNTRACED, tmp_path, 2)
    moved = _moved(_digests(traced_round[0]), _digests(tmp_path))
    assert not moved, f"the --threads 2 round differs from the first:{moved}"


def test_result_bytes_match_the_committed_digests(traced_round, tmp_path):
    golden, key = json.loads(_GOLDEN.read_text()), _digest_key()
    differs = [f"{part} is {key.get(part)!r} here, {golden['key'].get(part)!r} in {_GOLDEN.name}"
               for part in sorted(key.keys() | golden["key"].keys())
               if key.get(part) != golden["key"].get(part)]
    if differs:
        pytest.skip("the digests were made elsewhere: " + "; ".join(differs))
    digests = _digests(traced_round[0])
    moved = _moved(golden["digests"], digests)
    if moved:
        replacement = tmp_path / _GOLDEN.name
        replacement.write_text(json.dumps({"key": key, "digests": digests},
                                          indent=1, sort_keys=True) + "\n")
        pytest.fail(f"result bytes differ from {_GOLDEN.name}:{moved}\n"
                    f"the digests of this tree are in {replacement}")
