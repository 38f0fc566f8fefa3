"""Every library statement is run by a CI command, or the test says why not.

``ci_commands.txt`` holds the command lines of CI's determinism step.  One
round of them runs here in one fresh interpreter with ``sys.settrace`` and
``threading.settrace`` installed before ``import opcov``, so module-level
statements and the trials of the worker pool count.  A statement is a node of
``ast.stmt``; it is executable when the compiled code holds a line start
(``dis.findlinestarts``, as coverage.py counts) whose innermost enclosing
statement it is, and it ran when a line event fired on such a line.  Every
executable statement must run, apart from ``raise`` statements, the FAIL
appends of ``--check``, ``main``'s exit handlers and the entries of
``_ALLOWED``; an allowed statement that runs fails the test too.
"""

import ast
import dis
import json
import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src" / "opcov"

# (module, function, the first source line of each allowed statement, why it
# is kept, the test that runs it).  An allowed statement covers every
# statement nested in it.
_ALLOWED = [
    ("enkf.py", "compare_analysis_updates",
     ("full_solves += 1",
      "delta = w * spectral_norm(_gram(F, N - 1, drop=u) - truth,",
      "bound = gain_continuity_bound(delta, cov_op_norm, obs)",
      "if actual > bound * (1.0 + 1e-6):"),
     "the continuity full solve: without it continuity_ok is only a certificate, "
     "not the exact flag",
     "test_enkf.py::test_uncertified_particle_takes_the_full_solve"),
    ("estimation.py", "_gram",
     ("return LinearOperator((L, L), dtype=float,",),
     "the leave-one-out Gram operand of the continuity full solve",
     "test_enkf.py::test_uncertified_particle_takes_the_full_solve"),
    ("estimation.py", "_extreme_eigenvalue",
     ("if isinstance(exc, ArpackNoConvergence) or np.any(op.matvec(v0)):", "return 0.0"),
     "edge guard: ARPACK rejects the start vector of the zero operator",
     "test_estimation.py::test_zero_operand_at_arpack_size"),
    ("estimation.py", "estimate_and_report",
     ("eps_sample = 1.0  # the zero sample covariance: the difference is -truth",),
     "edge guard: an ensemble of zero fields",
     "test_estimation.py::test_report_on_single_zero_field"),
    ("theory.py", "sparsity_asymptotic",
     ("scale = math.inf",),
     "edge guard: lam^d overflows at a huge lengthscale",
     "test_theory.py::test_sparsity_asymptotic_of_a_huge_lengthscale_is_inf"),
    ("theory.py", "scaling_report",
     ("prediction = math.nan",),
     "edge guard: a lengthscale outside the supremum scaling regime",
     "test_theory.py::test_scaling_report_marks_invalid_prediction_as_nan"),
    ("cli.py", "_parse_lambda_grid",
     ("grid = []",),
     "checks input from outside the program",
     "test_cli.py::test_bad_flag_exits_one"),
    ("cli.py", "_check_figure",
     ("small = np.mean([r[\"mean_eps_thresh\"] for r in by_lam[:3]])",
      "large = np.mean([r[\"mean_eps_thresh\"] for r in by_lam[-3:]])",
      "ratio = small / large if large > 0 else math.inf",
      "if not (0.5 <= ratio <= 2.0):",
      "div = by_lam[0][\"mean_eps_sample\"] / by_lam[-1][\"mean_eps_sample\"]",
      "if div < 3.0:"),
     "flatness and divergence need 6 lengthscales; CI's fig1 --check has 3",
     "test_cli.py::test_check_mode_flags_flat_sample_curve"),
    ("cli.py", "run_enkf_demo",
     ("smallest = summary_rows[-1]",
      "problems = []",
      "if smallest[\"frac_localized_better\"] < 0.9:",
      "if not all(r[\"continuity_all_ok\"] for r in summary_rows):",
      "_write_check(out_dir / \"enkf_demo_check.txt\", problems)"),
     "enkf-demo --check, a documented flag no CI line runs",
     "test_cli.py::test_enkf_demo_check_verdict_matches_its_rows"),
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

# Runs the command lines given as JSON in argv[2] under a line tracer of the
# files in directory argv[1] and prints the exit codes and the lines that ran.
_TRACER = r"""
import json, sys, threading
src, commands = sys.argv[1], json.loads(sys.argv[2])
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
    """(output name, argv) for each command line of ``ci_commands.txt``."""
    lines = (_ROOT / "tests" / "ci_commands.txt").read_text().splitlines()
    return [(words[0], words[1:]) for words in map(str.split, lines)
            if words and not words[0].startswith("#")]


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


def test_every_library_statement_runs_in_a_ci_command(tmp_path):
    # CI's determinism step runs the same list
    assert "done 3< tests/ci_commands.txt" in (_ROOT / ".github/workflows/tests.yml").read_text()
    commands = [[*argv, "--out", str(tmp_path / name)] for name, argv in _ci_commands()]
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               PYTHONWARNINGS="error::RuntimeWarning")
    run = subprocess.run([sys.executable, "-c", _TRACER, str(_SRC), json.dumps(commands)],
                         env=env, capture_output=True, text=True, check=True)
    result = json.loads(run.stdout)
    assert result["codes"] == [0] * len(commands), run.stderr
    ran = {(Path(file).name, line) for file, line in result["ran"]}

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
