"""The names the benchmark in perfbench/ binds must exist in poisolve.

perfbench only finds a missing name at run time: a traced function as an
AttributeError under --trace 1, a called one when its round gets there.
These tests read perfbench's sources (loading tracing.py by path, parsing
the rest) and never modify them. The last one runs perfbench's own
self-test, so that a change that makes a benchmark check reject correct
output fails here first; another holds run.py's metric tables to those
BENCHMARK.json declares.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _poisolve_uses(path):
    """(module, attribute, call node or None) for every poisolve.<module>.<attribute>
    that the file reaches through ``from poisolve import <module>``."""
    tree = ast.parse(path.read_text())
    modules = {alias.asname or alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "poisolve"
               for alias in node.names}
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return [(node.value.id, node.attr, calls.get(id(node)))
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules]


USES = [(path.name, *use) for path in SOURCES for use in _poisolve_uses(path)]


def test_sources_found():
    assert {"run.py", "selftest.py", "tracing.py"} <= {p.name for p in SOURCES}
    called = {(mod, attr) for _, mod, attr, call in USES if call is not None}
    # the training entry points the benchmark drives
    assert {("training", name) for name in (
        "square_problem", "default_config", "train", "sample_batch",
        "SquareSolutionCache", "loss", "loss_and_grad")} <= called


def test_traced_names_resolve():
    missing = []
    for mod, path in _load_tracing().TRACED:
        owner = importlib.import_module(f"poisolve.{mod}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        # the tracer replaces a method on the class that defines it
        if not callable(getattr(owner, attr, None)) or (outer and attr not in vars(owner)):
            missing.append(f"{mod}.{path}")
    assert not missing, missing


def test_bound_names_exist_and_calls_bind():
    broken = []
    for source, mod, attr, call in USES:
        target = getattr(importlib.import_module(f"poisolve.{mod}"), attr, None)
        if target is None:
            broken.append(f"{source}: {mod}.{attr} is missing")
            continue
        if call is None or any(isinstance(a, ast.Starred) for a in call.args) \
                or any(k.arg is None for k in call.keywords):
            continue
        # arity and keyword names of the call as perfbench writes it
        try:
            inspect.signature(target).bind(*call.args,
                                           **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            broken.append(f"{source}:{call.lineno}: {mod}.{attr}: {exc}")
    assert not broken, "\n".join(broken)


def test_certify_methods_known_to_the_benchmark():
    """final_checks looks up certify's method in checks.JACOBI_RADIUS_TOL, so a
    method the benchmark does not list raises KeyError there."""
    tree = ast.parse((PERFBENCH / "checks.py").read_text())
    known = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "JACOBI_RADIUS_TOL" for t in node.targets))
    spectral = importlib.import_module("poisolve.spectral")
    for n in (17, 65, 257):
        assert spectral.radius_mode(n) in known, (n, spectral.radius_mode(n), sorted(known))


def test_benchmark_selftest_passes():
    # writes only perfbench/out/, which is ignored by git
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=PERFBENCH.parent,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


def test_metric_tables_match_benchmark_json():
    # run.py pins BLAS env vars when imported, so a child process reads its
    # tables; -B keeps it from writing bytecode
    script = ("import json, run; print(json.dumps("
              "[list(run.END_TO_END.items()), list(run.PER_LAYER.items()), list(run.WORKLOADS)]))")
    done = subprocess.run([sys.executable, "-B", "-c", script], cwd=PERFBENCH,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    end_to_end, per_layer, workloads = json.loads(done.stdout.splitlines()[-1])
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert end_to_end == [[m["name"], m["unit"]] for m in declared["end_to_end"]]
    assert per_layer == [[m["name"], m["unit"]] for m in declared["per_layer"]]
    assert workloads == [w["name"] for w in declared["workloads"]]
