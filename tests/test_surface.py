"""The package surface that code outside ``src/`` relies on.

The benchmark under ``perfbench/`` wraps functions by module and name and
imports from the top-level package, and the README shows a library
snippet. Each is read as source here, so a renamed or unexported name
fails a test rather than a benchmark run or a reader. The tests' step-loop
reference is read the same way, so that it keeps its own search state.
"""

from __future__ import annotations

import ast
import importlib
import re
from dataclasses import fields
from pathlib import Path

import pytest

import mincuts
import mincuts.cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _wrapped_names() -> list[tuple[str, str]]:
    """The ``(module, attribute)`` keys of ``WRAPPED`` in perfbench/tracing.py."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("perfbench/tracing.py defines no WRAPPED")


@pytest.mark.parametrize("module, attr", _wrapped_names())
def test_traced_function_is_module_level(module, attr):
    # The tracer swaps the module attribute, so callers must look it up
    # there at call time.
    assert callable(vars(importlib.import_module(module)).get(attr))


@pytest.mark.parametrize("script", ["setup_probe.py", "selftest.py"])
def test_benchmark_imports_are_exported(script):
    tree = ast.parse((PERFBENCH / script).read_text())
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "mincuts"
        for alias in node.names
    ]
    assert names
    assert set(names) <= set(mincuts.__all__)


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "mincuts").glob("*.py")), ids=lambda p: p.name
)
def test_every_import_is_used_or_exported(path):
    # No linter runs on this package, so an import that a removal leaves
    # behind is caught here. A name may also stay for the benchmark's
    # tracer, which swaps it at the importing module.
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = importlib.import_module(f"mincuts.{path.stem}".removesuffix(".__init__"))
    wrapped = {attr for name, attr in _wrapped_names() if name == module.__name__}
    assert imported - used - set(getattr(module, "__all__", ())) - wrapped == set()


def test_readme_library_snippet_runs():
    readme = (ROOT / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    snippet = re.search(r"```python\n(.*?)```", library, re.DOTALL)
    assert snippet is not None
    exec(compile(snippet.group(1), "README.md", "exec"), {})


def test_step_loop_reference_shares_no_engine_state():
    # The reference is only evidence for ``enumerate_mcvs`` if it keeps its
    # own search state; of the engine module's private names it may borrow
    # only the order-to-chooser compiler, so both runs pick alike. It checks
    # connectivity with the full BFS, never the engine's early-exit check.
    tree = ast.parse((ROOT / "tests" / "step_loop_reference.py").read_text())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    private = {
        name for module, name in imported
        if module == "mincuts.enumeration" and name.startswith("_")
    }
    assert private <= {"_make_chooser"}
    assert ("mincuts.graph", "_connected_mask") in imported
    assert "_connected_without" not in {name for _, name in imported}
    # ``enumerate_mcvs`` derives these counters after its loop; the
    # reference must still count them step by step, or the tests would
    # check the derivation against a copy of itself.
    counted = {
        node.target.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute)
    }
    assert {"steps", "step1_visits", "backtracks"} <= counted


def test_oracle_shares_no_engine_helpers():
    # The oracle is only evidence for the engines if its scan checks
    # connectivity its own way: from ``mincuts.graph`` it may take the
    # graph type and the definition, but no private helper, and from the
    # engine module only the report type it diffs.
    tree = ast.parse((ROOT / "src" / "mincuts" / "oracle.py").read_text())
    imported = [
        (f"mincuts.{node.module}" if node.level else node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert ("mincuts.graph", "is_mcv") in imported
    assert not [
        name for module, name in imported
        if module == "mincuts.graph" and name.startswith("_")
    ]
    assert {
        name for module, name in imported if module == "mincuts.enumeration"
    } == {"EnumerationReport"}



def test_forked_child_protocol_is_written_once():
    # The corpus workers and the JSON writer fork through one helper, so
    # the pipe, the frames, the error rule and the cleanup have one copy.
    calls = []
    for path in sorted((ROOT / "src" / "mincuts").glob("*.py")):
        tree = ast.parse(path.read_text())
        assert "os" not in {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
        calls += [
            (path.name, getattr(top, "name", None), ast.unparse(node.func))
            for top in tree.body
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("os.fork", "os._exit")
        ]
    assert sorted(calls) == [("corpus.py", "_children", "os._exit"),
                             ("corpus.py", "_children", "os.fork")]


def test_corpus_flag_defaults_are_the_spec_defaults():
    # README says that CorpusSpec holds the corpus flags' defaults. Before,
    # --random-orders and --b-policies took theirs from elsewhere.
    flags = vars(mincuts.cli._build_parser().parse_args(["corpus"]))
    del flags["command"], flags["out_dir"]
    flags["b_policies"] = tuple(flags["b_policies"].split(","))
    renamed = {"count": "graph_count", "edge_prob": "edge_probability"}
    defaults = {renamed.get(dest, dest): value for dest, value in flags.items()}
    spec = mincuts.CorpusSpec()
    assert defaults == {f.name: getattr(spec, f.name) for f in fields(spec)}
