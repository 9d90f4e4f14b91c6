"""The traced in-process run: spans around calls into each layer.

The benchmark records spans only from its own code. :class:`Tracer`
replaces public functions of ``mincuts`` in the namespaces where their
callers look them up (``mincuts.cli``, ``mincuts.enumeration``,
``mincuts.oracle`` and ``mincuts.corpus``) with wrappers that record
``[name, start, end, parent]``, and adds a ``gc`` callback that records
each collection as a span under the span it interrupted. Spans stay in
memory and are written when the run ends. Nothing under ``src/`` changes.

Usage: ``tracing.py STDOUT_FILE SUMMARY_FILE SPANS_FILE CLI_ARG...``. The
CLI output goes to STDOUT_FILE; SUMMARY_FILE receives the exit code, the
per-layer metrics and the time spent after the root span ended.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import sys
from collections import Counter, defaultdict
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

# (module, attribute) -> span name. Several callers of one function map to
# one layer name, so a layer's time is summed over every caller.
WRAPPED = {
    ("mincuts.cli", "run"): "cli.run",
    ("mincuts.cli", "parse_edge_list"): "cli.parse",
    ("mincuts.cli", "canonical_json"): "cli.serialise",
    ("mincuts.cli", "build_graph"): "graph.build",
    ("mincuts.cli", "prune_irrelevant"): "graph.prune",
    ("mincuts.cli", "cut_edges"): "graph.cut",
    ("mincuts.cli", "enumerate_mcvs"): "enumeration.search",
    ("mincuts.cli", "brute_force_mcvs"): "oracle.scan",
    ("mincuts.cli", "diff"): "oracle.diff",
    ("mincuts.cli", "run_corpus"): "corpus.runner",
    ("mincuts.enumeration", "cut_edges"): "graph.cut",
    ("mincuts.oracle", "cut_edges"): "graph.cut",
    ("mincuts.corpus", "corpus_entries"): "corpus.generate",
    ("mincuts.corpus", "shrink_counterexample"): "corpus.shrink",
    ("mincuts.corpus", "build_graph"): "graph.build",
    ("mincuts.corpus", "prune_irrelevant"): "graph.prune",
    ("mincuts.corpus", "enumerate_mcvs"): "enumeration.search",
    ("mincuts.corpus", "brute_force_mcvs"): "oracle.scan",
}
ROOT_SPAN = "cli.main"

# Per-layer metrics: time is self time in seconds, summed over spans.
SELF_TIME_METRICS = {
    "cli.parse.s": ("cli.parse",),
    "graph.build.s": ("graph.build",),
    "graph.prune.s": ("graph.prune",),
    "enumeration.search.s": ("enumeration.search",),
    "graph.cut.s": ("graph.cut",),
    "cli.render.s": ("cli.main", "cli.run"),
    "cli.serialise.s": ("cli.serialise",),
    "oracle.scan.s": ("oracle.scan",),
    "oracle.diff.s": ("oracle.diff",),
    "corpus.generate.s": ("corpus.generate",),
    "corpus.runner.s": ("corpus.runner",),
    "corpus.shrink.s": ("corpus.shrink",),
    "gc.s": ("gc",),
}


class Tracer:
    """Spans in memory, as ``[name, start, end, parent index]`` lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.counts: Counter[str] = Counter()
        self._gc_span: list | None = None

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self.stack, perf_counter
        on_result = _ON_RESULT.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = [name, 0.0, 0.0, stack[-1]]
            spans.append(span)
            stack.append(len(spans) - 1)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[1], span[2] = start, end
            if on_result is not None:
                on_result(counts, args, result)
            return result

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            parent = self.stack[-1]
            self._gc_span = None if parent < 0 else ["gc", perf_counter(), 0.0, parent]
        elif self._gc_span is not None:
            self._gc_span[2] = perf_counter()
            self.spans.append(self._gc_span)
            self._gc_span = None

    def install(self) -> Callable[[], None]:
        """Wrap every function in WRAPPED; return a function that undoes it."""
        saved = []
        for (module_name, attr), name in WRAPPED.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        gc.callbacks.append(self._on_gc)

        def uninstall() -> None:
            gc.callbacks.remove(self._on_gc)
            for module, attr, original in saved:
                setattr(module, attr, original)

        return uninstall


def _count_enumeration(counts: Counter, args: tuple, report: Any) -> None:
    counts["enumeration.checks"] += report.stats.connectivity_checks
    counts["enumeration.records"] += report.stats.records
    counts["enumeration.results"] += len(report.mcvs)


def _count_oracle(counts: Counter, args: tuple, result: Any) -> None:
    counts["oracle.subsets"] += 1 << (args[0].node_count - 2)


_ON_RESULT = {"enumeration.search": _count_enumeration, "oracle.scan": _count_oracle}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for span, kids in zip(spans, children):
        start, end = span[1], span[2]
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[k][1], spans[k][2]) for k in kids):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(spans: list[list], counts: Counter) -> dict[str, float]:
    """Per-layer metrics from spans and result counts.

    A layer that did not run reads 0, and so does a ratio whose base is 0.
    """
    selfs = self_times(spans)
    self_by_name: defaultdict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    for span, s in zip(spans, selfs):
        self_by_name[span[0]] += s
        calls[span[0]] += 1
    m = {
        metric: sum(self_by_name[n] for n in names)
        for metric, names in SELF_TIME_METRICS.items()
    }

    def ratio(a: float, b: float, scale: float = 1.0) -> float:
        return scale * a / b if b else 0.0

    checks, records = counts["enumeration.checks"], counts["enumeration.records"]
    results, subsets = counts["enumeration.results"], counts["oracle.subsets"]
    m.update({
        "graph.prune.calls": calls["graph.prune"],
        "graph.cut.calls": calls["graph.cut"],
        "enumeration.calls": calls["enumeration.search"],
        "enumeration.results": results,
        "enumeration.us_per_mcv": ratio(m["enumeration.search.s"], results, 1e6),
        "enumeration.checks": checks,
        "enumeration.checks_failed": checks - records,
        "enumeration.check_pass_ratio": ratio(records, checks),
        "oracle.subsets": subsets,
        "oracle.us_per_subset": ratio(m["oracle.scan.s"], subsets, 1e6),
        "corpus.shrink.enumerate_calls": _calls_under(spans, "enumeration.search",
                                                      "corpus.shrink"),
        "gc.collections": calls["gc"],
    })
    roots = [s for s in spans if s[3] < 0]
    m["trace.root_s"] = sum(s[2] - s[1] for s in roots)
    m["trace.self_sum_s"] = sum(selfs)
    return m


def _calls_under(spans: list[list], name: str, ancestor: str) -> int:
    def has_ancestor(i: int) -> bool:
        while i >= 0:
            if spans[i][0] == ancestor:
                return True
            i = spans[i][3]
        return False

    return sum(1 for s in spans if s[0] == name and has_ancestor(s[3]))


def main(argv: list[str]) -> None:
    stdout_file, summary_file, spans_file, *cli_args = argv
    start = perf_counter()
    import mincuts.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    uninstall = tracer.install()
    run_main = tracer.wrap(ROOT_SPAN, mincuts.cli.main)
    with open(stdout_file, "w") as out, redirect_stdout(out):
        try:
            code = run_main(cli_args)
        finally:
            root_end = perf_counter()
            uninstall()
    metrics = layer_metrics(tracer.spans, tracer.counts)
    metrics["import.s"] = import_s
    Path(spans_file).write_text(json.dumps(tracer.spans))
    post_root_s = perf_counter() - root_end
    Path(summary_file).write_text(
        json.dumps({"exit": code, "metrics": metrics, "post_root_s": post_root_s}))


if __name__ == "__main__":
    main(sys.argv[1:])
