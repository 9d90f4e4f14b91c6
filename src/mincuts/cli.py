"""Command-line front door: parse an edge list, enumerate, compare, report.

Two subcommands: ``run`` executes one enumeration (or the brute-force
oracle) on an edge-list file and reports as text or canonical JSON;
``corpus`` drives the seeded differential runner. Exit codes for ``run``:
0 success (and agreement, when compared), 1 usage or input error, 2
oracle-comparison mismatch, 3 step limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, replace
from functools import reduce
from json.encoder import encode_basestring_ascii
from operator import add, xor
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

from .corpus import RANDOM_ORDERS, CorpusSpec, run_corpus
from .enumeration import (
    B_POLICIES,
    YEH_POLICIES,
    AscendingOrder,
    EnumerationOptions,
    EnumerationReport,
    PriorityOrder,
    RandomOrder,
    RunStatus,
    ScriptedOrder,
    SelectionOrder,
    TraceEvent,
    YehPolicy,
    enumerate_mcvs,
    run_yeh_original,
)
# No row uses cut_edges; perfbench/tracing.py wraps it here and tests/test_surface.py checks it.
from .graph import Graph, NodeSet, build_graph, cut_edges, prune_irrelevant
from .oracle import DiffReport, OracleResult, brute_force_mcvs, diff

__all__ = ["ParseError", "RunConfig", "UsageError", "main", "parse_edge_list", "run"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_STEP_LIMIT = 3
_STATUS_EXIT = {
    RunStatus.COMPLETED: EXIT_OK,
    RunStatus.SCRIPT_EXHAUSTED: EXIT_USAGE,
    RunStatus.STEP_LIMIT_EXCEEDED: EXIT_STEP_LIMIT,
}

ALGORITHMS = ("corrected", "yeh-original", "oracle")
FORMATS = ("text", "json")
# The ``corpus`` flag behind each library field its errors name.
_CORPUS_FLAGS = {
    "graph_count": "--count",
    "min_nodes": "--min-nodes",
    "max_nodes": "--max-nodes",
    "edge_probability": "--edge-prob",
    "random_orders": "--random-orders",
    "out_dir": "--out-dir",
}


class ParseError(ValueError):
    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class UsageError(ValueError):
    pass


def parse_edge_list(text: str) -> list[tuple[str, str]]:
    """Parse edge-list text: one edge per line, two whitespace-separated
    labels; blank lines and lines starting with ``#`` are ignored."""
    pairs: list[tuple[str, str]] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise ParseError(
                f"expected two labels, got {len(tokens)}", line_number
            )
        pairs.append((tokens[0], tokens[1]))
    return pairs


@dataclass
class RunConfig:
    input_path: str
    source: str | None = None
    sink: str | None = None
    algorithm: str = "corrected"
    yeh_policy: str | None = None
    order: str = "ascending"
    b_policy: str = "scoped"
    prune: bool = True
    compare_oracle: bool = False
    output_format: str = "text"
    emit_cuts: bool = False
    all_sinks: bool = False
    step_limit: int | None = None
    trace: bool = False


def _validate(config: RunConfig) -> None:
    """Checks argparse cannot make: library callers skip its ``choices``,
    and some options apply to one algorithm only. The policy values are
    checked by the option classes that hold them."""
    if config.algorithm not in ALGORITHMS:
        raise UsageError(f"unknown algorithm {config.algorithm!r}")
    if config.output_format not in FORMATS:
        raise UsageError(f"unknown output format {config.output_format!r}")
    EnumerationOptions(b_policy=config.b_policy)  # rejects an unknown policy, used or not
    yeh, oracle = config.algorithm == "yeh-original", config.algorithm == "oracle"
    if yeh and config.yeh_policy is None:
        raise UsageError("--yeh-policy is required with --algorithm yeh-original")
    ignored = {
        "--yeh-policy": config.yeh_policy is not None and not yeh,
        "--step-limit": config.step_limit is not None and not yeh,
        "--compare-oracle": config.compare_oracle and oracle,
        "--trace": config.trace and oracle,
        "--order": config.order != RunConfig.order and oracle,
        "--b-policy": config.b_policy != RunConfig.b_policy and (yeh or oracle),
    }
    for flag, given in ignored.items():
        if given:
            raise UsageError(f"{flag} does not apply to --algorithm {config.algorithm}")
    if config.all_sinks and config.sink is not None:
        raise UsageError("--sink cannot be combined with --all-sinks")
    if config.step_limit is not None and config.step_limit <= 0:
        raise UsageError("--step-limit must be positive")


def _parse_order(spec: str, g: Graph) -> SelectionOrder:
    """Turn an order spec string into a selection order over graph indices.

    Forms: ``ascending``, ``script:l1,l2,...``, ``random:SEED``,
    ``priority:l1,l2,...`` (labels, not indices).
    """
    if spec == "ascending":
        return AscendingOrder()
    kind, _, arg = spec.partition(":")
    if kind == "script" and arg:
        return ScriptedOrder(tuple(g.index_of(x) for x in arg.split(",")))
    if kind == "priority" and arg:
        return PriorityOrder(tuple(g.index_of(x) for x in arg.split(",")))
    if kind == "random" and arg:
        try:
            return RandomOrder(int(arg))
        except ValueError:
            raise UsageError(f"random order needs an integer seed, got {arg!r}") from None
    raise UsageError(
        f"bad order spec {spec!r}; expected ascending, script:..., "
        f"random:SEED, or priority:..."
    )


@dataclass
class _SinkRun:
    """Everything one source/sink pipeline produced."""

    graph: Graph
    pruned_labels: tuple[str, ...]
    report: EnumerationReport | None
    oracle: OracleResult | None
    comparison: DiffReport | None
    exit_code: int


def _labels_sorted(g: Graph, u: NodeSet) -> list[str]:
    return sorted(g.label_set(u))


def _edge_labels_sorted(g: Graph, edges) -> list[list[str]]:
    return sorted(sorted([g.node_names[u], g.node_names[v]]) for u, v in edges)


def _execute(g: Graph, config: RunConfig, err: TextIO) -> _SinkRun:
    """Prune ``g``, then search, scan or both for the sink it carries."""
    pruned_labels: tuple[str, ...] = ()
    if config.prune:
        prune = prune_irrelevant(g)
        if prune.removed_nodes:
            pruned_labels = g.label_set(prune.removed_nodes)
            print(
                "warning: pruned nodes on no source-sink path: "
                + ", ".join(pruned_labels),
                file=err,
            )
            g = prune.pruned_graph

    if config.algorithm == "oracle":
        return _SinkRun(g, pruned_labels, None, brute_force_mcvs(g), None, EXIT_OK)
    opts = EnumerationOptions(
        selection_order=_parse_order(config.order, g),
        b_policy=config.b_policy,  # type: ignore[arg-type]
        record_trace=config.trace,
    )
    policy = (
        YehPolicy(config.yeh_policy, config.step_limit)  # type: ignore[arg-type]
        if config.algorithm == "yeh-original" else None
    )
    # After the options are checked and before the search, so a bad option
    # wastes no scan and a graph past the oracle's limit no search.
    oracle = brute_force_mcvs(g) if config.compare_oracle else None
    if policy is None:
        report = enumerate_mcvs(g, opts)
    else:
        report = run_yeh_original(g, policy, opts)
    code = _STATUS_EXIT[report.status]
    comparison = None
    if oracle is not None:
        comparison = diff(report, oracle, g)
        if not comparison.agree:
            code = max(code, EXIT_MISMATCH)
    return _SinkRun(g, pruned_labels, report, oracle, comparison, code)


def _mcv_sets(run: _SinkRun) -> Sequence[NodeSet]:
    """Node sets in report order, or canonical order for the oracle."""
    if run.report is not None:
        return run.report.mcvs
    assert run.oracle is not None
    return sorted(run.oracle.mcvs, key=lambda u: _labels_sorted(run.graph, u))


def _render_text(run: _SinkRun, config: RunConfig, out: TextIO) -> None:
    g = run.graph
    print(
        f"graph: {g.node_count} nodes, {g.edge_count} edges, "
        f"source {g.node_names[g.source]}, sink {g.node_names[g.sink]}",
        file=out,
    )
    if run.pruned_labels:
        print("pruned: " + ", ".join(run.pruned_labels), file=out)
    if config.algorithm == "yeh-original":
        print(
            "note: yeh-original is a known-incomplete algorithm preserved for "
            "diagnosis; it can miss, repeat, or mis-record cut sets",
            file=out,
        )
        print(
            f"algorithm: yeh-original ({config.yeh_policy}, order={config.order})",
            file=out,
        )
    elif config.algorithm == "corrected":
        print(
            f"algorithm: corrected (order={config.order}, "
            f"b-policy={config.b_policy})",
            file=out,
        )
    else:
        print("algorithm: oracle (exhaustive)", file=out)

    if run.report is not None:
        print(f"status: {run.report.status.value}", file=out)

    sets, rows = _mcv_sets(run), _RowFragments(g, None)
    print(f"mcvs ({len(sets)}):", file=out)
    for u in sets:
        cut = f"  cut {rows.cut(u)}" if config.emit_cuts else ""
        print(f"  {rows.mcv(u)}{cut}", file=out)

    if run.report is not None:
        st = run.report.stats
        print(
            f"stats: step1-visits={st.step1_visits} "
            f"connectivity-checks={st.connectivity_checks} "
            f"backtracks={st.backtracks} steps={st.steps}",
            file=out,
        )
        if config.trace:
            print("trace:", file=out)
            for ev in run.report.trace:
                prefix = sum(1 << v for v in ev.prefix)
                parts = [ev.step.value, f"prefix={rows.mcv(prefix)}"]
                if ev.node is not None:
                    parts.append(f"node={g.node_names[ev.node]}")
                if ev.candidates:
                    candidates = sum(1 << v for v in ev.candidates)
                    parts.append(f"candidates={rows.mcv(candidates)}")
                print("  " + " ".join(parts), file=out)

    if run.comparison is not None:
        if run.comparison.agree:
            print("oracle comparison: agree", file=out)
        else:
            print("oracle comparison: MISMATCH", file=out)
            for name, group in (
                ("missing", run.comparison.missing),
                ("spurious", run.comparison.spurious),
            ):
                for u in sorted(group, key=lambda u: _labels_sorted(g, u)):
                    print(f"  {name}: {rows.mcv(u)}", file=out)


def _json_fields(run: _SinkRun, config: RunConfig) -> dict:
    """Every top-level key of a run's JSON object except the streamed ones:
    ``mcvs``, ``cuts`` and ``trace``."""
    g = run.graph
    fields: dict = {
        "graph": {
            "nodes": list(g.node_names),
            "edges": _edge_labels_sorted(g, g.edges),
            "source": g.node_names[g.source],
            "sink": g.node_names[g.sink],
            "pruned_nodes": sorted(run.pruned_labels),
        },
        "algorithm": {
            "name": config.algorithm,
            "options": _options_json(config),
        },
    }
    if run.report is not None:
        fields["stats"] = asdict(run.report.stats)
        fields["status"] = run.report.status.value
    else:
        fields["stats"] = {"subsets_scanned": 1 << (g.node_count - 2)}
        fields["status"] = "completed"
    if run.comparison is not None:
        fields["diff"] = {
            "agree": run.comparison.agree,
            "missing": sorted(
                _labels_sorted(g, u) for u in run.comparison.missing
            ),
            "spurious": sorted(
                _labels_sorted(g, u) for u in run.comparison.spurious
            ),
            "invalid": sorted(
                _labels_sorted(g, u) for u in run.comparison.invalid
            ),
        }
    return fields


def _options_json(config: RunConfig) -> dict:
    options: dict = {"order": config.order, "prune": config.prune}
    if config.algorithm == "corrected":
        options["b_policy"] = config.b_policy
    if config.algorithm == "yeh-original":
        options["yeh_policy"] = config.yeh_policy
        options["step_limit"] = config.step_limit
    return options


def _indent(level: int) -> str:
    return "\n" + "  " * level


_CHUNK = 8  # mask bits per table lookup: one byte, as ``int.to_bytes`` splits a mask
_lookup = dict.__getitem__


class _ByteTable(dict):
    """The lookup table for one byte of a mask over ``values``: it maps the
    byte to the ``join`` of the values of its set bits, lowest bit first.

    It starts as ``{0: zero}``. On a miss, :meth:`__missing__` builds the
    entry from the byte's lowest bit plus the entry for the remaining bits
    and stores it; a hit is a plain ``dict`` lookup. Filled on use, the
    tables grow with the rows rendered, not with the graph: a full one
    holds 256 entries, each as wide as the mask or text it stands for.
    """

    __slots__ = ("_values", "_join")

    def __init__(self, values: Sequence, zero, join) -> None:
        super().__init__({0: zero})
        self._values, self._join = values, join

    def __missing__(self, b: int):
        low = b & -b
        entry = self[b] = self._join(self._values[low.bit_length() - 1], self[b ^ low])
        return entry


def _byte_tables(values: Sequence, zero, join) -> list[_ByteTable]:
    """One :class:`_ByteTable` per byte of a mask over ``values``, lowest first."""
    return [_ByteTable(values[i:i + _CHUNK], zero, join) for i in range(0, len(values), _CHUNK)]


class _RowFragments:
    """One graph's node labels and edges, pre-rendered once for every row.

    Each node fragment and each edge fragment has a position in its row
    order, and a row is a mask over those positions. A set row (``mcvs``,
    a trace's prefix or candidates, an oracle diff) XORs the position bits
    of the nodes in ``u``; a ``cuts`` row XORs the incidence masks of the
    nodes in ``u``, the edges touching each: an edge with both ends in ``u``
    is toggled twice and drops out, so only the edges with exactly one end
    in ``u`` remain. Both maps, and the join of the fragments of a position
    mask, are read ``_CHUNK`` bits at a time, one :class:`_ByteTable` a byte;
    each text fragment carries its separator in front, sliced off the row's
    first. Text ranks fragments by index and writes ``{s,1}`` and
    ``{s-2, 1-3}``. JSON ranks them by label and by sorted label pair, so
    each row comes out as ``json.dumps`` of the sorted label lists would at
    the rows' ``level``. No row is empty: a set holds the source and not
    the sink of a connected graph. A JSON ``trace`` row is an object whose
    label lists keep the event's order.
    """

    def __init__(self, g: Graph, level: int | None) -> None:
        """``level`` is the JSON nesting level of the rows; ``None`` is text."""
        names = g.node_names
        if level is None:
            node_sep, edge_sep = ",", ", "
            by_rank = range(len(names))
            ends = sorted(g.edges)
            nodes = [node_sep + names[v] for v in by_rank]
            edges = [f"{edge_sep}{names[u]}-{names[v]}" for u, v in ends]
            self._open, self._close = "{", "}"
        else:
            node_sep = edge_sep = ","
            label = [encode_basestring_ascii(x) for x in names]
            item, inner = _indent(level + 1), _indent(level + 2)
            by_rank = sorted(range(len(names)), key=names.__getitem__)
            ends = sorted(
                (sorted(e, key=names.__getitem__) for e in g.edges),
                key=lambda e: (names[e[0]], names[e[1]]),
            )
            nodes = [node_sep + item + label[v] for v in by_rank]
            edges = [
                f"{edge_sep}{item}[{inner}{label[u]},{inner}{label[v]}{item}]" for u, v in ends
            ]
            self._label, self._item = label, item
            self._deep = [inner + x for x in label]
            self._end = _indent(level)
            self._open, self._close = "[", self._end + "]"
        position = [0] * len(names)
        for rank, v in enumerate(by_rank):
            position[v] = 1 << rank
        incidence = [0] * len(names)
        for rank, (u, v) in enumerate(ends):
            incidence[u] |= 1 << rank
            incidence[v] |= 1 << rank
        self._node_positions = _byte_tables(position, 0, xor)
        self._incidence = _byte_tables(incidence, 0, xor)
        self._node_text = _byte_tables(nodes, "", add)
        self._edge_text = _byte_tables(edges, "", add)
        self._node_skip, self._edge_skip = len(node_sep), len(edge_sep)

    def mcv(self, u: NodeSet) -> str:
        return self._row(self._node_positions, self._node_text, self._node_skip, u)

    def cut(self, u: NodeSet) -> str:
        return self._row(self._incidence, self._edge_text, self._edge_skip, u)

    def _row(self, masks: list[_ByteTable], texts: list[_ByteTable], skip: int,
             u: NodeSet) -> str:
        """XOR the ``masks`` entries of ``u``'s bytes into a position mask,
        and join the ``texts`` entries of its bytes."""
        p = reduce(xor, map(_lookup, masks, u.to_bytes(len(masks), "little")))
        body = "".join(map(_lookup, texts, p.to_bytes(len(texts), "little")))
        return self._open + body[skip:] + self._close

    def _labels(self, nodes: tuple[int, ...]) -> str:
        """A label list in the given order, one level below the row's keys."""
        if not nodes:
            return "[]"
        return "[" + ",".join([self._deep[v] for v in nodes]) + self._item + "]"

    def trace(self, ev: TraceEvent) -> str:
        item = self._item
        node = "null" if ev.node is None else self._label[ev.node]
        return (
            f'{{{item}"candidates": {self._labels(ev.candidates)},'
            f'{item}"node": {node},'
            f'{item}"prefix": {self._labels(ev.prefix)},'
            f'{item}"step": "{ev.step.value}"{self._end}}}'
        )


def _json_array(rows: Iterable[str], level: int) -> Iterator[str]:
    """A JSON array at nesting ``level`` of rows rendered a level deeper,
    each row yielded with the separator in front of it."""
    pad = _indent(level + 1)
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        yield "[]"
        return
    yield "[" + pad + first
    yield from map(("," + pad).__add__, rows)
    yield _indent(level) + "]"


def _run_json(run: _SinkRun, config: RunConfig, level: int) -> Iterator[str]:
    """One run's JSON object at nesting ``level``, as a stream of chunks:
    one per ``mcvs``, ``cuts`` and ``trace`` row with its separator, one per
    other key.

    The small keys go through ``json.dumps`` with every newline shifted to
    the key's depth (a JSON string never holds a raw newline); the ``mcvs``,
    ``cuts`` and ``trace`` rows are joined from :class:`_RowFragments`.
    """
    fields = _json_fields(run, config)
    sets = _mcv_sets(run)
    rows = _RowFragments(run.graph, level + 2)
    streamed = {"mcvs": map(rows.mcv, sets), "cuts": map(rows.cut, sets)}
    if config.trace and run.report is not None:
        streamed["trace"] = map(rows.trace, run.report.trace)
    opener, pad = "{", _indent(level + 1)
    for key in sorted([*fields, *streamed]):
        yield f'{opener}{pad}"{key}": '
        if key in streamed:
            yield from _json_array(streamed[key], level + 1)
        else:
            yield json.dumps(fields[key], sort_keys=True, indent=2).replace("\n", pad)
        opener = ","
    yield _indent(level) + "}"


def canonical_json(runs: Sequence[_SinkRun], config: RunConfig, out: TextIO) -> None:
    """Write the runs' canonical JSON to ``out``, row by row.

    The bytes are those of ``json.dumps(payload, sort_keys=True, indent=2)``
    plus a trailing newline, where ``payload`` is the single run's object,
    or ``{"runs": [...]}`` under ``--all-sinks``; re-serializing
    ``json.loads`` of the output reproduces it byte for byte. Rows are
    rendered one at a time, so neither the row lists nor the document are
    ever held whole.
    """
    if config.all_sinks:
        out.write('{\n  "runs": [')
        for i, r in enumerate(runs):
            out.write(",\n    " if i else "\n    ")
            out.writelines(_run_json(r, config, 2))
        out.write("\n  ]\n}\n")
    else:
        out.writelines(_run_json(runs[0], config, 0))
        out.write("\n")


def run(config: RunConfig, out: TextIO | None = None, err: TextIO | None = None) -> int:
    """Execute one configured pipeline; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        _validate(config)
        try:
            text = Path(config.input_path).read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read {config.input_path}: {exc}") from None
        pairs = parse_edge_list(text)
        labels = dict.fromkeys(x for pair in pairs for x in pair)  # in file order

        source = config.source
        if source is None:
            if "s" not in labels:
                raise UsageError("no node labeled 's'; pass --source")
            source = "s"

        if config.all_sinks:
            sinks = [x for x in labels if x != source]
            if not sinks:
                raise UsageError(
                    f"--all-sinks: no node other than the source {source!r}"
                )
        else:
            sink = config.sink
            if sink is None:
                if "t" not in labels:
                    raise UsageError("no node labeled 't'; pass --sink")
                sink = "t"
            sinks = [sink]

        g = build_graph(pairs, source, sinks[0])
        if g.parallel_edges_merged:
            print(f"warning: merged {g.parallel_edges_merged} parallel edge(s)", file=err)
        runs = [_execute(replace(g, sink=g.index_of(x)), config, err) for x in sinks]
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE

    if config.output_format == "json":
        canonical_json(runs, config, out)
    else:
        for i, r in enumerate(runs):
            if config.all_sinks:
                if i:
                    print(file=out)
                print(f"== sink {r.graph.node_names[r.graph.sink]} ==", file=out)
            _render_text(r, config, out)

    return max(r.exit_code for r in runs)


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so usage errors map to code 1."""

    def error(self, message: str):  # noqa: D102
        raise UsageError(message)


def _build_parser() -> _Parser:
    """The ``run`` options are :class:`RunConfig`'s fields, defaults included;
    the ``corpus`` defaults are :class:`CorpusSpec`'s."""
    parser = _Parser(prog="mincuts", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="enumerate minimal cuts of one edge-list file")
    p_run.add_argument("input_path", metavar="FILE", help="edge-list file")
    p_run.add_argument("--source", help="source label (default: 's' when present)")
    p_run.add_argument("--sink", help="sink label (default: 't' when present)")
    p_run.add_argument("--algorithm", choices=ALGORITHMS, default=RunConfig.algorithm)
    p_run.add_argument(
        "--yeh-policy",
        choices=YEH_POLICIES,
        help="transfer taken by yeh-original when the remainder disconnects",
    )
    p_run.add_argument(
        "--order",
        default=RunConfig.order,
        help="ascending | script:l1,l2,... | random:SEED | priority:l1,l2,...",
    )
    p_run.add_argument("--b-policy", choices=B_POLICIES, default=RunConfig.b_policy)
    p_run.add_argument(
        "--prune",
        action=argparse.BooleanOptionalAction,
        default=RunConfig.prune,
        help="drop nodes on no source-sink path before enumerating",
    )
    p_run.add_argument("--compare-oracle", action="store_true")
    p_run.add_argument(
        "--format", dest="output_format", choices=FORMATS, default=RunConfig.output_format
    )
    p_run.add_argument("--emit-cuts", action="store_true")
    p_run.add_argument(
        "--all-sinks",
        action="store_true",
        help="enumerate once per non-source node taken as sink",
    )
    p_run.add_argument("--step-limit", type=int)
    p_run.add_argument("--trace", action="store_true")

    p_corpus = sub.add_parser(
        "corpus", help="differential-test random graphs against the oracle"
    )
    p_corpus.add_argument("--count", type=int, default=CorpusSpec.graph_count)
    p_corpus.add_argument("--min-nodes", type=int, default=CorpusSpec.min_nodes)
    p_corpus.add_argument("--max-nodes", type=int, default=CorpusSpec.max_nodes)
    p_corpus.add_argument("--edge-prob", type=float, default=CorpusSpec.edge_probability)
    p_corpus.add_argument("--seed", type=int, default=CorpusSpec.seed)
    p_corpus.add_argument(
        "--prune", action=argparse.BooleanOptionalAction, default=CorpusSpec.prune
    )
    p_corpus.add_argument("--random-orders", type=int, default=RANDOM_ORDERS)
    p_corpus.add_argument(
        "--b-policies",
        default=",".join(B_POLICIES),
        help=f"comma-separated subset of: {','.join(B_POLICIES)}",
    )
    p_corpus.add_argument(
        "--out-dir", help="directory for minimized counterexample artifacts"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command == "run":
            del ns.command
            code = run(RunConfig(**vars(ns)))
            sys.stdout.flush()  # a reader that left early fails here, not at exit
            return code
        try:
            spec = CorpusSpec(
                graph_count=ns.count,
                min_nodes=ns.min_nodes,
                max_nodes=ns.max_nodes,
                edge_probability=ns.edge_prob,
                seed=ns.seed,
                prune=ns.prune,
            )
            result = run_corpus(
                spec,
                b_policies=tuple(x for x in ns.b_policies.split(",") if x),
                random_orders=ns.random_orders,
                out_dir=ns.out_dir,
                out=sys.stdout,
            )
        except ValueError as exc:
            message = str(exc)
            for field, flag in _CORPUS_FLAGS.items():
                message = message.replace(field, flag)
            raise UsageError(message) from None
        print(
            f"# {result.graphs} graphs, {result.mismatches} mismatch(es)",
            file=sys.stdout,
            flush=True,
        )
        return EXIT_OK if result.all_agree else EXIT_MISMATCH
    except BrokenPipeError:
        # Stdout's reader is gone (``| head``): send what is still buffered
        # to devnull, so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
