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
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .corpus import CorpusSpec, _SettingError, _children, _fork_slots, _receive, run_corpus
from .enumeration import (
    _BATCH,
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
from .graph import Graph, NodeSet, _bits, build_graph, cut_edges, prune_irrelevant
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
# The ``corpus`` flag behind each library field a ``_SettingError`` names.
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
    labels; blank lines and lines starting with ``#`` are ignored. Lines
    end at ``\n``, ``\r\n`` or ``\r``, as a file's do in text mode."""
    pairs: list[tuple[str, str]] = []
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_number, line in enumerate(lines, start=1):
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
    """One source/sink pipeline: :func:`_prepare` makes its checks and its
    oracle scan, and :func:`_search` fills in the rest."""

    graph: Graph
    pruned_labels: tuple[str, ...]
    opts: EnumerationOptions | None  # None for the oracle algorithm
    policy: YehPolicy | None  # set for the replica only
    oracle: OracleResult | None
    report: EnumerationReport | None = None
    comparison: DiffReport | None = None
    exit_code: int = EXIT_OK


def _labels_sorted(g: Graph, u: NodeSet) -> list[str]:
    return sorted(g.label_set(u))


def _edge_labels_sorted(g: Graph, edges) -> list[list[str]]:
    return sorted(sorted([g.node_names[u], g.node_names[v]]) for u, v in edges)


def _prepare(g: Graph, config: RunConfig, err: TextIO) -> _SinkRun:
    """Prune ``g`` and make every check that can fail for the sink it
    carries; scan it with the oracle when asked. Only the search is left."""
    pruned_labels: tuple[str, ...] = ()
    if config.prune:
        pruned = prune_irrelevant(g)
        if pruned is not g:
            kept = set(pruned.node_names)
            pruned_labels = tuple(x for x in g.node_names if x not in kept)
            print(
                "warning: pruned nodes on no source-sink path: "
                + ", ".join(pruned_labels),
                file=err,
            )
            g = pruned

    if config.algorithm == "oracle":
        return _SinkRun(g, pruned_labels, None, None, brute_force_mcvs(g))
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
    return _SinkRun(g, pruned_labels, opts, policy, oracle)


def _search(
    run: _SinkRun, on_batch: Callable[[list[NodeSet]], object] | None = None
) -> None:
    """Search a prepared run, compare it with its oracle scan, if any, and
    set its exit code; ``on_batch`` goes to :func:`enumerate_mcvs`."""
    if run.opts is None:
        return
    if run.policy is None:
        run.report = enumerate_mcvs(run.graph, run.opts, on_batch=on_batch)
    else:
        run.report = run_yeh_original(run.graph, run.policy, run.opts)
    run.exit_code = _STATUS_EXIT[run.report.status]
    if run.oracle is not None:
        run.comparison = diff(run.report, run.oracle)
        if not run.comparison.agree:
            run.exit_code = max(run.exit_code, EXIT_MISMATCH)


def _mcv_sets(run: _SinkRun) -> Sequence[NodeSet]:
    """Node sets in report order, or canonical order for the oracle."""
    if run.report is not None:
        return run.report.mcvs
    assert run.oracle is not None
    return sorted(run.oracle.mcvs, key=lambda u: _labels_sorted(run.graph, u))


def _batches(items: Sequence) -> Iterator[Sequence]:
    """``items`` in slices of ``_BATCH``, the last one possibly shorter."""
    return (items[i:i + _BATCH] for i in range(0, len(items), _BATCH))


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
    for batch in _batches(sets):
        if config.emit_cuts:
            lines = [f"  {m}  cut {c}\n" for m, c in zip(rows.mcvs(batch), rows.cuts(batch))]
        else:
            lines = [f"  {m}\n" for m in rows.mcvs(batch)]
        out.write("".join(lines))

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

            def line(ev: TraceEvent) -> str:
                prefix = sum(1 << v for v in ev.prefix)
                parts = [ev.step.value, f"prefix={rows.mcv(prefix)}"]
                if ev.node is not None:
                    parts.append(f"node={g.node_names[ev.node]}")
                if ev.candidates:
                    parts.append(f"candidates={rows.mcv(ev.candidates)}")
                return "  " + " ".join(parts) + "\n"

            for batch in _batches(run.report.trace):
                out.write("".join(map(line, batch)))

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


def _tail(run: _SinkRun) -> dict:
    """A searched run's last frame: the values of its ``stats`` and
    ``status`` keys, as ``diff`` the missing, spurious and invalid masks of
    its oracle comparison (None without one), and its ``exit_code``."""
    if run.report is None:
        stats, status = {"subsets_scanned": 1 << (run.graph.node_count - 2)}, "completed"
    else:
        stats, status = asdict(run.report.stats), run.report.status.value
    c = run.comparison
    masks = None if c is None else (c.missing, c.spurious, c.invalid)
    return {"stats": stats, "status": status, "diff": masks, "exit_code": run.exit_code}


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
        return self.mcvs((u,))[0]

    def cut(self, u: NodeSet) -> str:
        return self.cuts((u,))[0]

    def mcvs(self, batch: Sequence[NodeSet]) -> list[str]:
        return self._rows(self._node_positions, self._node_text, self._node_skip, batch)

    def cuts(self, batch: Sequence[NodeSet]) -> list[str]:
        return self._rows(self._incidence, self._edge_text, self._edge_skip, batch)

    def _rows(self, masks: list[_ByteTable], texts: list[_ByteTable], skip: int,
              batch: Sequence[NodeSet]) -> list[str]:
        """One row per set ``u`` in ``batch``: XOR the ``masks`` entries of
        ``u``'s bytes into a position mask, and join the ``texts`` entries
        of its bytes."""
        m, t, join = len(masks), len(texts), "".join
        head, tail = self._open, self._close
        return [
            head
            + join(map(_lookup, texts, reduce(
                xor, map(_lookup, masks, u.to_bytes(m, "little"))).to_bytes(t, "little")))[skip:]
            + tail
            for u in batch
        ]

    def _labels(self, nodes: tuple[int, ...]) -> str:
        """A label list in the given order, one level below the row's keys."""
        if not nodes:
            return "[]"
        return "[" + ",".join([self._deep[v] for v in nodes]) + self._item + "]"

    def trace(self, ev: TraceEvent) -> str:
        item = self._item
        node = "null" if ev.node is None else self._label[ev.node]
        return (
            f'{{{item}"candidates": {self._labels(tuple(_bits(ev.candidates)))},'
            f'{item}"node": {node},'
            f'{item}"prefix": {self._labels(ev.prefix)},'
            f'{item}"step": "{ev.step.value}"{self._end}}}'
        )


# Rows per JSON chunk: a 1,024-row batch joined whole would cross glibc's
# mmap threshold, and each chunk would take fresh pages.
_JOIN_ROWS = 128


def _json_array(batches: Iterable[list[str]], level: int) -> Iterator[str]:
    """A JSON array at nesting ``level`` of rows rendered a level deeper,
    given in non-empty lists and yielded in chunks of at most ``_JOIN_ROWS``
    rows, each row with the separator in front of it."""
    pad = _indent(level + 1)
    sep = "," + pad
    lead, closer = "[" + pad, "[]"
    for rows in batches:
        for i in range(0, len(rows), _JOIN_ROWS):
            rows[i] = lead + rows[i]
            yield sep.join(rows[i:i + _JOIN_ROWS])
            lead, closer = sep, _indent(level) + "]"
    yield closer


def _run_json(
    run: _SinkRun, config: RunConfig, level: int, frames: Iterator | None = None
) -> Iterator[str]:
    """One run's JSON object at nesting ``level``, as a stream of chunks:
    one per batch of ``cuts``, ``mcvs`` or ``trace`` rows, one per other key.

    ``frames`` are the run's sets as non-empty sequences of masks, in
    report order, and then its :func:`_tail`, a ``dict``; by default they
    are cut from the searched ``run``. The keys come in sorted order, and
    ``cuts`` is the first that needs the sets: the ``cuts`` rows of each
    frame are written as it comes in, and every key after ``cuts`` once the
    tail is in. The small keys go through ``json.dumps`` with every newline
    shifted to the key's depth (a JSON string never holds a raw newline);
    the rows are joined from :class:`_RowFragments`.
    """
    g = run.graph
    rows = _RowFragments(g, level + 2)
    if frames is None:
        frames = iter([*_batches(_mcv_sets(run)), _tail(run)])
    batches: list[Sequence[NodeSet]] = []
    tail: dict = {}
    pad = _indent(level + 1)

    def key(name: str) -> str:
        return f'{pad}"{name}": '

    def small(value) -> str:
        return json.dumps(value, sort_keys=True, indent=2).replace("\n", pad)

    def labels(group: frozenset) -> list[list[str]]:
        return sorted(_labels_sorted(g, u) for u in group)

    def cut_rows() -> Iterator[list[str]]:
        nonlocal tail
        while not isinstance(frame := next(frames), dict):
            yield rows.cuts(frame)
            batches.append(frame)
        tail = frame

    yield "{" + key("algorithm") + small(
        {"name": config.algorithm, "options": _options_json(config)})
    yield "," + key("cuts")
    yield from _json_array(cut_rows(), level + 1)
    if tail["diff"] is not None:
        c = DiffReport(*tail["diff"])
        yield "," + key("diff") + small({
            "agree": c.agree,
            "missing": labels(c.missing),
            "spurious": labels(c.spurious),
            "invalid": labels(c.invalid),
        })
    yield "," + key("graph") + small({
        "nodes": list(g.node_names),
        "edges": _edge_labels_sorted(g, g.edges),
        "source": g.node_names[g.source],
        "sink": g.node_names[g.sink],
        "pruned_nodes": sorted(run.pruned_labels),
    })
    yield "," + key("mcvs")
    yield from _json_array(map(rows.mcvs, batches), level + 1)
    yield "," + key("stats") + small(tail["stats"])
    yield "," + key("status") + small(tail["status"])
    if config.trace:
        assert run.report is not None
        yield "," + key("trace")
        events = _batches(run.report.trace)
        yield from _json_array(([*map(rows.trace, b)] for b in events), level + 1)
    yield _indent(level) + "}"


def canonical_json(
    runs: Sequence[_SinkRun], config: RunConfig, out: TextIO, frames: Iterator | None = None
) -> None:
    """Write the runs' canonical JSON to ``out``, a batch of rows at a time.

    The bytes are those of ``json.dumps(payload, sort_keys=True, indent=2)``
    plus a trailing newline, where ``payload`` is the single run's object,
    or ``{"runs": [...]}`` under ``--all-sinks``; re-serializing
    ``json.loads`` of the output reproduces it byte for byte. Rows are
    rendered and written a batch at a time, so neither the row lists nor
    the document are ever held whole. ``frames`` stands in for the single
    run's search, when a forked child runs it while this process writes
    (see :func:`_write_while_searching`).
    """
    if config.all_sinks:
        out.write('{\n  "runs": [')
        for i, r in enumerate(runs):
            out.write(",\n    " if i else "\n    ")
            out.writelines(_run_json(r, config, 2))
        out.write("\n  ]\n}\n")
    else:
        out.writelines(_run_json(runs[0], config, 0, frames))
        out.write("\n")


def _forks_search(config: RunConfig) -> bool:
    """Whether the search may run in a forked child while this process
    writes its JSON: one corrected search, untraced, in a process that may
    fork (see ``corpus._fork_slots``)."""
    if (config.output_format, config.algorithm) != ("json", "corrected"):
        return False
    return not (config.trace or config.all_sinks) and _fork_slots(2) > 1


def _write_while_searching(run: _SinkRun, config: RunConfig, out: TextIO) -> None:
    """Write ``run``'s canonical JSON to ``out`` while a forked child
    searches it.

    The child is one of ``corpus._children``, like a corpus worker: it
    sends each batch of sets as one frame as the search records it, and
    then the run's :func:`_tail`. This process writes the ``cuts`` rows of
    each batch as it comes in, the rest of the document after the tail,
    and takes the run's exit code from the tail. A failure of the search is
    raised here as ``corpus._receive`` says, a failure to write as itself,
    and the child is killed and reaped before this returns or raises.
    """

    def search(send: Callable) -> None:
        _search(run, on_batch=send)
        send(_tail(run))

    with _children() as fork:
        stream = fork(search)

        def frames() -> Iterator:
            while not isinstance(frame := _receive(stream, "forked search"), dict):
                yield frame
            run.exit_code = frame["exit_code"]
            yield frame

        canonical_json([run], config, out, frames())


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
        if len(pairs) > g.edge_count:  # self-loops are rejected, so these are merged parallels
            print(f"warning: merged {len(pairs) - g.edge_count} parallel edge(s)", file=err)
        runs = [_prepare(replace(g, sink=g.index_of(x)), config, err) for x in sinks]
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE

    if _forks_search(config):
        _write_while_searching(runs[0], config, out)
        return runs[0].exit_code
    for r in runs:
        _search(r)
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
    p_corpus.add_argument("--random-orders", type=int, default=CorpusSpec.random_orders)
    p_corpus.add_argument(
        "--b-policies",
        default=",".join(CorpusSpec.b_policies),
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
        spec = CorpusSpec(
            graph_count=ns.count,
            min_nodes=ns.min_nodes,
            max_nodes=ns.max_nodes,
            edge_probability=ns.edge_prob,
            seed=ns.seed,
            prune=ns.prune,
            b_policies=tuple(x for x in ns.b_policies.split(",") if x),
            random_orders=ns.random_orders,
        )
        result = run_corpus(spec, out_dir=ns.out_dir, out=sys.stdout)
        print(
            f"# {result.graphs} graphs, {result.mismatches} mismatch(es)",
            file=sys.stdout,
            flush=True,
        )
        return EXIT_OK if result.all_agree else EXIT_MISMATCH
    except OSError as exc:
        # A write to stdout failed: its reader is gone (``| head``), which
        # needs no message, or its disk is full. Send what is still buffered
        # to devnull, so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        message = str(exc)
        if isinstance(exc, _SettingError):  # it names fields, not the user's words
            for field, flag in _CORPUS_FLAGS.items():
                message = message.replace(field, flag)
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
