"""Seeded random-graph corpus, differential runner, counterexample shrinking.

The corpus is the empirical backstop for the enumeration engines: every
graph is run against the brute-force oracle under several policies and
selection orders, disagreements are shrunk to locally minimal graphs, and
the whole pipeline is reproducible from a single integer seed.
"""

from __future__ import annotations

import contextlib
import marshal
import os
import random
from dataclasses import dataclass
from functools import partial
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, TextIO

from .enumeration import (
    B_POLICIES,
    AscendingOrder,
    EnumerationOptions,
    RandomOrder,
    enumerate_mcvs,
)
from .graph import Edge, Graph, _connected_mask, build_graph, prune_irrelevant
from .oracle import brute_force_mcvs

__all__ = [
    "CorpusEntry",
    "CorpusRunResult",
    "CorpusSpec",
    "corpus_entries",
    "run_corpus",
    "shrink_counterexample",
]

MAX_CORPUS_NODES = 12
# Draws per graph before the generator gives up on an edge probability too
# low to make connected graphs; the default corpus needs at most about 20.
MAX_GRAPH_DRAWS = 10_000


class _SettingError(ValueError):
    """A bad corpus setting, in a message that holds nothing the caller
    typed, so a front end may rename the fields it names."""


@dataclass(frozen=True)
class CorpusSpec:
    """One corpus run: its reproducible connected random graphs, and how each
    is checked: under every policy in ``b_policies``, with the ascending
    order and then ``random_orders`` seeded random orders. The defaults are
    the ``corpus`` command's; a bad setting raises ``ValueError`` here."""

    graph_count: int = 1000
    min_nodes: int = 4
    max_nodes: int = 10
    edge_probability: float = 0.35
    seed: int = 42
    prune: bool = True
    b_policies: tuple[str, ...] = B_POLICIES
    random_orders: int = 3

    def __post_init__(self) -> None:
        if self.graph_count < 1:
            raise _SettingError("graph_count must be positive")
        if not 2 <= self.min_nodes <= self.max_nodes <= MAX_CORPUS_NODES:
            raise _SettingError(
                "node range must satisfy 2 <= min_nodes <= max_nodes <= "
                f"{MAX_CORPUS_NODES}"
            )
        if not 0.0 < self.edge_probability <= 1.0:
            raise _SettingError("edge_probability must be in (0, 1]")
        if not self.b_policies:
            raise ValueError("no b-policy given")
        if self.random_orders < 0:
            raise _SettingError(
                f"random_orders must be non-negative, got {self.random_orders}"
            )
        for i, policy in enumerate(self.b_policies):
            EnumerationOptions(b_policy=policy)  # raises on an unknown policy
            if policy in self.b_policies[:i]:
                raise ValueError(f"b-policy {policy!r} given twice")


@dataclass(frozen=True)
class CorpusEntry:
    index: int
    seed: int
    graph: Graph


def _random_connected_graph(rng: random.Random, n: int, p: float) -> Graph:
    """One connected graph: edge sampling with rejection until connected.

    Source and sink are distinct random nodes, labeled ``s`` and ``t``; the
    rest are numbered in index order. Raises ``ValueError`` when
    ``MAX_GRAPH_DRAWS`` draws give no connected graph.
    """
    for _ in range(MAX_GRAPH_DRAWS):
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
        adj = [0] * n
        for i, j in edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        if edges and _connected_mask(tuple(adj), (1 << n) - 1):
            break
    else:
        raise _SettingError(
            f"no connected {n}-node graph in {MAX_GRAPH_DRAWS} draws at "
            f"edge_probability {p}; raise edge_probability"
        )
    source, sink = rng.sample(range(n), 2)
    names: dict[int, str] = {source: "s", sink: "t"}
    counter = 0
    for v in range(n):
        if v not in names:
            counter += 1
            names[v] = str(counter)
    return build_graph([(names[i], names[j]) for i, j in edges], "s", "t")


def _graph_seeds(spec: CorpusSpec) -> list[int]:
    """One seed per graph, drawn from a master stream seeded with ``spec.seed``."""
    master = random.Random(spec.seed)
    return [master.randrange(2**32) for _ in range(spec.graph_count)]


def _corpus_entry(spec: CorpusSpec, index: int, seed: int) -> CorpusEntry:
    """Graph ``index`` of the corpus, generated from its own ``seed`` alone."""
    rng = random.Random(seed)
    g = _random_connected_graph(rng, rng.randint(spec.min_nodes, spec.max_nodes),
                                spec.edge_probability)
    return CorpusEntry(index, seed, prune_irrelevant(g) if spec.prune else g)


def corpus_entries(spec: CorpusSpec) -> list[CorpusEntry]:
    """Generate the corpus with its per-graph seeds, so any single graph can
    be regenerated from the seed printed in the runner's report line."""
    return [_corpus_entry(spec, i, seed) for i, seed in enumerate(_graph_seeds(spec))]


def _edge_order(g: Graph) -> list[Edge]:
    """``g``'s edges in an order whose first appearances number the nodes
    as ``g`` does, so that ``build_graph`` reads the order back as ``g``.

    ``build_graph`` numbers each node where it first appears, so in a graph
    it made, each node ``k > 0`` has a lower-numbered neighbour or came in
    on one line with ``k + 1``. The order brings the nodes in by index,
    each with its lowest such neighbour, and then lists the other edges
    sorted.
    """
    adj = g.adjacency_masks
    order: list[Edge] = []
    seen = 0
    for k in range(g.node_count):
        if (seen >> k) & 1:
            continue
        lower = adj[k] & seen
        if lower:
            order.append(((lower & -lower).bit_length() - 1, k))
            seen |= 1 << k
        else:
            order.append((k, k + 1))
            seen |= 3 << k
    return order + sorted(g.edges.difference(order))


def _builds(adj: list[int], terminals: int) -> bool:
    """Would the edges of ``adj`` build a graph: one that keeps the nodes
    of ``terminals`` and is connected? A node left with no edge is gone."""
    alive = 0
    for neighbours in adj:
        alive |= neighbours
    return alive & terminals == terminals and _connected_mask(adj, alive)


def _deletions(g: Graph) -> Iterator[list[Edge]]:
    """The edges, in :func:`_edge_order`, of each candidate
    :func:`shrink_counterexample` tries on ``g``, in the order it tries
    them."""
    order = _edge_order(g)
    adj = list(g.adjacency_masks)
    terminals = (1 << g.source) | (1 << g.sink)
    for v in range(g.node_count):
        if (terminals >> v) & 1 or adj[v].bit_count() < 2:
            continue
        keep = ~(1 << v)
        rest = [neighbours & keep for neighbours in adj]
        rest[v] = 0
        if _builds(rest, terminals):
            yield [e for e in order if v not in e]
    for i, (u, v) in enumerate(order):
        rest = adj.copy()
        rest[u] ^= 1 << v
        rest[v] ^= 1 << u
        if _builds(rest, terminals):
            yield order[:i] + order[i + 1:]


def shrink_counterexample(g: Graph, check: Callable[[Graph], bool]) -> Graph:
    """Greedily reduce ``g`` while ``check`` keeps failing on the result.

    Coarse deletions go first, as in delta debugging: each round tries
    deleting each node but the source and sink, by index, and then each
    single edge, and restarts after the first deletion ``check`` accepts.
    A node of degree 1 is not tried, as deleting it leaves what deleting
    its one edge leaves, and a candidate that would lose the source or sink
    or fall apart is skipped unbuilt. Candidates are built from the current
    graph's edges in :func:`_edge_order`, in which a written artifact reads
    back with the same node numbers. The returned graph is locally minimal:
    no single node or edge deletion preserves the discrepancy.
    Deterministic; raises ``ValueError`` when ``check(g)`` is false.
    """
    if not check(g):
        raise ValueError("graph does not exhibit the discrepancy being shrunk")

    source, sink = g.node_names[g.source], g.node_names[g.sink]
    current = g
    while True:
        names = current.node_names
        for kept in _deletions(current):
            candidate = build_graph([(names[u], names[v]) for u, v in kept], source, sink)
            if check(candidate):
                current = candidate
                break
        else:
            return current


@dataclass(frozen=True)
class CorpusRunResult:
    lines: tuple[str, ...]
    graphs: int
    mismatches: int

    @property
    def all_agree(self) -> bool:
        return self.mismatches == 0


def run_corpus(
    spec: CorpusSpec,
    *,
    out_dir: str | Path | None = None,
    out: TextIO | None = None,
) -> CorpusRunResult:
    """Differential run: every corpus graph, oracle vs. enumeration.

    Each graph is enumerated once per (policy, order) combination of
    ``spec`` and compared to the brute-force oracle as a set. One line per
    graph goes to ``out``: index, seed, node and edge counts,
    agree/mismatch, and, when a mismatch was shrunk to an artifact, the
    file it was written to (requires ``out_dir``). An artifact is an edge
    list that reads back as the shrunk graph, under a header that names the
    policy and, as ``--order`` takes it, the order that exposed the
    disagreement. The shrinker checks its candidates unpruned, so the
    artifact replays only without pruning: ``mincuts run FILE --no-prune
    --compare-oracle --b-policy P --order O`` exits 2, where the default
    pruning may make it agree. An unusable ``out_dir`` raises
    ``ValueError`` before any graph runs, and an artifact that cannot be
    written raises it when its graph does.

    The graphs run in forked workers, one per usable CPU, and in this
    process where there is one CPU, no ``os.fork`` or a second thread; each
    graph is generated from its seed in the process that checks it. The
    lines, their order, the artifacts and the errors are the same either
    way (a worker's other failures come back as ``RuntimeError``), and no
    worker outlives the call. After a failed write, other workers may
    have written the artifacts of some later graphs.
    """
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        try:
            out_path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _SettingError(f"cannot create out_dir: {exc.strerror}") from None

    seeds = _graph_seeds(spec)

    def check(index: int) -> tuple[str, bool]:
        return _check_graph(_corpus_entry(spec, index, seeds[index]), spec, out_path)

    workers = _fork_slots(len(seeds))
    indices = range(len(seeds))
    if workers > 1:
        results = _in_workers(check, indices, workers)
    else:
        results = (check(i) for i in indices)
    lines: list[str] = []
    mismatches = 0
    try:
        for line, mismatched in results:
            mismatches += mismatched
            lines.append(line)
            if out is not None:
                print(line, file=out)
    finally:
        results.close()
    return CorpusRunResult(tuple(lines), spec.graph_count, mismatches)


def _check_graph(
    entry: CorpusEntry, spec: CorpusSpec, out_path: Path | None
) -> tuple[str, bool]:
    """One graph against the oracle: its report line and whether it is a
    mismatch, shrunk and written under ``out_path`` when that is given."""
    g = entry.graph
    oracle_sets = brute_force_mcvs(g)
    # Each run's options are built as it starts: no list of orders is held.
    first = entry.seed * 100
    runs = (
        EnumerationOptions(selection_order=order, b_policy=policy)
        for policy in spec.b_policies
        for order in chain(
            [AscendingOrder()], map(RandomOrder, range(first, first + spec.random_orders))
        )
    )
    failing = next(
        (opts for opts in runs if frozenset(enumerate_mcvs(g, opts).mcvs) != oracle_sets),
        None,
    )

    line = (
        f"graph={entry.index} seed={entry.seed} "
        f"n={g.node_count} m={g.edge_count} "
        f"status={'agree' if failing is None else 'mismatch'}"
    )
    if failing is None:
        return line, False
    line += (
        f" policy={failing.b_policy}"
        f" order={type(failing.selection_order).__name__}"
    )
    if out_path is not None:
        shrunk = shrink_counterexample(g, _disagreement_check(failing, g))
        artifact = out_path / f"counterexample-{entry.index:04d}.edges"
        try:
            artifact.write_text(_artifact_text(shrunk, failing))
        except OSError as exc:
            raise ValueError(f"cannot write {artifact}: {exc.strerror}") from None
        line += f" counterexample={artifact}"
    return line, True


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fork_slots(limit: int) -> int:
    """How many processes, this one included and at most ``limit``, a
    forking run may use: one per usable CPU, or 1 where there is no
    ``os.fork`` or a second thread runs. A forked child holds only the
    forking thread, and perhaps a lock that another thread held."""
    import threading

    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(_usable_cpus(), limit)


@contextlib.contextmanager
def _children() -> Iterator[Callable[[Callable], BinaryIO]]:
    """``fork(body)`` for the block: forks a child that runs ``body(send)``
    and returns the stream this process reads it from (see :func:`_receive`).

    ``send(value)`` writes one ``marshal`` frame and flushes it; parent and
    child are one interpreter, so they share the format. A child that fails
    sends one error frame instead. A child writes nothing but its frames:
    the parent writes all output. It closes every read end forked so far,
    its own included, so a write fails once its parent is gone, and leaves
    through ``os._exit``, so neither the buffers nor the exit hooks it
    inherited run twice. When the block ends, fails or is closed, every
    child is killed and reaped and its stream closed.
    """
    import signal

    pids: list[int] = []
    streams: list[BinaryIO] = []

    def fork(body: Callable[[Callable], object]) -> BinaryIO:
        read_fd, write_fd = os.pipe()
        streams.append(open(read_fd, "rb"))
        try:
            pid = os.fork()
            if pid == 0:
                try:
                    for stream in streams:
                        stream.close()
                    pipe = open(write_fd, "wb")

                    def send(value, kind: str | None = None) -> None:
                        marshal.dump((kind, value), pipe)
                        pipe.flush()

                    try:
                        body(send)
                    except (OSError, ValueError) as exc:
                        kind = "OSError" if isinstance(exc, OSError) else type(exc).__name__
                        send(exc.args, kind)
                    except Exception:
                        import traceback

                        send(traceback.format_exc(), "traceback")
                finally:
                    os._exit(0)
            pids.append(pid)
        finally:
            os.close(write_fd)
        return streams[-1]

    try:
        yield fork
    finally:
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # already reaped, where SIGCHLD is ignored
        for stream in streams:
            stream.close()


def _receive(stream: BinaryIO, who: str):
    """The next value a child of :func:`_children` sent down ``stream``.

    A child's ``ValueError`` or ``OSError`` is raised here as one with the
    same args, as it would be in process (so EPIPE is a ``BrokenPipeError``,
    and a ``_SettingError`` stays one, for the CLI to rename its fields);
    any other failure as a ``RuntimeError`` with the child's traceback, and
    a child that left without a frame as one that says so.
    """
    try:
        kind, value = marshal.load(stream)
    except EOFError:
        raise RuntimeError(f"{who} exited early") from None
    if kind is None:
        return value
    if kind == "traceback":
        raise RuntimeError(f"{who} failed:\n{value}")
    raise {"OSError": OSError, "_SettingError": _SettingError}.get(kind, ValueError)(*value)


def _in_workers(
    check: Callable[[int], tuple[str, bool]], indices: range, workers: int
) -> Iterator[tuple[str, bool]]:
    """``check`` of each graph index, in order, run in forked workers.

    Worker ``k`` checks indices ``k``, ``k + workers``, ... and sends each
    result as one frame (see :func:`_children`). The frames are read
    round-robin, so each result is yielded as soon as it and those before
    it are in. A worker's failure is raised here as :func:`_receive` says,
    and every worker is killed and reaped when the generator ends, fails
    or is closed.
    """

    def serve(mine: range, send: Callable) -> None:
        for index in mine:
            send(check(index))

    with _children() as fork:
        children = [
            (fork(partial(serve, indices[k::workers])), f"corpus worker {k}")
            for k in range(workers)
        ]
        for i in indices:
            yield _receive(*children[i % workers])


def _disagreement_check(
    opts: EnumerationOptions, failing: Graph
) -> Callable[[Graph], bool]:
    """Does a graph's enumeration under ``opts`` disagree with the oracle?
    ``failing``, which the caller has just seen disagree, is answered
    without running either again."""

    def check(g: Graph) -> bool:
        if g is failing:
            return True
        got = frozenset(enumerate_mcvs(g, opts).mcvs)
        return got != brute_force_mcvs(g)

    return check


def _artifact_text(g: Graph, opts: EnumerationOptions) -> str:
    """The shrunk graph as an edge list that reads back as ``g``, under a
    header that names the policy, and the order as ``--order`` takes it."""
    order = opts.selection_order
    spelled = f"random:{order.seed}" if isinstance(order, RandomOrder) else "ascending"
    names = g.node_names
    header = (
        f"# minimized counterexample: enumeration (b_policy={opts.b_policy}, "
        f"order={spelled}) disagrees with the oracle\n"
        f"# source={names[g.source]} sink={names[g.sink]}\n"
    )
    return header + "".join(f"{names[u]} {names[v]}\n" for u, v in _edge_order(g))
