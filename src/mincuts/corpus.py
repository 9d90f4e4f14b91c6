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
from .graph import Graph, GraphError, _connected_mask, build_graph, prune_irrelevant
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


def corpus_entries(spec: CorpusSpec) -> list[CorpusEntry]:
    """Generate the corpus with its per-graph seeds.

    A master stream derives one seed per graph, so any single graph can be
    regenerated from the seed printed in the runner's report line.
    """
    master = random.Random(spec.seed)
    entries = []
    for index in range(spec.graph_count):
        graph_seed = master.randrange(2**32)
        rng = random.Random(graph_seed)
        g = _random_connected_graph(rng, rng.randint(spec.min_nodes, spec.max_nodes),
                                    spec.edge_probability)
        if spec.prune:
            g = prune_irrelevant(g)
        entries.append(CorpusEntry(index, graph_seed, g))
    return entries


def _edge_label_pairs(g: Graph) -> list[tuple[str, str]]:
    return [(g.node_names[u], g.node_names[v]) for u, v in sorted(g.edges)]


def shrink_counterexample(g: Graph, check: Callable[[Graph], bool]) -> Graph:
    """Greedily reduce ``g`` while ``check`` keeps failing on the result.

    Tries single edge deletions first, then single node deletions (never
    the source or sink), restarting after every success; a candidate that
    no longer builds into a valid connected graph is skipped. The returned
    graph is locally minimal: no single deletion preserves the discrepancy.
    Deterministic for a given input.
    """
    if not check(g):
        raise ValueError("graph does not exhibit the discrepancy being shrunk")

    source, sink = g.node_names[g.source], g.node_names[g.sink]

    def rebuild(pairs: list[tuple[str, str]]) -> Graph | None:
        if not pairs:
            return None
        try:
            return build_graph(pairs, source, sink)
        except GraphError:
            return None

    current = g
    while True:
        pairs = _edge_label_pairs(current)
        for drop in range(len(pairs)):
            candidate = rebuild(pairs[:drop] + pairs[drop + 1:])
            if candidate is not None and check(candidate):
                current = candidate
                break
        else:
            for v, name in enumerate(current.node_names):
                # A node of degree 1 leaves the list its one edge's deletion
                # left, which this pass has already rejected.
                if name in (source, sink) or current.adjacency_masks[v].bit_count() == 1:
                    continue
                candidate = rebuild([p for p in pairs if name not in p])
                if candidate is not None and check(candidate):
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
    file it was written to (requires ``out_dir``). Artifacts are edge-list
    files replayable with the same policy and order that exposed the
    disagreement. An unusable ``out_dir`` raises ``ValueError`` before any
    graph runs, and an artifact that cannot be written raises it when its
    graph does.

    The graphs run in forked workers, one per usable CPU, and in this
    process where there is one CPU, no ``os.fork`` or a second thread. The
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

    entries = corpus_entries(spec)

    def check(entry: CorpusEntry) -> tuple[str, bool]:
        return _check_graph(entry, spec, out_path)

    workers = _fork_slots(len(entries))
    if workers > 1:
        results = _in_workers(check, entries, workers)
    else:
        results = (check(entry) for entry in entries)
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
    oracle_sets = brute_force_mcvs(g).mcvs
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
        shrunk = shrink_counterexample(g, _disagreement_check(failing))
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
                        send(exc.args, "OSError" if isinstance(exc, OSError) else "ValueError")
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
    same args, as it would be in process (so EPIPE is a ``BrokenPipeError``);
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
    raise (OSError if kind == "OSError" else ValueError)(*value)


def _in_workers(
    check: Callable[[CorpusEntry], tuple[str, bool]],
    entries: list[CorpusEntry],
    workers: int,
) -> Iterator[tuple[str, bool]]:
    """``check`` of each entry, in entry order, run in forked workers.

    Worker ``k`` checks entries ``k``, ``k + workers``, ... and sends each
    result as one frame (see :func:`_children`). The frames are read
    round-robin, so each result is yielded as soon as it and those before
    it are in. A worker's failure is raised here as :func:`_receive` says,
    and every worker is killed and reaped when the generator ends, fails
    or is closed.
    """

    def serve(mine: list[CorpusEntry], send: Callable) -> None:
        for entry in mine:
            send(check(entry))

    with _children() as fork:
        children = [
            (fork(partial(serve, entries[k::workers])), f"corpus worker {k}")
            for k in range(workers)
        ]
        for i in range(len(entries)):
            yield _receive(*children[i % workers])


def _disagreement_check(opts: EnumerationOptions) -> Callable[[Graph], bool]:
    def check(g: Graph) -> bool:
        got = frozenset(enumerate_mcvs(g, opts).mcvs)
        return got != brute_force_mcvs(g).mcvs

    return check


def _artifact_text(g: Graph, opts: EnumerationOptions) -> str:
    header = (
        f"# minimized counterexample: enumeration (b_policy={opts.b_policy}, "
        f"order={opts.selection_order!r}) disagrees with the oracle\n"
        f"# source={g.node_names[g.source]} sink={g.node_names[g.sink]}\n"
    )
    return header + "".join(f"{a} {b}\n" for a, b in _edge_label_pairs(g))
