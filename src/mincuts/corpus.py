"""Seeded random-graph corpus, differential runner, counterexample shrinking.

The corpus is the empirical backstop for the enumeration engines: every
graph is run against the brute-force oracle under several policies and
selection orders, disagreements are shrunk to locally minimal graphs, and
the whole pipeline is reproducible from a single integer seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence, TextIO

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
# Seeded random orders per graph and b-policy, besides the ascending one.
RANDOM_ORDERS = 3
# Draws per graph before the generator gives up on an edge probability too
# low to make connected graphs; the default corpus needs at most about 20.
MAX_GRAPH_DRAWS = 10_000


@dataclass(frozen=True)
class CorpusSpec:
    """Parameters of a reproducible corpus of connected random graphs; the
    defaults are the ``corpus`` command's."""

    graph_count: int = 1000
    min_nodes: int = 4
    max_nodes: int = 10
    edge_probability: float = 0.35
    seed: int = 42
    prune: bool = True

    def __post_init__(self) -> None:
        if self.graph_count < 1:
            raise ValueError("graph_count must be positive")
        if not 2 <= self.min_nodes <= self.max_nodes <= MAX_CORPUS_NODES:
            raise ValueError(
                "node range must satisfy 2 <= min_nodes <= max_nodes <= "
                f"{MAX_CORPUS_NODES}"
            )
        if not 0.0 < self.edge_probability <= 1.0:
            raise ValueError("edge_probability must be in (0, 1]")


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
        raise ValueError(
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
            g = prune_irrelevant(g).pruned_graph
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
            for name in current.node_names:
                if name in (source, sink):
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
    b_policies: Sequence[str] = B_POLICIES,
    random_orders: int = RANDOM_ORDERS,
    out_dir: str | Path | None = None,
    out: TextIO | None = None,
) -> CorpusRunResult:
    """Differential run: every corpus graph, oracle vs. enumeration.

    Each graph is enumerated once per (policy, order) combination — the
    ascending order plus ``random_orders`` seeded random orders — and
    compared to the brute-force oracle as a set. One line per graph goes to
    ``out``: index, seed, node and edge counts, agree/mismatch, and, when a
    mismatch was shrunk to an artifact, the file it was written to
    (requires ``out_dir``). Artifacts are edge-list files replayable with
    the same policy and order that exposed the disagreement. An empty,
    unknown or repeated ``b_policies``, a negative ``random_orders`` or an
    unusable ``out_dir`` raises ``ValueError`` before any graph runs.
    """
    if not b_policies:
        raise ValueError("no b-policy given")
    if random_orders < 0:
        raise ValueError(f"random_orders must be non-negative, got {random_orders}")
    for i, policy in enumerate(b_policies):
        EnumerationOptions(b_policy=policy)  # raises on an unknown policy
        if policy in b_policies[:i]:
            raise ValueError(f"b-policy {policy!r} given twice")
    lines: list[str] = []
    mismatches = 0
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        try:
            out_path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot create out_dir: {exc.strerror}") from None

    for entry in corpus_entries(spec):
        g = entry.graph
        oracle_sets = brute_force_mcvs(g).mcvs
        failing: EnumerationOptions | None = None
        for policy in b_policies:
            orders = [AscendingOrder()] + [
                RandomOrder(seed=entry.seed * 100 + j) for j in range(random_orders)
            ]
            for order in orders:
                opts = EnumerationOptions(selection_order=order, b_policy=policy)
                if frozenset(enumerate_mcvs(g, opts).mcvs) != oracle_sets:
                    failing = opts
                    break
            if failing is not None:
                break

        line = (
            f"graph={entry.index} seed={entry.seed} "
            f"n={g.node_count} m={g.edge_count} "
            f"status={'agree' if failing is None else 'mismatch'}"
        )
        if failing is not None:
            mismatches += 1
            line += (
                f" policy={failing.b_policy}"
                f" order={type(failing.selection_order).__name__}"
            )
            if out_path is not None:
                shrunk = shrink_counterexample(
                    g, _disagreement_check(failing)
                )
                artifact = out_path / f"counterexample-{entry.index:04d}.edges"
                artifact.write_text(_artifact_text(shrunk, failing))
                line += f" counterexample={artifact}"
        lines.append(line)
        if out is not None:
            print(line, file=out)

    return CorpusRunResult(tuple(lines), spec.graph_count, mismatches)


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
