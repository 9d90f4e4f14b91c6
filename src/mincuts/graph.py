"""Immutable undirected graph substrate: construction, connectivity, cuts.

Node identity is label-based at the boundary and index-based internally:
labels are mapped to dense indices ``0..n-1`` in first-appearance order, and
every query works on plain ``frozenset[int]`` node sets.  Connectivity runs
on per-node adjacency bitmasks, which keeps the exhaustive callers (the
brute-force oracle, the corpus runner) fast without any native code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

NodeSet = frozenset[int]
Edge = tuple[int, int]  # normalized: smaller index first
Cut = frozenset[Edge]

__all__ = [
    "Cut",
    "DisconnectedInput",
    "Edge",
    "EmptyOrFullSet",
    "Graph",
    "GraphError",
    "NodeSet",
    "PruneReport",
    "SelfLoop",
    "SourceEqualsSink",
    "UnknownNode",
    "boundary_nodes",
    "build_graph",
    "cut_edges",
    "is_connected",
    "is_mcv",
    "prune_irrelevant",
]


class GraphError(ValueError):
    """Base class for invalid graph construction or queries."""


class SourceEqualsSink(GraphError):
    pass


class UnknownNode(GraphError):
    pass


class SelfLoop(GraphError):
    pass


class DisconnectedInput(GraphError):
    pass


class EmptyOrFullSet(GraphError):
    pass


def _mask(nodes: Iterable[int]) -> int:
    m = 0
    for v in nodes:
        m |= 1 << v
    return m


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _connected_mask(adjacency_masks: Sequence[int], mask: int) -> bool:
    """Is the induced subgraph on the nodes of ``mask`` connected?

    Empty and singleton masks count as connected.
    """
    if mask == 0:
        return True
    seen = mask & -mask
    frontier = seen
    while frontier:
        reach = 0
        rest = frontier
        while rest:
            low = rest & -rest
            rest ^= low
            reach |= adjacency_masks[low.bit_length() - 1]
        frontier = reach & mask & ~seen
        seen |= frontier
    return seen == mask


@dataclass(frozen=True, repr=False)
class Graph:
    """Connected undirected simple graph with designated source and sink.

    Instances are immutable and safe to share across concurrent readers;
    build them with :func:`build_graph`, which validates every invariant
    (no self-loops, parallel edges merged, whole graph connected).
    """

    node_names: tuple[str, ...]
    source: int
    sink: int
    edges: frozenset[Edge]
    # How many duplicate input edges were dropped when merging parallels.
    parallel_edges_merged: int = 0

    @property
    def node_count(self) -> int:
        return len(self.node_names)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        masks = [0] * self.node_count
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.node_count) - 1

    @cached_property
    def all_nodes(self) -> NodeSet:
        return frozenset(range(self.node_count))

    @cached_property
    def _index_by_name(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.node_names)}

    def index_of(self, label: str) -> int:
        try:
            return self._index_by_name[label]
        except KeyError:
            raise UnknownNode(f"no node labeled {label!r}") from None

    def node_set(self, *labels: str) -> NodeSet:
        return frozenset(self.index_of(label) for label in labels)

    def label_set(self, nodes: Iterable[int]) -> tuple[str, ...]:
        """Labels of ``nodes`` in index (first-appearance) order."""
        return tuple(self.node_names[v] for v in sorted(nodes))

    def __repr__(self) -> str:
        return (
            f"Graph(n={self.node_count}, m={self.edge_count}, "
            f"source={self.node_names[self.source]!r}, "
            f"sink={self.node_names[self.sink]!r})"
        )


def build_graph(
    edge_list: Iterable[tuple[str, str]],
    source_label: str,
    sink_label: str,
) -> Graph:
    """Build a validated :class:`Graph` from labeled edge pairs.

    Labels get dense indices in order of first appearance, which makes the
    numbering deterministic for a fixed input. Parallel edges are merged
    (the number dropped is recorded on the graph); self-loops are rejected
    rather than dropped, so dirty inputs must be cleaned explicitly.

    Raises:
        SourceEqualsSink: source and sink are the same label.
        SelfLoop: some edge joins a label to itself.
        UnknownNode: source or sink label never appears as an endpoint.
        DisconnectedInput: the input graph is not connected.
    """
    if source_label == sink_label:
        raise SourceEqualsSink(f"source and sink are both {source_label!r}")

    index: dict[str, int] = {}
    pairs: list[Edge] = []
    for a, b in edge_list:
        if a == b:
            raise SelfLoop(f"self-loop at node {a!r}")
        for label in (a, b):
            index.setdefault(label, len(index))
        u, v = index[a], index[b]
        pairs.append((u, v) if u < v else (v, u))

    for label in (source_label, sink_label):
        if label not in index:
            raise UnknownNode(f"node {label!r} does not appear in the edge list")

    edges = frozenset(pairs)
    graph = Graph(
        node_names=tuple(index),
        source=index[source_label],
        sink=index[sink_label],
        edges=edges,
        parallel_edges_merged=len(pairs) - len(edges),
    )
    if not _connected_mask(graph.adjacency_masks, graph.full_mask):
        raise DisconnectedInput("input graph is not connected")
    return graph


def is_connected(g: Graph, nodes: Iterable[int]) -> bool:
    """True iff the subgraph induced by ``nodes`` is connected.

    The empty set and singletons are connected by convention.
    """
    return _connected_mask(g.adjacency_masks, _mask(nodes))


def cut_edges(g: Graph, nodes: Iterable[int]) -> Cut:
    """The edges with exactly one endpoint inside ``nodes``."""
    m = _mask(nodes)
    if m == 0 or m == g.full_mask:
        raise EmptyOrFullSet("cut is undefined for the empty or full node set")
    return frozenset(e for e in g.edges if ((m >> e[0]) ^ (m >> e[1])) & 1)


def is_mcv(g: Graph, nodes: Iterable[int]) -> bool:
    """Does ``nodes`` generate a minimal s-t cut?

    True iff the set contains the source but not the sink and both it and
    its complement induce connected subgraphs; the crossing edges of such a
    set form a minimal (irreducible) s-t cut, and every minimal s-t cut
    arises this way.
    """
    return _is_mcv_mask(g, _mask(nodes))


def _is_mcv_mask(g: Graph, m: int) -> bool:
    if not (m >> g.source) & 1 or (m >> g.sink) & 1:
        return False
    adj = g.adjacency_masks
    return _connected_mask(adj, m) and _connected_mask(adj, g.full_mask & ~m)


def boundary_nodes(g: Graph, nodes: Iterable[int]) -> NodeSet:
    """The members of ``nodes`` incident to at least one crossing edge."""
    m = _mask(nodes)
    if m == 0 or m == g.full_mask:
        raise EmptyOrFullSet("boundary is undefined for the empty or full node set")
    outside = g.full_mask & ~m
    return frozenset(v for v in _bits(m) if g.adjacency_masks[v] & outside)


@dataclass(frozen=True)
class PruneReport:
    """Result of stripping nodes that lie on no simple source-sink path.

    ``removed_nodes`` uses the original graph's indices; ``pruned_graph``
    is re-densified, so match nodes by label when relating the two.
    """

    removed_nodes: NodeSet
    pruned_graph: Graph


def prune_irrelevant(g: Graph) -> PruneReport:
    """Remove every node that lies on no simple source-sink path.

    Those nodes are exactly the ones outside the biconnected block of the
    (possibly virtual) source-sink edge. One iterative depth-first search
    from the source, entering the sink first, computes discovery times and
    lowpoints; then, in preorder, a node ``w`` other than source and sink
    is kept iff its DFS parent ``p`` is kept and ``low[w] < disc[p]``.
    Removing the others preserves the family of minimal s-t cuts as edge
    sets. Idempotent: pruning a pruned graph removes nothing. Source and
    sink always survive.
    """
    s, t = g.source, g.sink
    # The source is its own parent, so popping it needs no special case.
    disc, low, parent = [-1] * g.node_count, [0] * g.node_count, [s] * g.node_count
    disc[s] = 0
    order: list[int] = []
    # Unexplored edges per node. The source's only one is the (possibly
    # virtual) edge to the sink: its other edges are back edges from the
    # sink's subtree or lead into other blocks.
    todo = list(g.adjacency_masks)
    todo[s] = 1 << t
    stack = [s]
    while stack:
        v = stack[-1]
        if not todo[v]:
            stack.pop()
            low[parent[v]] = min(low[parent[v]], low[v])
            continue
        w = (todo[v] & -todo[v]).bit_length() - 1
        todo[v] &= todo[v] - 1
        if disc[w] >= 0:
            low[v] = min(low[v], disc[w])
        else:
            order.append(w)
            disc[w] = low[w] = len(order)
            parent[w] = v
            todo[w] &= ~(1 << v)
            stack.append(w)

    keep = (1 << s) | (1 << t)
    for w in order:
        if (keep >> parent[w]) & 1 and low[w] < disc[parent[w]]:
            keep |= 1 << w
    removed_nodes = frozenset(_bits(g.full_mask & ~keep))
    if not removed_nodes:
        return PruneReport(removed_nodes, g)

    surviving = [
        g.label_set(e) for e in sorted(g.edges) if (keep >> e[0]) & (keep >> e[1]) & 1
    ]
    pruned = build_graph(surviving, g.node_names[s], g.node_names[t])
    return PruneReport(removed_nodes, pruned)
