"""Immutable undirected graph substrate: construction, connectivity, cuts.

Node identity is label-based at the boundary and index-based internally:
labels are mapped to dense indices ``0..n-1`` in first-appearance order, and
a node set is an ``int`` bitmask whose bit ``v`` stands for node ``v``, from
the search to the renderer; :meth:`Graph.label_set` decodes one to labels.
Connectivity runs on per-node adjacency bitmasks, which keeps the
exhaustive callers (the brute-force oracle, the corpus runner) fast without
any native code. Every invalid construction or query raises
:class:`GraphError`, a ``ValueError`` whose message names the fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

NodeSet = int  # bit ``v`` set iff node ``v`` is a member
Edge = tuple[int, int]  # normalized: smaller index first
Cut = frozenset[Edge]

__all__ = [
    "Cut",
    "Edge",
    "Graph",
    "GraphError",
    "NodeSet",
    "build_graph",
    "cut_edges",
    "is_mcv",
    "prune_irrelevant",
]


class GraphError(ValueError):
    """An invalid graph construction or query; the message says which."""


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


def _connected_without(adjacency_masks: Sequence[int], mask: int, low: int) -> bool:
    """Is ``mask`` without the single bit ``low`` connected, if ``mask`` is?

    Every other node reaches one of ``low``'s neighbours, so the BFS from
    one neighbour stops once it has seen them all; a leaf needs no BFS.
    """
    mask ^= low
    targets = adjacency_masks[low.bit_length() - 1] & mask
    seen = frontier = targets & -targets
    while targets & ~seen:
        if not frontier:
            return False
        reach = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            reach |= adjacency_masks[bit.bit_length() - 1]
        frontier = reach & mask & ~seen
        seen |= frontier
    return True


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
    def _index_by_name(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.node_names)}

    def index_of(self, label: str) -> int:
        try:
            return self._index_by_name[label]
        except KeyError:
            raise GraphError(f"no node labeled {label!r}") from None

    def node_set(self, *labels: str) -> NodeSet:
        u = 0
        for label in labels:
            u |= 1 << self.index_of(label)
        return u

    def label_set(self, u: NodeSet) -> tuple[str, ...]:
        """Labels of the members of ``u`` in index (first-appearance) order."""
        return tuple(self.node_names[v] for v in _bits(u))

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
    numbering deterministic for a fixed input. Parallel edges are merged,
    so the input's pair count less ``edge_count`` is the number dropped;
    self-loops are rejected rather than dropped, so dirty inputs must be
    cleaned explicitly. Raises :class:`GraphError` when source and sink are
    the same label, an edge joins a label to itself, the source or sink
    label is no endpoint, or the graph is not connected.
    """
    if source_label == sink_label:
        raise GraphError(f"source and sink are both {source_label!r}")

    index: dict[str, int] = {}
    pairs: list[Edge] = []
    for a, b in edge_list:
        if a == b:
            raise GraphError(f"self-loop at node {a!r}")
        for label in (a, b):
            index.setdefault(label, len(index))
        u, v = index[a], index[b]
        pairs.append((u, v) if u < v else (v, u))

    for label in (source_label, sink_label):
        if label not in index:
            raise GraphError(f"node {label!r} does not appear in the edge list")

    graph = Graph(
        node_names=tuple(index),
        source=index[source_label],
        sink=index[sink_label],
        edges=frozenset(pairs),
    )
    if not _connected_mask(graph.adjacency_masks, graph.full_mask):
        raise GraphError("input graph is not connected")
    return graph


def cut_edges(g: Graph, u: NodeSet) -> Cut:
    """The edges with exactly one endpoint in ``u``."""
    if u == 0 or u == g.full_mask:
        raise GraphError("cut is undefined for the empty or full node set")
    return frozenset(e for e in g.edges if ((u >> e[0]) ^ (u >> e[1])) & 1)


def is_mcv(g: Graph, u: NodeSet) -> bool:
    """Does ``u`` generate a minimal s-t cut?

    True iff the set contains the source but not the sink and both it and
    its complement induce connected subgraphs; the crossing edges of such a
    set form a minimal (irreducible) s-t cut, and every minimal s-t cut
    arises this way.
    """
    if not (u >> g.source) & 1 or (u >> g.sink) & 1:
        return False
    adj = g.adjacency_masks
    return _connected_mask(adj, u) and _connected_mask(adj, g.full_mask & ~u)


def prune_irrelevant(g: Graph) -> Graph:
    """Remove every node that lies on no simple source-sink path.

    Those nodes are exactly the ones outside the biconnected block of the
    (possibly virtual) source-sink edge. One iterative depth-first search
    from the source, entering the sink first, computes discovery times and
    lowpoints; then, in preorder, a node ``w`` other than source and sink
    is kept iff its DFS parent ``p`` is kept and ``low[w] < disc[p]``.
    Removing the others preserves the family of minimal s-t cuts as edge
    sets. Returns ``g`` itself when it removes nothing, so pruning a pruned
    graph returns it unchanged; otherwise a re-densified graph, so match
    nodes by label when relating the two. Source and sink always survive.
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
    if keep == g.full_mask:
        return g
    names = g.node_names
    surviving = [
        (names[u], names[v]) for u, v in sorted(g.edges) if (keep >> u) & (keep >> v) & 1
    ]
    return build_graph(surviving, names[s], names[t])
