"""Every small graph, up to relabelling, and every order a search can take.

A test-only helper for the exhaustive census: :func:`graph_classes` lists
one representative of each class of connected graphs on ``n`` nodes with
the source ``s`` and the sink ``t``, and :func:`every_choice` replays one
search under every sequence of picks. The truth is
:func:`mincuts.graph.is_mcv` over every subset, so the census leans on
neither engine nor the oracle.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Callable, Iterator, TypeVar

from mincuts.graph import Graph, NodeSet, _connected_mask, is_mcv, prune_irrelevant

T = TypeVar("T")
LABELS = ("s", "t", "a", "b", "c")


def canonical_edges(n: int, edges) -> tuple[tuple[int, int], ...]:
    """The least sorted edge list over the relabellings of ``edges`` on
    nodes ``0..n-1`` that fix the source 0 and the sink 1."""
    return min(
        tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges))
        for p in ((0, 1, *rest) for rest in permutations(range(2, n)))
    )


def graph_classes(n: int) -> list[Graph]:
    """One graph per class of connected graphs on ``n`` nodes, labelled
    from ``LABELS``, with every node on some source-sink path (that is,
    ``prune_irrelevant`` returns the graph itself); in order of edge count,
    then of canonical edge list."""
    pairs = list(combinations(range(n), 2))
    keys = {
        canonical_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
        for bits in range(1, 1 << len(pairs))
    }
    graphs = (Graph(LABELS[:n], 0, 1, frozenset(key))
              for key in sorted(keys, key=lambda k: (len(k), k)))
    return [
        g for g in graphs
        if _connected_mask(g.adjacency_masks, g.full_mask) and prune_irrelevant(g) is g
    ]


def truth(g: Graph) -> frozenset[NodeSet]:
    """Every node set that generates a minimal s-t cut of ``g``, by definition."""
    return frozenset(u for u in range(1 << g.node_count) if is_mcv(g, u))


def every_choice(run: Callable[[Callable[[int], int]], T]) -> Iterator[T]:
    """``run(choose)`` once per sequence of picks ``choose`` can make.

    ``choose(legal)`` returns one set bit of the non-empty mask ``legal``.
    The first run takes the lowest bit at every call. Each later run
    replays the picks of the one before up to its last call that had a
    higher bit left, takes the next bit there and the lowest bit after it,
    so the runs walk the tree of picks depth first. ``run`` must make the
    same calls for the same picks, and must end.
    """
    picks: list[list[int]] = []  # per call: the pick's rank among the legal bits, their count
    while True:
        depth = 0

        def choose(legal: int) -> int:
            nonlocal depth
            if depth == len(picks):
                picks.append([0, legal.bit_count()])
            for _ in range(picks[depth][0]):
                legal &= legal - 1
            depth += 1
            return legal & -legal

        yield run(choose)
        while picks and picks[-1][0] + 1 == picks[-1][1]:
            picks.pop()
        if not picks:
            return
        picks[-1][0] += 1
