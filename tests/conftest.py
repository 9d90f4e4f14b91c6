"""Shared fixtures: reference networks, frozen expected values, helpers.

Expected values here were computed by hand or by exhaustive scan over the
definitions, independently of the implementation under test, and frozen.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from mincuts.graph import Graph, build_graph

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Six-node reference network: the worked example every engine must nail.
FIG1_EDGES = [
    ("s", "1"),
    ("s", "2"),
    ("1", "2"),
    ("1", "3"),
    ("1", "4"),
    ("2", "3"),
    ("3", "4"),
    ("3", "t"),
    ("4", "t"),
]

# All nine cut-generating node sets of the reference network (frozen from an
# exhaustive scan of the 16 candidate subsets).
FIG1_GOLDEN = [
    {"s"},
    {"s", "1"},
    {"s", "2"},
    {"s", "1", "2"},
    {"s", "1", "4"},
    {"s", "2", "3"},
    {"s", "1", "2", "3"},
    {"s", "1", "2", "4"},
    {"s", "1", "2", "3", "4"},
]

# The reference worked run of the corrected search: the selection script
# (consulted only when a legal candidate exists) and the discovery order it
# must produce under persistent blocking.
FIG1_PAPER_SCRIPT = ["1", "3", "2", "3", "4", "4", "3", "4", "3", "2", "3", "4"]
FIG1_PAPER_DISCOVERY = [
    {"s"},
    {"s", "1"},
    {"s", "1", "2"},
    {"s", "1", "2", "3"},
    {"s", "1", "2", "3", "4"},
    {"s", "1", "2", "4"},
    {"s", "1", "4"},
    {"s", "2"},
    {"s", "2", "3"},
]
# (candidate, prefix) of each failed connectivity test in that run, in order.
FIG1_PAPER_DISCONNECTED = [
    ("3", ("s", "1")),
    ("3", ("s", "1")),
    ("3", ("s", "1", "4")),
    ("4", ("s", "2", "3")),
]

# Direct s-t edge plus two pendant nodes: the smallest standard input where
# the unpruned enumeration must disagree with the oracle ({s} recorded but
# not cut-generating, {s,a,b} never reachable).
APPENDAGE_EDGES = [("s", "a"), ("s", "b"), ("s", "t")]

# Complete bipartite K_{2,3} with source and sink inside the 3-node part:
# the smallest graph (by node count) where carrying the blocked set across
# backtracking loses results even though every node is on an s-t path.
K23_EDGES = [
    ("s", "a"),
    ("s", "b"),
    ("a", "t"),
    ("b", "t"),
    ("a", "c"),
    ("b", "c"),
]
K23_ALL_MCVS = [
    {"s"},
    {"s", "a"},
    {"s", "b"},
    {"s", "a", "c"},
    {"s", "b", "c"},
    {"s", "a", "b", "c"},
]


@pytest.fixture
def fig1() -> Graph:
    return build_graph(FIG1_EDGES, "s", "t")


@pytest.fixture
def appendage() -> Graph:
    return build_graph(APPENDAGE_EDGES, "s", "t")


@pytest.fixture
def k23() -> Graph:
    return build_graph(K23_EDGES, "s", "t")


def complete_graph_edges(n: int) -> list[tuple[str, str]]:
    """K_n with labels s, 1..n-2, t."""
    names = ["s"] + [str(i) for i in range(1, n - 1)] + ["t"]
    return [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]


def path_graph_edges(n: int) -> list[tuple[str, str]]:
    """Path s - 1 - ... - (n-2) - t."""
    names = ["s"] + [str(i) for i in range(1, n - 1)] + ["t"]
    return list(zip(names, names[1:]))


def grid_graph_edges(rows: int, cols: int) -> list[tuple[str, str]]:
    """A rows x cols grid with s and t at opposite corners."""

    def name(r: int, c: int) -> str:
        if (r, c) == (0, 0):
            return "s"
        if (r, c) == (rows - 1, cols - 1):
            return "t"
        return f"{r}.{c}"

    right = [(name(r, c), name(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    down = [(name(r, c), name(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return right + down


def label_sets(g: Graph, node_sets) -> set[frozenset[str]]:
    """Index-based node sets to label sets, for comparing against goldens."""
    return {frozenset(g.node_names[v] for v in u) for u in node_sets}


def as_frozen(label_groups) -> set[frozenset[str]]:
    return {frozenset(group) for group in label_groups}


def reachable_labels(pairs, start: str) -> set[str]:
    """Plain dict/set BFS over labeled edges, independent of the library."""
    adjacency: dict[str, set[str]] = {}
    for a, b in pairs:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adjacency.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def st_connected(pairs, source: str, sink: str) -> bool:
    return sink in reachable_labels(pairs, source)
