"""Graph substrate: construction, connectivity, cuts, boundaries, pruning."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mincuts import build_graph, enumerate_mcvs, prune_irrelevant
from mincuts.graph import (
    GraphError,
    _bits,
    _connected_mask,
    _connected_without,
    cut_edges,
    is_mcv,
)
from mincuts.corpus import CorpusSpec, corpus_entries
from mincuts.oracle import brute_force_mcvs

from .conftest import FIG1_EDGES, sparse_graphs, st_connected


class TestBuildGraph:
    def test_fig1_shape(self, fig1):
        assert fig1.node_count == 6
        assert fig1.edge_count == 9
        assert fig1.node_names[fig1.source] == "s"
        assert fig1.node_names[fig1.sink] == "t"

    def test_single_edge(self):
        g = build_graph([("s", "t")], "s", "t")
        assert g.node_count == 2
        assert g.edge_count == 1

    def test_unknown_sink(self):
        with pytest.raises(GraphError, match="node 't' does not appear in the edge list"):
            build_graph([("s", "a"), ("a", "b")], "s", "t")

    def test_empty_edge_list_is_rejected(self):
        with pytest.raises(GraphError, match="node 's' does not appear in the edge list"):
            build_graph([], "s", "t")

    def test_source_equals_sink(self):
        with pytest.raises(GraphError, match="source and sink are both 's'"):
            build_graph([("s", "t")], "s", "s")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop at node 's'"):
            build_graph([("s", "s"), ("s", "t")], "s", "t")

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError, match="input graph is not connected"):
            build_graph([("s", "t"), ("a", "b")], "s", "t")

    def test_parallel_edges_merged_with_count(self):
        g = build_graph([("s", "t"), ("t", "s"), ("s", "a"), ("a", "t")], "s", "t")
        assert g.edge_count == 3
        assert tuple(_bits(g.node_set("s", "t"))) in g.edges

    def test_first_appearance_indexing(self, fig1):
        assert fig1.node_names == ("s", "1", "2", "3", "4", "t")

    def test_indexing_deterministic(self):
        a = build_graph(FIG1_EDGES, "s", "t")
        b = build_graph(FIG1_EDGES, "s", "t")
        assert a.node_names == b.node_names
        assert a.edges == b.edges


class TestConnectivity:
    def test_fig1_2_4_t_is_disconnected(self, fig1):
        assert not _connected_mask(fig1.adjacency_masks, fig1.node_set("2", "4", "t"))

    def test_singleton_connected(self, fig1):
        assert _connected_mask(fig1.adjacency_masks, fig1.node_set("t"))

    def test_whole_graph_connected(self, fig1):
        assert _connected_mask(fig1.adjacency_masks, fig1.full_mask)

    def test_empty_set_connected(self, fig1):
        assert _connected_mask(fig1.adjacency_masks, 0)


class TestConnectedWithout:
    """The early-exit check against a full BFS, on connected masks only."""

    @pytest.mark.parametrize(
        "members, pick, expected",
        [
            (("t",), "t", True),  # singleton: nothing is left
            (("2", "3", "t"), "2", True),  # leaf of the path 2-3-t: no BFS
            (("2", "3", "t"), "3", False),  # separates 2 from t
            (("1", "2", "3", "4", "t"), "3", True),  # 1, 2, 4 and t meet via 1
            (("2", "3", "4", "t"), "3", False),  # cuts 2 off from 4 and t
        ],
    )
    def test_fig1_cases(self, fig1, members, pick, expected):
        mask, low = fig1.node_set(*members), fig1.node_set(pick)
        adj = fig1.adjacency_masks
        assert _connected_mask(adj, mask)
        assert _connected_without(adj, mask, low) is expected
        assert _connected_mask(adj, mask ^ low) is expected

    @settings(max_examples=100, deadline=None)
    @given(g=sparse_graphs())
    def test_matches_full_bfs_on_search_remainders(self, g):
        adj = g.adjacency_masks
        for u in enumerate_mcvs(g).mcvs:
            rest = g.full_mask & ~u
            if not _connected_mask(adj, rest):  # unpruned {s} may split it
                continue
            for v in _bits(rest):
                low = 1 << v
                assert _connected_without(adj, rest, low) == _connected_mask(adj, rest ^ low)


class TestCutEdges:
    @pytest.mark.parametrize(
        "members,expected",
        [
            (("s",), {("s", "1"), ("s", "2")}),
            (("s", "1", "2", "3", "4"), {("3", "t"), ("4", "t")}),
            (("s", "2"), {("s", "1"), ("1", "2"), ("2", "3")}),
        ],
    )
    def test_fig1_cuts(self, fig1, members, expected):
        cut = cut_edges(fig1, fig1.node_set(*members))
        as_labels = {
            frozenset((fig1.node_names[u], fig1.node_names[v])) for u, v in cut
        }
        assert as_labels == {frozenset(e) for e in expected}

    def test_empty_and_full_rejected(self, fig1):
        message = "cut is undefined for the empty or full node set"
        with pytest.raises(GraphError, match=message):
            cut_edges(fig1, 0)
        with pytest.raises(GraphError, match=message):
            cut_edges(fig1, fig1.full_mask)


class TestIsMcv:
    def test_examples(self, fig1):
        assert is_mcv(fig1, fig1.node_set("s", "1", "2", "3"))
        assert not is_mcv(fig1, fig1.node_set("s", "1", "3"))
        assert not is_mcv(fig1, fig1.node_set("s", "3"))

    def test_sink_side_or_missing_source(self, fig1):
        assert not is_mcv(fig1, fig1.node_set("1", "2"))
        assert not is_mcv(fig1, fig1.node_set("s", "t"))
        assert not is_mcv(fig1, 0)


class TestBoundaryNodes:
    """A set's boundary, its members on a crossing edge, read off its cut."""

    @pytest.mark.parametrize(
        "members,expected",
        [
            (("s", "1", "2", "3", "4"), {"3", "4"}),
            (("s",), {"s"}),
            (("s", "1", "2"), {"1", "2"}),
        ],
    )
    def test_fig1_boundaries(self, fig1, members, expected):
        u = fig1.node_set(*members)
        got = {v for e in cut_edges(fig1, u) for v in e if u >> v & 1}
        assert {fig1.node_names[v] for v in got} == expected


class TestPrune:
    def test_fig1_unchanged(self, fig1):
        assert prune_irrelevant(fig1) is fig1

    def test_pendant_node_removed(self):
        g = build_graph([("s", "a"), ("a", "t"), ("s", "b")], "s", "t")
        assert prune_irrelevant(g).node_names == ("s", "a", "t")

    def test_single_edge_unchanged(self):
        g = build_graph([("s", "t")], "s", "t")
        assert prune_irrelevant(g) is g

    def test_appendage_collapses_to_single_edge(self, appendage):
        assert prune_irrelevant(appendage).node_names == ("s", "t")

    def test_pendant_blob_removed(self):
        # A triangle hanging off one articulation node: degree stripping
        # alone would never remove it.
        g = build_graph(
            [("s", "a"), ("a", "t"), ("a", "x"), ("x", "y"), ("y", "a")],
            "s",
            "t",
        )
        assert prune_irrelevant(g).node_names == ("s", "a", "t")

    def test_idempotent(self, appendage):
        once = prune_irrelevant(appendage)
        assert prune_irrelevant(once) is once

    def test_source_sink_always_survive(self):
        spec = CorpusSpec(graph_count=40, min_nodes=4, max_nodes=8, seed=5, prune=False)
        for entry in corpus_entries(spec):
            names = set(prune_irrelevant(entry.graph).node_names)
            assert {"s", "t"} <= names

    def test_minimal_cut_family_preserved(self):
        # The minimal-cut edge families before and after pruning must match,
        # compared as label pairs (indices are re-densified by pruning).
        spec = CorpusSpec(graph_count=60, min_nodes=4, max_nodes=8, seed=11, prune=False)
        for entry in corpus_entries(spec):
            g = entry.graph
            pruned = prune_irrelevant(g)

            def cut_families(h):
                return {
                    frozenset(
                        frozenset((h.node_names[u], h.node_names[v])) for u, v in cut
                    )
                    for cut in (cut_edges(h, u) for u in brute_force_mcvs(h))
                }

            assert cut_families(g) == cut_families(pruned)

    def test_long_path_prunes_both_tails(self):
        # Deep enough that a recursive depth-first search would overflow.
        names = [str(i) for i in range(5000)]
        g = build_graph(list(zip(names, names[1:])), "1000", "3999")
        pruned = prune_irrelevant(g)
        assert set(pruned.node_names) == set(names[1000:4000])
        assert pruned.edge_count == 2999

    def test_long_ladder_removes_nothing(self):
        a = [f"a{i}" for i in range(2000)]
        b = [f"b{i}" for i in range(2000)]
        edges = list(zip(a, b)) + list(zip(a, a[1:])) + list(zip(b, b[1:]))
        g = build_graph(edges, "a0", "b1999")
        assert prune_irrelevant(g) is g


def _on_simple_st_path(pairs, source: str, sink: str) -> set[str]:
    """Labels on some simple source-sink path, by enumerating every such
    path; independent of the library and only fit for small graphs."""
    adjacency: dict[str, set[str]] = {}
    for x, y in pairs:
        adjacency.setdefault(x, set()).add(y)
        adjacency.setdefault(y, set()).add(x)
    found = {source, sink}
    path = [source]

    def walk(v: str) -> None:
        if v == sink:
            found.update(path)
            return
        for y in adjacency[v]:
            if y not in path:
                path.append(y)
                walk(y)
                path.pop()

    walk(source)
    return found


def _tree_with_pendant_triangles(seed: int):
    """A random tree with triangles hung off random nodes, at most 9 nodes;
    source and sink may land anywhere, inside a triangle included."""
    import random

    rng = random.Random(seed)
    names = [str(i) for i in range(rng.randint(2, 9))]
    pairs = [(names[rng.randrange(i)], names[i]) for i in range(1, len(names))]
    while len(names) <= 7 and rng.random() < 0.6:
        hub = rng.choice(names)
        x, y = str(len(names)), str(len(names) + 1)
        names += [x, y]
        pairs += [(hub, x), (x, y), (y, hub)]
    source, sink = rng.sample(names, 2)
    return pairs, source, sink


@settings(max_examples=200)
@given(
    seed=st.integers(0, 10**9),
    family=st.sampled_from(["corpus", "tree-with-triangles"]),
)
def test_prune_keeps_exactly_the_nodes_on_simple_st_paths(seed, family):
    if family == "corpus":
        spec = CorpusSpec(
            graph_count=1, min_nodes=2, max_nodes=9, seed=seed, prune=False
        )
        g = corpus_entries(spec)[0].graph
        pairs = [(g.node_names[u], g.node_names[v]) for u, v in g.edges]
        source, sink = "s", "t"
    else:
        pairs, source, sink = _tree_with_pendant_triangles(seed)
        g = build_graph(pairs, source, sink)
    expected = _on_simple_st_path(pairs, source, sink)
    pruned = prune_irrelevant(g)
    assert set(pruned.node_names) == expected
    assert (pruned is g) == (expected == set(g.node_names))
    names = pruned.node_names
    kept_edges = {frozenset((names[a], names[b])) for a, b in pruned.edges}
    assert kept_edges == {frozenset(e) for e in pairs if expected.issuperset(e)}


# Seed-driven property tests: every value is derived from one integer, so
# failures replay exactly.

def _seeded_graph(seed: int):
    spec = CorpusSpec(graph_count=1, min_nodes=4, max_nodes=8, seed=seed, prune=False)
    return corpus_entries(spec)[0].graph


def _seeded_candidate_set(g, selector: int):
    """A subset mask containing the source but not the sink, from selector bits."""
    u = 1 << g.source
    free = [v for v in range(g.node_count) if v not in (g.source, g.sink)]
    for j, v in enumerate(free):
        if (selector >> j) & 1:
            u |= 1 << v
    return u


@settings(max_examples=150)
@given(seed=st.integers(0, 10**9), selector=st.integers(0, 2**10))
def test_cut_edges_disconnect_source_from_sink(seed, selector):
    g = _seeded_graph(seed)
    u = _seeded_candidate_set(g, selector)
    cut = cut_edges(g, u)
    surviving = [
        (g.node_names[a], g.node_names[b]) for a, b in g.edges - cut
    ]
    assert not st_connected(surviving, "s", "t")


@settings(max_examples=150)
@given(seed=st.integers(0, 10**9), selector=st.integers(0, 2**10))
def test_boundary_is_inside_endpoints_of_cut(seed, selector):
    g = _seeded_graph(seed)
    u = _seeded_candidate_set(g, selector)
    cut = cut_edges(g, u)
    endpoints_inside = {v for e in cut for v in e if u >> v & 1}
    outside = g.full_mask & ~u
    assert endpoints_inside == {v for v in _bits(u) if g.adjacency_masks[v] & outside}


@settings(max_examples=150)
@given(seed=st.integers(0, 10**9), selector=st.integers(0, 2**10))
def test_mcv_cut_is_minimal_by_single_edge_restoration(seed, selector):
    g = _seeded_graph(seed)
    u = _seeded_candidate_set(g, selector)
    if not is_mcv(g, u):
        return
    cut = cut_edges(g, u)
    keep = g.edges - cut
    for e in cut:
        pairs = [
            (g.node_names[a], g.node_names[b]) for a, b in (keep | {e})
        ]
        assert st_connected(pairs, "s", "t")


@settings(max_examples=60)
@given(seed=st.integers(0, 10**9), shuffle_seed=st.integers(0, 10**9))
def test_connectivity_invariant_under_edge_order(seed, shuffle_seed):
    import random

    g = _seeded_graph(seed)
    pairs = [(g.node_names[a], g.node_names[b]) for a, b in sorted(g.edges)]
    random.Random(shuffle_seed).shuffle(pairs)
    h = build_graph(pairs, "s", "t")
    for selector in range(min(1 << (g.node_count - 2), 64)):
        u_labels = g.label_set(_seeded_candidate_set(g, selector))
        assert is_mcv(g, g.node_set(*u_labels)) == is_mcv(h, h.node_set(*u_labels))


def test_unpruned_appendage_mcv_differs_from_pruned(appendage):
    # Pruning changes the node sets (not the cuts): the lone unpruned MCV
    # is {s,a,b}, the pruned one is {s}; both cut the same single edge.
    assert is_mcv(appendage, appendage.node_set("s", "a", "b"))
    assert not is_mcv(appendage, appendage.node_set("s"))
    pruned = prune_irrelevant(appendage)
    assert is_mcv(pruned, pruned.node_set("s"))
