"""Brute-force oracle and set-level diffing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mincuts import EnumerationOptions, build_graph, enumerate_mcvs
from mincuts.enumeration import ScriptedOrder, YehPolicy, run_yeh_original
from mincuts.graph import cut_edges, is_mcv
from mincuts.oracle import MAX_ORACLE_NODES, TooLarge, brute_force_mcvs, diff

from .conftest import (
    FIG1_GOLDEN,
    as_frozen,
    complete_graph_edges,
    grid_graph_edges,
    label_sets,
    path_graph_edges,
    st_connected,
)


@st.composite
def graphs_with_terminals_in(draw, source_high: bool, sink_high: bool, odd: bool):
    """Connected graphs of 2 to 14 nodes, ``n`` odd or even, with the source
    and the sink in the chosen halves of the oracle's tables: node indices
    below ``n // 2`` form the low half, the rest the high half."""
    # Both terminals in one half need two nodes there; the low half has n // 2.
    smallest = {(False, False): 4, (True, True): 3}.get((source_high, sink_high), 2)
    n = draw(st.sampled_from([k for k in range(smallest, 15) if k % 2 == odd]))
    h = n // 2
    # Each node first appears on its tree edge, so labels keep their indices.
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges += draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
    half = {False: range(h), True: range(h, n)}
    source = draw(st.sampled_from(half[source_high]))
    sink = draw(st.sampled_from([v for v in half[sink_high] if v != source]))
    g = build_graph([(str(a), str(b)) for a, b in edges], str(source), str(sink))
    assert (g.source, g.sink) == (source, sink)
    return g


class TestBruteForce:
    @pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
    @pytest.mark.parametrize("sink_high", [False, True], ids=["sink-low", "sink-high"])
    @pytest.mark.parametrize(
        "source_high", [False, True], ids=["source-low", "source-high"]
    )
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_half_tables_match_definition(self, source_high, sink_high, odd, data):
        # The scan splits each mask into a low and a high half; every
        # candidate, in every placement of the terminals, must still be
        # judged exactly as ``is_mcv`` judges it.
        g = data.draw(graphs_with_terminals_in(source_high, sink_high, odd))
        expected = {u for u in range(1 << g.node_count) if is_mcv(g, u)}
        assert brute_force_mcvs(g).mcvs == expected

    def test_agrees_with_search_on_3x7_grid(self):
        # 21 nodes, 2**19 subsets: the largest oracle check in the suite.
        g = build_graph(grid_graph_edges(3, 7), "s", "t")
        oracle = brute_force_mcvs(g)
        assert len(oracle.mcvs) == 938
        assert oracle.mcvs == frozenset(enumerate_mcvs(g).mcvs)

    def test_fig1_nine_results(self, fig1):
        result = brute_force_mcvs(fig1)
        assert label_sets(fig1, result.mcvs) == as_frozen(FIG1_GOLDEN)

    def test_single_edge(self):
        g = build_graph([("s", "t")], "s", "t")
        result = brute_force_mcvs(g)
        assert label_sets(g, result.mcvs) == as_frozen([{"s"}])

    @pytest.mark.parametrize("n", range(4, 9))
    def test_complete_graph_counts(self, n):
        g = build_graph(complete_graph_edges(n), "s", "t")
        assert len(brute_force_mcvs(g).mcvs) == 2 ** (n - 2)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_path_graph_counts(self, n):
        g = build_graph(path_graph_edges(n), "s", "t")
        assert len(brute_force_mcvs(g).mcvs) == n - 1

    def test_deterministic_and_idempotent(self, fig1):
        first = brute_force_mcvs(fig1)
        second = brute_force_mcvs(fig1)
        assert first.mcvs == second.mcvs
        assert first.cuts == second.cuts

    def test_cut_bijection(self, fig1):
        result = brute_force_mcvs(fig1)
        assert "cuts" not in vars(result)  # built on first read only
        assert result.cuts == frozenset(cut_edges(fig1, u) for u in result.mcvs)
        assert len(result.cuts) == len(result.mcvs)

    def test_cuts_are_minimal(self, fig1):
        for cut in brute_force_mcvs(fig1).cuts:
            keep = fig1.edges - cut
            pairs = [(fig1.node_names[a], fig1.node_names[b]) for a, b in keep]
            assert not st_connected(pairs, "s", "t")
            for e in cut:
                restored = pairs + [(fig1.node_names[e[0]], fig1.node_names[e[1]])]
                assert st_connected(restored, "s", "t")

    def test_size_guard(self):
        n = MAX_ORACLE_NODES + 1
        g = build_graph(path_graph_edges(n), "s", "t")
        with pytest.raises(TooLarge):
            brute_force_mcvs(g)

    def test_every_cut_edge_survives_pruning(self):
        # Minimal cuts live entirely on source-sink paths, so pruning an
        # unpruned graph must keep every oracle cut edge.
        from mincuts import prune_irrelevant
        from mincuts.corpus import CorpusSpec, corpus_entries

        spec = CorpusSpec(
            graph_count=60, min_nodes=4, max_nodes=8, seed=17, prune=False
        )
        for entry in corpus_entries(spec):
            g = entry.graph
            pruned = prune_irrelevant(g)
            surviving = {
                frozenset((pruned.node_names[u], pruned.node_names[v]))
                for u, v in pruned.edges
            }
            for cut in brute_force_mcvs(g).cuts:
                for u, v in cut:
                    assert frozenset((g.node_names[u], g.node_names[v])) in surviving


class TestDiff:
    def test_corrected_agrees_on_fig1(self, fig1):
        oracle = brute_force_mcvs(fig1)
        report = enumerate_mcvs(fig1)
        result = diff(report, oracle)
        assert result.agree
        assert result.missing == frozenset()
        assert result.spurious == frozenset()

    def test_flawed_replica_is_flagged(self, fig1):
        oracle = brute_force_mcvs(fig1)
        script = ScriptedOrder(tuple(fig1.index_of(x) for x in ["1", "3"]))
        report = run_yeh_original(
            fig1, YehPolicy("goto-step3"), EnumerationOptions(selection_order=script)
        )
        result = diff(report, oracle)
        assert not result.agree
        assert fig1.node_set("s", "1", "3") in result.spurious
        assert fig1.node_set("s", "1", "3") in result.invalid

    def test_unpruned_appendage_disagrees_exactly(self, appendage):
        oracle = brute_force_mcvs(appendage)
        report = enumerate_mcvs(appendage)
        result = diff(report, oracle)
        assert label_sets(appendage, result.spurious) == as_frozen([{"s"}])
        assert label_sets(appendage, result.missing) == as_frozen([{"s", "a", "b"}])
        assert result.invalid == result.spurious
