"""Corpus generation, the differential runner, and counterexample shrinking."""

from __future__ import annotations

import pytest

from mincuts import build_graph, prune_irrelevant
from mincuts.graph import is_connected
from mincuts.cli import parse_edge_list
from mincuts.corpus import (
    CorpusSpec,
    corpus_entries,
    run_corpus,
    shrink_counterexample,
)
from mincuts.enumeration import EnumerationOptions, enumerate_mcvs
from mincuts.oracle import brute_force_mcvs

from .conftest import APPENDAGE_EDGES, FIG1_EDGES, K23_EDGES


class TestSpecValidation:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            CorpusSpec(graph_count=0)
        with pytest.raises(ValueError):
            CorpusSpec(graph_count=1, min_nodes=8, max_nodes=4)
        with pytest.raises(ValueError):
            CorpusSpec(graph_count=1, max_nodes=13)
        with pytest.raises(ValueError):
            CorpusSpec(graph_count=1, edge_probability=0.0)
        with pytest.raises(ValueError):
            CorpusSpec(graph_count=1, edge_probability=1.5)


class TestGeneration:
    def test_deterministic_for_fixed_seed(self):
        spec = CorpusSpec(graph_count=10, min_nodes=4, max_nodes=6, seed=7)
        first = [e.graph for e in corpus_entries(spec)]
        second = [e.graph for e in corpus_entries(spec)]
        assert [g.edges for g in first] == [g.edges for g in second]
        assert [g.node_names for g in first] == [g.node_names for g in second]

    def test_edge_probability_one_yields_complete_graphs(self):
        spec = CorpusSpec(
            graph_count=5, min_nodes=5, max_nodes=5, edge_probability=1.0, seed=3
        )
        for g in [e.graph for e in corpus_entries(spec)]:
            assert g.edge_count == 5 * 4 // 2

    def test_all_graphs_connected_and_labeled(self):
        spec = CorpusSpec(graph_count=50, min_nodes=4, max_nodes=10, seed=42)
        for g in [e.graph for e in corpus_entries(spec)]:
            assert is_connected(g, g.all_nodes)
            assert g.node_names[g.source] == "s"
            assert g.node_names[g.sink] == "t"

    def test_pruned_corpus_has_no_irrelevant_nodes(self):
        spec = CorpusSpec(graph_count=50, min_nodes=4, max_nodes=10, seed=9)
        for g in [e.graph for e in corpus_entries(spec)]:
            assert prune_irrelevant(g).removed_nodes == frozenset()

    def test_hopeless_edge_probability_gives_up(self):
        # Before: the rejection loop retried forever at this density.
        spec = CorpusSpec(
            graph_count=1, min_nodes=12, max_nodes=12, edge_probability=0.01
        )
        with pytest.raises(ValueError, match="raise edge_probability"):
            corpus_entries(spec)

    def test_per_graph_seeds_regenerate(self):
        spec = CorpusSpec(graph_count=5, min_nodes=4, max_nodes=8, seed=1234)
        entries = corpus_entries(spec)
        assert len({e.seed for e in entries}) == len(entries)


class TestShrinker:
    def _mismatch_check(self, opts=None):
        opts = opts or EnumerationOptions()

        def check(g):
            return frozenset(enumerate_mcvs(g, opts).mcvs) != brute_force_mcvs(g).mcvs

        return check

    def test_appendage_family_shrinks_small(self):
        # A padded version of the appendage graph must come back at most as
        # large as the plain one (4 nodes), still disagreeing unpruned.
        padded = APPENDAGE_EDGES + [("a", "c"), ("b", "d"), ("s", "e")]
        g = build_graph(padded, "s", "t")
        check = self._mismatch_check()
        shrunk = shrink_counterexample(g, check)
        assert shrunk.node_count <= 4
        assert check(shrunk)

    def test_persistent_policy_counterexample_shrinks(self, k23):
        check = self._mismatch_check(EnumerationOptions(b_policy="persistent"))
        shrunk = shrink_counterexample(k23, check)
        assert check(shrunk)
        assert shrunk.node_count <= k23.node_count

    def test_requires_a_failing_input(self, fig1):
        with pytest.raises(ValueError):
            shrink_counterexample(fig1, self._mismatch_check())

    def test_deterministic(self):
        padded = APPENDAGE_EDGES + [("a", "c"), ("b", "d")]
        g = build_graph(padded, "s", "t")
        check = self._mismatch_check()
        first = shrink_counterexample(g, check)
        second = shrink_counterexample(g, check)
        assert first.edges == second.edges
        assert first.node_names == second.node_names


class TestRunner:
    def test_agreeing_corpus_reports_clean_lines(self):
        spec = CorpusSpec(graph_count=20, min_nodes=4, max_nodes=7, seed=6)
        result = run_corpus(spec, b_policies=("scoped",), random_orders=2)
        assert result.all_agree
        assert result.graphs == 20
        assert len(result.lines) == 20
        for i, line in enumerate(result.lines):
            assert line.startswith(f"graph={i} seed=")
            assert "status=agree" in line

    def test_persistent_mismatch_writes_artifact(self, tmp_path):
        # Seed 42 graph 6 is a known persistent-policy divergence under the
        # ascending order; the runner must flag it and write a replayable,
        # still-failing artifact.
        spec = CorpusSpec(graph_count=7, min_nodes=4, max_nodes=10, seed=42)
        result = run_corpus(
            spec, b_policies=("persistent",), random_orders=3, out_dir=tmp_path
        )
        assert not result.all_agree
        mismatch_lines = [l for l in result.lines if "status=mismatch" in l]
        assert mismatch_lines
        artifacts = sorted(tmp_path.glob("counterexample-*.edges"))
        assert len(artifacts) == len(mismatch_lines)

        pairs = parse_edge_list(artifacts[0].read_text())
        shrunk = build_graph(pairs, "s", "t")
        opts = EnumerationOptions(b_policy="persistent")
        assert frozenset(enumerate_mcvs(shrunk, opts).mcvs) != brute_force_mcvs(shrunk).mcvs

    def test_scoped_policy_clean_on_known_persistent_trap(self):
        spec = CorpusSpec(graph_count=7, min_nodes=4, max_nodes=10, seed=42)
        result = run_corpus(spec, b_policies=("scoped",), random_orders=3)
        assert result.all_agree

    def test_unpruned_corpus_surfaces_relevance_gap(self, tmp_path):
        # Without pruning, graphs with off-path nodes make the enumeration
        # disagree with the oracle; the runner must catch some and shrink
        # them down to a handful of nodes.
        spec = CorpusSpec(
            graph_count=30, min_nodes=4, max_nodes=7, seed=4242, prune=False
        )
        result = run_corpus(
            spec, b_policies=("scoped",), random_orders=1, out_dir=tmp_path
        )
        assert not result.all_agree
        artifacts = sorted(tmp_path.glob("counterexample-*.edges"))
        assert artifacts
        smallest = min(
            build_graph(parse_edge_list(p.read_text()), "s", "t").node_count
            for p in artifacts
        )
        assert smallest <= 4

    def test_lines_go_to_stream(self, capsys):
        import sys

        spec = CorpusSpec(graph_count=3, min_nodes=4, max_nodes=5, seed=6)
        run_corpus(spec, b_policies=("scoped",), random_orders=1, out=sys.stdout)
        printed = capsys.readouterr().out.strip().splitlines()
        assert len(printed) == 3


def test_fig1_and_k23_are_reference_constants(fig1, k23):
    # Guard the frozen fixtures themselves: the reference networks must stay
    # what the goldens were computed from.
    assert len(FIG1_EDGES) == 9 and fig1.edge_count == 9
    assert len(K23_EDGES) == 6 and k23.edge_count == 6
    assert prune_irrelevant(k23).removed_nodes == frozenset()
