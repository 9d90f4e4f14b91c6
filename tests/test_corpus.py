"""Corpus generation, the differential runner, and counterexample shrinking."""

from __future__ import annotations

import contextlib
import errno
import gc
import io
import os
import re
import shutil
import threading
import warnings
from dataclasses import replace

import pytest

import mincuts.corpus
from mincuts import build_graph, prune_irrelevant
from mincuts.cli import parse_edge_list
from mincuts.corpus import (
    CorpusSpec,
    corpus_entries,
    run_corpus,
    shrink_counterexample,
)
from mincuts.enumeration import EnumerationOptions, RandomOrder, enumerate_mcvs
from mincuts.oracle import brute_force_mcvs

from .conftest import (
    APPENDAGE_EDGES,
    FIG1_EDGES,
    K23_EDGES,
    _assert_no_child_left,
    _leaves_nothing,
    reachable_labels,
)


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

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"b_policies": ()}, "no b-policy given"),
            ({"b_policies": ("scoped", "scoped")}, "b-policy 'scoped' given twice"),
            ({"b_policies": ("bogus",)}, "unknown b-policy 'bogus'"),
            ({"random_orders": -1}, "random_orders must be non-negative, got -1"),
        ],
        ids=["no-policy", "repeated-policy", "unknown-policy", "random-orders"],
    )
    def test_checks_every_setting(self, setting, message):
        # Only a message free of the caller's words is a setting error,
        # whose field names the CLI renames to flags.
        with pytest.raises(ValueError) as info:
            CorpusSpec(**setting)
        assert str(info.value) == message
        assert isinstance(info.value, mincuts.corpus._SettingError) == (
            "random_orders" in setting
        )


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
            pairs = [(g.node_names[a], g.node_names[b]) for a, b in g.edges]
            assert reachable_labels(pairs, "s") == set(g.node_names)
            assert g.node_names[g.source] == "s"
            assert g.node_names[g.sink] == "t"

    def test_pruned_corpus_has_no_irrelevant_nodes(self):
        spec = CorpusSpec(graph_count=50, min_nodes=4, max_nodes=10, seed=9)
        for g in [e.graph for e in corpus_entries(spec)]:
            assert prune_irrelevant(g) is g

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
        result = run_corpus(replace(spec, b_policies=("scoped",), random_orders=2))
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
            replace(spec, b_policies=("persistent",), random_orders=3), out_dir=tmp_path
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
        result = run_corpus(replace(spec, b_policies=("scoped",), random_orders=3))
        assert result.all_agree

    def test_unpruned_corpus_surfaces_relevance_gap(self, tmp_path):
        # Without pruning, graphs with off-path nodes make the enumeration
        # disagree with the oracle; the runner must catch some and shrink
        # them down to a handful of nodes.
        spec = CorpusSpec(
            graph_count=30, min_nodes=4, max_nodes=7, seed=4242, prune=False
        )
        result = run_corpus(
            replace(spec, b_policies=("scoped",), random_orders=1), out_dir=tmp_path
        )
        assert not result.all_agree
        artifacts = sorted(tmp_path.glob("counterexample-*.edges"))
        assert artifacts
        smallest = min(
            build_graph(parse_edge_list(p.read_text()), "s", "t").node_count
            for p in artifacts
        )
        assert smallest <= 4

    def test_orders_are_built_as_they_run(self, monkeypatch):
        # Before: a graph built all of its 1 + random_orders orders before
        # its first run, so a huge --random-orders grew memory until killed.
        monkeypatch.setattr(mincuts.corpus, "_usable_cpus", lambda: 1)
        built: list[int] = []
        built_at_run: list[int] = []

        def counting_order(seed):
            built.append(seed)
            return RandomOrder(seed)

        def counting_search(g, opts):
            built_at_run.append(len(built))
            return enumerate_mcvs(g, opts)

        monkeypatch.setattr(mincuts.corpus, "RandomOrder", counting_order)
        monkeypatch.setattr(mincuts.corpus, "enumerate_mcvs", counting_search)
        spec = CorpusSpec(graph_count=1, b_policies=("scoped",), random_orders=50)
        assert run_corpus(spec).all_agree
        assert built_at_run[0] <= 1
        assert len(built_at_run) == 51 and len(built) == 50

    def test_lines_go_to_stream(self, capsys):
        import sys

        spec = CorpusSpec(graph_count=3, min_nodes=4, max_nodes=5, seed=6)
        run_corpus(replace(spec, b_policies=("scoped",), random_orders=1), out=sys.stdout)
        printed = capsys.readouterr().out.strip().splitlines()
        assert len(printed) == 3


@pytest.fixture(params=[1, 3], ids=["1-cpu", "3-cpus"])
def cpus(request, monkeypatch):
    """The CPU count the runner sees: 1 runs in this process, 3 forks."""
    monkeypatch.setattr(mincuts.corpus, "_usable_cpus", lambda: request.param)
    return request.param


class TestWorkers:
    """Forked workers against the in-process run, and their cleanup."""

    def _run(self, out_dir, **kwargs):
        spec = CorpusSpec(graph_count=40, seed=42)
        return run_corpus(replace(spec, random_orders=2), out_dir=out_dir, **kwargs)

    def test_lines_and_artifacts_match_across_cpu_counts(self, tmp_path, monkeypatch):
        runs = []
        for count in (1, 3):
            monkeypatch.setattr(mincuts.corpus, "_usable_cpus", lambda: count)
            out_dir = tmp_path / "cex"
            stream = io.StringIO()
            result = self._run(out_dir, out=stream)
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            runs.append((result, stream.getvalue(), files))
            shutil.rmtree(out_dir)
        (one, one_out, one_files), (three, three_out, three_files) = runs
        assert one == three
        assert one_out == three_out == "".join(f"{line}\n" for line in one.lines)
        assert one_files == three_files
        assert len(one_files) == one.mismatches > 0
        _assert_no_child_left()

    @pytest.mark.parametrize("raised", [ValueError, KeyError])
    def test_failure_in_a_graph_raises_here(self, cpus, monkeypatch, raised):
        # A worker's ValueError stays one, so the CLI exits 1 with its
        # message; any other exception comes back with its traceback.
        check = mincuts.corpus._check_graph

        def failing(entry, *args):
            if entry.index == 4:
                raise raised(f"graph 4 failed in process {os.getpid()}")
            return check(entry, *args)

        monkeypatch.setattr(mincuts.corpus, "_check_graph", failing)
        stream = io.StringIO()
        caught = raised if raised is ValueError or cpus == 1 else RuntimeError
        with pytest.raises(caught) as info:
            self._run(None, out=stream)
        assert stream.getvalue().count("\n") == 4
        pid = re.search(r"graph 4 failed in process (\d+)", str(info.value))[1]
        assert (pid != str(os.getpid())) == (cpus > 1)
        if caught is RuntimeError:
            assert "Traceback" in str(info.value)
        _assert_no_child_left()

    def test_os_error_in_a_graph_raises_as_in_process(self, cpus, monkeypatch):
        # A worker's OSError comes back as the same type with the same
        # args, as the CLI's handler for a failed write expects.
        check = mincuts.corpus._check_graph

        def refused(entry, *args):
            if entry.index == 4:
                raise PermissionError(errno.EACCES, "graph 4 refused")
            return check(entry, *args)

        monkeypatch.setattr(mincuts.corpus, "_check_graph", refused)
        with _leaves_nothing():
            with pytest.raises(OSError) as info:
                self._run(None)
        assert type(info.value) is PermissionError
        assert info.value.args == (errno.EACCES, "graph 4 refused")

    def test_second_thread_keeps_the_run_in_process(self, monkeypatch):
        # A forked child would hold only the forking thread.
        monkeypatch.setattr(mincuts.corpus, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(
            mincuts.corpus, "_check_graph", lambda entry, *args: (str(os.getpid()), False)
        )
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            result = self._run(None)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert set(result.lines) == {str(os.getpid())}

    def test_worker_that_dies_is_reported(self, monkeypatch):
        monkeypatch.setattr(mincuts.corpus, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(mincuts.corpus, "_check_graph", lambda *args: os._exit(3))
        with pytest.raises(RuntimeError, match="corpus worker 0 exited early"):
            self._run(None)
        _assert_no_child_left()

    def test_broken_stream_leaves_no_worker(self, cpus):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

        with pytest.raises(BrokenPipeError):
            self._run(None, out=Closed())
        _assert_no_child_left()

    def test_unwritable_artifact_raises_value_error(self, cpus, tmp_path):
        # Before: an IsADirectoryError traceback from the artifact write.
        (tmp_path / "counterexample-0003.edges").mkdir()
        with pytest.raises(ValueError) as info:
            self._run(tmp_path)
        assert str(info.value) == (
            f"cannot write {tmp_path / 'counterexample-0003.edges'}: Is a directory"
        )
        _assert_no_child_left()

    def test_artifact_path_with_a_newline_survives(self, cpus, tmp_path):
        out_dir = tmp_path / "two\nlines"
        result = run_corpus(
            replace(CorpusSpec(graph_count=7, seed=42), random_orders=1), out_dir=out_dir
        )
        shrunk = [l for l in result.lines if "counterexample=" in l]
        assert shrunk and all(f"counterexample={out_dir}/" in l for l in shrunk)

    def test_artifact_path_with_a_lone_surrogate_survives(self, tmp_path, monkeypatch):
        # A file name that is not UTF-8 decodes to a lone surrogate, which
        # the workers' frames must carry unchanged.
        out_dir = tmp_path / os.fsdecode(b"cex\xff")
        runs = []
        for count in (1, 3):
            monkeypatch.setattr(mincuts.corpus, "_usable_cpus", lambda: count)
            result = self._run(out_dir)
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            runs.append((result.lines, files))
            shutil.rmtree(out_dir)
        (one_lines, one_files), (three_lines, three_files) = runs
        assert one_lines == three_lines
        assert one_files == three_files
        assert any(f"counterexample={out_dir}/" in line for line in one_lines)
        _assert_no_child_left()

    @pytest.mark.parametrize(
        "ending, raised",
        [("normal", None), ("value-error", ValueError), ("worker-dies", RuntimeError)],
        ids=["normal", "value-error", "worker-dies"],
    )
    def test_pipes_leak_nothing(self, monkeypatch, ending, raised):
        monkeypatch.setattr(mincuts.corpus, "_usable_cpus", lambda: 3)
        check = mincuts.corpus._check_graph

        def ends(entry, *args):
            if entry.index == 4 and ending == "value-error":
                raise ValueError("graph 4 failed")
            if entry.index == 4 and ending == "worker-dies":
                os._exit(3)
            return check(entry, *args)

        monkeypatch.setattr(mincuts.corpus, "_check_graph", ends)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(raised) if raised else contextlib.nullcontext():
                self._run(None)
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        _assert_no_child_left()


def test_fig1_and_k23_are_reference_constants(fig1, k23):
    # Guard the frozen fixtures themselves: the reference networks must stay
    # what the goldens were computed from.
    assert len(FIG1_EDGES) == 9 and fig1.edge_count == 9
    assert len(K23_EDGES) == 6 and k23.edge_count == 6
    assert prune_irrelevant(k23) is k23
