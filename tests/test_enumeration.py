"""Backtracking engines: corrected search and the flawed-original replica."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mincuts.enumeration
from mincuts import EnumerationOptions, build_graph, enumerate_mcvs, prune_irrelevant
from mincuts.enumeration import (
    B_POLICIES,
    YEH_POLICIES,
    AscendingOrder,
    PriorityOrder,
    RandomOrder,
    RunStatus,
    ScriptedOrder,
    TraceStep,
    YehPolicy,
    run_yeh_original,
)
from mincuts.graph import _bits, cut_edges, is_mcv
from mincuts.corpus import CorpusSpec, corpus_entries
from mincuts.oracle import brute_force_mcvs

from .conftest import (
    FIG1_EDGES,
    FIG1_GOLDEN,
    FIG1_PAPER_DISCONNECTED,
    FIG1_PAPER_DISCOVERY,
    FIG1_PAPER_SCRIPT,
    K23_ALL_MCVS,
    as_frozen,
    complete_graph_edges,
    grid_graph_edges,
    label_sets,
    sparse_graphs,
)
from .step_loop_reference import reference_enumerate_mcvs


def _scripted(g, labels):
    return ScriptedOrder(tuple(g.index_of(x) for x in labels))


class TestCorrectedOnFig1:
    def test_golden_set_ascending(self, fig1):
        report = enumerate_mcvs(fig1)
        assert report.status is RunStatus.COMPLETED
        assert label_sets(fig1, report.mcvs) == as_frozen(FIG1_GOLDEN)

    @pytest.mark.parametrize("b_policy", ["scoped", "persistent"])
    def test_golden_set_both_policies(self, fig1, b_policy):
        opts = EnumerationOptions(b_policy=b_policy)
        report = enumerate_mcvs(fig1, opts)
        assert label_sets(fig1, report.mcvs) == as_frozen(FIG1_GOLDEN)

    def test_paper_scripted_run_discovery_order(self, fig1):
        opts = EnumerationOptions(
            selection_order=_scripted(fig1, FIG1_PAPER_SCRIPT),
            b_policy="persistent",
            record_trace=True,
        )
        report = enumerate_mcvs(fig1, opts)
        assert report.status is RunStatus.COMPLETED
        discovered = [frozenset(fig1.label_set(u)) for u in report.mcvs]
        assert discovered == [frozenset(u) for u in FIG1_PAPER_DISCOVERY]

    def test_paper_scripted_run_disconnected_events(self, fig1):
        opts = EnumerationOptions(
            selection_order=_scripted(fig1, FIG1_PAPER_SCRIPT),
            b_policy="persistent",
            record_trace=True,
        )
        report = enumerate_mcvs(fig1, opts)
        events = [
            (fig1.node_names[ev.node], tuple(fig1.node_names[v] for v in ev.prefix))
            for ev in report.trace
            if ev.step is TraceStep.STEP2_DISCONNECTED
        ]
        assert events == list(FIG1_PAPER_DISCONNECTED)

    def test_final_position_sees_stale_block(self, fig1):
        # Under the persistent policy the last root visit still excludes
        # node 4 (blocked two levels deeper), leaving only the non-adjacent
        # node 3 in the remainder.
        opts = EnumerationOptions(
            selection_order=_scripted(fig1, FIG1_PAPER_SCRIPT),
            b_policy="persistent",
            record_trace=True,
        )
        report = enumerate_mcvs(fig1, opts)
        exhausted_at_root = [
            ev
            for ev in report.trace
            if ev.step is TraceStep.STEP1_EXHAUSTED and len(ev.prefix) == 1
        ]
        last = exhausted_at_root[-1]
        assert fig1.label_set(last.candidates) == ("3",)

    def test_script_too_short_aborts(self, fig1):
        opts = EnumerationOptions(selection_order=_scripted(fig1, ["1"]))
        report = enumerate_mcvs(fig1, opts)
        assert report.status is RunStatus.SCRIPT_EXHAUSTED
        assert label_sets(fig1, report.mcvs) <= as_frozen(FIG1_GOLDEN)

    def test_script_illegal_entry_aborts(self, fig1):
        # Node 3 is not adjacent to {s}, so it is illegal at the first pick.
        opts = EnumerationOptions(selection_order=_scripted(fig1, ["3"]))
        report = enumerate_mcvs(fig1, opts)
        assert report.status is RunStatus.SCRIPT_EXHAUSTED

    @pytest.mark.parametrize("past_end", [False, True], ids=["negative", "past-end"])
    @pytest.mark.parametrize("engine", ["corrected", "yeh-original"])
    def test_script_out_of_range_entry_aborts(self, fig1, engine, past_end):
        # An index that names no node is never legal: the run aborts at its
        # first pick, and neither a negative nor a too-large index raises.
        order = ScriptedOrder((fig1.node_count if past_end else -1,))
        opts = EnumerationOptions(selection_order=order)
        if engine == "corrected":
            report, root = enumerate_mcvs(fig1, opts), (1 << fig1.source,)
        else:
            report, root = run_yeh_original(fig1, YehPolicy("goto-step3"), opts), ()
        assert report.status is RunStatus.SCRIPT_EXHAUSTED
        assert report.mcvs == root


class TestCorrectedSmallGraphs:
    def test_path_graph(self):
        g = build_graph([("s", "1"), ("1", "t")], "s", "t")
        report = enumerate_mcvs(g)
        assert label_sets(g, report.mcvs) == as_frozen([{"s"}, {"s", "1"}])

    def test_single_edge(self):
        g = build_graph([("s", "t")], "s", "t")
        report = enumerate_mcvs(g)
        assert label_sets(g, report.mcvs) == as_frozen([{"s"}])

    def test_complete_graph_on_four(self):
        pairs = [("s", "a"), ("s", "b"), ("s", "t"), ("a", "b"), ("a", "t"), ("b", "t")]
        g = build_graph(pairs, "s", "t")
        report = enumerate_mcvs(g)
        assert label_sets(g, report.mcvs) == as_frozen(
            [{"s"}, {"s", "a"}, {"s", "b"}, {"s", "a", "b"}]
        )


class TestInvariants:
    def test_no_duplicates_and_soundness(self, fig1):
        for seed in range(10):
            opts = EnumerationOptions(selection_order=RandomOrder(seed))
            report = enumerate_mcvs(fig1, opts)
            assert len(set(report.mcvs)) == len(report.mcvs)
            assert all(is_mcv(fig1, u) for u in report.mcvs)

    def test_cuts_parallel_to_mcvs(self, fig1):
        report = enumerate_mcvs(fig1)
        assert report.graph is fig1
        for u in report.mcvs:
            cut = cut_edges(report.graph, u)
            # The members with a neighbour outside are the cut's inner ends.
            outside = fig1.full_mask & ~u
            boundary = {v for v in _bits(u) if fig1.adjacency_masks[v] & outside}
            assert boundary == {v for e in cut for v in e if u >> v & 1}

    def test_work_accounting(self, fig1):
        opts = EnumerationOptions(record_trace=True)
        report = enumerate_mcvs(fig1, opts)
        records = [ev for ev in report.trace if ev.step is TraceStep.STEP3_RECORD]
        assert len(records) == len(report.mcvs) - 1
        assert report.stats.records == len(records)
        backtracks = [
            ev for ev in report.trace if ev.step is TraceStep.STEP4_BACKTRACK
        ]
        assert report.stats.backtracks == len(backtracks)
        # Every backtrack pops a node some record pushed at the same depth.
        record_depths = [len(ev.prefix) for ev in records]
        for ev in backtracks:
            assert record_depths.count(len(ev.prefix) + 1) >= 1

    def test_trace_replays_consistently(self, fig1):
        opts = EnumerationOptions(record_trace=True, b_policy="persistent")
        report = enumerate_mcvs(fig1, opts)
        stack: list[int] = []
        for ev in report.trace:
            if ev.step is TraceStep.STEP0:
                stack = list(ev.prefix)
            elif ev.step is TraceStep.STEP3_RECORD:
                stack.append(ev.node)
            elif ev.step is TraceStep.STEP4_BACKTRACK:
                popped = stack.pop()
                assert popped == ev.node
            assert tuple(stack) == ev.prefix

    def test_order_invariance_of_result_set(self, fig1):
        golden = label_sets(fig1, enumerate_mcvs(fig1).mcvs)
        for seed in range(30):
            got = enumerate_mcvs(
                fig1, EnumerationOptions(selection_order=RandomOrder(seed))
            )
            assert label_sets(fig1, got.mcvs) == golden

    def test_priority_order_prefers_listed_nodes(self, fig1):
        opts = EnumerationOptions(
            selection_order=PriorityOrder((fig1.index_of("2"),)), record_trace=True
        )
        report = enumerate_mcvs(fig1, opts)
        first_select = next(
            ev for ev in report.trace if ev.step is TraceStep.STEP1_SELECT
        )
        assert fig1.node_names[first_select.node] == "2"
        assert label_sets(fig1, report.mcvs) == as_frozen(FIG1_GOLDEN)

    @pytest.mark.parametrize("engine", ["corrected", "yeh-goto-step1"])
    @pytest.mark.parametrize(
        "ranking, repeated",
        [("21", "212"), ("34", "343"), ("214", "2124")],
        ids=["2,1", "3,4", "2,1,4"],
    )
    def test_priority_repeat_keeps_first_position(self, fig1, engine, ranking, repeated):
        # A repeated label must not demote the node to its later position,
        # and the unranked nodes still come after every ranked one.
        def run(labels):
            opts = EnumerationOptions(
                selection_order=PriorityOrder(tuple(fig1.index_of(x) for x in labels)),
                record_trace=True,
            )
            if engine == "corrected":
                return enumerate_mcvs(fig1, opts)
            return run_yeh_original(fig1, YehPolicy("goto-step1", step_limit=40), opts)

        assert run(repeated) == run(ranking)

    def test_random_pick_is_rng_choice_over_ascending_bits(self):
        # The chooser draws without building a tuple of candidates. Each
        # pick must be the one ``rng.choice`` makes on a twin generator,
        # and later picks show that both streams stay in step.
        masks = random.Random(0)
        for seed in range(300):
            choose = mincuts.enumeration._make_chooser(RandomOrder(seed))
            twin = random.Random(seed)
            for _ in range(40):
                legal = masks.getrandbits(masks.randint(1, 70)) or 1 << masks.randrange(70)
                assert choose(legal) == 1 << twin.choice(tuple(_bits(legal)))


class TestBlockedSetPolicies:
    def test_persistent_misses_results_on_k23(self, k23):
        # Minimal node count for the effect: a candidate blocked at a child
        # position stays blocked at the parent, hiding a viable subtree.
        scoped = enumerate_mcvs(k23, EnumerationOptions(b_policy="scoped"))
        persistent = enumerate_mcvs(k23, EnumerationOptions(b_policy="persistent"))
        oracle = brute_force_mcvs(k23)
        assert frozenset(scoped.mcvs) == oracle
        assert label_sets(k23, oracle) == as_frozen(K23_ALL_MCVS)
        assert frozenset(persistent.mcvs) < oracle
        missing = label_sets(k23, oracle - frozenset(persistent.mcvs))
        assert missing == as_frozen([{"s", "b"}, {"s", "b", "c"}])

    def test_scoped_restores_parent_blocks(self, fig1):
        # With the scoped policy, the failure of node 3 at {s,1} is restored
        # on re-ascent, so the second visit never re-tests it: exactly one
        # disconnected event at prefix (s, 1).
        opts = EnumerationOptions(record_trace=True, b_policy="scoped")
        report = enumerate_mcvs(fig1, opts)
        at_s1 = [
            ev
            for ev in report.trace
            if ev.step is TraceStep.STEP2_DISCONNECTED
            and tuple(fig1.node_names[v] for v in ev.prefix) == ("s", "1")
        ]
        assert len(at_s1) == 1

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 10**9), order_seed=st.integers(0, 10**6))
    def test_scoped_matches_oracle_on_pruned_random_graphs(self, seed, order_seed):
        spec = CorpusSpec(graph_count=1, min_nodes=4, max_nodes=8, seed=seed)
        g = corpus_entries(spec)[0].graph
        opts = EnumerationOptions(selection_order=RandomOrder(order_seed))
        report = enumerate_mcvs(g, opts)
        assert report.status is RunStatus.COMPLETED
        assert frozenset(report.mcvs) == brute_force_mcvs(g)


    def test_unknown_policy_rejected(self):
        # An unknown name used to run silently as ``persistent``.
        with pytest.raises(ValueError, match="unknown b-policy 'bogus'"):
            EnumerationOptions(b_policy="bogus")


def _assert_matches_reference(g, opts):
    got = enumerate_mcvs(g, opts)
    want = reference_enumerate_mcvs(g, opts)
    assert got.mcvs == want.mcvs
    assert got.trace == want.trace
    assert got.stats == want.stats
    assert got.status is want.status


def _selects(g, seed):
    """The picks of a traced reference run in a seeded random order."""
    opts = EnumerationOptions(RandomOrder(seed), record_trace=True)
    trace = reference_enumerate_mcvs(g, opts).trace
    return [e.node for e in trace if e.step is TraceStep.STEP1_SELECT]


def _option_grid(g):
    """Every order kind, both policies, trace on and off.

    The scripts are a random run's picks, whole and cut in half, so one
    completes and one runs dry.
    """
    picks = _selects(g, 5)
    orders = [
        AscendingOrder(),
        RandomOrder(7),
        PriorityOrder(tuple(reversed(range(g.node_count)))),
        ScriptedOrder(tuple(picks)),
        ScriptedOrder(tuple(picks[: len(picks) // 2])),
    ]
    return [
        EnumerationOptions(order, b_policy, record_trace)
        for order in orders
        for b_policy in B_POLICIES
        for record_trace in (False, True)
    ]


@st.composite
def run_options(draw, g):
    """Any selection order, b-policy and trace setting for runs on ``g``.

    Scripts are either a random run's picks cut at any length, so they
    replay legal steps and may run dry, or arbitrary node lists, which
    mostly hit an illegal entry early.
    """
    n = g.node_count
    kind = draw(st.sampled_from(["ascending", "random", "priority", "script", "junk"]))
    if kind == "ascending":
        order = AscendingOrder()
    elif kind == "random":
        order = RandomOrder(draw(st.integers(0, 10**6)))
    elif kind == "priority":
        ranking = draw(st.permutations(range(n)))
        order = PriorityOrder(tuple(ranking[: draw(st.integers(0, n))]))
    elif kind == "script":
        picks = _selects(g, draw(st.integers(0, 10**6)))
        order = ScriptedOrder(tuple(picks[: draw(st.integers(0, len(picks)))]))
    else:
        order = ScriptedOrder(tuple(draw(st.lists(st.integers(0, n - 1), max_size=8))))
    return EnumerationOptions(
        order, draw(st.sampled_from(B_POLICIES)), draw(st.booleans())
    )


class TestAnswerPath:
    """The bitmask loop against the step-by-step reference loop.

    Under every selection order, b-policy and trace setting, both must make
    the same steps: same sets in the same order, same trace, same
    ``RunStats``, same status.
    """

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 10**9))
    def test_matches_step_path_on_corpus_graphs(self, data, seed):
        spec = CorpusSpec(graph_count=1, min_nodes=2, max_nodes=12, seed=seed)
        g = corpus_entries(spec)[0].graph
        _assert_matches_reference(g, data.draw(run_options(g)))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), g=sparse_graphs())
    def test_matches_step_path_on_sparse_graphs(self, data, g):
        _assert_matches_reference(g, data.draw(run_options(g)))

    @pytest.mark.parametrize(
        "edges",
        [grid_graph_edges(3, 4), complete_graph_edges(6)],
        ids=["grid3x4", "k6"],
    )
    def test_matches_step_path_on_dense_cases(self, edges):
        g = build_graph(edges, "s", "t")
        for opts in _option_grid(g):
            _assert_matches_reference(g, opts)

    @pytest.mark.parametrize(
        "edges",
        [FIG1_EDGES, grid_graph_edges(3, 4)],
        ids=["fig1", "grid3x4"],
    )
    def test_events_at_one_position_share_its_prefix(self, edges):
        # A traced run builds one prefix tuple per position it reaches: the
        # root's, then one per record and one per backtrack.
        g = build_graph(edges, "s", "t")
        for opts in _option_grid(g):
            if opts.record_trace:
                report = enumerate_mcvs(g, opts)
                stats = report.stats
                prefixes = {id(ev.prefix) for ev in report.trace}
                assert len(prefixes) == 1 + stats.records + stats.backtracks


class TestOnBatch:
    """The sets ``on_batch`` receives while the search runs."""

    @staticmethod
    def _run(g, opts=None):
        batches = []
        report = enumerate_mcvs(g, opts, on_batch=batches.append)
        return report, batches

    @pytest.mark.parametrize("size", [2, 5, 1024])
    def test_batches_join_to_the_report(self, monkeypatch, size):
        # Every order kind, both policies, traced or not, complete or cut
        # short by a script that runs dry.
        monkeypatch.setattr(mincuts.enumeration, "_BATCH", size)
        g = build_graph(grid_graph_edges(3, 4), "s", "t")
        for opts in _option_grid(g):
            report, batches = self._run(g, opts)
            assert [u for batch in batches for u in batch] == list(report.mcvs)
            assert all(len(batch) == size for batch in batches[:-1])
            assert 0 < len(batches[-1]) <= size
            assert batches[0][0] == 1 << g.source

    def test_no_empty_batch_when_the_sets_fill_the_last(self, monkeypatch, fig1):
        monkeypatch.setattr(mincuts.enumeration, "_BATCH", 3)
        report, batches = self._run(fig1)
        assert len(report.mcvs) == 9
        assert [list(batch) for batch in batches] == [list(report.mcvs[i:i + 3])
                                                      for i in (0, 3, 6)]

    def test_default_batches_on_a_grid(self):
        g = build_graph(grid_graph_edges(3, 8), "s", "t")
        report, batches = self._run(g)
        rest = len(report.mcvs) - mincuts.enumeration._BATCH
        assert 0 < rest <= mincuts.enumeration._BATCH
        assert [len(batch) for batch in batches] == [mincuts.enumeration._BATCH, rest]
        assert [u for batch in batches for u in batch] == list(report.mcvs)

    @pytest.mark.parametrize("size", [2, 1024], ids=["in-the-loop", "after-the-loop"])
    def test_an_exception_in_the_callback_reaches_the_caller(self, monkeypatch, fig1,
                                                              size):
        monkeypatch.setattr(mincuts.enumeration, "_BATCH", size)
        calls = []

        def refuse(batch):
            calls.append(list(batch))
            raise KeyError("stop")

        with pytest.raises(KeyError, match="stop"):
            enumerate_mcvs(fig1, on_batch=refuse)
        assert len(calls) == 1
        assert len(calls[0]) == min(size, 9)


class TestConnectivityCheckCost:
    """Checks answered from proven failures run no BFS; the calls pin that.

    Both connectivity helpers are counted where the engine looks them up.
    """

    @staticmethod
    def _run_counting_bfs(monkeypatch, edges):
        calls = []
        for name in ("_connected_mask", "_connected_without"):
            real = getattr(mincuts.enumeration, name)

            def counted(*args, real=real):
                calls.append(1)
                return real(*args)

            monkeypatch.setattr(mincuts.enumeration, name, counted)
        report = enumerate_mcvs(build_graph(edges, "s", "t"))
        return report.stats, len(calls)

    def test_grid_runs_a_bfs_for_under_three_checks_in_four(self, monkeypatch):
        # 3 in 4 checks fail on this grid; most failures are already known.
        stats, calls = self._run_counting_bfs(monkeypatch, grid_graph_edges(4, 7))
        assert stats.connectivity_checks == 75_680
        assert calls < 0.75 * stats.connectivity_checks

    def test_every_check_runs_a_bfs_when_none_fails(self, monkeypatch):
        stats, calls = self._run_counting_bfs(monkeypatch, complete_graph_edges(6))
        assert stats.records == stats.connectivity_checks == calls


class TestSourceSinkSwap:
    """A metamorphic check that reaches past the oracle's node limit.

    Swapping source and sink must turn the family of result sets into the
    family of their complements.
    """

    @staticmethod
    def _assert_swap_complements(g):
        swapped = dataclasses.replace(g, source=g.sink, sink=g.source)
        forward = enumerate_mcvs(g).mcvs
        backward = {g.full_mask ^ u for u in enumerate_mcvs(swapped).mcvs}
        assert set(forward) == backward
        return len(forward)

    @pytest.mark.parametrize("rows, cols, count", [(4, 7, 18_187), (4, 8, 64_626)])
    def test_grids(self, rows, cols, count):
        g = build_graph(grid_graph_edges(rows, cols), "s", "t")
        assert self._assert_swap_complements(g) == count

    @settings(max_examples=100, deadline=None)
    @given(g=sparse_graphs())
    def test_pruned_sparse_graphs(self, g):
        self._assert_swap_complements(prune_irrelevant(g))


class TestEdgeSubdivision:
    """A metamorphic check past the oracle's node limit.

    Putting a new node ``x`` on an edge ``a-b`` adds ``x`` to every result
    set that holds both ends, and splits every set with one end into the
    set with ``x`` and the set without. So the family grows by exactly the
    number of cuts that contain the edge.
    """

    @staticmethod
    def _assert_subdivision_adds_crossing_cuts(g, edge):
        names = g.node_names
        a, b, x = names[edge[0]], names[edge[1]], "subdivision"
        pairs = [(names[u], names[v]) for u, v in sorted(g.edges) if (u, v) != edge]
        h = build_graph(pairs + [(a, x), (x, b)], names[g.source], names[g.sink])
        report = enumerate_mcvs(g)
        crossing = sum(edge in cut_edges(g, u) for u in report.mcvs)
        expected = set()
        for labels in label_sets(g, report.mcvs):
            ends = (a in labels) + (b in labels)
            if ends < 2:
                expected.add(labels)
            if ends > 0:
                expected.add(labels | {x})
        subdivided = enumerate_mcvs(h).mcvs
        assert len(subdivided) == len(report.mcvs) + crossing
        assert label_sets(h, subdivided) == expected

    @pytest.mark.parametrize("a, b", [("s", "0.1"), ("1.3", "2.3"), ("3.5", "t")])
    def test_grid(self, a, b):
        g = build_graph(grid_graph_edges(4, 7), "s", "t")
        edge = tuple(sorted((g.index_of(a), g.index_of(b))))
        self._assert_subdivision_adds_crossing_cuts(g, edge)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), g=sparse_graphs())
    def test_pruned_sparse_graphs(self, data, g):
        g = prune_irrelevant(g)
        edge = data.draw(st.sampled_from(sorted(g.edges)))
        self._assert_subdivision_adds_crossing_cuts(g, edge)


class TestRelabelling:
    """Relabelling the non-terminals and shuffling the edge lines changes
    the node indices, and with them the search order, but not the cuts."""

    @staticmethod
    def _label_cuts(g, rename=None):
        """``g``'s cuts as sets of label pairs, labels passed through ``rename``."""
        names = [rename[x] for x in g.node_names] if rename else g.node_names
        pair = {(a, b): frozenset((names[a], names[b])) for a, b in g.edges}
        cuts = (cut_edges(g, u) for u in enumerate_mcvs(g).mcvs)
        return [frozenset(map(pair.__getitem__, cut)) for cut in cuts]

    def _assert_relabelled_cuts_agree(self, g, rnd):
        names = g.node_names
        others = [v for v in range(g.node_count) if v not in (g.source, g.sink)]
        fresh = [f"n{i}" for i in range(len(others))]
        rnd.shuffle(fresh)
        label = {v: names[v] for v in (g.source, g.sink)} | dict(zip(others, fresh))
        lines = [(label[u], label[v]) for u, v in sorted(g.edges)]
        lines = [line if rnd.random() < 0.5 else line[::-1] for line in lines]
        rnd.shuffle(lines)
        h = build_graph(lines, names[g.source], names[g.sink])
        got = self._label_cuts(h, rename={label[v]: names[v] for v in range(g.node_count)})
        want = self._label_cuts(g)
        assert len(got) == len(want) == len(set(want))
        assert set(got) == set(want)

    @settings(max_examples=4, deadline=None)
    @given(rnd=st.randoms(use_true_random=False))
    def test_grid(self, rnd):
        self._assert_relabelled_cuts_agree(build_graph(grid_graph_edges(4, 7), "s", "t"), rnd)

    @settings(max_examples=100, deadline=None)
    @given(g=sparse_graphs(), rnd=st.randoms(use_true_random=False))
    def test_pruned_sparse_graphs(self, g, rnd):
        self._assert_relabelled_cuts_agree(prune_irrelevant(g), rnd)


class TestPredecessorStructure:
    def test_every_larger_mcv_has_a_removable_boundary_node(self):
        # On pruned graphs, every multi-node result should shrink to another
        # result by dropping some non-source boundary node. This is the
        # structural bet behind the search; exceptions are logged as
        # warnings rather than failed, so a surprise feeds investigation
        # instead of blocking the suite. Zero observed to date.
        import warnings

        spec = CorpusSpec(graph_count=80, min_nodes=4, max_nodes=8, seed=23)
        failures = []
        checked = 0
        for entry in corpus_entries(spec):
            g = entry.graph
            for u in brute_force_mcvs(g):
                if u.bit_count() < 2:
                    continue
                checked += 1
                outside = g.full_mask & ~u
                options = [
                    j for j in _bits(u) if j != g.source and g.adjacency_masks[j] & outside
                ]
                if not any(is_mcv(g, u & ~(1 << j)) for j in options):
                    failures.append((entry.seed, g.label_set(u)))
        if failures:
            warnings.warn(
                f"predecessor structure failed on {len(failures)} of "
                f"{checked} sets, e.g. {failures[:5]}",
                stacklevel=1,
            )
        assert checked > 300  # the scan itself must have had teeth


class TestYehOriginalReplica:
    def test_goto_step3_records_non_mcv(self, fig1):
        report = run_yeh_original(
            fig1,
            YehPolicy("goto-step3"),
            EnumerationOptions(selection_order=_scripted(fig1, ["1", "3"])),
        )
        recorded = label_sets(fig1, report.mcvs)
        assert frozenset({"s", "1", "3"}) in recorded
        assert not is_mcv(fig1, fig1.node_set("s", "1", "3"))

    def test_goto_step4_stops_early(self, fig1):
        report = run_yeh_original(
            fig1,
            YehPolicy("goto-step4"),
            EnumerationOptions(selection_order=_scripted(fig1, ["1", "3"])),
        )
        assert report.status is RunStatus.COMPLETED
        assert label_sets(fig1, report.mcvs) == as_frozen([{"s", "1"}])

    def test_goto_step1_never_terminates(self, fig1):
        report = run_yeh_original(
            fig1,
            YehPolicy("goto-step1", step_limit=1000),
            EnumerationOptions(
                selection_order=PriorityOrder((fig1.index_of("3"),))
            ),
        )
        assert report.status is RunStatus.STEP_LIMIT_EXCEEDED
        assert report.stats.steps > 1000

    def test_goto_step1_loops_even_under_default_limit(self, fig1):
        report = run_yeh_original(
            fig1,
            YehPolicy("goto-step1"),
            EnumerationOptions(selection_order=AscendingOrder()),
        )
        assert report.status is RunStatus.STEP_LIMIT_EXCEEDED
        assert report.stats.steps == 10 * 2 ** fig1.node_count + 1

    def test_every_budget_exit_cuts_the_unbounded_run_short(self):
        # A budget of k steps stops the run at its (k+1)-th step, having
        # done exactly what the unbounded run had done by then.
        spec = CorpusSpec(graph_count=16, min_nodes=4, max_nodes=7, seed=1)
        truncated = 0
        for entry in corpus_entries(spec):
            g = entry.graph
            for transfer in YEH_POLICIES:
                for order in (AscendingOrder(), RandomOrder(entry.seed)):
                    opts = EnumerationOptions(order, record_trace=True)
                    full = run_yeh_original(g, YehPolicy(transfer), opts)
                    for k in range(1, full.stats.steps):
                        cut = run_yeh_original(g, YehPolicy(transfer, k), opts)
                        assert cut.status is RunStatus.STEP_LIMIT_EXCEEDED
                        assert cut.stats.steps == k + 1
                        assert cut.trace == full.trace[: len(cut.trace)]
                        assert cut.mcvs == full.mcvs[: len(cut.mcvs)]
                        truncated += 1
                    if full.status is RunStatus.COMPLETED:
                        exact = YehPolicy(transfer, full.stats.steps)
                        assert run_yeh_original(g, exact, opts).stats == full.stats
        assert truncated > 1000

    def test_shortfall_against_the_exact_count_on_grids(self):
        # The paper's claim past its one example: in ascending order, no
        # transfer finds every set. Per grid, the exact count, then per
        # transfer the status, the sets recorded and the distinct recorded
        # sets that are cut-generating (README's table).
        done, spent = RunStatus.COMPLETED, RunStatus.STEP_LIMIT_EXCEEDED
        shortfall = {
            (3, 4): (81, {"goto-step4": (done, 60, 60), "goto-step3": (done, 209, 67),
                          "goto-step1": (spent, 10, 10)}),
            (4, 5): (1353, {"goto-step4": (done, 647, 647), "goto-step3": (done, 20829, 1185),
                            "goto-step1": (spent, 18, 18)}),
        }
        for (rows, cols), (exact, transfers) in shortfall.items():
            g = build_graph(grid_graph_edges(rows, cols), "s", "t")
            assert len(brute_force_mcvs(g)) == exact
            for transfer, want in transfers.items():
                report = run_yeh_original(g, YehPolicy(transfer, 200_000))
                valid = {u for u in set(report.mcvs) if is_mcv(g, u)}
                assert (report.status, len(report.mcvs), len(valid)) == want, transfer

    def test_root_set_never_recorded(self):
        g = build_graph([("s", "t")], "s", "t")
        report = run_yeh_original(g, YehPolicy("goto-step4"))
        assert report.status is RunStatus.COMPLETED
        assert report.mcvs == ()

    def test_scripted_repetition_also_loops(self, fig1):
        script = _scripted(fig1, ["1"] + ["3"] * 600)
        report = run_yeh_original(
            fig1,
            YehPolicy("goto-step1", step_limit=1000),
            EnumerationOptions(selection_order=script),
        )
        assert report.status is RunStatus.STEP_LIMIT_EXCEEDED

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            YehPolicy("goto-step2")
        with pytest.raises(ValueError):
            YehPolicy("goto-step1", step_limit=0)
