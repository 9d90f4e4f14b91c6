"""Acceptance suite: one test per exit criterion, one printed verdict each.

Run ``pytest -s tests/test_acceptance.py -v`` to see the verdict lines.

Criterion 4 is asserted separately per blocked-set policy. The scoped half
passes. The persistent half FAILS, and is meant to stay red until the
criterion itself is revised: carrying the blocked set across backtracking
(the exact behavior the reference trace of criterion 2 pins down) provably
loses results — the smallest case is K_{2,3} with source and sink in the
three-node part, and roughly a quarter of the seeded corpus trips it. See
README "Known limits" and tests/conftest.py K23_EDGES.
"""

from __future__ import annotations

import functools
import itertools
import time

import pytest

from mincuts import build_graph, enumerate_mcvs, prune_irrelevant
from mincuts.enumeration import (
    AscendingOrder,
    EnumerationOptions,
    PriorityOrder,
    RandomOrder,
    RunStatus,
    ScriptedOrder,
    TraceStep,
    YehPolicy,
    run_yeh_original,
)
from mincuts.graph import is_mcv
from mincuts.cli import EXIT_MISMATCH, EXIT_OK, RunConfig, run
from mincuts.corpus import CorpusSpec, corpus_entries, run_corpus
from mincuts.oracle import brute_force_mcvs, diff

from .conftest import (
    FIG1_GOLDEN,
    FIG1_PAPER_DISCONNECTED,
    FIG1_PAPER_DISCOVERY,
    FIG1_PAPER_SCRIPT,
    FIXTURES,
    as_frozen,
    complete_graph_edges,
    label_sets,
    path_graph_edges,
)

# The corpus every corpus-wide criterion runs on.
CORPUS = CorpusSpec(
    graph_count=1000,
    min_nodes=4,
    max_nodes=10,
    edge_probability=0.35,
    seed=42,
    prune=True,
)

GOLDEN = as_frozen(FIG1_GOLDEN)


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {name}: {status}{suffix}")


def _scripted(g, labels):
    return ScriptedOrder(tuple(g.index_of(x) for x in labels))


def test_criterion_1_golden_set_under_all_configurations(fig1):
    """The six-node network yields exactly its nine cut sets, however run."""
    orders = [AscendingOrder()]
    orders += [RandomOrder(seed) for seed in range(10)]
    orders += [PriorityOrder(p) for p in itertools.permutations(range(6), 3)]
    graphs = [fig1, prune_irrelevant(fig1).pruned_graph]  # prune on and off
    worst = 0.0
    runs = 0
    try:
        for g in graphs:
            for b_policy in ("scoped", "persistent"):
                for order in orders:
                    started = time.perf_counter()
                    report = enumerate_mcvs(
                        g, EnumerationOptions(order, b_policy)
                    )
                    worst = max(worst, time.perf_counter() - started)
                    runs += 1
                    assert report.status is RunStatus.COMPLETED
                    assert label_sets(g, report.mcvs) == GOLDEN
        assert worst < 1.0, f"slowest run took {worst:.3f}s"
    except AssertionError:
        _verdict("criterion 1 (golden set, all configurations)", False)
        raise
    _verdict(
        "criterion 1 (golden set, all configurations)",
        True,
        f"{runs} runs, slowest {worst * 1000:.1f}ms",
    )


def test_criterion_2_golden_trace_replay(fig1):
    """Scripted replay reproduces the reference discovery order and the
    four failed connectivity tests at their exact positions."""
    opts = EnumerationOptions(
        selection_order=_scripted(fig1, FIG1_PAPER_SCRIPT),
        b_policy="persistent",
        record_trace=True,
    )
    report = enumerate_mcvs(fig1, opts)
    try:
        assert report.status is RunStatus.COMPLETED
        discovered = [frozenset(fig1.label_set(u)) for u in report.mcvs]
        assert discovered == [frozenset(u) for u in FIG1_PAPER_DISCOVERY]
        events = [
            (
                fig1.node_names[ev.node],
                tuple(fig1.node_names[v] for v in ev.prefix),
            )
            for ev in report.trace
            if ev.step is TraceStep.STEP2_DISCONNECTED
        ]
        assert events == list(FIG1_PAPER_DISCONNECTED)
    except AssertionError:
        _verdict("criterion 2 (golden trace replay)", False)
        raise
    _verdict("criterion 2 (golden trace replay)", True, "9 records, 4 blocked picks")


def test_criterion_3_faulty_replica_failure_modes(fig1):
    """Each documented transfer misbehaves in exactly its documented way."""
    try:
        bogus = run_yeh_original(
            fig1,
            YehPolicy("goto-step3"),
            EnumerationOptions(_scripted(fig1, ["1", "3"])),
        )
        recorded = label_sets(fig1, bogus.mcvs)
        assert frozenset({"s", "1", "3"}) in recorded
        assert not is_mcv(fig1, fig1.node_set("s", "1", "3"))

        early = run_yeh_original(
            fig1,
            YehPolicy("goto-step4"),
            EnumerationOptions(_scripted(fig1, ["1", "3"])),
        )
        assert early.status is RunStatus.COMPLETED
        assert label_sets(fig1, early.mcvs) == as_frozen([{"s", "1"}])

        looping = run_yeh_original(
            fig1,
            YehPolicy("goto-step1", step_limit=1000),
            EnumerationOptions(PriorityOrder((fig1.index_of("3"),))),
        )
        assert looping.status is RunStatus.STEP_LIMIT_EXCEEDED
    except AssertionError:
        _verdict("criterion 3 (faulty-replica failure modes)", False)
        raise
    _verdict(
        "criterion 3 (faulty-replica failure modes)",
        True,
        "mis-record, early stop, non-termination",
    )


# How many of the 1000 pruned corpus graphs each transfer of the original
# gets wrong in ascending order, beyond the ``{s}`` it never records:
# (graphs wrong, graphs with sets missing, graphs with spurious sets, runs
# stopped by the budget). Counted against the oracle and frozen: any
# change to a count is a regression signal.
YEH_DEFECTS = {
    "goto-step3": (594, 482, 521, 0),
    "goto-step4": (568, 568, 0, 0),
    "goto-step1": (578, 578, 0, 521),
}


@pytest.mark.parametrize("transfer", list(YEH_DEFECTS))
def test_criterion_3_replica_defect_rates(transfer):
    """The paper's claim as numbers: on most corpus graphs, each transfer
    of the original misses cut sets or records false ones."""
    policy = YehPolicy(transfer, step_limit=2000 if transfer == "goto-step1" else None)
    wrong = missing = spurious = stopped = root_missed = 0
    for entry in corpus_entries(CORPUS):
        g = entry.graph
        report = run_yeh_original(g, policy)
        comparison = diff(report, brute_force_mcvs(g), g)
        root = 1 << g.source
        root_missed += root in comparison.missing
        missed = comparison.missing - {root}
        missing += bool(missed)
        spurious += bool(comparison.spurious)
        wrong += bool(missed or comparison.spurious)
        stopped += report.status is RunStatus.STEP_LIMIT_EXCEEDED
    counts = (wrong, missing, spurious, stopped)
    _verdict(
        f"criterion 3 (replica defect rates, {transfer})",
        counts == YEH_DEFECTS[transfer] and root_missed == 1000,
        f"{wrong} wrong, {missing} missing, {spurious} spurious, {stopped} stopped",
    )
    assert root_missed == 1000
    assert counts == YEH_DEFECTS[transfer]


@functools.cache
def _oracle_equivalence(b_policy: str) -> tuple[int, float]:
    """Corpus mismatches and seconds; one run per policy serves every test."""
    started = time.perf_counter()
    result = run_corpus(CORPUS, b_policies=(b_policy,), random_orders=3)
    return result.mismatches, time.perf_counter() - started


def test_criterion_4_oracle_equivalence_scoped():
    """1000 pruned corpus graphs, ascending + 3 random orders: zero
    disagreements with the brute-force oracle under the scoped policy."""
    mismatches, elapsed = _oracle_equivalence("scoped")
    ok = mismatches == 0 and elapsed <= 600
    _verdict(
        "criterion 4 (oracle equivalence, scoped)",
        ok,
        f"{mismatches} mismatches in {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert elapsed <= 600


def test_criterion_4_oracle_equivalence_persistent():
    """Same corpus under the persistent policy: asserted as specified, and
    expected to FAIL — persistent blocking is structurally incomplete."""
    mismatches, elapsed = _oracle_equivalence("persistent")
    ok = mismatches == 0 and elapsed <= 600
    _verdict(
        "criterion 4 (oracle equivalence, persistent)",
        ok,
        f"{mismatches} mismatches in {elapsed:.1f}s",
    )
    if mismatches:
        pytest.fail(
            f"persistent blocking missed results on {mismatches}/1000 corpus "
            "graphs. This is a real property of the algorithm variant, not "
            "an implementation bug: a candidate blocked at a child position "
            "stays blocked after backtracking and can mask a viable subtree "
            "at the parent (smallest case: K_{2,3} with source and sink in "
            "the three-node part — see tests/conftest.py K23_EDGES and the "
            "README). The scoped policy, which restores the parent's own "
            "blocked set on ascent, passes this criterion."
        )
    assert elapsed <= 600


# Persistent blocking's misses on the corpus are deterministic.
PERSISTENT_MISMATCHES = 245


def test_criterion_4_persistent_mismatch_count():
    """The red test above fails alike at any non-zero count; this one pins
    the count itself, so a change in what persistent blocking misses shows."""
    mismatches, _ = _oracle_equivalence("persistent")
    assert mismatches == PERSISTENT_MISMATCHES


def test_criterion_5_analytic_families():
    """Complete graphs give 2**(n-2) results (n=4..12); paths give n-1."""
    try:
        k12_elapsed = 0.0
        for n in range(4, 13):
            g = build_graph(complete_graph_edges(n), "s", "t")
            started = time.perf_counter()
            report = enumerate_mcvs(g)
            elapsed = time.perf_counter() - started
            if n == 12:
                k12_elapsed = elapsed
            assert len(report.mcvs) == 2 ** (n - 2), f"K_{n}"
            assert len(set(report.mcvs)) == len(report.mcvs)
        assert k12_elapsed <= 30.0, f"K_12 took {k12_elapsed:.1f}s"

        for n in range(3, 13):
            g = build_graph(path_graph_edges(n), "s", "t")
            assert len(enumerate_mcvs(g).mcvs) == n - 1, f"path n={n}"
    except AssertionError:
        _verdict("criterion 5 (analytic families)", False)
        raise
    _verdict(
        "criterion 5 (analytic families)",
        True,
        f"K_4..K_12 and paths exact, K_12 in {k12_elapsed:.2f}s",
    )


def _independent_adjacency(g):
    adjacency: dict[int, set[int]] = {v: set() for v in range(g.node_count)}
    for u, v in g.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return adjacency


def _reaches(adjacency, banned, start, goal) -> bool:
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adjacency[x]:
                e = (x, y) if x < y else (y, x)
                if e in banned or y in seen:
                    continue
                if y == goal:
                    return True
                seen.add(y)
                nxt.append(y)
        frontier = nxt
    return False


def test_criterion_6_cut_validity_and_bijection():
    """On every corpus graph: one distinct cut per result set, each cut
    disconnects the terminals, and restoring any single edge reconnects."""
    violations = 0
    cuts_checked = 0
    started = time.perf_counter()
    for entry in corpus_entries(CORPUS):
        g = entry.graph
        report = enumerate_mcvs(g)
        adjacency = _independent_adjacency(g)
        if len(report.cuts) != len(report.mcvs):
            violations += 1
        if len(set(report.cuts)) != len(report.cuts):
            violations += 1
        for cut in report.cuts:
            cuts_checked += 1
            if _reaches(adjacency, cut, g.source, g.sink):
                violations += 1
            for e in cut:
                if not _reaches(adjacency, cut - {e}, g.source, g.sink):
                    violations += 1
    elapsed = time.perf_counter() - started
    _verdict(
        "criterion 6 (cut validity and bijection)",
        violations == 0,
        f"{cuts_checked} cuts on 1000 graphs in {elapsed:.1f}s",
    )
    assert violations == 0


def test_criterion_7_relevance_gap_surfaced(appendage):
    """The pendant-node graph disagrees unpruned, agrees pruned, and the
    command line reports both through its exit code."""
    try:
        report = enumerate_mcvs(appendage)
        comparison = diff(report, brute_force_mcvs(appendage), appendage)
        assert label_sets(appendage, comparison.spurious) == as_frozen([{"s"}])
        assert label_sets(appendage, comparison.missing) == as_frozen(
            [{"s", "a", "b"}]
        )

        pruned = prune_irrelevant(appendage).pruned_graph
        pruned_diff = diff(
            enumerate_mcvs(pruned), brute_force_mcvs(pruned), pruned
        )
        assert pruned_diff.agree

        import io

        path = str(FIXTURES / "appendage.edges")
        code_unpruned = run(
            RunConfig(path, prune=False, compare_oracle=True),
            out=io.StringIO(),
            err=io.StringIO(),
        )
        assert code_unpruned == EXIT_MISMATCH
        code_pruned = run(
            RunConfig(path, prune=True, compare_oracle=True),
            out=io.StringIO(),
            err=io.StringIO(),
        )
        assert code_pruned == EXIT_OK
    except AssertionError:
        _verdict("criterion 7 (relevance gap surfaced)", False)
        raise
    _verdict(
        "criterion 7 (relevance gap surfaced)",
        True,
        "exit 2 unpruned, exit 0 pruned",
    )


def test_criterion_8_order_invariance(fig1):
    """100 random selection orders all produce the identical nine sets."""
    try:
        for seed in range(100):
            report = enumerate_mcvs(
                fig1, EnumerationOptions(selection_order=RandomOrder(seed))
            )
            assert label_sets(fig1, report.mcvs) == GOLDEN
    except AssertionError:
        _verdict("criterion 8 (order invariance)", False)
        raise
    _verdict("criterion 8 (order invariance)", True, "100 random orders")
