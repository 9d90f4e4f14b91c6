"""An exhaustive census: every graph up to 5 nodes, every search order.

Each class of connected graphs with all nodes on a source-sink path is run
under every sequence of picks for the corrected search, and under the
ascending order for the replica, and checked against the definition (see
``tests/census.py``).
"""

from __future__ import annotations

import pytest

import mincuts.enumeration
from mincuts.enumeration import (
    EnumerationOptions,
    RunStatus,
    YehPolicy,
    enumerate_mcvs,
    run_yeh_original,
)

from .census import canonical_edges, every_choice, graph_classes, truth

SIZES = (3, 4, 5)
S, T, A, B, C = range(5)  # the nodes of census.LABELS


@pytest.fixture(scope="module")
def census():
    """Per size, each class with its true cut-generating sets."""
    return {n: [(g, truth(g)) for g in graph_classes(n)] for n in SIZES}


def test_class_counts(census):
    assert [len(census[n]) for n in SIZES] == [2, 10, 74]


@pytest.fixture
def every_order(monkeypatch):
    """``every_order(g, b_policy)``: the recorded sets of the corrected search
    on ``g`` under each sequence of picks. A chooser passed as the selection
    order is used as it is."""
    monkeypatch.setattr(mincuts.enumeration, "_make_chooser", lambda order: order)

    def runs(g, b_policy):
        return every_choice(lambda choose: enumerate_mcvs(
            g, EnumerationOptions(selection_order=choose, b_policy=b_policy)).mcvs)

    return runs


def _failing(census, every_order, n, b_policy):
    """The classes of size ``n`` on which some order records a set twice or
    records other sets than the true ones."""
    return [
        g for g, sets in census[n]
        if any(len(m) != len(sets) or frozenset(m) != sets for m in every_order(g, b_policy))
    ]


def test_scoped_is_complete_under_every_order(census, every_order):
    assert [len(_failing(census, every_order, n, "scoped")) for n in SIZES] == [0, 0, 0]


def test_persistent_fails_only_above_k23(census, every_order):
    # K_{2,3} with parts {a, b} and {s, t, c} is the only edge-minimal
    # failure: the others add s-t, a-b or s-c to it.
    assert [len(_failing(census, every_order, n, "persistent")) for n in (3, 4)] == [0, 0]
    k23 = [(A, S), (A, T), (A, C), (B, S), (B, T), (B, C)]
    extras = [(S, T), (A, B), (S, C)]
    expected = {
        canonical_edges(5, k23 + [e for i, e in enumerate(extras) if bits >> i & 1])
        for bits in range(1 << len(extras))
    }
    failing = _failing(census, every_order, 5, "persistent")
    assert len(failing) == 8
    assert {tuple(sorted(g.edges)) for g in failing} == expected


@pytest.mark.parametrize(
    "transfer, spurious, exhausted",
    [("goto-step1", [0, 0, 0], [0, 2, 38]),
     ("goto-step3", [0, 2, 38], [0, 0, 0]),
     ("goto-step4", [0, 0, 0], [0, 0, 0])],
    ids=["goto-step1", "goto-step3", "goto-step4"],
)
def test_replica_defects(census, transfer, spurious, exhausted):
    # Ascending order, a budget of 2,000 steps, and the root {s}, which the
    # replica never records, set aside.
    wrong = {n: [] for n in SIZES}
    counts = {n: [0, 0] for n in SIZES}  # spurious sets, exhausted budgets
    for n in SIZES:
        for g, sets in census[n]:
            sets = sets - {1 << g.source}
            report = run_yeh_original(g, YehPolicy(transfer, step_limit=2000))
            got = frozenset(report.mcvs)
            exceeded = report.status is RunStatus.STEP_LIMIT_EXCEEDED
            if got != sets or len(got) != len(report.mcvs) or exceeded:
                wrong[n].append(g)
            counts[n][0] += bool(got - sets)
            counts[n][1] += exceeded
    assert [len(wrong[n]) for n in SIZES] == [0, 6, 58]
    assert [counts[n] for n in SIZES] == [list(c) for c in zip(spurious, exhausted)]
    # At n = 4 the two failures with 4 edges: the 4-cycle with s and t
    # opposite, and the triangle s-a-b with a tail a-t.
    smallest = {tuple(sorted(g.edges)) for g in wrong[4] if g.edge_count == 4}
    assert smallest == {canonical_edges(4, [(S, A), (A, T), (B, T), (S, B)]),
                        canonical_edges(4, [(S, A), (S, B), (A, B), (A, T)])}
