"""Exhaustive ground truth for minimal-cut node sets, and set-level diffing.

The oracle shares the graph type and the definition of a cut-generating
set (:func:`is_mcv`) with the backtracking engines, but not their
connectivity helpers: its scan runs its own closure over two half-mask
neighbour tables. So an agreement between the two is meaningful evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .enumeration import EnumerationReport
from .graph import Cut, Graph, NodeSet, cut_edges, is_mcv

__all__ = [
    "DiffReport",
    "MAX_ORACLE_NODES",
    "OracleResult",
    "TooLarge",
    "brute_force_mcvs",
    "diff",
]

# 2**(n-2) candidate subsets; past this the scan stops being a desk tool.
MAX_ORACLE_NODES = 24


class TooLarge(ValueError):
    pass


@dataclass(frozen=True)
class OracleResult:
    """Every cut-generating node set of ``graph``, as bitmasks; ``cuts``
    holds their crossing-edge sets and is computed on first access."""

    mcvs: frozenset[NodeSet]
    graph: Graph

    @cached_property
    def cuts(self) -> frozenset[Cut]:
        return frozenset(cut_edges(self.graph, u) for u in self.mcvs)


def brute_force_mcvs(g: Graph) -> OracleResult:
    """Every cut-generating node set, by checking all candidate subsets.

    Scans the ``2**(n-2)`` subsets containing the source and not the sink,
    keeping those where both the subset and its complement induce connected
    subgraphs, which is the definition :func:`is_mcv` states. Two tables
    built per call make each side's closure a few lookups: ``low[b]`` is
    the union of the neighbour masks of the nodes in ``b`` over the low
    ``n // 2`` node bits, ``high[b]`` the same over the other bits, so the
    neighbours of a whole seen set are ``low[seen & m] | high[seen >> h]``.
    Each table has at most ``2**12`` entries at the 24-node cap.
    Deterministic and definition-driven; bounded to ``MAX_ORACLE_NODES``
    nodes.
    """
    n = g.node_count
    if n > MAX_ORACLE_NODES:
        raise TooLarge(
            f"{n} nodes exceeds the exhaustive limit of {MAX_ORACLE_NODES}"
        )
    adj = g.adjacency_masks
    h = n // 2
    m = (1 << h) - 1
    low = _union_table(adj[:h])
    high = _union_table(adj[h:])
    full = g.full_mask
    source_bit = 1 << g.source
    sink_bit = 1 << g.sink
    free = full & ~(source_bit | sink_bit)
    mcvs: list[NodeSet] = []
    # Every submask of ``free`` in increasing order, from 0 to ``free``.
    sub = 0
    while True:
        side = source_bit | sub
        seen = source_bit
        # Grow ``seen`` within ``side`` until a round adds no node.
        while seen != (seen := (low[seen & m] | high[seen >> h]) & side | seen):
            pass
        if seen == side:
            rest = full ^ side  # the complement, which always holds the sink
            seen = sink_bit
            while seen != (seen := (low[seen & m] | high[seen >> h]) & rest | seen):
                pass
            if seen == rest:
                mcvs.append(side)
        if sub == free:
            break
        sub = (sub - free) & free
    return OracleResult(mcvs=frozenset(mcvs), graph=g)


def _union_table(masks: tuple[int, ...]) -> list[int]:
    """``table[b]`` is the union of ``masks[i]`` over the set bits ``i`` of ``b``."""
    table = [0]
    for mask in masks:
        table += [t | mask for t in table]
    return table


@dataclass(frozen=True)
class DiffReport:
    """Set comparison of an enumeration run against the oracle, over masks.

    ``missing`` holds oracle sets the run never produced; ``spurious``
    holds run output absent from the oracle, of which ``invalid`` singles
    out the members that fail the cut-generating test outright (the rest
    are valid sets credited to the wrong graph — impossible here, but the
    distinction keeps mis-recorded sets diagnosable at a glance).
    """

    missing: frozenset[NodeSet]
    spurious: frozenset[NodeSet]
    invalid: frozenset[NodeSet]

    @property
    def agree(self) -> bool:
        return not self.missing and not self.spurious


def diff(candidate: EnumerationReport, oracle: OracleResult) -> DiffReport:
    """Compare a run's recorded sets against the oracle's, as sets.

    Both sides must have been computed on the same graph; ``invalid`` is
    judged on ``oracle.graph``.
    """
    produced = frozenset(candidate.mcvs)
    spurious = produced - oracle.mcvs
    return DiffReport(
        missing=oracle.mcvs - produced,
        spurious=spurious,
        invalid=frozenset(u for u in spurious if not is_mcv(oracle.graph, u)),
    )
