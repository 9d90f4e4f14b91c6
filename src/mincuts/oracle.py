"""Exhaustive ground truth for minimal-cut node sets, and set-level diffing.

The oracle shares nothing with the backtracking engines except the graph
type and the definitional membership test, so an agreement between the two
is meaningful evidence.
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
    subgraphs. Deterministic and definition-driven; bounded to
    ``MAX_ORACLE_NODES`` nodes.
    """
    if g.node_count > MAX_ORACLE_NODES:
        raise TooLarge(
            f"{g.node_count} nodes exceeds the exhaustive limit of {MAX_ORACLE_NODES}"
        )
    source_bit = 1 << g.source
    free = g.full_mask & ~(source_bit | 1 << g.sink)
    mcvs: list[NodeSet] = []
    # Every submask of ``free`` in increasing order, from 0 to ``free``.
    sub = 0
    while True:
        m = source_bit | sub
        if is_mcv(g, m):
            mcvs.append(m)
        if sub == free:
            break
        sub = (sub - free) & free
    return OracleResult(mcvs=frozenset(mcvs), graph=g)


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


def diff(candidate: EnumerationReport, oracle: OracleResult, g: Graph) -> DiffReport:
    """Compare a run's recorded sets against the oracle's, as sets.

    Both sides must have been computed on the same graph.
    """
    produced = frozenset(candidate.mcvs)
    spurious = produced - oracle.mcvs
    return DiffReport(
        missing=oracle.mcvs - produced,
        spurious=spurious,
        invalid=frozenset(u for u in spurious if not is_mcv(g, u)),
    )
