"""Enumerate every minimal s-t cut of an undirected connected network.

The package centers on node sets that generate minimal cuts (MCVs): sets
containing the source but not the sink whose crossing edges form a minimal
s-t cut, equivalently whose two sides both induce connected subgraphs.
:func:`enumerate_mcvs` finds all of them by backtracking;
:func:`run_yeh_original` replicates the flawed 2006 algorithm it corrects,
for diagnosis; :func:`brute_force_mcvs` is the independent ground truth the
corpus tooling diffs everything against.
"""

from .corpus import (
    CorpusEntry,
    CorpusRunResult,
    CorpusSpec,
    corpus_entries,
    run_corpus,
    shrink_counterexample,
)
from .enumeration import (
    AscendingOrder,
    EnumerationOptions,
    EnumerationReport,
    PriorityOrder,
    RandomOrder,
    RunStats,
    RunStatus,
    ScriptedOrder,
    SelectionOrder,
    TraceEvent,
    TraceStep,
    YehPolicy,
    enumerate_mcvs,
    run_yeh_original,
)
from .graph import (
    Cut,
    DisconnectedInput,
    Edge,
    EmptyOrFullSet,
    Graph,
    GraphError,
    NodeSet,
    PruneReport,
    SelfLoop,
    SourceEqualsSink,
    UnknownNode,
    boundary_nodes,
    build_graph,
    cut_edges,
    format_cut,
    format_node_set,
    is_connected,
    is_mcv,
    prune_irrelevant,
)
from .oracle import (
    MAX_ORACLE_NODES,
    DiffReport,
    OracleResult,
    TooLarge,
    brute_force_mcvs,
    diff,
)

__version__ = "0.1.0"

__all__ = [
    "AscendingOrder",
    "CorpusEntry",
    "CorpusRunResult",
    "CorpusSpec",
    "Cut",
    "DiffReport",
    "DisconnectedInput",
    "Edge",
    "EmptyOrFullSet",
    "EnumerationOptions",
    "EnumerationReport",
    "Graph",
    "GraphError",
    "MAX_ORACLE_NODES",
    "NodeSet",
    "OracleResult",
    "PriorityOrder",
    "PruneReport",
    "RandomOrder",
    "RunStats",
    "RunStatus",
    "ScriptedOrder",
    "SelectionOrder",
    "SelfLoop",
    "SourceEqualsSink",
    "TooLarge",
    "TraceEvent",
    "TraceStep",
    "UnknownNode",
    "YehPolicy",
    "boundary_nodes",
    "brute_force_mcvs",
    "build_graph",
    "corpus_entries",
    "cut_edges",
    "diff",
    "enumerate_mcvs",
    "format_cut",
    "format_node_set",
    "is_connected",
    "is_mcv",
    "prune_irrelevant",
    "run_corpus",
    "run_yeh_original",
    "shrink_counterexample",
]
