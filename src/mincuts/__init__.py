"""Enumerate every minimal s-t cut of an undirected connected network.

The package centers on node sets that generate minimal cuts (MCVs): sets
containing the source but not the sink whose crossing edges form a minimal
s-t cut, equivalently whose two sides both induce connected subgraphs.
:func:`enumerate_mcvs` finds all of them by backtracking;
:func:`brute_force_mcvs` is the independent ground truth the corpus tooling
diffs everything against. The top level re-exports only the names below;
the rest lives in its submodule: :mod:`mincuts.graph` (the graph type and
its queries), :mod:`mincuts.enumeration` (selection orders, reports and
:func:`~mincuts.enumeration.run_yeh_original`, the replica of the flawed
2006 algorithm), :mod:`mincuts.oracle` and :mod:`mincuts.corpus`.
"""

from .corpus import CorpusSpec, corpus_entries
from .enumeration import EnumerationOptions, enumerate_mcvs
from .graph import build_graph, prune_irrelevant
from .oracle import brute_force_mcvs, diff

__version__ = "0.1.0"

__all__ = [
    "CorpusSpec",
    "EnumerationOptions",
    "brute_force_mcvs",
    "build_graph",
    "corpus_entries",
    "diff",
    "enumerate_mcvs",
    "prune_irrelevant",
]
