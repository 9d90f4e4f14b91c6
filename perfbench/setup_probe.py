"""Set-up probe: everything a CLI run does before its first search call.

Usage: ``setup_probe.py WORKLOAD ARG``. For a ``run`` workload, ARG is the
input file: import ``mincuts``, parse it, build the graph and prune it.
For the corpus, ARG is the seed: import ``mincuts`` and generate the
corpus. The benchmark times this process from start to exit.
"""

import sys

from workloads import CORPUS_COUNT, SINK, SOURCE, WORKLOADS

import mincuts.cli
from mincuts import CorpusSpec, build_graph, corpus_entries, prune_irrelevant

name, arg = sys.argv[1:]
if WORKLOADS[name].is_corpus:
    corpus_entries(CorpusSpec(graph_count=CORPUS_COUNT, seed=int(arg)))
else:
    with open(arg) as f:
        pairs = mincuts.cli.parse_edge_list(f.read())
    prune_irrelevant(build_graph(pairs, SOURCE, SINK))
