"""Seeded benchmark inputs and the four workloads that run on them.

Every input is generated from the benchmark's ``--seed``; nothing is
committed as a fixture. For the ``run`` workloads the seed shuffles the
edge lines and relabels the non-terminal nodes with a permutation of
fixed-width labels. That changes the node indices, and with them the
search order, but not the number of results, and output bytes change only
in a few stat digits. The corpus workload passes the seed to ``--seed``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

SOURCE, SINK = "s", "t"
CORPUS_COUNT = 1000
# Persistent-policy mismatches the seed-42 corpus is known to produce.
CORPUS_SEED42_MISMATCHES = 245


def grid_edges(rows: int, cols: int) -> list[tuple[str, str]]:
    """Edges of a rows x cols grid with source and sink at opposite corners."""

    def name(r: int, c: int) -> str:
        if (r, c) == (0, 0):
            return SOURCE
        if (r, c) == (rows - 1, cols - 1):
            return SINK
        return f"r{r}c{c}"

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((name(r, c), name(r, c + 1)))
            if r + 1 < rows:
                edges.append((name(r, c), name(r + 1, c)))
    return edges


def complete_edges(n: int) -> list[tuple[str, str]]:
    """Edges of K_n on the source, the sink and n - 2 other nodes."""
    names = [SOURCE, SINK] + [f"k{i}" for i in range(n - 2)]
    return [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]


def seeded_edge_list(edges: list[tuple[str, str]], seed: int) -> str:
    """Edge-list text with relabelled non-terminals and shuffled lines.

    Non-terminals get the labels ``v00``, ``v01``, ... in a seeded
    permutation, all of one width, so output size does not depend on the
    seed. The same seed gives byte-identical text.
    """
    rng = random.Random(seed)
    others = sorted({x for e in edges for x in e} - {SOURCE, SINK})
    width = len(str(len(others) - 1))
    fresh = [f"v{i:0{width}d}" for i in range(len(others))]
    rng.shuffle(fresh)
    relabel = dict(zip(others, fresh), **{SOURCE: SOURCE, SINK: SINK})
    lines = [f"{relabel[a]} {relabel[b]}\n" for a, b in edges]
    rng.shuffle(lines)
    return "".join(lines)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``edges`` is the unshuffled input of a ``run`` workload, or None for
    the corpus. ``results`` is the number of MCVs a ``run`` produces, or
    the number of graphs the corpus checks.
    """

    name: str
    edges: list[tuple[str, str]] | None
    flags: tuple[str, ...]
    expected_exit: int
    results: int

    @property
    def is_corpus(self) -> bool:
        return self.edges is None

    def prepare(self, seed: int, workdir: Path) -> list[str]:
        """Write this seed's inputs into ``workdir``; return the CLI arguments."""
        if self.is_corpus:
            return ["corpus", "--count", str(CORPUS_COUNT), "--seed", str(seed),
                    "--out-dir", str(workdir / "cex")]
        path = workdir / "input.edges"
        path.write_text(seeded_edge_list(self.edges, seed))
        return ["run", str(path), *self.flags]


# Why each workload is there: see README.md next to this file.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid-json", grid_edges(4, 7), ("--format", "json", "--emit-cuts"),
                 expected_exit=0, results=18187),
        Workload("dense-text", complete_edges(17), ("--emit-cuts",),
                 expected_exit=0, results=2**15),
        Workload("oracle-check", grid_edges(3, 7),
                 ("--compare-oracle", "--format", "json", "--emit-cuts"),
                 expected_exit=0, results=938),
        Workload("corpus-shrink", None, (), expected_exit=2, results=CORPUS_COUNT),
    )
}
