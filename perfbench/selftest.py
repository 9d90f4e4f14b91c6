"""Self-tests of the benchmark itself.

Run from the root of the repository::

    python3 perfbench/selftest.py

They cover the input generator, the self-time arithmetic of the trace,
the failed-check count, and that every output check rejects a truncated
output. They take about 15 seconds, because the output checks run on real
outputs of the four workloads.
"""

from __future__ import annotations

import io
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TMP_PARENT = ROOT / ".perfbench-tmp"
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, complete_edges, grid_edges, seeded_edge_list  # noqa: E402

import mincuts.cli  # noqa: E402
from mincuts import build_graph, enumerate_mcvs  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        edges = grid_edges(4, 7)
        self.assertEqual(seeded_edge_list(edges, 7), seeded_edge_list(edges, 7))
        self.assertNotEqual(seeded_edge_list(edges, 7), seeded_edge_list(edges, 8))

    def test_fixed_width_labels(self):
        for seed in (1, 2):
            labels = set(seeded_edge_list(complete_edges(17), seed).split()) - {"s", "t"}
            self.assertEqual(len(labels), 15)
            self.assertEqual({len(x) for x in labels}, {3})

    def test_mcv_count_does_not_depend_on_seed(self):
        w = WORKLOADS["oracle-check"]
        for seed in (1, 2):
            pairs = mincuts.cli.parse_edge_list(seeded_edge_list(w.edges, seed))
            self.assertEqual(len(enumerate_mcvs(build_graph(pairs, "s", "t")).mcvs),
                             w.results)


class SelfTimeTest(unittest.TestCase):
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # gc [8, 9.5] sticks out of b, so b covers only [8, 9] of it.
    SPANS = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["gc", 8.0, 9.5, 3],
    ]

    def test_self_times(self):
        self.assertEqual(tracing.self_times(self.SPANS[:4]), [3.0, 2.0, 1.0, 4.0])

    def test_self_times_sum_to_root_when_nested(self):
        self.assertEqual(sum(tracing.self_times(self.SPANS[:4])), 10.0)

    def test_child_outside_parent_breaks_the_sum(self):
        selfs = tracing.self_times(self.SPANS)
        self.assertEqual(selfs[3], 3.0)
        self.assertNotEqual(sum(selfs), 10.0)


class TracedCountsTest(unittest.TestCase):
    def test_fig1_failed_checks(self):
        tracer = tracing.Tracer()
        uninstall = tracer.install()
        try:
            with redirect_stdout(io.StringIO()):
                code = tracer.wrap(tracing.ROOT_SPAN, mincuts.cli.main)(
                    ["run", str(ROOT / "fixtures" / "fig1.edges")])
        finally:
            uninstall()
        self.assertEqual(code, 0)
        m = tracing.layer_metrics(tracer.spans, tracer.counts)
        self.assertEqual(m["enumeration.checks"], 11)
        self.assertEqual(m["enumeration.checks"] - m["enumeration.checks_failed"], 8)
        self.assertEqual(m["enumeration.checks_failed"], 3)
        self.assertEqual(m["enumeration.results"], 9)
        self.assertAlmostEqual(m["trace.self_sum_s"], m["trace.root_s"], places=9)


class OutputCheckTest(unittest.TestCase):
    """Every check accepts a real output and rejects it cut in half."""

    def _run(self, workdir: Path, name: str, seed: int = 1) -> tuple[str, int]:
        args = WORKLOADS[name].prepare(seed, workdir)
        out = io.StringIO()
        with redirect_stdout(out):
            code = mincuts.cli.main(args)
        return out.getvalue(), code

    def _assert_truncation_rejected(self, name: str, seed: int = 1) -> None:
        TMP_PARENT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=TMP_PARENT) as tmp:
            workdir = Path(tmp)
            stdout, code = self._run(workdir, name, seed)
            verdict = checks.check(name, seed, workdir, stdout, code)
            self.assertTrue(verdict["ok"], verdict["reason"])
            truncated = stdout[: len(stdout) // 2]
            self.assertFalse(checks.check(name, seed, workdir, truncated, code)["ok"])

    def test_grid_json(self):
        self._assert_truncation_rejected("grid-json")

    def test_dense_text(self):
        self._assert_truncation_rejected("dense-text")

    def test_oracle_check(self):
        self._assert_truncation_rejected("oracle-check")

    def test_corpus_shrink(self):
        self._assert_truncation_rejected("corpus-shrink", seed=42)

    def test_wrong_exit_code(self):
        verdict = checks.check("dense-text", 1, Path("."), "", 1)
        self.assertFalse(verdict["ok"])


if __name__ == "__main__":
    unittest.main()
