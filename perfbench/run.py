"""Benchmark of the ``mincuts`` CLI: one workload, one seed, one run.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository. The load is a closed
loop with one client: this process starts one CLI child at a time and
waits for it. With ``--trace 0`` each round runs a fresh set-up probe and
one CLI child, and the run prints the end-to-end metrics. With
``--trace 1`` each round runs one untraced CLI child and one traced
in-process run (``tracing.py``), and the run prints the per-layer metrics.
Rounds repeat for about ``--seconds`` seconds, and at least a few times.

Every output is checked outside the timed region. The first output of a
run goes through the full check (``checks.py``); later outputs must be
byte-identical to it, or pass the full check themselves.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted`` (runs of the program: CLI children, traced runs and set-up
probes), ``failed`` and ``metrics``. The exit code is 0 whenever that
line is printed, and 2 when the program under test is not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from statistics import mean, median
from time import perf_counter
from typing import Callable

from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP_PARENT = ROOT / ".perfbench-tmp"
MIN_ROUNDS = 5
MIN_TRACED_ROUNDS = 3
CHILD_TIMEOUT_S = 120.0
MIB = 2**20

# The console script ``mincuts`` is ``mincuts.cli:main``; this runs the same
# entry point from the source tree without installing the package.
CLI = [sys.executable, "-c", "import sys; from mincuts.cli import main; sys.exit(main())"]


@dataclass(frozen=True)
class Child:
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    minor_faults: int


def spawn(argv: list[str], stdout_path: Path | None = None) -> Child:
    """Run one child to completion; take its own rusage from ``os.wait4``.

    ``RUSAGE_CHILDREN`` would give the maximum RSS over every child reaped
    so far, so each child is reaped by pid instead.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(stdout_path or os.devnull, "wb") as out:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024, usage.ru_minflt)


def host_ref_s() -> float:
    """A fixed pure-Python loop; its time tracks how fast the host runs now."""
    start = perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc * 31 + i) % 1_000_003
    return perf_counter() - start


class Run:
    """State of one benchmark run of one workload on one seed."""

    def __init__(self, workload: Workload, seed: int, workdir: Path) -> None:
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.stdout = workdir / "stdout"
        self.out_dir = workdir / "cex"
        self.cli_args = workload.prepare(seed, workdir)
        self.attempted = 0
        self.failed = 0
        self.reference: str | None = None
        self.verdict: dict = {}

    def _clear_outputs(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.stdout.unlink(missing_ok=True)

    def _outputs(self) -> list[Path]:
        artifacts = sorted(self.out_dir.iterdir()) if self.out_dir.is_dir() else []
        return [self.stdout, *artifacts]

    def output_bytes(self) -> int:
        return sum(p.stat().st_size for p in self._outputs())

    def _digest(self) -> str:
        h = hashlib.sha256()
        for path in self._outputs():
            h.update(path.name.encode() + b"\0")
            with open(path, "rb") as f:
                for block in iter(lambda: f.read(1 << 20), b""):
                    h.update(block)
        return h.hexdigest()

    def _full_check(self, exit_code: int) -> dict:
        result = subprocess.run(
            [sys.executable, str(BENCH_DIR / "checks.py"), self.w.name, str(self.seed),
             str(self.workdir), str(self.stdout), str(exit_code)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if result.returncode != 0:
            return {"ok": False, "reason": result.stderr.strip()[-500:]}
        return json.loads(result.stdout)

    def record(self, exit_code: int) -> bool:
        """Check the outputs the last child left; count the attempt."""
        self.attempted += 1
        if exit_code != self.w.expected_exit:
            verdict = {"ok": False, "reason": f"exit code {exit_code}"}
        elif self.reference is None:
            verdict = self.verdict = self._full_check(exit_code)
            self.reference = self._digest()
        elif self._digest() == self.reference:
            verdict = self.verdict
        else:
            verdict = self._full_check(exit_code)
        if not verdict["ok"]:
            self.failed += 1
            print(f"# check failed: {verdict['reason']}", file=sys.stderr)
        return verdict["ok"]

    def cli(self) -> Child:
        self._clear_outputs()
        return spawn(CLI + self.cli_args, self.stdout)

    def setup_probe(self) -> float:
        """Wall time of a fresh interpreter doing everything before the search."""
        probe = [sys.executable, str(BENCH_DIR / "setup_probe.py")]
        arg = str(self.seed) if self.w.is_corpus else self.cli_args[1]
        child = spawn(probe + [self.w.name, arg])
        self.attempted += 1
        if child.exit_code != 0:
            self.failed += 1
            print(f"# set-up probe exited with {child.exit_code}", file=sys.stderr)
        return child.wall_s

    def traced(self) -> tuple[Child, dict]:
        self._clear_outputs()
        summary, spans = self.workdir / "summary.json", self.workdir / "spans.json"
        child = spawn([sys.executable, str(BENCH_DIR / "tracing.py"), str(self.stdout),
                       str(summary), str(spans), *self.cli_args])
        if child.exit_code != 0:
            return child, {}
        return child, json.loads(summary.read_text())


def repeat(seconds: float, min_rounds: int, body: Callable[[], None]) -> None:
    """Call ``body`` at least ``min_rounds`` times, then while another round
    as long as the last one still fits into ``seconds``."""
    start = perf_counter()
    rounds = 0
    while True:
        round_start = perf_counter()
        body()
        rounds += 1
        now = perf_counter()
        if rounds >= min_rounds and (now - start) + (now - round_start) > seconds:
            return


def measure(run: Run, seconds: float) -> dict:
    """End-to-end metrics: set-up probes and CLI children, interleaved."""
    run.setup_probe()
    run.record(run.cli().exit_code)  # warm-up; also yields the reference output
    setups, children, sizes, host = [], [], [], []

    def one_round() -> None:
        host.append(host_ref_s())
        setups.append(run.setup_probe())
        children.append(run.cli())
        sizes.append(run.output_bytes())
        run.record(children[-1].exit_code)

    repeat(seconds, MIN_ROUNDS, one_round)
    # The mean, not the median: the host switches between a fast and a slow
    # phase, and a median jumps from one to the other when a run spends
    # about half its time in each, while the mean moves with the share.
    wall = mean([c.wall_s for c in children])
    print(f"# rounds={len(children)} host.ref_s={median(host):.4f} "
          f"wall_s={' '.join(f'{c.wall_s:.3f}' for c in children)}")
    return {
        "wall_s": (wall, "s"),
        "results_per_s": (run.w.results / wall, "1/s"),
        "peak_rss_mb": (median([c.peak_rss_mb for c in children]), "MiB"),
        "output_mb": (median(sizes) / MIB, "MiB"),
        "setup_s": (median(setups), "s"),
        "success_rate": ((run.attempted - run.failed) / run.attempted, "ratio"),
    }


def measure_traced(run: Run, seconds: float) -> tuple[dict, bool]:
    """Per-layer metrics: untraced and traced children, interleaved."""
    run.record(run.cli().exit_code)  # warm-up; also yields the reference output
    untraced, traced_walls, layers, host = [], [], [], []
    sums_ok = True

    def one_round() -> None:
        nonlocal sums_ok
        host.append(host_ref_s())
        untraced.append(run.cli())
        run.record(untraced[-1].exit_code)
        child, summary = run.traced()
        if run.record(summary.get("exit", child.exit_code)) and summary:
            traced_walls.append(child.wall_s - summary["post_root_s"])
            m = summary["metrics"]
            sums_ok &= abs(m.pop("trace.self_sum_s") - m.pop("trace.root_s")) < 1e-5
            layers.append(m)

    repeat(seconds, MIN_TRACED_ROUNDS, one_round)
    if not layers:
        return {}, False
    metrics = {
        name: (median([m[name] for m in layers]), _unit(name)) for name in layers[0]
    }
    metrics["corpus.mismatches"] = (run.verdict.get("mismatches") or 0, "count")
    metrics["process.minor_faults"] = (median([c.minor_faults for c in untraced]), "count")
    metrics["trace.overhead_s"] = (
        median(traced_walls) - median([c.wall_s for c in untraced]), "s")
    metrics["host.ref_s"] = (median(host), "s")
    return metrics, sums_ok


def _unit(metric: str) -> str:
    if metric.endswith(".s"):
        return "s"
    if metric.startswith("enumeration.us_per") or metric.startswith("oracle.us_per"):
        return "us"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mincuts" / "cli.py").is_file():
        print(f"error: no mincuts package under {SRC}", file=sys.stderr)
        return 2

    TMP_PARENT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT))
    try:
        run = Run(WORKLOADS[args.workload], args.seed, workdir)
        if args.trace:
            metrics, correct = measure_traced(run, args.seconds)
        else:
            metrics, correct = measure(run, args.seconds), True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass  # another run still uses it
    result = {
        "correct": correct and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
