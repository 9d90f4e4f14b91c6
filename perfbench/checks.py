"""Output checks for the four workloads.

Each check takes what one CLI child left behind and returns the number of
results it verified, or raises :class:`CheckFailed`. The checks import
nothing from ``mincuts``, so a defect in the package cannot hide itself.
They run outside the timed region, in their own interpreter, so that the
benchmark process stays small: a child starts from its parent's peak RSS,
which would otherwise leak into ``peak_rss_mb``.

Usage: ``checks.py WORKLOAD SEED WORKDIR STDOUT_FILE EXIT_CODE``; prints
one JSON object ``{"ok": ..., "results": ..., "mismatches": ..., "reason": ...}``.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

from workloads import CORPUS_COUNT, CORPUS_SEED42_MISMATCHES, SINK, SOURCE, WORKLOADS


class CheckFailed(Exception):
    pass


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def _load_json(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None


def _distinct_sets(mcvs: list[list[str]], expected: int) -> None:
    _require(len(mcvs) == expected, f"{len(mcvs)} MCVs, expected {expected}")
    _require(len({frozenset(u) for u in mcvs}) == expected, "repeated MCVs")


def verify_sets(mcvs: list[list[str]], cuts: list[list[list[str]]], input_text: str) -> None:
    """Each set holds the source and not the sink, both it and its complement
    are connected, and its cut is exactly the input edges that cross it.

    This is the definition ``is_mcv`` and ``cut_edges`` implement, computed
    here from the input text alone, so it shares no code with the program.
    """
    pairs = [tuple(line.split()) for line in input_text.splitlines() if line.strip()]
    bit = {x: 1 << i for i, x in enumerate(sorted({x for p in pairs for x in p}))}
    adj = dict.fromkeys(bit.values(), 0)
    for a, b in pairs:
        adj[bit[a]] |= bit[b]
        adj[bit[b]] |= bit[a]
    full = sum(bit.values())

    def connected(mask: int) -> bool:
        seen = frontier = mask & -mask
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                reach |= adj[low]
            frontier = reach & mask & ~seen
            seen |= frontier
        return seen == mask

    _require(len(cuts) == len(mcvs), f"{len(cuts)} cuts for {len(mcvs)} MCVs")
    for labels, cut in zip(mcvs, cuts):
        _require(set(labels) <= bit.keys(), f"unknown label in {labels}")
        m = sum(bit[x] for x in set(labels))
        _require(bool(m & bit[SOURCE]) and not m & bit[SINK], f"wrong side: {labels}")
        _require(connected(m) and connected(full & ~m), f"not an MCV: {labels}")
        crossing = sorted(sorted(p) for p in pairs if bool(m & bit[p[0]]) != bool(m & bit[p[1]]))
        _require(cut == crossing, f"wrong cut for {labels}")


def check_grid_json(stdout: str, input_text: str) -> int:
    """18,187 distinct MCVs, each verified with its cut."""
    payload = _load_json(stdout)
    _require(payload.get("status") == "completed", "status is not completed")
    _distinct_sets(payload["mcvs"], WORKLOADS["grid-json"].results)
    verify_sets(payload["mcvs"], payload["cuts"], input_text)
    return len(payload["mcvs"])


_SET_LINE = re.compile(r"^  \{([^}]*)\}  cut \{([^}]*)\}$")


def check_dense_text(stdout: str, n: int = 17) -> int:
    """Exactly 2^(n-2) distinct MCV lines, each with a cut of |U|(n-|U|) edges."""
    expected = WORKLOADS["dense-text"].results
    lines = stdout.splitlines()
    _require(f"mcvs ({expected}):" in lines, "missing MCV count header")
    _require(bool(lines) and lines[-1].startswith("stats: "), "missing stats line")
    seen: set[frozenset[str]] = set()
    for line in lines:
        match = _SET_LINE.match(line)
        if match is None:
            continue
        members = frozenset(match.group(1).split(","))
        _require(SOURCE in members and SINK not in members, f"bad side: {line}")
        cut_size = len(match.group(2).split(", "))
        _require(cut_size == len(members) * (n - len(members)), f"bad cut: {line}")
        seen.add(members)
    _require(len(seen) == expected, f"{len(seen)} distinct MCV lines, expected {expected}")
    return expected


def check_oracle(stdout: str, input_text: str) -> int:
    """The oracle agrees, and the run found 938 distinct MCVs, each verified."""
    payload = _load_json(stdout)
    d = payload.get("diff")
    _require(isinstance(d, dict) and d.get("agree") is True, "oracle does not agree")
    _require(not d["missing"] and not d["spurious"], "oracle diff not empty")
    _distinct_sets(payload["mcvs"], WORKLOADS["oracle-check"].results)
    verify_sets(payload["mcvs"], payload["cuts"], input_text)
    return len(payload["mcvs"])


_GRAPH_LINE = re.compile(r"^graph=\d+ seed=\d+ n=\d+ m=\d+ status=(agree|mismatch)(.*)$")
_SUMMARY = re.compile(r"^# (\d+) graphs, (\d+) mismatch\(es\)$")


def check_corpus(stdout: str, seed: int, out_dir: Path) -> tuple[int, int]:
    """1,000 graphs; mismatches only under ``persistent``, each with its file.

    Returns (graphs, mismatches). Seed 42 must give exactly 245 mismatches.
    """
    lines = stdout.splitlines()
    _require(bool(lines), "empty output")
    summary = _SUMMARY.match(lines[-1])
    _require(summary is not None, "missing summary line")
    graphs, mismatches = int(summary.group(1)), int(summary.group(2))
    _require(graphs == CORPUS_COUNT, f"{graphs} graphs, expected {CORPUS_COUNT}")
    _require(len(lines) == graphs + 1, f"{len(lines) - 1} graph lines for {graphs} graphs")
    named = set()
    for line in lines[:-1]:
        match = _GRAPH_LINE.match(line)
        _require(match is not None, f"bad graph line: {line}")
        if match.group(1) == "agree":
            continue
        _require(" policy=persistent " in line, f"mismatch not under persistent: {line}")
        artifact = line.rpartition(" counterexample=")[2]
        _require(artifact != line, f"no counterexample file: {line}")
        path = Path(artifact)
        _require(path.is_file() and path.parent == out_dir, f"missing file: {artifact}")
        _require(path.read_text().startswith("# minimized counterexample"),
                 f"bad counterexample file: {artifact}")
        named.add(path.name)
    _require(len(named) == mismatches, f"{len(named)} mismatch lines, summary says {mismatches}")
    _require({p.name for p in out_dir.iterdir()} == named, "unnamed files in the out-dir")
    if seed == 42:
        _require(mismatches == CORPUS_SEED42_MISMATCHES,
                 f"{mismatches} mismatches on seed 42, expected {CORPUS_SEED42_MISMATCHES}")
    return graphs, mismatches


def check(workload: str, seed: int, workdir: Path, stdout: str, exit_code: int) -> dict:
    """Run the workload's check and report the verdict instead of raising."""
    w = WORKLOADS[workload]
    mismatches = None
    try:
        _require(exit_code == w.expected_exit, f"exit code {exit_code}, expected {w.expected_exit}")
        if workload == "grid-json":
            results = check_grid_json(stdout, (workdir / "input.edges").read_text())
        elif workload == "dense-text":
            results = check_dense_text(stdout)
        elif workload == "oracle-check":
            results = check_oracle(stdout, (workdir / "input.edges").read_text())
        else:
            results, mismatches = check_corpus(stdout, seed, workdir / "cex")
    except (CheckFailed, KeyError, TypeError) as exc:
        return {"ok": False, "results": 0, "mismatches": mismatches, "reason": str(exc)}
    return {"ok": True, "results": results, "mismatches": mismatches, "reason": ""}


if __name__ == "__main__":
    name, seed, workdir, stdout_file, code = sys.argv[1:]
    text = Path(stdout_file).read_text()
    print(json.dumps(check(name, int(seed), Path(workdir), text, int(code))))
