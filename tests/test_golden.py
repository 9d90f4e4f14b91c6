"""Byte-for-byte golden outputs of ``mincuts run`` on the bundled fixtures.

Each case runs the CLI once as canonical JSON and once as text with
``--emit-cuts``, and compares stdout and the exit code with the files under
``tests/golden/``. The files were recorded before the JSON writer streamed
its output, the traced replica cases on ``fig1`` before the replica ran
as one step loop, the two mismatching oracle comparisons before text rows
were joined from the JSON writer's fragments, and the unpruned replica
cases on ``appendage`` before the replica kept its state in locals, and the
``grid3x4`` cases (12 nodes and 17 edges, so rows span more than one byte
of node and edge bits) before rows were looked up in per-byte tables, and
the three ``random:5`` cases (the corrected search on ``grid3x4`` and traced
on ``fig1``, and the traced replica on ``fig1``) before the selection orders
picked from the legal mask, and the ``pendants`` cases (chains hanging off
``s`` and ``t``, pruned to a triangle: text lists the pruned nodes in index
order, ``b, c, b2, x, y``, and JSON sorts them, ``b, b2, c, x, y``) before
the pruned labels were derived from the two graphs' labels, and the traced
``grid3x4`` cases (the corrected search, and the replica under
``goto-step4``; the only traced rows whose prefix and candidate sets span
two bytes of node bits) before trace events kept their candidates as
masks. The ``cycle4`` cases (the 4-cycle ``s-a-t-b``, the repo's
counterpart of the paper's example: under each transfer the traced
replica records only ``{s,a}`` and ``{s,a,b}``, misses ``{s}`` and
``{s,b}``, and stops after 11 steps, exit 2 against the oracle) were
recorded as the oracle began to return its set of masks, and the code
before that gives the same bytes. Any change to the files is a change of
the behaviour contract. Each JSON case also runs into a real file, on one
CPU and on two: there an untraced single-sink corrected run searches in a
forked child while this process writes, and must give the same bytes.

Re-record (only for an intended output change) with
``PYTHONPATH=src python -m tests.test_golden``.
"""

from __future__ import annotations

import contextlib
import io
import os
from pathlib import Path

import pytest

import mincuts.cli
import mincuts.corpus
from mincuts.cli import main
from mincuts.enumeration import YEH_POLICIES

from .conftest import FIXTURES

GOLDEN = Path(__file__).resolve().parent / "golden"

VARIANTS = {
    "default": (),
    "trace": ("--trace",),
    "compare-oracle": ("--compare-oracle",),
    "oracle": ("--algorithm", "oracle"),
    "all-sinks": ("--all-sinks",),
    "no-prune": ("--no-prune",),
}
YEH_STEP3 = (
    "--algorithm", "yeh-original",
    "--yeh-policy", "goto-step3",
    "--order", "script:1,3",
)
YEH = ("--algorithm", "yeh-original", "--trace", "--yeh-policy")

# (fixture, variant name, flags, exit code)
CASES = [
    (fixture, name, flags, 0)
    for fixture in ("fig1", "appendage", "path3", "k4")
    for name, flags in VARIANTS.items()
] + [
    ("grid3x4", name, VARIANTS[name], 0)
    for name in ("default", "trace", "compare-oracle", "all-sinks")
] + [
    ("pendants", name, VARIANTS[name], 0) for name in ("default", "all-sinks")
] + [
    ("grid3x4", "random", ("--order", "random:5"), 0),
    ("fig1", "random-trace", ("--order", "random:5", "--trace"), 0),
    ("fig1", "yeh-goto-step3", YEH_STEP3, 1),
    (
        "fig1", "yeh-goto-step1-limit",
        (*YEH, "goto-step1", "--order", "priority:3", "--step-limit", "40"), 3,
    ),
    ("fig1", "yeh-goto-step3-trace", (*YEH, "goto-step3"), 0),
    ("fig1", "yeh-goto-step3-random-trace", (*YEH, "goto-step3", "--order", "random:5"), 0),
    ("fig1", "yeh-goto-step4-trace", (*YEH, "goto-step4"), 0),
    ("grid3x4", "yeh-goto-step4-trace", (*YEH, "goto-step4"), 0),
    # Unpruned, ``a`` and ``b`` hang off ``s``: step 1 re-selects ``a`` until
    # the default budget stops it, step 3 records ``{s,a}`` although
    # ``{b,t}`` is disconnected, and step 4 stops at the root ``{s}``.
    ("appendage", "no-prune-yeh-goto-step1-trace", ("--no-prune", *YEH, "goto-step1"), 3),
    ("appendage", "no-prune-yeh-goto-step3-trace", ("--no-prune", *YEH, "goto-step3"), 0),
    ("appendage", "no-prune-yeh-goto-step4-trace", ("--no-prune", *YEH, "goto-step4"), 0),
    ("appendage", "no-prune-compare-oracle", ("--no-prune", "--compare-oracle"), 2),
    (
        "fig1", "yeh-goto-step3-compare-oracle",
        ("--algorithm", "yeh-original", "--yeh-policy", "goto-step3", "--compare-oracle"),
        2,
    ),
    ("cycle4", "default", (), 0),
] + [
    ("cycle4", f"yeh-{policy}-trace-compare-oracle", (*YEH, policy, "--compare-oracle"), 2)
    for policy in YEH_POLICIES
]

FORMATS = {"json": ("--format", "json"), "txt": ("--emit-cuts",)}


def _cli_stdout(fixture: str, flags: tuple[str, ...], fmt: str) -> tuple[int, str]:
    argv = ["run", str(FIXTURES / f"{fixture}.edges"), *flags, *FORMATS[fmt]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _golden_path(fixture: str, name: str, fmt: str) -> Path:
    return GOLDEN / f"{fixture}-{name}.{fmt}"


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize(
    "fixture,name,flags,exit_code", CASES, ids=[f"{c[0]}-{c[1]}" for c in CASES]
)
def test_matches_golden_bytes(fixture, name, flags, exit_code, fmt):
    code, out = _cli_stdout(fixture, flags, fmt)
    assert code == exit_code
    expected = _golden_path(fixture, name, fmt).read_bytes()
    assert out.encode() == expected


@pytest.mark.parametrize("cpus", [1, 2], ids=["1-cpu", "2-cpus"])
@pytest.mark.parametrize(
    "fixture,name,flags,exit_code", CASES, ids=[f"{c[0]}-{c[1]}" for c in CASES]
)
def test_json_golden_bytes_through_a_file(tmp_path, monkeypatch, fixture, name, flags,
                                          exit_code, cpus):
    # An untraced single-sink corrected run forks its search when there are
    # two CPUs; this runs each case on one CPU and on two, into a real file.
    monkeypatch.setattr(mincuts.corpus, "_usable_cpus", lambda: cpus)
    forks = []
    real = mincuts.cli._write_while_searching
    monkeypatch.setattr(mincuts.cli, "_write_while_searching",
                        lambda *args: forks.append(args) or real(*args))
    argv = ["run", str(FIXTURES / f"{fixture}.edges"), *flags, *FORMATS["json"]]
    path = tmp_path / "out.json"
    with open(path, "w", encoding="utf-8") as out:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code == exit_code
    assert path.read_bytes() == _golden_path(fixture, name, "json").read_bytes()
    in_process = {"--trace", "--all-sinks", "--algorithm"} & set(flags)
    assert len(forks) == (cpus > 1 and not in_process)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for fixture, name, flags, _ in CASES:
        for fmt in FORMATS:
            _golden_path(fixture, name, fmt).write_bytes(
                _cli_stdout(fixture, flags, fmt)[1].encode()
            )
