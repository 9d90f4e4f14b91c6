"""Command-line behavior: parsing, reports, exit codes, canonical JSON."""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import io
import json
import os
import subprocess
import sys
from functools import reduce
from operator import xor

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mincuts.cli
import mincuts.corpus
import mincuts.enumeration
import mincuts.oracle
from mincuts import (
    CorpusSpec,
    EnumerationOptions,
    brute_force_mcvs,
    build_graph,
    corpus_entries,
    diff,
    enumerate_mcvs,
    prune_irrelevant,
)
from mincuts.enumeration import RunStatus, YehPolicy, run_yeh_original
from mincuts.graph import cut_edges
from mincuts.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_STEP_LIMIT,
    EXIT_USAGE,
    ParseError,
    RunConfig,
    _CORPUS_FLAGS,
    _ByteTable,
    _RowFragments,
    _indent,
    _json_array,
    main,
    parse_edge_list,
    run,
)

from .conftest import (
    FIXTURES,
    _leaves_nothing,
    as_frozen,
    FIG1_GOLDEN,
    grid_graph_edges,
    path_graph_edges,
    sparse_graphs,
)


class TestParseEdgeList:
    def test_basic(self):
        assert parse_edge_list("s 1\ns 2\n# comment\n1 2\n") == [
            ("s", "1"),
            ("s", "2"),
            ("1", "2"),
        ]

    def test_empty_text_gives_empty_list(self):
        assert parse_edge_list("") == []

    def test_blank_lines_and_indentation(self):
        assert parse_edge_list("\n  a b\n\n   # x\n") == [("a", "b")]

    def test_wrong_token_count(self):
        with pytest.raises(ParseError) as exc:
            parse_edge_list("a b\nc d e\n")
        assert exc.value.line_number == 2

    def test_fig1_fixture_has_nine_edges(self):
        pairs = parse_edge_list((FIXTURES / "fig1.edges").read_text())
        assert len(pairs) == 9


def _run(config):
    out, err = io.StringIO(), io.StringIO()
    code = run(config, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _text_mcvs(output: str) -> set[frozenset[str]]:
    sets = []
    for line in output.splitlines():
        line = line.strip()
        if line.startswith("{") and "cut" not in line:
            sets.append(frozenset(line.strip("{}").split(",")))
        elif line.startswith("{") and "  cut " in line:
            head = line.split("  cut ")[0]
            sets.append(frozenset(head.strip("{}").split(",")))
    return set(sets)


class TestRunCorrected:
    def test_fig1_text_report(self):
        config = RunConfig(str(FIXTURES / "fig1.edges"), emit_cuts=True)
        code, out, err = _run(config)
        assert code == EXIT_OK
        assert "mcvs (9):" in out
        assert _text_mcvs(out) == as_frozen(FIG1_GOLDEN)
        assert out.count("cut {") == 9

    def test_source_sink_defaults(self):
        config = RunConfig(str(FIXTURES / "fig1.edges"))
        code, out, _ = _run(config)
        assert code == EXIT_OK
        assert "source s, sink t" in out

    def test_explicit_source_sink(self):
        config = RunConfig(str(FIXTURES / "fig1.edges"), source="t", sink="s")
        code, out, _ = _run(config)
        assert code == EXIT_OK
        assert "source t, sink s" in out

    def test_missing_default_labels(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("a b\nb c\n")
        code, _, err = _run(RunConfig(str(path)))
        assert code == EXIT_USAGE
        assert "--source" in err

    def test_compare_oracle_agrees(self):
        config = RunConfig(str(FIXTURES / "fig1.edges"), compare_oracle=True)
        code, out, _ = _run(config)
        assert code == EXIT_OK
        assert "oracle comparison: agree" in out

    def test_trace_output(self):
        config = RunConfig(str(FIXTURES / "fig1.edges"), trace=True)
        code, out, _ = _run(config)
        assert code == EXIT_OK
        assert "trace:" in out
        assert "step0" in out and "stop" in out

    @pytest.mark.parametrize("output_format", ["text", "json"])
    def test_utf8_bom_is_ignored(self, tmp_path, output_format):
        plain = (FIXTURES / "fig1.edges").read_bytes()
        path = tmp_path / "bom.edges"
        path.write_bytes(b"\xef\xbb\xbf" + plain)
        configs = [
            RunConfig(str(p), emit_cuts=True, output_format=output_format)
            for p in (path, FIXTURES / "fig1.edges")
        ]
        with_bom, without = (_run(c) for c in configs)
        assert with_bom == without
        assert with_bom[0] == EXIT_OK


class TestRunJson:
    def test_canonical_round_trip(self):
        config = RunConfig(
            str(FIXTURES / "fig1.edges"),
            output_format="json",
            emit_cuts=True,
            compare_oracle=True,
            trace=True,
        )
        code, out, _ = _run(config)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out

    def test_bit_exact_across_runs(self):
        config = RunConfig(str(FIXTURES / "fig1.edges"), output_format="json")
        _, first, _ = _run(config)
        _, second, _ = _run(config)
        assert first == second

    def test_schema_top_level(self):
        config = RunConfig(str(FIXTURES / "fig1.edges"), output_format="json")
        _, out, _ = _run(config)
        payload = json.loads(out)
        assert set(payload) == {"graph", "algorithm", "mcvs", "cuts", "stats", "status"}
        assert payload["graph"]["source"] == "s"
        assert payload["graph"]["sink"] == "t"
        assert payload["graph"]["pruned_nodes"] == []
        assert payload["status"] == "completed"
        assert all(m == sorted(m) for m in payload["mcvs"])
        assert len(payload["cuts"]) == len(payload["mcvs"]) == 9

    def test_text_and_json_describe_same_sets(self):
        base = dict(input_path=str(FIXTURES / "fig1.edges"))
        _, text_out, _ = _run(RunConfig(**base))
        _, json_out, _ = _run(RunConfig(**base, output_format="json"))
        from_json = {frozenset(m) for m in json.loads(json_out)["mcvs"]}
        assert _text_mcvs(text_out) == from_json

    def test_oracle_algorithm_json(self):
        config = RunConfig(
            str(FIXTURES / "fig1.edges"), algorithm="oracle", output_format="json"
        )
        code, out, _ = _run(config)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["mcvs"]) == 9
        assert payload["stats"] == {"subsets_scanned": 16}

    @pytest.mark.parametrize(
        "options",
        [
            dict(output_format="json", emit_cuts=True, compare_oracle=True),
            dict(output_format="json", algorithm="oracle"),
            dict(output_format="json", all_sinks=True),
            dict(compare_oracle=True),
            dict(emit_cuts=True, trace=True, compare_oracle=True, all_sinks=True),
        ],
    )
    def test_builds_no_cut_objects(self, monkeypatch, options):
        # Text and JSON cut rows are both joined from pre-rendered edges.
        def refuse(*args):
            raise AssertionError("cut_edges called")

        for module in (mincuts.cli, mincuts.enumeration, mincuts.oracle):
            monkeypatch.setattr(module, "cut_edges", refuse)
        code, out, _ = _run(RunConfig(str(FIXTURES / "fig1.edges"), **options))
        assert code == EXIT_OK
        assert "s" in out


# Labels that JSON must escape, that are not ASCII, or whose string order
# differs from their first-appearance (index) order.
_LABELS = st.one_of(
    st.sampled_from(['"', "\\", 'a"b', "c\\d", "é", "日本", "\x7f", "9", "10"]),
    st.integers(0, 30).map(str),
    st.text(st.characters(whitelist_categories=("L", "N", "P", "S")),
            min_size=1, max_size=3),
).filter(lambda x: not x.startswith("#"))


@st.composite
def _awkward_graphs(draw):
    """(source, sink, edges): a random spanning tree plus a few chords."""
    labels = draw(st.lists(_LABELS, min_size=3, max_size=7, unique=True))
    edges = [(x, labels[draw(st.integers(0, i))]) for i, x in enumerate(labels[1:])]
    chords = st.tuples(st.sampled_from(labels), st.sampled_from(labels))
    edges += [(a, b) for a, b in draw(st.lists(chords, max_size=6)) if a != b]
    return labels[0], labels[1], edges


def _label_rows(g, sets, cuts):
    names = g.node_names
    return (
        [sorted(g.label_set(u)) for u in sets],
        [sorted(sorted([names[a], names[b]]) for a, b in cut) for cut in cuts],
    )


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    graph=_awkward_graphs(),
    all_sinks=st.booleans(),
    algorithm=st.sampled_from(["corrected", "oracle"]),
)
def test_awkward_labels_stream_canonical_json(tmp_path, graph, all_sinks, algorithm):
    source, sink, edges = graph
    path = tmp_path / "awkward.edges"
    path.write_text("".join(f"{a} {b}\n" for a, b in edges), encoding="utf-8")
    config = RunConfig(str(path), source=source, sink=None if all_sinks else sink,
                       algorithm=algorithm, all_sinks=all_sinks, output_format="json")
    code, out, _ = _run(config)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    if all_sinks:
        sinks = [x for x in dict.fromkeys(x for e in edges for x in e) if x != source]
        runs = payload["runs"]
    else:
        sinks, runs = [sink], [payload]
    assert len(runs) == len(sinks)
    for sink, got in zip(sinks, runs):
        g = prune_irrelevant(build_graph(edges, source, sink))
        if algorithm == "oracle":
            sets = sorted(brute_force_mcvs(g).mcvs, key=lambda u: sorted(g.label_set(u)))
            cuts = [cut_edges(g, u) for u in sets]
        else:
            report = enumerate_mcvs(g)
            sets, cuts = report.mcvs, report.cuts
        assert (got["mcvs"], got["cuts"]) == _label_rows(g, sets, cuts)


def _members(u):
    """The node indices in mask ``u``."""
    return [v for v in range(u.bit_length()) if u >> v & 1]


def _text_set(g, nodes):
    return "{" + ",".join(g.node_names[v] for v in sorted(nodes)) + "}"


def _text_cut(g, u):
    crossing = sorted((a, b) for a, b in g.edges if (u >> a & 1) != (u >> b & 1))
    return "{" + ", ".join(f"{g.node_names[a]}-{g.node_names[b]}" for a, b in crossing) + "}"


def _text_rows(g, report, comparison):
    """The indented rows of one run's text report, rendered from its parts:
    labels in index order, edges as ``u-v`` sorted by index."""
    rows = [f"  {_text_set(g, _members(u))}  cut {_text_cut(g, u)}" for u in report.mcvs]
    for ev in report.trace:
        parts = [ev.step.value, f"prefix={_text_set(g, ev.prefix)}"]
        if ev.node is not None:
            parts.append(f"node={g.node_names[ev.node]}")
        if ev.candidates:
            parts.append(f"candidates={_text_set(g, _members(ev.candidates))}")
        rows.append("  " + " ".join(parts))
    for name, group in (("missing", comparison.missing), ("spurious", comparison.spurious)):
        for u in sorted(group, key=lambda u: sorted(g.label_set(u))):
            rows.append(f"  {name}: {_text_set(g, _members(u))}")
    return rows


@st.composite
def _relabelled_corpus_graphs(draw):
    """(source, edges): a corpus graph under awkward labels, its edge lines
    shuffled so that index order differs from the corpus graph's."""
    seed = draw(st.integers(0, 2**32 - 1))
    g = corpus_entries(CorpusSpec(1, min_nodes=3, max_nodes=8, seed=seed))[0].graph
    labels = draw(st.lists(_LABELS, min_size=g.node_count, max_size=g.node_count,
                           unique=True))
    edges = draw(st.permutations(sorted(g.edges)))
    return labels[g.source], [(labels[a], labels[b]) for a, b in edges]


# Both b-policies of the corrected search, then the replica's transfers:
# the persistent policy and the replica give missing and spurious rows.
_ENGINES = ["scoped", "persistent", "goto-step1", "goto-step3", "goto-step4"]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(graph=_relabelled_corpus_graphs(), engine=st.sampled_from(_ENGINES),
       prune=st.booleans())
def test_text_rows_render_labels_in_index_order(tmp_path, graph, engine, prune):
    source, edges = graph
    path = tmp_path / "awkward.edges"
    path.write_text("".join(f"{a} {b}\n" for a, b in edges), encoding="utf-8")
    yeh = engine.startswith("goto")
    config = RunConfig(
        str(path), source=source, all_sinks=True, prune=prune, emit_cuts=True,
        trace=True, compare_oracle=True,
        **(dict(algorithm="yeh-original", yeh_policy=engine) if yeh else dict(b_policy=engine)),
    )
    code, out, _ = _run(config)

    expected, codes = [], []
    for sink in [x for x in dict.fromkeys(x for e in edges for x in e) if x != source]:
        g = build_graph(edges, source, sink)
        if prune:
            g = prune_irrelevant(g)
        if yeh:
            opts = EnumerationOptions(record_trace=True)
            report = run_yeh_original(g, YehPolicy(engine), opts)  # type: ignore[arg-type]
        else:
            report = enumerate_mcvs(g, EnumerationOptions(b_policy=engine, record_trace=True))
        comparison = diff(report, brute_force_mcvs(g))
        expected += _text_rows(g, report, comparison)
        limit = report.status is RunStatus.STEP_LIMIT_EXCEEDED
        codes.append(max(EXIT_STEP_LIMIT if limit else EXIT_OK,
                         EXIT_OK if comparison.agree else EXIT_MISMATCH))
    assert code == max(codes)
    assert [line for line in out.splitlines() if line.startswith("  ")] == expected


@st.composite
def _relabelled_sparse_graphs(draw):
    """(source, sink, edges): a sparse graph of up to 40 nodes under awkward
    labels, its edge lines shuffled, so that its rows span several bytes of
    node and edge bits and label order differs from index order."""
    g = draw(sparse_graphs())
    labels = draw(st.lists(_LABELS, min_size=g.node_count, max_size=g.node_count,
                           unique=True))
    edges = draw(st.permutations(sorted(g.edges)))
    return labels[g.source], labels[g.sink], [(labels[a], labels[b]) for a, b in edges]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(graph=_relabelled_sparse_graphs())
def test_rows_match_label_sets_and_cut_edges_across_bytes(tmp_path, graph):
    source, sink, edges = graph
    path = tmp_path / "sparse.edges"
    path.write_text("".join(f"{a} {b}\n" for a, b in edges), encoding="utf-8")
    g = build_graph(edges, source, sink)
    names, sets = g.node_names, enumerate_mcvs(g).mcvs
    cuts = [sorted(cut_edges(g, u)) for u in sets]
    config = RunConfig(str(path), source=source, sink=sink, prune=False, emit_cuts=True)

    code, out, _ = _run(dataclasses.replace(config, output_format="json"))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    mcv_rows, cut_rows = _label_rows(g, sets, cuts)
    _assert_rows_equal(payload["mcvs"], mcv_rows)
    _assert_rows_equal(payload["cuts"], cut_rows)

    code, out, _ = _run(config)
    assert code == EXIT_OK
    expected = [
        "  {" + ",".join(g.label_set(u)) + "}  cut {"
        + ", ".join(f"{names[a]}-{names[b]}" for a, b in cut) + "}"
        for u, cut in zip(sets, cuts)
    ]
    _assert_rows_equal([line for line in out.splitlines() if line.startswith("  ")], expected)


def _assert_rows_equal(got, expected):
    """Row by row: a failure reports one row, not a diff of thousands."""
    assert len(got) == len(expected)
    for row, want in zip(got, expected):
        assert row == want


@pytest.mark.parametrize("level", [None, 2], ids=["text", "json"])
def test_row_tables_fill_on_use_and_stay_small(level):
    # 1,500 nodes span 188 bytes of node bits: full tables would hold 256
    # entries per byte, each as wide as the graph.
    g = build_graph(path_graph_edges(1500), "s", "t")
    rows = _RowFragments(g, level)
    tables = [t for t in vars(rows).values()
              if isinstance(t, list) and all(isinstance(x, _ByteTable) for x in t)]
    assert len(tables) == 4
    assert all(len(table) == 1 for t in tables for table in t)
    pairs = ((rows.mcv, rows._node_positions, rows._node_text),
             (rows.cut, rows._incidence, rows._edge_text))
    for u in enumerate_mcvs(g).mcvs:
        for row, masks, texts in pairs:
            row(u)
            # Each byte of the row's masks now has its entry, so these
            # lookups are hits, and rendering the row again adds none.
            chunks = u.to_bytes(len(masks), "little")
            assert all(b in t for t, b in zip(masks, chunks))
            p = reduce(xor, map(dict.__getitem__, masks, chunks))
            assert all(b in t for t, b in zip(texts, p.to_bytes(len(texts), "little")))
            size = sum(map(len, masks + texts))
            row(u)
            assert sum(map(len, masks + texts)) == size
    assert all(len(table) < 256 // 4 for t in tables for table in t)


_LONG_LABELS = ["x" * 10_000, "y" * 10_000]


@st.composite
def _rough_edge_files(draw):
    """Edge-list bytes with mixed line endings, comments, blank lines and
    labels of 10,000 characters: a tree on ``s``, ``t`` and up to four more
    labels plus chords, which may be self-loops."""
    names = ["s", "t"] + draw(st.lists(st.sampled_from(["a", "b", *_LONG_LABELS]),
                                       unique=True, max_size=4))
    lines = [f"{names[draw(st.integers(0, i - 1))]} {x}" for i, x in enumerate(names) if i]
    chords = st.tuples(st.sampled_from(names), st.sampled_from(names))
    lines += [f"{a} {b}" for a, b in draw(st.lists(chords, max_size=3))]
    lines += draw(st.lists(st.sampled_from(["", "# note", "  "]), max_size=3))
    lines = draw(st.permutations(lines))
    newlines = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                             min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, newlines)).encode()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_rough_edge_files(), output_format=st.sampled_from(["text", "json"]),
       all_sinks=st.booleans(), prune=st.booleans(), emit_cuts=st.booleans())
def test_rough_input_exits_zero_or_one(tmp_path, data, output_format, all_sinks, prune,
                                      emit_cuts):
    path = tmp_path / "rough.edges"
    path.write_bytes(data)
    argv = ["run", str(path), "--format", output_format, "--prune" if prune else "--no-prune"]
    argv += ["--all-sinks"] * all_sinks + ["--emit-cuts"] * emit_cuts
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_USAGE)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_OK and output_format == "json":
        json.loads(out.getvalue())


@pytest.mark.parametrize("output_format", ["text", "json"])
def test_crlf_long_labels_all_sinks_in_a_process(tmp_path, output_format):
    # A pendant long label is pruned for every sink but itself.
    x, y = _LONG_LABELS
    path = tmp_path / "crlf.edges"
    path.write_bytes(f"s {x}\r\n{x} t\r\ns a\r\na t\r\nt {y}\r\n".encode())
    result = subprocess.run(
        [sys.executable, "-m", "mincuts.cli", "run", str(path), "--all-sinks",
         "--emit-cuts", "--format", output_format],
        env=_cli_env(), capture_output=True, text=True,
    )
    assert result.returncode == EXIT_OK
    assert "Traceback" not in result.stderr
    assert f"warning: pruned nodes on no source-sink path: {y}" in result.stderr
    assert x in result.stdout and "\r" not in result.stdout


class TestYehRuns:
    def test_goto_step4_banner_and_exit_zero(self):
        config = RunConfig(
            str(FIXTURES / "fig1.edges"),
            algorithm="yeh-original",
            yeh_policy="goto-step4",
            order="script:1,3",
        )
        code, out, _ = _run(config)
        assert code == EXIT_OK
        assert "known-incomplete" in out
        assert _text_mcvs(out) == as_frozen([{"s", "1"}])

    def test_goto_step1_exit_three(self):
        config = RunConfig(
            str(FIXTURES / "fig1.edges"),
            algorithm="yeh-original",
            yeh_policy="goto-step1",
            order="priority:3",
            step_limit=1000,
        )
        code, out, _ = _run(config)
        assert code == EXIT_STEP_LIMIT
        assert "step-limit-exceeded" in out

    def test_goto_step3_compare_oracle_mismatch(self):
        config = RunConfig(
            str(FIXTURES / "fig1.edges"),
            algorithm="yeh-original",
            yeh_policy="goto-step3",
            order="script:1,3",
            compare_oracle=True,
        )
        code, out, _ = _run(config)
        # The bogus set is recorded, then the script runs dry (usage error)
        # and the oracle comparison also fails; mismatch wins, spurious shown.
        assert code == EXIT_MISMATCH
        assert "MISMATCH" in out
        assert "spurious: {s,1,3}" in out


class TestPruneAndGap:
    def test_appendage_no_prune_mismatch_exit_two(self):
        config = RunConfig(
            str(FIXTURES / "appendage.edges"),
            prune=False,
            compare_oracle=True,
        )
        code, out, _ = _run(config)
        assert code == EXIT_MISMATCH
        assert "missing: {s,a,b}" in out
        assert "spurious: {s}" in out

    def test_appendage_pruned_agrees(self):
        config = RunConfig(str(FIXTURES / "appendage.edges"), compare_oracle=True)
        code, out, err = _run(config)
        assert code == EXIT_OK
        assert "oracle comparison: agree" in out
        assert "pruned nodes" in err and "a" in err and "b" in err

    def test_pruned_nodes_in_json(self):
        config = RunConfig(str(FIXTURES / "appendage.edges"), output_format="json")
        _, out, _ = _run(config)
        assert json.loads(out)["graph"]["pruned_nodes"] == ["a", "b"]


class TestAllSinks:
    def test_fig1_sections(self):
        config = RunConfig(str(FIXTURES / "fig1.edges"), all_sinks=True)
        code, out, _ = _run(config)
        assert code == EXIT_OK
        for label in ["1", "2", "3", "4", "t"]:
            assert f"== sink {label} ==" in out

    def test_json_runs_array(self):
        config = RunConfig(
            str(FIXTURES / "path3.edges"), all_sinks=True, output_format="json"
        )
        code, out, _ = _run(config)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert [r["graph"]["sink"] for r in payload["runs"]] == ["1", "t"]

    def test_graph_built_once(self, tmp_path):
        # One input, one merge warning, however many sinks it is run for.
        path = tmp_path / "parallel.edges"
        path.write_text("s a\na t\ns a\na s\nt b\n")
        code, out, err = _run(RunConfig(str(path), all_sinks=True))
        assert code == EXIT_OK
        assert out.count("== sink ") == 3
        assert err.count("warning: merged") == 1
        assert "warning: merged 2 parallel edge(s)\n" in err

    @pytest.mark.parametrize("output_format", ["text", "json"])
    def test_source_only_file_exits_one_before_output(self, tmp_path, output_format):
        path = tmp_path / "source-only.edges"
        path.write_text("s s\n")
        config = RunConfig(str(path), all_sinks=True, output_format=output_format)
        code, out, err = _run(config)
        assert (code, out) == (EXIT_USAGE, "")
        assert "--all-sinks" in err

    @pytest.mark.parametrize("output_format", ["text", "json"])
    def test_source_only_file_via_main(self, tmp_path, capsys, output_format):
        path = tmp_path / "source-only.edges"
        path.write_text("s s\n")
        argv = ["run", str(path), "--all-sinks", "--format", output_format]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--all-sinks" in captured.err


class TestUsageErrors:
    def test_yeh_policy_required(self):
        config = RunConfig(str(FIXTURES / "fig1.edges"), algorithm="yeh-original")
        code, _, err = _run(config)
        assert code == EXIT_USAGE
        assert "--yeh-policy" in err

    def test_yeh_policy_rejected_for_corrected(self):
        config = RunConfig(
            str(FIXTURES / "fig1.edges"), yeh_policy="goto-step1"
        )
        code, _, _ = _run(config)
        assert code == EXIT_USAGE

    def test_step_limit_only_for_yeh(self):
        config = RunConfig(str(FIXTURES / "fig1.edges"), step_limit=10)
        code, _, _ = _run(config)
        assert code == EXIT_USAGE

    def test_sink_rejected_with_all_sinks(self):
        # Before: --sink was silently ignored and the run exited 0.
        config = RunConfig(str(FIXTURES / "fig1.edges"), sink="3", all_sinks=True)
        code, out, err = _run(config)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--sink" in err and "--all-sinks" in err

    @pytest.mark.parametrize(
        "fields, flag",
        [
            (dict(compare_oracle=True), "--compare-oracle"),
            (dict(trace=True), "--trace"),
            (dict(order="random:1"), "--order"),
        ],
    )
    def test_search_option_rejected_with_oracle(self, fields, flag):
        # Before: the oracle ran, ignored the option and exited 0.
        config = RunConfig(str(FIXTURES / "fig1.edges"), algorithm="oracle", **fields)
        code, out, err = _run(config)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"error: {flag} does not apply to --algorithm oracle" in err

    @pytest.mark.parametrize(
        "fields",
        [dict(algorithm="oracle"), dict(algorithm="yeh-original", yeh_policy="goto-step4")],
        ids=["oracle", "yeh-original"],
    )
    def test_b_policy_rejected_outside_corrected(self, fields):
        # Before: both runs exited 0 and the JSON options named no b-policy.
        config = RunConfig(
            str(FIXTURES / "fig1.edges"), b_policy="persistent", output_format="json", **fields
        )
        code, out, err = _run(config)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"error: --b-policy does not apply to --algorithm {fields['algorithm']}" in err

    def test_unreadable_file(self):
        code, _, err = _run(RunConfig("does-not-exist.edges"))
        assert code == EXIT_USAGE
        assert "cannot read" in err

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "latin1.edges"
        path.write_bytes(b"s \xff\n\xff t\n")
        code, out, err = _run(RunConfig(str(path)))
        assert code == EXIT_USAGE
        assert out == ""
        assert f"error: cannot read {path}:" in err

    def test_bad_order_spec(self):
        config = RunConfig(str(FIXTURES / "fig1.edges"), order="sideways")
        code, _, err = _run(config)
        assert code == EXIT_USAGE
        assert "order" in err

    def test_unknown_script_label(self):
        config = RunConfig(str(FIXTURES / "fig1.edges"), order="script:nope")
        code, _, _ = _run(config)
        assert code == EXIT_USAGE

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("s t\none two three\n")
        code, _, err = _run(RunConfig(str(path)))
        assert code == EXIT_USAGE
        assert "line 2" in err

    @pytest.mark.parametrize("separator", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85",
                                           "\u2028", "\u2029"])
    def test_parse_error_counts_only_newlines(self, tmp_path, separator):
        # Before: ``str.splitlines`` also broke the comment at ``separator``,
        # and the error named line 5.
        path = tmp_path / "bad.edges"
        path.write_text(f"s 1\n# note{separator}page two\n1 t\nbad\n", encoding="utf-8")
        code, _, err = _run(RunConfig(str(path)))
        assert (code, err) == (EXIT_USAGE, "error: line 4: expected two labels, got 1\n")

    def test_script_exhausted_exit_one(self):
        config = RunConfig(str(FIXTURES / "fig1.edges"), order="script:1")
        code, out, _ = _run(config)
        assert code == EXIT_USAGE
        assert "script-exhausted" in out

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"algorithm": "nonsense"}, "unknown algorithm 'nonsense'"),
            ({"output_format": "yaml"}, "unknown output format 'yaml'"),
            ({"b_policy": "bogus"}, "unknown b-policy 'bogus'"),
            ({"b_policy": "bogus", "algorithm": "oracle"}, "unknown b-policy 'bogus'"),
        ],
        # Explicit, so that rewording a message renames no test; they keep
        # the ids pytest derived from the messages when they were written.
        ids=[
            "fields0-unknown algorithm 'nonsense'",
            "fields1-unknown output format 'yaml'",
            "fields2-unknown b-policy 'bogus'",
            "fields3-unknown b-policy 'bogus'",
        ],
    )
    def test_unknown_choice_exit_one(self, fields, message):
        # argparse ``choices`` never see a config built by a library caller.
        code, out, err = _run(RunConfig(str(FIXTURES / "fig1.edges"), **fields))
        assert (code, out) == (EXIT_USAGE, "")
        assert f"error: {message}" in err

    def test_nonpositive_step_limit_exit_one(self):
        config = RunConfig(
            str(FIXTURES / "fig1.edges"),
            algorithm="yeh-original",
            yeh_policy="goto-step1",
            step_limit=0,
        )
        code, out, err = _run(config)
        assert (code, out) == (EXIT_USAGE, "")
        assert "error: --step-limit must be positive" in err

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_nonpositive_step_limit_named_as_flag(self, tmp_path, capsys, limit):
        # The message names the flag, not the library field, and comes
        # before the input is read.
        argv = ["run", str(tmp_path / "missing.edges"), "--algorithm", "yeh-original",
                "--yeh-policy", "goto-step1", "--step-limit", limit]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --step-limit must be positive\n"

    def test_oracle_guard_exit_one(self, tmp_path):
        path = tmp_path / "long.edges"
        names = ["s"] + [str(i) for i in range(1, 30)] + ["t"]
        path.write_text("".join(f"{a} {b}\n" for a, b in zip(names, names[1:])))
        code, _, err = _run(RunConfig(str(path), algorithm="oracle"))
        assert code == EXIT_USAGE
        assert "exhaustive limit" in err

    def test_oracle_guard_runs_before_the_search(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("searched a graph the oracle cannot check")

        monkeypatch.setattr(mincuts.cli, "enumerate_mcvs", refuse)
        path = tmp_path / "long.edges"
        names = ["s"] + [str(i) for i in range(1, 24)] + ["t"]
        path.write_text("".join(f"{a} {b}\n" for a, b in zip(names, names[1:])))
        code, out, err = _run(RunConfig(str(path), compare_oracle=True))
        assert (code, out) == (EXIT_USAGE, "")
        assert "error: 25 nodes exceeds the exhaustive limit of 24" in err

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(order="bogus"), "bad order spec"),
            (dict(algorithm="yeh-original", yeh_policy="goto-step1", step_limit=0),
             "--step-limit must be positive"),
        ],
        ids=["fields0-bad order spec", "fields1---step-limit must be positive"],
    )
    def test_bad_option_fails_before_the_oracle_scan(self, monkeypatch, fields, message):
        def refuse(*args):
            raise AssertionError("scanned before the options were checked")

        monkeypatch.setattr(mincuts.cli, "brute_force_mcvs", refuse)
        config = RunConfig(str(FIXTURES / "fig1.edges"), compare_oracle=True, **fields)
        code, out, err = _run(config)
        assert (code, out) == (EXIT_USAGE, "")
        assert message in err


class TestMain:
    def test_run_subcommand(self, capsys):
        code = main(["run", str(FIXTURES / "fig1.edges"), "--emit-cuts"])
        assert code == EXIT_OK
        assert "mcvs (9):" in capsys.readouterr().out

    def test_corpus_subcommand(self, capsys):
        code = main(
            [
                "corpus",
                "--count",
                "5",
                "--seed",
                "6",
                "--min-nodes",
                "4",
                "--max-nodes",
                "6",
                "--b-policies",
                "scoped",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("status=agree") == 5
        assert "# 5 graphs, 0 mismatch(es)" in out

    def test_corpus_mismatch_exit_two(self, capsys):
        code = main(
            [
                "corpus",
                "--count",
                "7",
                "--seed",
                "42",
                "--b-policies",
                "persistent",
            ]
        )
        assert code == EXIT_MISMATCH

    @pytest.mark.parametrize(
        "policies, message",
        [
            ("scoped,foo", "unknown b-policy 'foo'"),
            (",", "no b-policy given"),
            ("scoped,scoped", "b-policy 'scoped' given twice"),
        ],
        ids=[
            "scoped,foo-unknown b-policy 'foo'",
            ",-no b-policy given",
            "scoped,scoped-b-policy 'scoped' given twice",
        ],
    )
    def test_corpus_bad_b_policies_exit_one(self, policies, message, capsys):
        # Before: ``foo`` ran as persistent (exit 2), ``,`` ran nothing (exit 0),
        # ``scoped,scoped`` ran every scoped check twice (exit 0).
        code = main(["corpus", "--count", "3", "--seed", "1", "--b-policies", policies])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert "graph=" not in captured.out
        assert f"error: {message}" in captured.err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--random-orders", "-1"], "--random-orders must be non-negative"),
            (
                ["--min-nodes", "12", "--max-nodes", "12", "--edge-prob", "0.01"],
                "raise --edge-prob",
            ),
        ],
        ids=["negative-random-orders", "hopeless-edge-prob"],
    )
    def test_corpus_bad_settings_exit_one(self, args, message, capsys):
        # Before: ``-1`` ran as 0 random orders; the edge probability hung.
        code = main(["corpus", "--count", "1", "--seed", "1", *args])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert "graph=" not in captured.out
        assert message in captured.err
        assert captured.err.startswith("error: ")

    def test_corpus_out_dir_on_a_file_exits_one(self, tmp_path, capsys):
        # Before: the run ended in a FileExistsError traceback.
        path = tmp_path / "taken"
        path.write_text("")
        code = main(["corpus", "--count", "1", "--seed", "1", "--out-dir", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert "graph=" not in captured.out
        assert captured.err == "error: cannot create --out-dir: File exists\n"

    def test_corpus_unwritable_artifact_exits_one(self, tmp_path, capsys):
        # Before: the run ended in an IsADirectoryError traceback.
        taken = tmp_path / "counterexample-0003.edges"
        taken.mkdir()
        code = main(["corpus", "--count", "20", "--seed", "42", "--out-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out.count("\n") == 3
        assert captured.err == f"error: cannot write {taken}: Is a directory\n"

    @pytest.mark.parametrize(
        "args, flag, field",
        [
            (["--count", "0"], "--count", "graph_count"),
            (["--edge-prob", "2"], "--edge-prob", "edge_probability"),
            (["--random-orders", "-1"], "--random-orders", "random_orders"),
            (
                ["--min-nodes", "12", "--max-nodes", "12", "--edge-prob", "0.01"],
                "--edge-prob",
                "edge_probability",
            ),
            (["--max-nodes", "13"], "--max-nodes", "max_nodes"),
        ],
        ids=["count", "edge-prob", "random-orders", "hopeless-edge-prob", "max-nodes"],
    )
    def test_corpus_errors_name_the_flag(self, args, flag, field, capsys):
        # Before: the message named the library field, e.g. ``graph_count``.
        code = main(["corpus", "--count", "1", "--seed", "1", *args])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("error: ")
        assert flag in err
        assert field not in err
        assert "Traceback" not in err

    def test_corpus_errors_keep_a_path_that_names_a_field(self, tmp_path, capsys):
        # Before: ``error: cannot write .../--out-dir/counterexample-0003.edges``.
        for name in ("out_dir", " ".join(_CORPUS_FLAGS)):
            out_dir = tmp_path / name
            taken = out_dir / "counterexample-0003.edges"
            taken.mkdir(parents=True)
            code = main(["corpus", "--count", "20", "--seed", "42", "--out-dir", str(out_dir)])
            assert code == EXIT_USAGE
            assert capsys.readouterr().err == f"error: cannot write {taken}: Is a directory\n"
        # The library's own word is still renamed when the path is that word.
        file = tmp_path / "sub" / "out_dir"
        file.parent.mkdir()
        file.write_text("")
        code = main(["corpus", "--count", "1", "--seed", "1", "--out-dir", str(file)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: cannot create --out-dir: File exists\n"

    def test_corpus_errors_keep_a_b_policy_that_names_a_field(self, capsys):
        # Before: ``error: unknown b-policy '--min-nodes'``.
        for policy in ("min_nodes", " ".join(_CORPUS_FLAGS)):
            code = main(["corpus", "--count", "3", "--seed", "1", "--b-policies", policy])
            captured = capsys.readouterr()
            assert code == EXIT_USAGE
            assert "graph=" not in captured.out
            assert captured.err == f"error: unknown b-policy {policy!r}\n"

    def test_usage_error_exit_one(self, capsys):
        code = main(["run", str(FIXTURES / "fig1.edges"), "--algorithm", "nonsense"])
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_file_names_it(self, tmp_path, capsys):
        path = tmp_path / "latin1.edges"
        path.write_bytes(b"s \xff\n\xff t\n")
        assert main(["run", str(path)]) == EXIT_USAGE
        assert f"error: cannot read {path}:" in capsys.readouterr().err

    def test_k4_fixture(self, capsys):
        code = main(["run", str(FIXTURES / "k4.edges")])
        assert code == EXIT_OK
        assert "mcvs (4):" in capsys.readouterr().out


def _cli_env():
    src = os.path.dirname(os.path.dirname(mincuts.cli.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


@pytest.mark.parametrize(
    "args",
    [
        ["run", "GRID", "--format", "json"],
        ["run", "GRID", "--emit-cuts"],
        ["corpus", "--count", "4000", "--min-nodes", "2", "--max-nodes", "3",
         "--random-orders", "0", "--b-policies", "scoped"],
    ],
    ids=["json", "text", "corpus"],
)
def test_closed_stdout_exits_one_quietly(tmp_path, args):
    # Each command writes at least 190 KB, more than a pipe holds, so the
    # reader's early close must reach the writer.
    name = lambda i, j: {(0, 0): "s", (3, 5): "t"}.get((i, j), f"n{i}_{j}")
    grid = [(name(i, j), name(i + a, j + b))
            for i in range(4) for j in range(6) for a, b in ((0, 1), (1, 0))
            if i + a < 4 and j + b < 6]
    path = tmp_path / "grid.edges"
    path.write_text("".join(f"{a} {b}\n" for a, b in grid))
    argv = [str(path) if x == "GRID" else x for x in args]
    proc = subprocess.Popen(
        [sys.executable, "-m", "mincuts.cli", *argv], env=_cli_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    code = proc.wait(timeout=60)  # a traceback fits the stderr pipe
    with proc.stderr:
        assert (code, proc.stderr.read()) == (EXIT_USAGE, b"")


def test_cli_run_imports_no_networkx():
    # The package has no runtime dependencies; keep it that way.
    script = (
        "import sys, mincuts.cli\n"
        f"code = mincuts.cli.main(['run', {str(FIXTURES / 'fig1.edges')!r}])\n"
        "assert code == 0, code\n"
        "assert 'networkx' not in sys.modules\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=_cli_env(), capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert "mcvs (9):" in result.stdout


def test_json_array_joins_a_batch_in_small_chunks():
    # Before: a 1,024-row batch came out as one chunk, about 0.6 MB of cut
    # rows, over glibc's mmap threshold.
    rows = [f'"row {i}"' for i in range(1024)]
    chunks = list(_json_array([list(rows)], 1))
    assert max(chunk.count('"row ') for chunk in chunks) <= 128
    pad = _indent(2)
    assert "".join(chunks) == "[" + pad + ("," + pad).join(rows) + _indent(1) + "]"


class TestJsonWriter:
    """An untraced corrected JSON run forks a child that searches while
    this process writes; anything else searches and writes in process."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """Two usable CPUs, and a list that gains an entry per forked search."""
        monkeypatch.setattr(mincuts.corpus, "_usable_cpus", lambda: 2)
        calls = []
        real = mincuts.cli._write_while_searching

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(mincuts.cli, "_write_while_searching", spy)
        return calls

    @staticmethod
    def _to_file(tmp_path, **fields):
        config = RunConfig(str(FIXTURES / "grid3x4.edges"), output_format="json",
                           emit_cuts=True, **fields)
        path = tmp_path / "out.json"
        with open(path, "w", encoding="utf-8") as out:
            code = run(config, out=out, err=io.StringIO())
        return code, path.read_text(encoding="utf-8"), config

    def test_writes_the_in_process_bytes(self, tmp_path, forks):
        with _leaves_nothing():
            code, text, config = self._to_file(tmp_path, compare_oracle=True)
        assert len(forks) == 1
        assert (code, text) == _run(config)[:2]

    @pytest.mark.parametrize(
        "fields",
        [dict(trace=True), dict(all_sinks=True), dict(algorithm="oracle"),
         dict(algorithm="yeh-original", yeh_policy="goto-step4")],
        ids=["trace", "all-sinks", "oracle", "yeh-original"],
    )
    def test_other_runs_write_in_process(self, tmp_path, forks, fields):
        with _leaves_nothing():
            code, text, config = self._to_file(tmp_path, **fields)
        assert forks == []
        assert (code, text) == _run(config)[:2]

    def test_a_stream_without_a_file_descriptor_forks(self, forks, monkeypatch):
        # Before: a stream whose ``fileno`` fails, such as ``io.StringIO``,
        # was written in process.
        config = RunConfig(str(FIXTURES / "grid3x4.edges"), output_format="json",
                           emit_cuts=True)
        with _leaves_nothing():
            forked = _run(config)
        assert len(forks) == 1
        monkeypatch.setattr(mincuts.corpus, "_usable_cpus", lambda: 1)
        assert forked == _run(config)
        assert forked[0] == EXIT_OK and forked[2] == ""

    def test_one_cpu_writes_in_process(self, tmp_path, forks, monkeypatch):
        monkeypatch.setattr(mincuts.corpus, "_usable_cpus", lambda: 1)
        with _leaves_nothing():
            code, _, _ = self._to_file(tmp_path)
        assert (code, forks) == (EXIT_OK, [])

    def test_search_failure_raises_its_traceback(self, tmp_path, forks, monkeypatch):
        def failing(g, opts, on_batch):
            on_batch([1 << g.source])
            raise KeyError("no sets here")

        monkeypatch.setattr(mincuts.cli, "enumerate_mcvs", failing)
        with _leaves_nothing():
            with pytest.raises(RuntimeError, match="forked search failed") as info:
                self._to_file(tmp_path)
        assert "Traceback" in str(info.value) and "no sets here" in str(info.value)

    @pytest.mark.parametrize(
        "side, cpus",
        [("render", 1), ("render", 2), ("search", 1), ("search", 2)],
        ids=["1-cpu", "2-cpus", "search-1-cpu", "search-2-cpus"],
    )
    def test_writer_value_error_raises_as_in_process(self, tmp_path, forks, monkeypatch,
                                                     side, cpus):
        # Before: the forked writer's ValueError came back as RuntimeError,
        # and an in-process search's one ended the run as a usage error.
        monkeypatch.setattr(mincuts.corpus, "_usable_cpus", lambda: cpus)

        def refuse(*args, **kwargs):
            raise ValueError("no rows here", 7)

        if side == "render":
            monkeypatch.setattr(_RowFragments, "cuts", refuse)
        else:
            monkeypatch.setattr(mincuts.cli, "enumerate_mcvs", refuse)
        with _leaves_nothing():
            with pytest.raises(ValueError) as info:
                self._to_file(tmp_path)
        assert (type(info.value), info.value.args) == (ValueError, ("no rows here", 7))
        assert len(forks) == (cpus > 1)

    def test_search_that_dies_is_reported(self, tmp_path, forks, monkeypatch):
        monkeypatch.setattr(mincuts.cli, "enumerate_mcvs",
                            lambda g, opts, on_batch: os._exit(3))
        with _leaves_nothing():
            with pytest.raises(RuntimeError, match="forked search exited early"):
                self._to_file(tmp_path)

    def test_failed_render_leaves_no_search(self, tmp_path, forks, monkeypatch):
        def refuse(self, batch):
            raise KeyError("no rows here")

        monkeypatch.setattr(_RowFragments, "cuts", refuse)
        with _leaves_nothing():
            with pytest.raises(KeyError, match="no rows here"):
                self._to_file(tmp_path)
        assert len(forks) == 1


def test_reader_that_leaves_early_ends_the_writer_quietly(tmp_path):
    # ``| head -c 64`` under ``-X dev``, which shows unclosed files; two CPUs
    # are given in the child, so its search runs in a forked child.
    path = tmp_path / "grid.edges"
    path.write_text("".join(f"{a} {b}\n" for a, b in grid_graph_edges(4, 6)))
    script = (
        "import os, sys\n"
        "import mincuts.corpus\n"
        "mincuts.corpus._usable_cpus = lambda: 2\n"
        "from mincuts.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    sys.exit(code)\n"
        "sys.exit('a child is left')\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-X", "dev", "-c", script,
         "run", str(path), "--format", "json", "--emit-cuts"],
        env=_cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(64)) == 64
    proc.stdout.close()
    code = proc.wait(timeout=60)
    with proc.stderr:
        assert (code, proc.stderr.read()) == (EXIT_USAGE, b"")


def test_forked_search_succeeds_cleanly_under_dev_mode(tmp_path):
    # The success path of the fork, under ``-X dev -W error``, which turns an
    # unclosed file into an error on stderr: the child exits 0 with nothing
    # on stderr, forks exactly when given two CPUs, and leaves no child.
    path = tmp_path / "grid.edges"
    path.write_text("".join(f"{a} {b}\n" for a, b in grid_graph_edges(4, 6)))
    script = (
        "import os, sys\n"
        "import mincuts.cli, mincuts.corpus\n"
        "cpus = int(sys.argv[1])\n"
        "mincuts.corpus._usable_cpus = lambda: cpus\n"
        "forks = []\n"
        "real = mincuts.cli._write_while_searching\n"
        "mincuts.cli._write_while_searching = lambda *a: forks.append(a) or real(*a)\n"
        "code = mincuts.cli.main(sys.argv[2:])\n"
        "if len(forks) != (cpus > 1):\n"
        "    sys.exit(f'{len(forks)} forked searches on {cpus} CPUs')\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    sys.exit(code)\n"
        "sys.exit('a child is left')\n"
    )
    outputs = []
    for cpus in (2, 1):
        target = tmp_path / f"{cpus}.json"
        with open(target, "wb") as out:
            proc = subprocess.run(
                [sys.executable, "-X", "dev", "-W", "error", "-c", script, str(cpus),
                 "run", str(path), "--format", "json", "--emit-cuts"],
                env=_cli_env(), stdout=out, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]
    json.loads(outputs[0])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "args, forks",
    [
        (["run", "FIG1", "--format", "json"], True),
        (["run", "FIG1"], False),
        (["run", "FIG1", "--format", "json", "--trace"], False),
        (["corpus", "--count", "3"], False),
    ],
    ids=["json-writer", "text", "json-traced", "corpus"],
)
def test_full_stdout_exits_one_with_a_message(args, forks):
    # Before: a traceback, of an OSError or of the writer's RuntimeError.
    # Two CPUs are given in the child, so the untraced JSON's search runs in
    # a forked child and the corpus in two workers; the child adds 10 to its
    # exit code for each forked search.
    script = (
        "import sys\n"
        "import mincuts.cli, mincuts.corpus\n"
        "mincuts.corpus._usable_cpus = lambda: 2\n"
        "forks = []\n"
        "real = mincuts.cli._write_while_searching\n"
        "mincuts.cli._write_while_searching = lambda *a: forks.append(a) or real(*a)\n"
        "sys.exit(mincuts.cli.main(sys.argv[1:]) + 10 * len(forks))\n"
    )
    argv = [str(FIXTURES / "fig1.edges") if x == "FIG1" else x for x in args]
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-c", script, *argv],
            env=_cli_env(), stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    assert proc.returncode == EXIT_USAGE + 10 * forks, proc.stderr
    assert proc.stderr == f"error: {os.strerror(errno.ENOSPC)}\n"
