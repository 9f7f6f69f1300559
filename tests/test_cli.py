"""Command-line interface behaviour and determinism."""

import gc
import hashlib
import itertools
import json
import tracemalloc

import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

import leafage.gadget
import leafage.graphs
from conftest import count_calls
from leafage.cli import _json_text, main
from leafage.cliquetrees import CliqueTree
from leafage.demo import DEMO_EDGE_LIST
from leafage.gadget import build_gadget, parse_clause_file
from leafage.graphs import format_edge_list
from leafage.oracle import random_chordal

FOUR_CYCLE = "e a b\ne b c\ne c d\ne d a\n"
PATH_GRAPH = "e a b\ne b c\ne c d\n"
K4 = "e a b\ne a c\ne a d\ne b c\ne b d\ne c d\n"
CLAUSES = "k 3\nv1 v2 v3\nv2 v3 v4\n"


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, stdin=None):
    return runner.invoke(main, args, input=stdin, catch_exceptions=False)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestCheck:
    def test_chordal_exit_zero(self, runner, tmp_path):
        res = invoke(runner, ["check", write(tmp_path, "g.txt", DEMO_EDGE_LIST)])
        assert res.exit_code == 0
        assert res.output.startswith("chordal")

    def test_non_chordal_exit_one(self, runner, tmp_path):
        res = invoke(runner, ["check", write(tmp_path, "g.txt", FOUR_CYCLE)])
        assert res.exit_code == 1
        assert "not chordal" in res.output
        witness = res.output.strip().splitlines()[-1].split()
        assert sorted(witness) == ["a", "b", "c", "d"]

    def test_missing_file_exit_two(self, runner):
        res = runner.invoke(main, ["check", "no-such-file.txt"])
        assert res.exit_code == 2

    def test_format_error_exit_two(self, runner, tmp_path):
        res = invoke(runner, ["check", write(tmp_path, "g.txt", "e a a\n")])
        assert res.exit_code == 2
        assert "line 1" in res.output

    def test_stdin_dash(self, runner):
        res = invoke(runner, ["check", "-"], stdin=PATH_GRAPH)
        assert res.exit_code == 0


class TestLeafage:
    def test_demo_graph(self, runner, tmp_path):
        res = invoke(runner, ["leafage", write(tmp_path, "g.txt", DEMO_EDGE_LIST)])
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["leafage"] == 3
        assert len(data["tree_edges"]) == 8
        assert all(r["leaves_before"] - r["leaves_after"] == 1 for r in data["iterations"])

    def test_complete_graph(self, runner, tmp_path):
        res = invoke(runner, ["leafage", write(tmp_path, "g.txt", K4)])
        assert json.loads(res.output)["leafage"] == 0

    def test_interval_graph(self, runner, tmp_path):
        res = invoke(runner, ["leafage", write(tmp_path, "g.txt", PATH_GRAPH)])
        assert json.loads(res.output)["leafage"] == 2

    def test_non_chordal_exit_one(self, runner, tmp_path):
        res = invoke(runner, ["leafage", write(tmp_path, "g.txt", FOUR_CYCLE)])
        assert res.exit_code == 1


class TestVertexLeafage:
    def test_demo_graph(self, runner, tmp_path):
        res = invoke(runner, ["vertex-leafage", write(tmp_path, "g.txt", DEMO_EDGE_LIST)])
        data = json.loads(res.output)
        assert data["vertex_leafage"] == 2
        assert data["leafage"] == 3
        assert data["per_vertex_leaves"]["a"] == 2
        assert list(data) == [
            "leafage", "vertex_leafage", "tree_edges",
            "per_vertex_leaves", "branch_edge_set",
        ]

    def test_complete_graph(self, runner, tmp_path):
        res = invoke(runner, ["vertex-leafage", write(tmp_path, "g.txt", K4)])
        assert json.loads(res.output)["vertex_leafage"] == 0

    def test_ell_bound_exit_one(self, runner, tmp_path):
        res = invoke(
            runner,
            ["vertex-leafage", "--ell", "2", write(tmp_path, "g.txt", DEMO_EDGE_LIST)],
        )
        assert res.exit_code == 1


class TestModel:
    def test_interval_graph_json(self, runner, tmp_path):
        res = invoke(runner, ["model", write(tmp_path, "g.txt", PATH_GRAPH)])
        data = json.loads(res.output)
        assert data["leafage"] == 2
        assert data["vertex_leafage"] == 2

    def test_dot_output(self, runner, tmp_path):
        res = invoke(runner, ["model", "--dot", write(tmp_path, "g.txt", PATH_GRAPH)])
        assert res.output.startswith("graph model {")
        assert res.output.rstrip().endswith("}")
        assert '"n000" -- "n001";' in res.output

    @pytest.mark.parametrize(
        "text",
        [DEMO_EDGE_LIST, format_edge_list(random_chordal(60, density=0.3, seed=2))],
        ids=["demo", "random-60-0.3-2"],
    )
    def test_vertex_leafage_recounted_once(self, runner, monkeypatch, text):
        # The printed counts come from the certificate; only the check in
        # simultaneous_optimum recounts the tree.
        calls = count_calls(monkeypatch, CliqueTree, "max_vertex_leaf_count")
        assert invoke(runner, ["model", "-"], text).exit_code == 0
        assert len(calls) == 1


class TestGadget:
    def test_build(self, runner, tmp_path):
        res = invoke(runner, ["gadget", "build", write(tmp_path, "c.txt", CLAUSES)])
        assert res.exit_code == 0
        assert "e y1 z1" in res.output
        assert "e v4 y2" in res.output

    def test_build_bad_clause_file(self, runner, tmp_path):
        res = invoke(runner, ["gadget", "build", write(tmp_path, "c.txt", "a b\n")])
        assert res.exit_code == 2

    @pytest.mark.parametrize(
        "text, message",
        [("k 2\nv1 v2\nv2 v3\n", "reduction requires clause width k >= 3"),
         ("k 3\ny1 v2 v3\nv2 v3 v4\n", "variable names collide with gadget vertices: ['y1']")],
    )
    def test_build_instance_the_gadget_cannot_take_exit_two(self, runner, text, message):
        res = invoke(runner, ["gadget", "build", "-"], stdin=text)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == f"error: {message}\n"

    def test_verify(self, runner, tmp_path):
        res = invoke(runner, ["gadget", "verify", write(tmp_path, "c.txt", CLAUSES)])
        data = json.loads(res.output)
        assert data["solvable"] is True
        assert data["equivalence_ok"] is True

    def test_verify_bad_limit_exit_two(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("LEAFAGE_ORACLE_LIMIT", "abc")
        res = invoke(runner, ["gadget", "verify", write(tmp_path, "c.txt", CLAUSES)])
        assert res.exit_code == 2
        assert res.stderr == "error: LEAFAGE_ORACLE_LIMIT must be an integer >= 1, not 'abc'\n"

    @pytest.mark.parametrize("value, code", [("abc", 2), ("1", 3)])
    def test_verify_limit_errors_before_brute_force(self, runner, monkeypatch, value, code):
        # The oracle reads and checks its cap first: no brute force runs.
        monkeypatch.setenv("LEAFAGE_ORACLE_LIMIT", value)
        calls = count_calls(monkeypatch, leafage.gadget, "solve_brute_force")
        res = runner.invoke(main, ["gadget", "verify", "-"], input=CLAUSES)
        assert res.exit_code == code
        assert calls == []

    def test_verify_one_elimination_pass(self, runner, monkeypatch):
        # The gadget's clique list is decided once, for the gadget check
        # and the oracle both, from one search pass.
        calls = count_calls(monkeypatch, leafage.graphs, "_mcs")
        for text in (CLAUSES, "k 3\nv1 v2 v3\nv1 v4 v5\nv2 v4 v6\nv3 v5 v6\n"):
            calls.clear()
            assert invoke(runner, ["gadget", "verify", "-"], text).exit_code == 0
            assert len(calls) == 1

    def test_build_then_analyze(self, runner, tmp_path):
        built = invoke(runner, ["gadget", "build", write(tmp_path, "c.txt", CLAUSES)])
        res = invoke(runner, ["vertex-leafage", "-"], stdin=built.output)
        assert json.loads(res.output)["vertex_leafage"] <= 3


class TestOracleCommand:
    def test_demo_graph(self, runner, tmp_path):
        res = invoke(runner, ["oracle", write(tmp_path, "g.txt", DEMO_EDGE_LIST)])
        data = json.loads(res.output)
        assert data["leafage"] == 3
        assert data["vertex_leafage"] == 2
        assert data["tree_count"] == 180
        assert set(data["witness_trees"]) == {"min_leafage", "min_vertex_leafage", "joint"}

    def test_limit_exit_three(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("LEAFAGE_ORACLE_LIMIT", "5")
        res = invoke(runner, ["oracle", write(tmp_path, "g.txt", DEMO_EDGE_LIST)])
        assert res.exit_code == 3

    def test_non_chordal_exit_one(self, runner, tmp_path):
        res = invoke(runner, ["oracle", write(tmp_path, "g.txt", FOUR_CYCLE)])
        assert res.exit_code == 1

    @pytest.mark.parametrize("value", ["abc", "0", "-2", ""])
    def test_bad_limit_exit_two(self, runner, tmp_path, monkeypatch, value):
        monkeypatch.setenv("LEAFAGE_ORACLE_LIMIT", value)
        res = invoke(runner, ["oracle", write(tmp_path, "g.txt", DEMO_EDGE_LIST)])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == f"error: LEAFAGE_ORACLE_LIMIT must be an integer >= 1, not {value!r}\n"

    @pytest.mark.parametrize("text", ["", "e a b\ne c d\n", FOUR_CYCLE])
    def test_bad_limit_named_before_the_graph_is_checked(self, runner, monkeypatch, text):
        # The command reads the cap before the oracle looks at the graph:
        # an empty, disconnected or non-chordal graph with a bad cap exits
        # 2 and names the cap.
        monkeypatch.setenv("LEAFAGE_ORACLE_LIMIT", "abc")
        res = invoke(runner, ["oracle", "-"], stdin=text)
        assert res.exit_code == 2
        assert res.stderr == "error: LEAFAGE_ORACLE_LIMIT must be an integer >= 1, not 'abc'\n"


@pytest.mark.parametrize("command", ["leafage", "vertex-leafage", "model", "oracle"])
@pytest.mark.parametrize(
    "text, message",
    [("", "graph is empty"), ("# no edges\n", "graph is empty"),
     ("e a b\ne c d\n", "graph is disconnected"),
     # Checked before chordality: the 4-cycle alone would exit 1.
     (FOUR_CYCLE + "v z\n", "graph is disconnected")],
)
def test_empty_or_disconnected_exit_two(runner, command, text, message):
    res = invoke(runner, [command, "-"], stdin=text)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == f"error: {message}\n"


@pytest.mark.parametrize("args", [["check"], ["leafage"], ["gadget", "build"], ["gadget", "verify"]])
def test_undecodable_input_exit_two(runner, tmp_path, args):
    path = tmp_path / "in.txt"
    path.write_bytes(b"\xff\xfe e a b\n")
    res = invoke(runner, [*args, str(path)])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and "can't decode" in res.stderr


class TestRepro:
    def test_trace_contents(self, runner):
        res = invoke(runner, ["repro"])
        assert res.exit_code == 0
        assert "host leaves: 5" in res.output
        assert "subtree leaves of vertex a: 3" in res.output
        assert "a,b,c -> a,g carrying {a}" in res.output
        assert "leaves 5 -> 4" in res.output
        assert "final host leaves: 3" in res.output
        assert "final subtree leaves of vertex a: 2" in res.output


class TestDeterminism:
    def test_byte_identical_runs(self, runner, tmp_path):
        path = write(tmp_path, "g.txt", DEMO_EDGE_LIST)
        for args in (
            ["leafage", path],
            ["vertex-leafage", path],
            ["model", path],
            ["oracle", path],
            ["repro"],
        ):
            first = invoke(runner, args)
            second = invoke(runner, args)
            assert first.output == second.output


def _edge_text(edges):
    return "".join(f"e {u} {v}\n" for u, v in edges)


def _star(m):
    return _edge_text(("c", f"l{i:02d}") for i in range(m))


def _caterpillar(spine, pendants):
    s = [f"s{i:02d}" for i in range(spine)]
    edges = list(zip(s, s[1:]))
    edges += [(s[i], f"q{i:02d}x{j}") for i in range(spine) for j in range(pendants)]
    return _edge_text(edges)


def _spider(legs, length):
    edges = []
    for leg in range(legs):
        prev = "c"
        for step in range(length):
            cur = f"a{leg}x{step}"
            edges.append((prev, cur))
            prev = cur
    return _edge_text(edges)


def _path(n):
    return _edge_text((f"p{i:02d}", f"p{i + 1:02d}") for i in range(n - 1))


def _interval_chain(k):
    # Cliques on a line; consecutive cliques share one or two bridge vertices.
    cliques = []
    for i in range(k):
        members = [f"b{i - 1}x{j}" for j in range(1 + (i - 1) % 2)] if i else ["p0"]
        members += [f"b{i}x{j}" for j in range(1 + i % 2)] if i < k - 1 else ["p1"]
        cliques.append(members)
    return _edge_text(
        sorted({tuple(sorted(e)) for c in cliques for e in itertools.combinations(c, 2)})
    )


# Domination-free 3-uniform NAE families (4 and 6 variables).
NAE_K4 = "k 3\nv1 v2 v3\nv1 v2 v4\nv1 v3 v4\nv2 v3 v4\n"
NAE_6 = "k 3\nv1 v2 v3\nv1 v4 v5\nv2 v4 v6\nv3 v5 v6\n"

# sha256 of each command's stdout.  CLI output must stay byte-identical
# across internal changes, so any change to these bytes fails here.
GOLDEN = {
    # ``check`` prints the MCS elimination order, so these pin its tie-break.
    "check-demo": (
        ["check", "-"], DEMO_EDGE_LIST,
        "7865ce412dc7103f534866ee7503655fe1a13ea02c699920f29a1545422fa744",
    ),
    "check-caterpillar-8x2": (
        ["check", "-"], _caterpillar(8, 2),
        "288821c46eb37c1eb8be63c1985b78d6ff064b81aaa8bce540d9ab11cd3818d7",
    ),
    "check-nae-gadget": (
        ["check", "-"], format_edge_list(build_gadget(parse_clause_file(NAE_K4)).graph),
        "9c9c51426df57ca859d63b23a313b9fd46d6036fb18e816d763b01869d9df42c",
    ),
    "leafage-star-12": (
        ["leafage", "-"], _star(12),
        "4b193c68227acc2350cfc934169e7883b852ab70372cf0405a01a9fb32087586",
    ),
    "leafage-caterpillar-8x2": (
        ["leafage", "-"], _caterpillar(8, 2),
        "3c7b13958cb1807513cd31cd6d00ed05f455951ca13f98d70b467005dbd0c680",
    ),
    "vertex-leafage-spider-4x3": (
        ["vertex-leafage", "-"], _spider(4, 3),
        "a84446c6e03627f71bcaaafd0484b2971a33ff27693863a9f702679e948e6c35",
    ),
    "vertex-leafage-nae-gadget": (
        ["vertex-leafage", "-"], format_edge_list(build_gadget(parse_clause_file(NAE_K4)).graph),
        "421c6e93395cefedbfd9f04cf72a212f04161eb1f387b08d1f6472c77fc810d6",
    ),
    # Leafage 6, vertex leafage 3: the branching search builds a tree.
    "vertex-leafage-nae-6": (
        ["vertex-leafage", "-"], format_edge_list(build_gadget(parse_clause_file(NAE_6)).graph),
        "5df39a9a4c8e9d8037d10a77d5fe13857edfa56f7e01dbc0a32fa053bf668036",
    ),
    "vertex-leafage-spider-5x3": (
        ["vertex-leafage", "-"], _spider(5, 3),
        "be6d1cb85bd9bef4745b37e891a0086a0421c85be156850577c2bbe3a4234d31",
    ),
    "model-nae-6": (
        ["model", "-"], format_edge_list(build_gadget(parse_clause_file(NAE_6)).graph),
        "54db4ce30f590de42a0e28c33b78b326b93db66752266965c98b27a8dad7ce4b",
    ),
    # Leafage 4: the model's final minimization starts from a branching tree.
    "model-spider-4x3": (
        ["model", "-"], _spider(4, 3),
        "b1b139511fe7698da35f3d7211d05b27b9aaf4a66308a49e3864ca1d028f403a",
    ),
    "model-path-60": (
        ["model", "-"], _path(60),
        "aa79d03825b3c850561af3ffcffb301931b43577c22272427faccfe7b3d3dcc1",
    ),
    "model-interval-chain-12": (
        ["model", "-"], _interval_chain(12),
        "7e29c5168eba186854334d20495fbc552e1007c4840f8589892279da4b1b2e8f",
    ),
    "oracle-spider-4x2": (
        ["oracle", "-"], _spider(4, 2),
        "e093facafac35a0016a093da6c1e76bd40ab20e0597340196aee3347c91ac1ff",
    ),
    "gadget-verify-6": (
        ["gadget", "verify", "-"], NAE_6,
        "44f3d93ddd4394a164318fed61c243b4143288a039065398c78ef650397ef254",
    ),
    # The three commands that print no JSON.
    "model-dot-spider-4x3": (
        ["model", "--dot", "-"], _spider(4, 3),
        "bae0dbe5c074f0d8695afb2b040550d40cd7b667b2d6c7298fb4124f347c8253",
    ),
    "model-dot-interval-chain-12": (
        ["model", "--dot", "-"], _interval_chain(12),
        "b01413cb4c46f0d3dc3c3f090ce957732018c94b956adea44c70912bde9489bd",
    ),
    "gadget-build-6": (
        ["gadget", "build", "-"], NAE_6,
        "576ab395e03611ca6329a5d3c8c858e517d9d4f2944e881991b849155451ccbc",
    ),
    "repro": (
        ["repro"], None,
        "defacf6f81fe84af976d85f0eb805ebacf47edab727819a254bb45177b76aa6c",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_stdout(runner, name):
    args, text, digest = GOLDEN[name]
    res = invoke(runner, args, stdin=text)
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest


_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.lists(st.text(max_size=4), max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4)
        | st.dictionaries(st.integers() | st.booleans() | st.none(), inner, max_size=3)
    ),
    max_leaves=24,
)


@given(_JSON_VALUES)
def test_json_layout_matches_json_dumps(value):
    # The CLI's own indent-2 layout: nested dicts, lists, tuples, strings
    # (non-ASCII too), numbers, bools, None, empty containers and dicts
    # with keys that are not strings.
    assert _json_text(value) == json.dumps(value, indent=2)


def test_repeated_invocations_do_not_retain_output(runner):
    # Each CliRunner invocation gets a fresh stdout buffer; nothing in the
    # CLI may keep those buffers alive once the invocation returns.
    for _ in range(20):
        invoke(runner, ["model", "-"], stdin=PATH_GRAPH)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(200):
            invoke(runner, ["model", "-"], stdin=PATH_GRAPH)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 256 * 1024, grown
