"""NAE-SAT instances, the split-graph gadget, and the reduction verifier."""

import itertools

import pytest

import leafage.gadget
from conftest import count_calls, dominating_pair, format_clause_file, satisfies_star
from leafage.cliquetrees import CliqueTree
from leafage.gadget import (
    ClauseFormatError,
    NaeInstance,
    build_gadget,
    is_solution,
    parse_clause_file,
    solution_to_tree,
    solve_brute_force,
    tree_to_solution,
    verify_reduction,
)
from leafage.graphs import InputError, check_chordal, chordal_cliques, PerfectEliminationOrder


def inst_of(*clauses, k=3):
    return NaeInstance.create([frozenset(c) for c in clauses], k)


# A small domination-free instance: every variable's clause set is
# incomparable with every other's.
STAR_OK = inst_of(
    ("v1", "v2", "v3"),
    ("v1", "v4", "v5"),
    ("v2", "v4", "v6"),
    ("v3", "v5", "v6"),
)


class TestParseClauseFile:
    def test_header_and_clauses(self):
        inst = parse_clause_file("k 3\nv1 v2 v3\nv2 v3 v4\n")
        assert inst.k == 3
        assert inst.n == 4 and inst.m == 2

    def test_width_inferred(self):
        inst = parse_clause_file("a b c d\ne f g h\n")
        assert inst.k == 4

    def test_nonuniform_rejected(self):
        with pytest.raises(ClauseFormatError) as exc:
            parse_clause_file("a b c\na b c d\n")
        assert exc.value.line == 2

    def test_header_mismatch_rejected(self):
        with pytest.raises(ClauseFormatError):
            parse_clause_file("k 4\na b c\n")

    def test_repeated_variable_rejected(self):
        with pytest.raises(ClauseFormatError, match="repeated"):
            parse_clause_file("a a b\n")

    def test_bad_name_rejected(self):
        with pytest.raises(ClauseFormatError):
            parse_clause_file("a b c-d e\n")

    @pytest.mark.parametrize("width", ["0", "x", "\u00b2", "-3"])
    def test_bad_width_header_rejected(self, width):
        # A superscript digit passes str.isdigit() but is no integer.
        with pytest.raises(ClauseFormatError, match="bad clause width") as exc:
            parse_clause_file(f"# width\nk {width}\na b c\n")
        assert exc.value.line == 2

    def test_empty_rejected(self):
        with pytest.raises(ClauseFormatError, match="no clauses"):
            parse_clause_file("# nothing\n")

    def test_format_round_trip(self):
        text = format_clause_file(STAR_OK)
        again = parse_clause_file(text)
        assert set(again.clauses) == set(STAR_OK.clauses)
        assert again.k == STAR_OK.k


class TestSolutions:
    def test_is_solution_requires_both_sides(self):
        inst = inst_of(("v1", "v2", "v3"))
        assert is_solution(inst, frozenset(["v1"]))
        assert not is_solution(inst, frozenset())
        assert not is_solution(inst, frozenset(["v1", "v2", "v3"]))

    def test_unknown_variable_rejected(self):
        inst = inst_of(("v1", "v2", "v3"))
        assert not is_solution(inst, frozenset(["v9"]))

    def test_brute_force_finds_least(self):
        inst = inst_of(("v1", "v2", "v3"), ("v2", "v3", "v4"))
        assert solve_brute_force(inst) == frozenset(["v2"])

    def test_brute_force_exhaustive(self):
        # Cross-check against a full direct sweep.
        inst = STAR_OK
        all_solutions = [
            frozenset(c)
            for r in range(inst.n + 1)
            for c in itertools.combinations(inst.variables, r)
            if is_solution(inst, frozenset(c))
        ]
        assert solve_brute_force(inst) in all_solutions

    def test_unsolvable_returns_none(self):
        assert solve_brute_force(FANO) is None


class TestStarProperty:
    def test_satisfied_instance_unchanged(self):
        assert satisfies_star(STAR_OK)
        assert dominating_pair(STAR_OK) is None

    def test_dominated_variable_removed_to_empty(self):
        # v1 is in every clause, so dropping v1's clauses empties the instance.
        inst = inst_of(("v1", "v2", "v3"), ("v1", "v2", "v4"))
        pair = dominating_pair(inst)
        assert pair == ("v1", "v2")
        assert not satisfies_star(inst)
        assert inst.clause_set(pair[0]) == frozenset(range(inst.m))


# Smallest unsolvable positive NAE-3-SAT instance: the lines of the
# 7-point projective plane (a non-2-colourable 3-uniform hypergraph).
FANO = inst_of(
    ("p1", "p2", "p3"),
    ("p1", "p4", "p5"),
    ("p1", "p6", "p7"),
    ("p2", "p4", "p6"),
    ("p2", "p5", "p7"),
    ("p3", "p4", "p7"),
    ("p3", "p5", "p6"),
)


class TestBuildGadget:
    def test_single_clause_shape(self):
        inst = inst_of(("v1", "v2", "v3"))
        gg = build_gadget(inst)
        g = gg.graph
        assert len(g.vertices) == 6
        assert g.adjacency["y1"] == frozenset({"v1", "v2", "v3", "z1", "z2"})

    def test_keeps_instance_and_cliques(self):
        # The named cliques are the graph's one clique family, listed once.
        gg = build_gadget(STAR_OK)
        assert gg.inst is STAR_OK
        cliques = chordal_cliques(gg.graph)
        assert sorted(gg.clique_names.values(), key=lambda c: tuple(sorted(c))) == list(cliques)
        assert chordal_cliques(gg.graph) is cliques

    def test_clique_membership_rule(self):
        inst = inst_of(("v1", "v2", "v3"), ("v2", "v3", "v4"))
        gg = build_gadget(inst)
        assert gg.clique_names["Q_v2"] == frozenset({"v2", "y1", "y2"})

    def test_split_partition(self):
        gg = build_gadget(STAR_OK)
        g = gg.graph
        ys = [f"y{j}" for j in range(1, STAR_OK.m + 1)]
        for a, b in itertools.combinations(ys, 2):
            assert g.has_edge(a, b)
        independents = list(STAR_OK.variables) + ["z1", "z2"]
        for a, b in itertools.combinations(independents, 2):
            assert not g.has_edge(a, b)

    def test_gadget_is_chordal(self):
        assert isinstance(check_chordal(build_gadget(STAR_OK).graph), PerfectEliminationOrder)

    def test_clique_count_is_n_plus_two(self):
        gg = build_gadget(STAR_OK)
        assert len(chordal_cliques(gg.graph)) == STAR_OK.n + 2
        assert len(gg.clique_names) == STAR_OK.n + 2

    def test_small_width_rejected(self):
        with pytest.raises(ValueError, match="k >= 3"):
            build_gadget(inst_of(("v1", "v2"), k=2))

    def test_name_collision_rejected(self):
        with pytest.raises(ValueError, match="collide"):
            build_gadget(inst_of(("y1", "a", "b")))

    def test_empty_instance_rejected(self):
        with pytest.raises(ValueError, match="at least one clause"):
            build_gadget(NaeInstance.create([], 3))

    def test_instance_widths_are_input_errors(self):
        # Typed as bad input where the instance is made, as the parser's are.
        with pytest.raises(InputError, match="^empty instance needs an explicit clause width$"):
            NaeInstance.create([])
        with pytest.raises(InputError, match="^clause 2 has 3 variables, expected 2$"):
            NaeInstance.create([frozenset("ab"), frozenset("abc")])
        with pytest.raises(InputError, match="^clause 1 has 2 variables, expected 3$"):
            NaeInstance.create([frozenset("ab")], 3)


class TestTranslation:
    def test_solution_to_tree_structure(self):
        gg = build_gadget(STAR_OK)
        s = solve_brute_force(STAR_OK)
        t = solution_to_tree(gg, s)
        # Every variable clique is a leaf; A and B are internal.
        assert len(t.leaves()) == STAR_OK.n
        assert t.max_vertex_leaf_count(gg.graph.vertices) <= STAR_OK.k

    def test_variable_subtrees_have_no_leaves(self):
        gg = build_gadget(STAR_OK)
        t = solution_to_tree(gg, solve_brute_force(STAR_OK))
        for v in STAR_OK.variables:
            assert t.vertex_leaf_count(v) == 0
        assert t.vertex_leaf_count("z1") == 0
        assert t.vertex_leaf_count("z2") == 0

    def test_clause_subtrees_have_exactly_k_leaves(self):
        gg = build_gadget(STAR_OK)
        t = solution_to_tree(gg, solve_brute_force(STAR_OK))
        for j in range(1, STAR_OK.m + 1):
            assert t.vertex_leaf_count(f"y{j}") == STAR_OK.k

    def test_invalid_solution_rejected(self):
        gg = build_gadget(STAR_OK)
        with pytest.raises(ValueError, match="monochromatic"):
            solution_to_tree(gg, frozenset(STAR_OK.variables))

    def test_round_trip_identity(self):
        gg = build_gadget(STAR_OK)
        for s in _all_solutions(STAR_OK):
            t = solution_to_tree(gg, s)
            assert tree_to_solution(gg, t) == s

    def test_tree_over_other_cliques_rejected(self):
        # A clique tree of the gadget of STAR_OK's first three clauses is
        # no tree of STAR_OK's gadget.
        gg = build_gadget(STAR_OK)
        part = inst_of(*(sorted(c) for c in STAR_OK.clauses[:3]))
        t = solution_to_tree(build_gadget(part), solve_brute_force(part))
        with pytest.raises(ValueError, match="maximal cliques"):
            tree_to_solution(gg, t)

    def test_high_leafage_tree_rejected(self):
        gg = build_gadget(STAR_OK)
        s = solve_brute_force(STAR_OK)
        t = solution_to_tree(gg, s)
        # Rebuild with every variable clique hung on A: some clause becomes
        # monochromatic, pushing a clause subtree to k + 1 leaves.
        cliques = chordal_cliques(gg.graph)
        index = {c: i for i, c in enumerate(cliques)}
        a = index[gg.clique_names["A"]]
        b = index[gg.clique_names["B"]]
        edges = {(min(a, b), max(a, b))}
        for name, c in gg.clique_names.items():
            if name.startswith("Q_"):
                q = index[c]
                edges.add((min(a, q), max(a, q)))
        lopsided = CliqueTree(cliques, frozenset(edges))
        with pytest.raises(ValueError, match="exceeding the clause width"):
            tree_to_solution(gg, lopsided)


def _all_solutions(inst):
    return [
        frozenset(c)
        for r in range(inst.n + 1)
        for c in itertools.combinations(inst.variables, r)
        if is_solution(inst, frozenset(c))
    ]


class TestVerifyReduction:
    def test_solvable_instance(self):
        report = verify_reduction(STAR_OK)
        assert report["solvable"] is True
        assert report["vertex_leafage"] <= 3
        assert report["upper_bound_ok"] and report["equivalence_ok"]

    def test_solvable_instance_translates_both_ways(self, monkeypatch):
        to_tree = count_calls(monkeypatch, leafage.gadget, "solution_to_tree")
        to_solution = count_calls(monkeypatch, leafage.gadget, "tree_to_solution")
        report = verify_reduction(STAR_OK)
        assert report["solvable"] and report["vertex_leafage"] <= STAR_OK.k
        assert [s for _, s in to_tree] == [frozenset(report["solution"])]
        assert len(to_solution) == 1

    def test_report_fields(self):
        report = verify_reduction(inst_of(("v1", "v2", "v3"), ("v2", "v3", "v4")))
        assert set(report) == {
            "k", "n", "m", "solvable", "solution",
            "vertex_leafage", "upper_bound_ok", "equivalence_ok",
        }
        assert report["k"] == 3 and report["n"] == 4 and report["m"] == 2

    def test_unsolvable_instance_has_vl_k_plus_one(self):
        # The projective-plane instance is unsolvable and domination-free.
        # Its gadget is beyond full-enumeration scale, but under
        # domination-freeness every clique tree is the A-B edge plus each
        # variable clique hung on A or B, so sweeping those 2^n assignments
        # is an exact oracle for the vertex leafage.
        assert satisfies_star(FANO)
        gg = build_gadget(FANO)
        cliques = chordal_cliques(gg.graph)
        index = {c: i for i, c in enumerate(cliques)}
        a = index[gg.clique_names["A"]]
        b = index[gg.clique_names["B"]]
        qs = [index[gg.clique_names[f"Q_{v}"]] for v in FANO.variables]
        best = None
        for bits in itertools.product((0, 1), repeat=FANO.n):
            edges = {(min(a, b), max(a, b))}
            for q, bit in zip(qs, bits):
                anchor = a if bit else b
                edges.add((min(anchor, q), max(anchor, q)))
            t = CliqueTree(cliques, frozenset(edges))
            vl = t.max_vertex_leaf_count(gg.graph.vertices)
            best = vl if best is None else min(best, vl)
        assert best == FANO.k + 1


_CORRUPT_REDUCTIONS = {
    # build_gadget: the graph's cliques disagree with the named ones.
    "named cliques do not match": """
gadget.chordal_cliques = lambda g: ()
gadget.build_gadget(STAR_OK)
""",
    # tree_to_solution: a lopsided tree (every variable clique on B) passes
    # a corrupted leaf count, and the extracted empty set is no solution.
    "is not a solution": """
gg = gadget.build_gadget(STAR_OK)
cliques = gadget.chordal_cliques(gg.graph)
ids = {name: cliques.index(c) for name, c in gg.clique_names.items()}
b = ids["B"]
edges = frozenset((min(b, q), max(b, q)) for name, q in ids.items() if name != "B")
CliqueTree.max_vertex_leaf_count = lambda self, vertices: 0
gadget.tree_to_solution(gg, CliqueTree(cliques, edges))
""",
    "exceeds k + 1": """
gadget.oracle_optima = lambda g: SimpleNamespace(vertex_leafage=5)
gadget.verify_reduction(STAR_OK)
""",
    # solution_to_tree: the solution's tree is read as having k + 1 leaves
    # in some subtree.
    "more than k = 3": """
CliqueTree.max_vertex_leaf_count = lambda self, vertices: 4
gadget.verify_reduction(STAR_OK)
""",
    "breaks the biconditional": """
gadget.oracle_optima = lambda g: SimpleNamespace(vertex_leafage=4)
gadget.verify_reduction(STAR_OK)
""",
}


@pytest.mark.parametrize("case", sorted(_CORRUPT_REDUCTIONS))
def test_reduction_checks_survive_optimize(case, run_optimized):
    out = run_optimized(
        "from types import SimpleNamespace\n"
        "import leafage.gadget as gadget\n"
        "from leafage.cliquetrees import CliqueTree\n"
        "from leafage.graphs import CertificateError\n"
        "assert False, 'not run under -O'\n"
        "STAR_OK = gadget.NaeInstance.create([frozenset(c) for c in (\n"
        "    ('v1', 'v2', 'v3'), ('v1', 'v4', 'v5'), ('v2', 'v4', 'v6'), ('v3', 'v5', 'v6'))], 3)\n"
        "try:\n"
        + "".join(f"    {line}\n" for line in _CORRUPT_REDUCTIONS[case].strip().splitlines())
        + "except (CertificateError, ValueError) as exc:\n"
        "    print(type(exc).__name__ + ':', exc)\n"
    )
    assert out.returncode == 0, out.stderr
    expected = "ValueError:" if case == "named cliques do not match" else "CertificateError:"
    assert out.stdout.startswith(expected) and case in out.stdout
