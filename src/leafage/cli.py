"""Command-line interface.

Subcommands wrap the library one-to-one and print deterministic JSON, DOT,
or plain text.  Exit codes: 0 success, 1 negative decision, 2 usage or
input error, 3 oracle limit exceeded.  One handler maps the library's
errors to them (``_EXIT_CODES``): ``OracleLimitError`` 3, ``InputError``
and undecodable input 2, any other ``ValueError`` (a graph that is not
chordal) 1.
"""

from __future__ import annotations

import json
import sys
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from typing import Iterable, NoReturn, Sequence

import click

from .cliquetrees import TreeModel, branching_sets, build_clique_tree
from .demo import demo_clique_tree, demo_graph
from .gadget import build_gadget, parse_clause_file, verify_reduction
from .graphs import (
    InputError,
    PerfectEliminationOrder,
    _connected_cliques,
    check_chordal,
    clique_graph,
    format_edge_list,
    parse_graph,
)
from .oracle import OracleLimitError, oracle_optima, tree_limit
from .tokens import minimize_leafage_with_trace, tokens_from_tree
from .vertex_leafage import simultaneous_optimum, vertex_leafage_bounded

EXIT_NEGATIVE = 1
EXIT_FORMAT = 2
EXIT_LIMIT = 3

# An error takes the code of the first row whose type it is, so a subclass
# comes before its base.
_EXIT_CODES = {
    OracleLimitError: EXIT_LIMIT,
    InputError: EXIT_FORMAT,
    UnicodeDecodeError: EXIT_FORMAT,
    ValueError: EXIT_NEGATIVE,
}


def _echo(text: str, nl: bool = True) -> None:
    # An explicit stream: click's default one is cached per sys.stdout object
    # in a mapping whose values refer back to their keys, so under CliRunner
    # every invocation's output buffer would stay alive.
    click.echo(text, file=sys.stdout, nl=nl)


def _fail(message: object, code: int) -> NoReturn:
    click.echo(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _clique_label(c: frozenset[str]) -> str:
    return ",".join(sorted(c))


def _edges_json(cliques: Sequence[frozenset[str]], edges: Iterable[tuple[int, int]]) -> list[list[str]]:
    """Each edge as its two clique labels, in order, the edges sorted."""
    return sorted(sorted([_clique_label(cliques[a]), _clique_label(cliques[b])]) for a, b in edges)


def _json_text(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2)``, laid out ``pad`` deep.

    Nonempty lists, tuples and string-keyed dicts are laid out here, a list
    of strings in one join of C-encoded strings and their items or values
    by :func:`_json_items`; any other value goes to ``json.dumps``.
    """
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)) and value:
        if all(map(isinstance, value, repeat(str))):
            return f"[\n{inner}{sep.join(map(encode_basestring_ascii, value))}\n{pad}]"
        return f"[\n{inner}{sep.join(_json_items(value, inner))}\n{pad}]"
    if isinstance(value, dict) and value:
        if not all(map(isinstance, value, repeat(str))):
            # json.dumps names other keys its own way; its only newlines
            # are layout ones.
            return json.dumps(value, indent=2).replace("\n", "\n" + pad)
        items = zip(map(encode_basestring_ascii, value), _json_items(list(value.values()), inner))
        return f"{{\n{inner}{sep.join([f'{k}: {v}' for k, v in items])}\n{pad}}}"
    if type(value) is int:
        return int.__repr__(value)
    return json.dumps(value)


def _json_items(values: Sequence, pad: str) -> list[str]:
    """Each of ``values`` laid out ``pad`` deep; nonempty string lists, such as edges, in one join each."""
    if {list} == set(map(type, values)) and all(values) and all(map(isinstance, chain(*values), repeat(str))):
        row, rows = "\n  " + pad, ",\n  " + pad
        return [f"[{row}{rows.join(map(encode_basestring_ascii, x))}\n{pad}]" for x in values]
    return [_json_text(x, pad) for x in values]


def _emit(data) -> None:
    _echo(_json_text(data))


def _dot_model(m: TreeModel) -> str:
    lines = ["graph model {"]
    for x in m.nodes:
        members = sorted(u for u, s in m.subtrees.items() if x in s)
        lines.append(f'  "{x}" [label="{",".join(members)}"];')
    for a, b in sorted(m.edges):
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


class _Commands(click.Group):
    """The command group: runs a command and turns its errors into exit codes."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except tuple(_EXIT_CODES) as exc:
            _fail(exc, next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind)))


@click.group(cls=_Commands)
def main() -> None:
    """Leafage and vertex leafage of chordal graphs."""


@main.command()
@click.argument("graph_file", type=click.File("r"))
def check(graph_file) -> None:
    """Test chordality; print an elimination order or a witness cycle."""
    g = parse_graph(graph_file.read())
    result = check_chordal(g)
    if isinstance(result, PerfectEliminationOrder):
        _echo("chordal")
        _echo(" ".join(result.order))
    else:
        _echo("not chordal")
        _echo(" ".join(result))
        sys.exit(EXIT_NEGATIVE)


@main.command()
@click.argument("graph_file", type=click.File("r"))
def leafage(graph_file) -> None:
    """Minimum host-tree leaf count, with witness tree and iteration trace."""
    cliques = _connected_cliques(parse_graph(graph_file.read()))
    start = build_clique_tree(clique_graph(cliques))
    tree, trace = minimize_leafage_with_trace(start)
    iterations = [
        {
            "path": [
                [
                    _clique_label(tree.cliques[mv.from_clique]),
                    _clique_label(tree.cliques[mv.to_clique]),
                    ",".join(sorted(mv.token)),
                ]
                for mv in rec.path.moves
            ],
            "leaves_before": rec.leaves_before,
            "leaves_after": rec.leaves_after,
        }
        for rec in trace
    ]
    _emit(
        {
            "leafage": len(tree.leaves()),
            "tree_edges": _edges_json(tree.cliques, tree.edges),
            "iterations": iterations,
        }
    )


@main.command(name="vertex-leafage")
@click.argument("graph_file", type=click.File("r"))
@click.option("--ell", type=int, default=None, help="Skip graphs whose leafage exceeds this bound.")
def vertex_leafage(graph_file, ell) -> None:
    """Exact vertex leafage with a certificate tree."""
    cert = vertex_leafage_bounded(parse_graph(graph_file.read()), ell=ell)
    if cert is None:
        _fail(f"leafage exceeds the bound {ell}", EXIT_NEGATIVE)
    tree = cert.tree
    _emit(
        {
            "leafage": len(tree.leaves()),
            "vertex_leafage": cert.value,
            "tree_edges": _edges_json(tree.cliques, tree.edges),
            "per_vertex_leaves": {u: cert.per_vertex[u] for u in sorted(cert.per_vertex)},
            "branch_edge_set": _edges_json(tree.cliques, branching_sets(tree).incident_edges),
        }
    )


@main.command()
@click.argument("graph_file", type=click.File("r"))
@click.option("--dot", is_flag=True, help="Emit the host tree in DOT format.")
def model(graph_file, dot) -> None:
    """Tree model optimal for leafage and vertex leafage simultaneously."""
    g = parse_graph(graph_file.read())
    m, tree = simultaneous_optimum(g)
    if dot:
        _echo(_dot_model(m), nl=False)
        return
    _emit(
        {
            "leafage": len(tree.leaves()),
            "vertex_leafage": tree.max_vertex_leaf_count(g.vertices),
            "nodes": list(m.nodes),
            "edges": sorted(list(e) for e in m.edges),
            "subtrees": {u: sorted(m.subtrees[u]) for u in sorted(m.subtrees)},
        }
    )


@main.group()
def gadget() -> None:
    """NAE-SAT reduction gadget tools."""


@gadget.command(name="build")
@click.argument("clause_file", type=click.File("r"))
def gadget_build(clause_file) -> None:
    """Build the split graph of a clause file; print it as an edge list."""
    gg = build_gadget(parse_clause_file(clause_file.read()))
    _echo(format_edge_list(gg.graph), nl=False)


@gadget.command(name="verify")
@click.argument("clause_file", type=click.File("r"))
def gadget_verify(clause_file) -> None:
    """Check solvability against the gadget's exact vertex leafage."""
    _emit(verify_reduction(parse_clause_file(clause_file.read())))


@main.command()
@click.argument("graph_file", type=click.File("r"))
def oracle(graph_file) -> None:
    """Brute-force enumeration: exact optima with witness trees."""
    result = oracle_optima(parse_graph(graph_file.read()), tree_limit())
    _emit(
        {
            "leafage": result.leafage,
            "vertex_leafage": result.vertex_leafage,
            "tree_count": result.tree_count,
            "witness_trees": {
                name: _edges_json(t.cliques, t.edges)
                for name, t in zip(("min_leafage", "min_vertex_leafage", "joint"), result.witness_trees)
            },
        }
    )


@main.command()
def repro() -> None:
    """Replay the bundled worked example with a printed trace."""
    g = demo_graph()
    tree = demo_clique_tree()
    _echo("maximal cliques:")
    for i, c in enumerate(tree.cliques):
        _echo(f"  {i}: {_clique_label(c)}")
    ta = tokens_from_tree(tree)
    _echo("token assignment of the starting tree:")
    for i in range(len(tree.cliques)):
        toks = " ".join("{" + ",".join(sorted(s)) + "}" for s in ta.tokens[i])
        _echo(f"  {_clique_label(tree.cliques[i])}: {toks}")
    _echo(f"host leaves: {len(tree.leaves())}")
    _echo(f"subtree leaves of vertex a: {tree.vertex_leaf_count('a')}")
    final, trace = minimize_leafage_with_trace(tree)
    for step, rec in enumerate(trace, start=1):
        moves = "; ".join(
            f"{_clique_label(tree.cliques[mv.from_clique])} -> "
            f"{_clique_label(tree.cliques[mv.to_clique])} "
            f"carrying {{{','.join(sorted(mv.token))}}}"
            for mv in rec.path.moves
        )
        _echo(
            f"iteration {step}: {moves} "
            f"(leaves {rec.leaves_before} -> {rec.leaves_after})"
        )
    _echo(f"final host leaves: {len(final.leaves())}")
    _echo(f"final subtree leaves of vertex a: {final.vertex_leaf_count('a')}")


if __name__ == "__main__":
    main()
