"""Structural rules of the package, read from its source with ``ast``.

Each test asserts at call sites the rule that a grep gate of the CI
workflow counts as a substring of whole files, so a comment that quotes
a call cannot break it and an alias cannot slip past it.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "entropy_kit"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def scoped_nodes() -> list:
    """(module, qualified name of the enclosing def or class, node) of every
    node of every module, parsed once; module-level nodes have the scope ""."""
    nodes = []
    for path in sorted(SRC.glob("*.py")):
        todo = [(ast.parse(path.read_text(), str(path)), "")]
        while todo:
            node, scope = todo.pop()
            for child in ast.iter_child_nodes(node):
                nodes.append((path.stem, scope, child))
                todo.append((child, f"{scope}.{child.name}".lstrip(".") if isinstance(child, SCOPES) else scope))
    return nodes


NODES = scoped_nodes()
#: the function node of every call
CALLED = {id(node.func) for _, _, node in NODES if isinstance(node, ast.Call)}


def references(name: str) -> list:
    """(module, scope, node) of each use of ``name``: as a variable, an
    attribute, an imported name or a string, but not its own def."""
    return [
        (module, scope, node)
        for module, scope, node in NODES
        if (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.alias) and name in (node.name, node.asname))
        or (isinstance(node, ast.Constant) and node.value == name)
    ]


def assert_one_linalg_call(name: str, scope: str) -> None:
    """The package's one reference to ``name`` is a call of ``np.linalg.<name>`` in ``linops.<scope>``."""
    uses = references(name)
    assert [(module, s) for module, s, _ in uses] == [("linops", scope)]
    ((_, _, node),) = uses
    assert ast.unparse(node) == f"np.linalg.{name}" and id(node) in CALLED


def test_one_eigensolve():
    # every state, one DensityOperator or a chunk's joined stacks, is
    # validated by the one stacked eigh, in linops._density_spectra
    assert_one_linalg_call("eigh", "_density_spectra")


def test_records_at_the_public_edge():
    # the stacked builders take and return arrays, so only the public
    # one-item functions make records with linops._record, and verify none
    uses = references("_record")
    assert all(id(node) in CALLED for _, _, node in uses)
    assert Counter((module, scope) for module, scope, _ in uses) == {
        ("linops", "DensityOperator.__post_init__"): 1,
        ("linops", "_spectrum"): 1,
        ("linops", "ensemble_from_state"): 2,
        ("linops", "random_resolution"): 2,
    }
    defs = [
        (module, scope, node.name)
        for module, scope, node in NODES
        if isinstance(node, SCOPES) and node.name in ("_record", "_density_at")
    ]
    assert defs == [("linops", "", "_record")]
    assert references("_density_at") == []


def test_one_qr():
    # every Haar factor, the full unitary or an ensemble's thin first
    # columns, comes from the one stacked QR in linops._haar_stack
    assert_one_linalg_call("qr", "_haar_stack")


def test_one_trace_distance_solve():
    # every trace distance comes from the one stacked eigenvalue solve in
    # linops._trace_distances, which caps it at 1
    assert_one_linalg_call("eigvalsh", "_trace_distances")


def test_suites_draw_through_the_cheapest_calls():
    # the suites take numpy's bits through random, standard_exponential and
    # int32 integers, and their arguments are valid by construction, so
    # verify uses no uniform or dirichlet and none of the checked linops draws
    banned = ("uniform", "dirichlet", "_ginibre_draw", "_ensemble_draw", "_resolution_draw", "_haar_draw")
    assert [(name, scope) for name in banned for module, scope, _ in references(name) if module == "verify"] == []
    # every bounded integers call of verify takes the 32-bit draw
    calls = [
        node
        for module, _, node in NODES
        if module == "verify" and isinstance(node, ast.Call) and ast.unparse(node.func).endswith(".integers")
    ]
    assert calls and all([ast.unparse(k) for k in call.keywords] == ["dtype=np.int32"] for call in calls)
