"""AST traversal: ``walk`` order, deep trees, and ``clone``.

``walk`` runs on an explicit stack over per-class field tables; these
tests hold it to the recursive definition it replaced.
"""

import pytest

from repro.fuzz import ProgramGenerator
from repro.lang import ast, parse_source
from repro.lang.errors import UNKNOWN_LOCATION

#: The tier-1 fuzz smoke campaign's seed and size.
CORPUS_SEED = 20260805
CORPUS_SIZE = 200


def reference_walk(node):
    """The recursive preorder ``walk`` is defined by."""
    yield node
    for child in ast.children(node):
        yield from reference_walk(child)


@pytest.fixture(scope="module")
def corpus():
    generator = ProgramGenerator(CORPUS_SEED)
    return [
        parse_source(program.source)
        for program in generator.programs(CORPUS_SIZE)
    ]


def test_walk_matches_recursive_preorder(corpus):
    for tree in corpus:
        got = list(ast.walk(tree))
        want = list(reference_walk(tree))
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want))


def test_walk_body_matches_recursive_preorder(corpus):
    for tree in corpus:
        body = tree.main.body
        got = list(ast.walk_body(body))
        want = [node for stmt in body for node in reference_walk(stmt)]
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want))


def test_walk_survives_a_deep_chain():
    expr = ast.IntLit(1)
    for _ in range(3000):
        expr = ast.BinOp("+", expr, ast.IntLit(1))
    nodes = list(ast.walk(expr))
    assert len(nodes) == 2 * 3000 + 1
    assert nodes[0] is expr
    assert isinstance(nodes[-1], ast.IntLit)


def test_clone_keeps_every_location(corpus):
    for tree in corpus:
        copy = ast.clone(tree)
        assert copy == tree
        pairs = list(zip(ast.walk(copy), ast.walk(tree)))
        assert len(pairs) == sum(1 for _ in ast.walk(tree))
        for new, old in pairs:
            assert new is not old
            assert new.loc == old.loc
        assert any(old.loc != UNKNOWN_LOCATION for _, old in pairs)
