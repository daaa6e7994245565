"""Each design rule of the library has one owner, checked on one parse of its source.

A rule watches some names; every use of them in `src/plrf` must lie inside
the rule's owner: a function ("simulate._stream", nested code included) or
a whole module ("simulate").  A rule with no owner forbids its names.
"""

import ast
import functools
from pathlib import Path

import pytest

import plrf


def _attribute_of(base: str, names: set[str]):
    """Matches `<...>.base.name` and `from <...>base import name` for a name in `names`."""

    def watch(node) -> bool:
        if isinstance(node, ast.Attribute) and node.attr in names:
            owner = node.value
            return (owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", None)) == base
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == base:
            return any(alias.name in names for alias in node.names)
        return False

    return watch


def _named(names: set[str], in_strings: bool = False):
    """Matches a name, attribute or import that is one of `names`.

    With `in_strings`, one that holds a name of `names`, or a string that does.
    """

    def watch(node) -> bool:
        if isinstance(node, ast.Name):
            texts = [node.id]
        elif isinstance(node, ast.Attribute):
            texts = [node.attr]
        elif isinstance(node, ast.alias):
            texts = [node.name, node.asname or ""]
        elif in_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            texts = [node.value]
        else:
            return False
        if in_strings:
            return any(name in text for text in texts for name in names)
        return not names.isdisjoint(texts)

    return watch


def _raises_value_error(node) -> bool:
    exc = node.exc if isinstance(node, ast.Raise) else None
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(exc, ast.Name) and exc.id == "ValueError"


_COUNT_KERNELS = {"_count_exact", "_count_general", "_count_ones"}

# rule: (what it watches, its owners)
RULES = {
    "one stream recipe": (
        _attribute_of("random", {"Philox", "SFC64", "PCG64", "PCG64DXSM", "MT19937"}),
        {"simulate._stream"},
    ),
    "one eigen-route": (
        _attribute_of("linalg", {"eig", "eigh", "eigvals", "eigvalsh", "svd"}),
        {"spectral.sym_eigenvalues"},
    ),
    # the kernels recurse, into themselves and into _count_ones
    "one counting route": (
        _named(_COUNT_KERNELS),
        {"lattice._count"} | {f"lattice.{kernel}" for kernel in _COUNT_KERNELS},
    ),
    "one thread-budget owner": (
        _named({"ThreadPoolExecutor", "set_num_threads"}, in_strings=True),
        {"simulate"},
    ),
    "one error type": (lambda node: _raises_value_error(node) or _named({"CLIError"})(node), set()),
    "one integer rule": (_attribute_of("operator", {"index"}), {"errors._as_index"}),
}


def _walk(node, where: str):
    """(node, where) for node and all under it.

    `where` joins the module and the enclosing classes and defs by '.'.
    """
    yield node, where
    inner = where
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inner = f"{where}.{node.name}"
    for child in ast.iter_child_nodes(node):
        yield from _walk(child, inner)


@functools.cache
def _source_nodes() -> tuple:
    """(node, where, path:line) for every node of every module in src/plrf, from one parse."""
    root = Path(plrf.__file__).parent
    out = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node, where in _walk(tree, path.stem):
            out.append((node, where, f"{path.name}:{getattr(node, 'lineno', '?')}"))
    return tuple(out)


def _owned(where: str, owners: set[str]) -> bool:
    return any(where == owner or where.startswith(owner + ".") for owner in owners)


@pytest.mark.parametrize("rule", list(RULES))
def test_every_use_lies_inside_the_rule_owner(rule):
    watch, owners = RULES[rule]
    uses = [(where, line) for node, where, line in _source_nodes() if watch(node)]
    outside = [f"{line} in {where}" for where, line in uses if not _owned(where, owners)]
    assert not outside, f"{rule}: used outside {sorted(owners) or 'nothing'}: {outside}"
    # a watcher that no longer sees its owner's own use would pass on anything
    assert not owners or uses, f"{rule}: the owner's own use was not seen"
