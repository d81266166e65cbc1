"""Package hygiene: every top-level function and class in `kamtorus`, and
every method of its classes, is used by the package itself.

A top-level definition counts as used when some `Name`, `Attribute` or
import alias anywhere in `src/kamtorus` names it; a non-dunder method when
some `Attribute` there names it (of any receiver: `ast` gives no types).  A
mention inside a docstring or comment does not count.  Code that only its
own tests read is dead code: delete it, or move it into the tests as a named
oracle.
"""

import ast
from pathlib import Path

import kamtorus

PACKAGE = Path(kamtorus.__file__).parent

#: Definitions kept although nothing in the package calls them, one reason each.
ALLOWED_UNUSED = {
    "fourier.invert_series":
        "independent series oracle for invert_near_identity, called by the "
        "tests and the benchmark",
}


def _trees():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _top_level_definitions(trees):
    return {f"{module}.{node.name}": node.name
            for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))}


def _referenced_names(trees):
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
                if node.asname:
                    names.add(node.asname)
    return names


def test_every_top_level_definition_is_used_by_the_package():
    trees = _trees()
    defined = _top_level_definitions(trees)
    referenced = _referenced_names(trees)
    unused = sorted(qualified for qualified, name in defined.items()
                    if name not in referenced
                    and qualified not in ALLOWED_UNUSED)
    assert not unused, (
        "top-level definitions that nothing in src/kamtorus uses: "
        + ", ".join(unused))
    stale = sorted(set(ALLOWED_UNUSED) - set(defined))
    assert not stale, "allow-list entries with no definition: " + ", ".join(stale)


def test_every_method_is_used_by_the_package():
    trees = _trees()
    attributes = {node.attr for tree in trees.values()
                  for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unused = sorted(
        f"{module}.{cls.name}.{node.name}"
        for module, tree in trees.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in attributes)
    assert not unused, (
        "methods that no attribute in src/kamtorus names: " + ", ".join(unused))
