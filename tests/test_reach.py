"""No library code that only tests reach: every module-level function, class
and constant of `ame_lab` is referenced from the library, the `ame-lab`
entry point or the benchmark harness, beyond its own definition."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "ame_lab").glob("*.py"))

# Kept on purpose for the tests: the finite-difference gradient oracle and the
# readers of the two CSV artifacts.
TEST_ONLY = {"finite_difference_grads", "relative_gradient_error", "read_importance_csv",
             "read_benchmark_csv"}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def definitions(tree: ast.Module):
    """(name, statement) for each module-level def, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def references(tree: ast.AST) -> Counter:
    """How often `tree` reads each name: loaded names, attributes, and strings
    that are exactly a name (the harness patches functions by name)."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def test_every_library_name_is_reached_beyond_the_tests():
    reached = sum((references(parse(path)) for path in sorted((ROOT / "perfbench").glob("*.py"))
                   if not path.name.startswith("test_")), Counter())
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    reached.update(re.findall(r'^ame-lab = "ame_lab\.\w+:(\w+)"$', pyproject, re.M))
    trees = [parse(path) for path in LIBRARY]
    for tree in trees:
        reached.update(references(tree))
    unreached = [(path.name, node.lineno, name) for path, tree in zip(LIBRARY, trees)
                 for name, node in definitions(tree)
                 if not name.startswith("__")  # a dunder is package metadata, read by tools
                 and reached[name] == references(node)[name]]
    assert sorted(name for *_, name in unreached) == sorted(TEST_ONLY), unreached
