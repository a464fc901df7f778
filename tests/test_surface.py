"""The package holds only what its CLI and the benchmark replay run.

Every public function, class and method defined in `src/ordpref` must be
named (as a name or an attribute, not as an import alias) somewhere in the
package outside its own definition, or in `bench/replay.py` or
`bench/run.py`.  Code only the tests call belongs in `tests/common.py`.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "ordpref").glob("*.py"))
CALLERS = [ROOT / "bench" / "replay.py", ROOT / "bench" / "run.py"]


def names(tree: ast.AST) -> Counter:
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_public_definition_has_a_caller_outside_the_tests():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE}
    used = sum((names(t) for t in trees.values()), Counter())
    for path in CALLERS:
        used += names(ast.parse(path.read_text(encoding="utf-8")))
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and used[node.name] - names(node)[node.name] <= 0
    ]
    assert not unused, f"only the tests call: {unused}"
