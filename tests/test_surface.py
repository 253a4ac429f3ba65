"""Dead-surface guard: every public module-level function and class in
``src/flowcast`` is referenced somewhere besides its own definition.

A reference is a name, an attribute or an import alias in another part of
the package, in the frozen acceptance code (``tests/test_acceptance.py``,
``tests/gradcheck.py``, ``tests/conftest.py``) or in a demo. The benchmark
harness (``perfbench/bench.py``) names what it traces in strings, so there
the dotted parts of a string constant count too. The rest of the test suite
does not count: a surface only tests call is a surface nobody calls.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flowcast"
CALLERS = [
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "tests" / "gradcheck.py",
    ROOT / "tests" / "conftest.py",
    *sorted((ROOT / "demos").glob("*.py")),
]
STRING_CALLERS = [ROOT / "perfbench" / "bench.py"]


def _names(node: ast.AST, strings: bool = False) -> set[str]:
    """Every name, attribute and import alias under ``node`` and, with
    ``strings``, every dotted part of its string constants."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rsplit(".", 1)[-1])
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.update(sub.value.split("."))
    return found


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_every_public_definition_has_a_caller():
    outside = set()
    for path in CALLERS:
        outside |= _names(_parse(path))
    for path in STRING_CALLERS:
        outside |= _names(_parse(path), strings=True)
    statements = [
        (path, node, _names(node))
        for path in sorted(PACKAGE.glob("*.py"))
        for node in _parse(path).body
    ]
    # How many top-level statements of the package name each identifier.
    uses = Counter(name for _, _, names in statements for name in names)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    dead = [
        f"{path.stem}.{node.name}"
        for path, node, names in statements
        if isinstance(node, kinds)
        and not node.name.startswith("_")
        and node.name not in outside
        # a definition's own body does not count
        and uses[node.name] == (node.name in names)
    ]
    assert not dead, f"public definitions nothing calls: {dead}"
