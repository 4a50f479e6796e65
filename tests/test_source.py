"""Source hygiene the package keeps without a linter: no module imports a name it never uses."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "myerson_airnet"
NOQA = "# noqa: F401"  # marks a binding kept for a caller that patches it, not for the module


def unused_imports(source: str) -> list[str]:
    """Names ``source`` imports and neither reads nor lists in ``__all__``, as pyflakes' F401
    would report them; an import statement with a :data:`NOQA` comment on any line is skipped."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if any(NOQA in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            used |= {item.value for item in node.value.elts}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_no_module_imports_a_name_it_never_uses(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_unused_import_and_honours_noqa():
    source = ("from .auction import _at_least, _key\n"
              "from .valuation import pile_terms  # noqa: F401\n"
              "import numpy as np\n"
              "__all__ = ['np']\n"
              "x = _key(1, 'one')\n")
    assert unused_imports(source) == ["line 1: _at_least"]
