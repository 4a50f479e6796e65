"""Source hygiene the package keeps without a linter: no module imports a name it never uses,
and every random stream is seeded by ``auction._stream``."""

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


def default_rng_outside_stream(source: str) -> list[str]:
    """Lines of ``source`` that name ``default_rng``, by a call, an attribute or an import,
    anywhere but inside a function named ``_stream``."""
    tree = ast.parse(source)
    inside = {id(node) for function in ast.walk(tree)
              if isinstance(function, ast.FunctionDef) and function.name == "_stream"
              for node in ast.walk(function)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.split(".")[-1] for alias in node.names]
        else:
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
        if "default_rng" in names and id(node) not in inside:
            lines.append(node.lineno)
    return [f"line {line}" for line in sorted(lines)]


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_no_module_seeds_a_generator_but_through_the_one_stream_seeder(module):
    assert default_rng_outside_stream((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_scan_finds_default_rng_outside_the_stream_seeder():
    source = ("import numpy as np\n"
              "from numpy.random import default_rng as make\n"
              "def _stream(*key):\n"
              "    return np.random.default_rng(list(key))\n"
              "def draw(seed):\n"
              "    return np.random.default_rng([seed, 1])\n"
              "seeder = np.random.default_rng\n")
    assert default_rng_outside_stream(source) == ["line 2", "line 6", "line 7"]
