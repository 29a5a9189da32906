"""The modules of the package import one another in one order only.

A module may import any module that comes before it in ``ORDER`` and
none that comes after, so the layers stack without cycles: the search
strategies (``teacher``) sit below the explanation methods that use them.
"""

import ast
from pathlib import Path

import pytest

import bayesteach

ORDER = (
    "errors", "types", "models", "spaces", "learners", "core", "oracle", "teacher",
    "explainers", "recombine", "studies", "render", "checks", "cli",
)
PACKAGE = Path(bayesteach.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def package_imports(path: Path) -> set:
    """The package modules a source file imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("bayesteach." if node.level == 1 else "") + (node.module or "")
            base = base.rstrip(".")
            names = [base] if "." in base else [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith("bayesteach."))
    return found


def test_every_module_has_a_place_in_the_order():
    assert sorted(ORDER) == MODULES


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_earlier_modules(module):
    rank = ORDER.index(module)
    later = sorted(m for m in package_imports(PACKAGE / f"{module}.py") if ORDER.index(m) >= rank)
    assert later == [], f"{module} imports {later}, which come at or after it in {ORDER}"
