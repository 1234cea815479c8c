"""Every top-level import in ``src/`` and ``tests/`` is used in its file.

Stdlib only: each module is parsed with ``ast``, and a name bound by a
module-level ``import`` counts as used when any name node in that module
spells it. Package ``__init__.py`` files (whose imports are re-exports) and
``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_unused_top_level_imports():
    files = sorted(
        p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
        if p.name != "__init__.py"
    )
    assert files
    assert [u for p in files for u in unused_imports(p)] == []
