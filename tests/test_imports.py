"""Static checks of the package's imports, with the standard library only:
no module-level import that its module never uses, and a `tlc.__all__`
whose every name resolves."""

import ast
from pathlib import Path

import tlc

SRC = Path(tlc.__file__).parent


def _unused_imports(path: Path, exempt: set) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used | exempt]


def test_no_unused_module_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        # __init__ imports only to re-export
        unused += _unused_imports(path, set(tlc.__all__) if path.name == "__init__.py" else set())
    assert unused == []


def test_all_names_resolve():
    assert [name for name in tlc.__all__ if not hasattr(tlc, name)] == []


def test_unused_import_is_found(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from __future__ import annotations\nimport hashlib\nimport os.path\nfrom . import x as y\n\nos.sep\n")
    assert _unused_imports(path, set()) == ["m.py:2: hashlib", "m.py:4: y"]
