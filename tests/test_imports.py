"""Static checks of the package's names, with the standard library only:
no module-level import that its module never uses (in the package and
the tests), a `tlc.__all__` whose every name resolves, no
function, class or method that nothing names, a pinned list of those
that only the tests name, and no error class that nothing raises."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import tlc
from tlc import errors

SRC = Path(tlc.__file__).parent
REPO = SRC.parents[1]
# a string naming a target, as perfbench's tracer names "Store.put"
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


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
    for path in sorted((REPO / "tests").rglob("*.py")):
        unused += _unused_imports(path, set())
    assert unused == []


def test_all_names_resolve():
    assert [name for name in tlc.__all__ if not hasattr(tlc, name)] == []


def test_unused_import_is_found(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from __future__ import annotations\nimport hashlib\nimport os.path\nfrom . import x as y\n\nos.sep\n")
    assert _unused_imports(path, set()) == ["m.py:2: hashlib", "m.py:4: y"]


def _name_counts(tree) -> Counter:
    """How often each name occurs in a parse tree: as a variable, an
    attribute, an imported name or a string that is a dotted name."""
    counts = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            counts[n.id] += 1
        elif isinstance(n, ast.Attribute):
            counts[n.attr] += 1
        elif isinstance(n, ast.alias):
            counts.update(n.name.split("."))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and _DOTTED.fullmatch(n.value):
            counts.update(n.value.split("."))
    return counts


def _unnamed_definitions(defining: list, others: list) -> list[str]:
    """The top-level functions and classes, and the methods not named like
    __this__, of the defining files that no code outside their own
    definition names, in any of the files."""
    trees = {p: ast.parse(p.read_text(), str(p)) for p in [*defining, *others]}
    total = sum((_name_counts(t) for t in trees.values()), Counter())
    unnamed = []
    for path in defining:
        for node in trees[path].body:
            defs = [(node, node.name)] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else []
            if isinstance(node, ast.ClassDef):
                defs += [(m, f"{node.name}.{m.name}") for m in node.body
                         if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
            for d, label in defs:
                if total[d.name] == _name_counts(d)[d.name]:
                    unnamed.append(f"{path.name}:{d.lineno}: {label}")
    return unnamed


def test_every_definition_is_named_elsewhere():
    others = [p for top in ("src", "tests", "perfbench") for p in sorted((REPO / top).rglob("*.py"))]
    defining = sorted(SRC.glob("*.py"))
    assert _unnamed_definitions(defining, [p for p in others if p not in defining]) == []


# the definitions that only the tests name, as "module.name"; pinned so that
# a new one cannot enter the package unnoticed.  corrcone.lift_raw is the
# checked lift for points from outside; the package lifts only points it
# made, unchecked
TEST_ONLY = {"enumeration.oracle_maximal", "corrcone.lift_raw"}


def test_test_only_definitions_are_pinned():
    others = [p for top in ("src", "perfbench") for p in sorted((REPO / top).rglob("*.py"))]
    defining = sorted(SRC.glob("*.py"))
    unnamed = _unnamed_definitions(defining, [p for p in others if p not in defining])
    found = {re.sub(r"\.py:\d+: ", ".", label) for label in unnamed}
    # argparse calls the override, so nothing in the repo names it
    assert found - {"cli._Parser.error"} == TEST_ONLY


def test_unnamed_definition_is_found(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "class A:\n    def used(self):\n        return self.used\n    def named(self):\n        pass\n"
        "    def alone(self):\n        pass\n    def __eq__(self, other):\n        pass\n\n"
        "def f():\n    return f()\n\nTARGETS = ['A.named']\n"
    )
    assert _unnamed_definitions([path], []) == ["m.py:2: A.used", "m.py:6: A.alone", "m.py:11: f"]


def _unraised(names: list, paths: list) -> list[str]:
    """The names that no `raise` statement in the files raises, called or not."""
    raised = set()
    for path in paths:
        for n in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(n, ast.Raise) and n.exc is not None:
                exc = n.exc.func if isinstance(n.exc, ast.Call) else n.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    return [name for name in names if name not in raised]


def test_every_error_class_is_raised():
    # the base class is what callers catch; every subclass must be raised
    names = [name for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, errors.TlcError) and obj is not errors.TlcError]
    assert names and _unraised(names, sorted(SRC.glob("*.py"))) == []


def test_unraised_error_is_found(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from . import errors\n\ndef f(x):\n    if x:\n        raise errors.A('a')\n    raise B\n\nC('c')\n")
    assert _unraised(["A", "B", "C"], [path]) == ["C"]


def _traced_targets() -> list:
    """perfbench's LAYERS, read from its source without importing it."""
    tree = ast.parse((REPO / "perfbench" / "tracer.py").read_text())
    value = next(n.value for n in tree.body if isinstance(n, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in n.targets))
    return ast.literal_eval(value)


def _tlc_references(path: Path) -> set:
    """The tlc names a file imports or reads off a tlc module it imported,
    as dotted paths under tlc: `from tlc.m import a` gives "m.a", and
    `from tlc import m` followed by `m.f.g` gives "m", "m.f" and "m.f.g"."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "tlc":
            for alias in node.names:
                bound[alias.asname or alias.name] = ".".join([*node.module.split(".")[1:], alias.name])
    refs = set(bound.values())
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            refs.add(".".join([bound[node.id], *chain]))
    return refs


def _resolves(dotted: str) -> bool:
    head, *rest = dotted.split(".")
    obj = importlib.import_module(f"tlc.{head}") if (SRC / f"{head}.py").exists() else getattr(tlc, head, None)
    for part in rest:
        obj = getattr(obj, part, None)
    return obj is not None


def test_benchmark_hooks_resolve():
    # the benchmark wraps these names, and its workloads, input generators
    # and fixtures import or call these: a name missing here breaks a
    # benchmark run, traced or not
    targets = _traced_targets()
    missing = []
    for module, target, _ in targets:
        obj = importlib.import_module(f"tlc.{module}")
        for part in target.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{target}")
    refs = set().union(*map(_tlc_references, sorted((REPO / "perfbench").glob("*.py"))))
    assert targets and missing == []
    assert {"configuration.BinaryMatrix", "configuration.parse_matrix", "configuration.SIDE_B",
            "compress.weighted_graph_parse", "enumeration.enumerate_maximal", "enumeration._seed_masks",
            "store.Store"} <= refs
    assert sorted(name for name in refs if not _resolves(name)) == []


def test_tlc_reference_is_found(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from tlc import canon as c, store\nfrom tlc.configuration import parse_matrix\n"
                    "import os\n\nc.canonical_form(x).bytes\nstore.Store(p).put\nos.sep\n")
    assert _tlc_references(path) == {"canon", "canon.canonical_form", "store", "store.Store",
                                     "configuration.parse_matrix"}
