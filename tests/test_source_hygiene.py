"""Source hygiene of the package, checked with the standard-library ``ast``:
no unused import, no unreferenced module-level private name, and an
``__all__`` whose every entry resolves."""

import ast
from pathlib import Path

import qfdr

SOURCES = {path.name: ast.parse(path.read_text()) for path in Path(qfdr.__file__).parent.glob("*.py")}


def loaded_names(tree):
    """Names a module reads, as bare names or attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def imported(tree):
    """(bound name, module) of every import statement but ``__future__``'s."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node


def test_every_import_is_used():
    for name, tree in SOURCES.items():
        used = loaded_names(tree) | (set(qfdr.__all__) if name == "__init__.py" else set())
        unused = sorted(bound for bound, _ in imported(tree) if bound not in used)
        assert not unused, f"{name} imports {unused} and never uses them"


def test_every_private_module_name_is_referenced():
    referenced = set()
    for tree in SOURCES.values():
        referenced |= loaded_names(tree)
        referenced |= {bound for bound, node in imported(tree) if getattr(node, "level", 0) > 0}
    for name, tree in SOURCES.items():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", node)]
            for target in targets:
                defined = getattr(target, "name", getattr(target, "id", ""))
                if defined.startswith("_") and not defined.startswith("__"):
                    assert defined in referenced, f"{name} defines {defined} and nothing uses it"


def test_all_entries_resolve():
    missing = [name for name in qfdr.__all__ if not hasattr(qfdr, name)]
    assert not missing and len(set(qfdr.__all__)) == len(qfdr.__all__)
