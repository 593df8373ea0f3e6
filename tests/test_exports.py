"""Export hygiene of the ``stkit`` sources, read with ``ast`` only.

Every name in a module's ``__all__`` is bound at the module's top level,
every module-level import is used, and every module-level private name is
read outside its own definition, so a deletion cannot leave a stale export,
a dead import or a dead private definition behind.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "stkit").glob("*.py"))


def module_of(path: Path) -> ast.Module:
    return ast.parse(path.read_text("utf-8"), filename=str(path))


def top_level(body):
    """The statements of ``body``, with those nested in its ``if`` and
    ``try`` blocks, which bind at the same level."""
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try)):
            handlers = [h.body for h in getattr(node, "handlers", [])]
            for block in (node.body, *handlers, node.orelse, getattr(node, "finalbody", [])):
                yield from top_level(block)


def imported(node) -> list[str]:
    """The names an import statement binds; ``from __future__`` binds none."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [a.asname or a.name.split(".")[0] for a in node.names]


def bound_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in top_level(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(imported(node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def exported(tree: ast.Module) -> list[str]:
    for node in top_level(tree.body):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def stale_exports(tree: ast.Module) -> list[str]:
    """The names in ``__all__`` that the module does not bind."""
    bound = bound_names(tree)
    return [name for name in exported(tree) if name not in bound]


def dead_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each module-level import that nothing reads or exports."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(exported(tree))
    return [
        (node.lineno, name)
        for node in top_level(tree.body)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in imported(node)
        if name not in used
    ]


def private_definitions(tree: ast.Module):
    """(name, node) of each module-level function, class or assigned name
    that starts with a single underscore."""
    for node in top_level(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if name[:1] == "_" and name[:2] != "__")


def unread_privates(trees: dict[str, ast.Module]) -> list[str]:
    """``module.name`` of each private definition that no module reads
    outside the definition itself: its own module as a loaded name or an
    attribute, another as a name imported from it or an attribute."""
    reads = {}  # (module, name) -> the nodes that read it; module None: any module's
    for module, tree in trees.items():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                reads.setdefault((module, n.id), []).append(n)
            elif isinstance(n, ast.Attribute):
                reads.setdefault((None, n.attr), []).append(n)
            elif isinstance(n, ast.ImportFrom) and n.module in trees:
                for alias in n.names:
                    reads.setdefault((n.module, alias.name), []).append(alias)
    dead = []
    for module, tree in trees.items():
        for name, node in private_definitions(tree):
            inside = set(map(id, ast.walk(node)))
            nodes = reads.get((module, name), []) + reads.get((None, name), [])
            if all(id(n) in inside for n in nodes):
                dead.append(f"{module}.{name}")
    return dead


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_exported_name_is_bound(path):
    assert not stale_exports(module_of(path)), path.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert not dead_imports(module_of(path)), path.name


def test_the_checks_see_a_stale_export_and_a_dead_import():
    tree = ast.parse(
        "import os\nimport json as js\nfrom typing import List\n"
        "__all__ = ['gone', 'f', 'List']\ndef f(): return js.loads('1')\n"
    )
    assert stale_exports(tree) == ["gone"]
    assert dead_imports(tree) == [(1, "os")]


def test_every_private_definition_is_read():
    trees = {path.stem: module_of(path) for path in SOURCES}
    assert not unread_privates(trees)


def test_the_check_sees_an_unread_private_definition():
    trees = {
        "a": ast.parse(
            "_A = 1\n_B = _A\n__version__ = '1'\n_DEAD = 2\n"
            "def _self(): return _self()\ndef _g(): return 2\ndef h(): return _g() + _B\n"
            "class _C: pass\ndef _imported(): pass\ndef _by_attribute(): pass\n"
        ),
        "b": ast.parse("from a import _imported\nimport a\na._by_attribute()\n"),
    }
    assert unread_privates(trees) == ["a._DEAD", "a._self", "a._C"]
