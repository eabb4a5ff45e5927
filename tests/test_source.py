"""Static checks over the package source, with the standard library's ast:
every import is used, every private name a module or class defines is read
somewhere in the package, and so is every public module-level function and
class that ``UNREAD_PUBLIC`` does not name."""
import ast
import pathlib

import pytest

import wstab

MODULES = sorted(pathlib.Path(wstab.__file__).parent.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
         for path in MODULES}

# public definitions that no code in the package reads, each with the reason
# it stays
UNREAD_PUBLIC = {
    "jacobi_fd_check": "H_f'(0) = L_f(u) check that no task runs yet; "
                       "tests and acceptance criterion 9 call it",
    "FieldFlow": "non-similarity flow with closed-form derivatives that no "
                 "scenario names yet; tests build it",
}


def read_names(tree) -> set:
    """The names a module reads, bare or as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def imported_names(tree) -> list:
    """The names a module's imports bind, with the line of each."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name.split(".")[0]), node.lineno)
                    for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def private_definitions(tree) -> list:
    """The _private names bound at module or class level, with the line of
    each; dunder names are not private."""
    out = []
    bodies = [tree.body] + [node.body for node in ast.walk(tree)
                            if isinstance(node, ast.ClassDef)]
    for body in bodies:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            out += [(name, node.lineno) for name in names
                    if name.startswith("_") and not name.endswith("__")]
    return out


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_import_is_used(module):
    tree = TREES[module]
    read = read_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree)
              if name not in read]
    assert not unused, f"{module} imports and never reads: {unused}"


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_name_is_read(module):
    read = set().union(*map(read_names, TREES.values()))
    unread = [f"{name} (line {line})"
              for name, line in private_definitions(TREES[module])
              if name not in read]
    assert not unread, f"{module} defines and nobody reads: {unread}"


def test_every_public_definition_is_read_or_listed():
    read = set().union(*map(read_names, TREES.values()))
    unread = [f"{module}: {node.name} (line {node.lineno})"
              for module, tree in sorted(TREES.items())
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and node.name not in read and node.name not in UNREAD_PUBLIC]
    assert not unread, f"defined, never read and not listed: {unread}"


def test_every_listed_definition_is_unread():
    read = set().union(*map(read_names, TREES.values()))
    defined = {node.name for tree in TREES.values() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    stale = sorted(name for name in UNREAD_PUBLIC
                   if name in read or name not in defined)
    assert not stale, f"listed but read or gone: {stale}"
