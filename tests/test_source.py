"""Static checks of the package source: no unused import, no private
function, class or module constant that nothing in the package uses, and
no ``self`` attribute that is assigned but never read."""

import ast
from pathlib import Path

import splitindex

MODULES = sorted(Path(splitindex.__file__).parent.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def used_names(tree):
    """Every name ``tree`` reads: bare names, attribute names, and the
    entries of ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def unused_imports(tree):
    """The names that an import of ``tree`` binds and ``tree`` never reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = used_names(tree)
    return [name for name in bound if name not in used]


def private(name):
    return name.startswith("_") and not name.endswith("__")


def private_definitions(tree):
    """The private functions and classes of ``tree``, at any depth, and its
    private module constants."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and private(node.name):
            yield node.name
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
        yield from (t.id for t in targets if isinstance(t, ast.Name) and private(t.id))


def dead_private_names(trees):
    """``module:name`` of each private definition in ``trees`` that none of
    them reads."""
    used = set().union(*map(used_names, trees.values()))
    return [f"{module}:{name}" for module, tree in trees.items() for name in private_definitions(tree) if name not in used]


def assigned_attributes(tree):
    """The names of the ``self.<name>`` that ``tree`` assigns."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and getattr(node.value, "id", None) == "self":
            yield node.attr


def dead_attributes(trees):
    """The ``self`` attributes that ``trees`` assign and none of them reads."""
    used = set().union(*map(used_names, trees.values()))
    return sorted({name for tree in trees.values() for name in assigned_attributes(tree)} - used)


def test_no_module_has_an_unused_import():
    unused = {path.name: names for path in MODULES if (names := unused_imports(parse(path)))}
    assert not unused


def test_every_private_name_is_used_in_the_package():
    trees = {path.name: parse(path) for path in MODULES}
    assert sum(len(list(private_definitions(tree))) for tree in trees.values()) > 40
    assert not dead_private_names(trees)


def test_every_assigned_attribute_is_read_in_the_package():
    trees = {path.name: parse(path) for path in MODULES}
    assert len({name for tree in trees.values() for name in assigned_attributes(tree)}) > 20
    assert not dead_attributes(trees)


def test_the_checks_find_what_they_look_for():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from itertools import pairwise, chain as _chain\n"
        "_LIMIT = 3\n"
        "_KEPT: int = 4\n"
        "class _Shape:\n"
        "    def __init__(self): self.side, self.unread = _KEPT, 0\n"
        "    def _area(self): return self.side\n"
        "def _dead(): return _dead()\n"
        "def f(x): return os.path.join(x._area(), _Shape)\n"
    )
    assert unused_imports(tree) == ["pairwise", "_chain"]
    assert dead_private_names({"m.py": tree}) == ["m.py:_LIMIT"]
    assert dead_attributes({"m.py": tree}) == ["unread"]
