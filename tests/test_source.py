"""Static checks of the package source: no unused import, no private
function, class, module constant or private-class method that nothing in
the package uses, no ``self`` attribute that is assigned but never read, and
no error class that nothing in the package raises."""

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


def private_class_methods(tree):
    """``Class.method`` for each non-dunder method of each private class of
    ``tree`` that has no base class.  A class with a base may override a
    method that only its base calls, as argparse calls ``_Parser.error``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and private(node.name) and not node.bases:
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.endswith("__"):
                    yield f"{node.name}.{item.name}"


def dead_methods(trees):
    """``module:Class.method`` of each private-class method in ``trees``
    whose name none of them reads.  It matches by name alone, so it misses a
    leftover method whose name is read for something else: a stray
    ``_Windows.gram`` or ``.replace`` would pass, as ``Substitution.gram``
    and ``bytes.replace`` are read."""
    used = set().union(*map(used_names, trees.values()))
    return [f"{module}:{name}" for module, tree in trees.items() for name in private_class_methods(tree)
            if name.partition(".")[2] not in used]


def assigned_attributes(tree):
    """The names of the ``self.<name>`` that ``tree`` assigns."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and getattr(node.value, "id", None) == "self":
            yield node.attr


def dead_attributes(trees):
    """The ``self`` attributes that ``trees`` assign and none of them reads."""
    used = set().union(*map(used_names, trees.values()))
    return sorted({name for tree in trees.values() for name in assigned_attributes(tree)} - used)


def error_classes(tree):
    """The classes of ``tree`` that derive, directly or not, from
    ``SplitIndexError``; each follows its base, as Python needs."""
    names = {"SplitIndexError"}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(getattr(b, "id", None) in names for b in node.bases):
            names.add(node.name)
    return names - {"SplitIndexError"}


def unraised_errors(trees):
    """The error classes of ``trees["errors.py"]`` that no ``raise`` in
    ``trees`` names, as ``raise E(...)``, ``raise E`` or ``raise m.E``."""
    raised = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None) or getattr(exc, "attr", None))
    return sorted(error_classes(trees["errors.py"]) - raised)


def test_no_module_has_an_unused_import():
    unused = {path.name: names for path in MODULES if (names := unused_imports(parse(path)))}
    assert not unused


def test_every_private_name_is_used_in_the_package():
    trees = {path.name: parse(path) for path in MODULES}
    assert sum(len(list(private_definitions(tree))) for tree in trees.values()) > 40
    assert not dead_private_names(trees)


def test_every_private_class_method_is_used_in_the_package():
    trees = {path.name: parse(path) for path in MODULES}
    assert sum(len(list(private_class_methods(tree))) for tree in trees.values()) > 10
    assert not dead_methods(trees)


def test_every_assigned_attribute_is_read_in_the_package():
    trees = {path.name: parse(path) for path in MODULES}
    assert len({name for tree in trees.values() for name in assigned_attributes(tree)}) > 20
    assert not dead_attributes(trees)


def test_every_error_class_is_raised_in_the_package():
    trees = {path.name: parse(path) for path in MODULES}
    assert len(error_classes(trees["errors.py"])) >= 9
    assert not unraised_errors(trees)


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
        "    def width(self): return self.side\n"
        "    def height(self): return self.side\n"
        "class _Flag(object):\n"
        "    def format_usage(self): return ''\n"
        "def _dead(): return _dead()\n"
        "def f(x): return os.path.join(x._area(), x.width(), _Shape, _Flag)\n"
    )
    assert unused_imports(tree) == ["pairwise", "_chain"]
    assert dead_private_names({"m.py": tree}) == ["m.py:_LIMIT"]
    assert dead_methods({"m.py": tree}) == ["m.py:_Shape.height"]
    assert dead_attributes({"m.py": tree}) == ["unread"]
    errors = ast.parse(
        "class SplitIndexError(Exception): pass\n"
        "class StoreError(SplitIndexError): pass\n"
        "class CutError(StoreError): pass\n"
        "class DeadError(SplitIndexError): pass\n"
        "class OtherError(Exception): pass\n"
    )
    user = ast.parse("def f(x):\n    if x:\n        raise CutError('cut') from None\n    raise errors.StoreError\n")
    assert error_classes(errors) == {"StoreError", "CutError", "DeadError"}
    assert unraised_errors({"errors.py": errors, "m.py": user}) == ["DeadError"]
