"""Every function, class, method and property of the package is reached from
the package itself.  A name that only the tests or the exports in
``__init__.py`` use is dead code: it goes, or moves to ``tests/oracles.py``.

Reach is read off the syntax tree by name.  A module-level function or class
is reached by a ``Name`` or an attribute of that name anywhere in the
package, outside its own definition; a method or property only by an
attribute of its name, so it shares its reach with every attribute of the
same name.  Dunder methods are called by Python itself, and a method that
overrides one of a base class outside the package (``argparse``'s
``error``) by that base's code, so neither is checked."""

import ast
import importlib
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mvergo"

# names with no caller in the package yet, each kept for the ROADMAP item
# that gives it one; an entry leaves once its name is reached
KEEP = {
    "bounds.ConstFunction": "ROADMAP item 5: the const family's cell supremum",
    "circle.expansion_certificate": "ROADMAP items 8 and 12: the expansion hypothesis, "
                                    "checked for circle-system documents",
    "geometry.orientation": "ROADMAP items 7 and 12: the hull flags' exact "
                            "orientation re-check",
    "mea.maximizing_measures": "ROADMAP items 8 and 9: the maximizing measures beside "
                               "the subaction and in the run report",
}


def _definitions(tree):
    """(qualified name, node, is a method) of every module-level function
    and class, and every method and property of those classes but dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item, True


def _references(tree, skip) -> tuple[set, set]:
    """The ``Name`` ids and the attribute names used in tree, outside the
    subtree ``skip``."""
    names, attrs = set(), set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return names, attrs


def unreached(sources: dict, is_hook=lambda module, qualname: False) -> list[str]:
    """The ``module.qualname`` of every definition in ``sources`` (module
    name -> source text, ``__init__`` left out) that no other part of them
    references; ``is_hook(module, qualname)`` exempts a method called from
    outside."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    dead = []
    for module, tree in trees.items():
        for qualname, node, method in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if method and is_hook(module, qualname):
                continue
            reached = False
            for other, other_tree in trees.items():
                names, attrs = _references(other_tree, node if other == module else None)
                if name in attrs or (not method and name in names):
                    reached = True
                    break
            if not reached:
                dead.append(f"{module}.{qualname}")
    return dead


def _overrides_external(module: str, qualname: str) -> bool:
    """Whether the method overrides one of a base class outside the package."""
    cls_name, name = qualname.split(".")
    cls = getattr(importlib.import_module(f"mvergo.{module}"), cls_name)
    return any(hasattr(base, name) for base in cls.__mro__[1:]
               if not base.__module__.startswith("mvergo"))


def _package_sources() -> dict:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"}


def test_every_definition_is_reached_from_the_package():
    dead = unreached(_package_sources(), _overrides_external)
    assert sorted(set(dead) - set(KEEP)) == []
    # a kept name that gains a caller leaves the list
    assert sorted(set(KEEP) - set(dead)) == []


def test_each_kept_name_names_its_roadmap_item():
    assert all(re.match(r"ROADMAP items? \d+", why) for why in KEEP.values())


def test_reach_check_flags_planted_dead_code():
    sources = {
        "a": "def used():\n    return 1\n"
             "def dead(n):\n    return dead(n - 1) if n else used()\n"
             "class Box:\n    def size(self):\n        return used()\n"
             "    def spare(self):\n        return 0\n"
             "    def error(self):\n        return 0\n"
             "    def __len__(self):\n        return 0\n",
        "b": "from .a import Box\ndef run():\n    return Box().size()\n",
    }
    # its own recursion leaves ``dead`` unreached, while a call from dead
    # code reaches ``used``; nothing calls ``run``
    assert unreached(sources) == ["a.dead", "a.Box.spare", "a.Box.error", "b.run"]
    assert unreached(sources, lambda module, qualname: qualname == "Box.error") == [
        "a.dead", "a.Box.spare", "b.run"]
    # an import alone reaches nothing
    sources["b"] = "from .a import Box\n"
    assert unreached(sources) == ["a.dead", "a.Box", "a.Box.size", "a.Box.spare",
                                  "a.Box.error"]
