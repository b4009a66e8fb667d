"""The package defines nothing that nothing uses: every module-level
function, class and assigned name, and every method, that is not a
dunder is named somewhere in the package outside its own definition, or
somewhere in the benchmark under ``bench/``.  A name counts when it is
read as a bare name or an attribute; the benchmark's traced ``LAYERS``
strings count too, but the package's ``__all__`` lists and re-exports do
not.  Matching is by name only, so a dead definition that shares its name
with a live one (``to_json``) goes unseen."""

import ast
from collections import Counter
from pathlib import Path

import prenexify

SRC = Path(prenexify.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "bench"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _named(node) -> Counter:
    """How often each name is read as a bare name or an attribute in ``node``."""
    names = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names[child.id] += 1
        elif isinstance(child, ast.Attribute):
            names[child.attr] += 1
    return names


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(module: str, tree):
    """``(qualified name, name, node)`` for each module-level function,
    class and assigned name and each method of a module-level class that
    is not a dunder; an assignment's node is the whole statement."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not _dunder(name.id):
                        yield f"{module}.{name.id}", name.id, node
        if not isinstance(node, _DEFS):
            continue
        yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, _DEFS) and not _dunder(child.name):
                    yield f"{module}.{node.name}.{child.name}", child.name, child


def _layer_names(source: str) -> set[str]:
    """Each dotted part of the strings in a module's ``LAYERS`` table."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYERS":
            return {
                part
                for child in ast.walk(node.value)
                if isinstance(child, ast.Constant) and isinstance(child.value, str)
                for part in child.value.split(".")
            }
    return set()


def unused(sources: dict[str, str], outside: set[str]) -> set[str]:
    """The definitions in ``sources`` (module name -> text) whose name is read
    nowhere in them outside their own definition, nor is in ``outside``."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    everywhere = sum((_named(tree) for tree in trees.values()), Counter())
    found = set()
    for module, tree in trees.items():
        for qualified, name, node in _definitions(module, tree):
            if name in outside:
                continue
            if everywhere[name] - _named(node)[name] <= 0:
                found.add(qualified)
    return found


def test_the_scan_finds_unused_definitions():
    sources = {
        "a": '''
def live(): return helper()
def helper(): pass
def dead(): dead()
def traced(): pass
class K:
    def __repr__(self): return ""
    def used(self): return self.other
    def other(self): pass
    def unread(self): pass
LIVE = 1
DEAD, _UNREAD = LIVE, 2
TYPED: int = LIVE
__version__ = "0"
''',
        "b": "from a import live\n__all__ = ['dead']\nlive()\nK().used()\n",
    }
    assert unused(sources, {"traced"}) == {
        "a.dead",
        "a.K.unread",
        "a.DEAD",
        "a._UNREAD",
        "a.TYPED",
    }


def test_layer_strings_are_split_on_dots():
    source = 'LAYERS = {"x.y": [("pkg.mod", "Cls.meth")]}\nOTHER = ["skipped"]\n'
    assert _layer_names(source) == {"x", "y", "pkg", "mod", "Cls", "meth"}


def test_every_definition_is_used():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    outside = _layer_names((BENCH / "tracer.py").read_text(encoding="utf-8"))
    for path in BENCH.glob("*.py"):
        outside |= set(_named(ast.parse(path.read_text(encoding="utf-8"))))
    assert len(sources) >= 10
    assert unused(sources, outside) == set()
