"""The package keeps explicit stacks: no function reaches itself through
calls by bare name or by ``self.<method>``, or through reads of a property,
so the nesting depth of an input never meets the recursion limit."""

import ast
from pathlib import Path

import prenexify

# Its depth is bounded by its budget, at most 9.
ALLOWED = {"selftest._random_formula"}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(node):
    """The nodes in ``node``'s body, except those inside a nested def or class."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, (*_DEFS, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(child))


def _is_property(node) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list
    )


def call_graph(module: str, source: str) -> dict[str, set[str]]:
    """Each function's qualified name, mapped to the functions of the module
    it calls: a bare name resolves in the enclosing function scopes, then
    at module level; ``self.<name>`` resolves to a method of the class.
    Reading an attribute named after a ``@property`` of a class in the
    module counts as a call to every such getter, whatever the object."""
    graph: dict[str, set[str]] = {}
    loads: dict[str, set[str]] = {}  # function -> attribute names it reads
    getters: dict[str, set[str]] = {}  # property name -> its getters
    # (node, its qualified name, the bare names it sees, its class's methods)
    todo = [(ast.parse(source), module, {}, {})]
    while todo:
        node, name, outer, methods = todo.pop()
        nodes = list(_own_nodes(node))
        defs = {n.name: n for n in nodes if isinstance(n, _DEFS)}
        if isinstance(node, ast.ClassDef):
            methods = {key: f"{name}.{key}" for key in defs}
            scope = outer
            for key, child in defs.items():
                if _is_property(child):
                    getters.setdefault(key, set()).add(methods[key])
        else:
            scope = {**outer, **{key: f"{name}.{key}" for key in defs}}
        for key, child in defs.items():
            todo.append((child, f"{name}.{key}", scope, methods))
        for child in nodes:
            if isinstance(child, ast.ClassDef):
                todo.append((child, f"{name}.{child.name}", scope, {}))
        if not isinstance(node, _DEFS):
            continue
        calls = graph.setdefault(name, set())
        loads[name] = {
            child.attr
            for child in nodes
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load)
        }
        for child in nodes:
            if not isinstance(child, ast.Call):
                continue
            func = child.func
            if isinstance(func, ast.Name) and func.id in scope:
                calls.add(scope[func.id])
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and func.attr in methods
            ):
                calls.add(methods[func.attr])
    for name, attrs in loads.items():
        for attr in attrs & getters.keys():
            graph[name] |= getters[attr]
    return graph


def recursive(graph: dict[str, set[str]]) -> set[str]:
    """The functions that reach themselves."""
    found = set()
    for start in graph:
        seen: set[str] = set()
        stack = list(graph[start])
        while stack:
            name = stack.pop()
            if name == start:
                found.add(start)
                break
            if name not in seen:
                seen.add(name)
                stack.extend(graph.get(name, ()))
    return found


def test_the_checker_finds_cycles():
    source = '''
def a(): b()
def b(): a()
def c():
    def walk(): walk()
    c_helper = 1
class K:
    def one(self): self.two()
    def two(self):
        def inner(): self.one()
        inner()
    def three(self): three()
def three(): pass
class Node:
    @property
    def depth(self): return self.child.depth + 1
    @property
    def leaf(self): return self.label
def label(node): return node.leaf
'''
    graph = call_graph("m", source)
    assert recursive(graph) == {
        "m.a", "m.b", "m.c.walk", "m.K.one", "m.K.two", "m.K.two.inner", "m.Node.depth"
    }
    assert graph["m.K.three"] == {"m.three"}
    assert graph["m.label"] == {"m.Node.leaf"}
    assert graph["m.Node.leaf"] == set()


def test_no_function_recurses():
    graph = {}
    for path in sorted(Path(prenexify.__file__).parent.glob("*.py")):
        graph.update(call_graph(path.stem, path.read_text()))
    assert len(graph) > 100
    assert recursive(graph) == ALLOWED
