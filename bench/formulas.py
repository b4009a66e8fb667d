"""The benchmark's own formula model, independent of the program under test.

A formula is a nested tuple:

    ("F",)                      false
    ("P", name, (var, ...))     prime formula
    ("&" | "|" | ">", l, r)     and, or, implication
    ("E" | "A", var, body)      exists, forall

Inputs are printed from this model, and outputs are checked against it,
so a fault in the program's parser, renderer or prenex classifier cannot
hide itself by agreeing with its own output.  The walkers over program
output are iterative, so a deep output cannot exhaust the stack here.
"""

from __future__ import annotations

FALSE = ("F",)
BINARY = ("&", "|", ">")
QUANT = ("E", "A")
_SYMBOL = {"&": "&", "|": "|", ">": "->"}
_WORD = {"E": "exists", "A": "forall"}


def to_text(phi: tuple) -> str:
    """Fully parenthesised text in the program's input syntax.

    ``p -> false`` is printed as ``~p`` so that corpora exercise the
    negation sugar of the grammar.
    """
    out: list[str] = []
    todo: list = [phi]
    while todo:
        node = todo.pop()
        if isinstance(node, str):
            out.append(node)
            continue
        tag = node[0]
        if tag == "F":
            out.append("false")
        elif tag == "P":
            out.append(f"{node[1]}({', '.join(node[2])})" if node[2] else node[1])
        elif tag == ">" and node[2] == FALSE:
            todo += [node[1], "~"]
        elif tag in BINARY:
            todo += [")", node[2], f" {_SYMBOL[tag]} ", node[1], "("]
        else:
            todo += [")", node[2], f"({_WORD[tag]} {node[1]}. "]
    return "".join(out)


_TYPE_TAG = {"And": "&", "Or": "|", "Imp": ">", "Exists": "E", "Forall": "A"}


def from_program(formula) -> tuple:
    """Convert a program formula object by its public attributes only."""
    done: dict[int, tuple] = {}
    todo = [formula]
    while todo:
        node = todo[-1]
        if id(node) in done:
            todo.pop()
            continue
        name = type(node).__name__
        if name == "Falsum":
            done[id(node)] = FALSE
        elif name == "Prime":
            done[id(node)] = ("P", node.name, tuple(node.args))
        elif name in ("Exists", "Forall"):
            if id(node.body) not in done:
                todo.append(node.body)
                continue
            done[id(node)] = (_TYPE_TAG[name], node.var, done[id(node.body)])
        else:
            pending = [c for c in (node.left, node.right) if id(c) not in done]
            if pending:
                todo += pending
                continue
            done[id(node)] = (_TYPE_TAG[name], done[id(node.left)], done[id(node.right)])
        todo.pop()
    return done[id(formula)]


def freeze(data: list) -> tuple:
    """A formula read back from JSON, where its tuples became lists."""
    return tuple(freeze(part) if isinstance(part, list) else part for part in data)


def size(phi: tuple) -> int:
    total, todo = 0, [phi]
    while todo:
        node = todo.pop()
        total += 1
        if node[0] in BINARY:
            todo += [node[1], node[2]]
        elif node[0] in QUANT:
            todo.append(node[2])
    return total


def depth(phi: tuple) -> int:
    best, todo = 0, [(phi, 1)]
    while todo:
        node, d = todo.pop()
        best = max(best, d)
        if node[0] in BINARY:
            todo += [(node[1], d + 1), (node[2], d + 1)]
        elif node[0] in QUANT:
            todo.append((node[2], d + 1))
    return best


def is_qf(phi: tuple) -> bool:
    todo = [phi]
    while todo:
        node = todo.pop()
        if node[0] in QUANT:
            return False
        if node[0] in BINARY:
            todo += [node[1], node[2]]
    return True


def free_vars(phi: tuple) -> frozenset:
    free: set = set()
    todo = [(phi, frozenset())]
    while todo:
        node, bound = todo.pop()
        tag = node[0]
        if tag == "P":
            free.update(v for v in node[2] if v not in bound)
        elif tag in BINARY:
            todo += [(node[1], bound), (node[2], bound)]
        elif tag in QUANT:
            todo.append((node[2], bound | {node[1]}))
    return frozenset(free)


def measure(phi: tuple) -> int:
    """Sum over quantifier occurrences of the connectives strictly above
    them; every hoisting step lowers it by exactly one."""
    total, todo = 0, [(phi, 0)]
    while todo:
        node, above = todo.pop()
        tag = node[0]
        if tag in BINARY:
            todo += [(node[1], above + 1), (node[2], above + 1)]
        elif tag in QUANT:
            total += above
            todo.append((node[2], above))
    return total


def prenex_blocks(phi: tuple):
    """``(kind, blocks)`` of a prenex formula, or ``None`` if not prenex.

    Blocks are maximal runs of one quantifier kind; a quantifier-free
    formula is ``("sigma", ())``.
    """
    blocks: list[int] = []
    node, last = phi, None
    while node[0] in QUANT:
        if node[0] == last:
            blocks[-1] += 1
        else:
            blocks.append(1)
            last = node[0]
        node = node[2]
    if not is_qf(node):
        return None
    if not blocks:
        return "sigma", ()
    return ("sigma" if phi[0] == "E" else "pi"), tuple(blocks)


def sigma_floor(phi: tuple):
    """Least k with ``phi`` in Sigma_k+, or ``None`` if not prenex."""
    shape = prenex_blocks(phi)
    if shape is None:
        return None
    kind, blocks = shape
    return len(blocks) + (kind == "pi")


def pi_floor(phi: tuple):
    """Least k with ``phi`` in Pi_k+, or ``None`` if not prenex."""
    shape = prenex_blocks(phi)
    if shape is None:
        return None
    kind, blocks = shape
    return len(blocks) + (kind == "sigma" and bool(blocks))
