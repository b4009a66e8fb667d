"""First-order formula ASTs and the positional machinery built on them.

Formulas are immutable and hash-consed: structurally equal live formulas
are always the *same* object, so ``==`` and ``hash`` are identity-based
and cheap.  The intern table is swept as it grows, and a sweep drops the
formulas that nothing outside the table refers to.  Building a node costs
its intern key, whether it is quantifier-free, its prenex code and, over
operands that have their variable masks, its own.
Negation is not a primitive; ``~p`` is represented as ``Imp(p, Falsum)``.
Quantifiers bind exactly one variable per node and terms are restricted
to variables.

A node's free variables and all its variables are two ``int`` bit masks
over a name table.  A node built over operands that have their masks
gets them at construction: a connective their union, a quantifier its
body's with the binder's bit set in ``_vars`` and cleared in ``_free``;
a renaming (``_substitute_var``) builds its renamed atoms with theirs.
Any other node, an atom or ``Falsum`` included, is built without them, so
a process that only parses and classifies fills no mask and assigns no
bit; one iterative walk fills both on a node's first read.  ``free`` and ``vars`` decode them, and other
modules test bits only through this module's readers.  A sweep frees
each bit that no live node's filled mask holds, and a new name takes the
lowest free bit, so code may keep a mask across a node construction
(which may sweep) only if it is the filled mask of a node that stays
alive; a constructor sets a bit on the node it builds before interning
it, so the node holds the bit through the sweep that may follow.

A formula is prenex when it is an alternation of non-empty quantifier
blocks over a quantifier-free matrix.  Each node's ``_shape`` slot holds
its *prenex code*: ``2 * level + 1`` for a prenex node whose first block
is universal, ``2 * level`` for any other prenex node (so 0 for a
quantifier-free one) and ``False`` for a node that is not prenex.  A
quantifier's code follows from its body's in O(1), so the constructors
set it.  Since ``0 == False``, a reader tests ``is False``; the code is
read only through ``is_prenex``, ``prenex_level`` and ``prenex_floors``.
A formula's floors are the least k with it in the cumulative class
Sigma_k+ and the least with it in Pi_k+, ``inf`` for "in none": ``phi``
is in Sigma_k+ exactly when ``k >= prenex_floors(phi)[0]``, and in Pi_k+
when ``k >= prenex_floors(phi)[1]``.
"""

from __future__ import annotations

import sys
from math import inf
from typing import Iterator, Optional

__all__ = [
    "Formula",
    "Prime",
    "Falsum",
    "And",
    "Or",
    "Imp",
    "Exists",
    "Forall",
    "FALSUM",
    "Position",
    "PositionError",
    "LEFT",
    "RIGHT",
    "BODY",
    "subformula_at",
    "replace_at",
    "subformulas",
    "alpha_canonical",
    "fresh_variable",
    "rename_bound",
    "is_prenex",
    "prenex_level",
    "prenex_floors",
]

# Child selectors for positions.  A position is a tuple of selectors; the
# empty tuple is the root.
LEFT = "l"
RIGHT = "r"
BODY = "b"

Position = tuple[str, ...]

_interned: dict[tuple, "Formula"] = {}

# The name table: each name's bit (a power of two), the name of each bit
# index (None when free), and the free indices, lowest last.
_bits: dict[str, int] = {}
_names: list[Optional[str]] = []
_spare: list[int] = []

# The table is swept once it has grown by _GROWTH since the last sweep, and
# not before it holds _SWEEP_FLOOR entries.  Without sys.getrefcount no
# node can be told dead, and the table is never swept.
_GROWTH = 2
_SWEEP_FLOOR = 16_384
_getrefcount = getattr(sys, "getrefcount", None)
_sweep_at = _SWEEP_FLOOR if _getrefcount is not None else sys.maxsize


class PositionError(Exception):
    """Raised when a position does not denote a node of the formula."""


class Formula:
    """Base class for all formula nodes.

    Never instantiate node classes you have not imported from this module;
    construction goes through the subclass constructors, which intern.
    """

    __slots__ = ("_free", "_vars", "is_qf", "_canon", "_shape")

    is_qf: bool
    # _free and _vars are the masks of the free variables and of all
    # variables: set when the node is built over filled operands, else None
    # until the first read fills both, then kept.  _canon caches
    # alpha_canonical: True on a node that is its own canonical form, so
    # none refers to itself; _shape holds the prenex code (see the module
    # docstring), set when the node is built.

    @property
    def free(self) -> tuple[str, ...]:
        """The free variables, sorted."""
        return _decode(_free_mask(self))

    @property
    def vars(self) -> tuple[str, ...]:
        """Every variable occurring (free or bound), sorted."""
        return _decode(_vars_mask(self))

    def __str__(self) -> str:
        from .parser import render

        return render(self)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"


def _intern(key: tuple, node: Formula) -> Formula:
    # Formulas are built on one thread, so ``key`` is still absent: the
    # caller has just looked it up.
    _interned[key] = node
    if len(_interned) >= _sweep_at:
        _sweep()
    return node


def _sweep() -> None:
    """Drop every interned node that nothing outside the table refers to,
    then free the bits that no live node's mask holds.

    Entries are popped newest first.  A node is inserted after its
    operands, so a dead parent, whose key and fields hold its operands, is
    released before they are read, and one pass frees a whole dead subtree
    without recursion.  The live entries go back in their old order.  The
    one reference to a newer node is a ``_canon``, which the pass may
    already have read: the canonical form a dropped node held goes on a
    worklist, which keeps it through the pass.  Then each worklist node
    that only the table holds is dropped, and its operands and canonical
    form go on the worklist, so whatever only they held is freed without
    reading the table again.
    """
    global _sweep_at, _bits
    table = _interned
    count = _getrefcount
    idle = _IDLE
    work = []
    keys, nodes = [], []  # not (key, node) pairs: no tracked object per entry
    while table:
        key, node = table.popitem()
        if count(node) > idle:
            keys.append(key)
            nodes.append(node)
        elif isinstance(node._canon, Formula):
            work.append(node._canon)
    table.clear()  # frees the emptied hash table
    table.update(zip(reversed(keys), reversed(nodes)))
    del keys, nodes  # from here the table holds each live node once
    while work:
        node = work.pop()
        if count(node) > idle + 1:  # held by more than the table
            continue
        key = _key(node)
        del table[key]
        work.extend(part for part in key if isinstance(part, Formula))
        if isinstance(node._canon, Formula):
            work.append(node._canon)
        del key  # it holds the operands, which the next count reads
    _sweep_at = max(_SWEEP_FLOOR, _GROWTH * len(table))
    live = 0
    for node in table.values():
        live |= node._vars or 0
    held = bin(live)[:1:-1]  # bin() reversed: held[i] == "1" when bit i is live
    _names[:] = [name if c == "1" else None for name, c in zip(_names, held)]
    _bits = {name: 1 << i for i, name in enumerate(_names) if name is not None}
    _spare[:] = [i for i in range(len(_names) - 1, -1, -1) if _names[i] is None]


def _key(node: Formula) -> tuple:
    """The intern key of ``node``, as its constructor builds it."""
    if isinstance(node, _Binary):
        return node._tag, node.left, node.right
    if isinstance(node, _Quant):
        return node._tag, node.var, node.body
    if isinstance(node, Prime):
        return "P", node.name, node.args
    return ("F",)


def _idle_count() -> int:
    """What ``_sweep`` reads for a node that only the table holds: a probe
    popped from a table of its own and read the same way."""
    table = {("probe",): object.__new__(Falsum)}
    key, node = table.popitem()
    return _getrefcount(node)


class Prime(Formula):
    """Atomic formula ``P(x, ...)``; arguments are variable names."""

    __slots__ = ("name", "args")

    def __new__(cls, name: str, args: tuple[str, ...] = ()):
        args = tuple(args)
        key = ("P", name, args)
        cached = _interned.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self.name = name
        self.args = args
        self._free = self._vars = None
        self.is_qf = True
        self._canon = True
        self._shape = 0
        return _intern(key, self)


class Falsum(Formula):
    """The absurdity constant; quantifier-free like any prime formula."""

    __slots__ = ()

    def __new__(cls):
        key = ("F",)
        cached = _interned.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self._free = self._vars = None
        self.is_qf = True
        self._canon = True
        self._shape = 0
        return _intern(key, self)


FALSUM = Falsum()
_IDLE = _idle_count() if _getrefcount is not None else 0


class _Binary(Formula):
    __slots__ = ("left", "right")

    _tag = "?"

    def __new__(cls, left: Formula, right: Formula):
        key = (cls._tag, left, right)
        cached = _interned.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self.left = left
        self.right = right
        if left._vars is None or right._vars is None:
            self._free = self._vars = None
        else:  # over filled operands: their union
            self._free = left._free | right._free
            self._vars = left._vars | right._vars
        self.is_qf = left.is_qf and right.is_qf
        self._canon = None
        self._shape = 0 if self.is_qf else False  # over a quantifier: not prenex
        return _intern(key, self)


class And(_Binary):
    __slots__ = ()
    _tag = "&"


class Or(_Binary):
    __slots__ = ()
    _tag = "|"


class Imp(_Binary):
    __slots__ = ()
    _tag = ">"


class _Quant(Formula):
    __slots__ = ("var", "body")

    _tag = "?"

    def __new__(cls, var: str, body: Formula):
        key = (cls._tag, var, body)
        cached = _interned.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self.var = var
        self.body = body
        if body._vars is None:
            self._free = self._vars = None
        else:  # over a filled body: its masks, with the binder's bit
            bit = _bit(var)
            free = body._free
            self._free = free ^ bit if free & bit else free
            self._vars = body._vars | bit
        self.is_qf = False
        self._canon = None
        code = body._shape
        if code is not False:
            forall = cls.forall
            if code == 0:
                code = 2 + forall
            elif (code & 1) != forall:  # opens a new block
                code = (code | 1) + 1 + forall
        self._shape = code
        return _intern(key, self)


class Exists(_Quant):
    __slots__ = ()
    _tag = "E"
    forall = 0


class Forall(_Quant):
    __slots__ = ()
    _tag = "A"
    forall = 1


def is_prenex(phi: Formula) -> bool:
    return phi._shape is not False


def prenex_level(phi: Formula) -> Optional[int]:
    """The number of quantifier blocks of ``phi``, or ``None`` if it is
    not prenex."""
    code = phi._shape
    return None if code is False else code >> 1


def prenex_floors(phi: Formula) -> tuple:
    """``(sigma, pi)``: the least k with ``phi`` in Sigma_k+ and the least
    with ``phi`` in Pi_k+, both ``inf`` if ``phi`` is not prenex."""
    code = phi._shape
    if code is False:
        return inf, inf
    level = code >> 1
    if code & 1:  # a Pi_k formula with k >= 1 first enters Sigma_{k+1}+
        return level + 1, level
    # and a Sigma_k one Pi_{k+1}+, but Sigma_0 = Pi_0
    return level, (level + 1 if code else level)


def _bit(name: str) -> int:
    """The mask bit of ``name``; a new name takes the lowest free bit."""
    bit = _bits.get(name)
    if bit is None:
        index = _spare.pop() if _spare else len(_names)
        _names[index:index + 1] = (name,)  # fills a free entry, or appends
        bit = _bits[name] = 1 << index
    return bit


def _free_mask(phi: Formula) -> int:
    """The mask of ``phi``'s free variables."""
    if phi._free is None:
        _fill(phi)
    return phi._free


def _vars_mask(phi: Formula) -> int:
    """The mask of every variable of ``phi``."""
    if phi._vars is None:
        _fill(phi)
    return phi._vars


def _is_free(name: str, phi: Formula) -> bool:
    """Whether ``name`` is free in ``phi``."""
    if phi._free is None:
        _fill(phi)
    return _bits.get(name, 0) & phi._free != 0  # read after the fill, which may assign it


def _decode(mask: int) -> tuple[str, ...]:
    """The names of the bits of ``mask``, sorted."""
    return tuple(sorted([_names[i] for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]))


def _fill(phi: Formula) -> None:
    """Set both masks on ``phi`` and on every node below it that lacks them.

    The walk peeks at the top of an explicit stack: a node whose operands
    all have theirs is popped and given its own, otherwise the operands
    still lacking them are pushed.  A node pending under two parents may be
    pushed twice; its second visit finds it filled and pops it, so the walk
    costs one visit per edge of the DAG.
    """
    stack = [phi]
    while stack:
        node = stack[-1]
        if node._vars is None:
            if isinstance(node, _Binary):
                left, right = node.left, node.right
                if left._vars is None or right._vars is None:
                    if left._vars is None:
                        stack.append(left)
                    if right._vars is None:
                        stack.append(right)
                    continue
                node._free = left._free | right._free
                node._vars = left._vars | right._vars
            elif isinstance(node, _Quant):
                body = node.body
                if body._vars is None:
                    stack.append(body)
                    continue
                bit = _bit(node.var)
                free = body._free
                node._free = free ^ bit if free & bit else free
                node._vars = body._vars | bit
            elif isinstance(node, Prime):
                node._free = node._vars = sum({_bit(name) for name in node.args})
            else:  # Falsum
                node._free = node._vars = 0
        stack.pop()


def _child(node: Formula, sel: str):
    """The ``sel`` child of ``node``, or ``None`` if ``node`` has none."""
    if isinstance(node, _Binary):
        if sel == LEFT:
            return node.left
        if sel == RIGHT:
            return node.right
    elif sel == BODY and isinstance(node, _Quant):
        return node.body
    return None


def _with_child(parent: Formula, sel: str, child: Formula) -> Formula:
    """``parent`` with its ``sel`` child swapped for ``child``; ``sel`` is a
    selector ``_child`` accepts for ``parent``."""
    if sel == LEFT:
        return type(parent)(child, parent.right)
    if sel == RIGHT:
        return type(parent)(parent.left, child)
    return type(parent)(parent.var, child)


def _rebuild(ancestors: list[Formula], pos: Position, node: Formula) -> Formula:
    """The root above ``ancestors``, the nodes along ``pos`` from the root
    down, with ``node`` in place of the child below the last of them."""
    for depth in range(len(ancestors) - 1, -1, -1):
        node = _with_child(ancestors[depth], pos[depth], node)
    return node


def _dangling(phi: Formula, pos: Position) -> PositionError:
    return PositionError(f"position {'/'.join(pos) or '/'} invalid for {phi}")


def subformula_at(phi: Formula, pos: Position) -> Formula:
    """The node of ``phi`` reached by following ``pos``."""
    node = phi
    for sel in pos:
        node = _child(node, sel)
        if node is None:
            raise _dangling(phi, pos)
    return node


def replace_at(phi: Formula, pos: Position, psi: Formula) -> Formula:
    """``phi`` with the node at ``pos`` swapped for ``psi``.

    Replacement is literal (occurrence replacement): no capture avoidance
    is performed, so a free variable of ``psi`` may become bound by a
    quantifier above ``pos``.
    """
    ancestors = []
    node = phi
    for sel in pos:
        ancestors.append(node)
        node = _child(node, sel)
        if node is None:
            raise _dangling(phi, pos)
    return _rebuild(ancestors, pos, psi)


def subformulas(phi: Formula) -> Iterator[Formula]:
    """All subformula occurrences of ``phi`` in preorder (with repeats),
    without recursion."""
    stack = [phi]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _Binary):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, _Quant):
            stack.append(node.body)


def _substitute_var(phi: Formula, old: str, new: str) -> Formula:
    """Replace free occurrences of variable ``old`` by ``new``, without
    recursion; a subformula in which ``old`` is not free is kept as is.
    Its bit outlives the nodes built here: ``phi``'s filled mask holds it."""
    if not _is_free(old, phi):
        return phi
    bit = _bits[old]
    values: list[Formula] = []
    stack: list = [phi]
    while stack:
        task = stack.pop()
        if type(task) is tuple:  # a node whose operands are built
            node = task[0]
            if isinstance(node, _Binary):
                right = values.pop()
                values[-1] = type(node)(values[-1], right)
            else:
                values[-1] = type(node)(node.var, values[-1])
        elif not task._free & bit:  # phi is filled, so all below it is
            values.append(task)
        elif isinstance(task, Prime):
            atom = Prime(task.name, tuple(new if a == old else a for a in task.args))
            if atom._vars is None:  # task's variables, with new in place of old
                atom._free = atom._vars = (task._free ^ bit) | _bit(new)
            values.append(atom)
        elif isinstance(task, _Binary):
            stack.append((task,))
            stack.append(task.right)
            stack.append(task.left)
        else:
            # old is free in task, hence task.var != old
            stack.append((task,))
            stack.append(task.body)
    return values[0]


def rename_bound(phi: Formula, fresh: str) -> Formula:
    """Rename the top quantifier of ``phi`` to ``fresh``.

    Precondition (the renaming rules' side condition): ``fresh`` does not
    appear in the body at all.
    """
    if not isinstance(phi, _Quant):
        raise ValueError("rename_bound expects a quantified formula")
    if _vars_mask(phi.body) & _bit(fresh):
        raise ValueError(f"variable {fresh} already appears in the body")
    return type(phi)(fresh, _substitute_var(phi.body, phi.var, fresh))


def fresh_variable(avoid, taken: int = 0) -> str:
    """Smallest ``v0, v1, ...`` not contained in ``avoid`` whose bit is
    not in the mask ``taken`` either."""
    for name in avoid:
        taken |= _bit(name)
    i = 0
    while _bits.get(f"v{i}", 0) & taken:
        i += 1
    return f"v{i}"


def alpha_canonical(phi: Formula) -> Formula:
    """Canonical representative of the alpha-equivalence class of ``phi``.

    Bound variables are renamed to ``v0, v1, ...`` in the order their
    binders appear in a preorder walk (outermost first, left before right),
    skipping names that occur free anywhere in ``phi``.  Free variables are
    untouched, shapes are preserved, and the map is idempotent.  The new
    names are interned strings, so canonical binders share them.
    """
    cached = phi._canon
    if cached is not None:
        return phi if cached is True else cached

    # Nodes are entered in preorder from an explicit stack, so binders are
    # named in preorder; a node is built once its operands' canonical forms
    # are on ``values``.  ``env`` maps each variable bound above the current
    # node to its new name, and ``bound`` is the mask of its keys; a
    # binder's entry is undone when its body is built, so no map is copied.
    # Filling ``phi`` fills every node below it, with bits ``phi`` keeps.
    reserved = _free_mask(phi)
    counter = 0
    env: dict[str, str] = {}
    bound = 0
    values: list[Formula] = []
    stack: list = [phi]
    while stack:
        task = stack.pop()
        if type(task) is tuple:
            if len(task) == 1:  # a binary node whose operands are built
                right = values.pop()
                values[-1] = task[0](values[-1], right)
                continue
            kind, name, var, outer = task  # a binder whose body is built
            if outer is None:
                del env[var]
                bound ^= _bits[var]
            else:
                env[var] = outer
            values[-1] = kind(name, values[-1])
        elif task.is_qf and not task._free & bound:
            values.append(task)  # nothing in it to rename
        elif isinstance(task, Prime):
            values.append(Prime(task.name, tuple(env.get(a, a) for a in task.args)))
        elif isinstance(task, _Binary):
            stack.append((type(task),))
            stack.append(task.right)
            stack.append(task.left)
        else:
            name = sys.intern(f"v{counter}")
            counter += 1
            while _bits.get(name, 0) & reserved:
                name = sys.intern(f"v{counter}")
                counter += 1
            var = task.var
            outer = env.get(var)
            stack.append((type(task), name, var, outer))
            if outer is None:
                bound |= _bits[var]
            env[var] = name
            stack.append(task.body)

    canon = values[0]
    canon._canon = True
    if canon is not phi:
        phi._canon = canon
    return canon

