"""Model preparation passes: inlining, argument resolution, token flow.

The checker wants a single flat CFG for the entry function and a table
of ready-made :class:`~thadc.model.CallEvent` values, one per HAL call
node of it.  :func:`preprocess` gets there in three passes and builds
each event from what the last two return.  Sites with equal events share
one event object, as in the hash-consing of Filliatre and Conchon
("Type-safe modular hash-consing", ML Workshop 2006): a firmware calls
the same few routines with the same few values at many sites.

``inline_calls``
    builds a copy of the entry body with the bodies of defined functions
    spliced into their call sites, nested calls included, so the copy
    calls no defined function.  Every inlined copy comes straight from
    the callee's lowered body and shares its expressions: nothing is
    renamed.  Each new node records which inlined copy it belongs to,
    and a copy table gives each copy its function, its parent copy and
    its tail, the node that ends it (a call string, in the sense of
    Sharir and Pnueli).  No other function is copied, and an entry that
    calls no defined function is not copied at all.  Recursion and call
    chains deeper than the limit are rejected first.

``resolve_discriminators``
    computes which integer constant each discriminator argument of the
    entry body must hold, by forward propagation of must-known constants
    over its CFG (meet = agreement on both branch arms).  Values come
    from integer literals, ``#define``, the platform constants table,
    and copies through locals.  A spec constant used by name resolves
    even when no integer encoding was supplied for it.

``build_token_flow``
    gives every descriptor-returning HAL call of the entry body a fresh
    token and propagates tokens through assignments the same must-style
    way, so a call's descriptor argument maps to the ``open`` that
    produced it exactly when that holds on every path.

Both resolution passes key a variable by the copy that owns it and its
name, through one :class:`AssignmentIndex` per prepared entry, which
also lists what is assigned to each variable.  They follow only the
variables that can reach their arguments (a flow-insensitive backward
slice), and an inlined copy's variables leave their environments at
the copy's tail.  Environments are kept only at merge points (see
:func:`~thadc.cfg.must_forward`), and at each HAL site a pass reads only
the one value it resolves there.

Only the entry body is inlined and resolved: the checker, the path
oracle and the report read nothing else.  No pass mutates the model it
is given.  ``inline_calls`` returns its input or a new model that shares
the other functions' lowered bodies with it, the two resolution passes
return small per-site tables (node id -> constant name or token), and
``preprocess`` returns a new model, so one lowered model can be prepared
for several specs.
"""

from __future__ import annotations

import itertools
import operator
from typing import (Callable, Collection, Iterable, Iterator, Optional,
                    TypeVar, Union)

from .cfg import (
    Cfg,
    CfgNode,
    FunctionBody,
    InlinedCopy,
    NodeKind,
    ProgramModel,
    hal_sites,
    must_forward,
    return_var,
)
from .minic import Binary, Expr, Num, Unary, Var
from .model import CallEvent, ParamRole, RoutineSpec, ThadSet

__all__ = [
    "RecursionDetected",
    "DepthLimitExceeded",
    "inline_calls",
    "resolve_discriminators",
    "build_token_flow",
    "AssignmentIndex",
    "preprocess",
]


class RecursionDetected(Exception):
    """The call graph has a cycle; inlining cannot terminate."""

    def __init__(self, cycle: list[str]):
        self.cycle = cycle
        super().__init__("recursive call chain: " + " -> ".join(cycle))


class DepthLimitExceeded(Exception):
    """A call chain is longer than the configured inlining depth."""

    def __init__(self, function: str, depth: int, limit: int):
        self.function = function
        self.depth = depth
        self.limit = limit
        super().__init__(
            f"call chain from {function!r} spans {depth} functions, "
            f"limit is {limit}"
        )


# ---------------------------------------------------------------------------
# Inlining
# ---------------------------------------------------------------------------

def _call_depths(model: ProgramModel, defined: set[str]) -> dict[str, int]:
    """The longest call chain, counted in functions, that starts at each
    function.

    One depth-first walk, without recursion: roots in sorted order,
    callees in first-call order.  The first back edge it meets raises
    :class:`RecursionDetected` with the cycle as seen from its entry.
    """
    callees: dict[str, list[str]] = {}  # each once, in first-call order
    for name in defined:
        calls = model.functions[name].cfg.call_nodes()
        callees[name] = list(dict.fromkeys(
            node.callee for node in calls if node.callee in defined))
    depths: dict[str, int] = {}
    for root in sorted(defined):
        if root in depths:
            continue
        stack = [(root, iter(callees[root]))]
        on_stack = {root}
        while stack:
            name, pending = stack[-1]
            for callee in pending:
                if callee in on_stack:
                    path = [n for n, _ in stack]
                    raise RecursionDetected(
                        path[path.index(callee):] + [callee])
                if callee not in depths:
                    stack.append((callee, iter(callees[callee])))
                    on_stack.add(callee)
                    break
            else:
                stack.pop()
                on_stack.remove(name)
                depths[name] = 1 + max((depths[c] for c in callees[name]),
                                       default=0)
    return depths


def _owned_names(body: FunctionBody) -> Iterator[str]:
    """The function's own variables, some more than once: everything it
    writes (an ASSIGN's ``var``, a CALL's ``lhs``) or declares, plus its
    synthetic return slot.  In an inlined copy these names mean the
    copy's own variables, and resolution never reads them as constants.
    Free names (platform constants, defines, globals) belong to no
    function."""
    written = (node.var or node.lhs for node in body.cfg.nodes)
    return itertools.chain((return_var(body.name),), body.params,
                           body.locals, filter(None, written))


class _Copy:
    """One lowered body being copied into the entry: its row in the copy
    table, its nodes still to copy, in id order, and the first and last
    new node of each copied one (they differ where a call was expanded).
    ``call`` is None for the entry itself; an inlined copy holds the
    caller's copy, the call node's id, the new bind nodes and the new
    tail node."""

    __slots__ = ("body", "row", "call", "pending", "head", "tail")

    def __init__(self, body: FunctionBody, row: int, call=None):
        self.body, self.row, self.call = body, row, call
        self.pending = iter(body.cfg.nodes)
        self.head: dict[int, int] = {}
        self.tail: dict[int, int] = {}


def _splice_entry(model: ProgramModel) -> FunctionBody:
    """A copy of the entry body with every call of a defined function
    expanded in place, straight from the lowered bodies; see
    :func:`inline_calls`.  Keeps its own stack of open copies."""
    functions = model.functions
    nodes: list[CfgNode] = []
    succ: list[tuple[int, ...]] = []
    copies = [InlinedCopy(model.entry_body, None, None)]
    slots: dict[str, Var] = {}  # function -> the one read of its return slot

    def add(kind: NodeKind, line: int, callee=None, args=(), lhs=None,
            var=None, expr=None, labels=(), copy=0) -> int:
        node_id = len(nodes)
        nodes.append(CfgNode(node_id, kind, line, callee, args, lhs, var,
                             expr, labels, copy))
        succ.append(())
        return node_id

    def open_call(caller: _Copy, call: CfgNode) -> _Copy:
        """Emit one call's parameter binds and tail; the callee's copy."""
        callee = functions[call.callee]
        row = len(copies)
        binds = [add(NodeKind.ASSIGN, call.line, var=param, expr=arg,
                     copy=row)
                 for param, arg in zip(callee.params, call.args)]
        if call.lhs is None:
            tail = add(NodeKind.JOIN, call.line, copy=caller.row)
        else:
            slot = slots.get(callee.name)
            if slot is None:
                slot = slots[callee.name] = Var(
                    return_var(callee.name),
                    callee.cfg.nodes[callee.cfg.entry].line)
            tail = add(NodeKind.ASSIGN, call.line, var=call.lhs, expr=slot,
                       copy=caller.row)
        copies.append(InlinedCopy(callee, caller.row, tail))
        return _Copy(callee, row, (caller, call.id, binds, tail))

    def close(copy: _Copy) -> None:
        """Connect a finished copy's edges.  An inlined copy also chains
        its call's binds into its first node and takes the call's place
        in the caller."""
        cfg, head = copy.body.cfg, copy.head
        if copy.call:
            caller, call_id, binds, tail = copy.call
            head[cfg.exit] = tail
            chain = (*binds, head[cfg.succ[cfg.entry][0]])
            for a, b in zip(chain, chain[1:]):
                succ[a] += (b,)
            caller.head[call_id], caller.tail[call_id] = chain[0], tail
        for cid, src in copy.tail.items():
            succ[src] += tuple([head[dst] for dst in cfg.succ[cid]])

    entry = _Copy(model.entry_body, 0)
    stack = [entry]
    while stack:
        copy = stack[-1]
        for node in copy.pending:
            if node.kind is NodeKind.CALL and node.callee in functions:
                stack.append(open_call(copy, node))
                break
            if copy is entry or node.kind not in (NodeKind.ENTRY,
                                                  NodeKind.EXIT):
                copy.head[node.id] = copy.tail[node.id] = add(
                    node.kind, node.line, node.callee, node.args, node.lhs,
                    node.var, node.expr, node.labels, copy.row)
        else:
            close(stack.pop())
    body = model.entry_body
    cfg = Cfg(nodes, succ, entry.head[body.cfg.entry],
              entry.head[body.cfg.exit])
    return FunctionBody(body.name, body.params, body.locals, cfg,
                        tuple(copies))


def inline_calls(model: ProgramModel, depth_limit: int = 16) -> ProgramModel:
    """A new model whose entry body has every call of a defined function
    expanded in place; the other functions are the lowered bodies
    themselves.

    Each call becomes its parameter binds, then its tail (the assignment
    of the return slot, or a join), then the callee's nodes in id order,
    with nested calls expanded the same way, so node ids follow that
    order.  Nothing is renamed: every new node holds its lowered node's
    own ``args``, ``lhs``, ``var`` and ``expr``, and records in ``copy``
    the inlined copy it belongs to.  The new entry body's ``copies``
    table gives each copy its function, its parent copy and its call's
    tail; row 0 is the entry itself.  A node writes in its own copy.  A
    call's binds belong to the callee's copy and read their arguments in
    the caller's; its tail takes the call's place in the caller's copy
    and reads the return slot of the copy that ends there.
    :class:`AssignmentIndex` says which variable a name in a copy means.

    Raises :class:`RecursionDetected` when the call graph is cyclic and
    :class:`DepthLimitExceeded` when some call chain involves more than
    ``depth_limit`` functions, before anything is copied.  An entry that
    calls no defined function needs no copy: the input model is returned.
    """
    defined = set(model.functions)
    depths = _call_depths(model, defined)
    for name in sorted(defined):
        if depths[name] > depth_limit:
            raise DepthLimitExceeded(name, depths[name], depth_limit)
    if depths[model.entry] == 1:
        return model
    functions = dict(model.functions)
    functions[model.entry] = _splice_entry(model)
    return ProgramModel(functions, model.entry, model.program, model.path)


# ---------------------------------------------------------------------------
# Variables and must-known values (shared by the two resolution passes)
# ---------------------------------------------------------------------------

Key = Union[str, tuple[int, str]]


class AssignmentIndex:
    """The variables of an entry body, indexed once for both resolution
    passes.

    An environment key names one variable.  A name that inlined copy
    ``c`` owns (see :func:`_owned_names`) has the key ``(c, name)``;
    every other name is its own key: the entry's own variables, and free
    names (platform constants, defines, globals).  A name read in copy
    ``c`` belongs to the nearest copy, from ``c`` up its parents, whose
    function owns it, so a helper reads the variable its caller writes;
    :meth:`key` remembers each such walk.  A write needs no walk: a node
    writes in its own copy, whose function owns every name it writes.

    The index is built from the copy table and each function's lowered
    body, not from the flat entry: copy ``c`` assigns ``(c, name)``
    where its function's body assigns ``name``, in its parameter binds,
    and in the tails of its calls whose result is ``name``.
    ``ends`` maps the tail of each inlined copy to the copy; nothing
    after the tail reads the copy's variables.  A lowered body is its
    own copy 0 and has no tails.
    """

    def __init__(self, body: FunctionBody):
        self.copies = body.copies or (InlinedCopy(body, None, None),)
        self._nodes = body.cfg.nodes
        # function -> its names, and each name's assigned values
        functions: dict[str, tuple[frozenset[str], dict[str, list]]] = {}
        for row in self.copies:
            fn = row.function
            if fn.name not in functions:
                assigns: dict[str, list[Expr]] = {}
                for node in fn.cfg.nodes:
                    if node.kind is NodeKind.ASSIGN:
                        assigns.setdefault(node.var, []).append(node.expr)
                functions[fn.name] = frozenset(_owned_names(fn)), assigns
        # per copy, its function's entry of ``functions``
        self._owned, self._assigns = zip(
            *[functions[row.function.name] for row in self.copies])
        self._names = frozenset().union(*self._owned)
        self._walks: dict[tuple[int, str], Key] = {}
        self.ends = {row.tail: c for c, row in enumerate(self.copies) if c}
        self._results: dict[Key, list[int]] = {}  # key -> tail node ids
        for tail in self.ends:
            node = self._nodes[tail]
            if node.var is not None:
                key = self.key(node.copy, node.var)
                self._results.setdefault(key, []).append(tail)

    def reads_in(self, node: CfgNode) -> int:
        """The copy ``node`` reads its names in: its own, except where a
        call's copy starts and ends.  A parameter bind reads its
        argument in the caller's copy, and a tail reads the return slot
        in the copy that ends there."""
        ended = self.ends.get(node.id)
        if ended is not None:
            return ended
        c = node.copy
        if c and node.id < self.copies[c].tail:
            return self.copies[c].parent
        return c

    def key(self, copy: int, name: str) -> Key:
        """The key of ``name`` read in ``copy``."""
        if not copy:
            return name
        if name in self._owned[copy]:
            return copy, name
        if name not in self._names:
            return name
        key = self._walks.get((copy, name))
        if key is None:
            owner = copy
            while owner and name not in self._owned[owner]:
                owner = self.copies[owner].parent
            key = self._walks[copy, name] = (owner, name) if owner else name
        return key

    def sources(self, key: Key) -> Iterator[tuple[Expr, int]]:
        """The values assigned to ``key``, each with the copy it is
        read in; a call's result is no value."""
        copy, name = key if isinstance(key, tuple) else (0, key)
        for expr in self._assigns[copy].get(name, ()):
            yield expr, copy
        if copy:
            row = self.copies[copy]
            if name in row.function.params:
                nodes, nid = self._nodes, row.tail - 1
                while nodes[nid].copy == copy:  # the binds, before the tail
                    if nodes[nid].var == name:
                        yield nodes[nid].expr, row.parent
                    nid -= 1
        for tail in self._results.get(key, ()):
            yield self._nodes[tail].expr, self.ends[tail]

    def free(self, key: Key) -> bool:
        """Is ``key`` a free name, one that resolution may read as a
        constant?"""
        return isinstance(key, str) and key not in self._owned[0]


def _backward_slice(index: AssignmentIndex,
                    seeds: Iterable[tuple[Expr, int]],
                    follows: type = object) -> set[Key]:
    """The variables the ``seeds``, each an expression and the copy it
    is read in, can depend on, flow-insensitively: the variables they
    read, and then those read by every assignment to a variable already
    in the slice whose value is a ``follows`` (any expression by
    default).  A call's result depends on no variable."""
    relevant: set[Key] = set()
    work = list(seeds)
    while work:
        expr, copy = work.pop()
        if isinstance(expr, Var):
            key = index.key(copy, expr.name) if copy else expr.name
            if key not in relevant:
                relevant.add(key)
                for source in index.sources(key):
                    if isinstance(source[0], follows):
                        work.append(source)
        elif isinstance(expr, Unary):
            work.append((expr.operand, copy))
        elif isinstance(expr, Binary):
            work += ((expr.lhs, copy), (expr.rhs, copy))
    return relevant


Value = TypeVar("Value")


def _must_values(
    body: FunctionBody, index: AssignmentIndex,
    value: Callable[[CfgNode, dict], Optional[object]],
    relevant: Collection[Key],
    read: Callable[[CfgNode, dict], Optional[Value]],
) -> dict[int, Value]:
    """What ``read(node, env)`` finds at every node of ``body`` reached
    from its entry, kept where it is not None (see
    :func:`~thadc.cfg.must_forward`).  ``env`` maps the key of each
    variable (see :class:`AssignmentIndex`) to the value it holds on
    every path to the node.  A node writes at most one variable, an
    ASSIGN its ``var`` and a CALL its ``lhs``, and ``value(node, env)``
    gives the new value, or None for unknown.

    Only the ``relevant`` variables are tracked: a write to any other
    leaves the environment as it is, so ``relevant`` must hold every
    variable that ``value`` or ``read`` reads.  An inlined copy's
    variables leave the environment after its tail's own write (see
    ``index.ends``).  Only a write or an end that changes an environment
    copies it."""
    ends = index.ends
    owned: dict[int, list[Key]] = {}  # copy -> its relevant variables
    if ends:
        for key in relevant:
            if isinstance(key, tuple):
                owned.setdefault(key[0], []).append(key)

    def transfer(node: CfgNode, env: dict) -> dict:
        key = node.var or node.lhs
        if key is not None:
            if node.copy:  # a node writes in its own copy
                key = (node.copy, key)
            if key in relevant:
                new = value(node, env)
                if env.get(key) != new:
                    env = dict(env)
                    if new is None:
                        del env[key]
                    else:
                        env[key] = new
        dead = owned.get(ends.get(node.id))
        if dead and not env.keys().isdisjoint(dead):
            env = dict(env)
            for key in dead:
                env.pop(key, None)
        return env

    def meet(env: dict, other: dict) -> dict:
        kept = {k: v for k, v in env.items() if other.get(k) == v}
        return env if len(kept) == len(env) else kept

    return must_forward(body.cfg, {}, transfer, meet, read)


def _role_args(sites: list[tuple[CfgNode, RoutineSpec]],
               role: ParamRole) -> dict[int, Expr]:
    """Call node id -> the call's argument for its routine's parameter
    with ``role``, for each site whose routine has one and whose call
    passes an argument there.  A call reads its arguments in its own
    copy: it is never a bind or a tail."""
    where: dict[str, Optional[int]] = {}  # routine -> the parameter index
    args: dict[int, Expr] = {}
    for node, routine in sites:
        if routine.name not in where:
            where[routine.name] = next(
                (i for i, p in enumerate(routine.params) if p.role is role),
                None)
        idx = where[routine.name]
        if idx is not None and idx < len(node.args):
            args[node.id] = node.args[idx]
    return args


# ---------------------------------------------------------------------------
# Discriminator resolution
# ---------------------------------------------------------------------------

def _c_div(a: int, b: int) -> Optional[int]:
    if b == 0:
        return None
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


_UNARY: dict[str, Callable[[int], int]] = {
    "-": operator.neg, "~": operator.invert, "!": lambda v: int(v == 0),
}
_BINARY: dict[str, Callable[[int, int], Optional[int]]] = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": _c_div,
    "%": lambda a, b: None if b == 0 else a - _c_div(a, b) * b,
    "<<": lambda a, b: a << b if 0 <= b < 64 else None,
    ">>": lambda a, b: a >> b if 0 <= b < 64 else None,
    "&": operator.and_, "|": operator.or_, "^": operator.xor,
    "==": lambda a, b: int(a == b), "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b), "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b), ">=": lambda a, b: int(a >= b),
    "&&": lambda a, b: int(a != 0 and b != 0),
    "||": lambda a, b: int(a != 0 or b != 0),
}


def _eval_expr(expr: Expr, copy: int, env: dict,
               value_of: Callable[[int, str, dict], Optional[int]],
               ) -> Optional[int]:
    """The value of ``expr`` read in ``copy`` under ``env``, or None when
    it is unknown; ``value_of(copy, name, env)`` gives the value of a
    name it reads.  A value no 64-bit C integer holds is unknown too,
    which also keeps every intermediate result small."""
    if isinstance(expr, Num):
        value = expr.value
    elif isinstance(expr, Var):
        value = value_of(copy, expr.name, env)
    elif isinstance(expr, Unary):
        v = _eval_expr(expr.operand, copy, env, value_of)
        op = None if v is None else _UNARY.get(expr.op)
        value = None if op is None else op(v)
    elif isinstance(expr, Binary):
        a = _eval_expr(expr.lhs, copy, env, value_of)
        b = _eval_expr(expr.rhs, copy, env, value_of)
        op = None if a is None or b is None else _BINARY.get(expr.op)
        value = None if op is None else op(a, b)
    else:  # a string literal or a call
        return None
    return value if value is None or -2**63 <= value < 2**64 else None


def resolve_discriminators(
    model: ProgramModel, spec_set: ThadSet,
    sites: list[tuple[CfgNode, RoutineSpec]], index: AssignmentIndex,
) -> dict[int, str]:
    """The resolved discriminators of the HAL calls in the entry body:
    call node id -> the name of the value its discriminator argument
    holds on every path, for each call where that is known.  ``sites``
    is the body's :func:`~thadc.cfg.hal_sites` and ``index`` its
    :class:`AssignmentIndex`.

    Resolution precedence for a name: the entry body's variables first
    (through the propagated environment), then the platform constants
    table by name, then ``#define`` values, then arithmetic over those.
    An integer with no entry in the constants table becomes its decimal
    spelling, which matches no constrained pattern.
    """
    rev: dict[int, str] = {}
    for cname, value in spec_set.constants.items():
        if value is None:
            continue
        if value not in rev or cname < rev[value]:
            rev[value] = cname

    nodes = model.entry_body.cfg.nodes
    args = _role_args(sites, ParamRole.DISCRIMINATOR)
    # A spec constant used by name resolves without an environment.
    named = {}
    for nid, arg in args.items():
        if isinstance(arg, Var):
            key = index.key(nodes[nid].copy, arg.name)
            if index.free(key) and key in spec_set.constants:
                named[nid] = key
    for nid in named:
        del args[nid]
    if not args:
        return named
    relevant = _backward_slice(
        index, ((arg, nodes[nid].copy) for nid, arg in args.items()))

    def lookup(key: Key) -> Optional[int]:
        if not index.free(key):
            return None  # a real variable; only the env may know it
        value = spec_set.constants.get(key)
        if value is not None:
            return value
        return model.defines.get(key)

    def value_of(copy: int, name: str, env: dict) -> Optional[int]:
        key = index.key(copy, name) if copy else name
        return env[key] if key in env else lookup(key)

    def assigned_value(node: CfgNode, env: dict) -> Optional[int]:
        if node.kind is NodeKind.ASSIGN:
            return _eval_expr(node.expr, index.reads_in(node), env, value_of)
        return None  # a call's result

    def read(node: CfgNode, env: dict) -> Optional[str]:
        arg = args.get(node.id)
        value = None if arg is None else _eval_expr(arg, node.copy, env,
                                                    value_of)
        return None if value is None else rev.get(value, str(value))

    values = _must_values(model.entry_body, index, assigned_value, relevant,
                          read)
    values.update(named)
    return values


# ---------------------------------------------------------------------------
# Descriptor token flow
# ---------------------------------------------------------------------------

def build_token_flow(
    model: ProgramModel, sites: list[tuple[CfgNode, RoutineSpec]],
    index: AssignmentIndex,
) -> tuple[dict[int, str], dict[int, str]]:
    """The descriptor tokens of the HAL calls in the entry body, as two
    tables: call node id -> the token its descriptor argument holds on
    every path, for each call where that is known; and call node id ->
    the token the call mints, for each call of a descriptor-returning
    routine.  ``sites`` and ``index`` are as for
    :func:`resolve_discriminators`.

    Every call of a descriptor-returning routine mints one token.  A
    later call's descriptor argument carries that token exactly when the
    argument variable must hold that call's result on every path to the
    argument's use; otherwise the argument stays unknown.
    """
    produced: dict[int, str] = {}
    for node, routine in sites:
        if routine.returns_descriptor:
            produced[node.id] = f"t{len(produced) + 1}"
    uses = {nid: arg for nid, arg
            in _role_args(sites, ParamRole.DESCRIPTOR).items()
            if isinstance(arg, Var)}
    if not uses:
        return {}, produced

    def assigned_token(node: CfgNode, env: dict) -> Optional[str]:
        if node.kind is NodeKind.CALL:
            return produced.get(node.id)
        expr = node.expr
        if not isinstance(expr, Var):
            return None
        return env.get(index.key(index.reads_in(node), expr.name))

    def read(node: CfgNode, env: dict) -> Optional[str]:
        arg = uses.get(node.id)
        return None if arg is None else env.get(index.key(node.copy,
                                                          arg.name))

    nodes = model.entry_body.cfg.nodes
    relevant = _backward_slice(
        index, ((arg, nodes[nid].copy) for nid, arg in uses.items()), Var)
    return _must_values(model.entry_body, index, assigned_token, relevant,
                        read), produced


def preprocess(model: ProgramModel, spec_set: ThadSet,
               depth_limit: int = 16) -> ProgramModel:
    """Inline, then resolve arguments and thread tokens in the entry
    body; the checker's input.  A new model whose ``events`` table holds
    the entry body's HAL call events, in node id order, one object per
    distinct event; ``model`` is left as it was.  The entry's HAL sites
    and its :class:`AssignmentIndex` are built once, here."""
    flat = inline_calls(model, depth_limit)
    sites = hal_sites(flat.entry_body, spec_set)
    index = AssignmentIndex(flat.entry_body)
    values = resolve_discriminators(flat, spec_set, sites, index)
    tokens, produced = build_token_flow(flat, sites, index)
    roles = {r.name: (r.discriminator_param is not None,
                      r.descriptor_param is not None)
             for r in spec_set.routines}
    events: dict[int, CallEvent] = {}
    shared: dict[CallEvent, CallEvent] = {}  # each distinct event once
    for node, _ in sites:
        nid = node.id
        value, token = values.get(nid), tokens.get(nid)
        has_discriminator, has_descriptor = roles[node.callee]
        event = CallEvent(
            node.callee, value, token, produced.get(nid),
            discriminator_unknown=has_discriminator and value is None,
            descriptor_unknown=has_descriptor and token is None)
        events[nid] = shared.setdefault(event, event)
    return ProgramModel(flat.functions, flat.entry, flat.program, flat.path,
                        events, frozenset(roles))
