"""Model preparation passes: inlining, argument resolution, token flow.

The checker wants a single flat CFG for the entry function and a table
of ready-made :class:`~thadc.model.CallEvent` values, one per HAL call
node of it.  :func:`preprocess` gets there in three passes and builds
each event once from what the last two return:

``inline_calls``
    builds a copy of the entry body with the bodies of defined functions
    spliced into their call sites, nested calls included, so the copy
    calls no defined function.  Every inlined copy comes straight from
    the callee's lowered body; no other function is copied, and an
    entry that calls no defined function is not copied at all.
    Recursion and call chains deeper than the limit are rejected first.

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

Both resolution passes follow only the variables that can reach their
arguments (a flow-insensitive backward slice), and an inlined copy's
variables leave their environments at the copy's return.  Environments
are kept only at merge points (see :func:`~thadc.cfg.must_forward`),
and at each HAL site a pass reads only the one value it resolves there.

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
from typing import (Callable, Collection, Iterable, Iterator, Mapping,
                    Optional, TypeVar)

from .cfg import (
    Cfg,
    CfgNode,
    FunctionBody,
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


def _rename_expr(expr: Optional[Expr], mapping: Mapping[str, str]) -> Optional[Expr]:
    if expr is None:
        return None
    if isinstance(expr, Var):
        new = mapping.get(expr.name)
        return Var(new, expr.line) if new else expr
    if isinstance(expr, Unary):
        operand = _rename_expr(expr.operand, mapping)
        if operand is not expr.operand:
            return Unary(expr.op, operand, expr.line)
    elif isinstance(expr, Binary):
        lhs = _rename_expr(expr.lhs, mapping)
        rhs = _rename_expr(expr.rhs, mapping)
        if lhs is not expr.lhs or rhs is not expr.rhs:
            return Binary(expr.op, lhs, rhs, expr.line)
    return expr  # unchanged; lowering hoists every call out of expressions


def _owned_names(body: FunctionBody) -> Iterator[str]:
    """The function's own variables, some more than once: everything it
    writes (an ASSIGN's ``var``, a CALL's ``lhs``) or declares, plus its
    synthetic return slot.  An inlined copy renames them, and resolution
    never reads them as constants.  Free names (platform constants,
    defines, globals) stay untouched."""
    written = (node.var or node.lhs for node in body.cfg.nodes.values())
    return itertools.chain((return_var(body.name),), body.params,
                           body.locals, filter(None, written))


class _Copy:
    """One lowered body being copied into the entry: its renames, the
    node ids still to copy, and the first and last new node of each
    copied one (they differ where a call was expanded).  ``ren`` is one
    flat dict: the caller's renames overlaid with the copy's own.
    ``call`` is None for the entry itself; an inlined copy holds the
    caller's copy, the call node's id, the new bind nodes and the new
    tail node."""

    __slots__ = ("body", "ren", "call", "pending", "head", "tail")

    def __init__(self, body: FunctionBody, ren: dict[str, str],
                 call=None):
        self.body, self.ren, self.call = body, ren, call
        self.pending = iter(sorted(body.cfg.nodes))
        self.head: dict[int, int] = {}
        self.tail: dict[int, int] = {}


def _splice_entry(model: ProgramModel) -> FunctionBody:
    """A copy of the entry body with every call of a defined function
    expanded in place, straight from the lowered bodies; see
    :func:`inline_calls`.  Keeps its own stack of open copies."""
    functions = model.functions
    nodes: dict[int, CfgNode] = {}
    succ: dict[int, tuple[int, ...]] = {}
    owned: dict[str, list[str]] = {}  # function -> its names, sorted
    extra_locals: list[str] = []
    dead_after: dict[int, tuple[str, ...]] = {}
    instances = itertools.count(1)

    def add(kind: NodeKind, line: int, callee=None, args=(), lhs=None,
            var=None, expr=None, labels=()) -> int:
        node_id = len(nodes)
        nodes[node_id] = CfgNode(node_id, kind, line, callee, args, lhs,
                                 var, expr, labels)
        succ[node_id] = ()
        return node_id

    def open_call(caller: _Copy, call: CfgNode) -> _Copy:
        """Emit one call's parameter binds and tail; the callee's copy."""
        callee = functions[call.callee]
        if callee.name not in owned:
            owned[callee.name] = sorted(set(_owned_names(callee)))
        instance = next(instances)
        own = {n: f"{n}__inl{instance}" for n in owned[callee.name]}
        extra_locals.extend(own.values())
        binds = [add(NodeKind.ASSIGN, call.line, var=own[param],
                     expr=_rename_expr(arg, caller.ren))
                 for param, arg in zip(callee.params, call.args)]
        if call.lhs is None:
            tail = add(NodeKind.JOIN, call.line)
        else:
            tail = add(NodeKind.ASSIGN, call.line,
                       var=caller.ren.get(call.lhs, call.lhs),
                       expr=Var(own[return_var(callee.name)], call.line))
        dead_after[tail] = tuple(own.values())
        return _Copy(callee, {**caller.ren, **own},
                     (caller, call.id, binds, tail))

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

    entry = _Copy(model.entry_body, {})  # the entry keeps its names
    stack = [entry]
    while stack:
        copy = stack[-1]
        ren = copy.ren
        for cid in copy.pending:
            node = copy.body.cfg.nodes[cid]
            if node.kind is NodeKind.CALL and node.callee in functions:
                stack.append(open_call(copy, node))
                break
            if copy is entry or node.kind not in (NodeKind.ENTRY,
                                                  NodeKind.EXIT):
                copy.head[cid] = copy.tail[cid] = add(
                    node.kind, node.line, node.callee,
                    tuple([_rename_expr(a, ren) for a in node.args]),
                    ren.get(node.lhs, node.lhs) if node.lhs else None,
                    ren.get(node.var, node.var) if node.var else None,
                    _rename_expr(node.expr, ren), node.labels)
        else:
            close(stack.pop())
    body = model.entry_body
    cfg = Cfg(nodes, succ, entry.head[body.cfg.entry],
              entry.head[body.cfg.exit])
    return FunctionBody(body.name, body.params,
                        body.locals + tuple(extra_locals), cfg, dead_after)


def inline_calls(model: ProgramModel, depth_limit: int = 16) -> ProgramModel:
    """A new model whose entry body has every call of a defined function
    expanded in place; the other functions are the lowered bodies
    themselves.

    Each call becomes its parameter binds, then its tail (the assignment
    of the return slot, or a join), then the callee's nodes in id order,
    with nested calls expanded the same way, so node ids follow that
    order.  Each inlined copy renames the names its callee owns (see
    :func:`_owned_names`) with a fresh ``__inl<n>`` suffix; any other
    name follows the nearest enclosing copy that owns it, so a helper
    reads the variable its caller writes.  The new entry body's
    ``dead_after`` maps each call's tail to the names its copy owns.

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
# Must-known values (shared by the two resolution passes)
# ---------------------------------------------------------------------------

def _backward_slice(cfg: Cfg, seeds: Iterable[Expr],
                    follows: type = object) -> set[str]:
    """The variables the ``seeds`` can depend on, flow-insensitively:
    the variables they read, and then those read by every assignment to
    a variable already in the slice whose value is a ``follows`` (any
    expression by default).  A call's result depends on no variable."""
    sources: dict[str, list[Expr]] = {}  # variable -> its assigned values
    for node in cfg.nodes.values():
        if node.kind is NodeKind.ASSIGN and isinstance(node.expr, follows):
            sources.setdefault(node.var, []).append(node.expr)
    relevant: set[str] = set()
    work = list(seeds)
    while work:
        expr = work.pop()
        if isinstance(expr, Var):
            if expr.name not in relevant:
                relevant.add(expr.name)
                work += sources.get(expr.name, ())
        elif isinstance(expr, Unary):
            work.append(expr.operand)
        elif isinstance(expr, Binary):
            work += (expr.lhs, expr.rhs)
    return relevant


Value = TypeVar("Value")


def _must_values(
    body: FunctionBody, value: Callable[[CfgNode, dict], Optional[object]],
    relevant: Collection[str],
    read: Callable[[CfgNode, dict], Optional[Value]],
) -> dict[int, Value]:
    """What ``read(node, env)`` finds at every node of ``body`` reached
    from its entry, kept where it is not None (see
    :func:`~thadc.cfg.must_forward`).  ``env`` maps each variable to the
    value it holds on every path to the node.  A node writes at most one
    variable, an ASSIGN its ``var`` and a CALL its ``lhs``, and
    ``value(node, env)`` gives the new value, or None for unknown.

    Only the ``relevant`` variables are tracked: a write to any other
    leaves the environment as it is, so ``relevant`` must hold every
    variable that ``value`` or ``read`` reads.  An inlined copy's names
    leave the environment after its tail's own write (see
    ``FunctionBody.dead_after``).  Only a write or an end that changes
    an environment copies it."""
    dead_after = body.dead_after

    def transfer(node: CfgNode, env: dict) -> dict:
        var = node.var or node.lhs
        if var in relevant:
            new = value(node, env)
            if env.get(var) != new:
                env = dict(env)
                if new is None:
                    del env[var]
                else:
                    env[var] = new
        dead = dead_after.get(node.id)
        if dead and not env.keys().isdisjoint(dead):
            env = dict(env)
            for name in dead:
                env.pop(name, None)
        return env

    def meet(env: dict, other: dict) -> dict:
        kept = {k: v for k, v in env.items() if other.get(k) == v}
        return env if len(kept) == len(env) else kept

    return must_forward(body.cfg, {}, transfer, meet, read)


def _role_args(sites: list[tuple[CfgNode, RoutineSpec]],
               role: ParamRole) -> dict[int, Expr]:
    """Call node id -> the call's argument for its routine's parameter
    with ``role``, for each site whose routine has one and whose call
    passes an argument there."""
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


def _eval_expr(expr: Expr, env: dict[str, int],
               lookup: Callable[[str], Optional[int]]) -> Optional[int]:
    """The value of ``expr``, or None when it is unknown.  A value no
    64-bit C integer holds is unknown too, which also keeps every
    intermediate result small."""
    if isinstance(expr, Num):
        value = expr.value
    elif isinstance(expr, Var):
        value = env[expr.name] if expr.name in env else lookup(expr.name)
    elif isinstance(expr, Unary):
        v = _eval_expr(expr.operand, env, lookup)
        op = None if v is None else _UNARY.get(expr.op)
        value = None if op is None else op(v)
    elif isinstance(expr, Binary):
        a = _eval_expr(expr.lhs, env, lookup)
        b = _eval_expr(expr.rhs, env, lookup)
        op = None if a is None or b is None else _BINARY.get(expr.op)
        value = None if op is None else op(a, b)
    else:  # a string literal or a call
        return None
    return value if value is None or -2**63 <= value < 2**64 else None


def resolve_discriminators(
    model: ProgramModel, spec_set: ThadSet,
    sites: list[tuple[CfgNode, RoutineSpec]],
) -> dict[int, str]:
    """The resolved discriminators of the HAL calls in the entry body:
    call node id -> the name of the value its discriminator argument
    holds on every path, for each call where that is known.  ``sites``
    is the body's :func:`~thadc.cfg.hal_sites`.

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

    body = model.entry_body
    args = _role_args(sites, ParamRole.DISCRIMINATOR)
    relevant = _backward_slice(body.cfg, args.values())
    # the slice holds every name this pass looks up
    program_vars = relevant.intersection(_owned_names(body))

    # A spec constant used by name resolves without an environment.
    named = {nid: arg.name for nid, arg in args.items()
             if isinstance(arg, Var) and arg.name not in program_vars
             and arg.name in spec_set.constants}
    for nid in named:
        del args[nid]
    if not args:
        return named

    def lookup(name: str) -> Optional[int]:
        if name in program_vars:
            return None  # a real variable; only the env may know it
        value = spec_set.constants.get(name)
        if value is not None:
            return value
        return model.defines.get(name)

    def assigned_value(node: CfgNode, env: dict) -> Optional[int]:
        if node.kind is NodeKind.ASSIGN:
            return _eval_expr(node.expr, env, lookup)
        return None  # a call's result

    def read(node: CfgNode, env: dict) -> Optional[str]:
        arg = args.get(node.id)
        value = None if arg is None else _eval_expr(arg, env, lookup)
        return None if value is None else rev.get(value, str(value))

    values = _must_values(body, assigned_value, relevant, read)
    values.update(named)
    return values


# ---------------------------------------------------------------------------
# Descriptor token flow
# ---------------------------------------------------------------------------

def build_token_flow(
    model: ProgramModel, sites: list[tuple[CfgNode, RoutineSpec]],
) -> tuple[dict[int, str], dict[int, str]]:
    """The descriptor tokens of the HAL calls in the entry body, as two
    tables: call node id -> the token its descriptor argument holds on
    every path, for each call where that is known; and call node id ->
    the token the call mints, for each call of a descriptor-returning
    routine.  ``sites`` is as for :func:`resolve_discriminators`.

    Every call of a descriptor-returning routine mints one token.  A
    later call's descriptor argument carries that token exactly when the
    argument variable must hold that call's result on every path to the
    argument's use; otherwise the argument stays unknown.
    """
    body = model.entry_body
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
        return env.get(node.expr.name) if isinstance(node.expr, Var) else None

    def read(node: CfgNode, env: dict) -> Optional[str]:
        arg = uses.get(node.id)
        return None if arg is None else env.get(arg.name)

    relevant = _backward_slice(body.cfg, uses.values(), Var)
    return _must_values(body, assigned_token, relevant, read), produced


def preprocess(model: ProgramModel, spec_set: ThadSet,
               depth_limit: int = 16) -> ProgramModel:
    """Inline, then resolve arguments and thread tokens in the entry
    body; the checker's input.  A new model whose ``events`` table holds
    the entry body's HAL call events, in node id order; ``model`` is
    left as it was.  The entry's HAL sites are found once, here."""
    flat = inline_calls(model, depth_limit)
    sites = hal_sites(flat.entry_body, spec_set)
    values = resolve_discriminators(flat, spec_set, sites)
    tokens, produced = build_token_flow(flat, sites)
    roles = {r.name: (r.discriminator_param is not None,
                      r.descriptor_param is not None)
             for r in spec_set.routines}
    events = {}
    for node, _ in sites:
        nid = node.id
        value, token = values.get(nid), tokens.get(nid)
        has_discriminator, has_descriptor = roles[node.callee]
        events[nid] = CallEvent(
            node.callee, value, token, produced.get(nid),
            discriminator_unknown=has_discriminator and value is None,
            descriptor_unknown=has_descriptor and token is None)
    return ProgramModel(flat.functions, flat.entry, flat.program, flat.path,
                        events, frozenset(roles))
