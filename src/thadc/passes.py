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

Only the entry body is inlined and resolved: the checker, the path
oracle and the report read nothing else.  No pass mutates the model it
is given.  ``inline_calls`` returns its input or a new model that shares
the other functions' lowered bodies with it, the two resolution passes
return per-site fields, and ``preprocess`` returns a new model, so one
lowered model can be prepared for several specs.
"""

from __future__ import annotations

import itertools
import operator
from collections import ChainMap, deque
from typing import Callable, Mapping, Optional

from .cfg import (
    Cfg,
    CfgNode,
    Edge,
    FunctionBody,
    NodeKind,
    ProgramModel,
    return_var,
)
from .minic import Binary, Expr, Num, Unary, Var
from .model import CallEvent, RoutineSpec, ThadSet

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


def _owned_names(body: FunctionBody) -> set[str]:
    """The function's own variables: everything it writes or declares,
    plus its synthetic return slot.  An inlined copy renames them, and
    resolution never reads them as constants.  Free names (platform
    constants, defines, globals) stay untouched."""
    names = set(body.params) | set(body.locals) | {return_var(body.name)}
    for node in body.cfg.nodes.values():
        if node.kind is NodeKind.ASSIGN and node.var:
            names.add(node.var)
        elif node.kind is NodeKind.CALL and node.lhs:
            names.add(node.lhs)
    return names


class _Copy:
    """One lowered body being copied into the entry: its renames, the
    node ids still to copy, and the first and last new node of each
    copied one (they differ where a call was expanded).  ``call`` is
    None for the entry itself; an inlined copy holds the caller's copy,
    the call node's id, the new bind nodes and the new tail node."""

    __slots__ = ("body", "ren", "call", "pending", "head", "tail")

    def __init__(self, body: FunctionBody, ren: Mapping[str, str],
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
    succ: dict[int, tuple[Edge, ...]] = {}
    owned: dict[str, list[str]] = {}  # function -> its names, sorted
    extra_locals: list[str] = []
    instances = itertools.count(1)

    def add(kind: NodeKind, line: int, **fields) -> int:
        node_id = len(nodes)
        nodes[node_id] = CfgNode(node_id, kind, line, **fields)
        succ[node_id] = ()
        return node_id

    def open_call(caller: _Copy, call: CfgNode) -> _Copy:
        """Emit one call's parameter binds and tail; the callee's copy."""
        callee = functions[call.callee]
        if callee.name not in owned:
            owned[callee.name] = sorted(_owned_names(callee))
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
        ren = caller.ren.new_child(own) if caller.call else ChainMap(own)
        return _Copy(callee, ren, (caller, call.id, binds, tail))

    def close(copy: _Copy) -> None:
        """Connect a finished copy's edges.  An inlined copy also chains
        its call's binds into its first node and takes the call's place
        in the caller."""
        cfg, head = copy.body.cfg, copy.head
        if copy.call:
            caller, call_id, binds, tail = copy.call
            head[cfg.exit] = tail
            chain = (*binds, head[cfg.edges(cfg.entry)[0].dst])
            for a, b in zip(chain, chain[1:]):
                succ[a] += (Edge(None, b),)
            caller.head[call_id], caller.tail[call_id] = chain[0], tail
        for cid, src in copy.tail.items():
            succ[src] += tuple(Edge(e.label, head[e.dst])
                               for e in cfg.edges(cid))

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
                    node.kind, node.line, callee=node.callee,
                    args=tuple(_rename_expr(a, ren) for a in node.args),
                    lhs=ren.get(node.lhs, node.lhs) if node.lhs else None,
                    var=ren.get(node.var, node.var) if node.var else None,
                    expr=_rename_expr(node.expr, ren))
        else:
            close(stack.pop())
    body = model.entry_body
    cfg = Cfg(nodes, succ, entry.head[body.cfg.entry],
              entry.head[body.cfg.exit])
    return FunctionBody(body.name, body.params,
                        body.locals + tuple(extra_locals), cfg)


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
    reads the variable its caller writes.

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
# Forward must-propagation (shared by the two resolution passes)
# ---------------------------------------------------------------------------

def _must_forward(
    cfg: Cfg,
    transfer: Callable[[CfgNode, dict], dict],
) -> dict[int, dict]:
    """Entry-state map per node for a gen/kill environment analysis where
    a fact survives a merge only if every incoming path agrees on it."""
    ins: dict[int, Optional[dict]] = {n: None for n in cfg.nodes}
    ins[cfg.entry] = {}
    work = deque([cfg.entry])
    while work:
        nid = work.popleft()
        state = ins[nid]
        assert state is not None
        out = transfer(cfg.nodes[nid], state)
        for e in cfg.edges(nid):
            cur = ins[e.dst]
            new = dict(out) if cur is None else {
                k: v for k, v in cur.items() if out.get(k) == v
            }
            if new != cur:
                ins[e.dst] = new
                work.append(e.dst)
    return {n: (s if s is not None else {}) for n, s in ins.items()}


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


def _routine_of(node: CfgNode, spec_set: ThadSet) -> Optional[RoutineSpec]:
    try:
        return spec_set.routine(node.callee) if node.callee else None
    except KeyError:
        return None


def _param_index(routine: RoutineSpec, param: Optional[str]) -> Optional[int]:
    if param is None:
        return None
    for i, p in enumerate(routine.params):
        if p.name == param:
            return i
    return None


def resolve_discriminators(model: ProgramModel,
                           spec_set: ThadSet) -> dict[int, dict]:
    """The discriminator fields of every HAL call event in the entry
    body: call node id -> ``discriminator_value`` and
    ``discriminator_unknown``.

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
    program_vars = _owned_names(body)

    def lookup(name: str) -> Optional[int]:
        if name in program_vars:
            return None  # a real variable; only the env may know it
        value = spec_set.constants.get(name)
        if value is not None:
            return value
        return model.defines.get(name)

    def transfer(node: CfgNode, env: dict) -> dict:
        if node.kind is NodeKind.ASSIGN and node.var:
            out = dict(env)
            value = _eval_expr(node.expr, env, lookup)
            if value is None:
                out.pop(node.var, None)
            else:
                out[node.var] = value
            return out
        if node.kind is NodeKind.CALL and node.lhs:
            out = dict(env)
            out.pop(node.lhs, None)
            return out
        return env

    ins = _must_forward(body.cfg, transfer)
    fields: dict[int, dict] = {}
    for node in body.cfg.call_nodes():
        routine = _routine_of(node, spec_set)
        if routine is None:
            continue
        idx = _param_index(routine, routine.discriminator_param)
        value_name: Optional[str] = None
        if idx is not None:
            arg = node.args[idx] if idx < len(node.args) else None
            if (isinstance(arg, Var) and arg.name not in program_vars
                    and arg.name in spec_set.constants):
                value_name = arg.name
            elif arg is not None:
                value = _eval_expr(arg, ins[node.id], lookup)
                if value is not None:
                    value_name = rev.get(value, str(value))
        fields[node.id] = {
            "discriminator_value": value_name,
            "discriminator_unknown": idx is not None and value_name is None,
        }
    return fields


# ---------------------------------------------------------------------------
# Descriptor token flow
# ---------------------------------------------------------------------------

def build_token_flow(model: ProgramModel,
                     spec_set: ThadSet) -> dict[int, dict]:
    """The descriptor fields of every HAL call event in the entry body:
    call node id -> ``descriptor_token``, ``descriptor_unknown`` and
    ``produced_token``.

    Every call of a descriptor-returning routine mints one token.  A
    later call's descriptor argument carries that token exactly when the
    argument variable must hold that call's result on every path to the
    argument's use; otherwise the argument stays unknown.
    """
    body = model.entry_body
    produced: dict[int, str] = {}
    for node in body.cfg.call_nodes():
        routine = _routine_of(node, spec_set)
        if routine is not None and routine.returns_descriptor:
            produced[node.id] = f"t{len(produced) + 1}"

    def transfer(node: CfgNode, env: dict) -> dict:
        if node.kind is NodeKind.CALL and node.lhs:
            out = dict(env)
            if node.id in produced:
                out[node.lhs] = produced[node.id]
            else:
                out.pop(node.lhs, None)
            return out
        if node.kind is NodeKind.ASSIGN and node.var:
            out = dict(env)
            if isinstance(node.expr, Var) and node.expr.name in env:
                out[node.var] = env[node.expr.name]
            else:
                out.pop(node.var, None)
            return out
        return env

    ins = _must_forward(body.cfg, transfer)
    fields: dict[int, dict] = {}
    for node in body.cfg.call_nodes():
        routine = _routine_of(node, spec_set)
        if routine is None:
            continue
        idx = _param_index(routine, routine.descriptor_param)
        token: Optional[str] = None
        if idx is not None and idx < len(node.args):
            arg = node.args[idx]
            if isinstance(arg, Var):
                token = ins[node.id].get(arg.name)
        fields[node.id] = {
            "descriptor_token": token,
            "descriptor_unknown": idx is not None and token is None,
            "produced_token": produced.get(node.id),
        }
    return fields


def preprocess(model: ProgramModel, spec_set: ThadSet,
               depth_limit: int = 16) -> ProgramModel:
    """Inline, then resolve arguments and thread tokens in the entry
    body; the checker's input.  A new model whose ``events`` table holds
    the entry body's HAL call events; ``model`` is left as it was."""
    flat = inline_calls(model, depth_limit)
    discriminators = resolve_discriminators(flat, spec_set)
    descriptors = build_token_flow(flat, spec_set)
    nodes = flat.entry_body.cfg.nodes
    events = {nid: CallEvent(nodes[nid].callee, **fields, **descriptors[nid])
              for nid, fields in discriminators.items()}
    return ProgramModel(flat.functions, flat.entry, flat.program, flat.path,
                        events)
