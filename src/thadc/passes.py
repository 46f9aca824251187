"""Model preparation passes: inlining, argument resolution, token flow.

The checker wants a single flat CFG for the entry function and a table
of ready-made :class:`~thadc.model.CallEvent` values, one per HAL call
node of it.  :func:`preprocess` gets there in three passes and builds
each event from what the last two return.  Sites with equal events share
one event object, built once and looked up by its fields as a plain
tuple, as in the hash-consing of Filliatre and Conchon ("Type-safe
modular hash-consing", ML Workshop 2006): a firmware calls the same few
routines with the same few values at many sites.

``inline_calls``
    builds a copy of the entry body with the bodies of defined functions
    spliced into their call sites, nested calls included, so the copy
    calls no defined function.  Every inlined copy comes straight from
    the callee's lowered body and shares its expressions: nothing is
    renamed.  Each new node records which inlined copy it belongs to,
    and a copy table gives each copy its function, its parent copy and
    its tail, the node that ends it (a call string, in the sense of
    Sharir and Pnueli).  The copy is stamped from one template per
    function, each laying out one copy of its function by position and
    referring to its callees' templates.  No other function is copied,
    and an entry that calls no defined function is not copied at all.
    Recursion and call chains deeper than the limit are rejected first.

``resolve_discriminators``
    computes which integer constant each discriminator argument of the
    entry body must hold, by forward propagation of must-known constants
    (meet = agreement on both branch arms).  Values come from integer
    literals, ``#define``, the platform constants table, and copies
    through locals.  A spec constant used by name resolves even when no
    integer encoding was supplied for it.

``build_token_flow``
    gives every descriptor-returning HAL call of the entry body a fresh
    token and propagates tokens through assignments the same must-style
    way, so a call's descriptor argument maps to the ``open`` that
    produced it exactly when that holds on every path.

Neither resolution pass walks the flat entry.  Each runs
:func:`~thadc.cfg.must_forward` over every lowered function once per
calling context it is reached in, memoized on (function, context): the
functional approach of Sharir and Pnueli ("Two approaches to
interprocedural data flow analysis", 1981).  Each pass first slices
every function: it keeps the names whose value can reach what the pass
reads, closed backward over assignments and call arguments, and a write
to any other name leaves the environment as it was.  An environment
holds only the function's own variables of its slice.  A context holds
the values of its parameters in the slice and of its inherited names,
those in the slice that it does not own; a copy reads such a name from
the nearest caller that owns it, and a name no caller owns is free (a
platform constant, a ``#define`` or a global).  So a loop counter passed
to a helper makes no context of its own unless it reaches a site.  A
call of a defined function evaluates the callee's context and takes the
callee's exit value for its result.  A token is relative to the frame
that holds it: so many callers up, then down a path of lowered calls to
the minting ``open``.  It gains a level when it is passed down and is
renamed when it is returned, as in the return-flow functions of IFDS
(Reps, Horwitz and Sagiv, POPL 1995).  Contexts wait on an explicit
stack, so a long call chain needs no Python recursion.  The results
reach the flat entry's sites through its copy table (see
:class:`EntrySites`): the cost is paid per (function, context), not per
inlined copy, apart from one lookup per site.

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
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

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
    "EntrySites",
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

def _call_depths(functions: dict[str, FunctionBody]) -> dict[str, int]:
    """The longest call chain, counted in functions, that starts at each
    of ``functions``.

    One depth-first walk, without recursion: roots in sorted order,
    callees in first-call order.  The first back edge it meets raises
    :class:`RecursionDetected` with the cycle as seen from its entry.
    """
    callees: dict[str, list[str]] = {}  # each once, in first-call order
    for name, body in functions.items():
        callees[name] = list(dict.fromkeys(
            node.callee for node in body.cfg.call_nodes()
            if node.callee in functions))
    depths: dict[str, int] = {}
    for root in sorted(functions):
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


class _Template:
    """One lowered function as it is stamped into the inlined entry, with
    its calls of defined functions expanded: the flat nodes of one copy
    of it, by position from the copy's first node.

    A callee's copy is its function's nodes in id order, ENTRY and EXIT
    left out, with each call of a defined function replaced by the
    call's parameter binds, its tail and a copy of the callee, in that
    order; the root, the entry's own template, keeps ENTRY and EXIT.
    ``single`` and ``other`` hold the function's own nodes and the
    tails, those with one successor and the rest: the position, the
    ``CfgNode`` fields from ``kind`` to ``labels``, and the successor's
    position (for ``other``, a tuple of them).  An edge to EXIT lands on
    position -1, the tail of the call the copy expands.  ``calls`` holds
    for each call the position of the callee's first node, the callee's
    template (a reference, not a copy), the callee copy's row counted
    from this copy's, the tail's position, and the call's line and
    (parameter, argument) pairs, one bind each.  ``size`` and ``copies``
    count the flat nodes and copy-table rows of one whole copy; ``head``
    is the position a callee's copy is entered at (the root's ENTRY) and
    ``exit`` the one its exit edges land on."""

    __slots__ = ("body", "slot", "single", "other", "calls", "size",
                 "copies", "head", "exit")

    def __init__(self, body: FunctionBody, templates: dict[str, _Template],
                 root: bool = False):
        cfg = body.cfg
        self.body = body
        # The one read of the return slot that every tail assigns from.
        self.slot = Var(return_var(body.name), cfg.nodes[cfg.entry].line)
        self.calls: list[tuple] = []
        head: dict[int, int] = {}  # lowered id -> the position it enters
        placed: list[tuple] = []  # (lowered id, position, fields)
        pos, copies = 0, 1
        for node in cfg.nodes:
            callee = templates.get(node.callee) \
                if node.kind is NodeKind.CALL else None
            if callee is not None:
                binds = tuple(zip(callee.body.params, node.args))
                tail = pos + len(binds)
                start = tail + 1
                head[node.id] = pos if binds else start + callee.head
                if node.lhs is None:
                    fields = (NodeKind.JOIN, node.line, None, (), None, None,
                              None, ())
                else:
                    fields = (NodeKind.ASSIGN, node.line, None, (), None,
                              node.lhs, callee.slot, ())
                placed.append((node.id, tail, fields))
                self.calls.append((start, callee, copies, tail, node.line,
                                   binds))
                pos = start + callee.size
                copies += callee.copies
            elif root or node.kind not in (NodeKind.ENTRY, NodeKind.EXIT):
                head[node.id] = pos
                placed.append((node.id, pos, (
                    node.kind, node.line, node.callee, node.args, node.lhs,
                    node.var, node.expr, node.labels)))
                pos += 1
        head.setdefault(cfg.exit, -1)
        self.head = head[cfg.entry] if root else head[cfg.succ[cfg.entry][0]]
        self.exit = head[cfg.exit]
        self.single, self.other = [], []
        for nid, at, fields in placed:
            targets = tuple([head[dst] for dst in cfg.succ[nid]])
            if len(targets) == 1:
                self.single.append((at, *fields, targets[0]))
            else:
                self.other.append((at, *fields, targets))
        self.size, self.copies = pos, copies


def _stamp(root: _Template) -> FunctionBody:
    """The inlined entry body stamped from ``root``, the entry's template:
    one ``CfgNode`` and one successor tuple per flat node.  Copies wait
    on an explicit stack, and every node id and copy row is an item of
    one shared list of ints."""
    ids = list(range(root.size))
    nodes: list = [None] * root.size
    succ: list = [None] * root.size
    copies: list = [None] * root.copies
    copies[0] = InlinedCopy(root.body, None, None)
    assign = NodeKind.ASSIGN
    stack = [(root, 0, 0)]
    while stack:
        template, base, row = stack.pop()
        copy = ids[row]
        for (at, kind, line, callee, args, lhs, var, expr, labels,
             to) in template.single:
            i = base + at
            nodes[i] = CfgNode(ids[i], kind, line, callee, args, lhs, var,
                               expr, labels, copy)
            succ[i] = (ids[base + to],)
        for (at, kind, line, callee, args, lhs, var, expr, labels,
             targets) in template.other:
            i = base + at
            nodes[i] = CfgNode(ids[i], kind, line, callee, args, lhs, var,
                               expr, labels, copy)
            succ[i] = tuple([ids[base + to] for to in targets])
        for start, callee, offset, tail, line, binds in template.calls:
            start += base
            child = row + offset
            copies[child] = InlinedCopy(callee.body, copy, ids[base + tail])
            i = start - 1 - len(binds)
            for param, arg in binds:
                nodes[i] = CfgNode(ids[i], assign, line, None, (), None,
                                   param, arg, (), ids[child])
                succ[i] = (ids[i + 1],)
                i += 1
            if binds:  # the last bind enters the callee's copy
                succ[i - 1] = (ids[start + callee.head],)
            stack.append((callee, start, child))
    body = root.body
    return FunctionBody(body.name, body.params, body.locals,
                        Cfg(nodes, succ, ids[root.head], ids[root.exit]),
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

    The new body is stamped, not copied node by node: each defined
    function gets one template, built callees first, that lays out one
    copy of it by position with each nested call a reference to its
    callee's template (see :class:`_Template`).  Each flat node then
    costs one ``CfgNode`` and one successor tuple, and the copies wait
    on an explicit stack, so a long call chain needs no Python
    recursion.

    Raises :class:`RecursionDetected` when the call graph is cyclic and
    :class:`DepthLimitExceeded` when some call chain involves more than
    ``depth_limit`` functions, before anything is copied.  An entry that
    calls no defined function needs no copy: the input model is returned.
    """
    depths = _call_depths(model.functions)
    for name in sorted(depths):
        if depths[name] > depth_limit:
            raise DepthLimitExceeded(name, depths[name], depth_limit)
    if depths[model.entry] == 1:
        return model
    functions = dict(model.functions)
    templates: dict[str, _Template] = {}
    for name in sorted(functions, key=depths.__getitem__):  # callees first
        if name != model.entry:  # no function the entry reaches calls it
            templates[name] = _Template(functions[name], templates)
    functions[model.entry] = _stamp(
        _Template(model.entry_body, templates, root=True))
    return ProgramModel(functions, model.entry, model.program, model.path)


# ---------------------------------------------------------------------------
# Summaries: each function once per calling context
# ---------------------------------------------------------------------------

_FREE = "<free>"
"""An inherited name's value when no function up the call chain owns it:
a platform constant, a ``#define`` or a global."""

Context = tuple
"""A calling context: (function name, values), the values of the
function's relevant parameters, then those of its relevant inherited
names (see :class:`_Slice`).  A value is None where it is unknown."""


class _Function:
    """A lowered function as both resolution passes see it.

    ``owned`` are its own variables (see :func:`_owned_names`), the only
    keys of its environments.  ``writes`` gives each name it assigns the
    expressions assigned to it.  ``calls`` are its calls of defined
    functions and ``sites`` its HAL calls with their routines, each in
    node id order, the order the flat entry keeps them in within every
    copy of the function."""

    __slots__ = ("body", "owned", "writes", "calls", "sites")

    def __init__(self, body: FunctionBody):
        self.body = body
        self.owned = frozenset(_owned_names(body))
        self.writes: dict[str, list[Expr]] = {}
        self.calls: list[CfgNode] = []
        self.sites: list[tuple[CfgNode, RoutineSpec]] = []


def _add_names(expr: Expr, names: set[str]) -> None:
    """Add the variable names ``expr`` reads to ``names``."""
    if isinstance(expr, Var):
        names.add(expr.name)
    elif isinstance(expr, Unary):
        _add_names(expr.operand, names)
    elif isinstance(expr, Binary):
        _add_names(expr.lhs, names)
        _add_names(expr.rhs, names)


def _functions(model: ProgramModel, routines: dict[str, RoutineSpec]
               ) -> dict[str, _Function]:
    """The lowered functions of an inlined model, callees first.  The
    entry's comes from row 0 of its copy table."""
    lowered = dict(model.functions)
    if model.entry_body.copies:
        lowered[model.entry] = model.entry_body.copies[0].function
    depths = _call_depths(lowered)
    functions = {name: _Function(lowered[name])
                 for name in sorted(lowered, key=depths.__getitem__)}
    for fn in functions.values():
        for node in fn.body.cfg.nodes:
            if node.kind is NodeKind.ASSIGN:
                fn.writes.setdefault(node.var, []).append(node.expr)
            elif node.kind is not NodeKind.CALL:
                continue
            elif node.callee in lowered:
                fn.calls.append(node)
            elif node.callee in routines:
                fn.sites.append((node, routines[node.callee]))
    return functions


class EntrySites:
    """The HAL sites of an inlined entry body, read back through its copy
    table to the lowered functions; :func:`preprocess` builds them once
    for both resolution passes.

    ``sites`` are the body's :func:`~thadc.cfg.hal_sites` and ``lowered``
    the id of the lowered node each one copies, in the same order.
    ``functions`` are the lowered functions (see :class:`_Function`),
    callees first.  ``copies`` is the copy table; ``expands`` gives each
    inlined copy the id of the lowered call it expands in its parent's
    function, and ``children`` each (copy, such a call id) the copy the
    call expands to.  A copy's children expand its function's calls in
    node id order, and its own nodes keep their lowered order."""

    def __init__(self, model: ProgramModel, spec_set: ThadSet):
        body = model.entry_body
        self.sites = hal_sites(body, spec_set)
        routines = {r.name: r for r in spec_set.routines}
        self.functions = _functions(model, routines)
        self.copies = body.copies or (InlinedCopy(body, None, None),)
        calls = [iter(self.functions[row.function.name].calls)
                 for row in self.copies]
        self.expands = [-1]
        self.children: dict[tuple[int, int], int] = {}
        for c, row in enumerate(self.copies[1:], 1):
            call = next(calls[row.parent]).id
            self.expands.append(call)
            self.children[row.parent, call] = c
        own = [iter(self.functions[row.function.name].sites)
               for row in self.copies]
        self.lowered = [next(own[node.copy])[0].id for node, _ in self.sites]

    def found(self, summaries: dict[Context, dict], root: Context
              ) -> list[dict]:
        """What each copy read (see :func:`_walk`): its function's
        summary in the context its call passes, by copy."""
        found = [summaries[root]]
        for row, call in zip(self.copies[1:], self.expands[1:]):
            found.append(summaries[found[row.parent][call]])
        return found


class _Unsummarised(Exception):
    """A walk reached a call whose callee context has no summary yet."""

    def __init__(self, context: Context):
        self.context = context


class _Domain:
    """The values one resolution pass propagates, None for unknown.  A
    value passes unchanged between a caller and its callee unless a
    subclass says otherwise.  ``args`` gives each HAL site the argument
    the pass reads there, where it has one."""

    args: dict[CfgNode, Expr]

    def value(self, expr: Expr, env: dict, value_of) -> Optional[object]:
        """The value of ``expr``; ``value_of(name, env)`` gives a name's."""
        raise NotImplementedError

    def result(self, node: CfgNode) -> Optional[object]:
        """The value a call of an undefined function returns."""
        return None

    def free(self, name: str) -> Optional[object]:
        """The value of a name no function up the call chain owns."""
        return None

    def down(self, value: Optional[object]) -> Optional[object]:
        """A caller's value as its callee sees it."""
        return value

    def up(self, value: Optional[object], call: CfgNode) -> Optional[object]:
        """A callee's value as the caller of ``call`` sees it."""
        return value

    def read(self, node: CfgNode, env: dict, value_of,
             free: Callable[[str], bool]) -> Optional[object]:
        """What the pass reads at a call of an undefined function;
        ``free(name)`` says whether no function up the call chain owns
        ``name``."""
        raise NotImplementedError

    def reads(self, expr: Expr, names: set[str]) -> None:
        """Add the names whose values ``value`` reads in ``expr``."""
        _add_names(expr, names)


class _Slice(NamedTuple):
    """What one pass tracks of one function: ``names``, those whose value
    can reach what the pass reads (a HAL site's role argument, the
    return slot, or a relevant parameter or inherited name of a callee),
    closed backward over the function's assignments; ``params``, the
    indices of the relevant parameters; and ``inherited``, the relevant
    names it does not own and some other function owns, sorted.  A copy
    reads such a name from the nearest caller that owns it; a name that
    no function owns is free wherever it is read."""

    names: set[str]
    params: tuple[int, ...]
    inherited: tuple[str, ...]


def _slices(functions: dict[str, _Function], domain: _Domain
            ) -> dict[str, _Slice]:
    """Each function's relevance slice for ``domain``, callees first."""
    owned = frozenset().union(*(fn.owned for fn in functions.values()))
    reads, args = domain.reads, domain.args
    slices: dict[str, _Slice] = {}
    for name, fn in functions.items():
        names = {return_var(name)}
        for node, _ in fn.sites:
            arg = args.get(node)
            if arg is not None:
                reads(arg, names)
        for call in fn.calls:
            callee = slices[call.callee]
            for i in callee.params:
                if i < len(call.args):
                    reads(call.args[i], names)
            names.update(callee.inherited)
        writes = fn.writes
        pending = [n for n in names if n in writes]
        while pending:
            for expr in writes[pending.pop()]:
                read: set[str] = set()
                reads(expr, read)
                read -= names
                names |= read
                pending += [n for n in read if n in writes]
        params = fn.body.params
        slices[name] = _Slice(
            names, tuple([i for i, p in enumerate(params) if p in names]),
            tuple(sorted((names & owned) - fn.owned)))
    return slices


def _meet(env: dict, other: dict) -> dict:
    kept = {k: v for k, v in env.items() if other.get(k) == v}
    return env if len(kept) == len(env) else kept


def _walk(name: str, values: tuple, functions: dict[str, _Function],
          slices: dict[str, _Slice], domain: _Domain,
          summaries: dict[Context, dict]) -> dict:
    """What function ``name`` reads in the calling context ``values``
    (see :data:`Context`), on :func:`~thadc.cfg.must_forward`: lowered
    node id -> the site's value at each HAL site where it is known, the
    callee's context at each call of a defined function, and the return
    slot's value at the exit.  Only the names of its slice are tracked:
    a write to any other name leaves the environment as it was.  Raises
    :class:`_Unsummarised` at the first call whose callee context is not
    in ``summaries``."""
    fn, own = functions[name], slices[name]
    body, owned, relevant = fn.body, fn.owned, own.names
    params = body.params
    start = {params[i]: v for i, v in zip(own.params, values)
             if v is not None}
    outer = dict(zip(own.inherited, values[len(own.params):]))
    exit_id, ret = body.cfg.exit, return_var(name)
    # Call id -> the callee's context.  A node's last transfer, like its
    # last read, sees its final state.
    calls: dict[int, Context] = {}

    def value_of(name: str, env: dict) -> Optional[object]:
        if name in owned:
            return env.get(name)
        value = outer.get(name, _FREE)
        return domain.free(name) if value is _FREE else value

    def free(name: str) -> bool:
        return name not in owned and outer.get(name, _FREE) is _FREE

    def context(node: CfgNode, env: dict) -> Context:
        callee, args = slices[node.callee], node.args
        passed = [None if i >= len(args)
                  else domain.down(domain.value(args[i], env, value_of))
                  for i in callee.params]
        for name in callee.inherited:
            value = env.get(name) if name in owned else outer[name]
            passed.append(value if value is _FREE else domain.down(value))
        return node.callee, tuple(passed)

    def transfer(node: CfgNode, env: dict) -> dict:
        if node.kind is NodeKind.ASSIGN:
            var = node.var
            if var not in relevant:
                return env
            new = domain.value(node.expr, env, value_of)
        elif node.kind is NodeKind.CALL:
            var = node.lhs
            callee = functions.get(node.callee)
            if callee is not None:
                key = calls[node.id] = context(node, env)
                found = summaries.get(key)
                if found is None:
                    raise _Unsummarised(key)
                if var not in relevant:
                    return env
                new = domain.up(found.get(callee.body.cfg.exit), node)
            elif var not in relevant:
                return env
            else:
                new = domain.result(node)
        else:
            return env
        if env.get(var) == new:
            return env
        env = dict(env)
        if new is None:
            del env[var]
        else:
            env[var] = new
        return env

    def read(node: CfgNode, env: dict) -> Optional[object]:
        if node.kind is NodeKind.CALL:
            if node.callee in functions:
                return None  # its callee's context is in ``calls``
            return domain.read(node, env, value_of, free)
        return env.get(ret) if node.id == exit_id else None

    found = must_forward(body.cfg, start, transfer, _meet, read)
    found.update(calls)
    return found


def _summaries(functions: dict[str, _Function], entry: str,
               domain: _Domain) -> tuple[dict[Context, dict], Context]:
    """What each function reads in each calling context it is reached
    in, from the entry down (see :func:`_walk`), and the entry's own
    context: its parameters unknown, every name it inherits free.

    Contexts wait on an explicit stack, not on Python's: a walk that
    meets a callee context with no summary yet stops, the callee is
    walked, and then the caller is walked again from its entry."""
    slices = _slices(functions, domain)
    own = slices[entry]
    root = entry, ((None,) * len(own.params)
                   + (_FREE,) * len(own.inherited))
    summaries: dict[Context, dict] = {}
    stack = [root]
    while stack:
        key = stack[-1]
        if key in summaries:
            stack.pop()
            continue
        try:
            summaries[key] = _walk(*key, functions, slices, domain,
                                   summaries)
        except _Unsummarised as pending:
            stack.append(pending.context)
        else:
            stack.pop()
    return summaries, root


def _role_args(sites: Iterable[tuple[CfgNode, RoutineSpec]],
               role: ParamRole) -> dict[CfgNode, Expr]:
    """Call node -> the call's argument for its routine's parameter with
    ``role``, for each site whose routine has one and whose call passes
    an argument there."""
    where: dict[str, Optional[int]] = {}  # routine -> the parameter index
    args: dict[CfgNode, Expr] = {}
    for node, routine in sites:
        if routine.name not in where:
            where[routine.name] = next(
                (i for i, p in enumerate(routine.params) if p.role is role),
                None)
        idx = where[routine.name]
        if idx is not None and idx < len(node.args):
            args[node] = node.args[idx]
    return args


def _all_sites(functions: dict[str, _Function]
               ) -> Iterator[tuple[CfgNode, RoutineSpec]]:
    return itertools.chain.from_iterable(fn.sites
                                         for fn in functions.values())


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


def _eval_expr(expr: Expr, env: dict,
               value_of: Callable[[str, dict], Optional[int]],
               ) -> Optional[int]:
    """The value of ``expr`` under ``env``, or None when it is unknown;
    ``value_of(name, env)`` gives the value of a name it reads.  A value
    no 64-bit C integer holds is unknown too, which also keeps every
    intermediate result small."""
    if isinstance(expr, Num):
        value = expr.value
    elif isinstance(expr, Var):
        value = value_of(expr.name, env)
    elif isinstance(expr, Unary):
        v = _eval_expr(expr.operand, env, value_of)
        op = None if v is None else _UNARY.get(expr.op)
        value = None if op is None else op(v)
    elif isinstance(expr, Binary):
        a = _eval_expr(expr.lhs, env, value_of)
        b = _eval_expr(expr.rhs, env, value_of)
        op = None if a is None or b is None else _BINARY.get(expr.op)
        value = None if op is None else op(a, b)
    else:  # a string literal or a call
        return None
    return value if value is None or -2**63 <= value < 2**64 else None


class _Constants(_Domain):
    """Integer constants; a site reads the name of its discriminator's."""

    def __init__(self, model: ProgramModel, spec_set: ThadSet,
                 functions: dict[str, _Function]):
        self.constants, self.defines = spec_set.constants, model.defines
        self.names: dict[int, str] = {}  # value -> its spec constant
        for cname, value in spec_set.constants.items():
            if value is not None and (value not in self.names
                                      or cname < self.names[value]):
                self.names[value] = cname
        self.args = _role_args(_all_sites(functions),
                               ParamRole.DISCRIMINATOR)

    value = staticmethod(_eval_expr)

    def free(self, name: str) -> Optional[int]:
        value = self.constants.get(name)
        return value if value is not None else self.defines.get(name)

    def read(self, node, env, value_of, free) -> Optional[str]:
        arg = self.args.get(node)
        if arg is None:
            return None
        # A spec constant used by name resolves even with no encoding.
        if isinstance(arg, Var) and free(arg.name) \
                and arg.name in self.constants:
            return arg.name
        value = _eval_expr(arg, env, value_of)
        return None if value is None else self.names.get(value, str(value))


def resolve_discriminators(model: ProgramModel, spec_set: ThadSet,
                           sites: EntrySites) -> dict[int, str]:
    """The resolved discriminators of the HAL calls in the entry body:
    call node id -> the name of the value its discriminator argument
    holds on every path, for each call where that is known.  ``model``
    is an inlined model (see :func:`inline_calls`) and ``sites`` its
    entry body's :class:`EntrySites`.

    Resolution precedence for a name: the variables of the functions up
    the call chain first (through the propagated environment), then the
    platform constants table by name, then ``#define`` values, then
    arithmetic over those.  An integer with no entry in the constants
    table becomes its decimal spelling, which matches no constrained
    pattern.
    """
    functions = sites.functions
    found = sites.found(*_summaries(
        functions, model.entry, _Constants(model, spec_set, functions)))
    values: dict[int, str] = {}
    for (node, _), lowered in zip(sites.sites, sites.lowered):
        value = found[node.copy].get(lowered)
        if value is not None:
            values[node.id] = value
    return values


# ---------------------------------------------------------------------------
# Descriptor token flow
# ---------------------------------------------------------------------------

class _Tokens(_Domain):
    """Descriptor tokens, each relative to the frame that reads it: (ups,
    path), the minting ``open`` found by going ``ups`` callers up and
    then down the path's lowered calls.  A path is an interned id into
    ``steps``: (lowered node id, the rest's id), with -1 for the rest of
    the last step, the ``open`` itself.  Equal tokens in one frame are
    equal tuples, as each flat ``open`` has one spelling per frame."""

    def __init__(self, functions: dict[str, _Function]):
        self.steps: list[tuple[int, int]] = []
        self._ids: dict[tuple[int, int], int] = {}
        sites = list(_all_sites(functions))
        self.mints = {node for node, routine in sites
                      if routine.returns_descriptor}
        self.args = {node: arg for node, arg
                     in _role_args(sites, ParamRole.DESCRIPTOR).items()
                     if isinstance(arg, Var)}

    def path(self, step: int, rest: int) -> int:
        key = step, rest
        path = self._ids.get(key)
        if path is None:
            path = self._ids[key] = len(self.steps)
            self.steps.append(key)
        return path

    def value(self, expr, env, value_of):
        return value_of(expr.name, env) if isinstance(expr, Var) else None

    def reads(self, expr, names):
        if isinstance(expr, Var):
            names.add(expr.name)

    def result(self, node):
        return (0, self.path(node.id, -1)) if node in self.mints else None

    def down(self, token):
        return None if token is None else (token[0] + 1, token[1])

    def up(self, token, call):
        if token is None:
            return None
        ups, path = token
        return (0, self.path(call.id, path)) if ups == 0 else (ups - 1, path)

    def read(self, node, env, value_of, free):
        arg = self.args.get(node)
        return None if arg is None else value_of(arg.name, env)


def build_token_flow(model: ProgramModel, sites: EntrySites
                     ) -> tuple[dict[int, str], dict[int, str]]:
    """The descriptor tokens of the HAL calls in the entry body, as two
    tables: call node id -> the token its descriptor argument holds on
    every path, for each call where that is known; and call node id ->
    the token the call mints, for each call of a descriptor-returning
    routine, ``t1``, ``t2``, ... in node id order.  ``model`` and
    ``sites`` are as for :func:`resolve_discriminators`.

    Every call of a descriptor-returning routine mints one token.  A
    later call's descriptor argument carries that token exactly when the
    argument variable must hold that call's result on every path to the
    argument's use; otherwise the argument stays unknown.
    """
    domain = _Tokens(sites.functions)
    found = sites.found(*_summaries(sites.functions, model.entry, domain))
    produced: dict[int, str] = {}
    minted: dict[tuple[int, int], str] = {}  # (copy, lowered id) -> token
    held = []  # (site id, copy, relative token)
    for (node, routine), lowered in zip(sites.sites, sites.lowered):
        c = node.copy
        if routine.returns_descriptor:
            produced[node.id] = minted[c, lowered] = f"t{len(produced) + 1}"
        token = found[c].get(lowered)
        if token is not None:
            held.append((node.id, c, token))
    # A token held in a copy is the one its parent holds with one ``ups``
    # fewer.  Each (copy, token) is looked up once, so sibling copies
    # share the walk up.
    names: dict[tuple[int, tuple[int, int]], str] = {}
    copies, steps = sites.copies, domain.steps
    tokens: dict[int, str] = {}
    for nid, c, token in held:
        up = []
        name = names.get((c, token))
        while name is None and token[0]:
            up.append((c, token))
            c, token = copies[c].parent, (token[0] - 1, token[1])
            name = names.get((c, token))
        if name is None:
            step, path = steps[token[1]]
            down = c
            while path >= 0:
                down = sites.children[down, step]
                step, path = steps[path]
            name = names[c, token] = minted[down, step]
        for key in up:
            names[key] = name
        tokens[nid] = name
    return tokens, produced


def preprocess(model: ProgramModel, spec_set: ThadSet,
               depth_limit: int = 16) -> ProgramModel:
    """Inline, then resolve arguments and thread tokens in the entry
    body; the checker's input.  A new model whose ``events`` table holds
    the entry body's HAL call events, in node id order, one object per
    distinct event; ``model`` is left as it was.  The entry's
    :class:`EntrySites` are built once, here."""
    flat = inline_calls(model, depth_limit)
    sites = EntrySites(flat, spec_set)
    values = resolve_discriminators(flat, spec_set, sites)
    tokens, produced = build_token_flow(flat, sites)
    roles = {r.name: (r.discriminator_param is not None,
                      r.descriptor_param is not None)
             for r in spec_set.routines}
    events: dict[int, CallEvent] = {}
    # Each distinct event is built once, looked up by its fields as a
    # plain tuple: the flags follow from the routine and the two values.
    shared: dict[tuple, CallEvent] = {}
    for node, _ in sites.sites:
        nid = node.id
        value, token = values.get(nid), tokens.get(nid)
        key = node.callee, value, token, produced.get(nid)
        event = shared.get(key)
        if event is None:
            has_discriminator, has_descriptor = roles[node.callee]
            event = shared[key] = CallEvent(
                *key, discriminator_unknown=has_discriminator and value is None,
                descriptor_unknown=has_descriptor and token is None)
        events[nid] = event
    return ProgramModel(flat.functions, flat.entry, flat.program, flat.path,
                        events, frozenset(roles))
