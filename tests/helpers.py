"""Shared fixtures for the test suite.

Builds the SPI userspace-device dependency set programmatically, straight
from the model API.  The bundled spec files must parse to exactly this
set; keeping an independent construction here means a typo in either
place shows up as a mismatch instead of silently shipping.
"""

from __future__ import annotations

import importlib.util
import re
import sys
from collections import deque
from itertools import repeat
from pathlib import Path
from types import ModuleType
from typing import Iterator, Optional, Union

from thadc.cfg import (Cfg, CfgNode, FunctionBody, InlinedCopy, NodeKind,
                       ProgramModel, build_model, hal_sites, must_forward,
                       return_var)
from thadc.diagnostics import Diagnostic
from thadc.minic import (
    _UNTERMINATED,
    Binary,
    Expr,
    Token,
    Unary,
    Var,
    _char_value,
    _directive,
    c_int_value,
    parse_source,
    unroll_loops,
)
from thadc.model import (
    BindingSource,
    CallEvent,
    DescriptorBinding,
    Param,
    ParamRole,
    RoutineSpec,
    Thad,
    ThadSet,
)
from thadc.passes import _eval_expr, _owned_names, inline_calls, preprocess

# The Linux ioctl request encoding: dir<<30 | size<<16 | type<<8 | nr,
# with type 'k' (0x6B) for the SPI device interface.  Recomputed here from
# first principles rather than copied from the bundled constants file.
_IOC_WRITE = 1
_IOC_READ = 2


def _ioc(direction: int, nr: int, size: int) -> int:
    return (direction << 30) | (size << 16) | (0x6B << 8) | nr


SPIDEV_CONSTANTS: dict[str, int] = {
    # One full-duplex transfer struct is 32 bytes; MESSAGE(1) writes one.
    "MSG": _ioc(_IOC_WRITE, 0, 32),
    "RD_MODE": _ioc(_IOC_READ, 1, 1),
    "WR_MODE": _ioc(_IOC_WRITE, 1, 1),
    "RD_LSB_FIRST": _ioc(_IOC_READ, 2, 1),
    "WR_LSB_FIRST": _ioc(_IOC_WRITE, 2, 1),
    "RD_BITS_PER_WORD": _ioc(_IOC_READ, 3, 1),
    "WR_BITS_PER_WORD": _ioc(_IOC_WRITE, 3, 1),
    "RD_MAX_SPEED_HZ": _ioc(_IOC_READ, 4, 4),
    "WR_MAX_SPEED_HZ": _ioc(_IOC_WRITE, 4, 4),
    "RD_MODE32": _ioc(_IOC_READ, 5, 4),
    "WR_MODE32": _ioc(_IOC_WRITE, 5, 4),
}

# (id, dependent routine, dependent request, dependency routine, dependency request)
SPIDEV_DEPS: list[tuple[str, str, str | None, str, str | None]] = [
    ("d1", "read", None, "open", None),
    ("d2", "write", None, "open", None),
    ("d3", "ioctl", "MSG", "open", None),
    ("d4", "close", None, "open", None),
    ("d5", "ioctl", "RD_MODE", "open", None),
    ("d6", "ioctl", "WR_MODE", "open", None),
    ("d7", "ioctl", "RD_MODE32", "open", None),
    ("d8", "ioctl", "WR_MODE32", "open", None),
    ("d9", "ioctl", "RD_LSB_FIRST", "open", None),
    ("d10", "ioctl", "WR_LSB_FIRST", "open", None),
    ("d11", "ioctl", "RD_BITS_PER_WORD", "open", None),
    ("d12", "ioctl", "WR_BITS_PER_WORD", "open", None),
    ("d13", "ioctl", "RD_MAX_SPEED_HZ", "open", None),
    ("d14", "ioctl", "WR_MAX_SPEED_HZ", "open", None),
    ("d15", "read", None, "ioctl", "WR_MODE32"),
    ("d16", "write", None, "ioctl", "WR_MODE32"),
    ("d17", "ioctl", "MSG", "ioctl", "WR_MODE32"),
    ("d18", "read", None, "ioctl", "WR_LSB_FIRST"),
    ("d19", "write", None, "ioctl", "WR_LSB_FIRST"),
    ("d20", "ioctl", "MSG", "ioctl", "WR_LSB_FIRST"),
    ("d21", "read", None, "ioctl", "WR_BITS_PER_WORD"),
    ("d22", "write", None, "ioctl", "WR_BITS_PER_WORD"),
    ("d23", "ioctl", "MSG", "ioctl", "WR_BITS_PER_WORD"),
    ("d24", "read", None, "ioctl", "WR_MAX_SPEED_HZ"),
    ("d25", "write", None, "ioctl", "WR_MAX_SPEED_HZ"),
    ("d26", "ioctl", "MSG", "ioctl", "WR_MAX_SPEED_HZ"),
]


def spidev_routines() -> tuple[RoutineSpec, ...]:
    opaque = ParamRole.OPAQUE
    return (
        RoutineSpec(
            "open",
            (Param("path", opaque), Param("oflag", opaque)),
            returns_descriptor=True,
        ),
        RoutineSpec(
            "read",
            (
                Param("fd", ParamRole.DESCRIPTOR),
                Param("buf", opaque),
                Param("nbyte", opaque),
            ),
        ),
        RoutineSpec(
            "write",
            (
                Param("fd", ParamRole.DESCRIPTOR),
                Param("buf", opaque),
                Param("nbyte", opaque),
            ),
        ),
        RoutineSpec("close", (Param("fd", ParamRole.DESCRIPTOR),)),
        RoutineSpec(
            "ioctl",
            (
                Param("fd", ParamRole.DESCRIPTOR),
                Param("request", ParamRole.DISCRIMINATOR),
                Param("arg", opaque),
            ),
        ),
    )


def spidev_set() -> ThadSet:
    routines = spidev_routines()
    by_name = {r.name: r for r in routines}

    def pattern(name: str, const: str | None) -> RoutineSpec:
        r = by_name[name]
        return r if const is None else r.with_constraint(const)

    thads = tuple(
        Thad(tid, dependency=pattern(dep, dep_c), dependent=pattern(dnt, dnt_c))
        for (tid, dnt, dnt_c, dep, dep_c) in SPIDEV_DEPS
    )
    return ThadSet(
        routines=routines,
        thads=thads,
        constants=dict(SPIDEV_CONSTANTS),
        aliases={"WR_MODE": "WR_MODE32"},
    )


# -- event shorthands --------------------------------------------------------

def ev_open(token: str = "t0") -> CallEvent:
    return CallEvent("open", produced_token=token)


def ev_read(token: str | None = "t0") -> CallEvent:
    return CallEvent("read", descriptor_token=token)


def ev_write(token: str | None = "t0") -> CallEvent:
    return CallEvent("write", descriptor_token=token)


def ev_close(token: str | None = "t0") -> CallEvent:
    return CallEvent("close", descriptor_token=token)


def ev_ioctl(request: str | None, token: str | None = "t0") -> CallEvent:
    return CallEvent(
        "ioctl",
        discriminator_value=request,
        descriptor_token=token,
        discriminator_unknown=request is None,
    )


def bound_read_set() -> ThadSet:
    """A two-routine set where read's descriptor must come from open."""
    routines = (
        RoutineSpec("open", (Param("path"),), returns_descriptor=True),
        RoutineSpec(
            "read", (Param("fd", ParamRole.DESCRIPTOR), Param("buf"))
        ),
    )
    thad = Thad(
        "b1",
        dependency=routines[0],
        dependent=routines[1],
        binding=DescriptorBinding(BindingSource.RETURN_VALUE, "fd"),
    )
    return ThadSet(routines=routines, thads=(thad,))


def bound_spidev_set() -> ThadSet:
    """The spidev dependencies with an fd binding added to each."""
    from dataclasses import replace

    base = spidev_set()
    bound = []
    for t in base.thads:
        source = (
            BindingSource.RETURN_VALUE
            if t.dependency.name == "open"
            else BindingSource.PARAM
        )
        bound.append(replace(t, binding=DescriptorBinding(source, "fd")))
    return ThadSet(
        routines=base.routines,
        thads=tuple(bound),
        constants=dict(base.constants),
        aliases=dict(base.aliases),
    )


def parse_program(source: str, path: str = "<input>") -> ProgramModel:
    """Parse C-subset source text and lower it to a program model."""
    return build_model(parse_source(source, path))


def prepared(source: str, thad_set: ThadSet | None = None,
             depth_limit: int = 16, unroll: int | None = None
             ) -> ProgramModel:
    """Source text parsed, lowered and prepared for the checker against
    ``thad_set`` (the spidev set by default), with its loops unrolled
    ``unroll`` times first when given."""
    program = parse_source(source, "<test>")
    if unroll is not None:
        program = unroll_loops(program, unroll)
    if thad_set is None:
        thad_set = spidev_set()
    return preprocess(build_model(program), thad_set, depth_limit)


# ---------------------------------------------------------------------------
# CFG invariants and labeled edges
# ---------------------------------------------------------------------------

class Edge:
    """An out-edge as :func:`edges` shows it: its branch label (None
    when unlabeled) and target."""

    __slots__ = ("label", "dst")

    def __init__(self, label: Optional[str], dst: int):
        self.label = label
        self.dst = dst

    def __repr__(self) -> str:
        return f"Edge({self.label!r}, {self.dst})"


def edges(cfg: Cfg, node_id: int) -> tuple[Edge, ...]:
    """The node's out-edges with their branch labels, in the graph's
    successor order."""
    labels = cfg.nodes[node_id].labels or repeat(None)
    return tuple(Edge(label, dst) for label, dst
                 in zip(labels, cfg.succ[node_id]))


def check_well_formed(cfg: Cfg) -> None:
    """Assert the dense-id layout every pass indexes by: ``nodes`` and
    ``succ`` are lists with one entry per node, node ``i`` sits at index
    ``i``, and every successor is an index into them."""
    assert isinstance(cfg.nodes, list) and isinstance(cfg.succ, list)
    assert len(cfg.succ) == len(cfg.nodes)
    for i, node in enumerate(cfg.nodes):
        assert node.id == i, (i, node)
    n = len(cfg.nodes)
    for src, dsts in enumerate(cfg.succ):
        assert isinstance(dsts, tuple), (src, dsts)
        for dst in dsts:
            assert type(dst) is int and 0 <= dst < n, (src, dst)
    assert 0 <= cfg.entry < n and 0 <= cfg.exit < n


def check_cfg(cfg: Cfg) -> None:
    """Assert the invariants the analyses rely on.  Raises ValueError.

    The graph must be well formed (see :func:`check_well_formed`).
    Every node must be reachable from the entry and able to reach the
    exit (so meeting over paths sees every node), the entry must have
    no predecessors, the exit no successors, and non-branch nodes
    exactly one successor.  Labels appear only on branch nodes, one per
    successor.
    """
    check_well_formed(cfg)
    preds: list[list[int]] = [[] for _ in cfg.nodes]
    for src, dsts in enumerate(cfg.succ):
        for dst in dsts:
            preds[dst].append(src)
    if preds[cfg.entry]:
        raise ValueError("entry node has predecessors")
    if cfg.succ[cfg.exit]:
        raise ValueError("exit node has successors")
    for node_id, node in enumerate(cfg.nodes):
        out = cfg.succ[node_id]
        if node.kind is NodeKind.BRANCH:
            if len(out) < 2:
                raise ValueError(f"branch node {node_id} has {len(out)} out-edges")
            if len(node.labels) != len(out) or not all(
                    isinstance(label, str) for label in node.labels):
                raise ValueError(f"branch node {node_id} has labels "
                                 f"{node.labels!r} for {len(out)} out-edges")
        else:
            if node.labels:
                raise ValueError(f"non-branch node {node_id} has labels")
            if node.kind is not NodeKind.EXIT and len(out) != 1:
                raise ValueError(f"node {node_id} has {len(out)} out-edges")
    ids = set(range(len(cfg.nodes)))
    reachable = _closure(cfg.entry, lambda n: cfg.succ[n])
    if reachable != ids:
        missing = sorted(ids - reachable)
        raise ValueError(f"nodes unreachable from entry: {missing}")
    coreachable = _closure(cfg.exit, lambda n: list(preds[n]))
    if coreachable != ids:
        missing = sorted(ids - coreachable)
        raise ValueError(f"nodes that cannot reach exit: {missing}")


def _closure(start: int, step) -> set[int]:
    seen = {start}
    work = [start]
    while work:
        for nxt in step(work.pop()):
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return seen


# ---------------------------------------------------------------------------
# Deeply nested programs (see ``thadc.minic.MAX_NESTING``)
# ---------------------------------------------------------------------------

def nested_ifs(n: int) -> str:
    """A read under ``n`` nested ifs: n + 2 nesting levels, counting the
    read statement and its argument list.  The k-th if is on line k + 2."""
    return ('int main(void) {\n    int fd = open("/dev/spidev0.0", 2);\n'
            + "    if (c) {\n" * n + "    read(fd, 0, 1);\n" + "    }\n" * n
            + "    return 0;\n}\n")


# Two nested loops around one read.  Unrolled 10 times each, they have
# over a million control-flow paths but only 101 distinct HAL traces.
NESTED_LOOPS = """\
int main(void) {
    int fd = open("/dev/spidev0.0", 2);
    while (a) {
        while (b) {
            read(fd, 0, 1);
        }
    }
    return 0;
}
"""


def nested_parens(n: int) -> str:
    """An initializer in ``n`` parentheses on line 2: n + 1 levels.  The
    k-th parenthesis is in column k + 12."""
    return ("int main(void) {\n    int x = " + "(" * n + "1" + ")" * n
            + ";\n    return x;\n}\n")


def nested_calls(n: int) -> str:
    """An initializer of ``n`` nested one-argument calls on line 2: n + 1
    levels.  The k-th call's name is in column 2k + 11."""
    return ("int main(void) {\n    int x = " + "f(" * n + "1" + ")" * n
            + ";\n    return x;\n}\n")


def nested_nots(n: int) -> str:
    """An initializer under ``n`` prefix ``!`` operators on line 2: n + 1
    levels.  The k-th ``!`` is in column k + 12."""
    return ("int main(void) {\n    int x = " + "!" * n
            + "1;\n    return x;\n}\n")


def plus_chain(n: int) -> str:
    """An initializer adding ``n`` ones on line 2: n levels.  The k-th
    ``+`` is in column 2k + 12."""
    return ("int main(void) {\n    int x = " + "+".join(["1"] * n)
            + ";\n    return x;\n}\n")


# ---------------------------------------------------------------------------
# Dense must-propagation (the reference for ``thadc.cfg.must_forward``)
# ---------------------------------------------------------------------------

def dense_must_forward(cfg: Cfg, start, transfer, meet) -> dict:
    """Entry state of every node reached from the entry, one state kept
    per node on Kildall's worklist.  ``thadc.cfg.must_forward`` keeps
    states only at merge points and must read the same states."""
    nodes, succ = cfg.nodes, cfg.succ
    ins = {cfg.entry: start}
    work = deque([cfg.entry])
    while work:
        nid = work.popleft()
        out = transfer(nodes[nid], ins[nid])
        for dst in succ[nid]:
            cur = ins.get(dst)
            new = out if cur is None else meet(cur, out)
            if new is not cur and new != cur:
                ins[dst] = new
                work.append(dst)
    return ins


# ---------------------------------------------------------------------------
# Flat resolution (the reference for ``thadc.passes``' two resolution passes)
# ---------------------------------------------------------------------------

# The two passes as they were before they summarised each function once
# per calling context: one must-propagation over the whole inlined
# entry, with every variable keyed by the inlined copy that owns it.

FlatKey = Union[str, tuple[int, str]]


class AssignmentIndex:
    """The variables of an inlined entry body.

    A name that inlined copy ``c`` owns (see ``passes._owned_names``)
    has the key ``(c, name)``; every other name is its own key: the
    entry's own variables, and free names (platform constants, defines,
    globals).  A name read in copy ``c`` belongs to the nearest copy,
    from ``c`` up its parents, whose function owns it; a node writes in
    its own copy.  Copy ``c`` assigns ``(c, name)`` where its function's
    body assigns ``name``, in its parameter binds, and in the tails of
    its calls whose result is ``name``.  ``ends`` maps the tail of each
    inlined copy to the copy; nothing after the tail reads the copy's
    variables."""

    def __init__(self, body: FunctionBody):
        self.copies = body.copies or (InlinedCopy(body, None, None),)
        self._nodes = body.cfg.nodes
        self._owned = [frozenset(_owned_names(row.function))
                       for row in self.copies]
        self._assigns = []  # per copy: name -> the values assigned to it
        for row in self.copies:
            assigns: dict[str, list[Expr]] = {}
            for node in row.function.cfg.nodes:
                if node.kind is NodeKind.ASSIGN:
                    assigns.setdefault(node.var, []).append(node.expr)
            self._assigns.append(assigns)
        self._names = frozenset().union(*self._owned)
        self.ends = {row.tail: c for c, row in enumerate(self.copies) if c}
        self._results: dict[FlatKey, list[int]] = {}  # key -> tail ids
        for tail in self.ends:
            node = self._nodes[tail]
            if node.var is not None:
                key = self.key(node.copy, node.var)
                self._results.setdefault(key, []).append(tail)

    def reads_in(self, node: CfgNode) -> int:
        """The copy ``node`` reads its names in: a parameter bind reads
        its argument in the caller's copy, and a tail reads the return
        slot in the copy that ends there."""
        ended = self.ends.get(node.id)
        if ended is not None:
            return ended
        c = node.copy
        if c and node.id < self.copies[c].tail:
            return self.copies[c].parent
        return c

    def key(self, copy: int, name: str) -> FlatKey:
        """The key of ``name`` read in ``copy``."""
        if not copy:
            return name
        if name not in self._names:
            return name
        owner = copy
        while owner and name not in self._owned[owner]:
            owner = self.copies[owner].parent
        return (owner, name) if owner else name

    def sources(self, key: FlatKey) -> Iterator[tuple[Expr, int]]:
        """The values assigned to ``key``, each with the copy it is
        read in; a call's result is no value."""
        copy, name = key if isinstance(key, tuple) else (0, key)
        for expr in self._assigns[copy].get(name, ()):
            yield expr, copy
        if copy:
            row = self.copies[copy]
            if name in row.function.params:
                nid = row.tail - 1
                while self._nodes[nid].copy == copy:  # the binds
                    if self._nodes[nid].var == name:
                        yield self._nodes[nid].expr, row.parent
                    nid -= 1
        for tail in self._results.get(key, ()):
            yield self._nodes[tail].expr, self.ends[tail]

    def free(self, key: FlatKey) -> bool:
        """Is ``key`` a free name, one that resolution may read as a
        constant?"""
        return isinstance(key, str) and key not in self._owned[0]


def backward_slice(index: AssignmentIndex, seeds, follows: type = object
                   ) -> set[FlatKey]:
    """The variables the ``seeds``, each an expression and the copy it
    is read in, can depend on, flow-insensitively, following only the
    assignments whose value is a ``follows``."""
    relevant: set[FlatKey] = set()
    work = list(seeds)
    while work:
        expr, copy = work.pop()
        if isinstance(expr, Var):
            key = index.key(copy, expr.name)
            if key not in relevant:
                relevant.add(key)
                work += [source for source in index.sources(key)
                         if isinstance(source[0], follows)]
        elif isinstance(expr, Unary):
            work.append((expr.operand, copy))
        elif isinstance(expr, Binary):
            work += ((expr.lhs, copy), (expr.rhs, copy))
    return relevant


def every_key(body: FunctionBody) -> set[FlatKey]:
    """The key of every variable some node of ``body`` writes, in its
    own copy: every variable that can enter an environment."""
    return {(node.copy, name) if node.copy else name
            for node in body.cfg.nodes
            for name in (node.var or node.lhs,) if name is not None}


def must_values(body: FunctionBody, index: AssignmentIndex, value,
                relevant, read, ends: bool = True) -> dict:
    """What ``read(node, env)`` finds at every node of the inlined
    ``body``, on ``thadc.cfg.must_forward``, where ``env`` maps the key
    of each ``relevant`` variable to the value it holds on every path.
    A node writes at most one variable, and ``value(node, env)`` gives
    its new value, or None for unknown.  With ``ends``, an inlined
    copy's variables leave the environment after its tail's own write.
    """
    owned: dict[int, list[FlatKey]] = {}  # copy -> its relevant variables
    if ends:
        for key in relevant:
            if isinstance(key, tuple):
                owned.setdefault(key[0], []).append(key)

    def transfer(node, env):
        key = node.var or node.lhs
        if key is not None:
            if node.copy:
                key = (node.copy, key)
            if key in relevant:
                new = value(node, env)
                if env.get(key) != new:
                    env = dict(env)
                    if new is None:
                        del env[key]
                    else:
                        env[key] = new
        dead = owned.get(index.ends.get(node.id))
        if dead and not env.keys().isdisjoint(dead):
            env = {k: v for k, v in env.items() if k not in dead}
        return env

    def meet(env, other):
        kept = {k: v for k, v in env.items() if other.get(k) == v}
        return env if len(kept) == len(env) else kept

    return must_forward(body.cfg, {}, transfer, meet, read)


def _flat_role_args(sites, role: ParamRole) -> dict[int, Expr]:
    """Call node id -> its argument for the parameter with ``role``."""
    args = {}
    for node, routine in sites:
        idx = next((i for i, p in enumerate(routine.params)
                    if p.role is role), None)
        if idx is not None and idx < len(node.args):
            args[node.id] = node.args[idx]
    return args


def flat_resolve_discriminators(model: ProgramModel, spec_set: ThadSet,
                                sites, sliced: bool = True) -> dict[int, str]:
    """``passes.resolve_discriminators`` over the flat entry; without
    ``sliced`` every variable is tracked to the end."""
    body = model.entry_body
    index = AssignmentIndex(body)
    names: dict[int, str] = {}
    for cname, value in spec_set.constants.items():
        if value is not None and (value not in names or cname < names[value]):
            names[value] = cname
    nodes = body.cfg.nodes
    args = _flat_role_args(sites, ParamRole.DISCRIMINATOR)
    named = {}
    for nid, arg in args.items():
        if isinstance(arg, Var):
            key = index.key(nodes[nid].copy, arg.name)
            if index.free(key) and key in spec_set.constants:
                named[nid] = key
    for nid in named:
        del args[nid]
    relevant = (backward_slice(index, ((arg, nodes[nid].copy)
                                       for nid, arg in args.items()))
                if sliced else every_key(body))

    def value_in(copy):
        def value_of(name, env):
            key = index.key(copy, name)
            if key in env:
                return env[key]
            if not index.free(key):
                return None
            value = spec_set.constants.get(key)
            return value if value is not None else model.defines.get(key)
        return value_of

    def assigned(node, env):
        if node.kind is NodeKind.ASSIGN:
            return _eval_expr(node.expr, env, value_in(index.reads_in(node)))
        return None

    def read(node, env):
        arg = args.get(node.id)
        value = (None if arg is None
                 else _eval_expr(arg, env, value_in(node.copy)))
        return None if value is None else names.get(value, str(value))

    values = must_values(body, index, assigned, relevant, read, sliced)
    values.update(named)
    return values


def flat_build_token_flow(model: ProgramModel, sites, sliced: bool = True
                          ) -> tuple[dict[int, str], dict[int, str]]:
    """``passes.build_token_flow`` over the flat entry."""
    body = model.entry_body
    index = AssignmentIndex(body)
    produced: dict[int, str] = {}
    for node, routine in sites:
        if routine.returns_descriptor:
            produced[node.id] = f"t{len(produced) + 1}"
    uses = {nid: arg for nid, arg
            in _flat_role_args(sites, ParamRole.DESCRIPTOR).items()
            if isinstance(arg, Var)}

    def assigned(node, env):
        if node.kind is NodeKind.CALL:
            return produced.get(node.id)
        if not isinstance(node.expr, Var):
            return None
        return env.get(index.key(index.reads_in(node), node.expr.name))

    def read(node, env):
        arg = uses.get(node.id)
        return None if arg is None else env.get(index.key(node.copy,
                                                          arg.name))

    nodes = body.cfg.nodes
    relevant = (backward_slice(index, ((arg, nodes[nid].copy)
                                       for nid, arg in uses.items()), Var)
                if sliced else every_key(body))
    return must_values(body, index, assigned, relevant, read,
                       sliced), produced


def flat_preprocess(model: ProgramModel, spec_set: ThadSet,
                    depth_limit: int = 16, sliced: bool = True
                    ) -> ProgramModel:
    """``passes.preprocess`` on the flat reference passes."""
    flat = inline_calls(model, depth_limit)
    sites = hal_sites(flat.entry_body, spec_set)
    values = flat_resolve_discriminators(flat, spec_set, sites, sliced)
    tokens, produced = flat_build_token_flow(flat, sites, sliced)
    events = {}
    for node, routine in sites:
        nid = node.id
        value, token = values.get(nid), tokens.get(nid)
        events[nid] = CallEvent(
            node.callee, value, token, produced.get(nid),
            discriminator_unknown=(routine.discriminator_param is not None
                                   and value is None),
            descriptor_unknown=(routine.descriptor_param is not None
                                and token is None))
    return ProgramModel(flat.functions, flat.entry, flat.program, flat.path,
                        events, frozenset(r.name for r in spec_set.routines))


# ---------------------------------------------------------------------------
# The reference inliner (the reference for ``thadc.passes.inline_calls``)
# ---------------------------------------------------------------------------

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


def reference_splice_entry(model: ProgramModel) -> FunctionBody:
    """The entry body of ``inline_calls(model)``, built by copying one
    node at a time: a copy of the entry body with every call of a defined
    function expanded in place, straight from the lowered bodies.  Keeps
    its own stack of open copies."""
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


def assert_same_entry(body: FunctionBody, reference: FunctionBody) -> None:
    """``body`` equals ``reference`` node for node: every ``CfgNode``
    slot, with the lowered ``args``, ``expr``, ``var`` and ``lhs``
    objects themselves; the successors, entry and exit; and every row of
    the copy table.  A tail's read of its callee's return slot is equal
    to the reference's, and all tails of one callee share one."""
    cfg, ref = body.cfg, reference.cfg
    assert (body.name, body.params, body.locals) == (
        reference.name, reference.params, reference.locals)
    assert (cfg.entry, cfg.exit) == (ref.entry, ref.exit)
    assert len(cfg.nodes) == len(ref.nodes)
    assert cfg.succ == ref.succ
    tails = {row.tail for row in reference.copies[1:]}
    slots: dict[str, Expr] = {}
    for nid, (node, old) in enumerate(zip(cfg.nodes, ref.nodes)):
        assert type(node) is CfgNode
        assert (node.id, node.kind, node.line, node.callee, node.labels,
                node.copy) == (nid, old.kind, old.line, old.callee,
                               old.labels, old.copy), nid
        assert node.args is old.args and node.var is old.var, nid
        assert node.lhs is old.lhs, nid
        if nid in tails and old.kind is NodeKind.ASSIGN:
            assert node.expr == old.expr, nid
            assert slots.setdefault(old.expr.name, node.expr) is node.expr
        else:
            assert node.expr is old.expr, nid
    assert len(body.copies) == len(reference.copies)
    for row, old in zip(body.copies, reference.copies):
        assert row.function is old.function
        assert (row.parent, row.tail) == (old.parent, old.tail)


# ---------------------------------------------------------------------------
# The benchmark's input generator
# ---------------------------------------------------------------------------

def benchmark_generator() -> ModuleType:
    """``perfbench/gen.py``, loaded by file path: the tests import nothing
    else from the benchmark.  The module sits in ``sys.modules`` only
    while it runs, which its dataclasses need."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


# ---------------------------------------------------------------------------
# The reference lexer (the reference for ``thadc.minic.tokenize``)
# ---------------------------------------------------------------------------

# One alternative per token kind, tried in order at each position.  A
# directive is a ``#`` preceded only by blanks on its line; OPEN is the
# start of a comment or literal the alternatives above could not close;
# NUM leaves the integer suffix out of its group.
_TOKEN_RE = re.compile(r"""
    (?P<DIRECTIVE>^[ \t]*\#[^\n]*)
  | (?P<NEWLINE>\n)
  | (?P<SPACE>[ \t\r]+|//[^\n]*)
  | (?P<COMMENT>/\*[\s\S]*?\*/)
  | (?P<STR>"(?:\\[\s\S]|[^"\\])*")
  | (?P<CHAR>'(?:\\[^\n]|[^'\\\n])*')
  | (?P<OPEN>/\*|["'])
  | (?P<NUM>0[xX][0-9a-fA-F]*|[0-9]+)[uUlL]*
  | (?P<IDENT>[^\W\d]\w*)
  | (?P<PUNCT>\.\.\.|[-+*/%|&^=!<>]=|&&|\|\||<<|>>|\+\+|--|->
             |[-+*/%<>=!&|^~(){}\[\];,.?:])
  | (?P<BAD>.)
""", re.MULTILINE | re.VERBOSE)


# Blanks around directives, line ends, comments at the edges of a line
# or of the file, and files with no token at all.
EDGE_STRINGS = [
    "",
    " ",
    "\n\n\t \n",
    "   #define K 1\nint main(void) { return K; }\n",
    "\t#define K 0x10\n",
    " \t #include <x.h>\n#",
    "int main(void) {\r\n    return 0;\r\n}\r\n",
    "int x; // no newline at the end",
    "//",
    "/* a\nb */\n#define K 2\n",
    "/* a\nb */ #define K 2\n",
    "int x = 1; # 2\n",
    "a\rb\r",
    "int main(void) { return 0; }   \t  ",
    'x = "a\\"b\n/* c */" + \'\\n\' /* d',
    "x = '\\x41' + 08 + 0x; \"open",
]


def reference_tokenize(text: str
                       ) -> tuple[list[Token], dict[str, int], list[Diagnostic]]:
    """``thadc.minic.tokenize`` as it was before it matched one token per
    regex match: one match per token kind, blanks and ``//`` comments
    included, each dispatched on its group name."""
    tokens: list[Token] = []
    defines: dict[str, int] = {}
    diags: list[Diagnostic] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value = m.group(kind)
        col = m.start() - line_start + 1
        if kind == "SPACE":
            continue
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
        elif kind == "IDENT" or kind == "PUNCT":
            tokens.append(Token(kind, value, line, col))
        elif kind == "NUM":
            if c_int_value(value) is None:
                diags.append(Diagnostic(line, col,
                                        f"invalid integer literal {value!r}"))
            tokens.append(Token(kind, value, line, col))
        elif kind == "STR" or kind == "COMMENT":
            if kind == "STR":
                tokens.append(Token(kind, value[1:-1], line, col))
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + value.rindex("\n") + 1
        elif kind == "CHAR":
            code = _char_value(value[1:-1])
            if code is None:
                diags.append(Diagnostic(
                    line, col,
                    f"character literal {value} must hold exactly one character"))
            tokens.append(Token("NUM", value if code is None else str(code),
                                line, col))
        elif kind == "DIRECTIVE":
            hash_col = col + len(value) - len(value.lstrip(" \t"))
            _directive(value, line, hash_col, defines, diags)
        elif kind == "OPEN":
            diags.append(Diagnostic(line, col,
                                    f"unterminated {_UNTERMINATED[value]}"))
            break
        else:
            diags.append(Diagnostic(line, col, f"unexpected character {value!r}"))
    tokens.append(Token("EOF", "", text.count("\n") + 1,
                        len(text) - text.rfind("\n")))
    return tokens, defines, diags
