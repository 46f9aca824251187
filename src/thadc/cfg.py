"""Control-flow graphs over the C subset, and the program model built on them.

Each function body lowers to a graph of small nodes: parameter-less
``ENTRY``/``EXIT`` markers, ``CALL`` (one direct call, arguments already
flattened), ``ASSIGN`` (one scalar assignment), ``BRANCH`` (a condition
or switch subject with labeled out-edges) and ``JOIN`` (a merge point,
used for loop headers and splice seams).  Node ids are dense: a graph
numbers its nodes 0..n-1 in the order it builds them, and keeps the
nodes and each node's successors in two lists indexed by id, the
successors as a tuple of node ids.  A branch node holds one label per
successor, in the same order.  Calls nested inside expressions are
hoisted onto fresh temporaries during lowering; a loop condition's calls
are hoisted *inside* the loop so they re-execute each iteration.

Statements that follow a ``return`` are dropped during lowering, so by
construction every node lies on some entry-to-exit walk.  That property
is what lets the must-style fixpoint of :func:`must_forward` coincide
with the meet over all paths.

Branch conditions are kept only for display.  The analyses in this
package are path-insensitive: both arms of every branch are explored,
and no facts are refined from the condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, NamedTuple, Optional, TypeVar

from .diagnostics import Diagnostic
from .minic import (
    Assign,
    Binary,
    Block,
    CallExpr,
    Declare,
    Expr,
    ExprStmt,
    For,
    FunctionDef,
    If,
    MiniCError,
    Num,
    Program,
    Return,
    Stmt,
    Switch,
    Unary,
    Var,
    While,
)
from .model import CallEvent, RoutineSpec, ThadSet

__all__ = [
    "NodeKind",
    "CfgNode",
    "Cfg",
    "InlinedCopy",
    "FunctionBody",
    "ProgramModel",
    "build_model",
    "hal_sites",
    "must_forward",
    "return_var",
]


class NodeKind(Enum):
    ENTRY = "entry"
    EXIT = "exit"
    CALL = "call"
    ASSIGN = "assign"
    BRANCH = "branch"
    JOIN = "join"


class CfgNode:
    """One CFG node.  Field use by kind:

    CALL    callee, args, lhs (None for a discarded result)
    ASSIGN  var, expr
    BRANCH  expr (condition or switch subject, display only) and
            labels, one per successor in the graph's order
    others  no extra fields

    ``copy`` is the inlined copy a node of an inlined entry belongs to,
    an index into its body's ``copies`` table; it is 0 for the entry's
    own nodes and for every node of a lowered body.  An inlined node
    holds its callee node's own ``args``, ``lhs``, ``var`` and ``expr``:
    the names in them mean that copy's variables.

    A HAL call's resolved event is not a node field: it lives in the
    prepared model's ``events`` table.  Nodes are plain slot records,
    built once and never changed once lowered (a branch gets its labels
    as lowering connects its edges); they compare by identity, and every
    table keys them by id: the graph's own lists by position, every
    other table by the int.
    """

    __slots__ = ("id", "kind", "line", "callee", "args", "lhs", "var",
                 "expr", "labels", "copy")

    def __init__(self, id: int, kind: NodeKind, line: int = 0,
                 callee: Optional[str] = None, args: tuple[Expr, ...] = (),
                 lhs: Optional[str] = None, var: Optional[str] = None,
                 expr: Optional[Expr] = None, labels: tuple[str, ...] = (),
                 copy: int = 0):
        self.id = id
        self.kind = kind
        self.line = line
        self.callee = callee
        self.args = args
        self.lhs = lhs
        self.var = var
        self.expr = expr
        self.labels = labels
        self.copy = copy

    def __repr__(self) -> str:
        return f"CfgNode({self.id}, {self.kind.name}, line {self.line})"


@dataclass
class Cfg:
    """Two lists indexed by node id: the nodes, and each node's
    successor ids in edge order.  Ids are 0..n-1, so ``nodes[i].id == i``
    and both lists have one entry per node."""

    nodes: list[CfgNode]
    succ: list[tuple[int, ...]]
    entry: int
    exit: int

    @cached_property
    def merges(self) -> dict[int, int]:
        """Node id -> number of in-edges, for the nodes where states
        meet: those with more than one in-edge, and the entry if any
        edge enters it.  Counted once per graph, in a list indexed by
        node id like the graph's own; a graph is never changed once
        built."""
        counts = [0] * len(self.nodes)
        for dsts in self.succ:
            for dst in dsts:
                counts[dst] += 1
        merges = {nid: n for nid, n in enumerate(counts) if n > 1}
        if counts[self.entry]:
            merges[self.entry] = counts[self.entry]
        return merges

    def call_nodes(self) -> list[CfgNode]:
        """The CALL nodes in id order."""
        return [node for node in self.nodes if node.kind is NodeKind.CALL]


def return_var(function_name: str) -> str:
    """The synthetic variable a function's return value is assigned to."""
    return f"__ret_{function_name}"


class InlinedCopy(NamedTuple):
    """One row of an inlined entry's copy table: the lowered body the
    copy comes from, the copy whose call it expands, and the id of that
    call's tail, the node that ends the copy.  Row 0 is the entry's own
    body, with neither.

    In id order, a copy's parameter binds come just before its tail and
    its function's own nodes after it; the tail itself belongs to the
    parent copy, in the call's place.  See
    :func:`thadc.passes.inline_calls`."""

    function: "FunctionBody"
    parent: Optional[int]
    tail: Optional[int]


@dataclass
class FunctionBody:
    """A function's CFG with its parameter and local names.  An inlined
    entry (see :func:`thadc.passes.inline_calls`) keeps the entry's own
    names and adds the copy table its nodes' ``copy`` indexes; a lowered
    body has no table, as all its nodes are its own."""

    name: str
    params: tuple[str, ...]
    locals: tuple[str, ...]
    cfg: Cfg
    copies: tuple[InlinedCopy, ...] = ()


@dataclass
class ProgramModel:
    """Parsed program: one CFG per defined function plus the entry name.

    Global variable initializers are recorded in the syntax tree but not
    executed; the analyses treat globals as unknown values.  ``defines``
    (from ``#define NAME <int>``) do participate in argument resolution.

    ``events`` maps each HAL call node of the entry body to its resolved
    :class:`~thadc.model.CallEvent`, in node id order, and ``resolved``
    names the routines whose calls it covers.  Both are empty on a
    lowered model; :func:`thadc.passes.preprocess` returns a new model
    that fills them.
    """

    functions: dict[str, FunctionBody]
    entry: str
    program: Program
    path: str = "<input>"
    events: dict[int, CallEvent] = field(default_factory=dict)
    resolved: frozenset[str] = frozenset()

    @property
    def defines(self) -> dict[str, int]:
        return self.program.defines

    @property
    def entry_body(self) -> FunctionBody:
        return self.functions[self.entry]


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------

class _FunctionLowering:
    def __init__(self, fn: FunctionDef):
        self.fn = fn
        self.entry, self.exit = 0, 1
        self.nodes = [CfgNode(0, NodeKind.ENTRY, fn.line),
                      CfgNode(1, NodeKind.EXIT, fn.line)]
        self.succ: list[tuple[int, ...]] = [(), ()]
        self.next_temp = 0
        self.locals: list[str] = []
        # dangling (node, edge label) pairs awaiting their successor
        self.frontier: list[tuple[int, Optional[str]]] = [(self.entry, None)]

    # -- graph primitives ---------------------------------------------------

    def _connect(self, dst: int) -> None:
        """Point every edge of the frontier at ``dst``."""
        for src, label in self.frontier:
            self.succ[src] += (dst,)
            if label is not None:  # only a branch's edges are labeled
                self.nodes[src].labels += (label,)

    def _emit(self, kind: NodeKind, line: int, callee: Optional[str] = None,
              args: tuple[Expr, ...] = (), lhs: Optional[str] = None,
              var: Optional[str] = None, expr: Optional[Expr] = None) -> int:
        node_id = len(self.nodes)
        self.nodes.append(CfgNode(node_id, kind, line, callee, args, lhs, var,
                                  expr))
        self.succ.append(())
        self._connect(node_id)
        self.frontier = [(node_id, None)]
        return node_id

    def _temp(self) -> str:
        name = f"__t{self.next_temp}"
        self.next_temp += 1
        self.locals.append(name)
        return name

    # -- expression hoisting --------------------------------------------------

    def _hoist(self, expr: Expr) -> Expr:
        """Pull nested calls out of ``expr`` into CALL nodes on temporaries.
        A subtree with no call in it comes back as the same record."""
        cls = type(expr)
        if cls is Var or cls is Num:
            return expr
        if cls is CallExpr:
            args = tuple([self._hoist(a) for a in expr.args])
            temp = self._temp()
            self._emit(NodeKind.CALL, expr.line, expr.callee, args, temp)
            return Var(temp, expr.line)
        if cls is Unary:
            operand = self._hoist(expr.operand)
            if operand is expr.operand:
                return expr
            return Unary(expr.op, operand, expr.line)
        if cls is Binary:
            lhs = self._hoist(expr.lhs)
            rhs = self._hoist(expr.rhs)
            if lhs is expr.lhs and rhs is expr.rhs:
                return expr
            return Binary(expr.op, lhs, rhs, expr.line)
        return expr

    def _call_or_assign(self, target: Optional[str], value: Expr, line: int) -> None:
        """Lower ``target = value`` with the top-level call kept in place."""
        if type(value) is CallExpr:
            args = tuple([self._hoist(a) for a in value.args])
            self._emit(NodeKind.CALL, value.line, value.callee, args, target)
        elif target is not None:
            self._emit(NodeKind.ASSIGN, line, var=target, expr=self._hoist(value))
        else:
            self._hoist(value)  # value unused; only its calls have effects

    # -- statements -----------------------------------------------------------

    def lower(self, stmt: Stmt) -> None:
        if not self.frontier:
            return  # unreachable (after return); drop
        cls = type(stmt)  # the parser's records are never subclassed
        if cls is If:
            self._lower_if(stmt)
        elif cls is ExprStmt:
            self._call_or_assign(None, stmt.expr, stmt.line)
        elif cls is Block:
            for s in stmt.stmts:
                self.lower(s)
        elif cls is Declare:
            self.locals.append(stmt.name)
            if stmt.init is not None:
                self._call_or_assign(stmt.name, stmt.init, stmt.line)
        elif cls is Assign:
            self._call_or_assign(stmt.name, stmt.value, stmt.line)
        elif cls is Return:
            if stmt.value is not None:
                self._call_or_assign(return_var(self.fn.name), stmt.value, stmt.line)
            self._connect(self.exit)
            self.frontier = []
        elif cls is While:
            self._lower_loop(stmt.line, stmt.cond, stmt.body, None)
        elif cls is For:
            if stmt.init is not None:
                self.lower(stmt.init)
            cond = stmt.cond if stmt.cond is not None else Num(1, stmt.line)
            self._lower_loop(stmt.line, cond, stmt.body, stmt.step)
        elif cls is Switch:
            self._lower_switch(stmt)
        else:  # pragma: no cover - parser emits no other statement kinds
            raise AssertionError(f"unexpected statement {stmt!r}")

    def _lower_if(self, stmt: If) -> None:
        cond = self._hoist(stmt.cond)
        branch = self._emit(NodeKind.BRANCH, stmt.line, expr=cond)
        self.frontier = [(branch, "then")]
        self.lower(stmt.then)
        after = self.frontier
        self.frontier = [(branch, "else")]
        if stmt.orelse is not None:
            self.lower(stmt.orelse)
        self.frontier = after + self.frontier

    def _lower_loop(self, line: int, cond: Expr, body: Block,
                    step: Optional[Stmt]) -> None:
        header = self._emit(NodeKind.JOIN, line)
        # the condition's calls are hoisted inside, so they run every iteration
        branch = self._emit(NodeKind.BRANCH, line, expr=self._hoist(cond))
        self.frontier = [(branch, "then")]
        self.lower(body)
        if step is not None:
            self.lower(step)
        self._connect(header)
        self.frontier = [(branch, "else")]

    def _lower_switch(self, stmt: Switch) -> None:
        subject = self._hoist(stmt.expr)
        branch = self._emit(NodeKind.BRANCH, stmt.line, expr=subject)
        after: list[tuple[int, Optional[str]]] = []
        has_default = False
        for case in stmt.cases:
            has_default = has_default or None in case.labels
            self.frontier = [(branch, "default" if label is None
                              else f"case {_label_text(label)}")
                             for label in case.labels]
            self.lower(case.body)
            after.extend(self.frontier)
        if not has_default:
            after.append((branch, "default"))
        self.frontier = after

    # -- assembly ---------------------------------------------------------------

    def finish(self) -> FunctionBody:
        self._connect(self.exit)
        self.frontier = []
        cfg = Cfg(self.nodes, self.succ, self.entry, self.exit)
        params = tuple(p.name for p in self.fn.params)
        return FunctionBody(self.fn.name, params, tuple(self.locals), cfg)


def _label_text(expr: Expr) -> str:
    if isinstance(expr, Num):
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    return "?"


def _lower_function(fn: FunctionDef) -> FunctionBody:
    lowering = _FunctionLowering(fn)
    lowering.lower(fn.body)
    return lowering.finish()


ENTRY_FUNCTION = "main"


def build_model(program: Program) -> ProgramModel:
    """Lower a parsed program to CFGs.  ``main`` must be defined."""
    functions = {fn.name: _lower_function(fn) for fn in program.functions}
    if ENTRY_FUNCTION not in functions:
        raise MiniCError(
            [Diagnostic(1, 1, "no definition of entry function "
                        f"{ENTRY_FUNCTION!r}", "missing-entry")],
            program.path,
        )
    return ProgramModel(functions, ENTRY_FUNCTION, program, program.path)


def hal_sites(body: FunctionBody,
              spec_set: ThadSet) -> list[tuple[CfgNode, RoutineSpec]]:
    """The body's calls of spec routines with their declarations, in
    node id order.  Calls of any other name are skipped."""
    routines = {r.name: r for r in spec_set.routines}
    return [(node, routines[node.callee]) for node in body.cfg.call_nodes()
            if node.callee in routines]


# ---------------------------------------------------------------------------
# Forward must-propagation
# ---------------------------------------------------------------------------

State = TypeVar("State")
Value = TypeVar("Value")


def must_forward(cfg: Cfg, start: State,
                 transfer: Callable[[CfgNode, State], State],
                 meet: Callable[[State, State], State],
                 read: Callable[[CfgNode, State], Optional[Value]],
                 ) -> dict[int, Value]:
    """What ``read`` finds in the entry state of every node reached from
    the entry, for a forward must-analysis: node id -> ``read(node,
    state)``, kept only where that is not None.  ``start`` enters the
    entry, ``transfer(node, state)`` leaves a node, and ``meet`` merges
    the states arriving at a node, so a fact survives a merge only when
    it holds on every incoming path.  It converges when meets only
    shrink.

    States are kept only at the entry and at the merge points of
    :attr:`Cfg.merges`, as on the sparse evaluation graphs of Choi,
    Cytron and Ferrante (POPL 1991).  Every other node has one in-edge,
    so its state is carried in a local along the chain of such nodes
    that starts at a kept state, and ``read`` sees it on the way.  The
    one worklist is Kildall's, over merge points whose state changed.
    A merge point is walked once all its in-edges have delivered a
    state; when no merge point is ready, the one that got a state first
    is walked.  So on a graph without cycles every chain is walked once.  A chain walked
    again overwrites what was read on it before, so every result comes
    from the node's final state.

    States are shared, not copied: a transfer may return its input, and
    a merge point's first state is the object its first in-edge
    delivered.  That is safe only because no transfer, meet or reader
    mutates a state in place.
    """
    nodes, succ, merges = cfg.nodes, cfg.succ, cfg.merges
    states: dict[int, State] = {cfg.entry: start}
    left = dict(merges)  # in-edges each merge point still waits for
    ready: dict[int, None] = {cfg.entry: None}  # as a stack
    waiting: dict[int, None] = {}  # changed, not ready; in arrival order
    walked: set[int] = set()
    found: dict[int, Value] = {}
    while ready or waiting:
        if ready:
            head = ready.popitem()[0]
        else:
            head = next(iter(waiting))
            del waiting[head]
        again = head in walked
        walked.add(head)
        todo = [(head, states[head])]
        while todo:
            nid, state = todo.pop()
            node = nodes[nid]
            value = read(node, state)
            if value is not None:
                found[nid] = value
            elif again:
                found.pop(nid, None)
            out = transfer(node, state)
            for dst in succ[nid]:
                if dst not in merges:
                    todo.append((dst, out))
                    continue
                cur = states.get(dst)
                new = out if cur is None else meet(cur, out)
                changed = new is not cur and new != cur
                if changed:
                    states[dst] = new
                left[dst] -= 1
                if left[dst] > 0:
                    if changed:
                        waiting[dst] = None
                elif changed or dst in waiting:
                    waiting.pop(dst, None)
                    ready[dst] = None
    return found
