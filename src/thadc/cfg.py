"""Control-flow graphs over the C subset, and the program model built on them.

Each function body lowers to a graph of small nodes: parameter-less
``ENTRY``/``EXIT`` markers, ``CALL`` (one direct call, arguments already
flattened), ``ASSIGN`` (one scalar assignment), ``BRANCH`` (a condition
or switch subject with labeled out-edges) and ``JOIN`` (a merge point,
used for loop headers and splice seams).  Calls nested inside
expressions are hoisted onto fresh temporaries during lowering; a loop
condition's calls are hoisted *inside* the loop so they re-execute each
iteration.

Statements that follow a ``return`` are dropped during lowering, so by
construction every node lies on some entry-to-exit walk.  That property
is what lets the must-style fixpoint used by the checker coincide with
the meet over all paths.

Branch conditions are kept only for display.  The analyses in this
package are path-insensitive: both arms of every branch are explored,
and no facts are refined from the condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Optional

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
    Str,
    Switch,
    Unary,
    Var,
    While,
)
from .model import CallEvent

__all__ = [
    "NodeKind",
    "CfgNode",
    "Edge",
    "Cfg",
    "FunctionBody",
    "ProgramModel",
    "PathExplosion",
    "build_model",
    "has_loops",
    "enumerate_paths",
    "return_var",
]


class NodeKind(Enum):
    ENTRY = "entry"
    EXIT = "exit"
    CALL = "call"
    ASSIGN = "assign"
    BRANCH = "branch"
    JOIN = "join"


@dataclass(frozen=True)
class CfgNode:
    """One CFG node.  Field use by kind:

    CALL    callee, args, lhs (None for a discarded result)
    ASSIGN  var, expr
    BRANCH  expr (condition or switch subject, display only)
    others  no extra fields

    A HAL call's resolved event is not a node field: it lives in the
    prepared model's ``events`` table.
    """

    id: int
    kind: NodeKind
    line: int = 0
    callee: Optional[str] = None
    args: tuple[Expr, ...] = ()
    lhs: Optional[str] = None
    var: Optional[str] = None
    expr: Optional[Expr] = None


@dataclass(frozen=True)
class Edge:
    label: Optional[str]
    dst: int


@dataclass
class Cfg:
    nodes: dict[int, CfgNode]
    succ: dict[int, tuple[Edge, ...]]
    entry: int
    exit: int

    def node(self, node_id: int) -> CfgNode:
        return self.nodes[node_id]

    def edges(self, node_id: int) -> tuple[Edge, ...]:
        return self.succ.get(node_id, ())

    def call_nodes(self) -> list[CfgNode]:
        return [
            self.nodes[i] for i in sorted(self.nodes)
            if self.nodes[i].kind is NodeKind.CALL
        ]


def return_var(function_name: str) -> str:
    """The synthetic variable a function's return value is assigned to."""
    return f"__ret_{function_name}"


@dataclass
class FunctionBody:
    name: str
    params: tuple[str, ...]
    locals: tuple[str, ...]
    cfg: Cfg


@dataclass
class ProgramModel:
    """Parsed program: one CFG per defined function plus the entry name.

    Global variable initializers are recorded in the syntax tree but not
    executed; the analyses treat globals as unknown values.  ``defines``
    (from ``#define NAME <int>``) do participate in argument resolution.

    ``events`` maps each HAL call node of the entry body to its resolved
    :class:`~thadc.model.CallEvent`.  It is empty on a lowered model;
    :func:`thadc.passes.preprocess` returns a new model that fills it.
    """

    functions: dict[str, FunctionBody]
    entry: str
    program: Program
    path: str = "<input>"
    events: dict[int, CallEvent] = field(default_factory=dict)

    @property
    def defines(self) -> dict[str, int]:
        return self.program.defines

    @property
    def entry_body(self) -> FunctionBody:
        return self.functions[self.entry]


class PathExplosion(Exception):
    """More entry-to-exit paths than the caller was willing to enumerate."""

    def __init__(self, bound: int):
        self.bound = bound
        super().__init__(f"more than {bound} control-flow paths")


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------

class _FunctionLowering:
    def __init__(self, fn: FunctionDef):
        self.fn = fn
        self.nodes: dict[int, CfgNode] = {}
        self.succ: dict[int, tuple[Edge, ...]] = {}
        self.next_id = 0
        self.next_temp = 0
        self.locals: list[str] = []
        self.entry = self._raw(NodeKind.ENTRY, fn.line)
        self.exit = self._raw(NodeKind.EXIT, fn.line)
        # dangling (node, edge label) pairs awaiting their successor
        self.frontier: list[tuple[int, Optional[str]]] = [(self.entry, None)]

    # -- graph primitives ---------------------------------------------------

    def _raw(self, kind: NodeKind, line: int, **fields) -> int:
        node_id = self.next_id
        self.next_id += 1
        self.nodes[node_id] = CfgNode(node_id, kind, line, **fields)
        self.succ[node_id] = ()
        return node_id

    def _connect(self, src: int, label: Optional[str], dst: int) -> None:
        self.succ[src] = self.succ[src] + (Edge(label, dst),)

    def _emit(self, kind: NodeKind, line: int, **fields) -> int:
        node_id = self._raw(kind, line, **fields)
        for src, label in self.frontier:
            self._connect(src, label, node_id)
        self.frontier = [(node_id, None)]
        return node_id

    def _temp(self) -> str:
        name = f"__t{self.next_temp}"
        self.next_temp += 1
        self.locals.append(name)
        return name

    # -- expression hoisting --------------------------------------------------

    def _hoist(self, expr: Expr) -> Expr:
        """Pull nested calls out of ``expr`` into CALL nodes on temporaries."""
        if isinstance(expr, CallExpr):
            args = tuple(self._hoist(a) for a in expr.args)
            temp = self._temp()
            self._emit(NodeKind.CALL, expr.line, callee=expr.callee,
                       args=args, lhs=temp)
            return Var(temp, expr.line)
        if isinstance(expr, Unary):
            return Unary(expr.op, self._hoist(expr.operand), expr.line)
        if isinstance(expr, Binary):
            lhs = self._hoist(expr.lhs)
            rhs = self._hoist(expr.rhs)
            return Binary(expr.op, lhs, rhs, expr.line)
        return expr

    def _call_or_assign(self, target: Optional[str], value: Expr, line: int) -> None:
        """Lower ``target = value`` with the top-level call kept in place."""
        if isinstance(value, CallExpr):
            args = tuple(self._hoist(a) for a in value.args)
            self._emit(NodeKind.CALL, value.line, callee=value.callee,
                       args=args, lhs=target)
        elif target is not None:
            self._emit(NodeKind.ASSIGN, line, var=target, expr=self._hoist(value))
        else:
            self._hoist(value)  # value unused; only its calls have effects

    # -- statements -----------------------------------------------------------

    def lower(self, stmt: Stmt) -> None:
        if not self.frontier:
            return  # unreachable (after return); drop
        if isinstance(stmt, Block):
            for s in stmt.stmts:
                self.lower(s)
        elif isinstance(stmt, Declare):
            self.locals.append(stmt.name)
            if stmt.init is not None:
                self._call_or_assign(stmt.name, stmt.init, stmt.line)
        elif isinstance(stmt, Assign):
            self._call_or_assign(stmt.name, stmt.value, stmt.line)
        elif isinstance(stmt, ExprStmt):
            self._call_or_assign(None, stmt.expr, stmt.line)
        elif isinstance(stmt, Return):
            if stmt.value is not None:
                self._call_or_assign(return_var(self.fn.name), stmt.value, stmt.line)
            for src, label in self.frontier:
                self._connect(src, label, self.exit)
            self.frontier = []
        elif isinstance(stmt, If):
            self._lower_if(stmt)
        elif isinstance(stmt, While):
            self._lower_while(stmt)
        elif isinstance(stmt, For):
            self._lower_for(stmt)
        elif isinstance(stmt, Switch):
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

    def _lower_while(self, stmt: While) -> None:
        header = self._emit(NodeKind.JOIN, stmt.line)
        cond = self._hoist(stmt.cond)  # re-evaluated every iteration
        branch = self._emit(NodeKind.BRANCH, stmt.line, expr=cond)
        self.frontier = [(branch, "then")]
        self.lower(stmt.body)
        for src, label in self.frontier:
            self._connect(src, label, header)
        self.frontier = [(branch, "else")]

    def _lower_for(self, stmt: For) -> None:
        if stmt.init is not None:
            self.lower(stmt.init)
        header = self._emit(NodeKind.JOIN, stmt.line)
        cond = self._hoist(stmt.cond if stmt.cond is not None else Num(1, stmt.line))
        branch = self._emit(NodeKind.BRANCH, stmt.line, expr=cond)
        self.frontier = [(branch, "then")]
        self.lower(stmt.body)
        if stmt.step is not None:
            self.lower(stmt.step)
        for src, label in self.frontier:
            self._connect(src, label, header)
        self.frontier = [(branch, "else")]

    def _lower_switch(self, stmt: Switch) -> None:
        subject = self._hoist(stmt.expr)
        branch = self._emit(NodeKind.BRANCH, stmt.line, expr=subject)
        after: list[tuple[int, Optional[str]]] = []
        has_default = False
        for case in stmt.cases:
            starts = []
            for label in case.labels:
                if label is None:
                    has_default = True
                    starts.append((branch, "default"))
                else:
                    starts.append((branch, f"case {_label_text(label)}"))
            self.frontier = starts
            self.lower(case.body)
            after.extend(self.frontier)
        if not has_default:
            after.append((branch, "default"))
        self.frontier = after

    # -- assembly ---------------------------------------------------------------

    def finish(self) -> FunctionBody:
        for src, label in self.frontier:
            self._connect(src, label, self.exit)
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


def build_model(program: Program, entry: str = "main") -> ProgramModel:
    """Lower a parsed program to CFGs.  The entry function must be defined."""
    functions = {fn.name: _lower_function(fn) for fn in program.functions}
    if entry not in functions:
        raise MiniCError(
            [Diagnostic(1, 1, f"no definition of entry function {entry!r}",
                        "missing-entry")],
            program.path,
        )
    return ProgramModel(functions, entry, program, program.path)


# ---------------------------------------------------------------------------
# Loops and path enumeration
# ---------------------------------------------------------------------------

def has_loops(cfg: Cfg) -> bool:
    """Is there a cycle reachable from the entry node?"""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in cfg.nodes}
    stack: list[tuple[int, Iterable[Edge]]] = [(cfg.entry, iter(cfg.edges(cfg.entry)))]
    color[cfg.entry] = GRAY
    while stack:
        node, edges = stack[-1]
        advanced = False
        for e in edges:
            if color[e.dst] == GRAY:
                return True
            if color[e.dst] == WHITE:
                color[e.dst] = GRAY
                stack.append((e.dst, iter(cfg.edges(e.dst))))
                advanced = True
                break
        if not advanced:
            color[node] = BLACK
            stack.pop()
    return False


def enumerate_paths(cfg: Cfg, bound: int = 1_000_000) -> Iterator[list[int]]:
    """All entry-to-exit node sequences of an acyclic CFG, one at a time.

    Raises ValueError on a cyclic graph, at the call.  The iterator
    raises :class:`PathExplosion` when it would yield path ``bound + 1``.
    Edge order is preserved, so the enumeration is deterministic.  The
    walk keeps its own stack, so no path is too long for the
    interpreter's recursion limit, and holds one path at a time.
    """
    if has_loops(cfg):
        raise ValueError("cannot enumerate paths of a cyclic graph")
    return _paths(cfg, bound)


def _paths(cfg: Cfg, bound: int) -> Iterator[list[int]]:
    count = 0
    prefix: list[int] = []  # the walk from the entry to the current node
    pending: list[Iterator[Edge]] = []  # the unexplored edges along it
    node: Optional[int] = cfg.entry
    while node is not None:
        prefix.append(node)
        if node == cfg.exit:
            if count >= bound:
                raise PathExplosion(bound)
            count += 1
            yield list(prefix)
        pending.append(iter(() if node == cfg.exit else cfg.edges(node)))
        node = None
        while pending and node is None:
            edge = next(pending[-1], None)
            if edge is None:
                pending.pop()
                prefix.pop()
            else:
                node = edge.dst
