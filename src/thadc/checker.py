"""Static verification of call-order dependencies over a program model.

A monitor key is a dependency id plus, for a bound dependency, the
descriptor token its calls must share.  The fact "a call matching the
dependency pattern (with this token) has completed" is generated at
matching call nodes and survives a control-flow merge only when it
holds on every incoming path.  Deciding is graph reachability (the
IFDS view of Reps, Horwitz and Sagiv, POPL 1995), in three steps:

1. A site table matches the HAL call sites of the entry function
   against both patterns of every dependency, once per distinct call
   event.  It numbers the monitor keys and records each site's gen
   bitmask, which also names the completer sites of each key.
2. A bitset must-analysis decides every key at once: a node's entry
   state is one ``int`` with a bit per key, merged with ``&``.  A
   dependent site is violated iff its key's bit is clear there, which
   on a graph where every node lies on an entry-to-exit walk is exactly
   a violating execution.
3. For each violated key, one forward BFS from the entry that does not
   pass through the key's completers gives every offender's distance
   and the node each node was first reached from.  It visits a node's
   successors lowest (line, node id) first, so those previous-node
   chains are the lexicographically lowest shortest completion-free
   paths.  The nearest offender (then lowest line, then node id) is
   reported with its chain, projected to HAL calls, as the witness.

Precision notes, fixed here:

- Branch conditions are never evaluated; both arms count as feasible.
  Witnesses may therefore be concretely infeasible; they are reported
  as violations anyway and marked "feasibility: not-proven" upstream.
- Calls whose discriminator did not resolve never complete anything,
  and where they might match a dependent pattern they can only degrade
  the verdict to Inconclusive, never prove it Satisfied.
- Dependents whose descriptor argument has no must-token make a bound
  dependency Inconclusive (the binding cannot be checked statically).
- A dependency between two patterns of the same routine is checked only
  when some call resolves to the dependency pattern; a generic routine's
  optional-configuration request imposes nothing on programs that never
  issue it.  With no such call the dependency counts as trivially
  satisfied, unless an unresolved call might be one (Inconclusive).
- A dependency whose dependent pattern matches no call (not even
  possibly) is trivially satisfied.

Verdict precedence per dependency: trivially satisfied, then the
same-routine relevance rule, then Violated, then Inconclusive, then
Satisfied.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Mapping, NamedTuple, Optional, Sequence

from .cfg import Cfg, CfgNode, ProgramModel, enumerate_paths, has_loops
from .model import (
    CallEvent,
    RoutineSpec,
    Thad,
    ThadSet,
    dependency_token,
    match_event,
    natural_key,
    trace_satisfies,
)

__all__ = [
    "Completion",
    "MonitorState",
    "Status",
    "WitnessStep",
    "WitnessTrace",
    "ThadVerdict",
    "dataflow_fixpoint",
    "check",
    "find_witness",
    "brute_force_paths",
]

MonitorKey = tuple[str, Optional[str]]  # (thad id, token or None for unbound)


class Completion(Enum):
    UNREACHABLE = "unreachable"
    COMPLETED = "completed"
    NOT_COMPLETED = "not-completed"


class MonitorState:
    """Must-completed facts entering one CFG node.

    Bit ``i`` of ``mask`` is set when the required prior call of monitor
    key ``keys[i]`` (dependency id, token) has happened on every path to
    the node; every other key is NotCompleted.  All states of one
    fixpoint share the ``keys`` list.  Unreachable appears only on nodes
    the fixpoint never visited, which a well-formed CFG does not have.
    """

    __slots__ = ("reachable", "mask", "keys")

    def __init__(self, reachable: bool, mask: int,
                 keys: Sequence[MonitorKey]):
        self.reachable = reachable
        self.mask = mask
        self.keys = keys

    @property
    def completed(self) -> frozenset[MonitorKey]:
        return frozenset(key for i, key in enumerate(self.keys)
                         if self.mask >> i & 1)

    def completion(self, thad_id: str, token: Optional[str] = None) -> Completion:
        if not self.reachable:
            return Completion.UNREACHABLE
        if (thad_id, token) in self.completed:
            return Completion.COMPLETED
        return Completion.NOT_COMPLETED


class Status(Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class WitnessStep:
    event: CallEvent
    line: int
    node_id: int


@dataclass(frozen=True)
class WitnessTrace:
    """One CFG path projected to its HAL calls, ending at the violating
    call.  The event sequence fails the trace semantics for its thad."""

    steps: tuple[WitnessStep, ...]

    @property
    def events(self) -> tuple[CallEvent, ...]:
        return tuple(s.event for s in self.steps)


@dataclass(frozen=True)
class ThadVerdict:
    thad_id: str
    status: Status
    witness: Optional[WitnessTrace] = None
    reason: Optional[str] = None
    trivial: bool = False
    via_alias: bool = False

    def __post_init__(self) -> None:
        if (self.witness is not None) != (self.status is Status.VIOLATED):
            raise ValueError("witness present iff status is violated")


# ---------------------------------------------------------------------------
# Site table
# ---------------------------------------------------------------------------

def _hal_nodes(model: ProgramModel, thad_set: ThadSet) -> list[CfgNode]:
    """Entry-function call nodes of spec routines; each has a resolved
    event in ``model.events``."""
    spec_names = {r.name for r in thad_set.routines}
    nodes = []
    for node in model.entry_body.cfg.call_nodes():
        if node.callee in spec_names:
            if node.id not in model.events:
                raise ValueError(
                    f"call node {node.id} ({node.callee}) has no resolved event; "
                    "run the preparation passes first"
                )
            nodes.append(node)
    return nodes


def _possibly_matches(pattern, ev: CallEvent) -> bool:
    """Could this event match the constrained pattern at run time, for
    all we know?  Only unresolved discriminators leave that open."""
    return (
        pattern.discriminator_constraint is not None
        and pattern.name == ev.routine
        and ev.discriminator_unknown
    )


class _Row(NamedTuple):
    """What the HAL sites hold for one dependency."""

    has_dependency: bool  # some site matches the dependency pattern
    via_alias: bool  # some site matches a pattern only through an alias
    dependent: list[CfgNode]  # sites matching the dependent pattern
    possible: list[CfgNode]  # other sites that may match it at run time


class _SiteTable(NamedTuple):
    """Every HAL site matched against both patterns of every dependency,
    once per distinct event; everything the decision needs is read from
    here."""

    by_event: dict[CallEvent, list[CfgNode]]  # HAL sites by their event
    bits: dict[MonitorKey, int]  # monitor key -> bit, in bit order
    gen: dict[int, int]  # site node id -> mask of the keys it completes
    rows: dict[str, _Row]  # dependency id -> its sites


def _site_table(model: ProgramModel, thad_set: ThadSet) -> _SiteTable:
    by_event: dict[CallEvent, list[CfgNode]] = {}
    for node in _hal_nodes(model, thad_set):
        by_event.setdefault(model.events[node.id], []).append(node)
    aliases = thad_set.aliases
    bits: dict[MonitorKey, int] = {}
    event_gen = dict.fromkeys(by_event, 0)
    rows: dict[str, _Row] = {}
    for thad in thad_set.thads:
        has_dependency = via_alias = False
        dependent: list[CfgNode] = []
        possible: list[CfgNode] = []
        for ev, nodes in by_event.items():
            if match_event(thad.dependency, ev, aliases):
                has_dependency = True
                via_alias = via_alias or _uses_alias(thad.dependency, ev,
                                                     aliases)
                token = None
                if thad.binding is not None:
                    token = dependency_token(thad, ev)
                if thad.binding is None or token is not None:
                    bit = bits.setdefault((thad.id, token), len(bits))
                    event_gen[ev] |= 1 << bit
            if match_event(thad.dependent, ev, aliases):
                via_alias = via_alias or _uses_alias(thad.dependent, ev,
                                                     aliases)
                dependent.extend(nodes)
            elif _possibly_matches(thad.dependent, ev):
                possible.extend(nodes)
        dependent.sort(key=attrgetter("id"))
        possible.sort(key=attrgetter("id"))
        rows[thad.id] = _Row(has_dependency, via_alias, dependent, possible)
    gen = {node.id: mask for ev, mask in event_gen.items() if mask
           for node in by_event[ev]}
    return _SiteTable(by_event, bits, gen, rows)


def _uses_alias(pattern: RoutineSpec, ev: CallEvent,
                aliases: Mapping[str, str]) -> bool:
    """Given that ``ev`` matches ``pattern`` under ``aliases``, does it
    match only through an alias rewrite?"""
    return bool(aliases) and not match_event(pattern, ev)


# ---------------------------------------------------------------------------
# Fixpoint
# ---------------------------------------------------------------------------

class _States(dict):
    """Node id -> :class:`MonitorState`, plus the site table the states
    were computed from, so that :func:`check` matches each site once."""

    __slots__ = ("sites",)


def dataflow_fixpoint(
    model: ProgramModel, thad_set: ThadSet
) -> dict[int, MonitorState]:
    """Per-node entry states of the must-completed monitor analysis.

    All monitor keys are decided at once: a state is one ``int`` with a
    bit per key, gen is ``|`` and the merge is ``&``.  The state at a
    node describes the moment before the node acts, so a call's own
    completion is not visible to the assertion evaluated at that same
    call.  The loop converges because states only shrink once reached.
    """
    cfg = model.entry_body.cfg
    sites = _site_table(model, thad_set)
    gen, succ = sites.gen, cfg.succ
    ins: dict[int, int] = {cfg.entry: 0}
    work = deque([cfg.entry])
    while work:
        nid = work.popleft()
        out = ins[nid] | gen.get(nid, 0)
        for edge in succ.get(nid, ()):
            cur = ins.get(edge.dst)
            new = out if cur is None else cur & out
            if new != cur:
                ins[edge.dst] = new
                work.append(edge.dst)

    keys = list(sites.bits)
    states = _States(
        (nid, MonitorState(nid in ins, ins.get(nid, 0), keys))
        for nid in cfg.nodes
    )
    states.sites = sites
    return states


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------

def _free_distances(
    cfg: Cfg, blocked: set[int], targets: list[CfgNode]
) -> tuple[dict[int, int], dict[int, Optional[int]]]:
    """Distance (in edges) from the entry along paths that pass no
    blocked node before their last one, for every target at least, and
    the node each node was first reached from (None for the entry).

    One forward BFS that stops once the last target is reached.  It
    visits a node's successors lowest (line, node id) first, so every
    layer is discovered in path order: the previous-node chain of a node
    is its shortest such path that takes the lowest line, then node id,
    at the first point of divergence."""
    nodes, succ = cfg.nodes, cfg.succ
    dist = {cfg.entry: 0}
    prev: dict[int, Optional[int]] = {cfg.entry: None}
    queue = deque([cfg.entry])
    left = {n.id for n in targets}
    while queue and left:
        nid = queue.popleft()
        if nid in blocked:
            continue
        step = dist[nid] + 1
        edges = succ.get(nid, ())
        if len(edges) > 1:  # a branch: only here is there an order to keep
            dsts = sorted({e.dst for e in edges},
                          key=lambda n: (nodes[n].line, n))
        else:
            dsts = [e.dst for e in edges]
        for dst in dsts:
            if dst not in dist:
                dist[dst] = step
                prev[dst] = nid
                left.discard(dst)
                queue.append(dst)
    return dist, prev


def find_witness(model: ProgramModel, prev: Mapping[int, Optional[int]],
                 offending_node: int) -> WitnessTrace:
    """The witness for an offender: its previous-node chain from
    :func:`_free_distances`, which is the shortest entry-to-offender
    path with no dependency completion that takes the lowest source line
    (then lowest node id) at the first point of divergence.  The
    projection keeps HAL call events only, so the witness ends with the
    offending call itself.
    """
    path = []
    node: Optional[int] = offending_node
    while node is not None:
        path.append(node)
        node = prev[node]
    nodes, events = model.entry_body.cfg.nodes, model.events
    return WitnessTrace(tuple(
        WitnessStep(events[n], nodes[n].line, n)
        for n in reversed(path) if n in events
    ))


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

def check(model: ProgramModel, thad_set: ThadSet) -> list[ThadVerdict]:
    """Verdict for every dependency in the set, sorted by id.

    Requires a prepared model (inlined, arguments resolved, tokens
    threaded); see the module docstring for the exact semantics of the
    three verdicts and the relevance rules.
    """
    states = dataflow_fixpoint(model, thad_set)
    verdicts = [_check_one(model, thad_set, thad, states)
                for thad in thad_set.thads]
    verdicts.sort(key=lambda v: natural_key(v.thad_id))
    return verdicts


def _check_one(
    model: ProgramModel,
    thad_set: ThadSet,
    thad: Thad,
    states: _States,
) -> ThadVerdict:
    sites = states.sites
    row = sites.rows[thad.id]

    if not row.dependent and not row.possible:
        # A trivial verdict rests on the dependent never occurring, not
        # on any alias rewrite, so the flag stays off.
        return ThadVerdict(thad.id, Status.SATISFIED, trivial=True)

    if thad.dependency.name == thad.dependent.name and not row.has_dependency:
        if any(_possibly_matches(thad.dependency, ev)
               for ev in sites.by_event):
            return ThadVerdict(
                thad.id, Status.INCONCLUSIVE,
                reason=f"unresolved discriminator: a call of "
                       f"{thad.dependency.name} may or may not be "
                       f"{thad.dependency.describe()}",
                via_alias=row.via_alias,
            )
        return ThadVerdict(thad.id, Status.SATISFIED, trivial=True)

    offenders: dict[MonitorKey, list[CfgNode]] = {}
    inconclusive: list[str] = []
    for i, node in enumerate(row.dependent + row.possible):
        ev = model.events[node.id]
        if thad.binding is not None and ev.descriptor_token is None:
            inconclusive.append(
                f"unresolved descriptor: the {ev.routine} call at line "
                f"{node.line} has no single statically-known descriptor"
            )
            continue
        key = (thad.id,
               None if thad.binding is None else ev.descriptor_token)
        bit = sites.bits.get(key)
        if bit is not None and states[node.id].mask >> bit & 1:
            continue
        if i < len(row.dependent):
            offenders.setdefault(key, []).append(node)
        else:
            inconclusive.append(
                f"unresolved discriminator: the {ev.routine} call at line "
                f"{node.line} may match {thad.dependent.describe()} before "
                f"{thad.dependency.describe()} completed"
            )

    if offenders:
        cfg = model.entry_body.cfg
        ranked = []  # (witness length, line, node id) of each offender
        chains = {}  # offender node id -> its key's previous-node map
        for key, nodes in offenders.items():
            bit = sites.bits.get(key)
            completers = set() if bit is None else {
                nid for nid, mask in sites.gen.items() if mask >> bit & 1
            }
            dist, prev = _free_distances(cfg, completers, nodes)
            for node in nodes:
                assert node.id in dist, "must-analysis promised a free path"
                ranked.append((dist[node.id], node.line, node.id))
                chains[node.id] = prev
        offender = min(ranked)[2]
        witness = find_witness(model, chains[offender], offender)
        return ThadVerdict(thad.id, Status.VIOLATED, witness=witness,
                           via_alias=row.via_alias)
    if inconclusive:
        return ThadVerdict(thad.id, Status.INCONCLUSIVE,
                           reason=inconclusive[0], via_alias=row.via_alias)
    return ThadVerdict(thad.id, Status.SATISFIED, via_alias=row.via_alias)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def brute_force_paths(
    model: ProgramModel, thad_set: ThadSet, path_bound: int = 1_000_000
) -> dict[str, bool]:
    """Exhaustive ground truth on loop-free models: for each dependency,
    do all entry-to-exit path traces satisfy it?

    Applies the same same-routine relevance rule as :func:`check` (a
    dependency pattern no call resolves to obligates nothing), then
    evaluates the reference trace semantics on each distinct trace of
    the enumerated paths, so memory grows with the traces, not the
    paths.  Raises ValueError on cyclic graphs (unroll loops first) and
    :class:`~thadc.cfg.PathExplosion` past ``path_bound`` paths.
    """
    cfg = model.entry_body.cfg
    if has_loops(cfg):
        raise ValueError("the model has loops; unroll before enumerating paths")
    events_by_node = {n.id: model.events[n.id]
                      for n in _hal_nodes(model, thad_set)}
    all_events = list(events_by_node.values())
    aliases = thad_set.aliases

    traces = {  # distinct ones only: paths can outnumber them by far
        tuple(events_by_node[n] for n in path if n in events_by_node)
        for path in enumerate_paths(cfg, path_bound)
    }

    result: dict[str, bool] = {}
    for thad in thad_set.thads:
        if thad.dependency.name == thad.dependent.name and not any(
            match_event(thad.dependency, ev, aliases) for ev in all_events
        ):
            result[thad.id] = True
            continue
        result[thad.id] = all(
            trace_satisfies(thad, trace, aliases) for trace in traces
        )
    return result
