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
   pass through the key's completers gives the distance of its nearest
   offenders and the node each node was first reached from.  It stops
   once the layer of the first offender it meets is complete, since no
   farther offender can be the nearest.  It visits a node's successors
   lowest (line, node id) first, so those previous-node chains are the
   lexicographically lowest shortest completion-free paths.  The
   nearest offender over all keys (then lowest line, then node id) is
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

from collections import Counter, deque
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from operator import and_, attrgetter
from typing import Mapping, NamedTuple, Optional, Sequence

from .cfg import Cfg, CfgNode, ProgramModel, must_forward
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
    "MonitorState",
    "Status",
    "WitnessStep",
    "WitnessTrace",
    "ThadVerdict",
    "dataflow_fixpoint",
    "check",
    "find_witness",
    "PathExplosion",
    "hal_traces",
    "brute_force_paths",
]

MonitorKey = tuple[str, Optional[str]]  # (thad id, token or None for unbound)


class MonitorState:
    """Must-completed facts entering a CFG node.

    Bit ``i`` of ``mask`` is set when the required prior call of monitor
    key ``keys[i]`` (dependency id, token) has happened on every path to
    the node.  All states of one fixpoint share the ``keys`` list, and
    nodes with the same mask share one state.
    """

    __slots__ = ("mask", "keys")

    def __init__(self, mask: int, keys: Sequence[MonitorKey]):
        self.mask = mask
        self.keys = keys

    @property
    def completed(self) -> frozenset[MonitorKey]:
        return frozenset(key for i, key in enumerate(self.keys)
                         if self.mask >> i & 1)


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
    """Entry-function call nodes of spec routines, in node id order,
    read off the prepared model's ``events`` table.  The model must have
    been prepared for every routine the spec declares, or calls of the
    others would have no event."""
    names = {r.name for r in thad_set.routines}
    missing = names - model.resolved
    if missing:
        raise ValueError(
            f"calls of {', '.join(sorted(missing))} have no resolved "
            "events; run the preparation passes first"
        )
    nodes = model.entry_body.cfg.nodes
    return [nodes[nid] for nid, ev in model.events.items()
            if ev.routine in names]


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
    once per event object; everything the decision needs is read from
    here."""

    by_event: list[tuple[CallEvent, list[CfgNode]]]  # sites by event object
    bits: dict[MonitorKey, int]  # monitor key -> bit, in bit order
    gen: dict[int, int]  # site node id -> mask of the keys it completes
    rows: dict[str, _Row]  # dependency id -> its sites


def _site_table(model: ProgramModel, thad_set: ThadSet) -> _SiteTable:
    # Sites are grouped by their event object, in first-site order:
    # ``preprocess`` shares one object among equal events, and equal
    # objects in two groups change nothing but the work.
    groups: dict[int, tuple[CallEvent, list[CfgNode]]] = {}
    events = model.events
    for node in _hal_nodes(model, thad_set):
        ev = events[node.id]
        group = groups.get(id(ev))
        if group is None:
            group = groups[id(ev)] = ev, []
        group[1].append(node)
    by_event = list(groups.values())
    aliases = thad_set.aliases
    bits: dict[MonitorKey, int] = {}
    event_gen = [0] * len(by_event)
    rows: dict[str, _Row] = {}
    for thad in thad_set.thads:
        has_dependency = via_alias = False
        dependent: list[CfgNode] = []
        possible: list[CfgNode] = []
        for g, (ev, nodes) in enumerate(by_event):
            if match_event(thad.dependency, ev, aliases):
                has_dependency = True
                via_alias = via_alias or _uses_alias(thad.dependency, ev,
                                                     aliases)
                token = None
                if thad.binding is not None:
                    token = dependency_token(thad, ev)
                if thad.binding is None or token is not None:
                    bit = bits.setdefault((thad.id, token), len(bits))
                    event_gen[g] |= 1 << bit
            if match_event(thad.dependent, ev, aliases):
                via_alias = via_alias or _uses_alias(thad.dependent, ev,
                                                     aliases)
                dependent.extend(nodes)
            elif _possibly_matches(thad.dependent, ev):
                possible.extend(nodes)
        dependent.sort(key=attrgetter("id"))
        possible.sort(key=attrgetter("id"))
        rows[thad.id] = _Row(has_dependency, via_alias, dependent, possible)
    gen = {node.id: mask for (_, nodes), mask in zip(by_event, event_gen)
           if mask for node in nodes}
    return _SiteTable(by_event, bits, gen, rows)


def _uses_alias(pattern: RoutineSpec, ev: CallEvent,
                aliases: Mapping[str, str]) -> bool:
    """Given that ``ev`` matches ``pattern`` under ``aliases``, does it
    match only through an alias rewrite?"""
    return bool(aliases) and not match_event(pattern, ev)


# ---------------------------------------------------------------------------
# Fixpoint
# ---------------------------------------------------------------------------

def dataflow_fixpoint(
    model: ProgramModel, thad_set: ThadSet,
    sites: Optional[_SiteTable] = None,
) -> dict[int, MonitorState]:
    """Entry state of every node of the must-completed monitor analysis,
    for every node reached from the entry: node id -> state.

    All monitor keys are decided at once on :func:`~thadc.cfg.must_forward`:
    a state is one ``int`` with a bit per key, gen is ``|`` and the merge
    is ``&``.  The state at a node describes the moment before the node
    acts, so a call's own completion is not visible to the assertion
    evaluated at that same call.  ``sites`` is the model's site table
    for ``thad_set``, built here when not given; :func:`check` builds it
    once for the fixpoint and the verdicts.  The result is
    :func:`~thadc.cfg.must_forward`'s own table, not a copy.
    """
    if sites is None:
        sites = _site_table(model, thad_set)
    gen = sites.gen
    keys = list(sites.bits)
    shared: dict[int, MonitorState] = {}  # one state per distinct mask

    def state(node: CfgNode, mask: int) -> MonitorState:
        found = shared.get(mask)
        if found is None:
            found = shared[mask] = MonitorState(mask, keys)
        return found

    return must_forward(model.entry_body.cfg, 0,
                        lambda node, mask: mask | gen.get(node.id, 0), and_,
                        state)


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------

def _free_distances(
    cfg: Cfg, blocked: set[int], targets: list[CfgNode],
    order: dict[int, list[int]],
) -> tuple[dict[int, int], dict[int, Optional[int]]]:
    """Distance (in edges) from the entry along paths that pass no
    blocked node before their last one, for every node up to the nearest
    target's distance, and the node each node was first reached from
    (None for the entry).  Targets farther away may be missing.

    One forward BFS, which stops once every node at the nearest target's
    distance has been discovered.  It visits a node's successors lowest
    (line, node id) first, so every layer is discovered in path order:
    the previous-node chain of a node is its shortest such path that
    takes the lowest line, then node id, at the first point of
    divergence.  ``order`` memoizes each expanded branch's successors
    in that order; it depends only on the CFG."""
    nodes, succ = cfg.nodes, cfg.succ
    dist = {cfg.entry: 0}
    prev: dict[int, Optional[int]] = {cfg.entry: None}
    queue = deque([cfg.entry])
    wanted = {n.id for n in targets}
    nearest = None  # the distance of the first target discovered
    while queue:
        nid = queue.popleft()
        if dist[nid] == nearest:
            break  # the nearest target's layer is complete
        if nid in blocked:
            continue
        step = dist[nid] + 1
        dsts = succ[nid]
        if len(dsts) > 1:  # a branch: only here is there an order to keep
            ordered = order.get(nid)
            if ordered is None:
                ordered = order[nid] = sorted(
                    set(dsts), key=lambda n: (nodes[n].line, n))
            dsts = ordered
        for dst in dsts:
            if dst not in dist:
                dist[dst] = step
                prev[dst] = nid
                queue.append(dst)
                if nearest is None and dst in wanted:
                    nearest = step
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
    sites = _site_table(model, thad_set)
    states = dataflow_fixpoint(model, thad_set, sites)
    order: dict[int, list[int]] = {}  # see _free_distances
    verdicts = [_check_one(model, thad, sites, states, order)
                for thad in thad_set.thads]
    verdicts.sort(key=lambda v: natural_key(v.thad_id))
    return verdicts


def _check_one(
    model: ProgramModel,
    thad: Thad,
    sites: _SiteTable,
    states: Mapping[int, MonitorState],
    order: dict[int, list[int]],
) -> ThadVerdict:
    row = sites.rows[thad.id]

    if not row.dependent and not row.possible:
        # A trivial verdict rests on the dependent never occurring, not
        # on any alias rewrite, so the flag stays off.
        return ThadVerdict(thad.id, Status.SATISFIED, trivial=True)

    if thad.dependency.name == thad.dependent.name and not row.has_dependency:
        if any(_possibly_matches(thad.dependency, ev)
               for ev, _ in sites.by_event):
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
            dist, prev = _free_distances(cfg, completers, nodes, order)
            reached = [node for node in nodes if node.id in dist]
            assert reached, "must-analysis promised a free path"
            for node in reached:
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

class PathExplosion(Exception):
    """More distinct HAL traces than the caller was willing to list."""

    def __init__(self, bound: int):
        self.bound = bound
        super().__init__(f"more than {bound} distinct HAL traces")


def hal_traces(model: ProgramModel, bound: int = 1_000_000
               ) -> set[tuple[CallEvent, ...]]:
    """The distinct HAL traces of a prepared loop-free model: each
    entry-to-exit path projected onto the events of its HAL calls.

    One pass, without recursion, over the graph instead of its paths
    (the reverse-topological dynamic programming of Ball and Larus,
    "Efficient Path Profiling", MICRO 1996).  A depth-first walk from
    the entry finishes each node after its successors; a node reached
    again while still on the depth-first stack closes a cycle, and
    raises ValueError.  A finishing node gets the set of trace suffixes
    from it to the exit: the union of its successors' sets, shared with
    the successor when there is only one, with the node's own event put
    in front.  No set is changed once built, and each is dropped once
    every predecessor has read it.

    Raises :class:`PathExplosion` as soon as any node has more than
    ``bound`` suffixes.  Every node is reached by some prefix, and one
    prefix in front of distinct suffixes gives distinct traces, so the
    program then has more than ``bound`` traces.
    """
    cfg, events = model.entry_body.cfg, model.events
    succ, exit_id = cfg.succ, cfg.exit
    readers = Counter(chain.from_iterable(succ))
    # A node's set exists from when it finishes until its last reader
    # finishes, and no edge into it is followed after that.
    suffixes: dict[int, set[tuple[CallEvent, ...]]] = {}
    on_stack = {cfg.entry}
    stack = [(cfg.entry, iter(succ[cfg.entry]))]
    while stack:
        nid, pending = stack[-1]
        for dst in pending:
            if dst in on_stack:
                raise ValueError("cannot list the traces of a cyclic graph; "
                                 "unroll its loops first")
            if dst not in suffixes:
                on_stack.add(dst)
                stack.append((dst, iter(succ[dst])))
                break
        else:  # every successor is finished: nid finishes
            stack.pop()
            on_stack.remove(nid)
            dsts = succ[nid]
            if nid == exit_id:
                out = {()}
            elif len(dsts) == 1:
                out = suffixes[dsts[0]]
            else:
                out = set().union(*(suffixes[dst] for dst in dsts))
            if len(out) > bound:
                raise PathExplosion(bound)
            event = events.get(nid)
            if event is not None:
                out = {(event,) + suffix for suffix in out}
            suffixes[nid] = out
            for dst in dsts:
                readers[dst] -= 1
                if not readers[dst]:
                    del suffixes[dst]
    return suffixes[cfg.entry]


def brute_force_paths(
    model: ProgramModel, thad_set: ThadSet, bound: int = 1_000_000
) -> dict[str, bool]:
    """Exhaustive ground truth on loop-free models: for each dependency,
    do all entry-to-exit path traces satisfy it?

    Applies the same same-routine relevance rule as :func:`check` (a
    dependency pattern no call resolves to obligates nothing), then
    checks each of :func:`hal_traces` against the reference semantics.
    """
    all_events = [model.events[n.id] for n in _hal_nodes(model, thad_set)]
    aliases = thad_set.aliases
    traces = hal_traces(model, bound)

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
