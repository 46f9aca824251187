"""Static checker: monitor dataflow, verdicts, witnesses, path oracle."""

from __future__ import annotations

import dataclasses
import gc
import random
import tracemalloc
from collections import Counter, deque
from operator import and_
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (NESTED_LOOPS, AssignmentIndex, assert_same_entry,
                     benchmark_generator, bound_spidev_set, dense_must_forward,
                     every_key, flat_preprocess, must_values, parse_program,
                     prepared, reference_splice_entry, spidev_set)
from randprog import generate_program
from thadc import checker, cli, passes
from thadc.cfg import (
    Cfg,
    CfgNode,
    NodeKind,
    ProgramModel,
    build_model,
    hal_sites,
    must_forward,
)
from thadc.checker import (
    Status,
    ThadVerdict,
    WitnessTrace,
    brute_force_paths,
    check,
    dataflow_fixpoint,
    hal_traces,
)
from thadc.minic import parse_source
from thadc.specio import bundled_data_path, load_spec
from thadc.model import (
    BindingSource,
    DescriptorBinding,
    Param,
    ParamRole,
    RoutineSpec,
    Thad,
    ThadSet,
    trace_satisfies,
)

SPIDEV = spidev_set()


def verdicts(source: str, thad_set: ThadSet = SPIDEV) -> dict[str, ThadVerdict]:
    return {v.thad_id: v for v in check(prepared(source, thad_set), thad_set)}


def call_node(model, routine: str, nth: int = 0):
    matches = [
        n for n in model.entry_body.cfg.call_nodes() if n.callee == routine
    ]
    return matches[nth]


def event_names(witness: WitnessTrace) -> list[str]:
    return [e.describe() for e in witness.events]


def config_read_set() -> ThadSet:
    """read(fd) requires a prior ioctl[CFG] on the same descriptor."""
    opaque = ParamRole.OPAQUE
    open_r = RoutineSpec("open", (Param("path", opaque),),
                         returns_descriptor=True)
    read_r = RoutineSpec(
        "read", (Param("fd", ParamRole.DESCRIPTOR), Param("buf", opaque))
    )
    ioctl_r = RoutineSpec(
        "ioctl",
        (Param("fd", ParamRole.DESCRIPTOR),
         Param("request", ParamRole.DISCRIMINATOR)),
    )
    thads = (
        Thad(
            "g1",
            dependency=open_r,
            dependent=read_r,
            binding=DescriptorBinding(BindingSource.RETURN_VALUE, "fd"),
        ),
        Thad(
            "g2",
            dependency=ioctl_r.with_constraint("CFG"),
            dependent=read_r,
            binding=DescriptorBinding(BindingSource.PARAM, "fd"),
        ),
    )
    return ThadSet(
        routines=(open_r, read_r, ioctl_r),
        thads=thads,
        constants={"CFG": 7},
    )


STRAIGHT_OK = """
int main(void) {
    int fd = open("/dev/spidev0.0", 0);
    ioctl(fd, WR_MODE32, 0);
    ioctl(fd, WR_LSB_FIRST, 0);
    ioctl(fd, WR_BITS_PER_WORD, 0);
    ioctl(fd, WR_MAX_SPEED_HZ, 0);
    read(fd, 0, 16);
    close(fd);
    return 0;
}
"""

DIAMOND_OPEN = """
int main(int c) {
    int fd = 0;
    if (c) {
        fd = open("/dev/spidev0.0", 0);
    }
    read(fd, 0, 16);
    return 0;
}
"""


class TestMustForward:
    """The one worklist every must-analysis runs on, on a hand-built CFG:

    0 entry -> 1 branch -> 2 gen 0b011 | 3 gen 0b001 -> 4 join
    -> 5 branch -> 6 gen 0b100 -> back to 4 | 7 exit; 8 -> 7 unreached.
    """

    GEN = {2: 0b011, 3: 0b001, 6: 0b100}

    def cfg(self) -> Cfg:
        kinds = [NodeKind.ENTRY, NodeKind.BRANCH, NodeKind.CALL,
                 NodeKind.CALL, NodeKind.JOIN, NodeKind.BRANCH,
                 NodeKind.CALL, NodeKind.EXIT, NodeKind.JOIN]
        succ = [(1,), (2, 3), (4,), (4,), (5,), (6, 7), (4,), (), (7,)]
        return Cfg([CfgNode(n, k) for n, k in enumerate(kinds)], succ, 0, 7)

    def transfer(self, node: CfgNode, mask: int) -> int:
        return mask | self.GEN.get(node.id, 0)

    def states(self) -> dict[int, int]:
        return must_forward(self.cfg(), 0, self.transfer, and_,
                            lambda node, mask: mask)

    def test_join_meets_the_masks(self):
        assert self.states()[4] == 0b011 & 0b001

    def test_back_edge_converges(self):
        states = self.states()
        assert states[6] == 0b001  # the loop's gen does not reach back
        assert states[7] == 0b001

    def test_unreached_node_has_no_state(self):
        states = self.states()
        assert 8 not in states
        assert set(states) == set(range(8))

    def test_node_that_writes_nothing_passes_its_state_on(self):
        states = self.states()
        assert states[5] == states[4]
        assert states[1] == states[0] == 0


def merge_points(cfg: Cfg) -> set[int]:
    """The entry, and every node with more than one in-edge."""
    indegree = Counter(dst for dsts in cfg.succ for dst in dsts)
    return {cfg.entry} | {nid for nid, n in indegree.items() if n > 1}


def into_merges(cfg: Cfg) -> set[int]:
    """The nodes with an out-edge into a merge point."""
    merges = merge_points(cfg)
    return {src for src, dsts in enumerate(cfg.succ)
            if merges.intersection(dsts)}


def met_states(engine, cfg: Cfg, start, transfer, meet):
    """What ``engine`` (``must_forward`` or a stand-in with its
    signature) reads at every reached node, namely the state itself,
    and the nodes whose out-states it ever met.  Each state carries the
    ids of the nodes whose transfers made it, so a meet tells whose
    states it merged: an engine that keeps states only at merge points
    meets only states sent along an edge into one."""
    met: set[int] = set()

    def tagged_transfer(node, state):
        return frozenset((node.id,)), transfer(node, state[1])

    def tagged_meet(cur, out):
        met.update(cur[0], out[0])
        return cur[0] | out[0], meet(cur[1], out[1])

    found = engine(cfg, (frozenset(), start), tagged_transfer, tagged_meet,
                   lambda node, state: state[1])
    return found, met


def dense_engine(cfg, start, transfer, meet, read):
    """``must_forward``'s contract on ``helpers.dense_must_forward``."""
    states = dense_must_forward(cfg, start, transfer, meet)
    found = {nid: read(cfg.nodes[nid], state)
             for nid, state in states.items()}
    return {nid: value for nid, value in found.items() if value is not None}


def looping_draws() -> list[str]:
    return [generate_program(seed, helpers=True, allow_loops=True)
            for seed in range(150, 230)]


ORDER_SENSITIVE = """
int main(void) {
    int fd = open("/dev/spidev0.0", 2);
    if (c) {
        if (d) { x = 1; } else { x = 2; }
        fd = open("/dev/spidev0.1", 2);
    }
    read(fd, 0, 1);
    close(fd);
    return 0;
}
"""


class TestSparseMustForward:
    """``must_forward`` keeps states only at the entry and at merge
    points, yet reads what the dense reference keeps at every node."""

    def test_hand_built_graph_matches_the_dense_reference(self):
        graph = TestMustForward()
        cfg = graph.cfg()
        states, met = met_states(must_forward, cfg, 0, graph.transfer, and_)
        assert states == dense_must_forward(cfg, 0, graph.transfer, and_)
        assert set(cfg.merges) == merge_points(cfg) - {0} == {4, 7}
        assert {2, 3, 6} <= met <= into_merges(cfg)

    def test_a_chain_walked_again_drops_what_it_read_before(self):
        # 0 entry -> 1 loop header -> 2 clears the mask -> 3 branch
        # -> back to 1 | 4 exit.  The header is first walked with the
        # entry's mask, then again once the back edge has cleared it.
        kinds = [NodeKind.ENTRY, NodeKind.JOIN, NodeKind.ASSIGN,
                 NodeKind.BRANCH, NodeKind.EXIT]
        succ = [(1,), (2,), (3,), (1, 4), ()]
        cfg = Cfg([CfgNode(n, k) for n, k in enumerate(kinds)], succ, 0, 4)

        def transfer(node, mask):
            return 0 if node.id == 2 else mask

        walked = []
        found = must_forward(cfg, 0b1, transfer, and_,
                             lambda node, mask: walked.append(node.id)
                             or mask or None)
        assert walked.count(1) == 2
        assert found == {0: 0b1}
        dense = dense_must_forward(cfg, 0b1, transfer, and_)
        assert found == {nid: mask for nid, mask in dense.items() if mask}

    def test_looping_draws_match_the_dense_reference(self):
        looped = dense_meets_elsewhere = 0
        for source in looping_draws():
            model = prepared(source)
            cfg = model.entry_body.cfg
            looped += any(dst <= src for src, dsts in enumerate(cfg.succ)
                          for dst in dsts)
            gen = checker._site_table(model, SPIDEV).gen

            def transfer(node, mask):
                return mask | gen.get(node.id, 0)

            states, met = met_states(must_forward, cfg, 0, transfer, and_)
            assert states == dense_must_forward(cfg, 0, transfer, and_)
            assert met <= into_merges(cfg)
            _, dense_met = met_states(dense_engine, cfg, 0, transfer, and_)
            dense_meets_elsewhere += not dense_met <= into_merges(cfg)
            assert {nid: state.mask for nid, state
                    in dataflow_fixpoint(model, SPIDEV).items()} == states
        assert looped >= 40
        assert dense_meets_elsewhere  # the merge check can fail

    def test_a_loop_free_graph_is_walked_once(self):
        # In ORDER_SENSITIVE the else arm reaches the outer merge first,
        # and the then arm then changes what ``fd`` holds there: a merge
        # walked before all its in-edges delivered would walk the rest of
        # the program twice.
        sources = [ORDER_SENSITIVE] + [generate_program(seed, helpers=True)
                                       for seed in range(40)]
        for source in sources:
            body = passes.inline_calls(parse_program(source)).entry_body
            reads = Counter()

            def read(node, env):
                reads[node.id] += 1

            must_values(body, AssignmentIndex(body),
                        lambda node, env: node.id, every_key(body), read)
            assert reads == dict.fromkeys(range(len(body.cfg.nodes)), 1), \
                source

    def test_resolution_on_looping_draws_matches_the_dense_reference(
            self, monkeypatch):
        for source in looping_draws():
            flat = passes.inline_calls(parse_program(source))
            for thad_set in (SPIDEV, bound_spidev_set()):
                sparse = passes.preprocess(flat, thad_set)
                with monkeypatch.context() as patch:
                    patch.setattr(passes, "must_forward", dense_engine)
                    patch.setattr(checker, "must_forward", dense_engine)
                    dense = passes.preprocess(flat, thad_set)
                    dense_verdicts = check(dense, thad_set)
                assert sparse.events == dense.events
                assert check(sparse, thad_set) == dense_verdicts


class TestHalSites:
    def test_spec_calls_in_node_order(self):
        model = parse_program("""
        int helper(int x) { return x; }
        int main(void) {
            int fd = open("/d", 0);
            printf("x");
            helper(fd);
            read(fd, 0, 4);
            ioctl(fd, WR_MODE32, 0);
            return 0;
        }
        """, "<test>")
        sites = hal_sites(model.entry_body, SPIDEV)
        assert [node.callee for node, _ in sites] == ["open", "read", "ioctl"]
        ids = [node.id for node, _ in sites]
        assert ids == sorted(ids)
        assert all(routine == SPIDEV.routine(node.callee)
                   for node, routine in sites)


def environments(body, value, relevant):
    """``helpers.must_values`` read densely: every reached node's entry
    environment."""
    return must_values(body, AssignmentIndex(body), value, relevant,
                       lambda node, env: env)


TWO_COPIES = """
int send(int fd, int req) {
    int r = req;
    ioctl(fd, r, 0);
    return r;
}
int main(void) {
    int fd = open("/dev/spidev0.0", 2);
    int a = send(fd, WR_MODE32);
    int b = send(fd, a);
    ioctl(fd, b, 0);
    close(fd);
    return 0;
}
"""


# ``poll`` loops over a read of ``mode``, which it does not own: each
# inlined copy reads the ``mode`` of its nearest caller that owns one.
CALLER_VARIABLE_LOOP = """
int poll(int fd) {
    int n = 0;
    while (n < limit) {
        ioctl(fd, mode, 0);
        n = n + 1;
    }
    return n;
}
int configure(int fd) {
    int mode = WR_MODE32;
    poll(fd);
    mode = WR_LSB_FIRST;
    return poll(fd);
}
int main(void) {
    int fd = open("/dev/spidev0.0", 2);
    int mode = RD_MODE;
    poll(fd);
    int n = configure(fd);
    ioctl(fd, mode, 0);
    read(fd, 0, n);
    close(fd);
    return 0;
}
"""


def chain_source(n: int) -> str:
    """``main`` opens, reads ``f1(0)`` bytes and closes; each ``fK``
    returns ``fK+1(x + 1)`` down to ``fn``, which returns ``x``."""
    functions = [f"int f{n}(int x) {{ return x; }}"]
    functions += [f"int f{k}(int x) {{ return f{k + 1}(x + 1); }}"
                  for k in range(n - 1, 0, -1)]
    return "\n".join(functions) + """
    int main(void) {
        int fd = open("/dev/spidev0.0", 2);
        int n = f1(0);
        read(fd, 0, n);
        close(fd);
        return 0;
    }
    """


class TestMustValues:
    """The flat reference's environment engine (``helpers.must_values``):
    only relevant variables are tracked, and an inlined copy's names end
    at its tail.  The resolution passes must give what it gives."""

    def test_write_outside_the_slice_keeps_the_environment(self):
        body = parse_program("""
        int main(void) {
            int a = 1;
            int b = 2;
            int c = 3;
            return 0;
        }
        """).entry_body
        cfg = body.cfg
        b = next(n.id for n in cfg.nodes if n.var == "b")
        after = cfg.succ[b][0]
        sliced = environments(body, lambda node, env: 1, {"a", "c"})
        assert sliced[after] is sliced[b]
        assert sliced[after] == {"a": 1}
        full = environments(body, lambda node, env: 1, {"a", "b"})
        assert full[after] is not full[b]
        assert full[after] == {"a": 1, "b": 1}

    def test_names_of_a_copy_end_at_its_tail(self):
        body = passes.inline_calls(parse_program(TWO_COPIES)).entry_body
        cfg = body.cfg
        assert [row.function.name for row in body.copies] == [
            "main", "send", "send"]
        # every write gets a known value, so only an end removes a name
        ins = environments(body, lambda node, env: node.id, every_key(body))
        for c, row in enumerate(body.copies[1:], 1):
            ended = {k for env in ins.values() for k in env
                     if isinstance(k, tuple) and k[0] == c}
            assert {name for _, name in ended} == {
                "fd", "req", "r", "__ret_send"}
            tail = row.tail
            assert ins[tail].keys() & ended  # live up to the tail
            after = cfg.succ[tail]
            downstream = [nid for nid in range(len(cfg.nodes))
                          if any(_reaches(cfg, a, nid) for a in after)]
            assert downstream
            for nid in downstream:
                assert not ins[nid].keys() & ended, nid

    def test_values_flow_out_of_a_copy_through_its_tail(self):
        model = prepared(TWO_COPIES)
        ioctls = [model.events[node.id] for node in
                  model.entry_body.cfg.call_nodes() if node.callee == "ioctl"]
        assert len(ioctls) == 3
        assert ioctls[0].discriminator_value is not None
        assert {e.discriminator_value for e in ioctls} == {
            ioctls[0].discriminator_value}
        assert {e.descriptor_token for e in ioctls} == {"t1"}

    def test_chain_resolution_peak_stays_small(self):
        model = passes.inline_calls(parse_program(chain_source(1000)), 2000)
        assert len(model.entry_body.cfg.nodes) > 2000
        for run, needs in ((passes.resolve_discriminators, (SPIDEV,)),
                           (passes.build_token_flow, ())):
            tracemalloc.start()
            try:
                run(model, *needs, passes.EntrySites(model, SPIDEV))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 10 * 2**20, (run.__name__, peak)

    def test_resolution_peaks_on_the_reduced_diamond(self):
        # With an environment kept per node and a dict per site, the two
        # passes peaked at about 100 KB and 55 KB here.  tracemalloc counts
        # only the tuples, lists and dicts the interpreter's free lists do
        # not supply, and a full collection empties those lists: one just
        # before this test, which some full test runs have, made the first
        # pass read 55 KB instead of 41 KB.  So each pass first runs on a
        # copy of its own after a full collection; the measured model
        # still builds its own merge counts and entry sites.
        source = (Path(__file__).resolve().parent / "golden"
                  / "diamond-reduced.c").read_text()
        spec = bound_spidev_set()
        for run, needs in ((passes.resolve_discriminators, (spec,)),
                           (passes.build_token_flow, ())):
            model = passes.inline_calls(parse_program(source))
            gc.collect()
            spare = passes.inline_calls(parse_program(source))
            run(spare, *needs, passes.EntrySites(spare, spec))
            del spare
            tracemalloc.start()
            try:
                run(model, *needs, passes.EntrySites(model, spec))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 48 * 2**10, (run.__name__, peak)

    @pytest.mark.parametrize("programs", ["randprog", "wide", "diamond"])
    def test_sliced_runs_equal_the_unsliced_reference(self, programs):
        """The flat reference, sliced and unsliced, and the passes'
        per-context summaries give the same events and verdicts."""
        if programs == "randprog":
            sources = [CALLER_VARIABLE_LOOP, TWO_COPIES, chain_source(3),
                       chain_source(12)] + [
                generate_program(seed, helpers=True, allow_loops=seed >= 150)
                for seed in range(300)]
        else:
            cases = getattr(benchmark_generator(),
                            f"{programs}_cases")
            sources = [case.source for seed in (1, 101)
                       for case in cases(seed)]
        for source in sources:
            model = parse_program(source)
            for thad_set in (SPIDEV, bound_spidev_set()):
                summarised = passes.preprocess(model, thad_set)
                sliced = flat_preprocess(model, thad_set)
                reference = flat_preprocess(model, thad_set, sliced=False)
                assert summarised.events == sliced.events == reference.events
                assert (check(summarised, thad_set)
                        == check(reference, thad_set))

    def test_slices_keep_what_reaches_a_read(self):
        model = passes.inline_calls(parse_program(TWO_COPIES))
        sites = passes.EntrySites(model, SPIDEV)
        functions = sites.functions
        constants = passes._slices(
            functions, passes._Constants(model, SPIDEV, functions))
        tokens = passes._slices(functions, passes._Tokens(functions))
        # send(fd, req): req reaches the ioctl's request through r, fd its
        # descriptor, and r is returned, which tokens follow too.
        assert constants["send"] == ({"__ret_send", "r", "req"}, (1,), ())
        assert tokens["send"] == ({"__ret_send", "r", "req", "fd"}, (0, 1),
                                  ())
        # Free names are kept too, but take no place in a context.
        assert constants["main"] == ({"__ret_main", "a", "b", "WR_MODE32"},
                                     (), ())
        assert tokens["main"] == ({"__ret_main", "a", "fd", "WR_MODE32"},
                                  (), ())

    def test_a_loop_counter_argument_makes_one_context(self, monkeypatch):
        # io-expander calls push_latch(fd, i) once per value of i; i
        # reaches no discriminator or descriptor, so each pass walks
        # push_latch once, and main twice (before and after its callee's
        # summary).
        source = (bundled_data_path("corpus") / "io-expander.c").read_text()
        flat = passes.inline_calls(parse_program(source))
        sites = passes.EntrySites(flat, SPIDEV)
        latch = flat.functions["push_latch"].cfg
        for run, needs in ((passes.resolve_discriminators, (SPIDEV,)),
                           (passes.build_token_flow, ())):
            walked = []
            with monkeypatch.context() as patch:
                patch.setattr(passes, "must_forward",
                              lambda cfg, *rest: walked.append(cfg)
                              or must_forward(cfg, *rest))
                run(flat, *needs, sites)
            assert walked.count(latch) == 1, run.__name__
            assert len(walked) == 3, run.__name__

    def test_a_write_outside_the_pass_slice_keeps_the_environment(
            self, monkeypatch):
        model = parse_program("""
        int main(void) {
            int fd = open("/dev/spidev0.0", 2);
            int req = WR_MODE32;
            int count = 3;
            ioctl(fd, req, count);
            close(fd);
            return 0;
        }
        """)
        kept = {}

        def spy(cfg, start, transfer, meet, read):
            def watched(node, env):
                out = transfer(node, env)
                if node.kind is NodeKind.ASSIGN:
                    kept[node.var] = out is env
                return out
            return must_forward(cfg, start, watched, meet, read)

        monkeypatch.setattr(passes, "must_forward", spy)
        values = passes.resolve_discriminators(
            model, SPIDEV, passes.EntrySites(model, SPIDEV))
        assert kept == {"req": False, "count": True, "__ret_main": False}
        assert sorted(values.values()) == ["WR_MODE32"]

    def test_must_forward_runs_per_context_not_per_copy(self, monkeypatch):
        # Depth 12 has four times the flat nodes of depth 10, and two
        # more functions with two token contexts each.
        gen = benchmark_generator()
        spec = load_spec(gen.BOUND_SPEC.read_text(), None, "bound")
        calls = {}
        for depth in (10, 12):
            source, _ = gen.diamond_program(random.Random(1), depth, 2)
            flat = passes.inline_calls(parse_program(source))
            sites = passes.EntrySites(flat, spec)
            walks = []
            with monkeypatch.context() as patch:
                patch.setattr(passes, "must_forward",
                              lambda *args: walks.append(1)
                              or must_forward(*args))
                passes.resolve_discriminators(flat, spec, sites)
                passes.build_token_flow(flat, sites)
            calls[depth] = len(walks)
        assert calls[10] < 100
        assert 0 < calls[12] - calls[10] <= 16, calls


def full_free_distances(cfg, blocked, targets, order):
    """The reference for ``checker._free_distances``: the same search,
    run until every target is reached rather than stopped at the
    nearest.  Every target must be reached, as the must-analysis
    promises each offender a completion-free path."""
    nodes, succ = cfg.nodes, cfg.succ
    dist = {cfg.entry: 0}
    prev = {cfg.entry: None}
    queue = deque([cfg.entry])
    left = {n.id for n in targets}
    while queue and left:
        nid = queue.popleft()
        if nid in blocked:
            continue
        dsts = succ[nid]
        if len(dsts) > 1:
            dsts = sorted(set(dsts), key=lambda n: (nodes[n].line, n))
        for dst in dsts:
            if dst not in dist:
                dist[dst] = dist[nid] + 1
                prev[dst] = nid
                left.discard(dst)
                queue.append(dst)
    assert not left, "must-analysis promised a free path"
    return dist, prev


class TestInlinedCopies:
    """The flat entry shares its callees' expressions, and the copy
    table says which variable a name means."""

    def test_entry_equals_the_reference_inliner(self):
        golden = Path(__file__).resolve().parent / "golden"
        sources = [path.read_text() for path in
                   sorted(bundled_data_path("corpus").glob("*.c"))]
        sources += [path.read_text()
                    for path in sorted(golden.glob("*-reduced.c"))]
        sources += [TWO_COPIES, CALLER_VARIABLE_LOOP, chain_source(12)]
        sources += [generate_program(seed, helpers=True,
                                     allow_loops=seed % 2 == 1)
                    for seed in range(200)]
        sources += [case.source for seed in (1, 101)
                    for case in benchmark_generator().diamond_cases(seed)]
        inlined = 0
        for source in sources:
            model = parse_program(source)
            flat = passes.inline_calls(model)
            if flat is not model:
                assert_same_entry(flat.entry_body,
                                  reference_splice_entry(model))
                inlined += 1
        assert inlined > 100, inlined

    def test_inlined_nodes_hold_their_callees_expressions(self):
        sources = [TWO_COPIES, CALLER_VARIABLE_LOOP, chain_source(5)] + [
            generate_program(seed, helpers=True, allow_loops=seed % 2 == 1)
            for seed in range(40)]
        shared = 0
        for source in sources:
            model = parse_program(source)
            body = passes.inline_calls(model).entry_body
            if body is model.entry_body:
                continue
            nodes, ends = body.cfg.nodes, {}
            for c, row in enumerate(body.copies[1:], 1):
                ends[row.tail] = c
            for c, row in enumerate(body.copies):
                start = -1 if row.tail is None else row.tail
                own = [node for nid, node in enumerate(nodes)
                       if node.copy == c and nid > start and nid not in ends]
                lowered = [node for node in row.function.cfg.nodes
                           if not (node.kind is NodeKind.CALL
                                   and node.callee in model.functions)
                           and (c == 0 or node.kind not in (
                               NodeKind.ENTRY, NodeKind.EXIT))]
                assert len(own) == len(lowered), (source, c)
                for new, old in zip(own, lowered):
                    assert (new.kind, new.line, new.callee) == (
                        old.kind, old.line, old.callee)
                    assert new.args is old.args and new.expr is old.expr
                    assert new.var is old.var and new.lhs is old.lhs
                    shared += c > 0 and (new.expr is not None
                                         or bool(new.args))
                if c:  # the binds hold the caller's argument objects
                    args = {id(arg) for node in
                            body.copies[row.parent].function.cfg.nodes
                            for arg in node.args}
                    binds = [node for nid, node in enumerate(nodes)
                             if node.copy == c and nid < row.tail]
                    assert all(id(node.expr) in args for node in binds)
        assert shared > 200, shared

    def test_a_looping_helper_reads_its_callers_variable(self):
        model = prepared(CALLER_VARIABLE_LOOP)
        requests = [model.events[node.id].discriminator_value
                    for node in model.entry_body.cfg.call_nodes()
                    if node.callee == "ioctl"]
        assert requests == ["RD_MODE", "WR_MODE32", "WR_LSB_FIRST", "RD_MODE"]

    def test_flat_entry_heap_on_a_depth_8_diamond(self):
        # With each inlined copy's names renamed, this flat entry held
        # 3.0 MB; sharing the callees' expressions brought it to 1.9 MB,
        # and keeping nodes and successors in lists indexed by id to
        # 1.5 MB.  Copying it one node at a time peaked 9 KB above that;
        # stamping it from templates peaks at 1.60 MB, the list of shared
        # ids included.  Templates that copied their callees' node lists
        # instead of referring to them would hold a second set of the
        # callees' records until the end.
        gen = benchmark_generator()
        source, _ = gen.diamond_program(random.Random(1), 8, 3)
        model = parse_program(source)
        gc.collect()
        tracemalloc.start()
        try:
            flat = passes.inline_calls(model)
            peak = tracemalloc.get_traced_memory()[1]
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(flat.entry_body.cfg.nodes) > 7000
        assert held < 1.7 * 2**20, held
        assert peak < 1.75 * 2**20, peak

    def test_check_heap_peak_on_a_depth_8_diamond(self):
        # One whole check of the benchmark's bound spec, after a first
        # one has warmed the process up.  With id-keyed dicts for nodes
        # and successors, an event object per site and a copy of the
        # fixpoint's states, it peaked at 3.2 MB; without them, at 2.6 MB.
        gen = benchmark_generator()
        source, _ = gen.diamond_program(random.Random(1), 8, 3)
        consts = bundled_data_path("spidev-linux.consts")
        spec = load_spec(gen.BOUND_SPEC.read_text(), consts.read_text(),
                         str(gen.BOUND_SPEC), str(consts))
        first, _ = cli.run_check(source, "d8.c", spec, spec_path="bound")
        gc.collect()
        tracemalloc.start()
        try:
            report, _ = cli.run_check(source, "d8.c", spec, spec_path="bound")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report == first
        assert peak < 2.9 * 2**20, peak

    def test_a_large_check_leaves_no_more_cycles_than_a_small_one(self):
        # run_check pauses the cyclic collector, which costs nothing only
        # while a check builds no reference cycles.  A cycle per node or
        # per call would leave thousands more unreachable objects after
        # the diamond than after the corpus program, instead of slowly
        # growing the RSS of a long-lived caller.
        gen = benchmark_generator()
        diamond, _ = gen.diamond_program(random.Random(1), 8, 3)
        consts = bundled_data_path("spidev-linux.consts")
        bound = load_spec(gen.BOUND_SPEC.read_text(), consts.read_text(),
                          str(gen.BOUND_SPEC), str(consts))
        corpus = (bundled_data_path("corpus")
                  / "accelerometer-faulty.c").read_text()
        enabled = gc.isenabled()
        gc.disable()
        try:
            left = []
            for source, spec in ((corpus, SPIDEV), (diamond, bound)):
                gc.collect()
                cli.run_check(source, "t.c", spec, spec_path="spec")
                left.append(gc.collect())
        finally:
            if enabled:
                gc.enable()
        assert left[0] == left[1], left

    def test_equal_events_are_one_object(self):
        gen = benchmark_generator()
        source, _ = gen.diamond_program(random.Random(1), 6, 2)
        events = prepared(source, bound_spidev_set()).events
        distinct = set(events.values())
        assert len(events) > 10 * len(distinct)
        assert len({id(e) for e in events.values()}) == len(distinct)
        sources = [path.read_text() for path in
                   sorted(bundled_data_path("corpus").glob("*.c"))]
        sources += [case.source for family in (gen.wide_cases,
                                               gen.diamond_cases)
                    for case in family(1)]
        sources += [generate_program(seed, helpers=seed % 2 == 0,
                                     allow_loops=seed % 3 == 0)
                    for seed in range(60)]
        for source in sources:
            for thad_set in (SPIDEV, bound_spidev_set()):
                events = prepared(source, thad_set).events.values()
                assert len({id(e) for e in events}) == len(set(events))

    def test_site_table_reads_equal_event_objects_alike(self):
        # Every other site gets an equal event object of its own, so the
        # table's groups split; nothing it decides may change.
        unknown = """
        int main(void) {
            int fd = open("/dev/spidev0.0", 2);
            int r = read(fd, 0, 1);
            ioctl(fd, r, 0);
            ioctl(fd, WR_MODE32, 0);
            ioctl(fd, r, 0);
            read(fd, 0, 1);
            close(fd);
            return 0;
        }
        """
        source, _ = benchmark_generator().diamond_program(
            random.Random(1), 4, 2)
        for source, thad_set in ((unknown, SPIDEV),
                                 (CALLER_VARIABLE_LOOP, SPIDEV),
                                 (TWO_COPIES, bound_spidev_set()),
                                 (source, bound_spidev_set())):
            model = prepared(source, thad_set)
            events = {nid: dataclasses.replace(ev) if i % 2 else ev
                      for i, (nid, ev) in enumerate(model.events.items())}
            split = ProgramModel(model.functions, model.entry, model.program,
                                 model.path, events, model.resolved)
            assert len({id(e) for e in events.values()}) > len(
                set(events.values()))
            one = checker._site_table(model, thad_set)
            two = checker._site_table(split, thad_set)
            assert len(two.by_event) > len(one.by_event)
            assert two.gen == one.gen and two.rows == one.rows
            assert list(two.bits) == list(one.bits)
            assert check(split, thad_set) == check(model, thad_set)


class TestDataflow:
    def test_straight_line_read_sees_open_completed(self):
        model = prepared('int main(void) { int fd = open("/d", 0); read(fd, 0, 4); return 0; }')
        states = dataflow_fixpoint(model, SPIDEV)
        read_node = call_node(model, "read")
        open_node = call_node(model, "open")
        assert ("d1", None) in states[read_node.id].completed
        assert ("d1", None) not in states[open_node.id].completed

    def test_own_completion_not_visible_at_entry(self):
        model = prepared('int main(void) { int fd = open("/d", 0); close(fd); return 0; }')
        states = dataflow_fixpoint(model, SPIDEV)
        assert ("d4", None) not in states[call_node(model, "open").id].completed

    def test_diamond_meet_loses_the_fact(self):
        model = prepared(DIAMOND_OPEN)
        states = dataflow_fixpoint(model, SPIDEV)
        assert ("d1", None) not in states[call_node(model, "read").id].completed

    def test_loop_first_iteration_not_completed(self):
        src = """
        int main(int c) {
            while (c) {
                read(0, 0, 4);
                open("/d", 0);
            }
            return 0;
        }
        """
        model = prepared(src)
        states = dataflow_fixpoint(model, SPIDEV)
        assert ("d1", None) not in states[call_node(model, "read").id].completed

    def test_all_nodes_reachable(self):
        model = prepared(STRAIGHT_OK)
        states = dataflow_fixpoint(model, SPIDEV)
        assert set(states) == set(range(len(model.entry_body.cfg.nodes)))


class TestVerdicts:
    def test_straight_line_all_satisfied(self):
        vs = verdicts(STRAIGHT_OK)
        assert len(vs) == 26
        assert all(v.status is Status.SATISFIED for v in vs.values())
        non_trivial = {i for i, v in vs.items() if not v.trivial}
        assert non_trivial == {
            "d1", "d4", "d8", "d10", "d12", "d14",
            "d15", "d18", "d21", "d24",
        }

    def test_read_alone_violates_d1(self):
        vs = verdicts("int main(void) { read(0, 0, 4); return 0; }")
        assert vs["d1"].status is Status.VIOLATED
        assert event_names(vs["d1"].witness) == ["read"]
        # the four config dependencies on read are violated too
        for tid in ("d15", "d18", "d21", "d24"):
            assert vs[tid].status is Status.VIOLATED

    def test_diamond_open_violates_d1(self):
        vs = verdicts(DIAMOND_OPEN)
        assert vs["d1"].status is Status.VIOLATED
        assert event_names(vs["d1"].witness) == ["read"]

    def test_open_only_everything_trivial(self):
        vs = verdicts('int main(void) { open("/d", 0); return 0; }')
        assert all(v.status is Status.SATISFIED for v in vs.values())
        assert all(v.trivial for v in vs.values())

    def test_empty_main_everything_trivial(self):
        vs = verdicts("int main(void) { return 0; }")
        assert all(
            v.status is Status.SATISFIED and v.trivial for v in vs.values()
        )

    def test_same_routine_rule_without_dependency_call(self):
        src = """
        int main(void) {
            int fd = open("/d", 0);
            ioctl(fd, MSG, 0);
            return 0;
        }
        """
        vs = verdicts(src)
        assert vs["d3"].status is Status.SATISFIED and not vs["d3"].trivial
        # no config-write ioctl anywhere: the MSG-requires-config
        # dependencies impose nothing on this program
        for tid in ("d17", "d20", "d23", "d26"):
            assert vs[tid].status is Status.SATISFIED
            assert vs[tid].trivial

    def test_same_routine_rule_with_dependency_call(self):
        src = """
        int main(void) {
            int fd = open("/d", 0);
            ioctl(fd, MSG, 0);
            ioctl(fd, WR_MODE32, 0);
            return 0;
        }
        """
        vs = verdicts(src)
        assert vs["d17"].status is Status.VIOLATED
        assert event_names(vs["d17"].witness) == ["open", "ioctl[MSG]"]

    def test_unknown_discriminator_possible_dependency_inconclusive(self):
        src = """
        int main(int request) {
            int fd = open("/d", 0);
            ioctl(fd, MSG, 0);
            ioctl(fd, request, 0);
            return 0;
        }
        """
        vs = verdicts(src)
        assert vs["d17"].status is Status.INCONCLUSIVE
        assert "unresolved discriminator" in vs["d17"].reason

    def test_unknown_discriminator_possible_dependent(self):
        src = """
        int main(int request) {
            ioctl(0, request, 0);
            int fd = open("/d", 0);
            ioctl(fd, MSG, 0);
            return 0;
        }
        """
        vs = verdicts(src)
        # the unresolved ioctl may be an ioctl[RD_MODE] before any open
        assert vs["d5"].status is Status.INCONCLUSIVE
        assert "unresolved discriminator" in vs["d5"].reason
        # d3's strict dependent comes after open; the unresolved call
        # could match d3's dependent too, and open had not completed there
        assert vs["d3"].status is Status.INCONCLUSIVE

    def test_unknown_discriminator_after_open_stays_satisfied(self):
        src = """
        int main(int request) {
            int fd = open("/d", 0);
            ioctl(fd, request, 0);
            return 0;
        }
        """
        vs = verdicts(src)
        for tid in ("d5", "d6", "d7", "d8"):
            assert vs[tid].status is Status.SATISFIED
            assert not vs[tid].trivial

    def test_violation_beats_inconclusive(self):
        src = """
        int main(int request) {
            ioctl(0, request, 0);
            ioctl(0, MSG, 0);
            int fd = open("/d", 0);
            return 0;
        }
        """
        vs = verdicts(src)
        assert vs["d3"].status is Status.VIOLATED

    def test_via_alias_flag(self):
        src = """
        int main(void) {
            int fd = open("/d", 0);
            ioctl(fd, 1073834753, 0);
            read(fd, 0, 16);
            return 0;
        }
        """
        vs = verdicts(src)
        # the legacy mode write matches the 32-bit pattern via the alias
        assert vs["d8"].status is Status.SATISFIED and vs["d8"].via_alias
        assert vs["d15"].status is Status.SATISFIED and vs["d15"].via_alias
        # the legacy-pattern dependency itself never matches post-rewrite
        assert vs["d6"].trivial and not vs["d6"].via_alias
        assert not vs["d1"].via_alias

    def test_verdict_ids_sorted_naturally(self):
        out = check(prepared(STRAIGHT_OK), SPIDEV)
        assert [v.thad_id for v in out] == [f"d{i}" for i in range(1, 27)]

    def test_verdict_order_matches_report_order(self):
        read_r = RoutineSpec("read", (Param("fd", ParamRole.DESCRIPTOR),))
        close_r = RoutineSpec("close", (Param("fd", ParamRole.DESCRIPTOR),))
        thad_set = ThadSet(routines=(read_r, close_r), thads=(
            Thad("b2", dependency=read_r, dependent=close_r),
            Thad("a10", dependency=close_r, dependent=read_r),
        ))
        out = check(prepared("int main(void) { return 0; }", thad_set),
                    thad_set)
        assert [v.thad_id for v in out] == ["a10", "b2"]

    def test_witness_iff_violated(self):
        with pytest.raises(ValueError):
            ThadVerdict("d1", Status.SATISFIED, witness=WitnessTrace(()))
        with pytest.raises(ValueError):
            ThadVerdict("d1", Status.VIOLATED, witness=None)

    def test_unprepared_model_rejected(self):
        program = parse_source(
            'int main(void) { read(0, 0, 4); return 0; }', "<test>"
        )
        model = build_model(program)
        with pytest.raises(ValueError, match="preparation"):
            check(model, SPIDEV)

    def test_model_prepared_for_fewer_routines_rejected(self):
        # Prepared without ``read``, the model has no event for its read
        # call; checking it against the full set must not drop that call.
        fewer = ThadSet(routines=(SPIDEV.routine("open"),),
                        constants=SPIDEV.constants)
        model = prepared('int main(void) { int fd = open("/d", 0); '
                         'read(fd, 0, 4); return 0; }', fewer)
        assert check(model, fewer) == []
        for run in (check, brute_force_paths):
            with pytest.raises(ValueError, match="read.*preparation"):
                run(model, SPIDEV)


class TestBoundVerdicts:
    def test_wrong_descriptor_violates(self):
        src = """
        int main(void) {
            int a = open("/dev/a");
            int b = open("/dev/b");
            ioctl(a, CFG);
            read(b, 0);
            return 0;
        }
        """
        vs = verdicts(src, config_read_set())
        assert vs["g1"].status is Status.SATISFIED
        assert vs["g2"].status is Status.VIOLATED
        assert event_names(vs["g2"].witness) == [
            "open", "open", "ioctl[CFG]", "read",
        ]

    def test_same_descriptor_satisfies(self):
        src = """
        int main(void) {
            int a = open("/dev/a");
            int b = open("/dev/b");
            ioctl(b, CFG);
            read(b, 0);
            return 0;
        }
        """
        vs = verdicts(src, config_read_set())
        assert vs["g1"].status is Status.SATISFIED
        assert vs["g2"].status is Status.SATISFIED

    def test_descriptor_copy_satisfies(self):
        src = """
        int main(void) {
            int a = open("/dev/a");
            int b = a;
            ioctl(a, CFG);
            read(b, 0);
            return 0;
        }
        """
        vs = verdicts(src, config_read_set())
        assert vs["g2"].status is Status.SATISFIED

    def test_conditional_config_violates_with_token(self):
        src = """
        int main(int c) {
            int fd = open("/dev/a");
            if (c) {
                ioctl(fd, CFG);
            }
            read(fd, 0);
            return 0;
        }
        """
        vs = verdicts(src, config_read_set())
        assert vs["g1"].status is Status.SATISFIED
        assert vs["g2"].status is Status.VIOLATED
        assert event_names(vs["g2"].witness) == ["open", "read"]

    def test_unresolved_descriptor_inconclusive(self):
        src = """
        int main(int c) {
            int fd = 0;
            if (c) {
                fd = open("/dev/a");
            }
            read(fd, 0);
            return 0;
        }
        """
        vs = verdicts(src, config_read_set())
        assert vs["g1"].status is Status.INCONCLUSIVE
        assert "unresolved descriptor" in vs["g1"].reason


class TestWitness:
    def test_single_call_witness(self):
        model = prepared("int main(void) { read(0, 0, 4); return 0; }")
        node = call_node(model, "read")
        w = next(v for v in check(model, SPIDEV) if v.thad_id == "d1").witness
        assert [e.routine for e in w.events] == ["read"]
        assert w.steps[-1].node_id == node.id
        assert w.steps[-1].line == 1

    def test_else_branch_witness_skips_completer(self):
        src = """
        int main(int c) {
            int fd = open("/d", 0);
            if (c) {
                ioctl(fd, WR_MAX_SPEED_HZ, 0);
            }
            read(fd, 0, 16);
            return 0;
        }
        """
        vs = verdicts(src)
        assert vs["d24"].status is Status.VIOLATED
        assert event_names(vs["d24"].witness) == ["open", "read"]

    def test_equal_length_arms_take_lower_line(self):
        src = """
        int main(int c) {
            int fd = open("/d", 0);
            if (c) {
                ioctl(fd, WR_BITS_PER_WORD, 0);
            } else {
                ioctl(fd, WR_LSB_FIRST, 0);
            }
            read(fd, 0, 16);
            return 0;
        }
        """
        vs = verdicts(src)
        assert vs["d24"].status is Status.VIOLATED
        assert event_names(vs["d24"].witness) == [
            "open", "ioctl[WR_BITS_PER_WORD]", "read",
        ]

    def test_loop_witness_enters_once(self):
        src = """
        int main(int c) {
            int fd = open("/d", 0);
            while (c) {
                read(fd, 0, 16);
                ioctl(fd, WR_MODE32, 0);
            }
            return 0;
        }
        """
        vs = verdicts(src)
        assert vs["d15"].status is Status.VIOLATED
        assert event_names(vs["d15"].witness) == ["open", "read"]

    def test_offender_is_nearest_then_lowest_line(self):
        src = """
        int main(void) {
            int fd = open("/d", 0);
            read(fd, 0, 16);
            read(fd, 0, 16);
            return 0;
        }
        """
        model = prepared(src)
        vs = {v.thad_id: v for v in check(model, SPIDEV)}
        first_read = call_node(model, "read", 0)
        assert vs["d24"].witness.steps[-1].node_id == first_read.id

    def test_early_stop_matches_the_full_search(self, monkeypatch):
        stopped = checker._free_distances
        searches = cut = 0

        def both(cfg, blocked, targets, order):
            nonlocal searches, cut
            early = stopped(cfg, blocked, targets, order)
            full = full_free_distances(cfg, blocked, targets, order)
            nearest = min(full[0][node.id] for node in targets)
            for node in targets:
                if full[0][node.id] == nearest:
                    assert early[0][node.id] == nearest
                    assert witness_chain(early[1], node.id) == (
                        witness_chain(full[1], node.id))
            searches += 1
            cut += len(early[0]) < len(full[0])
            return full

        sources = looping_draws() + [generate_program(seed, helpers=True)
                                     for seed in range(5000, 5100)]
        for source in sources:
            for thad_set in (SPIDEV, bound_spidev_set()):
                model = prepared(source, thad_set)
                verdicts = check(model, thad_set)
                with monkeypatch.context() as patch:
                    patch.setattr(checker, "_free_distances", both)
                    assert check(model, thad_set) == verdicts
        assert searches >= 100 and cut >= 10, (searches, cut)

    def test_witnesses_fail_reference_semantics(self):
        sources = [
            "int main(void) { read(0, 0, 4); return 0; }",
            DIAMOND_OPEN,
            """
            int main(int c) {
                int fd = open("/d", 0);
                if (c) { ioctl(fd, WR_MODE32, 0); }
                write(fd, 0, 4);
                ioctl(fd, MSG, 0);
                return 0;
            }
            """,
        ]
        checked = 0
        for src in sources:
            vs = verdicts(src)
            for v in vs.values():
                if v.status is Status.VIOLATED:
                    thad = next(t for t in SPIDEV.thads if t.id == v.thad_id)
                    assert not trace_satisfies(
                        thad, v.witness.events, SPIDEV.aliases
                    )
                    checked += 1
        assert checked >= 4


class TestOracle:
    def test_rejects_loops(self):
        model = prepared(
            "int main(int c) { while (c) { read(0, 0, 4); } return 0; }"
        )
        with pytest.raises(ValueError, match="unroll"):
            brute_force_paths(model, SPIDEV)

    def test_diamond_open_d1_false(self):
        result = brute_force_paths(prepared(DIAMOND_OPEN), SPIDEV)
        assert result["d1"] is False

    def test_straight_line_all_true(self):
        result = brute_force_paths(prepared(STRAIGHT_OK), SPIDEV)
        assert result == {f"d{i}": True for i in range(1, 27)}

    def test_empty_main_all_true(self):
        model = prepared("int main(void) { return 0; }")
        result = brute_force_paths(model, SPIDEV)
        assert all(result.values())

    def test_memory_does_not_grow_with_the_paths(self):
        # 2**14 paths, all with the trace (open, close).  The bound counts
        # distinct traces, not paths, and the oracle keeps trace suffixes
        # per node, never the paths.
        model = prepared(
            'int main(void) { int fd = open("/d", 0);'
            + "".join(f" if (c{k}) {{ x = {k}; }}" for k in range(14))
            + " close(fd); return 0; }")
        tracemalloc.start()
        try:
            traces = hal_traces(model, bound=4000)
            result = brute_force_paths(model, SPIDEV, bound=4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [tuple(e.routine for e in t) for t in traces] == [
            ("open", "close")]
        assert all(result.values())
        assert peak < 400_000  # holding 4,000 paths would take over 1 MB

    def test_traces_not_paths_after_nested_unrolling(self):
        # Unrolled 10 times each, the two loops have over a million
        # paths but only 101 traces: open, then 0 to 100 reads.
        traces = hal_traces(prepared(NESTED_LOOPS, unroll=10), bound=1000)
        assert sorted(len(t) for t in traces) == list(range(1, 102))

    def test_loop_check_satisfied_holds_on_unrollings(self):
        src = """
        int main(int c) {
            int fd = open("/d", 0);
            ioctl(fd, WR_MODE32, 0);
            ioctl(fd, WR_LSB_FIRST, 0);
            ioctl(fd, WR_BITS_PER_WORD, 0);
            ioctl(fd, WR_MAX_SPEED_HZ, 0);
            while (c) {
                read(fd, 0, 16);
                write(fd, 0, 16);
            }
            close(fd);
            return 0;
        }
        """
        vs = verdicts(src)
        satisfied = {i for i, v in vs.items() if v.status is Status.SATISFIED}
        assert satisfied == {f"d{i}" for i in range(1, 27)}
        for k in (1, 2, 3):
            oracle = brute_force_paths(prepared(src, SPIDEV, unroll=k), SPIDEV)
            assert all(oracle[i] for i in satisfied)


def fully_resolved(model, thad_set, *, descriptors: bool) -> bool:
    for ev in model.events.values():
        if ev.discriminator_unknown:
            return False
        if descriptors and ev.routine != "open" and ev.descriptor_token is None:
            return False
    return True


BOUND_SPIDEV = bound_spidev_set()


class TestProperties:
    @given(st.integers(0, 10_000_000))
    @settings(max_examples=150, deadline=None)
    def test_oracle_equivalence_on_resolved_programs(self, seed):
        source = generate_program(seed)
        model = prepared(source)
        assert fully_resolved(model, SPIDEV, descriptors=False)
        got = {v.thad_id: v.status for v in check(model, SPIDEV)}
        want = brute_force_paths(model, SPIDEV)
        for tid, ok in want.items():
            assert got[tid] is (Status.SATISFIED if ok else Status.VIOLATED), (
                f"{tid} disagrees on seed {seed}:\n{source}"
            )

    @given(st.integers(0, 10_000_000))
    @settings(max_examples=100, deadline=None)
    def test_oracle_equivalence_with_bindings(self, seed):
        source = generate_program(seed, min_opens=1)
        model = prepared(source, BOUND_SPIDEV)
        if not fully_resolved(model, BOUND_SPIDEV, descriptors=True):
            return
        got = {v.thad_id: v.status for v in check(model, BOUND_SPIDEV)}
        want = brute_force_paths(model, BOUND_SPIDEV)
        for tid, ok in want.items():
            assert got[tid] is (Status.SATISFIED if ok else Status.VIOLATED), (
                f"{tid} disagrees on seed {seed}:\n{source}"
            )

    @given(st.integers(0, 10_000_000))
    @settings(max_examples=100, deadline=None)
    def test_prepending_dependency_call_is_monotone(self, seed):
        source = generate_program(seed)
        before = {v.thad_id: v for v in check(prepared(source), SPIDEV)}
        lines = source.splitlines()
        lines.insert(1, "    ioctl(0, WR_MODE32, 0);")
        after = {
            v.thad_id: v for v in check(prepared("\n".join(lines)), SPIDEV)
        }
        # the inserted event satisfies the WR_MODE32 dependencies
        for tid in ("d15", "d16", "d17"):
            if before[tid].status is Status.VIOLATED:
                assert after[tid].status is Status.SATISFIED
            if before[tid].status is Status.SATISFIED:
                assert after[tid].status is not Status.VIOLATED

    @given(st.integers(0, 10_000_000))
    @settings(max_examples=50, deadline=None)
    def test_deterministic_output(self, seed):
        source = generate_program(seed, allow_loops=True)
        first = check(prepared(source), SPIDEV)
        second = check(prepared(source), SPIDEV)
        assert first == second

    @given(st.integers(0, 10_000_000))
    @settings(max_examples=75, deadline=None)
    def test_loop_soundness_against_unrollings(self, seed):
        source = generate_program(seed, allow_loops=True)
        vs = check(prepared(source), SPIDEV)
        satisfied = {v.thad_id for v in vs if v.status is Status.SATISFIED}
        for k in (1, 2, 3):
            oracle = brute_force_paths(prepared(source, SPIDEV, unroll=k),
                                       SPIDEV)
            for tid in satisfied:
                assert oracle[tid], f"{tid} fails at k={k}, seed {seed}:\n{source}"

    @given(st.integers(0, 10_000_000))
    @settings(max_examples=75, deadline=None)
    def test_witness_events_lie_on_a_cfg_path(self, seed):
        source = generate_program(seed)
        model = prepared(source)
        cfg = model.entry_body.cfg
        for v in check(model, SPIDEV):
            if v.status is not Status.VIOLATED:
                continue
            thad = next(t for t in SPIDEV.thads if t.id == v.thad_id)
            assert not trace_satisfies(thad, v.witness.events, SPIDEV.aliases)
            for step in v.witness.steps:
                assert model.events[step.node_id] == step.event
            steps = v.witness.steps
            for a, b in zip(steps, steps[1:]):
                assert _reaches(cfg, a.node_id, b.node_id)


def test_witness_steps_are_connected():
    src = """
    int main(int c) {
        int fd = open("/d", 0);
        if (c) { ioctl(fd, WR_MODE32, 0); }
        ioctl(fd, MSG, 0);
        return 0;
    }
    """
    model = prepared(src)
    cfg = model.entry_body.cfg
    for v in check(model, SPIDEV):
        if v.status is not Status.VIOLATED:
            continue
        steps = v.witness.steps
        for a, b in zip(steps, steps[1:]):
            assert _reaches(cfg, a.node_id, b.node_id)


def witness_chain(prev, node):
    """The previous-node chain from the entry to ``node``."""
    chain = []
    while node is not None:
        chain.append(node)
        node = prev[node]
    return chain[::-1]


def _reaches(cfg, src: int, dst: int) -> bool:
    seen, work = set(), [src]
    while work:
        n = work.pop()
        if n == dst:
            return True
        if n in seen:
            continue
        seen.add(n)
        work.extend(cfg.succ[n])
    return False
