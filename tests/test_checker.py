"""Static checker: monitor dataflow, verdicts, witnesses, path oracle."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bound_spidev_set, parse_program, spidev_set
from randprog import generate_program
from thadc.cfg import PathExplosion, build_model
from thadc.checker import (
    Completion,
    Status,
    ThadVerdict,
    WitnessTrace,
    brute_force_paths,
    check,
    dataflow_fixpoint,
)
from thadc.minic import parse_source, unroll_loops
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
from thadc.passes import preprocess

SPIDEV = spidev_set()


def prepared(source: str, thad_set: ThadSet = SPIDEV):
    return preprocess(parse_program(source, "<test>"), thad_set)


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


class TestDataflow:
    def test_straight_line_read_sees_open_completed(self):
        model = prepared('int main(void) { int fd = open("/d", 0); read(fd, 0, 4); return 0; }')
        states = dataflow_fixpoint(model, SPIDEV)
        read_node = call_node(model, "read")
        open_node = call_node(model, "open")
        assert states[read_node.id].completion("d1") is Completion.COMPLETED
        assert states[open_node.id].completion("d1") is Completion.NOT_COMPLETED

    def test_own_completion_not_visible_at_entry(self):
        model = prepared('int main(void) { int fd = open("/d", 0); close(fd); return 0; }')
        states = dataflow_fixpoint(model, SPIDEV)
        assert (
            states[call_node(model, "open").id].completion("d4")
            is Completion.NOT_COMPLETED
        )

    def test_diamond_meet_loses_the_fact(self):
        model = prepared(DIAMOND_OPEN)
        states = dataflow_fixpoint(model, SPIDEV)
        assert (
            states[call_node(model, "read").id].completion("d1")
            is Completion.NOT_COMPLETED
        )

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
        assert (
            states[call_node(model, "read").id].completion("d1")
            is Completion.NOT_COMPLETED
        )

    def test_all_nodes_reachable(self):
        model = prepared(STRAIGHT_OK)
        states = dataflow_fixpoint(model, SPIDEV)
        assert set(states) == set(model.entry_body.cfg.nodes)
        assert all(s.reachable for s in states.values())


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
        # 2**14 paths, all with the trace (open, close).  The oracle holds
        # one path and the distinct traces, not every path it walked.
        model = prepared(
            'int main(void) { int fd = open("/d", 0);'
            + "".join(f" if (c{k}) {{ x = {k}; }}" for k in range(14))
            + " close(fd); return 0; }")
        tracemalloc.start()
        try:
            with pytest.raises(PathExplosion):
                brute_force_paths(model, SPIDEV, path_bound=4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400_000  # keeping the 4,000 paths takes over 1 MB

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
        program = parse_source(src, "<test>")
        for k in (1, 2, 3):
            unrolled = preprocess(build_model(unroll_loops(program, k)), SPIDEV)
            oracle = brute_force_paths(unrolled, SPIDEV)
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
        program = parse_source(source, "<rand>")
        vs = check(prepared(source), SPIDEV)
        satisfied = {v.thad_id for v in vs if v.status is Status.SATISFIED}
        for k in (1, 2, 3):
            unrolled = preprocess(build_model(unroll_loops(program, k)), SPIDEV)
            oracle = brute_force_paths(unrolled, SPIDEV)
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


def _reaches(cfg, src: int, dst: int) -> bool:
    seen, work = set(), [src]
    while work:
        n = work.pop()
        if n == dst:
            return True
        if n in seen:
            continue
        seen.add(n)
        work.extend(e.dst for e in cfg.edges(n))
    return False
