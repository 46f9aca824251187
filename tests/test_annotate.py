"""Instrumentation planning, in-place injection, wrapper, simulator."""

from __future__ import annotations

import difflib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostsim import WrapperShapeError, simulate_wrapper
from helpers import (
    bound_read_set,
    bound_spidev_set,
    ev_ioctl,
    ev_open,
    ev_read,
    parse_program,
    spidev_set,
)
from randprog import generate_program
from thadc.annotate import (
    AnnotationError,
    GuardSpec,
    MissingRoutine,
    emit_annotated_source,
    emit_wrapper,
    plan_annotations,
)
from thadc.cfg import enumerate_paths
from thadc.minic import parse_source
from thadc.model import ThadSet, trace_satisfies
from thadc.passes import preprocess

SPIDEV = spidev_set()


def subset(*ids: str) -> ThadSet:
    return ThadSet(
        routines=SPIDEV.routines,
        thads=tuple(t for t in SPIDEV.thads if t.id in ids),
        constants=dict(SPIDEV.constants),
        aliases=dict(SPIDEV.aliases),
    )


def assert_insertion_only(original: str, annotated: str) -> None:
    matcher = difflib.SequenceMatcher(
        a=original.split("\n"), b=annotated.split("\n"), autojunk=False
    )
    kept = []
    for op, a1, a2, b1, b2 in matcher.get_opcodes():
        assert op in ("equal", "insert"), f"non-insert edit: {op}"
        if op == "equal":
            kept.extend(annotated.split("\n")[b1:b2])
    assert "\n".join(kept) == original


class TestPlan:
    def test_single_dependency_plan(self):
        plan = plan_annotations(subset("d3"))
        assert [d.name for d in plan.ghost_decls] == ["state_d3"]
        (update,) = plan.updates
        assert update.routine == "open"
        assert update.guard is None
        (chk,) = plan.asserts
        assert chk.routine == "ioctl"
        assert chk.guard == GuardSpec("request", "MSG", SPIDEV.constants["MSG"])
        assert chk.conditions() == ("state_d3 == 1",)

    def test_empty_plan(self):
        plan = plan_annotations(subset())
        assert plan.ghost_decls == ()
        assert plan.updates == ()
        assert plan.asserts == ()

    def test_bound_plan_adds_descriptor_ghost(self):
        plan = plan_annotations(bound_read_set())
        assert [d.name for d in plan.ghost_decls] == ["state_b1", "fd_b1"]
        (update,) = plan.updates
        assert update.fd_ghost == "fd_b1"
        assert update.fd_from_param is None  # from the returned value
        (chk,) = plan.asserts
        assert chk.conditions() == ("state_b1 == 1", "fd == fd_b1")

    def test_budget_one_of_each_per_dependency(self):
        plan = plan_annotations(SPIDEV)
        assert len(plan.ghost_decls) == 26
        assert len(plan.updates) == 26
        assert len(plan.asserts) == 26

    def test_routines_in_first_use_order(self):
        plan = plan_annotations(subset("d3", "d1"))
        assert plan.routines() == ["read", "ioctl", "open"]


OPEN_IOCTL_SKELETON = """\
int open(const char *path, int oflag, ...) {
    int ret = 0;

    return ret;
}

int ioctl(int fd, int request, ...) {
    if (request == MSG) {
    }

    return 0;
}
"""

SINGLE_ANNOTATED = """\
/*@ ghost int state_d3 = 0; */

int open(const char *path, int oflag, ...) {
    int ret = 0;

    /*@ ghost state_d3 = 1; */
    return ret;
}

int ioctl(int fd, int request, ...) {
    if (request == MSG) {
        /*@ assert (state_d3 == 1); */
    }

    return 0;
}
"""

MULTI_SKELETON = """\
int open(const char *path, int oflag, ...) {
    int ret = 0;

    return ret;
}

int ioctl(int fd, int request, ...) {
    if (request == WR_MODE32) {
    }

    int ret = 0;

    return ret;
}

ssize_t read(int fd, void *buf, size_t nbyte) {
    return 0;
}
"""

MULTI_ANNOTATED = """\
/*@ ghost int state_d1 = 0; */
/*@ ghost int state_d8 = 0; */
/*@ ghost int state_d15 = 0; */

int open(const char *path, int oflag, ...) {
    int ret = 0;

    /*@ ghost state_d1 = 1; */
    /*@ ghost state_d8 = 1; */
    return ret;
}

int ioctl(int fd, int request, ...) {
    if (request == WR_MODE32) {
        /*@ assert (state_d8 == 1); */
    }

    int ret = 0;

    /*@ ghost state_d15 = 1; */
    return ret;
}

ssize_t read(int fd, void *buf, size_t nbyte) {
    /*@ assert (state_d1 == 1); */
    /*@ assert (state_d15 == 1); */
    return 0;
}
"""


class TestInjection:
    def test_single_dependency_matches_reference_shape(self):
        out = emit_annotated_source(
            plan_annotations(subset("d3")), OPEN_IOCTL_SKELETON, "acsl"
        )
        assert out == SINGLE_ANNOTATED

    def test_three_dependency_shape(self):
        out = emit_annotated_source(
            plan_annotations(subset("d1", "d8", "d15")), MULTI_SKELETON, "acsl"
        )
        assert out == MULTI_ANNOTATED

    def test_empty_plan_identity(self):
        out = emit_annotated_source(plan_annotations(subset()),
                                    OPEN_IOCTL_SKELETON, "acsl")
        assert out == OPEN_IOCTL_SKELETON

    def test_insertion_only(self):
        out = emit_annotated_source(
            plan_annotations(subset("d1", "d3", "d8", "d15", "d17")),
            MULTI_SKELETON,
            "acsl",
        )
        assert_insertion_only(MULTI_SKELETON, out)

    def test_missing_dependent_routine(self):
        with pytest.raises(MissingRoutine) as exc:
            emit_annotated_source(
                plan_annotations(subset("d1")), OPEN_IOCTL_SKELETON, "acsl"
            )
        assert exc.value.routine == "read"

    def test_missing_dependency_routine(self):
        src = "int read(int fd, void *buf, size_t n) {\n    return 0;\n}\n"
        with pytest.raises(MissingRoutine) as exc:
            emit_annotated_source(plan_annotations(subset("d1")), src, "acsl")
        assert exc.value.routine == "open"

    def test_guard_reuse_by_constant_value(self):
        src = OPEN_IOCTL_SKELETON.replace("request == MSG",
                                          "request == 1075866368")
        out = emit_annotated_source(plan_annotations(subset("d3")), src, "acsl")
        lines = out.split("\n")
        guard_at = lines.index("    if (request == 1075866368) {")
        assert lines[guard_at + 1] == "        /*@ assert (state_d3 == 1); */"

    def test_fresh_guard_block_when_none_matches(self):
        src = """\
int open(const char *path, int oflag, ...) {
    return 0;
}

int ioctl(int fd, int request, ...) {
    return 0;
}
"""
        out = emit_annotated_source(plan_annotations(subset("d3")), src, "acsl")
        assert "    if (request == MSG) {\n" \
               "        /*@ assert (state_d3 == 1); */\n" \
               "    }" in out
        assert_insertion_only(src, out)

    def test_same_guard_dependencies_share_one_block(self):
        src = """\
int open(const char *path, int oflag, ...) {
    return 0;
}

int ioctl(int fd, int request, ...) {
    return 0;
}
"""
        out = emit_annotated_source(
            plan_annotations(subset("d3", "d17", "d26")), src, "acsl"
        )
        assert out.count("if (request == MSG) {") == 1

    def test_assert_mode(self):
        out = emit_annotated_source(
            plan_annotations(subset("d1", "d8", "d15")), MULTI_SKELETON,
            "assert",
        )
        assert out.count("#include <assert.h>") == 1
        assert "int state_d8 = 0;" in out
        assert "        assert(state_d8 == 1);" in out
        assert "    state_d1 = 1;" in out
        assert_insertion_only(MULTI_SKELETON, out)

    def test_update_before_every_return(self):
        src = """\
int open(const char *path, int oflag, ...) {
    if (oflag) {
        return 0;
    }
    return 1;
}

ssize_t read(int fd, void *buf, size_t nbyte) {
    return 0;
}
"""
        out = emit_annotated_source(plan_annotations(subset("d1")), src, "acsl")
        assert out.count("/*@ ghost state_d1 = 1; */") == 2
        assert_insertion_only(src, out)

    def test_routine_without_return_updates_at_end(self):
        src = """\
void open(const char *path) {
    int x = 0;
}

ssize_t read(int fd, void *buf, size_t nbyte) {
    return 0;
}
"""
        out = emit_annotated_source(plan_annotations(subset("d1")), src, "acsl")
        lines = out.split("\n")
        idx = lines.index("    /*@ ghost state_d1 = 1; */")
        assert lines[idx - 1] == "    int x = 0;"
        assert lines[idx + 1] == "}"

    def test_bound_injection(self):
        src = """\
int open(const char *path) {
    int ret = 7;
    return ret;
}

int read(int fd, int buf) {
    return 0;
}
"""
        out = emit_annotated_source(
            plan_annotations(bound_read_set()), src, "acsl"
        )
        assert "/*@ ghost int fd_b1; */" in out
        assert "    /*@ ghost fd_b1 = ret; */" in out
        assert "    /*@ assert (state_b1 == 1 && fd == fd_b1); */" in out

    def test_bound_injection_needs_plain_return_variable(self):
        src = """\
int open(const char *path) {
    return 7;
}

int read(int fd, int buf) {
    return 0;
}
"""
        with pytest.raises(AnnotationError, match="plain"):
            emit_annotated_source(plan_annotations(bound_read_set()), src,
                                  "acsl")

    def test_shared_line_return_rejected(self):
        src = """\
int open(const char *path, int oflag) {
    if (oflag) return 0;
    return 1;
}

ssize_t read(int fd, void *buf, size_t nbyte) {
    return 0;
}
"""
        with pytest.raises(AnnotationError, match="shares its line"):
            emit_annotated_source(plan_annotations(subset("d1")), src, "acsl")

    def test_deterministic(self):
        plan = plan_annotations(subset("d1", "d3", "d15"))
        first = emit_annotated_source(plan, MULTI_SKELETON, "acsl")
        second = emit_annotated_source(plan, MULTI_SKELETON, "acsl")
        assert first == second

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            emit_annotated_source(plan_annotations(subset("d3")),
                                  OPEN_IOCTL_SKELETON, "ghost")


class TestWrapper:
    def test_spidev_wrapper_structure(self):
        text = emit_wrapper(SPIDEV, "acsl")
        for name in ("open", "read", "write", "close", "ioctl"):
            assert f"int ret = __hal_{name}(" in text
        assert text.count("/*@ ghost int state_d") == 26
        program = parse_source(text, "<wrapper>")
        assert len(program.functions) == 5

    def test_wrapper_parses_in_assert_mode(self):
        text = emit_wrapper(SPIDEV, "assert")
        assert text.count("#include <assert.h>") == 1
        program = parse_source(text, "<wrapper>")
        assert len(program.functions) == 5

    def test_statement_budget(self):
        text = emit_wrapper(SPIDEV, "acsl")
        for tid in (t.id for t in SPIDEV.thads):
            assert text.count(f"int state_{tid} = 0") == 1
            assert text.count(f"state_{tid} = 1") == 1
            assert text.count(f"state_{tid} == 1") == 1

    def test_alias_expands_guards(self):
        text = emit_wrapper(SPIDEV, "acsl")
        # updates and asserts over the 32-bit mode write also fire for
        # the legacy request that stands in for it
        assert "if (request == WR_MODE32 || request == WR_MODE) {" in text

    def test_alias_source_pattern_is_dead(self):
        text = emit_wrapper(SPIDEV, "acsl")
        lines = text.split("\n")
        dead = lines.index("    if (0) {")
        assert lines[dead + 1] == "        /*@ assert (state_d6 == 1); */"

    def test_bound_wrapper(self):
        text = emit_wrapper(bound_read_set(), "acsl")
        assert "/*@ ghost int fd_b1; */" in text
        assert "/*@ ghost fd_b1 = ret; */" in text
        assert "/*@ assert (state_b1 == 1 && fd == fd_b1); */" in text

    def test_empty_set_wrapper(self):
        empty = ThadSet(routines=(), thads=())
        text = emit_wrapper(empty, "acsl")
        assert text.startswith("/*")
        assert "__hal_" not in text
        assert parse_source(text, "<wrapper>").functions == ()

    def test_deterministic(self):
        assert emit_wrapper(SPIDEV, "acsl") == emit_wrapper(SPIDEV, "acsl")


class TestSimulator:
    def run(self, trace, thad_set=SPIDEV, mode="acsl"):
        return simulate_wrapper(emit_wrapper(thad_set, mode), trace, thad_set)

    def test_bare_read_fails_its_dependencies(self):
        failed = self.run([ev_read("t1")])
        assert failed == {"d1", "d15", "d18", "d21", "d24"}

    def test_configured_read_passes(self):
        trace = [
            ev_open("t1"),
            ev_ioctl("WR_MODE32", "t1"),
            ev_ioctl("WR_LSB_FIRST", "t1"),
            ev_ioctl("WR_BITS_PER_WORD", "t1"),
            ev_ioctl("WR_MAX_SPEED_HZ", "t1"),
            ev_read("t1"),
        ]
        assert self.run(trace) == frozenset()

    def test_alias_satisfies_and_asserts(self):
        trace = [ev_open("t1"), ev_ioctl("WR_MODE", "t1"), ev_read("t1")]
        assert self.run(trace) == {"d18", "d21", "d24"}
        # the legacy request must itself assert the open dependency
        assert self.run([ev_ioctl("WR_MODE", "t1")]) == {"d8"}

    def test_modes_agree(self):
        trace = [ev_open("t1"), ev_ioctl("MSG", "t1"), ev_read("t1")]
        assert self.run(trace, mode="acsl") == self.run(trace, mode="assert")

    def test_bound_set_descriptor_mismatch(self):
        bset = bound_read_set()
        t1, t2 = ev_open("t1"), ev_open("t2")
        read = lambda tok: ev_read(tok)
        assert self.run([t1, read("t1")], bset) == frozenset()
        assert self.run([t1, read("t2")], bset) == {"b1"}
        # several live descriptors: any prior open's descriptor passes
        assert self.run([t1, t2, read("t1")], bset) == frozenset()
        assert self.run([t1, t2, read("t2")], bset) == frozenset()
        assert self.run([t1, read(None)], bset) == {"b1"}

    def test_unknown_discriminator_triggers_nothing(self):
        trace = [ev_open("t1"), ev_ioctl(None, "t1"), ev_read("t1")]
        # the unresolved ioctl neither satisfies the config writes nor
        # raises their assertions
        assert self.run(trace) == {"d15", "d18", "d21", "d24"}

    def test_rejects_drifted_text(self):
        text = emit_wrapper(SPIDEV, "acsl").replace(
            "    return ret;", "    return ret + 1;", 1
        )
        with pytest.raises(WrapperShapeError):
            simulate_wrapper(text, [ev_read("t1")], SPIDEV)


def path_traces(model):
    events = model.events
    for path in enumerate_paths(model.entry_body.cfg):
        yield [events[n] for n in path if n in events]


class TestAnnotationCorrectness:
    """The generated instrumentation encodes the trace semantics."""

    @given(st.integers(0, 10_000_000), st.sampled_from(["acsl", "assert"]))
    @settings(max_examples=120, deadline=None)
    def test_wrapper_fails_exactly_on_unsatisfied_traces(self, seed, mode):
        source = generate_program(seed)
        model = preprocess(parse_program(source, "<rand>"), SPIDEV)
        wrapper = emit_wrapper(SPIDEV, mode)
        for trace in path_traces(model):
            failed = simulate_wrapper(wrapper, trace, SPIDEV)
            expected = {
                t.id
                for t in SPIDEV.thads
                if not trace_satisfies(t, trace, SPIDEV.aliases)
            }
            assert failed == expected, f"seed {seed}:\n{source}"

    @given(st.integers(0, 10_000_000))
    @settings(max_examples=60, deadline=None)
    def test_bound_wrapper_matches_trace_semantics(self, seed):
        bound = bound_spidev_set()
        source = generate_program(seed, min_opens=1)
        model = preprocess(parse_program(source, "<rand>"), bound)
        wrapper = emit_wrapper(bound, "acsl")
        for trace in path_traces(model):
            failed = simulate_wrapper(wrapper, trace, bound)
            expected = {
                t.id
                for t in bound.thads
                if not trace_satisfies(t, trace, bound.aliases)
            }
            assert failed == expected, f"seed {seed}:\n{source}"
