"""In-place injection, wrapper, simulator."""

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
    prepared,
    spidev_set,
)
from randprog import generate_program
from thadc.annotate import (
    AnnotationError,
    MissingRoutine,
    emit_annotated_source,
    emit_wrapper,
)
from thadc.checker import hal_traces
from thadc.minic import parse_source
from thadc.model import ThadSet, trace_satisfies
from thadc.specio import parse_thad_spec

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


READ_ONLY_SKELETON = "int read(int fd, void *buf, size_t n) {\n    return 0;\n}\n"

VALUE_GUARD_SKELETON = OPEN_IOCTL_SKELETON.replace("request == MSG",
                                                   "request == 1075866368")

NO_GUARD_SKELETON = """\
int open(const char *path, int oflag, ...) {
    return 0;
}

int ioctl(int fd, int request, ...) {
    return 0;
}
"""

TWO_RETURNS_SKELETON = """\
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

NO_RETURN_SKELETON = """\
void open(const char *path) {
    int x = 0;
}

ssize_t read(int fd, void *buf, size_t nbyte) {
    return 0;
}
"""

BOUND_SKELETON = """\
int open(const char *path) {
    int ret = 7;
    return ret;
}

int read(int fd, int buf) {
    return 0;
}
"""

BOUND_LITERAL_RETURN_SKELETON = """\
int open(const char *path) {
    return 7;
}

int read(int fd, int buf) {
    return 0;
}
"""

SHARED_LINE_RETURN_SKELETON = """\
int open(const char *path, int oflag) {
    if (oflag) return 0;
    return 1;
}

ssize_t read(int fd, void *buf, size_t nbyte) {
    return 0;
}
"""

SAME_LINE_BODY_SKELETON = """\
int open(const char *path) { return 0;
}

ssize_t read(int fd, void *buf, size_t nbyte) {
    return 0;
}
"""

UNTERMINATED_SKELETON = """\
ssize_t read(int fd, void *buf, size_t nbyte) {
    return 0;
}

int open(const char *path) {
    if (path) {
        return 0;
    }
"""

# Everything the scan must see through: comments and strings holding
# braces and returns, directives, prototypes, initializers, a helper
# defined before the routines, guards by name and by value, a nested
# block and every spidev routine.
MIXED_SKELETON = """\
/* int read(int fd) { return 0; } */
#include <fcntl.h>
static const char *banner = "open() { return 1; }";
int helper(int x);
int open(const char *path, int oflag, ...);
int table[2] = { 1, 2 };

static int helper(int x) {
    return x;
}

int open(const char *path, int oflag, ...) {
    int fd = helper(oflag);
    if (fd == 0) {
        return fd;
    }
    // return 2;
    return fd;
}

int ioctl(int fd, int request, ...) {
    if (request == WR_MODE32) {
        return 0;
    }
    if (request == 0x80046b05) {
    }
    return fd;
}

ssize_t read(int fd, void *buf, size_t nbyte) {
    {
        return nbyte;
    }
}

ssize_t write(int fd, const void *buf, size_t nbyte) {
    return nbyte;
}

int close(int fd) {
    return 0;
}
"""

# A guard below the body's top level is not an entry guard.
NESTED_GUARD_SKELETON = """\
int open(const char *path, int oflag, ...) {
    return 0;
}

int ioctl(int fd, int request, ...) {
    if (fd) {
        if (request == MSG) {
        }
    }
    return 0;
}
"""

# ``open`` defined in both arms of an ``#ifdef``: each definition is
# instrumented.
IFDEF_ARMS_SKELETON = """\
#ifdef SPIDEV_SIM
int open(const char *path, int oflag, ...) {
    return 3;
}
#else
int open(const char *path, int oflag, ...) {
    int fd = sys_open(path, oflag);
    return fd;
}
#endif

ssize_t read(int fd, void *buf, size_t nbyte) {
    return nbyte;
}
"""

SKELETONS = {
    "open-ioctl": OPEN_IOCTL_SKELETON,
    "multi": MULTI_SKELETON,
    "read-only": READ_ONLY_SKELETON,
    "value-guard": VALUE_GUARD_SKELETON,
    "no-guard": NO_GUARD_SKELETON,
    "two-returns": TWO_RETURNS_SKELETON,
    "no-return": NO_RETURN_SKELETON,
    "bound": BOUND_SKELETON,
    "bound-literal-return": BOUND_LITERAL_RETURN_SKELETON,
    "shared-line-return": SHARED_LINE_RETURN_SKELETON,
    "same-line-body": SAME_LINE_BODY_SKELETON,
    "unterminated": UNTERMINATED_SKELETON,
    "mixed": MIXED_SKELETON,
    "nested-guard": NESTED_GUARD_SKELETON,
    "ifdef-arms": IFDEF_ARMS_SKELETON,
}


ALL_ROUTINES_SKELETON = """\
int open(const char *path, int oflag, ...) {
    return 0;
}

ssize_t read(int fd, void *buf, size_t nbyte) {
    return 0;
}

ssize_t write(int fd, const void *buf, size_t nbyte) {
    return 0;
}

int close(int fd) {
    return 0;
}

int ioctl(int fd, int request, ...) {
    return 0;
}
"""

BOUND_READ_WRAPPER = """\
/* Call-order instrumentation wrapper.
 * Generated from a dependency set; do not edit by hand.
 */

/*@ ghost int state_b1 = 0; */
/*@ ghost int fd_b1; */

int open(void *path) {
    int ret = __hal_open(path);
    /*@ ghost state_b1 = 1; */
    /*@ ghost fd_b1 = ret; */
    return ret;
}

int read(int fd, void *buf) {
    /*@ assert (state_b1 == 1 && fd == fd_b1); */
    int ret = __hal_read(fd, buf);
    return ret;
}
"""


class TestFromSet:
    """What each dependency of a set turns into, read off the text."""

    def test_single_dependency_text(self):
        text = emit_wrapper(subset("d3"), "acsl")
        assert text.count("state_d3") == 3
        assert "\n/*@ ghost int state_d3 = 0; */\n" in text
        # the update is unguarded, the assert guarded by the constraint
        assert ("    int ret = __hal_open(path, oflag);\n"
                "    /*@ ghost state_d3 = 1; */\n") in text
        assert ("    if (request == MSG) {\n"
                "        /*@ assert (state_d3 == 1); */\n"
                "    }\n") in text

    def test_empty_set_adds_nothing(self):
        assert emit_annotated_source(subset(), ALL_ROUTINES_SKELETON,
                                     "acsl") == ALL_ROUTINES_SKELETON
        text = emit_wrapper(subset(), "acsl")
        assert "ghost" not in text and "assert" not in text
        assert text.count("int ret = __hal_") == 5

    def test_bound_set_adds_descriptor_ghost(self):
        # state flag before descriptor ghost; the descriptor comes from
        # the returned value; the assert compares it with the argument
        assert emit_wrapper(bound_read_set(), "acsl") == BOUND_READ_WRAPPER

    def test_budget_one_of_each_per_dependency(self):
        out = emit_annotated_source(SPIDEV, ALL_ROUTINES_SKELETON, "acsl")
        for tid in (t.id for t in SPIDEV.thads):
            assert out.count(f"/*@ ghost int state_{tid} = 0; */") == 1
            assert out.count(f"/*@ ghost state_{tid} = 1; */") == 1
            assert out.count(f"(state_{tid} == 1)") == 1
        assert_insertion_only(ALL_ROUTINES_SKELETON, out)

    def test_first_missing_routine_in_first_use_order(self):
        # dependents in set order (read for d1, then ioctl for d3), then
        # dependencies (open)
        with pytest.raises(MissingRoutine) as exc:
            emit_annotated_source(subset("d3", "d1"), "int x;\n", "acsl")
        assert exc.value.routine == "read"


class TestInjection:
    def test_single_dependency_matches_reference_shape(self):
        out = emit_annotated_source(subset("d3"), OPEN_IOCTL_SKELETON, "acsl")
        assert out == SINGLE_ANNOTATED

    def test_three_dependency_shape(self):
        out = emit_annotated_source(subset("d1", "d8", "d15"), MULTI_SKELETON,
                                    "acsl")
        assert out == MULTI_ANNOTATED

    def test_empty_plan_identity(self):
        out = emit_annotated_source(subset(), OPEN_IOCTL_SKELETON, "acsl")
        assert out == OPEN_IOCTL_SKELETON

    def test_insertion_only(self):
        out = emit_annotated_source(subset("d1", "d3", "d8", "d15", "d17"),
                                    MULTI_SKELETON, "acsl")
        assert_insertion_only(MULTI_SKELETON, out)

    def test_missing_dependent_routine(self):
        with pytest.raises(MissingRoutine) as exc:
            emit_annotated_source(subset("d1"), OPEN_IOCTL_SKELETON, "acsl")
        assert exc.value.routine == "read"

    def test_missing_dependency_routine(self):
        with pytest.raises(MissingRoutine) as exc:
            emit_annotated_source(subset("d1"), READ_ONLY_SKELETON, "acsl")
        assert exc.value.routine == "open"

    def test_guard_reuse_by_constant_value(self):
        out = emit_annotated_source(subset("d3"), VALUE_GUARD_SKELETON, "acsl")
        lines = out.split("\n")
        guard_at = lines.index("    if (request == 1075866368) {")
        assert lines[guard_at + 1] == "        /*@ assert (state_d3 == 1); */"

    def test_fresh_guard_block_when_none_matches(self):
        out = emit_annotated_source(subset("d3"), NO_GUARD_SKELETON, "acsl")
        assert "    if (request == MSG) {\n" \
               "        /*@ assert (state_d3 == 1); */\n" \
               "    }" in out
        assert_insertion_only(NO_GUARD_SKELETON, out)

    def test_nested_guard_is_not_an_entry_guard(self):
        out = emit_annotated_source(subset("d3"), NESTED_GUARD_SKELETON,
                                    "acsl")
        lines = out.split("\n")
        entry = lines.index("int ioctl(int fd, int request, ...) {")
        assert lines[entry + 1:entry + 4] == [
            "    if (request == MSG) {",
            "        /*@ assert (state_d3 == 1); */",
            "    }"]
        assert out.count("state_d3 == 1") == 1

    def test_same_guard_dependencies_share_one_block(self):
        out = emit_annotated_source(subset("d3", "d17", "d26"),
                                    NO_GUARD_SKELETON, "acsl")
        assert out.count("if (request == MSG) {") == 1

    def test_assert_mode(self):
        out = emit_annotated_source(subset("d1", "d8", "d15"), MULTI_SKELETON,
                                    "assert")
        assert out.count("#include <assert.h>") == 1
        assert "int state_d8 = 0;" in out
        assert "        assert(state_d8 == 1);" in out
        assert "    state_d1 = 1;" in out
        assert_insertion_only(MULTI_SKELETON, out)

    def test_update_before_every_return(self):
        out = emit_annotated_source(subset("d1"), TWO_RETURNS_SKELETON, "acsl")
        assert out.count("/*@ ghost state_d1 = 1; */") == 2
        assert_insertion_only(TWO_RETURNS_SKELETON, out)

    def test_every_definition_of_a_routine_is_updated(self):
        out = emit_annotated_source(subset("d1"), IFDEF_ARMS_SKELETON, "acsl")
        lines = out.split("\n")
        updates = [i for i, line in enumerate(lines)
                   if line == "    /*@ ghost state_d1 = 1; */"]
        assert [lines[i + 1] for i in updates] == ["    return 3;",
                                                  "    return fd;"]
        assert_insertion_only(IFDEF_ARMS_SKELETON, out)

    def test_routine_without_return_updates_at_end(self):
        out = emit_annotated_source(subset("d1"), NO_RETURN_SKELETON, "acsl")
        lines = out.split("\n")
        idx = lines.index("    /*@ ghost state_d1 = 1; */")
        assert lines[idx - 1] == "    int x = 0;"
        assert lines[idx + 1] == "}"

    def test_bound_injection(self):
        out = emit_annotated_source(bound_read_set(), BOUND_SKELETON, "acsl")
        assert "/*@ ghost int fd_b1; */" in out
        assert "    /*@ ghost fd_b1 = ret; */" in out
        assert "    /*@ assert (state_b1 == 1 && fd == fd_b1); */" in out

    def test_bound_injection_needs_plain_return_variable(self):
        with pytest.raises(AnnotationError, match="plain"):
            emit_annotated_source(bound_read_set(),
                                  BOUND_LITERAL_RETURN_SKELETON, "acsl")

    def test_shared_line_return_rejected(self):
        with pytest.raises(AnnotationError, match="shares its line"):
            emit_annotated_source(subset("d1"), SHARED_LINE_RETURN_SKELETON,
                                  "acsl")

    def test_body_must_start_after_its_brace(self):
        with pytest.raises(AnnotationError, match="line 1: the body of open"):
            emit_annotated_source(subset("d1"), SAME_LINE_BODY_SKELETON,
                                  "acsl")

    def test_unterminated_body_rejected(self):
        with pytest.raises(AnnotationError, match="unterminated body of open"):
            emit_annotated_source(subset("d1"), UNTERMINATED_SKELETON, "acsl")

    def test_scan_sees_through_comments_strings_and_prototypes(self):
        out = emit_annotated_source(subset("d1", "d8"), MIXED_SKELETON,
                                    "acsl")
        assert_insertion_only(MIXED_SKELETON, out)
        # one update before each of open's two returns, none in comments
        assert out.count("/*@ ghost state_d1 = 1; */") == 2
        lines = out.split("\n")
        guard_at = lines.index("    if (request == WR_MODE32) {")
        assert lines[guard_at + 1] == "        /*@ assert (state_d8 == 1); */"
        entry = lines.index("ssize_t read(int fd, void *buf, size_t nbyte) {")
        assert lines[entry + 1] == "    /*@ assert (state_d1 == 1); */"

    def test_deterministic(self):
        thad_set = subset("d1", "d3", "d15")
        first = emit_annotated_source(thad_set, MULTI_SKELETON, "acsl")
        second = emit_annotated_source(thad_set, MULTI_SKELETON, "acsl")
        assert first == second

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            emit_annotated_source(subset("d3"), OPEN_IOCTL_SKELETON, "ghost")


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

    def test_guards_follow_alias_chains(self):
        # A -> B -> C: a call with A or B resolves to C, so only the C
        # pattern (d1) can match; the B pattern (d2) is dead.
        chained = parse_thad_spec(
            "routine open(path) returns descriptor\n"
            "routine ioctl(fd:descriptor, request:discriminator, arg)\n"
            "dep d1: ioctl[request=C] requires open\n"
            "dep d2: ioctl[request=B] requires open\n"
            "alias A satisfies B\n"
            "alias B satisfies C\n",
            known_constants={"A": 1, "B": 2, "C": 3})
        for const in ("A", "B", "C"):
            trace = [ev_ioctl(const, "t1")]
            expected = {t.id for t in chained.thads
                        if not trace_satisfies(t, trace, chained.aliases)}
            assert expected == {"d1"}
            assert self.run(trace, chained) == expected, const

    def test_rejects_drifted_text(self):
        text = emit_wrapper(SPIDEV, "acsl").replace(
            "    return ret;", "    return ret + 1;", 1
        )
        with pytest.raises(WrapperShapeError):
            simulate_wrapper(text, [ev_read("t1")], SPIDEV)


class TestAnnotationCorrectness:
    """The generated instrumentation encodes the trace semantics."""

    @given(st.integers(0, 10_000_000), st.sampled_from(["acsl", "assert"]))
    @settings(max_examples=120, deadline=None)
    def test_wrapper_fails_exactly_on_unsatisfied_traces(self, seed, mode):
        source = generate_program(seed)
        wrapper = emit_wrapper(SPIDEV, mode)
        for trace in hal_traces(prepared(source, SPIDEV)):
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
        wrapper = emit_wrapper(bound, "acsl")
        for trace in hal_traces(prepared(source, bound)):
            failed = simulate_wrapper(wrapper, trace, bound)
            expected = {
                t.id
                for t in bound.thads
                if not trace_satisfies(t, trace, bound.aliases)
            }
            assert failed == expected, f"seed {seed}:\n{source}"
