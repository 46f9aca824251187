"""Frontend behavior: parsing, lowering, inlining, argument resolution.

Oracles here are hand-simulated CFGs and hand-listed path traces for
small programs; the spidev routine vocabulary comes from the shared
test helpers.
"""

import contextlib
import dataclasses
import io
import json
import sys

import pytest
from hypothesis import given, settings

from thadc import cli
from thadc.cfg import Cfg, CfgNode, FunctionBody, NodeKind
from thadc.checker import PathExplosion, hal_traces
from thadc.minic import (
    MAX_NESTING,
    Binary,
    MiniCError,
    Num,
    Str,
    UnrollTooDeep,
    Var,
    c_int_value,
    parse_source,
    unroll_loops,
)
from thadc.model import CallEvent, Param, ParamRole, RoutineSpec, Thad, ThadSet
from thadc.passes import (
    DepthLimitExceeded,
    RecursionDetected,
    inline_calls,
    preprocess,
)

from helpers import (
    SPIDEV_CONSTANTS,
    assert_same_entry,
    check_cfg,
    check_well_formed,
    edges,
    nested_calls,
    nested_ifs,
    nested_nots,
    nested_parens,
    parse_program,
    plus_chain,
    prepared,
    reference_splice_entry,
    spidev_set,
)
from randprog import generate_program
from strategies import c_ish_text

pytestmark = []


def hal_events(model):
    """Events of the entry function's HAL calls, in node order."""
    return [model.events[nid] for nid in sorted(model.events)]


# ---------------------------------------------------------------------------
# Parsing and lowering
# ---------------------------------------------------------------------------

class TestParsing:
    def test_straight_line_two_call_model(self):
        model = prepared(
            """
            int main(void) {
                int fd = open("/dev/spidev0.0", 2);
                read(fd, buf, 4);
                return 0;
            }
            """
        )
        events = hal_events(model)
        assert [e.routine for e in events] == ["open", "read"]
        assert events[0].produced_token == "t1"
        assert events[1].descriptor_token == "t1"
        assert not events[1].descriptor_unknown

    def test_goto_is_rejected_with_location(self):
        with pytest.raises(MiniCError) as exc:
            parse_program("int main(void) {\n    goto out;\n}\n")
        diag = exc.value.diagnostics[0]
        assert diag.code == "unsupported-construct"
        assert "goto" in diag.message
        assert diag.line == 2

    def test_missing_entry_function(self):
        with pytest.raises(MiniCError) as exc:
            parse_program("int helper(void) { return 0; }")
        assert exc.value.diagnostics[0].code == "missing-entry"

    @pytest.mark.parametrize("source, expected", [
        ("int main(void){ read(3, 0, 1); return 0; }\n"
         "int main(void){ return 0; }\n",
         (2, 5, "redefinition of 'main' (first defined on line 1)")),
        ("int main(void){ return 0; }\n"
         "int main(void){ read(3, 0, 1); return 0; }\n",
         (2, 5, "redefinition of 'main' (first defined on line 1)")),
        ("int f(int a){ return a; }\nint main(void){ return f(1); }\n"
         "static int f(int a){ return 0; }\n",
         (3, 12, "redefinition of 'f' (first defined on line 1)")),
    ], ids=["violating-main-first", "violating-main-second", "helper"])
    def test_a_second_definition_is_rejected(self, source, expected):
        with pytest.raises(MiniCError) as exc:
            parse_program(source)
        assert [(d.line, d.column, d.message, d.code)
                for d in exc.value.diagnostics] == [(*expected, "redefinition")]

    def test_a_prototype_then_a_definition_is_accepted(self):
        model = parse_program("int f(int a);\nint main(void){ return f(1); }\n"
                              "int f(int a){ return a; }\n")
        assert set(model.functions) == {"f", "main"}

    def test_switch_fallthrough_rejected(self):
        source = """
        int main(void) {
            switch (x) {
            case 1:
                y = 1;
            case 2:
                y = 2;
                break;
            }
            return 0;
        }
        """
        with pytest.raises(MiniCError) as exc:
            parse_program(source)
        assert any(d.code == "unsupported-construct" for d in exc.value.diagnostics)

    def test_prototypes_includes_defines(self):
        source = """
        #include <fcntl.h>
        #define FLAGS 2
        int open(const char *path, int oflag);
        int main(void) {
            int fd = open("/dev/x", FLAGS);
            return fd;
        }
        """
        model = parse_program(source)
        assert set(model.functions) == {"main"}
        assert model.defines == {"FLAGS": 2}

    def test_static_varargs_and_cast(self):
        source = """
        static int helper(int a, ...) {
            return (int)a;
        }
        int main(void) {
            return helper(1, "x");
        }
        """
        model = parse_program(source)
        assert set(model.functions) == {"helper", "main"}

    def test_unknown_directive_rejected(self):
        with pytest.raises(MiniCError) as exc:
            parse_program("#pragma once\nint main(void) { return 0; }\n")
        assert exc.value.diagnostics[0].code == "unsupported-construct"

    def test_define_must_be_integer(self):
        with pytest.raises(MiniCError) as exc:
            parse_program("#define N (1 + 2)\nint main(void) { return 0; }\n")
        assert exc.value.diagnostics[0].code == "unsupported-construct"

    def test_dead_code_after_return_dropped(self):
        model = parse_program(
            "int main(void) { return 0; write(1, 0, 0); }"
        )
        assert model.entry_body.cfg.call_nodes() == []


SMALL_MAIN = "int main(void) { int x = 1; read(x, 0, x + 1); return -x; }"


class TestSyntaxRecords:
    """Syntax-tree records are equal when they are of one class with equal
    fields, hash alike when equal, and print as dataclasses would."""

    @pytest.mark.parametrize("a, b, equal", [
        (Num(1, 2), Num(1, 2), True),
        (Binary("+", Var("x", 1), Num(1, 1), 1),
         Binary("+", Var("x", 1), Num(1, 1), 1), True),
        (parse_source(SMALL_MAIN).functions[0],
         parse_source(SMALL_MAIN).functions[0], True),
        (Num(1, 2), Num(1, 3), False),
        (Num(1, 2), Str(1, 2), False),
        (Var("x", 1), ("x", 1), False),
    ], ids=["leaf", "tree", "function", "other-field", "other-class",
            "tuple"])
    def test_equality_and_hash(self, a, b, equal):
        assert (a == b) is equal
        assert (a != b) is not equal
        if equal:
            assert hash(a) == hash(b)

    def test_records_have_no_instance_dict(self):
        program = parse_source(SMALL_MAIN)
        fn = program.functions[0]
        for record in (program, fn, fn.body, *fn.body.stmts, Num(4, 3)):
            assert not hasattr(record, "__dict__"), record

    def test_repr_is_the_dataclass_repr(self):
        assert repr(Num(4, 3)) == "Num(value=4, line=3)"
        assert repr(Binary("-", Var("x"), Str("s", 2), 2)) == (
            "Binary(op='-', lhs=Var(name='x', line=0), "
            "rhs=Str(value='s', line=2), line=2)")


def first_diagnostic(source: str):
    with pytest.raises(MiniCError) as exc:
        parse_source(source, "t.c")
    d = exc.value.diagnostics[0]
    return d.line, d.column, d.message, d.code


class TestLexerDiagnostics:
    """Exact positions and wording of the lexical diagnostics."""

    @pytest.mark.parametrize("source, expected", [
        ("int main(void) {\n    int x = 1 @ 2;\n    return 0;\n}\n",
         (2, 15, "unexpected character '@'", "syntax")),
        ("int main(void) {\n    int x = 1; # 2\n    return 0;\n}\n",
         (2, 16, "unexpected character '#'", "syntax")),
        ('int main(void) {\n    write(1, "abc, 3);\n    return 0;\n}\n',
         (2, 14, "unterminated string literal", "syntax")),
        ("#pragma once\nint main(void) { return 0; }\n",
         (1, 1, "unsupported preprocessor directive '#pragma'",
          "unsupported-construct")),
        ("#define N (1 + 2)\nint main(void) { return 0; }\n",
         (1, 1, "unsupported preprocessor directive '#define'",
          "unsupported-construct")),
        ("#define N abc\nint main(void) { return 0; }\n",
         (1, 1, "#define N must expand to an integer literal",
          "unsupported-construct")),
        ("int main(void) {\n\t\t#pragma x\n    return 0;\n}\n",
         (2, 3, "unsupported preprocessor directive '#pragma'",
          "unsupported-construct")),
    ], ids=["at-sign", "hash-mid-line", "unterminated-string", "pragma",
            "define-expression", "define-name", "tab-indented-directive"])
    def test_position_message_and_code(self, source, expected):
        assert first_diagnostic(source) == expected

    def test_tab_indented_define_is_read(self):
        program = parse_source("\t#define N 3\nint main(void) { return N; }\n")
        assert program.defines == {"N": 3}

    def test_a_comment_after_a_define_is_a_blank(self):
        program = parse_source(
            "#define K 5 // five\n#define L 6 /* six */\n"
            "#define M/**/7\nint main(void) { return K + L + M; }\n")
        assert program.defines == {"K": 5, "L": 6, "M": 7}


class TestErrorRecovery:
    """One mistake gives one diagnostic: after a rejected statement or
    declaration the parser resumes where the next one starts."""

    @staticmethod
    def diagnostics(source: str) -> list[tuple[int, int, str]]:
        with pytest.raises(MiniCError) as exc:
            parse_source(source, "t.c")
        return [(d.line, d.column, d.message) for d in exc.value.diagnostics]

    def test_a_string_literal_does_not_end_the_skipped_statement(self):
        source = ('int main(void) { x = sizeof("}"); read(fd, 0, 1); '
                  "return 0; }")
        assert self.diagnostics(source) == [
            (1, 22, "sizeof is outside the accepted subset")]

    @pytest.mark.parametrize("source, expected", [
        ('int main(void) {\n    "{";\n    return 0;\n}\n',
         (2, 5, "cannot parse statement at '{'")),
        ('int main(void) {\n    "*" = 1;\n    return 0;\n}\n',
         (2, 5, "cannot parse statement at '*'")),
        ('int main(void) {\n    x ":";\n    return 0;\n}\n',
         (2, 5, "cannot parse statement at 'x'")),
        ('int f(void ")") { return 0; }\n',
         (1, 12, "expected a param name, found ')'")),
    ], ids=["brace", "star", "colon", "paren"])
    def test_a_string_literal_is_no_punctuation(self, source, expected):
        assert self.diagnostics(source) == [expected]

    @pytest.mark.parametrize("declaration", [
        "struct s { int y; };", "union u { int a; char b; };",
        "enum e { A, B };", "typedef int t;",
    ])
    def test_an_unsupported_declaration_is_skipped_whole(self, declaration):
        keyword = declaration.split()[0]
        source = f"{declaration} int main(void) {{ return 0; }}"
        assert self.diagnostics(source) == [
            (1, 1, f"{keyword} is outside the accepted subset")]

    @pytest.mark.parametrize("declaration", [
        "struct s { int y; } v;", "typedef struct { int y; } t;",
        "struct s { int y; };", "struct s { int y; } v = { 1 }, *w;",
        "enum e { A } x;",
    ])
    def test_the_declarators_after_a_skipped_body_are_skipped(
            self, declaration):
        keyword = declaration.split()[0]
        source = f"{declaration} int main(void){{return 0;}}"
        assert self.diagnostics(source) == [
            (1, 1, f"{keyword} is outside the accepted subset")]

    @pytest.mark.parametrize("source, expected", [
        ("int main(void) {\n    int x = ;\n}\nint f(void) { return 0; }\n",
         (2, 13, "cannot parse expression at ';'")),
        ("int main(void) {\n    if (c) { x = ; }\n}\nint f(void) { return 0; }\n",
         (2, 18, "cannot parse expression at ';'")),
        ("int main(void) {\n    x = }\nint f(void) { return 0; }\n",
         (2, 9, "cannot parse expression at '}'")),
        ("int main(void) {\n    if (c) x = }\nint f(void) { return 0; }\n",
         (2, 16, "cannot parse expression at '}'")),
        ("int ;\nint main(void) { return 0; }\n",
         (1, 5, "expected a name, found ';'")),
    ], ids=["semicolon", "semicolon-in-if", "brace", "brace-after-if",
            "declaration"])
    def test_a_rejected_stop_is_not_skipped(self, source, expected):
        # the token an expression or declaration cannot start with stays
        # in place, so recovery stops at it and not at the next one
        assert self.diagnostics(source) == [expected]

    def test_the_statement_after_a_rejected_one_is_kept(self):
        source = "int main(void) {\n    int x = ;\n    return = 0;\n}\n"
        assert self.diagnostics(source) == [
            (2, 13, "cannot parse expression at ';'"),
            (3, 12, "cannot parse expression at '='")]

    def test_a_literal_is_no_assignment_target(self):
        source = "int main(void) {\n    for (1 = 2; 0; ) { }\n}\n"
        assert self.diagnostics(source)[0] == (
            2, 10, "cannot parse statement at '1'")

    def test_a_declaration_after_a_skipped_body_is_kept(self):
        # no ";" after the body: the next declaration is not skipped, so
        # an error in it is still reported
        source = "struct s { int y; }\nint = 1;\nint main(void) { return 0; }"
        assert self.diagnostics(source) == [
            (1, 1, "struct is outside the accepted subset"),
            (2, 5, "expected a name, found '='")]


class TestLiterals:
    @pytest.mark.parametrize("text, value", [
        ("0", 0), ("42", 42), ("0644", 420), ("0x1F", 31), ("0XffUL", 255),
        ("10u", 10), ("7LL", 7), ("017ul", 15),
    ])
    def test_integer_literal_value(self, text, value):
        assert c_int_value(text) == value

    @pytest.mark.parametrize("text", ["0x", "08", "09", "0x1G", "1.5", "", "u"])
    def test_not_an_integer_literal(self, text):
        assert c_int_value(text) is None

    @pytest.mark.parametrize("text, value", [
        ("18446744073709551615u", 2**64 - 1), ("0xFFFFFFFFFFFFFFFF", 2**64 - 1),
        ("01777777777777777777777", 2**64 - 1), ("0x" + "0" * 30 + "ff", 255),
    ])
    def test_literals_below_2_to_the_64_are_read(self, text, value):
        assert c_int_value(text) == value

    @pytest.mark.parametrize("text", [
        "18446744073709551616", "0x10000000000000000",
        "02000000000000000000000", "9" * 5000, "0x" + "f" * 5000,
    ])
    def test_literals_of_2_to_the_64_or_more_are_rejected(self, text):
        assert c_int_value(text) is None

    def test_defines_and_expressions_read_the_same_forms(self):
        program = parse_source(
            "#define MODE 0644\n#define BIG 0x10UL\n#define ERR -1\n"
            "int main(void) { return 0644 + 10u; }\n")
        assert program.defines == {"MODE": 420, "BIG": 16, "ERR": -1}
        ret = program.functions[0].body.stmts[0]
        assert (ret.value.lhs.value, ret.value.rhs.value) == (420, 10)

    def test_open_with_an_octal_mode(self):
        model = prepared(
            "int main(void) {\n"
            '    int fd = open("/dev/spidev0.0", 2, 0644);\n'
            "    read(fd, 0, 1);\n"
            "    return 0;\n"
            "}\n")
        events = hal_events(model)
        assert [e.routine for e in events] == ["open", "read"]
        assert events[1].descriptor_token == events[0].produced_token

    @pytest.mark.parametrize("literal, value", [
        ("'A'", 65), (r"'\n'", 10), (r"'\0'", 0), (r"'\x41'", 65),
        (r"'\101'", 65), (r"'\''", 39), (r"'\\'", 92), ("'\u00e9'", 233),
    ])
    def test_character_literal_value(self, literal, value):
        program = parse_source(f"int main(void) {{ return {literal}; }}\n")
        assert program.functions[0].body.stmts[0].value.value == value

    @pytest.mark.parametrize("literal, message", [
        ("0x", "invalid integer literal '0x'"),
        ("08", "invalid integer literal '08'"),
        ("09", "invalid integer literal '09'"),
        ("'ab'", "character literal 'ab' must hold exactly one character"),
        ("''", "character literal '' must hold exactly one character"),
        (r"'\q'", r"character literal '\q' must hold exactly one character"),
        ("'a", "unterminated character literal"),
    ])
    def test_malformed_literal_is_positioned(self, literal, message):
        source = f"int main(void) {{\n    int x = {literal};\n    return 0;\n}}\n"
        assert first_diagnostic(source) == (2, 13, message, "syntax")

    def test_unterminated_comment_is_positioned(self):
        source = "int main(void) {\n    return 0; /* left open\n}\n"
        assert first_diagnostic(source) == (
            2, 15, "unterminated comment", "syntax")

    def test_unterminated_comment_as_the_whole_file(self):
        assert first_diagnostic("/* only") == (
            1, 1, "unterminated comment", "syntax")


TOO_DEEP = (f"nesting deeper than {MAX_NESTING} levels is outside the "
            "accepted subset")


class TestNestingLimit:
    @pytest.mark.parametrize("source, line, col", [
        (nested_ifs(400), MAX_NESTING + 3, 5),
        (nested_parens(300), 2, MAX_NESTING + 12),
        (plus_chain(1500), 2, 2 * MAX_NESTING + 12),
        (nested_calls(300), 2, 2 * MAX_NESTING + 11),
        (nested_nots(300), 2, MAX_NESTING + 12),
    ], ids=["400-ifs", "300-parentheses", "1500-term-sum", "300-calls",
            "300-nots"])
    def test_too_deep_gives_one_positioned_diagnostic(self, source, line, col):
        with pytest.raises(MiniCError) as exc:
            parse_source(source)
        assert [(d.line, d.column, d.message, d.code)
                for d in exc.value.diagnostics] == [
            (line, col, TOO_DEEP, "unsupported-construct")]

    @pytest.mark.parametrize("at_limit, over_limit", [
        (nested_ifs(MAX_NESTING - 2), nested_ifs(MAX_NESTING - 1)),
        (nested_parens(MAX_NESTING - 1), nested_parens(MAX_NESTING)),
        (plus_chain(MAX_NESTING), plus_chain(MAX_NESTING + 1)),
        (nested_calls(MAX_NESTING - 1), nested_calls(MAX_NESTING)),
        (nested_nots(MAX_NESTING - 1), nested_nots(MAX_NESTING)),
    ], ids=["ifs", "parentheses", "sum", "calls", "nots"])
    def test_limit_is_exact(self, at_limit, over_limit):
        prepared(at_limit)
        assert first_diagnostic(over_limit)[2:] == (
            TOO_DEEP, "unsupported-construct")


class TestArbitraryInput:
    @settings(max_examples=300, deadline=None)
    @given(c_ish_text)
    def test_parse_returns_or_raises_minic_error(self, text):
        try:
            parse_source(text)
        except MiniCError as exc:
            assert exc.diagnostics

    @settings(max_examples=150, deadline=None)
    @given(c_ish_text)
    def test_check_exits_one_only_for_a_violation(self, tmp_path_factory,
                                                  text):
        program = tmp_path_factory.getbasetemp() / "arbitrary.c"
        program.write_text(text, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["check", str(program), "--format", "json"])
        assert code in (0, 1, 2, 3)
        if code == 1:
            entries = json.loads(out.getvalue())["entries"]
            assert any(e["status"] == "violated" for e in entries)


class TestCfgShape:
    SOURCES = [
        "int main(void) { return 0; }",
        "int main(void) { if (c) { x = 1; } else { x = 2; } return x; }",
        "int main(void) { while (c) { x = x + 1; } return x; }",
        "int main(void) { for (i = 0; i < 4; i++) { x = x + i; } return x; }",
        """
        int main(void) {
            switch (m) {
            case 1: return 1;
            case 2:
            case 3: x = 2; break;
            default: x = 0; break;
            }
            return x;
        }
        """,
        "int main(void) { while (1) { x = 1; } return 0; }",
        "int main(void) { if (a) { return 1; } return 0; }",
    ]

    @pytest.mark.parametrize("source", SOURCES)
    def test_well_formed(self, source):
        model = parse_program(source)
        for body in model.functions.values():
            check_cfg(body.cfg)

    def test_ids_are_dense_in_lowered_and_inlined_bodies(self):
        # Every pass indexes nodes and successors by id, so each builder
        # must number its nodes 0..n-1 and keep them in that order.
        inlined = 0
        for seed in range(40):
            model = parse_program(generate_program(
                seed, helpers=True, allow_loops=seed % 2 == 1))
            flat = inline_calls(model).entry_body
            inlined += flat is not model.entry_body
            for body in (*model.functions.values(), flat):
                check_well_formed(body.cfg)
        assert inlined > 20

    def test_loop_detection(self):
        looped = parse_program("int main(void) { while (c) { x = 1; } return 0; }")
        straight = parse_program("int main(void) { if (c) { x = 1; } return 0; }")
        with pytest.raises(ValueError, match="cyclic"):
            hal_traces(looped)
        assert hal_traces(straight) == {()}

    def test_branch_edges_labeled(self):
        model = parse_program("int main(void) { if (c) { x = 1; } return x; }")
        cfg = model.entry_body.cfg
        branches = [n for n in cfg.nodes if n.kind is NodeKind.BRANCH]
        assert len(branches) == 1
        labels = {e.label for e in edges(cfg, branches[0].id)}
        assert labels == {"then", "else"}


class TestPathEnumeration:
    """``hal_traces`` against the HAL projection of every path, listed
    one at a time by a plain recursive walk."""

    @staticmethod
    def reference_paths(cfg):
        """Every entry-to-exit path, depth-first in edge order."""
        def walk(prefix):
            if prefix[-1] == cfg.exit:
                yield prefix
                return
            for e in edges(cfg, prefix[-1]):
                yield from walk(prefix + [e.dst])
        return list(walk([cfg.entry]))

    def test_paths_in_edge_order(self):
        for seed in range(40):
            model = prepared(generate_program(seed, allow_loops=True),
                             unroll=2)
            events = model.events
            want = {tuple(events[n] for n in path if n in events)
                    for path in self.reference_paths(model.entry_body.cfg)}
            assert hal_traces(model) == want, seed

    def test_path_bound(self):
        # Three opens, each read under its own if: reads of different
        # descriptors are different events, so 8 distinct traces.
        model = prepared(
            'int main(void) { int f = open("/a", 0); int g = open("/b", 0);'
            ' int h = open("/c", 0); if (a) { read(f, 0, 1); }'
            " if (b) { read(g, 0, 1); } if (c) { read(h, 0, 1); }"
            " return 0; }")
        assert len(hal_traces(model, 8)) == 8
        with pytest.raises(PathExplosion) as exc:
            hal_traces(model, 7)
        assert exc.value.bound == 7

    def test_cyclic_graph_is_rejected_at_the_call(self):
        model = parse_program(
            "int main(void) { while (c) { x = 1; } return 0; }")
        with pytest.raises(ValueError, match="cyclic"):
            hal_traces(model)

    def test_long_straight_line_needs_no_recursion(self, monkeypatch):
        n = 5000
        nodes = [CfgNode(0, NodeKind.ENTRY, 1)]
        nodes += [CfgNode(i, NodeKind.CALL, 1, callee="read")
                  for i in range(1, n + 1)]
        nodes.append(CfgNode(n + 1, NodeKind.EXIT, 1))
        succ = [(i + 1,) for i in range(n + 1)] + [()]
        body = FunctionBody("main", (), (), Cfg(nodes, succ, 0, n + 1))
        events = {i: CallEvent("read", descriptor_token=f"t{i}")
                  for i in range(1, n + 1)}
        model = dataclasses.replace(
            parse_program("int main(void) { return 0; }"),
            functions={"main": body}, events=events)

        def refuse(limit):
            raise AssertionError("the recursion limit was changed")
        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        assert hal_traces(model) == {tuple(events.values())}


# ---------------------------------------------------------------------------
# Inlining
# ---------------------------------------------------------------------------

def chain_source(n: int) -> str:
    """main -> f1 -> ... -> f_{n-1}; the last one opens the device."""
    parts = [f"int f{n - 1}(void) {{ return open(\"/dev/x\", 0); }}"]
    for i in range(n - 2, 0, -1):
        parts.append(f"int f{i}(void) {{ return f{i + 1}(); }}")
    parts.append("int main(void) { int fd = f1(); read(fd, 0, 1); return 0; }")
    return "\n".join(parts)


class TestInlining:
    def test_chain_at_depth_limit_is_accepted(self):
        model = prepared(chain_source(16), depth_limit=16)
        events = hal_events(model)
        assert [e.routine for e in events] == ["open", "read"]
        assert events[1].descriptor_token == events[0].produced_token

    def test_chain_over_depth_limit_is_rejected(self):
        model = parse_program(chain_source(17))
        with pytest.raises(DepthLimitExceeded) as exc:
            inline_calls(model, depth_limit=16)
        assert exc.value.depth == 17
        assert exc.value.limit == 16

    def test_self_recursion_detected(self):
        model = parse_program(
            "int f(int n) { return f(n - 1); } int main(void) { return f(3); }"
        )
        with pytest.raises(RecursionDetected) as exc:
            inline_calls(model)
        assert exc.value.cycle == ["f", "f"]

    def test_mutual_recursion_detected(self):
        model = parse_program(
            """
            int g(int n);
            int f(int n) { return g(n); }
            int g(int n) { return f(n); }
            int main(void) { return f(1); }
            """
        )
        with pytest.raises(RecursionDetected) as exc:
            inline_calls(model)
        assert exc.value.cycle == ["f", "g", "f"]

    def test_cycle_under_a_long_chain(self):
        # main -> f1 -> ... -> f40 -> z -> y -> z.  Roots are walked in
        # sorted order, so the walk from f1 enters the cycle at z, not y.
        parts = ["int y(void);", "int z(void) { return y(); }",
                 "int y(void) { return z(); }",
                 "int f40(void) { return z(); }"]
        parts += [f"int f{i}(void) {{ return f{i + 1}(); }}"
                  for i in range(39, 0, -1)]
        parts.append("int main(void) { return f1(); }")
        with pytest.raises(RecursionDetected) as exc:
            inline_calls(parse_program("\n".join(parts)))
        assert exc.value.cycle == ["z", "y", "z"]

    def test_callees_are_walked_in_first_call_order(self):
        model = parse_program(
            """
            int p(void); int q(void);
            int p2(void) { return p(); }
            int q2(void) { return q(); }
            int p(void) { return p2(); }
            int q(void) { return q2(); }
            int f(void) { q(); p(); return 0; }
            int main(void) { return f(); }
            """
        )
        with pytest.raises(RecursionDetected) as exc:
            inline_calls(model)
        assert exc.value.cycle == ["q", "q2", "q"]

    def test_indirect_hal_use_becomes_visible(self):
        source = """
        int adxl_init(void) {
            int fd = open("/dev/spidev0.0", 2);
            ioctl(fd, WR_MODE, 0);
            return fd;
        }
        int main(void) {
            int fd = adxl_init();
            close(fd);
            return 0;
        }
        """
        model = prepared(source)
        events = hal_events(model)
        assert [e.routine for e in events] == ["open", "ioctl", "close"]
        assert events[1].discriminator_value == "WR_MODE"
        assert events[2].descriptor_token == events[0].produced_token

    def test_inlining_preserves_hal_traces(self):
        source = """
        int setup(int flags) {
            int fd = open("/dev/x", flags);
            ioctl(fd, WR_MODE32, 0);
            return fd;
        }
        int transfer(int fd, int n) {
            if (n > 0) {
                write(fd, 0, n);
            } else {
                read(fd, 0, 1);
            }
            return 0;
        }
        int main(void) {
            int fd = setup(3);
            transfer(fd, 10);
            close(fd);
            return 0;
        }
        """
        flat = prepared(source)
        traces = {
            tuple((e.routine, e.discriminator_value, e.descriptor_token) for e in t)
            for t in hal_traces(flat)
        }
        assert traces == {
            (
                ("open", None, None),
                ("ioctl", "WR_MODE32", "t1"),
                ("write", None, "t1"),
                ("close", None, "t1"),
            ),
            (
                ("open", None, None),
                ("ioctl", "WR_MODE32", "t1"),
                ("read", None, "t1"),
                ("close", None, "t1"),
            ),
        }
        for body in flat.functions.values():
            check_cfg(body.cfg)

    def test_free_name_follows_the_nearest_owner(self):
        # h reads g without writing it.  Inlined through f, which writes
        # g, it reads f's copy; called from main it reads main's g.
        source = """
        int h(int fd) { ioctl(fd, g, 0); return 0; }
        int f(int fd) { g = WR_MODE32; h(fd); return 0; }
        int main(void) {
            int fd = open("/dev/x", 0);
            g = RD_MODE;
            f(fd);
            h(fd);
            return 0;
        }
        """
        events = hal_events(prepared(source))
        assert [(e.routine, e.discriminator_value) for e in events] == [
            ("open", None), ("ioctl", "WR_MODE32"), ("ioctl", "RD_MODE")]

    def test_only_the_entry_is_copied(self):
        model = parse_program(
            "int h(int x) { return x + 1; }"
            " int f(int x) { return h(x); }"
            " int main(void) { return f(1); }")
        flat = inline_calls(model)
        assert flat.entry_body is not model.entry_body
        for name in ("f", "h"):
            assert flat.functions[name] is model.functions[name]

    def test_long_chain_needs_no_recursion(self):
        # 1,499 nested calls are stamped from their templates on an
        # explicit stack.
        model = parse_program(chain_source(1500))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)  # the interpreter's default
        try:
            flat = inline_calls(model, depth_limit=2000)
        finally:
            sys.setrecursionlimit(limit)
        calls = flat.entry_body.cfg.call_nodes()
        assert [n.callee for n in calls] == ["open", "read"]
        # main's 5 nodes less the call of f1, one tail per inlined call,
        # and the open.
        assert len(flat.entry_body.cfg.nodes) == 4 + 1499 + 1
        assert len(flat.entry_body.copies) == 1500
        assert_same_entry(flat.entry_body, reference_splice_entry(model))

    def test_long_chain_resolves_without_recursion(self):
        # The open is 1,499 calls down and its token is returned up, so
        # each function's context waits on an explicit stack.
        model = parse_program(chain_source(1500))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)  # the interpreter's default
        try:
            events = hal_events(preprocess(model, spidev_set(), 2000))
        finally:
            sys.setrecursionlimit(limit)
        assert [(e.routine, e.produced_token, e.descriptor_token)
                for e in events] == [("open", "t1", None), ("read", None, "t1")]

    def test_inline_is_identity_on_call_free_entry(self):
        model = parse_program("int main(void) { int x = 1; return x; }")
        flat = inline_calls(model)
        assert set(flat.functions) == {"main"}
        check_cfg(flat.entry_body.cfg)

    def test_entry_without_defined_calls_is_not_copied(self):
        model = parse_program(
            "int h(int x) { return x; }"
            ' int main(void) { int fd = open("/d", 0); read(fd, 0, 1);'
            " return 0; }")
        assert inline_calls(model) is model
        prepared_model = preprocess(model, spidev_set())
        assert prepared_model is not model and not model.events
        assert prepared_model.entry_body is model.entry_body
        assert [e.routine for e in hal_events(prepared_model)] == [
            "open", "read"]


# ---------------------------------------------------------------------------
# Discriminator resolution
# ---------------------------------------------------------------------------

class TestResolution:
    def test_literal_resolves_by_value(self):
        model = prepared(
            """
            int main(void) {
                int fd = open("/dev/x", 0);
                ioctl(fd, 1074031364, 0);
                return 0;
            }
            """
        )
        assert SPIDEV_CONSTANTS["WR_MAX_SPEED_HZ"] == 1074031364
        event = hal_events(model)[1]
        assert event.discriminator_value == "WR_MAX_SPEED_HZ"

    def test_copy_propagation(self):
        model = prepared(
            """
            int main(void) {
                int fd = open("/dev/x", 0);
                int r = WR_MODE32;
                ioctl(fd, r, 0);
                return 0;
            }
            """
        )
        event = hal_events(model)[1]
        assert event.discriminator_value == "WR_MODE32"
        assert not event.discriminator_unknown

    def test_define_resolves_through_value(self):
        model = prepared(
            """
            #define CONFIG 1075866368
            int main(void) {
                int fd = open("/dev/x", 0);
                ioctl(fd, CONFIG, 0);
                return 0;
            }
            """
        )
        assert hal_events(model)[1].discriminator_value == "MSG"

    def test_parameter_stays_unknown(self):
        model = prepared(
            """
            int main(int r) {
                int fd = open("/dev/x", 0);
                ioctl(fd, r, 0);
                return 0;
            }
            """
        )
        event = hal_events(model)[1]
        assert event.discriminator_value is None
        assert event.discriminator_unknown

    def test_unlisted_value_resolves_to_decimal_name(self):
        model = prepared(
            """
            int main(void) {
                int fd = open("/dev/x", 0);
                ioctl(fd, 42, 0);
                return 0;
            }
            """
        )
        assert hal_events(model)[1].discriminator_value == "42"

    def test_branch_agreement_is_required(self):
        model = prepared(
            """
            int main(void) {
                int fd = open("/dev/x", 0);
                int r = WR_MODE32;
                if (c) {
                    r = MSG;
                }
                ioctl(fd, r, 0);
                return 0;
            }
            """
        )
        event = hal_events(model)[1]
        assert event.discriminator_unknown

    def test_name_fallback_without_encodings(self):
        routines = (
            RoutineSpec("open", (Param("path"), Param("oflag")), True),
            RoutineSpec(
                "ioctl",
                (
                    Param("fd", ParamRole.DESCRIPTOR),
                    Param("request", ParamRole.DISCRIMINATOR),
                    Param("arg"),
                ),
            ),
        )
        bare = ThadSet(
            routines=routines,
            thads=(
                Thad(
                    "d8",
                    dependency=routines[0],
                    dependent=routines[1].with_constraint("WR_MODE32"),
                ),
            ),
            constants={"WR_MODE32": None},
        )
        model = prepared(
            """
            int main(void) {
                int fd = open("/dev/x", 0);
                ioctl(fd, WR_MODE32, 0);
                int r = WR_MODE32;
                ioctl(fd, r, 0);
                return 0;
            }
            """,
            thad_set=bare,
        )
        events = hal_events(model)
        assert events[1].discriminator_value == "WR_MODE32"
        assert events[2].discriminator_value is None
        assert events[2].discriminator_unknown

    def test_arithmetic_over_defines(self):
        model = prepared(
            """
            #define BASE 1073834752
            int main(void) {
                int fd = open("/dev/x", 0);
                ioctl(fd, BASE + 1, 0);
                return 0;
            }
            """
        )
        assert hal_events(model)[1].discriminator_value == "WR_MODE"


# ---------------------------------------------------------------------------
# Token flow
# ---------------------------------------------------------------------------

class TestTokenFlow:
    def test_diamond_has_no_must_token(self):
        model = prepared(
            """
            int main(void) {
                int fd;
                if (c) {
                    fd = open("/dev/a", 0);
                } else {
                    fd = open("/dev/b", 0);
                }
                read(fd, 0, 1);
                return 0;
            }
            """
        )
        events = hal_events(model)
        read = [e for e in events if e.routine == "read"][0]
        assert read.descriptor_token is None
        assert read.descriptor_unknown
        produced = {e.produced_token for e in events if e.routine == "open"}
        assert produced == {"t1", "t2"}

    def test_uninitialized_descriptor_has_no_token(self):
        model = prepared(
            "int main(void) { int fd; read(fd, 0, 1); return 0; }"
        )
        event = hal_events(model)[0]
        assert event.descriptor_token is None
        assert event.descriptor_unknown

    def test_copy_carries_token(self):
        model = prepared(
            """
            int main(void) {
                int fd = open("/dev/x", 0);
                int fd2 = fd;
                read(fd2, 0, 1);
                return 0;
            }
            """
        )
        events = hal_events(model)
        assert events[1].descriptor_token == events[0].produced_token

    def test_reassignment_kills_token(self):
        model = prepared(
            """
            int main(void) {
                int fd = open("/dev/x", 0);
                fd = unrelated();
                read(fd, 0, 1);
                return 0;
            }
            """
        )
        read = hal_events(model)[1]
        assert read.descriptor_token is None

    def test_discarded_descriptor_still_mints_token(self):
        model = prepared(
            "int main(void) { open(\"/dev/x\", 0); return 0; }"
        )
        assert hal_events(model)[0].produced_token == "t1"


# ---------------------------------------------------------------------------
# Loops and unrolling
# ---------------------------------------------------------------------------

class TestLoops:
    SOURCE = """
    int main(void) {
        int fd = open("/dev/x", 0);
        while (read(fd, 0, 1) > 0) {
            write(fd, 0, 1);
        }
        return 0;
    }
    """

    def test_loop_condition_call_sits_on_the_loop(self):
        model = prepared(self.SOURCE)
        with pytest.raises(ValueError, match="cyclic"):
            hal_traces(model)

    def test_unrolled_traces(self):
        model = prepared(self.SOURCE, unroll=2)
        names = {
            tuple(e.routine for e in trace) for trace in hal_traces(model)
        }
        assert names == {
            ("open", "read"),
            ("open", "read", "write", "read"),
            ("open", "read", "write", "read", "write"),
        }

    def test_for_loop_unroll(self):
        source = """
        int main(void) {
            int fd = open("/dev/x", 0);
            for (i = 0; i < n; i++) {
                write(fd, 0, 1);
            }
            return 0;
        }
        """
        names = {
            tuple(e.routine for e in trace)
            for trace in hal_traces(prepared(source, unroll=3))
        }
        assert names == {
            ("open",),
            ("open", "write"),
            ("open", "write", "write"),
            ("open", "write", "write", "write"),
        }

    def test_unroll_stops_at_the_nesting_limit(self):
        # The while, its k - 1 inner copies, the read and its argument
        # list: k + 2 levels.
        source = ("int main(void) { int fd = open(\"/dev/x\", 0);"
                  " while (c) { read(fd, 0, 1); } return 0; }")
        k = MAX_NESTING - 2
        model = prepared(source, unroll=k)
        assert len(hal_traces(model)) == k + 1  # open, then 0 to k reads
        with pytest.raises(UnrollTooDeep) as exc:
            prepared(source, unroll=k + 1)
        assert (exc.value.k, exc.value.levels) == (k + 1, MAX_NESTING + 1)

    def test_nested_loops_count_k_levels_each(self):
        source = ("int main(void) {\n" + "while (c) {\n" * 12 + "x = 1;\n"
                  + "}\n" * 12 + "return 0;\n}\n")
        with pytest.raises(UnrollTooDeep) as exc:
            unroll_loops(parse_source(source), 40)
        assert exc.value.levels == 12 * 40 + 1

    def test_for_init_adds_a_block_level(self):
        # { i = 0; if (i < n) { ... i = i + 1; } }: the block, k copies,
        # and the step's assignment and addition.
        ast = parse_source(
            "int main(void) { for (i = 0; i < n; i++) { x = i; } return 0; }")
        assert unroll_loops(ast, MAX_NESTING - 3)
        with pytest.raises(UnrollTooDeep) as exc:
            unroll_loops(ast, MAX_NESTING - 2)
        assert exc.value.levels == MAX_NESTING + 1
