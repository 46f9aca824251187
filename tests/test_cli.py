"""Command-line behavior: subcommands, exit codes, and output formats."""

import json
import subprocess
import sys

import jsonschema
import pytest

from thadc import cli
from thadc.minic import MAX_NESTING
from thadc.specio import bundled_data_path

from helpers import nested_ifs, nested_parens, plus_chain

CORPUS = bundled_data_path("corpus")

HAL_SKELETON = """\
int open(const char *path, int oflag) {
    int ret = __open(path, oflag);
    return ret;
}

int read(int fd, void *buf, int nbyte) {
    int ret = __read(fd, buf, nbyte);
    return ret;
}

int write(int fd, const void *buf, int nbyte) {
    int ret = __write(fd, buf, nbyte);
    return ret;
}

int close(int fd) {
    int ret = __close(fd);
    return ret;
}

int ioctl(int fd, unsigned long request, void *arg) {
    int ret = __ioctl(fd, request, arg);
    return ret;
}
"""

TINY_SPEC = """\
routine open(path, oflag) returns descriptor
routine read(fd:descriptor, buf, nbyte)

dep g1: read requires open
"""

TINY_CONSTS = "UNUSED = 1\n"


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("THADC_COLOR", "never")


class TestCheck:
    def test_satisfied_program_exits_zero(self, capsys):
        code, out, err = run(
            ["check", str(CORPUS / "io-expander.c")], capsys)
        assert code == 0
        assert "summary: 4 satisfied" in out
        assert err == ""

    def test_violated_program_exits_one_with_witness(self, capsys):
        code, out, _ = run(
            ["check", str(CORPUS / "accelerometer-faulty.c")], capsys)
        assert code == 1
        assert "VIOLATED" in out
        assert "witness (feasibility not-proven):" in out
        assert "accelerometer-faulty.c:" in out

    def test_unresolved_program_exits_three(self, tmp_path, capsys):
        program = tmp_path / "p.c"
        program.write_text(
            'int main(void) {\n'
            '    int fd = open("/d", 2);\n'
            '    ioctl(fd, cfg, 0);\n'
            '    ioctl(fd, 1075866368, 0);\n'
            '    return 0;\n'
            '}\n')
        code, out, _ = run(["check", str(program)], capsys)
        assert code == 3
        assert "inconclusive" in out

    def test_json_output_validates_and_is_deterministic(self, capsys):
        argv = ["check", str(CORPUS / "accelerometer.c"),
                "--format", "json", "--no-timing"]
        code1, out1, _ = run(argv, capsys)
        code2, out2, _ = run(argv, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        schema = json.loads(
            bundled_data_path("report.schema.json").read_text())
        jsonschema.validate(json.loads(out1), schema)

    def test_json_reports_timing_by_default(self, capsys):
        code, out, _ = run(
            ["check", str(CORPUS / "io-expander.c"), "--format", "json"],
            capsys)
        assert code == 0
        assert "wall_time_ms" in json.loads(out)

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(
            ["check", str(CORPUS / "io-expander.c"), "--format", "json",
             "--no-timing", "-o", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["program"].endswith(
            "io-expander.c")

    def test_unroll_oracle_agreement_reported(self, capsys):
        code, out, _ = run(
            ["check", str(CORPUS / "io-expander.c"), "--unroll", "2",
             "--format", "json", "--no-timing"], capsys)
        assert code == 0
        oracle = json.loads(out)["unroll_oracle"]
        assert oracle == {"k": 2, "checked": 26, "agrees": True,
                          "disagreements": []}

    def test_unroll_does_not_change_exit_code(self, capsys):
        code, out, _ = run(
            ["check", str(CORPUS / "accelerometer-faulty.c"),
             "--unroll", "1", "--format", "json", "--no-timing"], capsys)
        assert code == 1
        assert json.loads(out)["unroll_oracle"]["agrees"] is True

    def test_parse_error_exits_two(self, tmp_path, capsys):
        program = tmp_path / "broken.c"
        program.write_text("int main(void) { int x = ; }\n")
        code, _, err = run(["check", str(program)], capsys)
        assert code == 2
        assert "broken.c" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(["check", "/nonexistent/p.c"], capsys)
        assert code == 2
        assert "thadc:" in err

    def test_custom_spec_and_consts(self, tmp_path, capsys):
        spec = tmp_path / "tiny.thad"
        spec.write_text(TINY_SPEC)
        consts = tmp_path / "tiny.consts"
        consts.write_text(TINY_CONSTS)
        program = tmp_path / "p.c"
        program.write_text(
            'int main(void) { read(0, 0, 4); return 0; }\n')
        code, out, _ = run(
            ["check", str(program), "--spec", str(spec),
             "--consts", str(consts)], capsys)
        assert code == 1
        assert "g1" in out

    def test_bad_spec_exits_two(self, tmp_path, capsys):
        spec = tmp_path / "bad.thad"
        spec.write_text("dep d1: read requires open\n")
        program = tmp_path / "p.c"
        program.write_text("int main(void) { return 0; }\n")
        code, _, err = run(
            ["check", str(program), "--spec", str(spec)], capsys)
        assert code == 2
        assert "bad.thad" in err

    def test_recursive_program_exits_two(self, tmp_path, capsys):
        program = tmp_path / "rec.c"
        program.write_text(
            "int f(int n) { return f(n); }\n"
            "int main(void) { return f(1); }\n")
        code, _, err = run(["check", str(program)], capsys)
        assert code == 2
        assert err

    @pytest.mark.parametrize("last_call, message", [
        ('open("/dev/x", 0)',
         "call chain from 'f1' spans 1500 functions, limit is 16"),
        ("f1499()", "recursive call chain: f1499 -> f1500 -> f1499"),
    ])
    def test_long_call_chain_exits_two(self, tmp_path, capsys, last_call,
                                       message):
        parts = [f"int f1500(void) {{ return {last_call}; }}"]
        parts += [f"int f{i}(void) {{ return f{i + 1}(); }}"
                  for i in range(1499, 0, -1)]
        parts.append(
            "int main(void) { int fd = f1(); read(fd, 0, 1); return 0; }")
        program = tmp_path / "chain.c"
        program.write_text("\n".join(parts) + "\n")
        assert run(["check", str(program)], capsys) == (
            2, "", f"thadc: {message}\n")

    @pytest.mark.parametrize("loops, k, levels", [(1, 400, 402),
                                                  (12, 40, 482)])
    def test_too_deep_unroll_skips_the_oracle(self, tmp_path, capsys, loops,
                                              k, levels):
        program = tmp_path / "loops.c"
        program.write_text(
            'int main(void) {\n    int fd = open("/dev/spidev0.0", 2);\n'
            + "    while (c) {\n" * loops + "    read(fd, 0, 1);\n"
            + "    }\n" * loops + "    return 0;\n}\n")
        plain = run(["check", str(program), "--format", "json",
                     "--no-timing"], capsys)
        code, out, err = run(["check", str(program), "--unroll", str(k),
                              "--format", "json", "--no-timing"], capsys)
        assert (code, out) == plain[:2] and code == 1
        assert err == (f"thadc: unroll oracle skipped: unrolling loops {k} "
                       f"times nests {levels} levels, "
                       f"limit is {MAX_NESTING}\n")

    def test_color_env_always(self, monkeypatch, capsys):
        monkeypatch.setenv("THADC_COLOR", "always")
        _, out, _ = run(["check", str(CORPUS / "io-expander.c")], capsys)
        assert "\x1b[32m" in out

    def test_color_env_never(self, capsys):
        _, out, _ = run(["check", str(CORPUS / "io-expander.c")], capsys)
        assert "\x1b[" not in out


def in_main(line: str) -> str:
    """A main whose second line is ``line``."""
    return f"int main(void) {{\n{line}\n    return 0;\n}}\n"


class TestBadInput:
    """Inputs outside the subset exit 2 with one positioned line each."""

    @pytest.mark.parametrize("source, position", [
        (in_main("    int x = 0x;"), "2:13"),
        (in_main("    int x = 08;"), "2:13"),
        (in_main("    int x = 'ab';"), "2:13"),
        (in_main("    /* never closed"), "2:5"),
        (nested_ifs(400), f"{MAX_NESTING + 3}:5"),
        (nested_parens(300), f"2:{MAX_NESTING + 12}"),
        (plus_chain(1500), f"2:{2 * MAX_NESTING + 12}"),
    ], ids=["hex-without-digits", "octal-8", "two-char-literal",
            "unclosed-comment", "400-ifs", "300-parentheses",
            "1500-term-sum"])
    def test_positioned_diagnostic(self, tmp_path, capsys, source, position):
        program = tmp_path / "bad.c"
        program.write_text(source)
        code, out, err = run(["check", str(program)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"{program}:{position}: error: ")

    def test_bad_consts_literal(self, tmp_path, capsys):
        consts = tmp_path / "c.consts"
        consts.write_text("MSG = 0x40206B00\n  WR_MODE = 08  # not octal\n")
        spec = bundled_data_path("spidev.thad")
        code, out, err = run(["check", str(CORPUS / "io-expander.c"),
                              "--spec", str(spec), "--consts", str(consts)],
                             capsys)
        assert code == 2
        assert out == ""
        assert err == (f"{consts}:2:13: error: invalid integer literal "
                       "'08'\n")

    def test_octal_open_mode_is_checked(self, tmp_path, capsys):
        program = tmp_path / "octal.c"
        program.write_text(in_main(
            '    int fd = open("/dev/spidev0.0", 2, 0644);\n'
            "    close(fd);"))
        code, out, _ = run(["check", str(program), "--format", "json",
                            "--no-timing"], capsys)
        assert code == 0
        assert json.loads(out)["summary"]["violated"] == 0

    @pytest.mark.parametrize("target", ["program", "spec", "consts",
                                        "skeleton"])
    def test_non_utf8_file(self, tmp_path, capsys, target):
        files = {"program": "p.c", "spec": "s.thad", "consts": "s.consts",
                 "skeleton": "hal.c"}
        texts = {"program": "int main(void) { return 0; }\n",
                 "spec": TINY_SPEC, "consts": TINY_CONSTS,
                 "skeleton": HAL_SKELETON}
        for name, path in files.items():
            (tmp_path / path).write_text(texts[name])
        bad = tmp_path / files[target]
        bad.write_bytes(b"\r\n/* caf\xe9 */\n" + bad.read_bytes())
        spec = ["--spec", str(tmp_path / "s.thad"),
                "--consts", str(tmp_path / "s.consts")]
        argv = (["annotate", str(tmp_path / "hal.c")] if target == "skeleton"
                else ["check", str(tmp_path / "p.c")])
        code, _, err = run(argv + spec, capsys)
        assert code == 2
        assert err == f"{bad}:2:7: error: byte 0xe9 is not valid UTF-8\n"

    def test_program_at_the_nesting_limit_runs(self, tmp_path, capsys):
        program = tmp_path / "deep.c"
        program.write_text(nested_ifs(MAX_NESTING - 2))
        assert run(["check", str(program)], capsys)[0] == 1
        code, out, _ = run(["check", str(program), "--unroll", "1",
                            "--format", "json"], capsys)
        assert code == 1
        assert json.loads(out)["unroll_oracle"]["agrees"] is True
        skeleton = tmp_path / "hal.c"
        skeleton.write_text(HAL_SKELETON + nested_ifs(MAX_NESTING - 2))
        assert run(["annotate", str(skeleton)], capsys)[0] == 0

    @pytest.mark.parametrize("source", [
        in_main('    int fd = open("/dev/spidev0.0", 2);\n    int x = 10;\n'
                + "    x = x * x;\n" * squarings + "    ioctl(fd, x, 0);")
        for squarings in (13, 26)
    ] + [
        prefix + in_main('    int fd = open("/dev/spidev0.0", 2);\n'
                         f"    ioctl(fd, {arg}, 0);")
        for prefix, arg in (("", "9" * 5000),
                            (f"#define BIG {'9' * 5000}\n", "BIG"),
                            ("", "0x" + "f" * 5000))
    ], ids=["13-squarings", "26-squarings", "5000-digit-literal",
            "5000-digit-define", "5000-digit-hex"])
    def test_huge_integers_end_without_a_traceback(self, tmp_path, source):
        # Values past 64 bits are invalid literals or unknown values: the
        # check ends quickly with exit 2 or 3, never a traceback and exit 1.
        program = tmp_path / "big.c"
        program.write_text(source)
        result = subprocess.run(
            [sys.executable, "-m", "thadc.cli", "check", str(program)],
            capture_output=True, text=True, timeout=30)
        assert result.returncode in (2, 3)
        assert "Traceback" not in result.stderr


class TestCorpus:
    def test_bundled_corpus_matches_expectations(self, capsys):
        code, out, _ = run(["check", "--corpus", "--no-timing"], capsys)
        assert code == 0
        assert "corpus: all 4 programs match expectations" in out
        for name in ("io-expander.c", "accelerometer.c",
                     "accelerometer-faulty.c", "spidev-test.c"):
            assert name in out

    def test_mismatch_reported_and_exits_one(self, monkeypatch, capsys):
        program = (CORPUS / "io-expander.c").read_text()
        wrong = {"exit_code": 1, "non_trivial": {}, "via_alias": [],
                 "witness_ends": {}}
        monkeypatch.setattr(
            cli, "_corpus_entries",
            lambda: [("io-expander.c", program, wrong)])
        code, out, _ = run(["check", "--corpus", "--no-timing"], capsys)
        assert code == 1
        assert "MISMATCH" in out
        assert "exit_code: expected 1, got 0" in out


class TestAnnotate:
    def test_default_output_path(self, tmp_path, capsys):
        skeleton = tmp_path / "hal.c"
        skeleton.write_text(HAL_SKELETON)
        code, out, _ = run(["annotate", str(skeleton)], capsys)
        assert code == 0
        produced = tmp_path / "hal.annotated.c"
        assert produced.exists()
        text = produced.read_text()
        assert "/*@ ghost int state_d1 = 0; */" in text
        assert "/*@ assert (state_d1 == 1); */" in text

    def test_assert_mode_output(self, tmp_path, capsys):
        skeleton = tmp_path / "hal.c"
        skeleton.write_text(HAL_SKELETON)
        target = tmp_path / "out.c"
        code, _, _ = run(
            ["annotate", str(skeleton), "--mode", "assert",
             "-o", str(target)], capsys)
        assert code == 0
        text = target.read_text()
        assert "#include <assert.h>" in text
        assert "assert(state_d1 == 1);" in text

    def test_missing_routine_exits_two(self, tmp_path, capsys):
        skeleton = tmp_path / "partial.c"
        skeleton.write_text(
            "int open(const char *path, int oflag) {\n"
            "    int ret = __open(path, oflag);\n"
            "    return ret;\n"
            "}\n")
        code, _, err = run(["annotate", str(skeleton)], capsys)
        assert code == 2
        assert "read" in err

    def test_wrapper_to_stdout(self, capsys):
        code, out, _ = run(["annotate", "--wrapper"], capsys)
        assert code == 0
        assert out.startswith("/* Call-order instrumentation wrapper.")
        assert "int ret = __hal_open(path, oflag);" in out

    def test_wrapper_to_file(self, tmp_path, capsys):
        target = tmp_path / "wrap.c"
        code, out, _ = run(
            ["annotate", "--wrapper", "--mode", "assert",
             "-o", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert "#include <assert.h>" in target.read_text()

    def test_empty_spec_wrapper_succeeds(self, tmp_path, capsys):
        spec = tmp_path / "empty.thad"
        spec.write_text("")
        code, out, _ = run(
            ["annotate", "--wrapper", "--spec", str(spec)], capsys)
        assert code == 0
        assert "__hal_" not in out


class TestExplain:
    def test_text_lists_dependencies(self, capsys):
        code, out, _ = run(["explain"], capsys)
        assert code == 0
        assert "routines: open, read, write, close, ioctl" in out
        assert "alias: WR_MODE satisfies WR_MODE32" in out
        assert "d1: read requires open" in out
        assert "d26: ioctl[request=MSG] requires "\
               "ioctl[request=WR_MAX_SPEED_HZ]" in out

    def test_dot_output(self, capsys):
        code, out, _ = run(["explain", "--format", "dot"], capsys)
        assert code == 0
        assert out.startswith("digraph dependencies {")
        assert 'open -> read [label="d1"];' in out
        assert '"ioctl[request=WR_MODE32]" -> "ioctl[request=MSG]" '\
               '[label="d17"];' in out
        assert out.rstrip().endswith("}")

    def test_binding_shown_for_bound_spec(self, tmp_path, capsys):
        spec = tmp_path / "bound.thad"
        spec.write_text(TINY_SPEC + "bind g1: open.return -> read.fd\n")
        code, out, _ = run(["explain", "--spec", str(spec)], capsys)
        assert code == 0
        assert "g1: read requires open (descriptor: open.return -> fd)" in out

    def test_empty_spec_gives_empty_digraph(self, tmp_path, capsys):
        spec = tmp_path / "empty.thad"
        spec.write_text("")
        code, out, _ = run(
            ["explain", "--spec", str(spec), "--format", "dot"], capsys)
        assert code == 0
        assert out == "digraph dependencies {\n  rankdir=LR;\n}\n"

    def test_single_dependency_digraph_edge(self, tmp_path, capsys):
        spec = tmp_path / "one.thad"
        spec.write_text(
            "routine open(path, oflag) returns descriptor\n"
            "routine close(fd:descriptor)\n\n"
            "dep d4: close requires open\n")
        code, out, _ = run(
            ["explain", "--spec", str(spec), "--format", "dot"], capsys)
        assert code == 0
        assert 'open -> close [label="d4"];' in out


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_check_requires_program_or_corpus(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check"])
        assert exc.value.code == 2

    def test_corpus_rejects_program_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "--corpus", "p.c"])
        assert exc.value.code == 2

    def test_corpus_rejects_json(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "--corpus", "--format", "json"])
        assert exc.value.code == 2

    def test_consts_requires_spec(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "p.c", "--consts", "x"])
        assert exc.value.code == 2

    def test_annotate_requires_skeleton_or_wrapper(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["annotate"])
        assert exc.value.code == 2

    def test_bad_unroll_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "p.c", "--unroll", "0"])
        assert exc.value.code == 2

    def test_parser_is_reused_without_leaking_state(self, tmp_path, capsys):
        assert cli._build_parser() is cli._build_parser()
        program = str(CORPUS / "accelerometer.c")
        report = tmp_path / "report.json"
        code, out, _ = run(["check", program, "--format", "json",
                            "--no-timing", "--unroll", "1",
                            "-o", str(report)], capsys)
        assert (code, out) == (0, "")
        assert json.loads(report.read_text())["unroll_oracle"]["agrees"]
        code, out, _ = run(["check", program], capsys)
        assert code == 0
        assert out.startswith("thadc 0.1.0\n")
        assert "unroll oracle" not in out and "wall time" in out
        with pytest.raises(SystemExit):
            cli.main(["check", program, "--unroll", "0"])
        capsys.readouterr()
        code, out, _ = run(["check", program, "--format", "json",
                            "--no-timing"], capsys)
        assert code == 0
        assert "unroll_oracle" not in json.loads(out)

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == "thadc 0.1.0"


class TestConsoleScript:
    def test_installed_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "thadc.cli", "check",
             str(CORPUS / "spidev-test.c"), "--format", "json",
             "--no-timing"],
            capture_output=True, text=True)
        assert result.returncode == 0
        data = json.loads(result.stdout)
        assert data["summary"]["satisfied"] == 11
