"""The lexer against its reference, and its running time on inputs that
make a backtracking pattern slow.

``thadc.minic.tokenize`` reads one regex match per token.
``helpers.reference_tokenize`` is the lexer it replaced, one match per
token kind, blank runs included; both must give the same tokens,
``#define`` values and diagnostics on every input.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest
from hypothesis import given, settings

from thadc.minic import Token, tokenize
from thadc.specio import bundled_data_path

from helpers import benchmark_generator, reference_tokenize
from randprog import generate_program
from strategies import c_ish_text

GOLDEN = Path(__file__).resolve().parent / "golden"

# Blanks around directives, line ends, comments at the edges of a line
# or of the file, and files with no token at all.
EDGE_STRINGS = [
    "",
    " ",
    "\n\n\t \n",
    "   #define K 1\nint main(void) { return K; }\n",
    "\t#define K 0x10\n",
    " \t #include <x.h>\n#",
    "int main(void) {\r\n    return 0;\r\n}\r\n",
    "int x; // no newline at the end",
    "//",
    "/* a\nb */\n#define K 2\n",
    "/* a\nb */ #define K 2\n",
    "int x = 1; # 2\n",
    "a\rb\r",
    "int main(void) { return 0; }   \t  ",
    'x = "a\\"b\n/* c */" + \'\\n\' /* d',
    "x = '\\x41' + 08 + 0x; \"open",
]


def fixed_sources() -> list[str]:
    """The corpus, the programs under ``golden/``, the benchmark's ``wide``
    and ``diamond`` cases for seeds 1, 53 and 101, and 1,000 ``randprog``
    draws."""
    corpus = bundled_data_path("corpus")
    sources = [corpus.joinpath(name).read_text(encoding="utf-8")
               for name in sorted(p.name for p in corpus.iterdir())
               if name.endswith(".c")]
    sources += [path.read_text(encoding="utf-8")
                for path in sorted(GOLDEN.glob("*.c"))]
    gen = benchmark_generator()
    for seed in (1, 53, 101):
        sources += [case.source for case in gen.wide_cases(seed)]
        sources += [case.source for case in gen.diamond_cases(seed)]
    sources += [generate_program(seed, helpers=seed % 2 == 1,
                                 allow_loops=seed % 3 == 0)
                for seed in range(1000)]
    return sources


def assert_same_as_reference(text: str) -> None:
    got = tokenize(text)
    assert got == reference_tokenize(text), text[:200]
    assert all(type(tok) is Token for tok in got[0])


class TestAgainstTheReference:
    @settings(max_examples=300, deadline=None)
    @given(c_ish_text)
    def test_arbitrary_text(self, text):
        assert_same_as_reference(text)

    def test_fixed_sources(self):
        for text in fixed_sources():
            assert_same_as_reference(text)

    @pytest.mark.parametrize("text", EDGE_STRINGS)
    def test_edge_strings(self, text):
        assert_same_as_reference(text)


class TestLinearTime:
    """Inputs on which a pattern that backtracks over blanks or comments
    would take quadratic time; each takes a few hundredths of a second."""

    @pytest.mark.parametrize("text", [
        "int x;" + " \t" * 100_000,
        "int x;\n" + "// " * 50_000,
        "\n" * 50_000,
        '"' + "a" * 100_000,
    ], ids=["trailing-blanks", "comment-markers", "blank-lines",
            "unterminated-string"])
    def test_one_second_at_most(self, text):
        start = time.perf_counter()
        tokenize(text)
        assert time.perf_counter() - start < 1.0
        assert_same_as_reference(text)
