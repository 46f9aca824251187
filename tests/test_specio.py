"""Spec-language parsing, serialization, and the bundled SPI files."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from helpers import SPIDEV_CONSTANTS, spidev_set
from strategies import thad_sets
from thadc.model import BindingSource, resolve_constant
from thadc.specio import (
    SpecError,
    bundled_data_path,
    bundled_spidev,
    load_spec,
    parse_constants,
    parse_thad_spec,
    serialize_spec,
)


MINIMAL = """\
routine open(path) returns descriptor
routine read(fd:descriptor, buf)
dep d1: read requires open
"""


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def spec_diagnostics(text, known_constants=None):
    """The diagnostics of a spec that must not parse."""
    with pytest.raises(SpecError) as exc:
        parse_thad_spec(text, known_constants)
    return exc.value.diagnostics


def test_parse_minimal_dep():
    s = parse_thad_spec(MINIMAL)
    assert [t.id for t in s.thads] == ["d1"]
    t = s.thads[0]
    assert t.dependent.name == "read" and t.dependency.name == "open"
    assert s.routine("open").returns_descriptor


def test_parse_empty_file_gives_empty_set():
    s = parse_thad_spec("")
    assert s.routines == () and s.thads == () and not s.constants


def test_parse_duplicate_dep_id_reports_second_line():
    text = MINIMAL + "dep d1: read requires open\n"
    diags = spec_diagnostics(text)
    (diag,) = [d for d in diags if d.code == "duplicate-id"]
    assert diag.line == 4


def test_parse_unknown_routine():
    diags = spec_diagnostics("dep d1: read requires open\n")
    assert {d.code for d in diags} == {"unknown-routine"}


def test_parse_unknown_constant_only_with_universe():
    text = """\
routine ioctl(fd:descriptor, request:discriminator)
routine open() returns descriptor
dep d1: ioctl[request=MSG] requires open
"""
    # without a constants table the name is declared by use
    s = parse_thad_spec(text)
    assert s.constants == {"MSG": None}
    # with one, unknown names are errors
    diags = spec_diagnostics(text, known_constants={"WR_MODE32": 1})
    assert {d.code for d in diags} == {"unknown-constant"}


def test_parse_bind_lines():
    text = MINIMAL + "bind d1: open.return -> read.fd\n"
    s = parse_thad_spec(text)
    b = s.thads[0].binding
    assert b is not None
    assert b.source is BindingSource.RETURN_VALUE and b.target_param == "fd"


def test_parse_bind_to_unknown_dep_is_an_error():
    diags = spec_diagnostics(MINIMAL + "bind d9: open.return -> read.fd\n")
    assert any(d.code == "unknown-id" for d in diags)


def test_parse_alias_and_comments_and_crlf():
    text = (
        "# top comment\r\n"
        "routine ioctl(fd:descriptor, request:discriminator) # trailing\r\n"
        "routine open() returns descriptor\r\n"
        "dep d1: ioctl[request=WR_MODE32] requires open\r\n"
        "alias WR_MODE satisfies WR_MODE32\r\n"
    )
    s = parse_thad_spec(text)
    assert s.aliases == {"WR_MODE": "WR_MODE32"}
    assert resolve_constant("WR_MODE", s.aliases) == "WR_MODE32"


ALIASED = """\
routine open() returns descriptor
routine ioctl(fd:descriptor, request:discriminator)
dep d1: ioctl[request=A] requires open
"""


def positions(diags):
    return [(d.line, d.column, d.message) for d in diags]


def test_alias_of_unknown_constant_is_positioned():
    diags = spec_diagnostics(ALIASED + "alias Q satisfies A\n",
                             known_constants={"A": 1})
    assert positions(diags) == [(4, 7, "unknown constant 'Q' in alias")]


@pytest.mark.parametrize("aliases, position", [
    ("alias A satisfies B\nalias B satisfies A\n", (4, 7)),
    # The cycle does not pass through the first alias.
    ("alias C satisfies A\n  alias A satisfies B\nalias B satisfies A\n",
     (5, 9)),
    ("alias C satisfies B\nalias A satisfies A\n", (5, 7)),
], ids=["first-alias", "later-alias", "self-alias"])
def test_alias_cycle_is_positioned(aliases, position):
    diags = spec_diagnostics(ALIASED + aliases,
                             known_constants={"A": 1, "B": 2, "C": 3})
    assert positions(diags) == [(*position, "alias cycle through 'A'")]


def test_parse_collects_multiple_diagnostics():
    text = "routine open(\ndep d1: nosuch requires open\nwhat is this\n"
    diags = spec_diagnostics(text)
    assert len(diags) >= 3
    lines = [d.line for d in diags]
    assert lines == sorted(lines)


def test_parse_constraint_on_paramless_routine_is_an_error():
    text = """\
routine open() returns descriptor
routine read(fd:descriptor)
dep d1: read[request=MSG] requires open
"""
    spec_diagnostics(text)


# ---------------------------------------------------------------------------
# constants files
# ---------------------------------------------------------------------------

def test_parse_constants_single():
    got = parse_constants("WR_LSB_FIRST = 1073834754\n")
    assert got == {"WR_LSB_FIRST": 1073834754}


def test_parse_constants_empty():
    assert parse_constants("") == {}


def test_parse_constants_conflict():
    with pytest.raises(SpecError) as e:
        parse_constants("A = 1\nA = 2\n")
    assert any(d.code == "conflicting-constant" for d in e.value.diagnostics)


def test_parse_constants_repeat_same_value_ok():
    assert parse_constants("A = 1\nA = 1\n") == {"A": 1}


def test_parse_constants_hex_and_comments():
    got = parse_constants("# hdr\nMSG = 0x40206B00  # one transfer\n")
    assert got == {"MSG": 0x40206B00}


def test_parse_constants_c_literals():
    got = parse_constants("A = 0644\nB = -0x10\nC = 0\nD = -7\n")
    assert got == {"A": 420, "B": -16, "C": 0, "D": -7}


@pytest.mark.parametrize("text, column", [
    ("A = 08\n", 5),
    ("  B = -09  # no octal 9\n", 7),
])
def test_parse_constants_bad_literal_is_positioned(text, column):
    with pytest.raises(SpecError) as e:
        parse_constants(text)
    [diag] = e.value.diagnostics
    assert (diag.line, diag.column) == (1, column)
    assert diag.message.startswith("invalid integer literal")


# ---------------------------------------------------------------------------
# serialization round trip
# ---------------------------------------------------------------------------

def test_round_trip_spidev():
    s = spidev_set()
    again = parse_thad_spec(serialize_spec(s), known_constants=s.constants)
    assert again == s


def test_round_trip_empty():
    assert serialize_spec(parse_thad_spec("")) == ""


def test_serialize_single_thad_shape():
    s = parse_thad_spec(MINIMAL)
    text = serialize_spec(s)
    assert "routine open(path) returns descriptor" in text
    assert "dep d1: read requires open" in text


@settings(max_examples=100, deadline=None)
@given(s=thad_sets())
def test_prop_round_trip_identity(s):
    assert parse_thad_spec(serialize_spec(s), known_constants=s.constants) == s


# ---------------------------------------------------------------------------
# bundled files
# ---------------------------------------------------------------------------

def test_bundled_spidev_matches_programmatic_set():
    assert bundled_spidev() == spidev_set()


def test_bundled_constants_are_the_linux_encodings():
    text = bundled_data_path("spidev-linux.consts").read_text(encoding="utf-8")
    assert parse_constants(text) == SPIDEV_CONSTANTS


def test_bundled_spec_structure():
    s = bundled_spidev()
    assert len(s.thads) == 26
    assert [t.id for t in s.thads] == [f"d{i}" for i in range(1, 27)]
    for t in s.thads[:14]:
        assert t.dependency.name == "open"
    writers = {"WR_MODE32", "WR_LSB_FIRST", "WR_BITS_PER_WORD", "WR_MAX_SPEED_HZ"}
    for t in s.thads[14:]:
        assert t.dependency.name == "ioctl"
        assert t.dependency.discriminator_constraint[1] in writers
    assert all(t.binding is None for t in s.thads)


def test_load_spec_combines_files():
    s = load_spec(MINIMAL, "X = 5\n")
    assert s.constants == {"X": 5}
