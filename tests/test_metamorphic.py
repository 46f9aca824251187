"""Metamorphic relations: rewrites of a program that cannot change its
trace set, so they must not change its verdicts.

Unlike the path oracle, these relations need no loop-free graph and no
path enumeration, so they reach programs with loops and the full-size
benchmark programs.  Every rewrite keeps each HAL call on its line.

- *Forwarding wrapper*: every function ``f`` is renamed ``f__w`` where
  it is defined, and a new ``f`` that forwards its parameters to
  ``f__w`` is appended at the end of the file.  Each entry keeps its
  status, ``trivial`` and ``reason``.  The wrappers add nodes, so the
  nearest offender, and with it the witness, may change; every witness
  must still be a trace that violates its dependency.
- *α-renaming*: every local, parameter and helper function gets a fresh
  name (never a HAL routine, ``main``, a ``#define`` or a spec
  constant).  The ``--no-timing`` reports are byte-identical.

Each program is checked against the bundled spec with its constants,
against the bound spidev set, and against the benchmark's bound spec
with the bundled constants.
"""

from __future__ import annotations

import pytest

from helpers import benchmark_generator, bound_spidev_set
from randprog import generate_program
from thadc.cfg import build_model
from thadc.checker import Status, check
from thadc.minic import parse_source, tokenize
from thadc.model import trace_satisfies
from thadc.passes import preprocess
from thadc.report import build_report, render_json, render_text
from thadc.specio import bundled_data_path, load_spec

PATH = "input.c"
DEPTH = 64  # a wrapper doubles each call chain's length


def spec_sets():
    consts = bundled_data_path("spidev-linux.consts").read_text()
    bundled = load_spec(bundled_data_path("spidev.thad").read_text(), consts,
                        "spidev.thad", "spidev-linux.consts")
    bound = benchmark_generator().BOUND_SPEC
    return {"bundled": bundled, "bound-spidev": bound_spidev_set(),
            "perfbench-bound": load_spec(bound.read_text(), consts,
                                         str(bound), "spidev-linux.consts")}


SPECS = spec_sets()


def sources() -> dict[str, str]:
    """``randprog`` draws with helpers, a third of them with loops, plus
    one full-size ``wide`` and one ``diamond`` benchmark program."""
    drawn = {f"randprog-{seed}": generate_program(
        seed, helpers=True, allow_loops=seed % 3 == 0) for seed in range(36)}
    gen = benchmark_generator()
    drawn["wide"] = gen.wide_cases(1)[0].source
    drawn["diamond"] = gen.diamond_cases(1)[0].source
    return drawn


SOURCES = sources()


def verdicts(source: str, spec):
    program = parse_source(source, PATH)
    return check(preprocess(build_model(program), spec, DEPTH), spec)


def reports(found, spec) -> tuple[str, str]:
    """The JSON and text reports of ``found``, without timing."""
    report = build_report(found, spec, spec_path="spec", program_path=PATH)
    return render_json(report), render_text(report)


def _edit(source: str, edits: dict[tuple[int, int], tuple[str, str]]) -> str:
    """``source`` with the identifier at each (line, column) replaced:
    (old, new) per position, applied right to left on each line, so no
    line moves."""
    lines = source.split("\n")
    for (line, col), (old, new) in sorted(edits.items(), reverse=True):
        text = lines[line - 1]
        assert text[col - 1:col - 1 + len(old)] == old
        lines[line - 1] = text[:col - 1] + new + text[col - 1 + len(old):]
    return "\n".join(lines)


def _definition_names(tokens, names: set[str]) -> list:
    """The name tokens of the function definitions of ``names``: an
    identifier whose parenthesised list is followed by a body."""
    found = []
    for i, tok in enumerate(tokens[:-1]):
        if tok.kind != "IDENT" or tok.text not in names:
            continue
        if tokens[i + 1].text != "(":
            continue
        depth, j = 0, i + 1
        while True:
            depth += {"(": 1, ")": -1}.get(tokens[j].text, 0)
            if depth == 0:
                break
            j += 1
        if tokens[j + 1].text == "{":
            found.append(tok)
    return found


def wrap_functions(source: str) -> str:
    """Every function ``f`` renamed ``f__w`` at its definition, and a
    forwarding ``f`` appended after the last line."""
    program = parse_source(source, PATH)
    functions = {fn.name: fn for fn in program.functions}
    tokens, _, _ = tokenize(source)
    edits = {(tok.line, tok.col): (tok.text, tok.text + "__w")
             for tok in _definition_names(tokens, set(functions))}
    assert len(edits) == len(functions)
    wrappers = []
    for fn in functions.values():
        assert not fn.varargs
        params = ", ".join(f"{p.type_text} {p.name}" for p in fn.params)
        call = f"{fn.name}__w({', '.join(p.name for p in fn.params)})"
        body = call if fn.return_type == "void" else "return " + call
        wrappers.append(f"{fn.return_type} {fn.name}({params or 'void'}) "
                        f"{{ {body}; }}")
    return _edit(source, edits).rstrip("\n") + "\n" + "\n".join(wrappers) + "\n"


def alpha_rename(source: str, spec) -> str:
    """Every local, parameter and helper function renamed, everywhere
    it is spelled; HAL routines, ``main``, defines and spec constants
    keep their names."""
    program = parse_source(source, PATH)
    names = set()
    for fn in program.functions:
        if fn.name != "main":
            names.add(fn.name)
        names.update(p.name for p in fn.params)
    model = build_model(program)
    for body in model.functions.values():
        names.update(name for name in body.locals
                     if not name.startswith("__"))
    names -= {r.name for r in spec.routines} | set(spec.constants)
    names -= set(program.defines)
    tokens, _, _ = tokenize(source)
    spelled = {tok.text for tok in tokens}
    fresh = {name: f"renamed{k}" for k, name in enumerate(sorted(names))}
    assert spelled.isdisjoint(fresh.values())
    return _edit(source, {(tok.line, tok.col): (tok.text, fresh[tok.text])
                          for tok in tokens
                          if tok.kind == "IDENT" and tok.text in fresh})


def hal_calls(source: str, spec) -> list[tuple[int, str]]:
    """(line, routine) of every HAL call the source spells, sorted."""
    routines = {r.name for r in spec.routines}
    model = build_model(parse_source(source, PATH))
    return sorted((node.line, node.callee)
                  for body in model.functions.values()
                  for node in body.cfg.call_nodes()
                  if node.callee in routines)


@pytest.mark.parametrize("name", ["randprog-1", "diamond"])
def test_the_rewrites_keep_the_hal_calls_on_their_lines(name):
    source, spec = SOURCES[name], SPECS["bundled"]
    for rewritten in (wrap_functions(source), alpha_rename(source, spec)):
        assert rewritten != source
        assert hal_calls(rewritten, spec) == hal_calls(source, spec)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_a_forwarding_wrapper_keeps_every_verdict(name):
    source = SOURCES[name]
    wrapped = wrap_functions(source)
    for spec in SPECS.values():
        before, after = verdicts(source, spec), verdicts(wrapped, spec)
        assert [(v.thad_id, v.status, v.trivial, v.reason) for v in before] \
            == [(v.thad_id, v.status, v.trivial, v.reason) for v in after]
        thads = {t.id: t for t in spec.thads}
        for v in after:
            if v.status is Status.VIOLATED:
                assert not trace_satisfies(thads[v.thad_id], v.witness.events,
                                           spec.aliases), v.thad_id


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_alpha_renaming_keeps_the_report_bytes(name):
    source = SOURCES[name]
    for spec in SPECS.values():
        renamed = alpha_rename(source, spec)
        assert reports(verdicts(renamed, spec), spec) \
            == reports(verdicts(source, spec), spec)
