"""Ghost-variable and assertion instrumentation for dependency sets.

Every dependency d gets one ghost state flag ``state_<id>`` (0 until a
call matching the dependency pattern completes, 1 afterwards), one
update ``state_<id> = 1;`` placed before each return of the dependency
routine, and one assertion ``state_<id> == 1`` at the entry of the
dependent routine, guarded by the discriminator comparison when the
dependent pattern is constrained.  A descriptor binding adds a second
ghost ``fd_<id>`` recording which descriptor the completed dependency
involved, and an equality conjunct in the assertion.

Both emitters read the dependencies straight from the :class:`ThadSet`,
in set order, and share three pieces: the ghost declarations, one
dependency's assertion and one dependency's updates.

- :func:`emit_annotated_source` injects the instrumentation into an
  existing HAL implementation source as whole inserted lines, so
  deleting those lines restores the input byte-for-byte.  One walk over
  the source's tokens finds each routine's body, its returns and its
  entry guards.  Updates are inserted unguarded before each return,
  matching the conventional hand-written shape; the standalone wrapper
  applies the precise guarded semantics instead.
- :func:`emit_wrapper` produces a self-contained forwarding wrapper,
  one function per declared routine, with guards applied exactly:
  a guard comparison expands to the disjunction of every constant that
  matches the pattern under the alias rewriting, and a pattern no
  constant can match anymore (an alias source) gets a dead ``if (0)``
  guard.

Both targets come in ``acsl`` mode (``/*@ ghost ... */`` and
``/*@ assert ...; */`` comment lines) and ``assert`` mode (plain global
ints and ``assert(...)`` calls plus one ``#include <assert.h>``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .minic import Token, c_int_value, tokenize
from .model import BindingSource, ParamRole, Thad, ThadSet, resolve_constant

__all__ = [
    "AnnotationError",
    "MissingRoutine",
    "emit_annotated_source",
    "emit_wrapper",
    "MODES",
]

# The format strings of each mode: the include line the instrumentation
# needs, if any, the declarations of a state flag and of a descriptor
# ghost, a ghost assignment, and an assertion of a condition.
_FORMATS = {
    "acsl": {
        "include": None,
        "state": "/*@ ghost int {} = 0; */",
        "fd": "/*@ ghost int {}; */",
        "assign": "/*@ ghost {} = {}; */",
        "check": "/*@ assert ({}); */",
    },
    "assert": {
        "include": "#include <assert.h>",
        "state": "int {} = 0;",
        "fd": "int {};",
        "assign": "{} = {};",
        "check": "assert({});",
    },
}

MODES = tuple(_FORMATS)


class AnnotationError(Exception):
    pass


class MissingRoutine(AnnotationError):
    def __init__(self, routine: str):
        super().__init__(f"the source defines no routine named {routine!r}")
        self.routine = routine


# ---------------------------------------------------------------------------
# What each dependency contributes
# ---------------------------------------------------------------------------

def _formats(mode: str) -> dict[str, Optional[str]]:
    try:
        return _FORMATS[mode]
    except KeyError:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


def _declarations(thad_set: ThadSet, fmt) -> list[str]:
    """Each dependency's ghost declarations, in set order."""
    lines = []
    for thad in thad_set.thads:
        lines.append(fmt["state"].format(f"state_{thad.id}"))
        if thad.binding is not None:
            lines.append(fmt["fd"].format(f"fd_{thad.id}"))
    return lines


def _check(thad: Thad, fmt) -> str:
    """The assertion at the entry of the dependent routine."""
    condition = f"state_{thad.id} == 1"
    if thad.binding is not None:
        condition += f" && {thad.binding.target_param} == fd_{thad.id}"
    return fmt["check"].format(condition)


def _updates(thad: Thad, fmt, returned: Optional[str]) -> list[str]:
    """The ghost assignments before a return of the dependency routine
    that returns the variable ``returned`` (None: not a plain variable)."""
    lines = [fmt["assign"].format(f"state_{thad.id}", "1")]
    if thad.binding is not None:
        source = returned
        if thad.binding.source is BindingSource.PARAM:
            source = thad.dependency.descriptor_param
        if source is None:
            raise AnnotationError(
                f"cannot record the descriptor for {thad.id}: a return in "
                f"{thad.dependency.name} does not return a plain variable"
            )
        lines.append(fmt["assign"].format(f"fd_{thad.id}", source))
    return lines


def _gather(items, key) -> dict:
    """Group items by key, one group per key, ordered by first use."""
    groups: dict[object, list] = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return groups


# ---------------------------------------------------------------------------
# Source scanning (for in-place injection)
# ---------------------------------------------------------------------------

@dataclass
class _ReturnSite:
    line: int
    indent: str
    value_ident: Optional[str]


@dataclass
class _GuardSite:
    param: str
    const_text: str
    const_value: Optional[int]
    brace_line: int
    indent: str


@dataclass
class _RoutineShape:
    name: str
    brace_line: int       # line holding the body's opening brace
    body_indent: str
    close_line: int = 0
    returns: list[_ReturnSite] = field(default_factory=list)
    guards: list[_GuardSite] = field(default_factory=list)


def _line_indent(lines: list[str], lineno: int) -> str:
    text = lines[lineno - 1]
    return text[: len(text) - len(text.lstrip())]


def _line_ends_after(lines: list[str], tok: Token, width: int) -> bool:
    return lines[tok.line - 1][tok.col - 1 + width:].strip() == ""


def _scan_routines(source: str,
                   wanted: set[str]) -> dict[str, list[_RoutineShape]]:
    """Locate each definition of a wanted routine: its body, returns, and
    entry guards.  A routine defined more than once, as in both arms of
    an ``#ifdef``, has one shape per definition, in source order.

    One walk over the token stream (comments and strings already out of
    the way) that reports positions in source lines.  Only shapes this
    injector can instrument are accepted: the body's opening brace ends
    its line, and every return starts its own line.
    """
    lines = source.split("\n")
    tokens = tokenize(source)[0][:-1]  # without the EOF token
    shapes: dict[str, list[_RoutineShape]] = {}
    shape: Optional[_RoutineShape] = None  # the wanted body being walked
    depth = 0
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.text == "{":
            depth += 1
        elif tok.text == "}":
            depth -= 1
            if shape is not None and depth == 0:
                shape.close_line = tok.line
                shapes.setdefault(shape.name, []).append(shape)
                shape = None
        elif shape is None:
            if (
                depth == 0
                and tok.kind == "IDENT"
                and i + 1 < len(tokens)
                and tokens[i + 1].text == "("
            ):
                j = _match_paren(tokens, i + 1)
                if j is not None and j + 1 < len(tokens) and tokens[j + 1].text == "{":
                    if tok.text in wanted:
                        shape = _open_body(tok.text, tokens[j + 1], lines)
                    depth += 1
                    i = j + 2
                    continue
        elif tok.kind == "IDENT" and tok.text == "return":
            if lines[tok.line - 1][: tok.col - 1].strip() != "":
                raise AnnotationError(
                    f"line {tok.line}: cannot instrument a return that "
                    "shares its line with other code"
                )
            ident = None
            if (
                i + 2 < len(tokens)
                and tokens[i + 1].kind == "IDENT"
                and tokens[i + 2].text == ";"
            ):
                ident = tokens[i + 1].text
            shape.returns.append(
                _ReturnSite(tok.line, _line_indent(lines, tok.line), ident)
            )
        elif depth == 1 and tok.kind == "IDENT" and tok.text == "if":
            guard = _match_guard(tokens, i, lines)
            if guard is not None:
                shape.guards.append(guard)
        i += 1
    if shape is not None:
        raise AnnotationError(f"unterminated body of {shape.name}")
    return shapes


def _match_paren(tokens: list[Token], open_idx: int) -> Optional[int]:
    depth = 0
    for j in range(open_idx, len(tokens)):
        if tokens[j].text == "(":
            depth += 1
        elif tokens[j].text == ")":
            depth -= 1
            if depth == 0:
                return j
    return None


def _open_body(name: str, brace: Token, lines: list[str]) -> _RoutineShape:
    if not _line_ends_after(lines, brace, 1):
        raise AnnotationError(
            f"line {brace.line}: the body of {name} must start on the line "
            "after its opening brace"
        )
    return _RoutineShape(name, brace.line,
                         _line_indent(lines, brace.line) + "    ")


def _match_guard(
    tokens: list[Token], if_idx: int, lines: list[str]
) -> Optional[_GuardSite]:
    """Recognize ``if (<ident> == <ident-or-number>) {`` with the brace
    ending its line; anything else is not a reusable guard."""
    t = tokens
    i = if_idx
    if i + 6 >= len(t):
        return None
    if [t[i + 1].text, t[i + 3].text] != ["(", "=="] or t[i + 5].text != ")":
        return None
    if t[i + 2].kind != "IDENT" or t[i + 6].text != "{":
        return None
    const = t[i + 4]
    if const.kind not in ("IDENT", "NUM"):
        return None
    if not _line_ends_after(lines, t[i + 6], 1):
        return None
    value = None
    if const.kind == "NUM":
        value = c_int_value(const.text)
    return _GuardSite(
        param=t[i + 2].text,
        const_text=const.text,
        const_value=value,
        brace_line=t[i + 6].line,
        indent=_line_indent(lines, t[i].line) + "    ",
    )


# ---------------------------------------------------------------------------
# In-place injection
# ---------------------------------------------------------------------------

def _guard_matches(site: _GuardSite, guard: tuple[str, str],
                   thad_set: ThadSet) -> bool:
    param, const = guard
    if site.param != param:
        return False
    if site.const_text == const:
        return True
    return (site.const_value is not None
            and site.const_value == thad_set.constants.get(const))


def emit_annotated_source(
    thad_set: ThadSet, source: str, mode: str = "acsl"
) -> str:
    """Inject the set's instrumentation into a HAL implementation as
    whole new lines.

    Ghost declarations go to the top of the file; assertions become the
    first statements of the dependent routine, inside an existing
    ``if (param == CONST)`` entry guard when one matches the constraint
    (by constant name or platform value) or inside a freshly inserted
    guard block otherwise; updates go immediately before every return
    of the dependency routine, unguarded, and before the closing brace
    when the routine has no return statement.

    The output contains the input lines unchanged and in order:
    deleting every inserted line restores the input byte-for-byte.
    """
    fmt = _formats(mode)
    asserts = _gather(thad_set.thads, lambda t: t.dependent.name)
    updates = _gather(thad_set.thads, lambda t: t.dependency.name)
    routines = list(dict.fromkeys([*asserts, *updates]))
    shapes = _scan_routines(source, set(routines))
    for name in routines:
        if name not in shapes:
            raise MissingRoutine(name)

    lines = source.split("\n")
    # inserted text keyed by the 1-based source line it must precede
    inserts: dict[int, list[str]] = {}

    def put(before_line: int, text_lines: Iterable[str]) -> None:
        inserts.setdefault(before_line, []).extend(text_lines)

    top = [] if fmt["include"] is None else [fmt["include"]]
    top.extend(_declarations(thad_set, fmt))
    if top:
        top.append("")
        put(1, top)

    for routine, thads in asserts.items():
        by_guard = _gather(thads, lambda t: t.dependent.discriminator_constraint)
        for shape in shapes[routine]:
            entry = shape.brace_line + 1
            for guard, group in by_guard.items():
                checks = [_check(thad, fmt) for thad in group]
                if guard is None:
                    put(entry, (shape.body_indent + c for c in checks))
                    continue
                site = next((g for g in shape.guards
                             if _guard_matches(g, guard, thad_set)), None)
                if site is not None:
                    put(site.brace_line + 1, (site.indent + c for c in checks))
                else:
                    param, const = guard
                    block = [shape.body_indent + f"if ({param} == {const}) {{"]
                    block.extend(shape.body_indent + "    " + c for c in checks)
                    block.append(shape.body_indent + "}")
                    put(entry, block)

    for routine, thads in updates.items():
        for shape in shapes[routine]:
            sites = shape.returns or [
                _ReturnSite(shape.close_line, shape.body_indent, None)
            ]
            for site in sites:
                put(site.line, (site.indent + text for thad in thads
                                for text in _updates(thad, fmt,
                                                     site.value_ident)))

    out: list[str] = []
    for lineno, text in enumerate(lines, start=1):
        out.extend(inserts.get(lineno, ()))
        out.append(text)
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Standalone wrapper
# ---------------------------------------------------------------------------

_PARAM_TYPES = {
    ParamRole.DESCRIPTOR: "int ",
    ParamRole.DISCRIMINATOR: "int ",
    ParamRole.OPAQUE: "void *",
}


def _matching_constants(const: str, thad_set: ThadSet) -> list[str]:
    """Constant names whose calls match a pattern over ``const`` once
    alias substitution is applied; empty if the pattern is dead."""
    aliases = thad_set.aliases
    out = [] if const in aliases else [const]
    out.extend(s for s in aliases if resolve_constant(s, aliases) == const)
    return out


def _guard_groups(
    thads: Iterable[Thad],
    side: Callable[[Thad], object],
    thad_set: ThadSet,
    body: Callable[[Thad], list[str]],
) -> list[str]:
    """``body`` of each dependency, one exact guard block per constraint
    of its pattern on ``side``, unguarded for an unconstrained one."""
    lines: list[str] = []
    by_guard = _gather(thads, lambda t: side(t).discriminator_constraint)
    for guard, group in by_guard.items():
        indent = "    "
        if guard is not None:
            param, const = guard
            names = _matching_constants(const, thad_set)
            cond = " || ".join(f"{param} == {n}" for n in names) or "0"
            lines.append(f"    if ({cond}) {{")
            indent = "        "
        lines.extend(indent + text for thad in group for text in body(thad))
        if guard is not None:
            lines.append("    }")
    return lines


def emit_wrapper(thad_set: ThadSet, mode: str = "acsl") -> str:
    """A self-contained forwarding wrapper carrying the set's
    instrumentation.

    Each declared routine asserts its dependencies on entry, forwards
    to an external ``__hal_<name>`` implementation, records its own
    completions, and returns the forwarded result.  Guards are exact:
    alias-aware constant disjunctions, with ``if (0)`` for patterns no
    call can match once aliases rewrite their constants.
    """
    fmt = _formats(mode)
    asserts = _gather(thad_set.thads, lambda t: t.dependent.name)
    updates = _gather(thad_set.thads, lambda t: t.dependency.name)
    lines = [
        "/* Call-order instrumentation wrapper.",
        " * Generated from a dependency set; do not edit by hand.",
        " */",
    ]
    if fmt["include"] is not None:
        lines += ["", fmt["include"]]
    declarations = _declarations(thad_set, fmt)
    if declarations:
        lines += ["", *declarations]

    for routine in thad_set.routines:
        params = ", ".join(f"{_PARAM_TYPES[p.role]}{p.name}"
                           for p in routine.params)
        lines += ["", f"int {routine.name}({params or 'void'}) {{"]
        lines += _guard_groups(asserts.get(routine.name, ()),
                               lambda t: t.dependent, thad_set,
                               lambda t: [_check(t, fmt)])
        args = ", ".join(p.name for p in routine.params)
        lines.append(f"    int ret = __hal_{routine.name}({args});")
        lines += _guard_groups(updates.get(routine.name, ()),
                               lambda t: t.dependency, thad_set,
                               lambda t: _updates(t, fmt, "ret"))
        lines += ["    return ret;", "}"]

    return "\n".join(lines) + "\n"
