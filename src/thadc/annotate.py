"""Ghost-variable and assertion instrumentation for dependency sets.

Every dependency d gets one ghost state flag ``state_<id>`` (0 until a
call matching the dependency pattern completes, 1 afterwards), one
update ``state_<id> = 1;`` placed before each return of the dependency
routine, and one assertion ``state_<id> == 1`` at the entry of the
dependent routine, guarded by the discriminator comparison when the
dependent pattern is constrained.  A descriptor binding adds a second
ghost ``fd_<id>`` recording which descriptor the completed dependency
involved, and an equality conjunct in the assertion.

Two emission targets:

- :func:`emit_annotated_source` injects the instrumentation into an
  existing HAL implementation source as whole inserted lines, so
  deleting those lines restores the input byte-for-byte.  Updates are
  inserted unguarded before each return, matching the conventional
  hand-written shape; the standalone wrapper applies the precise
  guarded semantics instead.
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
from typing import Iterable, Literal, Optional, Sequence

from .minic import Token, c_int_value, tokenize
from .model import BindingSource, ParamRole, ThadSet, resolve_constant

__all__ = [
    "AnnotationError",
    "MissingRoutine",
    "GuardSpec",
    "GhostDecl",
    "GhostUpdate",
    "GhostAssert",
    "AnnotationPlan",
    "plan_annotations",
    "emit_annotated_source",
    "emit_wrapper",
    "MODES",
]

MODES = ("acsl", "assert")

Mode = Literal["acsl", "assert"]


class AnnotationError(Exception):
    pass


class MissingRoutine(AnnotationError):
    def __init__(self, routine: str):
        super().__init__(f"the source defines no routine named {routine!r}")
        self.routine = routine


# ---------------------------------------------------------------------------
# Plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GuardSpec:
    """A discriminator comparison, e.g. ``request == MSG``."""

    param: str
    const: str
    value: Optional[int] = None  # platform encoding, when known

    def text(self) -> str:
        return f"{self.param} == {self.const}"


@dataclass(frozen=True)
class GhostDecl:
    thad_id: str
    name: str
    kind: Literal["state", "fd"]  # state flags init to 0, fd ghosts undefined


@dataclass(frozen=True)
class GhostUpdate:
    """Ghost assignments placed before every return of ``routine``.

    ``guard`` carries the dependency pattern's constraint; the in-place
    emitter ignores it while the wrapper emitter enforces it.  A bound
    dependency also records the completed call's descriptor:  from the
    parameter ``fd_from_param``, or from the returned value when that
    field is None.
    """

    thad_id: str
    routine: str
    guard: Optional[GuardSpec]
    state_ghost: str
    fd_ghost: Optional[str] = None
    fd_from_param: Optional[str] = None


@dataclass(frozen=True)
class GhostAssert:
    """One assertion at the entry of ``routine``, optionally guarded."""

    thad_id: str
    routine: str
    guard: Optional[GuardSpec]
    state_ghost: str
    fd_ghost: Optional[str] = None
    fd_param: Optional[str] = None

    def conditions(self) -> tuple[str, ...]:
        out = (f"{self.state_ghost} == 1",)
        if self.fd_ghost is not None:
            out += (f"{self.fd_param} == {self.fd_ghost}",)
        return out


@dataclass(frozen=True)
class AnnotationPlan:
    ghost_decls: tuple[GhostDecl, ...]
    updates: tuple[GhostUpdate, ...]
    asserts: tuple[GhostAssert, ...]

    def __post_init__(self) -> None:
        names = [d.name for d in self.ghost_decls]
        if len(set(names)) != len(names):
            raise ValueError("ghost names must be unique")
        state_ids = [d.thad_id for d in self.ghost_decls if d.kind == "state"]
        if sorted(state_ids) != sorted(u.thad_id for u in self.updates):
            raise ValueError("one state ghost and one update per dependency")
        if sorted(state_ids) != sorted(a.thad_id for a in self.asserts):
            raise ValueError("one state ghost and one assert per dependency")

    def routines(self) -> list[str]:
        """Routine names the plan touches, in first-use order."""
        seen: dict[str, None] = {}
        for item in (*self.asserts, *self.updates):
            seen.setdefault(item.routine)
        return list(seen)


def _guard_of(pattern, constants) -> Optional[GuardSpec]:
    if pattern.discriminator_constraint is None:
        return None
    param, const = pattern.discriminator_constraint
    return GuardSpec(param, const, constants.get(const))


def plan_annotations(thad_set: ThadSet) -> AnnotationPlan:
    """The instrumentation plan for a dependency set, in set order."""
    decls: list[GhostDecl] = []
    updates: list[GhostUpdate] = []
    asserts: list[GhostAssert] = []
    for thad in thad_set.thads:
        state = f"state_{thad.id}"
        fd_ghost = f"fd_{thad.id}" if thad.binding is not None else None
        decls.append(GhostDecl(thad.id, state, "state"))
        if fd_ghost is not None:
            decls.append(GhostDecl(thad.id, fd_ghost, "fd"))
        fd_from_param = None
        if thad.binding is not None and thad.binding.source is BindingSource.PARAM:
            fd_from_param = thad.dependency.descriptor_param
        updates.append(
            GhostUpdate(
                thad.id,
                thad.dependency.name,
                _guard_of(thad.dependency, thad_set.constants),
                state,
                fd_ghost=fd_ghost,
                fd_from_param=fd_from_param,
            )
        )
        asserts.append(
            GhostAssert(
                thad.id,
                thad.dependent.name,
                _guard_of(thad.dependent, thad_set.constants),
                state,
                fd_ghost=fd_ghost,
                fd_param=(
                    thad.binding.target_param if thad.binding is not None else None
                ),
            )
        )
    return AnnotationPlan(tuple(decls), tuple(updates), tuple(asserts))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

class _Acsl:
    include: Optional[str] = None

    @staticmethod
    def decl(d: GhostDecl) -> str:
        if d.kind == "state":
            return f"/*@ ghost int {d.name} = 0; */"
        return f"/*@ ghost int {d.name}; */"

    @staticmethod
    def assign(name: str, value: str) -> str:
        return f"/*@ ghost {name} = {value}; */"

    @staticmethod
    def check(conditions: Sequence[str]) -> str:
        return f"/*@ assert ({' && '.join(conditions)}); */"


class _Assert:
    include: Optional[str] = "#include <assert.h>"

    @staticmethod
    def decl(d: GhostDecl) -> str:
        if d.kind == "state":
            return f"int {d.name} = 0;"
        return f"int {d.name};"

    @staticmethod
    def assign(name: str, value: str) -> str:
        return f"{name} = {value};"

    @staticmethod
    def check(conditions: Sequence[str]) -> str:
        return f"assert({' && '.join(conditions)});"


_RENDER = {"acsl": _Acsl, "assert": _Assert}


def _renderer(mode: str):
    try:
        return _RENDER[mode]
    except KeyError:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


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
    close_line: int
    body_indent: str
    returns: list[_ReturnSite] = field(default_factory=list)
    guards: list[_GuardSite] = field(default_factory=list)


def _lex(source: str) -> list[Token]:
    return tokenize(source)[0][:-1]  # without the EOF token


def _line_indent(lines: list[str], lineno: int) -> str:
    text = lines[lineno - 1]
    return text[: len(text) - len(text.lstrip())]


def _only_token_on_line_start(lines: list[str], tok: Token) -> bool:
    return lines[tok.line - 1][: tok.col - 1].strip() == ""


def _line_ends_after(lines: list[str], tok: Token, width: int) -> bool:
    return lines[tok.line - 1][tok.col - 1 + width:].strip() == ""


def _scan_routines(source: str, wanted: set[str]) -> dict[str, _RoutineShape]:
    """Locate each wanted routine's body, returns, and entry guards.

    Works on the token stream (comments and strings already out of the
    way) while reporting positions in source lines.  Only shapes this
    injector can instrument are accepted: the body's opening brace ends
    its line, and every return starts its own line.
    """
    lines = source.split("\n")
    tokens = _lex(source)
    shapes: dict[str, _RoutineShape] = {}
    depth = 0
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.text == "{":
            depth += 1
        elif tok.text == "}":
            depth -= 1
        elif (
            depth == 0
            and tok.kind == "IDENT"
            and i + 1 < len(tokens)
            and tokens[i + 1].text == "("
        ):
            j = _match_paren(tokens, i + 1)
            if j is not None and j + 1 < len(tokens) and tokens[j + 1].text == "{":
                if tok.text in wanted:
                    shape, i = _scan_body(tok.text, tokens, j + 1, lines)
                    shapes[tok.text] = shape
                    continue
                depth += 1
                i = j + 2
                continue
        i += 1
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


def _scan_body(
    name: str, tokens: list[Token], brace_idx: int, lines: list[str]
) -> tuple[_RoutineShape, int]:
    brace = tokens[brace_idx]
    if not _line_ends_after(lines, brace, 1):
        raise AnnotationError(
            f"line {brace.line}: the body of {name} must start on the line "
            "after its opening brace"
        )
    shape = _RoutineShape(
        name,
        brace_line=brace.line,
        close_line=0,
        body_indent=_line_indent(lines, brace.line) + "    ",
    )
    depth = 1
    i = brace_idx + 1
    while i < len(tokens):
        tok = tokens[i]
        if tok.text == "{":
            depth += 1
        elif tok.text == "}":
            depth -= 1
            if depth == 0:
                shape.close_line = tok.line
                return shape, i + 1
        elif tok.kind == "IDENT" and tok.text == "return":
            if not _only_token_on_line_start(lines, tok):
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
    raise AnnotationError(f"unterminated body of {name}")


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

def _guard_matches(site: _GuardSite, guard: GuardSpec) -> bool:
    if site.param != guard.param:
        return False
    if site.const_text == guard.const:
        return True
    return site.const_value is not None and site.const_value == guard.value


def emit_annotated_source(
    plan: AnnotationPlan, hal_source: str, mode: Mode = "acsl"
) -> str:
    """Inject the plan into a HAL implementation as whole new lines.

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
    render = _renderer(mode)
    shapes = _scan_routines(hal_source, set(plan.routines()))
    for name in plan.routines():
        if name not in shapes:
            raise MissingRoutine(name)

    lines = hal_source.split("\n")
    # inserted text keyed by the 1-based source line it must precede
    inserts: dict[int, list[str]] = {}

    def put(before_line: int, text_lines: Iterable[str]) -> None:
        inserts.setdefault(before_line, []).extend(text_lines)

    top: list[str] = []
    if render.include is not None:
        top.append(render.include)
    top.extend(render.decl(d) for d in plan.ghost_decls)
    if top:
        top.append("")
        put(1, top)

    for routine, group in _gather(plan.asserts, key=lambda a: a.routine):
        shape = shapes[routine]
        entry = shape.brace_line + 1
        for guard, sub in _gather(group, key=lambda a: a.guard):
            if guard is None:
                put(entry, (shape.body_indent + render.check(a.conditions())
                            for a in sub))
                continue
            site = next(
                (g for g in shape.guards if _guard_matches(g, guard)), None
            )
            if site is not None:
                put(site.brace_line + 1,
                    (site.indent + render.check(a.conditions()) for a in sub))
            else:
                block = [shape.body_indent + f"if ({guard.text()}) {{"]
                block.extend(
                    shape.body_indent + "    " + render.check(a.conditions())
                    for a in sub
                )
                block.append(shape.body_indent + "}")
                put(entry, block)

    for routine, group in _gather(plan.updates, key=lambda u: u.routine):
        shape = shapes[routine]
        sites = shape.returns or [
            _ReturnSite(shape.close_line, shape.body_indent, None)
        ]
        for site in sites:
            stmts: list[str] = []
            for u in group:
                stmts.append(site.indent + render.assign(u.state_ghost, "1"))
                if u.fd_ghost is not None:
                    source = u.fd_from_param or site.value_ident
                    if source is None:
                        raise AnnotationError(
                            f"cannot record the descriptor for {u.thad_id}: "
                            f"a return in {routine} does not return a plain "
                            "variable"
                        )
                    stmts.append(site.indent + render.assign(u.fd_ghost, source))
            put(site.line, stmts)

    out: list[str] = []
    for lineno, text in enumerate(lines, start=1):
        out.extend(inserts.get(lineno, ()))
        out.append(text)
    return "\n".join(out)


def _gather(items, key):
    """Group items by key, one group per key, ordered by first use."""
    groups: dict[object, list] = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return list(groups.items())


# ---------------------------------------------------------------------------
# Standalone wrapper
# ---------------------------------------------------------------------------

_PARAM_TYPES = {
    ParamRole.DESCRIPTOR: "int",
    ParamRole.DISCRIMINATOR: "int",
    ParamRole.OPAQUE: "void *",
}


def _matching_constants(const: str, thad_set: ThadSet) -> list[str]:
    """Constant names whose calls match a pattern over ``const`` once
    alias substitution is applied; empty if the pattern is dead."""
    aliases = thad_set.aliases
    out = [] if const in aliases else [const]
    out.extend(s for s in aliases if resolve_constant(s, aliases) == const)
    return out


def _wrapper_guard(guard: Optional[GuardSpec], thad_set: ThadSet) -> Optional[str]:
    if guard is None:
        return None
    names = _matching_constants(guard.const, thad_set)
    if not names:
        return "0"
    return " || ".join(f"{guard.param} == {n}" for n in names)


def emit_wrapper(thad_set: ThadSet, mode: Mode = "acsl") -> str:
    """A self-contained forwarding wrapper carrying the full plan.

    Each declared routine asserts its dependencies on entry, forwards
    to an external ``__hal_<name>`` implementation, records its own
    completions, and returns the forwarded result.  Guards are exact:
    alias-aware constant disjunctions, with ``if (0)`` for patterns no
    call can match once aliases rewrite their constants.
    """
    render = _renderer(mode)
    plan = plan_annotations(thad_set)
    lines = [
        "/* Call-order instrumentation wrapper.",
        " * Generated from a dependency set; do not edit by hand.",
        " */",
    ]
    if render.include is not None:
        lines += ["", render.include]
    if plan.ghost_decls:
        lines.append("")
        lines.extend(render.decl(d) for d in plan.ghost_decls)

    for routine in thad_set.routines:
        params = ", ".join(
            f"{_PARAM_TYPES[p.role]}{'' if _PARAM_TYPES[p.role].endswith('*') else ' '}{p.name}"
            for p in routine.params
        )
        lines += ["", f"int {routine.name}({params or 'void'}) {{"]

        route_asserts = [a for a in plan.asserts if a.routine == routine.name]
        for guard, sub in _gather(route_asserts, key=lambda a: a.guard):
            cond = _wrapper_guard(guard, thad_set)
            if cond is None:
                lines.extend(
                    "    " + render.check(a.conditions()) for a in sub
                )
            else:
                lines.append(f"    if ({cond}) {{")
                lines.extend(
                    "        " + render.check(a.conditions()) for a in sub
                )
                lines.append("    }")

        args = ", ".join(p.name for p in routine.params)
        lines.append(f"    int ret = __hal_{routine.name}({args});")

        route_updates = [u for u in plan.updates if u.routine == routine.name]
        for guard, sub in _gather(route_updates, key=lambda u: u.guard):
            cond = _wrapper_guard(guard, thad_set)
            indent = "    " if cond is None else "        "
            if cond is not None:
                lines.append(f"    if ({cond}) {{")
            for u in sub:
                lines.append(indent + render.assign(u.state_ghost, "1"))
                if u.fd_ghost is not None:
                    lines.append(
                        indent
                        + render.assign(u.fd_ghost, u.fd_from_param or "ret")
                    )
            if cond is not None:
                lines.append("    }")

        lines += ["    return ret;", "}"]

    return "\n".join(lines) + "\n"
