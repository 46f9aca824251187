"""Reference interpreter for emitted wrapper text.

Replays a HAL call trace through the instrumentation carried by a
wrapper produced by :func:`thadc.annotate.emit_wrapper`, reporting
which dependencies' assertions fail.  This is the executable meaning
of the annotation, used to cross-check that the generated ghosts and
asserts encode exactly the trace semantics of the dependency set: an
assertion tagged ``d`` fails on some call of the trace if and only if
the trace does not satisfy ``d``.

Interpretation notes:

- The interpreter is line-driven over the wrapper's own output shapes
  (declarations, one guard nesting level, assert and update lines) and
  rejects anything else, so drift in the emitter shows up as a loud
  error rather than silently skipped statements.
- Unknown values never satisfy anything: an unresolved discriminator
  matches no guard, and a call without a descriptor token gets a fresh
  opaque value that compares equal to nothing else.
- A descriptor ghost assignment is a nondeterministic latch: the ghost
  accumulates every descriptor assigned to it, and the assert conjunct
  ``fd == fd_<id>`` holds when the parameter equals any of them.  This
  mirrors the existential quantifier of the trace semantics (some
  prior completion used this descriptor); a verifier reading the
  wrapper's plain assignment deterministically would keep the last
  write only and could report spurious failures when several
  descriptors are live at once.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Optional, Sequence

from thadc.model import CallEvent, ParamRole, ThadSet

__all__ = ["simulate_wrapper", "WrapperShapeError"]


class WrapperShapeError(ValueError):
    """The text does not look like an emitted wrapper."""


_GHOST_WRAP = re.compile(r"^/\*@\s*(ghost|assert)\s+(.*?);?\s*\*/$")
_STATE_DECL = re.compile(r"^int (state_\w+) = 0$")
_FD_DECL = re.compile(r"^int (fd_\w+)$")
_ASSIGN = re.compile(r"^(state_\w+|fd_\w+)\s*=\s*(\w+)$")
_ASSERT = re.compile(r"^assert\s*\((.*)\)$")
_ROUTINE = re.compile(r"^int (\w+)\((.*)\) \{$")
_GUARD = re.compile(r"^if \((.*)\) \{$")
_GUARD_TERM = re.compile(r"^(\w+) == (\w+)$")
_FORWARD = re.compile(r"^int ret = __hal_(\w+)\(.*\);$")
_COND = re.compile(r"^(\w+) == (\w+)$")


@dataclass(frozen=True)
class _Guard:
    # disjunction of param-equals-constant terms; () means `if (0)`
    terms: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class _Op:
    kind: str  # "assert" | "update"
    thad_id: str
    guard: Optional[_Guard]
    # assert: the parsed conditions; update: (ghost name, source text)
    conditions: tuple[tuple[str, str], ...] = ()
    target: str = ""
    source: str = ""


def _unwrap(line: str) -> Optional[str]:
    """Strip the annotation-comment shell: the inner statement text for
    ghost/assert comment lines, None for everything else."""
    m = _GHOST_WRAP.match(line)
    if not m:
        return None
    keyword, body = m.groups()
    body = body.strip()
    if keyword == "assert":
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1].strip()
        return f"assert({body})"
    return body


def _parse_guard(text: str) -> _Guard:
    if text.strip() == "0":
        return _Guard(())
    terms = []
    for part in text.split("||"):
        m = _GUARD_TERM.match(part.strip())
        if not m:
            raise WrapperShapeError(f"unrecognized guard term: {part.strip()!r}")
        terms.append((m.group(1), m.group(2)))
    return _Guard(tuple(terms))


def _thad_of(ghost: str) -> str:
    return ghost.split("_", 1)[1]


def _parse_assert_conditions(text: str) -> tuple[tuple[str, str], ...]:
    conds = []
    for part in text.split("&&"):
        m = _COND.match(part.strip())
        if not m:
            raise WrapperShapeError(f"unrecognized condition: {part.strip()!r}")
        conds.append((m.group(1), m.group(2)))
    return tuple(conds)


def _parse_wrapper(text: str):
    ghosts: dict[str, object] = {}
    ops: dict[str, list[_Op]] = {}
    routine: Optional[str] = None
    guard: Optional[_Guard] = None

    for raw in text.splitlines():
        line = raw.strip()
        inner = _unwrap(line)
        stmt = inner if inner is not None else line

        if routine is None:
            m = _ROUTINE.match(line)
            if m:
                routine = m.group(1)
                ops[routine] = []
                continue
            decl = inner if inner is not None else (
                line[:-1] if line.startswith("int ") and line.endswith(";")
                else None
            )
            if decl is not None:
                m = _STATE_DECL.match(decl) or _FD_DECL.match(decl)
                if not m:
                    raise WrapperShapeError(f"unrecognized declaration: {line!r}")
                ghosts[m.group(1)] = 0 if _STATE_DECL.match(decl) else None
            continue

        # inside a routine body
        if line == "}":
            if guard is not None:
                guard = None
            else:
                routine = None
            continue
        m = _GUARD.match(line)
        if m:
            if guard is not None:
                raise WrapperShapeError("nested guards are not emitted")
            guard = _parse_guard(m.group(1))
            continue
        if not stmt or _FORWARD.match(stmt) or stmt == "return ret;":
            continue
        m = _ASSERT.match(stmt.rstrip(";"))
        if m:
            conds = _parse_assert_conditions(m.group(1))
            state = next(
                (c for c in conds if c[0].startswith("state_")), None
            )
            if state is None:
                raise WrapperShapeError(f"assert without a state flag: {line!r}")
            ops[routine].append(
                _Op("assert", _thad_of(state[0]), guard, conditions=conds)
            )
            continue
        m = _ASSIGN.match(stmt.rstrip(";"))
        if m:
            target, source = m.groups()
            ops[routine].append(
                _Op("update", _thad_of(target), guard, target=target,
                    source=source)
            )
            continue
        raise WrapperShapeError(f"unrecognized wrapper line: {raw!r}")

    if routine is not None:
        raise WrapperShapeError(f"unterminated body of {routine}")
    return ghosts, ops


def _const_value(name: str, thad_set: ThadSet) -> Optional[int]:
    return thad_set.constants.get(name)


def simulate_wrapper(
    wrapper_text: str,
    trace: Sequence[CallEvent],
    thad_set: ThadSet,
) -> frozenset[str]:
    """Dependency ids whose assertions fail when the trace runs through
    the wrapper's instrumentation."""
    ghost_init, ops = _parse_wrapper(wrapper_text)
    routines = {r.name: r for r in thad_set.routines}

    fresh = (f"<opaque-{n}>" for n in itertools.count())
    states: dict[str, int] = {
        g: 0 for g, v in ghost_init.items() if v == 0
    }
    fd_choices: dict[str, set[object]] = {
        g: set() for g, v in ghost_init.items() if v is None
    }
    failed: set[str] = set()

    def guard_holds(guard: Optional[_Guard], scope) -> bool:
        if guard is None:
            return True
        for param, const in guard.terms:
            value = scope.get(param)
            if not isinstance(value, str):
                continue
            if value == const:
                return True
            v1 = _const_value(value, thad_set)
            v2 = _const_value(const, thad_set)
            if v1 is not None and v1 == v2:
                return True
        return False

    for ev in trace:
        spec = routines.get(ev.routine)
        if spec is None:
            raise WrapperShapeError(f"trace calls undeclared routine {ev.routine!r}")
        scope: dict[str, object] = {}
        for p in spec.params:
            if p.role is ParamRole.DESCRIPTOR:
                scope[p.name] = ev.descriptor_token or next(fresh)
            elif p.role is ParamRole.DISCRIMINATOR:
                scope[p.name] = (
                    ev.discriminator_value
                    if ev.discriminator_value is not None
                    else next(fresh)
                )
            else:
                scope[p.name] = next(fresh)
        scope["ret"] = ev.produced_token or next(fresh)

        for op in ops.get(ev.routine, ()):
            if not guard_holds(op.guard, scope):
                continue
            if op.kind == "update":
                if op.target in states:
                    states[op.target] = 1
                else:
                    fd_choices[op.target].add(scope.get(op.source, op.source))
            else:
                ok = True
                for left, right in op.conditions:
                    if left.startswith("state_"):
                        ok = ok and states[left] == int(right)
                    else:
                        ok = ok and scope.get(left) in fd_choices[right]
                if not ok:
                    failed.add(op.thad_id)

    return frozenset(failed)
