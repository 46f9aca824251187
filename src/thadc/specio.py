"""Reading and writing dependency specifications.

The on-disk format is line-oriented, one concept per line::

    # comment (also allowed after a line)
    routine open(path, oflag) returns descriptor
    routine ioctl(fd:descriptor, request:discriminator, arg)
    dep d3: ioctl[request=MSG] requires open
    bind d3: open.return -> ioctl.fd
    alias WR_MODE satisfies WR_MODE32

Platform constant encodings live in a separate ``.consts`` file
(``NAME = integer`` lines) because they are header- and platform-specific
while the dependencies themselves are not.  The two bundled files describe
the Linux SPI userspace device interface ("spidev"): five routines and 26
dependencies over them, plus the legacy-mode alias.

Parsing collects every problem it can find as a diagnostic with line
and column instead of stopping at the first, then raises
:class:`SpecError` carrying them all, sorted by position.
"""

from __future__ import annotations

import re
from importlib import resources
from typing import Mapping, Optional

from .diagnostics import Diagnostic, DiagnosticError
from .minic import c_int_value
from .model import (
    BindingSource,
    DescriptorBinding,
    Param,
    ParamRole,
    RoutineSpec,
    Thad,
    ThadSet,
)

__all__ = [
    "Diagnostic",
    "SpecError",
    "parse_thad_spec",
    "parse_constants",
    "serialize_spec",
    "binding_source",
    "load_spec",
    "bundled_spidev",
    "bundled_data_path",
]


class SpecError(DiagnosticError):
    """Raised when a specification file does not parse cleanly."""


_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_ROUTINE_RE = re.compile(
    rf"routine\s+(?P<name>{_IDENT})\s*\((?P<params>[^)]*)\)\s*"
    rf"(?P<ret>returns\s+descriptor)?\s*$"
)
_DEP_RE = re.compile(
    rf"dep\s+(?P<id>{_IDENT})\s*:\s*(?P<dependent>[^\s]+)\s+requires\s+"
    rf"(?P<dependency>[^\s]+)\s*$"
)
_PATTERN_RE = re.compile(
    rf"(?P<name>{_IDENT})(\[(?P<param>{_IDENT})=(?P<const>{_IDENT})\])?$"
)
_BIND_RE = re.compile(
    rf"bind\s+(?P<id>{_IDENT})\s*:\s*(?P<src_r>{_IDENT})\.(?P<src_p>{_IDENT})"
    rf"\s*->\s*(?P<dst_r>{_IDENT})\.(?P<dst_p>{_IDENT})\s*$"
)
_ALIAS_RE = re.compile(
    rf"alias\s+(?P<src>{_IDENT})\s+satisfies\s+(?P<dst>{_IDENT})\s*$"
)
_CONST_RE = re.compile(rf"(?P<name>{_IDENT})\s*=\s*(?P<value>-?(?:0[xX][0-9a-fA-F]+|\d+))\s*$")


def _strip_comment(raw: str) -> str:
    cut = raw.find("#")
    return raw if cut < 0 else raw[:cut]


def parse_thad_spec(
    text: str,
    known_constants: Optional[Mapping[str, int]] = None,
    path: str = "<spec>",
) -> ThadSet:
    """Parse a dependency spec; raise :class:`SpecError` carrying every
    diagnostic, sorted by position, if there is any."""
    diags: list[Diagnostic] = []
    routines: list[RoutineSpec] = []
    routine_lines: dict[str, int] = {}
    # (line, id, dependent text, dependency text)
    dep_lines: list[tuple[int, str, str, str]] = []
    dep_ids: dict[str, int] = {}
    binds: dict[str, tuple[int, str, str, str, str]] = {}
    aliases: dict[str, str] = {}
    # source constant -> (line, source column, target column) of its alias
    alias_at: dict[str, tuple[int, int, int]] = {}
    used_constants: list[str] = []

    def err(line: int, col: int, message: str, code: str = "syntax") -> None:
        diags.append(Diagnostic(line, col, message, code))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        keyword = line.split(None, 1)[0]
        if keyword == "routine":
            m = _ROUTINE_RE.match(line)
            if not m:
                err(lineno, 1, "cannot parse routine declaration")
                continue
            name = m.group("name")
            if name in routine_lines:
                err(
                    lineno,
                    raw.find(name) + 1,
                    f"routine {name} already declared on line {routine_lines[name]}",
                    "duplicate-id",
                )
                continue
            params: list[Param] = []
            bad = False
            params_text = m.group("params").strip()
            items = [p.strip() for p in params_text.split(",")] if params_text else []
            for item in items:
                pm = re.match(rf"({_IDENT})(?::({_IDENT}))?$", item)
                role_names = {r.value: r for r in ParamRole}
                if not pm or (pm.group(2) and pm.group(2) not in role_names):
                    err(lineno, raw.find(item) + 1, f"cannot parse param {item!r}")
                    bad = True
                    break
                role = role_names[pm.group(2)] if pm.group(2) else ParamRole.OPAQUE
                params.append(Param(pm.group(1), role))
            if bad:
                continue
            try:
                routines.append(
                    RoutineSpec(
                        name,
                        tuple(params),
                        returns_descriptor=m.group("ret") is not None,
                    )
                )
            except ValueError as e:
                err(lineno, 1, str(e))
                continue
            routine_lines[name] = lineno
        elif keyword == "dep":
            m = _DEP_RE.match(line)
            if not m:
                err(lineno, 1, "cannot parse dependency line")
                continue
            dep_id = m.group("id")
            if dep_id in dep_ids:
                err(
                    lineno,
                    raw.find(dep_id) + 1,
                    f"dependency {dep_id} already declared on line {dep_ids[dep_id]}",
                    "duplicate-id",
                )
                continue
            dep_ids[dep_id] = lineno
            dep_lines.append((lineno, dep_id, m.group("dependent"), m.group("dependency")))
        elif keyword == "bind":
            m = _BIND_RE.match(line)
            if not m:
                err(lineno, 1, "cannot parse bind line")
                continue
            bind_id = m.group("id")
            if bind_id in binds:
                err(lineno, 1, f"duplicate bind for {bind_id}", "duplicate-id")
                continue
            binds[bind_id] = (
                lineno,
                m.group("src_r"),
                m.group("src_p"),
                m.group("dst_r"),
                m.group("dst_p"),
            )
        elif keyword == "alias":
            m = _ALIAS_RE.match(line)
            if not m:
                err(lineno, 1, "cannot parse alias line")
                continue
            src, dst = m.group("src"), m.group("dst")
            if src in aliases:
                err(lineno, 1, f"duplicate alias for {src}", "duplicate-id")
                continue
            aliases[src] = dst
            indent = len(raw) - len(raw.lstrip())
            alias_at[src] = (lineno, indent + m.start("src") + 1,
                             indent + m.start("dst") + 1)
            used_constants.extend((src, dst))
        else:
            err(lineno, 1, f"unknown directive {keyword!r}")

    by_name = {r.name: r for r in routines}

    def parse_pattern(text_: str, lineno: int, raw_col: int) -> Optional[RoutineSpec]:
        m = _PATTERN_RE.match(text_)
        if not m:
            err(lineno, raw_col, f"cannot parse routine pattern {text_!r}")
            return None
        decl = by_name.get(m.group("name"))
        if decl is None:
            err(
                lineno,
                raw_col,
                f"unknown routine {m.group('name')!r}",
                "unknown-routine",
            )
            return None
        if m.group("const") is None:
            return decl
        const = m.group("const")
        used_constants.append(const)
        if known_constants is not None and const not in known_constants:
            err(
                lineno,
                raw_col,
                f"unknown constant {const!r}",
                "unknown-constant",
            )
            return None
        if decl.discriminator_param != m.group("param"):
            err(
                lineno,
                raw_col,
                f"{decl.name!r} has no discriminator param {m.group('param')!r}",
            )
            return None
        return decl.with_constraint(const)

    thads: list[Thad] = []
    for lineno, dep_id, dependent_text, dependency_text in dep_lines:
        dependent = parse_pattern(dependent_text, lineno, 1)
        dependency = parse_pattern(dependency_text, lineno, 1)
        if dependent is None or dependency is None:
            continue
        binding = None
        if dep_id in binds:
            bline, src_r, src_p, dst_r, dst_p = binds.pop(dep_id)
            ok = True
            if src_r != dependency.name:
                err(bline, 1, f"bind source {src_r!r} is not the dependency routine")
                ok = False
            if dst_r != dependent.name:
                err(bline, 1, f"bind target {dst_r!r} is not the dependent routine")
                ok = False
            if src_p not in ("return",) and src_p != dependency.descriptor_param:
                err(
                    bline,
                    1,
                    f"bind source must be {dependency.name}.return or its "
                    "descriptor param",
                )
                ok = False
            if not ok:
                continue
            source = (
                BindingSource.RETURN_VALUE if src_p == "return" else BindingSource.PARAM
            )
            binding = DescriptorBinding(source, dst_p)
        try:
            thads.append(
                Thad(dep_id, dependency=dependency, dependent=dependent, binding=binding)
            )
        except ValueError as e:
            err(lineno, 1, str(e))

    for bind_id, (bline, *_rest) in binds.items():
        err(bline, 1, f"bind references unknown dependency {bind_id!r}", "unknown-id")

    for src, dst in aliases.items():
        line, src_col, dst_col = alias_at[src]
        if known_constants is not None:
            for name, col in ((src, src_col), (dst, dst_col)):
                if name not in known_constants:
                    err(line, col, f"unknown constant {name!r} in alias",
                        "unknown-constant")
    # Walk the chain from every alias; each cycle is reported once, at
    # the alias of the name where the first walk to reach it closes it.
    in_cycles: set[str] = set()
    for src in aliases:
        chain = [src]
        name = aliases[src]
        while name in aliases and name not in chain:
            chain.append(name)
            name = aliases[name]
        if name in chain and name not in in_cycles:
            in_cycles.update(chain[chain.index(name):])
            line, src_col, _ = alias_at[name]
            err(line, src_col, f"alias cycle through {name!r}")

    if diags:
        diags.sort(key=lambda d: (d.line, d.column))
        raise SpecError(diags, path)

    constants: dict[str, Optional[int]] = {}
    if known_constants is not None:
        constants.update(known_constants)
    for name in used_constants:
        constants.setdefault(name, None)

    try:
        return ThadSet(
            routines=tuple(routines),
            thads=tuple(thads),
            constants=constants,
            aliases=aliases,
        )
    except ValueError as e:
        raise SpecError([Diagnostic(0, 0, str(e))], path) from None


def parse_constants(text: str, path: str = "<consts>") -> dict[str, int]:
    """Parse a ``NAME = integer`` constants table."""
    diags: list[Diagnostic] = []
    values: dict[str, int] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        m = _CONST_RE.match(line)
        if not m:
            diags.append(Diagnostic(lineno, 1, "cannot parse constant line"))
            continue
        name, literal = m.group("name", "value")
        value = c_int_value(literal.lstrip("-"))
        if value is None:
            column = len(raw) - len(raw.lstrip()) + m.start("value") + 1
            diags.append(Diagnostic(
                lineno, column, f"invalid integer literal {literal!r}"))
            continue
        if literal.startswith("-"):
            value = -value
        if name in values and values[name] != value:
            diags.append(
                Diagnostic(
                    lineno,
                    1,
                    f"constant {name} already set to {values[name]} on line "
                    f"{lines[name]}",
                    "conflicting-constant",
                )
            )
            continue
        values[name] = value
        lines.setdefault(name, lineno)
    if diags:
        raise SpecError(diags, path)
    return values


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _param_text(p: Param) -> str:
    if p.role is ParamRole.OPAQUE:
        return p.name
    return f"{p.name}:{p.role.value}"


def binding_source(thad: Thad) -> str:
    """Where a bound dependency takes its descriptor, as a spec spells
    it: ``open.return`` or ``ioctl.fd``."""
    if thad.binding.source is BindingSource.RETURN_VALUE:
        return f"{thad.dependency.name}.return"
    return f"{thad.dependency.name}.{thad.dependency.descriptor_param}"


def serialize_spec(thad_set: ThadSet) -> str:
    """Render a set back to spec syntax.

    Constants values are not emitted (they belong to the ``.consts``
    companion), so the round trip is
    ``parse_thad_spec(serialize_spec(s), known_constants=s.constants) == s``.
    """
    sections: list[str] = []
    if thad_set.routines:
        lines = []
        for r in thad_set.routines:
            params = ", ".join(_param_text(p) for p in r.params)
            suffix = " returns descriptor" if r.returns_descriptor else ""
            lines.append(f"routine {r.name}({params}){suffix}")
        sections.append("\n".join(lines))
    if thad_set.thads:
        lines = []
        for t in thad_set.thads:
            lines.append(
                f"dep {t.id}: {t.dependent.describe()} requires "
                f"{t.dependency.describe()}"
            )
        for t in thad_set.thads:
            if t.binding is None:
                continue
            lines.append(
                f"bind {t.id}: {binding_source(t)} -> "
                f"{t.dependent.name}.{t.binding.target_param}"
            )
        sections.append("\n".join(lines))
    if thad_set.aliases:
        lines = [
            f"alias {src} satisfies {dst}"
            for src, dst in sorted(thad_set.aliases.items())
        ]
        sections.append("\n".join(lines))
    if not sections:
        return ""
    return "\n\n".join(sections) + "\n"


# ---------------------------------------------------------------------------
# Bundled files
# ---------------------------------------------------------------------------

def bundled_data_path(name: str):
    """Path-like handle to a file shipped inside the package."""
    return resources.files("thadc").joinpath("data").joinpath(name)


def load_spec(spec_text: str, consts_text: Optional[str] = None,
              spec_path: str = "<spec>", consts_path: str = "<consts>") -> ThadSet:
    """Parse a spec together with its optional constants table."""
    constants = parse_constants(consts_text, consts_path) if consts_text else None
    return parse_thad_spec(spec_text, constants, spec_path)


def bundled_spidev() -> ThadSet:
    """The SPI userspace device interface spec shipped with the package."""
    spec_text = bundled_data_path("spidev.thad").read_text(encoding="utf-8")
    consts_text = bundled_data_path("spidev-linux.consts").read_text(encoding="utf-8")
    return load_spec(spec_text, consts_text, "spidev.thad", "spidev-linux.consts")
