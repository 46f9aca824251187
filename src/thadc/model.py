"""Call-order dependencies between HAL routines, and their trace semantics.

A *dependency* says: a call matching one routine pattern (the dependent)
must be preceded by a completed call matching another pattern (the
dependency).  Patterns are routine names plus, for generic multiplexed
routines like ``ioctl``, an equality constraint on the discriminating
argument (``request == WR_MODE32``).  A dependency may additionally bind
the two calls through a descriptor value: the file descriptor returned
by ``open`` must be the one passed to ``read``.

This module defines the vocabulary (routines, dependencies, call events)
and the reference semantics over finite call traces.  Everything else in
the package is judged against :func:`trace_satisfies`: the static checker
must agree with it on every program path, and the generated ghost-variable
annotation must fail an assert exactly where it returns False.

Semantics notes, fixed here once for the whole package:

- "Completed" means the call returned; error return values do not undo a
  completion, and descriptors are never invalidated (close-then-reopen is
  out of scope).
- Dependencies without a binding ignore descriptor values entirely.
- An alias table may declare that one platform constant stands in for
  another (a legacy ``WR_MODE`` request satisfies anything stated over
  ``WR_MODE32``).  Aliasing rewrites the *event*: an event carrying an
  aliased constant is matched as if it carried the target constant, and a
  pattern written over the aliased constant itself matches nothing.  The
  substitution is one-directional.

All types are immutable values; instances can be shared freely between
concurrent analyses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional, Sequence

__all__ = [
    "ParamRole",
    "Param",
    "RoutineSpec",
    "BindingSource",
    "DescriptorBinding",
    "Thad",
    "CallEvent",
    "ThadSet",
    "resolve_constant",
    "match_event",
    "natural_key",
    "dependency_token",
    "trace_satisfies",
]

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class ParamRole(Enum):
    """What a routine parameter means to the checker."""

    DESCRIPTOR = "descriptor"
    DISCRIMINATOR = "discriminator"
    OPAQUE = "opaque"


@dataclass(frozen=True)
class Param:
    name: str
    role: ParamRole = ParamRole.OPAQUE


@dataclass(frozen=True)
class RoutineSpec:
    """A routine pattern: a HAL routine name, its parameter roles, and an
    optional discriminator constraint.

    Without a constraint the pattern matches every call of the routine;
    with ``discriminator_constraint = ("request", "MSG")`` it matches only
    calls whose discriminating argument resolves to that constant.  The
    unconstrained form doubles as the routine's declaration inside a
    :class:`ThadSet`.
    """

    name: str
    params: tuple[Param, ...] = ()
    returns_descriptor: bool = False
    discriminator_constraint: Optional[tuple[str, str]] = None

    def __post_init__(self) -> None:
        if not _IDENT.match(self.name):
            raise ValueError(f"routine name {self.name!r} is not a C identifier")
        descriptors = [p for p in self.params if p.role is ParamRole.DESCRIPTOR]
        if len(descriptors) > 1:
            raise ValueError(f"routine {self.name} has more than one descriptor param")
        discriminators = [p for p in self.params if p.role is ParamRole.DISCRIMINATOR]
        if len(discriminators) > 1:
            raise ValueError(f"routine {self.name} has more than one discriminator param")
        if self.discriminator_constraint is not None:
            pname, const = self.discriminator_constraint
            roles = {p.name: p.role for p in self.params}
            if roles.get(pname) is not ParamRole.DISCRIMINATOR:
                raise ValueError(
                    f"constraint on {self.name}.{pname}, which is not a discriminator param"
                )
            if not _IDENT.match(const):
                raise ValueError(f"constraint constant {const!r} is not an identifier")

    # -- convenience -------------------------------------------------------

    @property
    def descriptor_param(self) -> Optional[str]:
        for p in self.params:
            if p.role is ParamRole.DESCRIPTOR:
                return p.name
        return None

    @property
    def discriminator_param(self) -> Optional[str]:
        for p in self.params:
            if p.role is ParamRole.DISCRIMINATOR:
                return p.name
        return None

    def with_constraint(self, const: str) -> "RoutineSpec":
        """The same routine, constrained to one discriminator constant."""
        pname = self.discriminator_param
        if pname is None:
            raise ValueError(f"routine {self.name} has no discriminator param")
        return RoutineSpec(
            name=self.name,
            params=self.params,
            returns_descriptor=self.returns_descriptor,
            discriminator_constraint=(pname, const),
        )

    def base(self) -> "RoutineSpec":
        """The unconstrained declaration form of this pattern."""
        if self.discriminator_constraint is None:
            return self
        return RoutineSpec(self.name, self.params, self.returns_descriptor)

    def describe(self) -> str:
        """Short human form, e.g. ``ioctl[request=MSG]``."""
        if self.discriminator_constraint is None:
            return self.name
        pname, const = self.discriminator_constraint
        return f"{self.name}[{pname}={const}]"


class BindingSource(Enum):
    """Where the descriptor that links the two calls comes from, on the
    dependency side: the call's return value, or its descriptor param."""

    RETURN_VALUE = "return"
    PARAM = "param"


@dataclass(frozen=True)
class DescriptorBinding:
    source: BindingSource
    target_param: str


@dataclass(frozen=True)
class Thad:
    """One must-precede dependency: ``dependent`` requires ``dependency``."""

    id: str
    dependency: RoutineSpec
    dependent: RoutineSpec
    binding: Optional[DescriptorBinding] = None

    def __post_init__(self) -> None:
        if not _IDENT.match(self.id):
            raise ValueError(f"dependency id {self.id!r} is not an identifier")
        if (
            self.dependency.name == self.dependent.name
            and self.dependency.discriminator_constraint
            == self.dependent.discriminator_constraint
        ):
            raise ValueError(f"{self.id}: a routine pattern cannot depend on itself")
        if self.binding is not None:
            target = self.binding.target_param
            roles = {p.name: p.role for p in self.dependent.params}
            if roles.get(target) is not ParamRole.DESCRIPTOR:
                raise ValueError(
                    f"{self.id}: binding target {target!r} is not a descriptor "
                    f"param of {self.dependent.name}"
                )
            if (
                self.binding.source is BindingSource.PARAM
                and self.dependency.descriptor_param is None
            ):
                raise ValueError(
                    f"{self.id}: binding source is a param but {self.dependency.name} "
                    "has no descriptor param"
                )
            if (
                self.binding.source is BindingSource.RETURN_VALUE
                and not self.dependency.returns_descriptor
            ):
                raise ValueError(
                    f"{self.id}: binding source is the return value but "
                    f"{self.dependency.name} does not return a descriptor"
                )

    def describe(self) -> str:
        return f"{self.id}: {self.dependent.describe()} requires {self.dependency.describe()}"


@dataclass(frozen=True)
class CallEvent:
    """One HAL call in a trace.

    ``discriminator_value`` / ``descriptor_token`` are None either when the
    routine has no such parameter or when static resolution failed; the
    ``*_unknown`` flags distinguish the second case.  ``produced_token``
    is set exactly on calls of routines that return a descriptor.
    """

    routine: str
    discriminator_value: Optional[str] = None
    descriptor_token: Optional[str] = None
    produced_token: Optional[str] = None
    discriminator_unknown: bool = False
    descriptor_unknown: bool = False

    def describe(self) -> str:
        if self.discriminator_value is not None:
            return f"{self.routine}[{self.discriminator_value}]"
        if self.discriminator_unknown:
            return f"{self.routine}[?]"
        return self.routine


@dataclass(frozen=True)
class ThadSet:
    """A set of routine declarations, dependencies, constants and aliases.

    ``constants`` maps constant names to their platform integer encoding;
    a None value means the name was declared by use in the dependency file
    and no encoding has been supplied yet (values only matter when program
    arguments are resolved against the platform constants table).
    """

    routines: tuple[RoutineSpec, ...] = ()
    thads: tuple[Thad, ...] = ()
    constants: Mapping[str, Optional[int]] = field(default_factory=dict)
    aliases: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [r.name for r in self.routines]
        if len(names) != len(set(names)):
            raise ValueError("duplicate routine declaration")
        for r in self.routines:
            if r.discriminator_constraint is not None:
                raise ValueError(f"declaration of {r.name} carries a constraint")
        ids = [t.id for t in self.thads]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate dependency id")
        by_name = {r.name: r for r in self.routines}
        for t in self.thads:
            for side in (t.dependency, t.dependent):
                decl = by_name.get(side.name)
                if decl is None:
                    raise ValueError(f"{t.id}: unknown routine {side.name!r}")
                if side.base() != decl:
                    raise ValueError(
                        f"{t.id}: pattern for {side.name} disagrees with its declaration"
                    )
                c = side.discriminator_constraint
                if c is not None and c[1] not in self.constants:
                    raise ValueError(f"{t.id}: unknown constant {c[1]!r}")
        for src, dst in self.aliases.items():
            if src == dst:
                raise ValueError(f"alias {src} -> itself")
            for name in (src, dst):
                if name not in self.constants:
                    raise ValueError(f"alias references unknown constant {name!r}")
        for src in self.aliases:
            resolve_constant(src, self.aliases)  # raises on cycles

    # -- lookups -----------------------------------------------------------

    def routine(self, name: str) -> RoutineSpec:
        for r in self.routines:
            if r.name == name:
                return r
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Trace semantics
# ---------------------------------------------------------------------------

def resolve_constant(name: str, aliases: Optional[Mapping[str, str]]) -> str:
    """Follow the alias chain from ``name`` to its canonical constant."""
    if not aliases:
        return name
    seen = {name}
    while name in aliases:
        name = aliases[name]
        if name in seen:
            raise ValueError(f"alias cycle through {name!r}")
        seen.add(name)
    return name


def match_event(
    spec: RoutineSpec,
    ev: CallEvent,
    aliases: Optional[Mapping[str, str]] = None,
) -> bool:
    """Does ``ev`` match the routine pattern ``spec``?

    True iff the names agree and, when the pattern is constrained, the
    event's discriminator constant resolves (through ``aliases``) to the
    constraint constant.  An event with an unknown discriminator never
    matches a constrained pattern here; possibly-matching treatment is the
    checker's business, not the trace semantics'.
    """
    if spec.name != ev.routine:
        return False
    constraint = spec.discriminator_constraint
    if constraint is None:
        return True
    if ev.discriminator_value is None:
        return False
    return resolve_constant(ev.discriminator_value, aliases) == constraint[1]


def natural_key(thad_id: str) -> tuple:
    """Sort key for dependency ids: digit runs compare as numbers, so
    ``d2`` sorts before ``d10`` and ``a10`` before ``b2``."""
    parts = re.split(r"(\d+)", thad_id)
    return tuple(int(p) if p.isdigit() else p for p in parts)


def dependency_token(thad: Thad, ev: CallEvent) -> Optional[str]:
    """The descriptor token a dependency call ``ev`` completes for the
    bound dependency ``thad``: its return value or its descriptor."""
    assert thad.binding is not None
    if thad.binding.source is BindingSource.RETURN_VALUE:
        return ev.produced_token
    return ev.descriptor_token


def trace_satisfies(
    thad: Thad,
    trace: Sequence[CallEvent],
    aliases: Optional[Mapping[str, str]] = None,
) -> bool:
    """Reference semantics: does this finite call trace obey the dependency?

    True iff every event matching the dependent pattern is preceded by one
    matching the dependency pattern, where for bound dependencies the
    preceding call must also carry the same descriptor token.  Missing
    tokens never satisfy a binding.
    """
    for i, ev in enumerate(trace):
        if not match_event(thad.dependent, ev, aliases):
            continue
        satisfied = False
        for j in range(i):
            dep = trace[j]
            if not match_event(thad.dependency, dep, aliases):
                continue
            if thad.binding is not None:
                token = dependency_token(thad, dep)
                if token is None or ev.descriptor_token is None:
                    continue
                if token != ev.descriptor_token:
                    continue
            satisfied = True
            break
        if not satisfied:
            return False
    return True
