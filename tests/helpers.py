"""Shared fixtures for the test suite.

Builds the SPI userspace-device dependency set programmatically, straight
from the model API.  The bundled spec files must parse to exactly this
set; keeping an independent construction here means a typo in either
place shows up as a mismatch instead of silently shipping.
"""

from __future__ import annotations

from thadc.cfg import Cfg, NodeKind, ProgramModel, build_model
from thadc.minic import parse_source
from thadc.model import (
    BindingSource,
    CallEvent,
    DescriptorBinding,
    Param,
    ParamRole,
    RoutineSpec,
    Thad,
    ThadSet,
)

# The Linux ioctl request encoding: dir<<30 | size<<16 | type<<8 | nr,
# with type 'k' (0x6B) for the SPI device interface.  Recomputed here from
# first principles rather than copied from the bundled constants file.
_IOC_WRITE = 1
_IOC_READ = 2


def _ioc(direction: int, nr: int, size: int) -> int:
    return (direction << 30) | (size << 16) | (0x6B << 8) | nr


SPIDEV_CONSTANTS: dict[str, int] = {
    # One full-duplex transfer struct is 32 bytes; MESSAGE(1) writes one.
    "MSG": _ioc(_IOC_WRITE, 0, 32),
    "RD_MODE": _ioc(_IOC_READ, 1, 1),
    "WR_MODE": _ioc(_IOC_WRITE, 1, 1),
    "RD_LSB_FIRST": _ioc(_IOC_READ, 2, 1),
    "WR_LSB_FIRST": _ioc(_IOC_WRITE, 2, 1),
    "RD_BITS_PER_WORD": _ioc(_IOC_READ, 3, 1),
    "WR_BITS_PER_WORD": _ioc(_IOC_WRITE, 3, 1),
    "RD_MAX_SPEED_HZ": _ioc(_IOC_READ, 4, 4),
    "WR_MAX_SPEED_HZ": _ioc(_IOC_WRITE, 4, 4),
    "RD_MODE32": _ioc(_IOC_READ, 5, 4),
    "WR_MODE32": _ioc(_IOC_WRITE, 5, 4),
}

# (id, dependent routine, dependent request, dependency routine, dependency request)
SPIDEV_DEPS: list[tuple[str, str, str | None, str, str | None]] = [
    ("d1", "read", None, "open", None),
    ("d2", "write", None, "open", None),
    ("d3", "ioctl", "MSG", "open", None),
    ("d4", "close", None, "open", None),
    ("d5", "ioctl", "RD_MODE", "open", None),
    ("d6", "ioctl", "WR_MODE", "open", None),
    ("d7", "ioctl", "RD_MODE32", "open", None),
    ("d8", "ioctl", "WR_MODE32", "open", None),
    ("d9", "ioctl", "RD_LSB_FIRST", "open", None),
    ("d10", "ioctl", "WR_LSB_FIRST", "open", None),
    ("d11", "ioctl", "RD_BITS_PER_WORD", "open", None),
    ("d12", "ioctl", "WR_BITS_PER_WORD", "open", None),
    ("d13", "ioctl", "RD_MAX_SPEED_HZ", "open", None),
    ("d14", "ioctl", "WR_MAX_SPEED_HZ", "open", None),
    ("d15", "read", None, "ioctl", "WR_MODE32"),
    ("d16", "write", None, "ioctl", "WR_MODE32"),
    ("d17", "ioctl", "MSG", "ioctl", "WR_MODE32"),
    ("d18", "read", None, "ioctl", "WR_LSB_FIRST"),
    ("d19", "write", None, "ioctl", "WR_LSB_FIRST"),
    ("d20", "ioctl", "MSG", "ioctl", "WR_LSB_FIRST"),
    ("d21", "read", None, "ioctl", "WR_BITS_PER_WORD"),
    ("d22", "write", None, "ioctl", "WR_BITS_PER_WORD"),
    ("d23", "ioctl", "MSG", "ioctl", "WR_BITS_PER_WORD"),
    ("d24", "read", None, "ioctl", "WR_MAX_SPEED_HZ"),
    ("d25", "write", None, "ioctl", "WR_MAX_SPEED_HZ"),
    ("d26", "ioctl", "MSG", "ioctl", "WR_MAX_SPEED_HZ"),
]


def spidev_routines() -> tuple[RoutineSpec, ...]:
    opaque = ParamRole.OPAQUE
    return (
        RoutineSpec(
            "open",
            (Param("path", opaque), Param("oflag", opaque)),
            returns_descriptor=True,
        ),
        RoutineSpec(
            "read",
            (
                Param("fd", ParamRole.DESCRIPTOR),
                Param("buf", opaque),
                Param("nbyte", opaque),
            ),
        ),
        RoutineSpec(
            "write",
            (
                Param("fd", ParamRole.DESCRIPTOR),
                Param("buf", opaque),
                Param("nbyte", opaque),
            ),
        ),
        RoutineSpec("close", (Param("fd", ParamRole.DESCRIPTOR),)),
        RoutineSpec(
            "ioctl",
            (
                Param("fd", ParamRole.DESCRIPTOR),
                Param("request", ParamRole.DISCRIMINATOR),
                Param("arg", opaque),
            ),
        ),
    )


def spidev_set() -> ThadSet:
    routines = spidev_routines()
    by_name = {r.name: r for r in routines}

    def pattern(name: str, const: str | None) -> RoutineSpec:
        r = by_name[name]
        return r if const is None else r.with_constraint(const)

    thads = tuple(
        Thad(tid, dependency=pattern(dep, dep_c), dependent=pattern(dnt, dnt_c))
        for (tid, dnt, dnt_c, dep, dep_c) in SPIDEV_DEPS
    )
    return ThadSet(
        routines=routines,
        thads=thads,
        constants=dict(SPIDEV_CONSTANTS),
        aliases={"WR_MODE": "WR_MODE32"},
    )


# -- event shorthands --------------------------------------------------------

def ev_open(token: str = "t0") -> CallEvent:
    return CallEvent("open", produced_token=token)


def ev_read(token: str | None = "t0") -> CallEvent:
    return CallEvent("read", descriptor_token=token)


def ev_write(token: str | None = "t0") -> CallEvent:
    return CallEvent("write", descriptor_token=token)


def ev_close(token: str | None = "t0") -> CallEvent:
    return CallEvent("close", descriptor_token=token)


def ev_ioctl(request: str | None, token: str | None = "t0") -> CallEvent:
    return CallEvent(
        "ioctl",
        discriminator_value=request,
        descriptor_token=token,
        discriminator_unknown=request is None,
    )


def bound_read_set() -> ThadSet:
    """A two-routine set where read's descriptor must come from open."""
    routines = (
        RoutineSpec("open", (Param("path"),), returns_descriptor=True),
        RoutineSpec(
            "read", (Param("fd", ParamRole.DESCRIPTOR), Param("buf"))
        ),
    )
    thad = Thad(
        "b1",
        dependency=routines[0],
        dependent=routines[1],
        binding=DescriptorBinding(BindingSource.RETURN_VALUE, "fd"),
    )
    return ThadSet(routines=routines, thads=(thad,))


def bound_spidev_set() -> ThadSet:
    """The spidev dependencies with an fd binding added to each."""
    from dataclasses import replace

    base = spidev_set()
    bound = []
    for t in base.thads:
        source = (
            BindingSource.RETURN_VALUE
            if t.dependency.name == "open"
            else BindingSource.PARAM
        )
        bound.append(replace(t, binding=DescriptorBinding(source, "fd")))
    return ThadSet(
        routines=base.routines,
        thads=tuple(bound),
        constants=dict(base.constants),
        aliases=dict(base.aliases),
    )


def parse_program(source: str, path: str = "<input>") -> ProgramModel:
    """Parse C-subset source text and lower it to a program model."""
    return build_model(parse_source(source, path))


# ---------------------------------------------------------------------------
# CFG invariants
# ---------------------------------------------------------------------------

def check_cfg(cfg: Cfg) -> None:
    """Assert the invariants the analyses rely on.  Raises ValueError.

    Every node must be reachable from the entry and able to reach the
    exit (so meeting over paths sees every node), the entry must have no
    predecessors, the exit no successors, and non-branch nodes at most
    one out-edge.
    """
    for src, edges in cfg.succ.items():
        if src not in cfg.nodes:
            raise ValueError(f"edge source {src} is not a node")
        for e in edges:
            if e.dst not in cfg.nodes:
                raise ValueError(f"edge target {e.dst} is not a node")
    preds: dict[int, list[int]] = {n: [] for n in cfg.nodes}
    for src, edges in cfg.succ.items():
        for e in edges:
            preds[e.dst].append(src)
    if preds[cfg.entry]:
        raise ValueError("entry node has predecessors")
    if cfg.edges(cfg.exit):
        raise ValueError("exit node has successors")
    for node_id, node in cfg.nodes.items():
        out = cfg.edges(node_id)
        if node.kind is NodeKind.BRANCH:
            if len(out) < 2:
                raise ValueError(f"branch node {node_id} has {len(out)} out-edges")
        elif node.kind is not NodeKind.EXIT and len(out) != 1:
            raise ValueError(f"node {node_id} has {len(out)} out-edges")
    reachable = _closure(cfg.entry, lambda n: [e.dst for e in cfg.edges(n)])
    if reachable != set(cfg.nodes):
        missing = sorted(set(cfg.nodes) - reachable)
        raise ValueError(f"nodes unreachable from entry: {missing}")
    coreachable = _closure(cfg.exit, lambda n: list(preds[n]))
    if coreachable != set(cfg.nodes):
        missing = sorted(set(cfg.nodes) - coreachable)
        raise ValueError(f"nodes that cannot reach exit: {missing}")


def _closure(start: int, step) -> set[int]:
    seen = {start}
    work = [start]
    while work:
        for nxt in step(work.pop()):
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return seen


# ---------------------------------------------------------------------------
# Deeply nested programs (see ``thadc.minic.MAX_NESTING``)
# ---------------------------------------------------------------------------

def nested_ifs(n: int) -> str:
    """A read under ``n`` nested ifs: n + 2 nesting levels, counting the
    read statement and its argument list.  The k-th if is on line k + 2."""
    return ('int main(void) {\n    int fd = open("/dev/spidev0.0", 2);\n'
            + "    if (c) {\n" * n + "    read(fd, 0, 1);\n" + "    }\n" * n
            + "    return 0;\n}\n")


def nested_parens(n: int) -> str:
    """An initializer in ``n`` parentheses on line 2: n + 1 levels.  The
    k-th parenthesis is in column k + 12."""
    return ("int main(void) {\n    int x = " + "(" * n + "1" + ")" * n
            + ";\n    return x;\n}\n")


def plus_chain(n: int) -> str:
    """An initializer adding ``n`` ones on line 2: n levels.  The k-th
    ``+`` is in column 2k + 12."""
    return ("int main(void) {\n    int x = " + "+".join(["1"] * n)
            + ";\n    return x;\n}\n")
