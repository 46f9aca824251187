"""Seeded input families for the thadc benchmark, each with known answers.

A workload is a list of :class:`Case` values: a program to check, the
spec to check it against, and the facts its report must show.  For the
generated families (``wide`` and ``diamond``) those facts follow from
how each program is built plus the dependency table below, which mirrors
the bundled spidev spec; thadc is never consulted.  ``corpus`` answers
come from the ``*.expected.json`` files shipped beside the programs.

Every generator is a pure function of its seed: the same seed gives
byte-identical sources.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
BOUND_SPEC = BENCH_DIR / "bound.thad"

# Linux spidev ioctl request encodings, spelled out in generated sources
# through #define lines so that resolution goes through the constants
# table the way real firmware does.
REQUESTS = {
    "MSG": 1075866368,
    "RD_MODE": 2147576577,
    "WR_MODE": 1073834753,
    "RD_LSB_FIRST": 2147576578,
    "WR_LSB_FIRST": 1073834754,
    "RD_BITS_PER_WORD": 2147576579,
    "WR_BITS_PER_WORD": 1073834755,
    "RD_MAX_SPEED_HZ": 2147773188,
    "WR_MAX_SPEED_HZ": 1074031364,
    "RD_MODE32": 2147773189,
    "WR_MODE32": 1074031365,
}
ALIASES = {"WR_MODE": "WR_MODE32"}

SETUP = ("WR_MODE32", "WR_LSB_FIRST", "WR_BITS_PER_WORD", "WR_MAX_SPEED_HZ")
SETUP_VALUES = {"WR_MODE32": 0, "WR_MODE": 3, "WR_LSB_FIRST": 0,
                "WR_BITS_PER_WORD": 8, "WR_MAX_SPEED_HZ": 500000}
READBACKS = ("RD_MODE", "RD_MODE32", "RD_LSB_FIRST", "RD_BITS_PER_WORD",
             "RD_MAX_SPEED_HZ")

Pattern = tuple[str, Optional[str]]  # (routine, request constant or None)
_TRANSFERS: tuple[Pattern, ...] = (("read", None), ("write", None),
                                   ("ioctl", "MSG"))


def _dependency_table() -> dict[str, tuple[Pattern, Pattern]]:
    """id -> (dependent, dependency), in the order of spidev.thad."""
    needs_open: list[Pattern] = [*_TRANSFERS, ("close", None)]
    for request in ("MODE", "MODE32", "LSB_FIRST", "BITS_PER_WORD",
                    "MAX_SPEED_HZ"):
        needs_open += [("ioctl", "RD_" + request), ("ioctl", "WR_" + request)]
    pairs = [(dependent, ("open", None)) for dependent in needs_open]
    pairs += [(transfer, ("ioctl", setup))
              for setup in SETUP for transfer in _TRANSFERS]
    return {f"d{i}": pair for i, pair in enumerate(pairs, start=1)}


DEPS = _dependency_table()


@dataclass(frozen=True)
class Event:
    """One HAL call of a generated program, in program order.

    ``certain`` calls run on every path through the program; the others
    sit in branches that a path may skip.
    """

    routine: str
    request: Optional[str] = None
    device: int = 0
    certain: bool = False


def _matches(pattern: Pattern, ev: Event, aliases: dict) -> bool:
    routine, request = pattern
    if routine != ev.routine:
        return False
    if request is None:
        return True
    return aliases.get(ev.request, ev.request) == request


def known_answer(events: list[Event], bound: bool) -> dict:
    """Report facts for a program whose calls are ``events``.

    Exact for the shapes built here: no dependency call sits in a
    branch, every branch can be taken or skipped independently of the
    others, and with ``bound`` a dependency is satisfied only by a call
    on the dependent's own device.  The relevance rules are the spec's:
    a dependency whose dependent never occurs is trivially satisfied, as
    is one between two requests of one routine whose required request
    never occurs.
    """
    non_trivial: dict[str, str] = {}
    via_alias: list[str] = []
    witness_ends: dict[str, str] = {}
    for dep_id, (dependent, dependency) in DEPS.items():
        if not any(_matches(dependent, ev, ALIASES) for ev in events):
            continue
        if dependent[0] == dependency[0] and not any(
                _matches(dependency, ev, ALIASES) for ev in events):
            continue
        violated = False
        for i, ev in enumerate(events):
            if not _matches(dependent, ev, ALIASES):
                continue
            if not any(_matches(dependency, prior, ALIASES) and prior.certain
                       and (not bound or prior.device == ev.device)
                       for prior in events[:i]):
                violated = True
        non_trivial[dep_id] = "violated" if violated else "satisfied"
        if violated:
            witness_ends[dep_id] = dependent[0]
        if any(_matches(p, ev, ALIASES) and not _matches(p, ev, {})
               for p in (dependent, dependency) for ev in events):
            via_alias.append(dep_id)
    exit_code = 1 if "violated" in non_trivial.values() else 0
    return {"exit_code": exit_code, "non_trivial": non_trivial,
            "via_alias": via_alias, "witness_ends": witness_ends}


@dataclass(frozen=True)
class Case:
    """One program of a workload with the answer its report must give."""

    name: str
    source: str
    expected: dict
    bound: bool = False  # check against bound.thad instead of the bundled spec
    path: Optional[Path] = None  # a file to check in place of writing source


def _macro(request: str) -> str:
    return "SPI_IOC_MESSAGE_1" if request == "MSG" else f"SPI_IOC_{request}"


def _defines(requests) -> list[str]:
    return [f"#define {_macro(r)} {REQUESTS[r]}" for r in sorted(set(requests))]


def _transfer_lines(rng: random.Random, kind: Pattern, fd: str, tag: str,
                    indent: str) -> list[str]:
    if kind[0] == "read":
        return [f"{indent}int got_{tag} = read({fd}, 0, XFER_BYTES);"]
    if kind[0] == "write":
        return [f"{indent}write({fd}, 0, XFER_BYTES);"]
    if rng.random() < 0.5:
        return [f"{indent}ioctl({fd}, SPI_IOC_MESSAGE_1, 0);"]
    return [f"{indent}int req_{tag} = SPI_IOC_MESSAGE_1;",
            f"{indent}ioctl({fd}, req_{tag}, 0);"]


def _setup_lines(rng: random.Random, request: str, fd: str, tag: str,
                 indent: str) -> list[str]:
    value = SETUP_VALUES[request]
    if rng.random() < 0.5:
        return [f"{indent}ioctl({fd}, {_macro(request)}, {value});"]
    return [f"{indent}int set_{tag} = {_macro(request)};",
            f"{indent}ioctl({fd}, set_{tag}, {value});"]


# ---------------------------------------------------------------------------
# wide: one long straight-line main
# ---------------------------------------------------------------------------

# Omitted bus-setup ioctls per program of the wide pool, smallest program
# first: eight of fifteen are violated, with every subset size from 1 to
# 4.  With fifteen programs in equal shares the median and the 90th
# percentile fall mid-way into one program's times, not on the edge
# between two programs of different cost.
WIDE_SUBSET_SIZES = (0, 1, 0, 2, 3, 0, 1, 4, 0, 2, 0, 3, 0, 1, 0)
WIDE_POOL = len(WIDE_SUBSET_SIZES)


def wide_program(rng: random.Random, n_blocks: int, omitted: frozenset,
                 legacy_mode: bool) -> tuple[str, list[Event]]:
    """``main`` with ``n_blocks`` sequential ``if`` blocks on one descriptor.

    The bus-setup ioctls in ``omitted`` are left out, which violates the
    dependencies of every read and write on them.  ``legacy_mode`` sets
    the mode through ``WR_MODE``, which stands in for ``WR_MODE32``.
    """
    setup = [s for s in SETUP if s not in omitted]
    rng.shuffle(setup)
    if legacy_mode:
        setup = ["WR_MODE" if s == "WR_MODE32" else s for s in setup]
    events = [Event("open", certain=True)]
    body = ["int main(void) {",
            '    int fd = open("/dev/spidev0.0", 2);',
            "    int flags = 0;"]
    for k, request in enumerate(setup):
        body += _setup_lines(rng, request, "fd", str(k), "    ")
        events.append(Event("ioctl", request, certain=True))
    # Equal shares of reads, writes and messages, so that the number of
    # violating sites depends on the size and the omitted subset alone.
    kinds = [_TRANSFERS[i % len(_TRANSFERS)] for i in range(n_blocks)]
    rng.shuffle(kinds)
    for i, kind in enumerate(kinds):
        op = rng.choice((">", "<", "!=", "&"))
        body.append(f"    if (flags {op} {i + 1}) {{")
        body += _transfer_lines(rng, kind, "fd", str(i), "        ")
        body.append("    }")
        events.append(Event(*kind))
    body += ["    close(fd);", "    return 0;", "}"]
    events.append(Event("close", certain=True))
    header = [f"/* wide: {n_blocks} branches, bus setup "
              f"{'without ' + ' '.join(sorted(omitted)) if omitted else 'complete'}"
              " */",
              *_defines(["MSG", *setup]), "#define XFER_BYTES 4", ""]
    return "\n".join(header + body) + "\n", events


def wide_cases(seed: int) -> list[Case]:
    """A stratified draw of ``WIDE_POOL`` straight-line programs.

    Sizes spread evenly over [150, 400] branches with seeded jitter.
    Eight of the fifteen programs omit a seeded non-empty subset of the
    bus-setup ioctls (sizes 1 to 4 in a fixed mix), the other seven set
    the bus up completely.  Fixing the mix, not leaving it to chance,
    keeps the cost profile, and so the timing quantiles, alike from seed
    to seed; the seed still picks every subset, size and statement.
    """
    rng = random.Random(f"wide:{seed}")
    cases = []
    for j, size in enumerate(WIDE_SUBSET_SIZES):
        n_blocks = 150 + round(250 * j / (WIDE_POOL - 1)) + rng.randint(-3, 3)
        n_blocks = min(400, max(150, n_blocks))
        omitted = frozenset(rng.sample(SETUP, size))
        source, events = wide_program(rng, n_blocks, omitted,
                                      legacy_mode=rng.random() < 0.25)
        cases.append(Case(f"wide-{j:02d}.c", source,
                          known_answer(events, bound=False)))
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# diamond: call graphs where each function calls the next one down twice
# ---------------------------------------------------------------------------

def diamond_program(rng: random.Random, depth: int,
                    devices: int) -> tuple[str, list[Event]]:
    """``main`` opens and configures ``devices`` descriptors, then calls
    ``level1`` twice; so does every ``levelN`` with ``levelN+1`` down to
    the leaf ``level<depth>``.  The second call of each pair sits in a
    branch and rotates the descriptors.
    Request constants reach the leaf through a parameter and locals.
    """
    fds = [f"fd{k}" for k in range(1, devices + 1)]
    params = ", ".join(f"int {fd}" for fd in fds) + ", int req"
    straight = ", ".join(fds) + ", r"
    rotated = ", ".join(fds[1:] + fds[:1]) + ", r"
    events: list[Event] = []
    setup_events: list[Event] = []
    functions: list[list[str]] = []
    requests = {"MSG"}

    leaf = [f"int level{depth}({params}) {{", "    int r = req;"]
    kinds = [(kind, k) for kind in _TRANSFERS for k in range(devices)]
    rng.shuffle(kinds)
    for n, (kind, k) in enumerate(kinds):
        if kind[0] == "ioctl":
            leaf += [f"    int m{n} = r;", f"    ioctl({fds[k]}, m{n}, 0);"]
        else:
            leaf += _transfer_lines(rng, kind, fds[k], str(n), "    ")
        events.append(Event(kind[0], kind[1], k))
    functions.append(leaf + ["    return 0;", "}"])

    for level in range(depth - 1, 0, -1):
        fn = [f"int level{level}({params}) {{", "    int r = req;",
              f"    level{level + 1}({straight});",
              "    if (r != 0) {",
              f"        level{level + 1}({rotated});",
              "    }"]
        readback = rng.choice(READBACKS)
        k = rng.randrange(devices)
        requests.add(readback)
        fn += [f"    int q = {_macro(readback)};",
               f"    ioctl({fds[k]}, q, 0);"]
        events.append(Event("ioctl", readback, k))
        functions.append(fn + ["    return 0;", "}"])

    main = ["int main(void) {"]
    for k, fd in enumerate(fds):
        main.append(f'    int {fd} = open("/dev/spidev0.{k}", 2);')
        setup_events.append(Event("open", device=k, certain=True))
    for k, fd in enumerate(fds):
        setup = list(SETUP)
        if rng.random() < 0.25:
            setup[0] = "WR_MODE"
        rng.shuffle(setup)
        requests.update(setup)
        for s, request in enumerate(setup):
            main += _setup_lines(rng, request, fd, f"{k}_{s}", "    ")
            setup_events.append(Event("ioctl", request, k, certain=True))
    main += ["    int req = SPI_IOC_MESSAGE_1;",
             f"    level1({', '.join(fds)}, req);",
             "    if (req != 0) {",
             f"        level1({', '.join(fds[1:] + fds[:1])}, req);",
             "    }"]
    main += [f"    close({fd});" for fd in fds] + ["    return 0;", "}"]
    close_events = [Event("close", device=k, certain=True)
                    for k in range(devices)]

    header = [f"/* diamond: depth {depth}, {devices} devices */",
              *_defines(requests), "#define XFER_BYTES 4", ""]
    text = "\n\n".join("\n".join(f) for f in [*functions, main])
    return ("\n".join(header) + text + "\n",
            setup_events + events + close_events)


def diamond_cases(seed: int) -> list[Case]:
    """One program for each depth in {6, 7, 8} and device count in
    {1, 2, 3}: the full grid, so every seed has the same cost profile,
    in a seeded order and with seeded contents."""
    rng = random.Random(f"diamond:{seed}")
    cases = []
    for depth in (6, 7, 8):
        for devices in (1, 2, 3):
            source, events = diamond_program(rng, depth, devices)
            cases.append(Case(f"diamond-d{depth}-k{devices}.c", source,
                              known_answer(events, bound=True), bound=True))
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# corpus: the bundled example programs
# ---------------------------------------------------------------------------

def corpus_cases(seed: int, corpus_dir) -> list[Case]:
    """The bundled programs with their recorded expectations, in a
    seeded order.  ``corpus_dir`` is the package's corpus directory."""
    cases = []
    for program in sorted(p for p in corpus_dir.iterdir()
                          if p.name.endswith(".c")):
        expected_file = corpus_dir / (program.name[:-2] + ".expected.json")
        expected = json.loads(expected_file.read_text(encoding="utf-8"))
        expected.pop("program", None)
        cases.append(Case(program.name, program.read_text(encoding="utf-8"),
                          expected, path=Path(str(program))))
    random.Random(f"corpus:{seed}").shuffle(cases)
    return cases
