"""Random MiniC program generation for differential checker testing.

The drawn programs stay inside the fragment where the static checker is
meant to be exact, so its verdicts can be compared 1:1 against the
brute-force path oracle:

- loop-free by default (``allow_loops=True`` adds while loops for the
  unroll-based soundness property),
- at most ``max_calls`` HAL calls and ``max_branches`` branch or loop
  statements, so path enumeration stays tiny,
- every discriminator is a bare constant name or a literal with a known
  encoding, so it always resolves,
- descriptors are variables assigned exactly once, from ``open()`` or as
  a copy of another descriptor, on the top-level spine before any
  branching, so a must-analysis resolves them wherever they are used.

Branch conditions are fresh undeclared variables: statically opaque, so
both arms stay feasible for the oracle and the checker alike.

``helpers=True`` adds up to three helper functions, so the drawn
programs exercise inlining:

- worker helpers take one or two descriptor parameters and sometimes a
  request parameter, and may call the next worker down (a call chain of
  at most three helpers below ``main``);
- callers pass their descriptors rotated, and some helper calls sit
  under branches;
- an opener helper returns an ``open`` and is called on ``main``'s spine
  to initialise a descriptor;
- ``main`` writes a global request variable before any call, a worker
  may overwrite it before calling down, and workers read it as an
  ``ioctl`` request.

Descriptors are still assigned on ``main``'s top-level spine and every
request resolves, so the checker's verdicts stay exact.
"""

from __future__ import annotations

import random

# (source text, resolved constant name) pairs: names used directly,
# plus literal spellings that constant-value lookup maps back to names.
_REQUESTS: list[str] = [
    "MSG",
    "RD_MODE",
    "WR_MODE",  # alias source: stands in for WR_MODE32
    "RD_MODE32",
    "WR_MODE32",
    "RD_LSB_FIRST",
    "WR_LSB_FIRST",
    "RD_BITS_PER_WORD",
    "WR_BITS_PER_WORD",
    "RD_MAX_SPEED_HZ",
    "WR_MAX_SPEED_HZ",
    "1075866368",   # MSG
    "1074031365",   # WR_MODE32
    "0x40046b04",   # WR_MAX_SPEED_HZ
]


class _Draw:
    def __init__(self, rng: random.Random, *, allow_loops: bool,
                 max_calls: int, max_branches: int, min_opens: int):
        self.rng = rng
        self.allow_loops = allow_loops
        self.calls_left = rng.randint(1, max_calls)
        self.branches_left = rng.randint(0, max_branches)
        self.min_opens = min_opens
        self.fds: list[str] = []
        self.fresh = 0
        # Helpers mode only: request expressions beyond _REQUESTS (request
        # parameters, the global), and the workers the current function
        # may call, as (name, descriptor parameter count, takes a request).
        self.requests: list[str] = []
        self.callees: list[tuple[str, int, bool]] = []
        self.helper_calls = 0

    def name(self, prefix: str) -> str:
        self.fresh += 1
        return f"{prefix}{self.fresh}"

    def program(self) -> str:
        lines = ["int main(void) {"]
        n_opens = self.rng.randint(self.min_opens, 2)
        for i in range(n_opens):
            fd = self.name("fd")
            lines.append(f'    int {fd} = open("/dev/spidev0.{i}", 0);')
            self.fds.append(fd)
            self.calls_left -= 1
        if self.fds and self.rng.random() < 0.3:
            copy = self.name("fd")
            lines.append(f"    int {copy} = {self.rng.choice(self.fds)};")
            self.fds.append(copy)
        lines.extend(self.block(1))
        lines.append("    return 0;")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def helper_program(self) -> str:
        """Up to three helpers, then ``main``; see the module docstring."""
        rng = self.rng
        budget = self.calls_left, self.branches_left  # main's
        n_helpers = rng.randint(1, 3)
        opener = rng.random() < 0.5
        workers = [f"w{i}" for i in range(1, n_helpers + 1 - opener)]
        lines = ["int g;", ""]
        below: list[tuple[str, int, bool]] = []  # the worker one level down
        for name in reversed(workers):
            below = [self.worker(name, below, lines)]
        flags = opener and rng.random() < 0.5
        if flags:
            lines += ["int mk(int flags) {",
                      '    return open("/dev/spidev1.0", flags);', "}", ""]
        elif opener:
            lines += ["int mk(int r) {",
                      '    int d = open("/dev/spidev1.0", 0);',
                      "    ioctl(d, r, 0);", "    return d;", "}", ""]
        lines.append("int main(void) {")
        for i in range(rng.randint(max(self.min_opens, 1), 2)):
            fd = self.name("fd")
            self.fds.append(fd)
            if opener and rng.random() < 0.6:
                arg = rng.choice(["0", "2"] if flags else _REQUESTS)
                lines.append(f"    int {fd} = mk({arg});")
            else:
                lines.append(f'    int {fd} = open("/dev/spidev0.{i}", 0);')
        if rng.random() < 0.3:
            copy = self.name("fd")
            lines.append(f"    int {copy} = {rng.choice(self.fds)};")
            self.fds.append(copy)
        lines.append(f"    g = {rng.choice(_REQUESTS)};")
        self.requests = ["g"]
        self.callees = below
        self.helper_calls = 0
        self.calls_left, self.branches_left = budget
        lines.extend(self.block(1))
        if below and not self.helper_calls:
            lines.append("    " + self.helper_call())
        lines += ["    return 0;", "}"]
        return "\n".join(lines) + "\n"

    def worker(self, name: str, below: list[tuple[str, int, bool]],
               lines: list[str]) -> tuple[str, int, bool]:
        """Append one worker helper over its own descriptor parameters;
        returns its (name, descriptor count, takes a request)."""
        rng = self.rng
        n_fds = rng.randint(1, 2)
        self.fds = [f"{name}_fd{k}" for k in range(1, n_fds + 1)]
        params = [f"int {fd}" for fd in self.fds]
        self.requests = ["g"]
        takes_request = rng.random() < 0.6
        if takes_request:
            params.append(f"int {name}_req")
            self.requests.append(f"{name}_req")
        self.callees = below
        self.helper_calls = 0
        self.calls_left = rng.randint(1, 4)
        self.branches_left = rng.randint(0, 1)
        lines.append(f"int {name}({', '.join(params)}) {{")
        if below and rng.random() < 0.3:
            lines.append(f"    g = {rng.choice(_REQUESTS)};")
        lines.extend(self.block(1))
        lines += ["    return 0;", "}", ""]
        self.fds = []
        return name, n_fds, takes_request

    def helper_call(self) -> str:
        """A call of a worker, descriptors rotated from the caller's."""
        self.helper_calls += 1
        name, n_fds, takes_request = self.rng.choice(self.callees)
        turn = self.rng.randrange(len(self.fds))
        args = [self.fds[(turn + k) % len(self.fds)] for k in range(n_fds)]
        if takes_request:
            args.append(self.rng.choice(_REQUESTS + self.requests))
        return f"{name}({', '.join(args)});"

    def block(self, depth: int) -> list[str]:
        lines: list[str] = []
        for _ in range(self.rng.randint(0, 4)):
            roll = self.rng.random()
            if (roll < 0.55 and self.callees and self.helper_calls < 2
                    and self.rng.random() < 0.4):
                lines.append(self.indent(depth) + self.helper_call())
            elif roll < 0.55 and self.calls_left > 0:
                lines.append(self.indent(depth) + self.hal_call())
            elif roll < 0.8 and self.branches_left > 0 and depth < 3:
                lines.extend(self.branch(depth))
            else:
                lines.append(
                    f"{self.indent(depth)}int {self.name('x')} = "
                    f"{self.rng.randint(0, 9)};"
                )
        return lines

    def branch(self, depth: int) -> list[str]:
        self.branches_left -= 1
        cond = self.name("c")
        ind = self.indent(depth)
        looping = self.allow_loops and self.rng.random() < 0.4
        head = f"{ind}while ({cond}) {{" if looping else f"{ind}if ({cond}) {{"
        lines = [head]
        lines.extend(self.block(depth + 1) or [self.indent(depth + 1) + ";"])
        if not looping and self.rng.random() < 0.25:
            lines.append(self.indent(depth + 1) + "return 0;")
        lines.append(ind + "}")
        if not looping and self.rng.random() < 0.4:
            lines.append(ind + "else {")
            lines.extend(self.block(depth + 1) or [self.indent(depth + 1) + ";"])
            lines.append(ind + "}")
        return lines

    def hal_call(self) -> str:
        self.calls_left -= 1
        fd = self.rng.choice(self.fds) if self.fds else "0"
        kind = self.rng.choice(["read", "write", "close", "ioctl", "ioctl"])
        if kind == "ioctl":
            return f"ioctl({fd}, {self.rng.choice(_REQUESTS + self.requests)}, 0);"
        if kind == "close":
            return f"close({fd});"
        return f"{kind}({fd}, 0, 16);"

    @staticmethod
    def indent(depth: int) -> str:
        return "    " * depth


def generate_program(
    seed: int,
    *,
    allow_loops: bool = False,
    max_calls: int = 12,
    max_branches: int = 4,
    min_opens: int = 0,
    helpers: bool = False,
) -> str:
    """One random MiniC source, deterministic in the seed.  ``helpers``
    draws a program with helper functions (see the module docstring)."""
    rng = random.Random(seed)
    draw = _Draw(
        rng,
        allow_loops=allow_loops,
        max_calls=max_calls,
        max_branches=max_branches,
        min_opens=min_opens,
    )
    return draw.helper_program() if helpers else draw.program()
