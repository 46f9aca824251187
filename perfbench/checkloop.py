"""The closed check loop a benchmark worker runs after its set-up.

Each check is one in-process ``thadc.cli.main`` call on a generated file,
and the next starts only when the previous one has returned (one client,
closed loop).  Only the call is timed; its JSON report is then compared
with the known answer and hashed.  With tracing on, two more passes
replay the same checks: one with every layer wrapped in spans, one with
the same wrappers measuring heap growth through ``tracemalloc``.  A
report whose SHA-256 differs from the untraced one fails its check.
"""

import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import resource
import sys
import time
import tracemalloc
from typing import Optional

import thadc.cli

from tracing import Tracer

MIN_CHECKS = 100  # so that the 90th percentile has 10 samples above it


def facts(report_text: str, code: int) -> dict:
    """The answer a report gives, in the corpus ``*.expected.json`` form."""
    entries = json.loads(report_text)["entries"]
    return {
        "exit_code": code,
        "non_trivial": {e["id"]: e["status"] for e in entries
                        if not e["trivial"]},
        "via_alias": sorted(e["id"] for e in entries if e["via_alias"]),
        "witness_ends": {e["id"]: e["witness"][-1]["routine"]
                         for e in entries if e["witness"]},
    }


def run_one(argv: list[str]) -> tuple[float, Optional[int], str, str]:
    """One timed ``thadc check``: (seconds, exit code, stdout, stderr).
    A check that raises has no exit code and its error on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            code = thadc.cli.main(argv)
        except Exception as exc:  # a wrong answer, not the end of the run
            code = None
            print(f"raised {type(exc).__name__}: {exc}", file=sys.stderr)
        elapsed = time.perf_counter() - started
    return elapsed, code, out.getvalue(), err.getvalue()


class Loop:
    """Checks of one pass plus the tally of wrong answers."""

    def __init__(self, cases: list[dict]):
        self.cases = cases
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}  # case name -> untraced report hash

    def verify(self, case: dict, code: Optional[int], out: str, err: str,
               pass_name: str) -> None:
        self.attempted += 1
        try:
            got = facts(out, code)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            self.failures.append(f"{pass_name} {case['name']}: no report "
                                 f"({exc}; exit {code}; {err.strip()[:200]})")
            return
        if got != case["expected"]:
            self.failures.append(f"{pass_name} {case['name']}: got {got}, "
                                 f"expected {case['expected']}")
            return
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        first = self.digests.setdefault(case["name"], digest)
        if digest != first:
            self.failures.append(f"{pass_name} {case['name']}: report bytes "
                                 "differ from the untraced pass")

    def check(self, case: dict, pass_name: str, call=run_one) -> float:
        """Run and verify one check; returns its wall time in seconds.

        Each check starts from a collected heap, as it would in the fresh
        process a user runs; otherwise the garbage of earlier checks
        decides when the collector runs inside this one, which moves a
        check's time by a fifth either way."""
        gc.collect()
        elapsed, code, out, err = call(case["argv"])
        self.verify(case, code, out, err, pass_name)
        return elapsed


def untraced_pass(loop: Loop, seconds: float, cap: float) -> list[float]:
    """Cycle through the cases for ``seconds``, in whole cycles and at
    least MIN_CHECKS checks, unless ``cap`` seconds run out first."""
    latencies = []
    started = time.perf_counter()
    while True:
        case = loop.cases[len(latencies) % len(loop.cases)]
        latencies.append(loop.check(case, "untraced"))
        spent = time.perf_counter() - started
        if spent >= cap:
            break
        if (spent >= seconds and len(latencies) >= MIN_CHECKS
                and len(latencies) % len(loop.cases) == 0):
            break
    return latencies


def traced_pass(loop: Loop, tracer: Tracer, count: int,
                cap: float) -> tuple[list[float], list[dict]]:
    """Replay the first ``count`` checks of the untraced pass with every
    layer wrapped; returns wall times and per-check layer values."""
    latencies, values = [], []
    pass_name = "memory" if tracer.memory else "traced"

    def traced_run(argv):
        result, layer_values = tracer.run_check(lambda: run_one(argv))
        values.append(layer_values)
        return result

    started = time.perf_counter()
    tracer.install()
    try:
        for i in range(count):
            case = loop.cases[i % len(loop.cases)]
            latencies.append(loop.check(case, pass_name, traced_run))
            if time.perf_counter() - started >= cap:
                break
    finally:
        tracer.restore()
    return latencies, values


def main(setup_s: float, manifest_path: str) -> int:
    with open(manifest_path, encoding="utf-8") as f:
        manifest = json.load(f)
    loop = Loop(manifest["cases"])
    seconds = manifest["seconds"]
    result = {"setup_s": setup_s}
    latencies = untraced_pass(loop, seconds, cap=2 * seconds)
    result["latencies_s"] = latencies
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    if manifest["trace"]:
        tracer = Tracer()
        traced_latencies, values = traced_pass(
            loop, tracer, len(latencies), cap=2 * seconds)
        memory_tracer = Tracer(memory=True)
        tracemalloc.start()
        try:
            _, memory_values = traced_pass(
                loop, memory_tracer, len(loop.cases), cap=seconds)
        finally:
            tracemalloc.stop()
        result.update(traced_latencies_s=traced_latencies,
                      layer_values=values, memory_values=memory_values,
                      absent=sorted(tracer.absent))
        with open(manifest["spans_out"], "w", encoding="utf-8") as f:
            for span in tracer.spans + memory_tracer.spans:
                f.write(json.dumps(dataclasses.asdict(span)) + "\n")

    result.update(attempted=loop.attempted, failures=loop.failures)
    print(json.dumps(result))
    return 0

