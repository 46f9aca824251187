"""Benchmark runner for thadc: time to a verdict, throughput and memory.

    python3 perfbench/run.py --workload {corpus,wide,diamond,all} \\
        --seed N --seconds S --trace {0,1}

Run it from any directory; the program under test is the
checkout's ``src/thadc``, imported from source.  The runner generates the
workload's programs from the seed, measures set-up in several fresh
worker processes, then hands the programs to one more fresh worker that
checks them in a closed loop with one client for S seconds (whole cycles
over the programs, and at least 100 checks unless 2 S run out first).  Every report is compared
with its known answer outside the timed region.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
the worker also replays the checks with each layer wrapped in spans, and
again under ``tracemalloc``, and the runner prints the per-layer metrics.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--workload all`` runs the three workloads in turn and prefixes each
metric with its workload's name.  Exit status is 0 whenever a result is
printed (``correct`` says whether every answer was right) and 2 when
there is nothing to measure, such as a checkout without ``src/thadc``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench-out"
WORKER = BENCH / "worker.py"

WORKLOADS = ("corpus", "wide", "diamond")
SETUP_SAMPLES = 11  # fresh workers timed for setup_s, the main one included
DEADLINE_S = 170  # one workload's run, worker processes included

# Layers whose summed self time each workload is built to be dominated
# by, printed as a share of the traced check with the per-layer metrics.
# On ``wide`` only checks that found a violation count.
SHARES = {
    "corpus": ("minic.parse_ms", "specio.load_ms", "report.build_ms",
               "report.render_ms", "cli.self_ms"),
    "wide": ("checker.check_self_ms", "checker.witness_ms"),
    "diamond": ("passes.inline_ms", "passes.resolve_ms",
                "passes.token_flow_ms"),
}


class BenchError(Exception):
    """Nothing can be measured; the message says why."""


def _import_thadc():
    if not (ROOT / "src" / "thadc" / "cli.py").is_file():
        raise BenchError(f"no thadc sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import thadc.specio
    return thadc.specio


def _cases(workload: str, seed: int, specio) -> list:
    if workload == "corpus":
        return gen.corpus_cases(seed, specio.bundled_data_path("corpus"))
    if workload == "wide":
        return gen.wide_cases(seed)
    return gen.diamond_cases(seed)


def _rel(path) -> str:
    return str(Path(str(path)).resolve().relative_to(ROOT))


def _manifest(workload: str, cases: list, specio, workdir: Path) -> dict:
    """Writes generated sources under ``workdir``; the worker's argv
    for each case names them relative to the checkout root."""
    consts = _rel(specio.bundled_data_path("spidev-linux.consts"))
    entries = []
    for case in cases:
        path = case.path
        if path is None:
            path = workdir / case.name
            path.write_text(case.source, encoding="utf-8")
        argv = ["check", _rel(path), "--format", "json", "--no-timing"]
        if case.bound:
            argv += ["--spec", _rel(gen.BOUND_SPEC), "--consts", consts]
        expected = dict(case.expected, via_alias=sorted(case.expected["via_alias"]))
        entries.append({"name": case.name, "argv": argv, "expected": expected})
    bound = any(case.bound for case in cases)
    spec = (_rel(gen.BOUND_SPEC) if bound
            else _rel(specio.bundled_data_path("spidev.thad")))
    return {"cases": entries, "spec": spec, "consts": consts,
            "spans_out": _rel(OUT / f"{workload}.spans.jsonl")}


def _worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish in {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(setups: list[float], raw: dict) -> dict:
    latencies = raw["latencies_s"]
    ms = [x * 1000 for x in latencies]
    return {
        "check_ms.p50": (statistics.median(ms), "ms"),
        "check_ms.p90": (_p90(ms), "ms"),
        "checks_per_s": (len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer(raw: dict) -> dict:
    """Median per check of every layer value the traced passes recorded;
    a layer whose wrapped function no longer exists is simply absent."""
    out = {}
    for values, in_memory in ((raw["layer_values"], False),
                              (raw["memory_values"], True)):
        names = sorted({name for v in values for name in v})
        for name in names:
            if in_memory != name.endswith("_mb"):
                continue
            unit = ("ms" if name.endswith("_ms") else
                    "MB" if name.endswith("_mb") else
                    "bytes" if name.endswith("bytes") else "count")
            out[name] = (statistics.median(v[name] for v in values
                                           if name in v), unit)
    traced = raw["traced_latencies_s"]
    untraced = raw["latencies_s"][:len(traced)]
    out["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1, "ratio")
    return out


def layer_share(workload: str, raw: dict) -> float:
    """Median share of the traced check spent in the workload's layers."""
    shares = []
    for total, values in zip(raw["traced_latencies_s"], raw["layer_values"]):
        if workload == "wide" and not values.get("checker.violated"):
            continue
        part = sum(values.get(name, 0.0) for name in SHARES[workload])
        shares.append(part / (total * 1000))
    return statistics.median(shares)


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 deadline: float, specio) -> tuple[dict, int, list[str], list[str]]:
    """Metrics, checks attempted, failure notes and report lines."""
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        cases = _cases(workload, seed, specio)
        manifest = _manifest(workload, cases, specio, workdir)
        manifest.update(seconds=seconds, trace=trace)
        manifest_path = workdir / "manifest.json"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        spec_args = [manifest["spec"], manifest["consts"]]
        setups = [_worker(spec_args, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        raw = _worker([*spec_args, _rel(manifest_path)], deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(raw["setup_s"])

    checks = len(raw["latencies_s"])
    failures = raw["failures"]
    lines = [f"{workload} (seed {seed}): {len(cases)} programs, "
             f"{checks} untraced checks"]
    metrics = per_layer(raw) if trace else end_to_end(setups, raw)
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name} = {value:.6g} {unit}")
    lines.append(f"  failed_frac = {len(failures) / raw['attempted']:.6g} "
                 f"({len(failures)} of {raw['attempted']})")
    if trace:
        lines.append(f"  share of check in {' + '.join(SHARES[workload])} = "
                     f"{layer_share(workload, raw):.3f}")
        if raw["absent"]:
            lines.append(f"  absent layers: {', '.join(raw['absent'])}")
    return metrics, raw["attempted"], failures, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(workloads)

    try:
        specio = _import_thadc()
        metrics, attempted, failures = {}, 0, []
        for workload in workloads:
            found, tried, failed, lines = run_workload(
                workload, args.seed, args.seconds, bool(args.trace),
                deadline, specio)
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in found.items()})
            attempted += tried
            failures += failed
            print("\n".join(lines))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for note in failures[:10]:
        print(f"perfbench: wrong answer: {note}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
