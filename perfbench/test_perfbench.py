"""Tests of the benchmark itself: inputs, known answers and tracing.

    python3 -m pytest perfbench
"""

import importlib
import io
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import thadc.cli  # noqa: E402
import thadc.passes  # noqa: E402
from thadc.specio import bundled_data_path, load_spec  # noqa: E402

import gen  # noqa: E402
import tracing  # noqa: E402
import checkloop  # noqa: E402

CORPUS = bundled_data_path("corpus")
CONSTS = bundled_data_path("spidev-linux.consts")


def all_cases(seed: int) -> list:
    return (gen.corpus_cases(seed, CORPUS) + gen.wide_cases(seed)
            + gen.diamond_cases(seed))


def check(case, tmp_path: Path) -> tuple[int, str]:
    path = case.path
    if path is None:
        path = tmp_path / case.name
        path.write_text(case.source, encoding="utf-8")
    argv = ["check", str(path), "--format", "json", "--no-timing"]
    if case.bound:
        argv += ["--spec", str(gen.BOUND_SPEC), "--consts", str(CONSTS)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = thadc.cli.main(argv)
    assert not err.getvalue(), err.getvalue()
    return code, out.getvalue()


def expected(case) -> dict:
    return dict(case.expected, via_alias=sorted(case.expected["via_alias"]))


@pytest.mark.parametrize("seed", [0, 7])
def test_same_seed_gives_identical_sources(seed):
    first = [(c.name, c.source) for c in all_cases(seed)]
    again = [(c.name, c.source) for c in all_cases(seed)]
    assert first == again


def test_seeds_differ():
    assert ([c.source for c in gen.wide_cases(1)]
            != [c.source for c in gen.wide_cases(2)])
    assert ([c.source for c in gen.diamond_cases(1)]
            != [c.source for c in gen.diamond_cases(2)])


def test_workload_shapes():
    wide = gen.wide_cases(3)
    assert len(wide) == gen.WIDE_POOL
    violated = [c for c in wide if c.expected["exit_code"] == 1]
    assert len(violated) == 8
    assert all(len(c.expected["witness_ends"]) >= 2 for c in violated)
    diamond = gen.diamond_cases(3)
    assert sorted(c.name for c in diamond) == sorted(
        f"diamond-d{d}-k{k}.c" for d in (6, 7, 8) for k in (1, 2, 3))
    assert all(c.bound and c.expected["exit_code"] == 0 for c in diamond)


@pytest.mark.parametrize("seed", [1, 5])
def test_every_check_matches_its_known_answer(seed, tmp_path):
    for case in all_cases(seed):
        code, report = check(case, tmp_path)
        assert checkloop.facts(report, code) == expected(case), case.name


def test_bound_spec_loads_with_26_bound_dependencies():
    spec = load_spec(gen.BOUND_SPEC.read_text(encoding="utf-8"),
                     CONSTS.read_text(encoding="utf-8"))
    assert len(spec.thads) == 26
    assert all(t.binding is not None for t in spec.thads)
    assert {t.id: (t.dependent.describe(), t.dependency.describe())
            for t in spec.thads} == {
        dep_id: tuple(f"{r}[request={q}]" if q else r for r, q in pair)
        for dep_id, pair in gen.DEPS.items()}


def test_tracing_keeps_reports_and_restores_functions(tmp_path):
    case = next(c for c in gen.wide_cases(2) if c.expected["exit_code"] == 1)
    originals = {(m, a): getattr(importlib.import_module(m), a)
                 for m, a in tracing.WRAPPED}
    plain = check(case, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, values = tracer.run_check(lambda: check(case, tmp_path))
    finally:
        tracer.restore()
    assert traced == plain
    assert {(m, a): getattr(importlib.import_module(m), a)
            for m, a in tracing.WRAPPED} == originals
    assert set(values) == set(tracing.TIME_METRICS) | set(tracing.COUNT_METRICS)
    assert values["checker.witness_calls"] == values["checker.violated"] > 0
    assert all(v >= 0 for v in values.values())
    spans = tracer.spans
    assert {s.check for s in spans} == {0}
    by_id = {s.id: s for s in spans}
    assert by_id[0].name == tracing.ROOT_SPAN and by_id[0].parent is None
    inline = next(s for s in spans if s.name == "passes.inline")
    assert by_id[inline.parent].name == "passes.preprocess"


def test_memory_tracing_reports_heap_growth(tmp_path):
    case = gen.diamond_cases(2)[0]
    tracer = tracing.Tracer(memory=True)
    tracing.tracemalloc.start()
    tracer.install()
    try:
        _, values = tracer.run_check(lambda: check(case, tmp_path))
    finally:
        tracer.restore()
        tracing.tracemalloc.stop()
    assert values["passes.resolve_peak_mb"] > 0
    assert values["passes.token_flow_peak_mb"] > 0


def test_missing_layer_is_absent_not_zero(monkeypatch):
    monkeypatch.delattr(thadc.passes, "build_token_flow")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, values = tracer.run_check(lambda: None)
    finally:
        tracer.restore()
    assert tracer.absent == {"passes.token_flow"}
    assert "passes.token_flow_ms" not in values
    assert values["passes.resolve_ms"] == 0
    assert not hasattr(thadc.passes, "build_token_flow")


def test_runner_refuses_a_checkout_without_sources(tmp_path):
    copy = tmp_path / "checkout"
    shutil.copytree(BENCH, copy / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=copy, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_loop_fails_crashes_and_changed_report_bytes(monkeypatch, tmp_path):
    case = gen.corpus_cases(0, CORPUS)[0]
    code, report = check(case, tmp_path)
    entry = {"name": case.name, "argv": [], "expected": expected(case)}
    loop = checkloop.Loop([entry])
    loop.verify(entry, code, report, "", "untraced")
    loop.verify(entry, code, report, "", "traced")
    assert loop.failures == []
    loop.verify(entry, code, report.replace("\n", "\r\n"), "", "traced")
    assert loop.failures == [f"traced {case.name}: report bytes differ "
                             "from the untraced pass"]

    def crash(argv):
        raise RuntimeError("boom")
    monkeypatch.setattr(thadc.cli, "main", crash)
    loop.check(entry, "untraced")
    assert loop.attempted == 4
    assert "raised RuntimeError: boom" in loop.failures[-1]
