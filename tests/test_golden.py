"""Golden report bytes and entry CFGs: neither may change.

Every program below is checked against the bundled spec and against
``helpers.bound_spidev_set()``, and the SHA-256 of each rendered
``--no-timing`` JSON report is compared with ``golden/reports.sha256``.
A few reports are stored in full under ``golden/`` so that a change
shows up as a readable diff.  ``golden/text.sha256`` pins the same
reports rendered as text, plain and in color.

``golden/unroll.sha256`` pins what ``thadc check PROGRAM --unroll 1
--no-timing`` writes, in JSON and in text, for the corpus and the loop
draws: stdout, stderr and the exit code.  Those are the only reports
with an ``unroll_oracle`` block, and they go through the CLI.

``golden/entry_cfg.sha256`` holds one SHA-256 per program of its entry
CFG as prepared for the bundled spec: node ids, kinds, lines, callees,
call events and out-edges in order, but not variable spellings.  Report
bytes alone miss a changed node that no witness passes through, and
most of these programs call helper functions, so the file pins what
inlining builds.

``golden/ast.sha256`` holds one SHA-256 per program of
``repr(parse_source(...))``: the syntax tree, positions included, that
the front end builds.  Besides the programs below it covers the
benchmark's ``wide`` and ``diamond`` cases for seeds 1 and 101, which
``perfbench/gen.py`` builds afresh, so a change of that generator changes
those entries.

The programs are the corpus, seeded ``randprog`` draws (single ``main``
or with helper functions), and one reduced ``wide`` and ``diamond``
program from the benchmark's generator, stored under ``golden/``.  The
files pin the checker's observable output (verdicts, reasons, witness
paths and their tie-breaks) across rewrites of the analyses.
Regenerate them only for an intended change of output, and say why:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

from thadc import cli
from thadc.cfg import build_model
from thadc.checker import check
from thadc.minic import parse_source
from thadc.passes import preprocess
from thadc.report import build_report, render_json, render_text
from thadc.specio import bundled_data_path, bundled_spidev

from helpers import benchmark_generator, bound_spidev_set, edges
from randprog import generate_program

GOLDEN = Path(__file__).resolve().parent / "golden"
SHA_FILE = GOLDEN / "reports.sha256"
CFG_FILE = GOLDEN / "entry_cfg.sha256"
TEXT_FILE = GOLDEN / "text.sha256"
UNROLL_FILE = GOLDEN / "unroll.sha256"
AST_FILE = GOLDEN / "ast.sha256"
SETS = {"bundled": bundled_spidev(), "bound": bound_spidev_set()}

# (name prefix, first seed, count, generate_program keyword arguments)
DRAWS = [
    ("plain", 0, 80, {}),
    ("loops", 1000, 50, {"allow_loops": True}),
    ("opens", 2000, 40, {"min_opens": 1}),
    ("large", 3000, 15, {"max_calls": 60, "max_branches": 20,
                         "min_opens": 1}),
    ("large-loops", 4000, 15, {"max_calls": 60, "max_branches": 20,
                               "min_opens": 1, "allow_loops": True}),
    ("helpers", 5000, 150, {"helpers": True}),
]
# perfbench/gen.py output at reduced sizes, kept as files so that a change
# of the generator leaves this gate alone: wide_program(Random("wide:101"),
# 24, frozenset({"WR_LSB_FIRST"}), legacy_mode=True) and
# diamond_program(Random("diamond:101"), 4, 2).
REDUCED = ("wide-reduced.c", "diamond-reduced.c")
# Reports stored in full, one per kind of program.
FULL = ("accelerometer-faulty.c.bundled", "large-3004.c.bound",
        "loops-1001.c.bundled")


def corpus_names() -> list[str]:
    return sorted(p.name for p in bundled_data_path("corpus").iterdir()
                  if p.name.endswith(".c"))


def programs() -> dict[str, str]:
    """Program name -> source, in a fixed order."""
    out = {}
    corpus = bundled_data_path("corpus")
    for name in corpus_names():
        out[name] = corpus.joinpath(name).read_text(encoding="utf-8")
    for prefix, first, count, kwargs in DRAWS:
        for seed in range(first, first + count):
            out[f"{prefix}-{seed}.c"] = generate_program(seed, **kwargs)
    for name in REDUCED:
        out[name] = (GOLDEN / name).read_text(encoding="utf-8")
    return out


def syntax_trees() -> dict[str, str]:
    """Program name -> ``repr`` of its syntax tree, for :func:`programs`
    and the benchmark's ``wide`` and ``diamond`` cases for seeds 1 and
    101."""
    sources = programs()
    gen = benchmark_generator()
    for seed in (1, 101):
        for case in [*gen.wide_cases(seed), *gen.diamond_cases(seed)]:
            sources[f"seed{seed}-{case.name}"] = case.source
    return {name: repr(parse_source(source, name))
            for name, source in sources.items()}


def entry_cfg_text(model) -> str:
    """The entry CFG without variable spellings, one line per node."""
    cfg = model.entry_body.cfg
    lines = [f"entry {cfg.entry} exit {cfg.exit}"]
    for nid, node in enumerate(cfg.nodes):
        out = " ".join(f"{e.label}:{e.dst}" for e in edges(cfg, nid))
        lines.append(f"{nid} {node.kind.value} {node.line} {node.callee} "
                     f"{model.events.get(nid)!r} -> {out}")
    return "\n".join(lines) + "\n"


def lowered(path: str, source: str):
    return build_model(parse_source(source, path))


def prepared_texts(model, path: str, set_name: str
                   ) -> tuple[str, str, str, str]:
    """The report of ``model`` prepared for one of the SETS, rendered as
    JSON, as plain text and as colored text, and its entry CFG text."""
    thad_set = SETS[set_name]
    prepared = preprocess(model, thad_set)
    report = build_report(check(prepared, thad_set), thad_set,
                          spec_path=set_name, program_path=path)
    return (render_json(report), render_text(report),
            render_text(report, color=True), entry_cfg_text(prepared))


@functools.cache
def outputs() -> tuple[dict[str, str], dict[str, str], dict[str, str]]:
    """``<program>.<set>`` -> rendered report for every program and set,
    ``<program>.<set>.plain`` and ``.color`` -> its text rendering, and
    program -> entry CFG text for the bundled spec."""
    reports, texts, cfgs = {}, {}, {}
    for path, source in programs().items():
        for set_name in SETS:
            report, plain, color, cfg = prepared_texts(
                lowered(path, source), path, set_name)
            reports[f"{path}.{set_name}"] = report
            texts[f"{path}.{set_name}.plain"] = plain
            texts[f"{path}.{set_name}.color"] = color
            if set_name == "bundled":
                cfgs[path] = cfg
    return reports, texts, cfgs


def cli_outputs() -> dict[str, str]:
    """``<program>.<format>`` -> stdout, stderr and exit code of
    ``thadc check PROGRAM --unroll 1 --no-timing`` for the corpus and the
    ``loops-*`` draws, each run on a copy in a temporary directory so
    that the report names the program by its bare name."""
    sources = programs()
    names = [*corpus_names(), *(n for n in sources if n.startswith("loops-"))]
    out = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp), \
            mock.patch.dict(os.environ, {"THADC_COLOR": "never"}):
        for name in names:
            Path(name).write_text(sources[name], encoding="utf-8")
            for fmt in ("json", "text"):
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    code = cli.main(["check", name, "--format", fmt,
                                     "--unroll", "1", "--no-timing"])
                out[f"{name}.{fmt}"] = (f"{stdout.getvalue()}--- stderr\n"
                                        f"{stderr.getvalue()}--- exit {code}\n")
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_digests(path: Path) -> dict[str, str]:
    pairs = (line.split() for line in path.read_text().splitlines())
    return {name: sha for sha, name in pairs}


def write_digests(path: Path, texts: dict[str, str]) -> None:
    path.write_text("".join(f"{digest(text)}  {name}\n"
                            for name, text in texts.items()))


def changed(texts: dict[str, str], golden: dict[str, str]) -> list[str]:
    assert sorted(texts) == sorted(golden)
    return [name for name, text in texts.items()
            if digest(text) != golden[name]]


def test_report_bytes_match_golden():
    golden = read_digests(SHA_FILE)
    reports, _, _ = outputs()
    for name in FULL:
        assert reports[name] == (GOLDEN / f"{name}.json").read_text(), name
    different = changed(reports, golden)
    assert not different, f"{len(different)} reports changed: {different[:10]}"


def test_text_reports_match_golden():
    _, texts, _ = outputs()
    different = changed(texts, read_digests(TEXT_FILE))
    assert not different, f"{len(different)} text reports changed: {different[:10]}"


def test_unroll_oracle_runs_match_golden():
    different = changed(cli_outputs(), read_digests(UNROLL_FILE))
    assert not different, f"{len(different)} CLI runs changed: {different[:10]}"


def test_entry_cfgs_match_golden():
    _, _, cfgs = outputs()
    different = changed(cfgs, read_digests(CFG_FILE))
    assert not different, f"{len(different)} entry CFGs changed: {different[:10]}"


def test_syntax_trees_match_golden():
    different = changed(syntax_trees(), read_digests(AST_FILE))
    assert not different, f"{len(different)} syntax trees changed: {different[:10]}"


def test_one_lowered_model_serves_both_specs():
    # No pass changes the model it is given, so one lowered model,
    # prepared for the bundled spec and then for the bound one, gives
    # what fresh models give.  The corpus and the reduced programs, and
    # the first plain and helper draws, cover entries with and without
    # calls of defined functions.
    sources = programs()
    names = [*corpus_names(), *REDUCED,
             *(f"plain-{seed}.c" for seed in range(10)),
             *(f"helpers-{seed}.c" for seed in range(5000, 5020))]
    for path in names:
        shared = lowered(path, sources[path])
        for set_name in SETS:
            assert (prepared_texts(shared, path, set_name)
                    == prepared_texts(lowered(path, sources[path]), path,
                                      set_name)), (path, set_name)


def main() -> None:
    reports, texts, cfgs = outputs()
    runs = cli_outputs()
    trees = syntax_trees()
    write_digests(SHA_FILE, reports)
    write_digests(TEXT_FILE, texts)
    write_digests(UNROLL_FILE, runs)
    write_digests(CFG_FILE, cfgs)
    write_digests(AST_FILE, trees)
    for name in FULL:
        (GOLDEN / f"{name}.json").write_text(reports[name])
    print(f"wrote {len(reports)} report, {len(texts)} text report, "
          f"{len(runs)} CLI run, {len(cfgs)} entry CFG and {len(trees)} "
          "syntax tree digests")


if __name__ == "__main__":
    main()
