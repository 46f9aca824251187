"""Command-line interface: ``check``, ``annotate``, and ``explain``.

:func:`run_check` is ``check`` on one program's source text, for library
use: it returns the report as a JSON-ready dict, and the note that says
why the ``--unroll`` oracle was skipped, if it was.

Exit codes, shared by all subcommands:

* 0: success (for ``check``: every dependency satisfied)
* 1: ``check`` found at least one violation (or a corpus mismatch)
* 2: usage, I/O, or parse error
* 3: ``check`` found no violation but could not resolve everything
* 4: internal error, reported in one line without a traceback

``THADC_COLOR`` (``auto``/``never``/``always``) controls ANSI colors in
text output; ``auto`` colors only when writing to a terminal.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional

from . import __version__
from .cfg import build_model
from .checker import (PathExplosion, Status, ThadVerdict, brute_force_paths,
                      check)
from .diagnostics import Diagnostic, DiagnosticError
from .minic import UnrollTooDeep, parse_source, unroll_loops
from .model import Thad, ThadSet
from .passes import DepthLimitExceeded, RecursionDetected, preprocess
from .report import build_report, exit_code, render_json, render_text
from .specio import binding_source, bundled_data_path, load_spec

__all__ = ["main", "run_check"]

_USAGE = 2
_INTERNAL = 4


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _want_color(stream) -> bool:
    mode = os.environ.get("THADC_COLOR", "auto")
    if mode == "always":
        return True
    if mode == "never":
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _read_text(path, name: str) -> str:
    """A UTF-8 text file with universal newlines, as ``read_text`` reads
    it.  Bytes that are not UTF-8 are a diagnostic at their position."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start].decode("utf-8")
        head = head.replace("\r\n", "\n").replace("\r", "\n")
        raise DiagnosticError([Diagnostic(
            head.count("\n") + 1, len(head) - head.rfind("\n"),
            f"byte 0x{data[exc.start]:02x} is not valid UTF-8", "encoding",
        )], name) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _load_set(args) -> tuple[ThadSet, str]:
    """The dependency set to check against, plus a display path for it."""
    if args.spec is None:
        spec_src = bundled_data_path("spidev.thad")
        consts_src = bundled_data_path("spidev-linux.consts")
        spec_name, consts_name = "spidev.thad", "spidev-linux.consts"
    else:
        spec_src = Path(args.spec)
        consts_src = Path(args.consts) if args.consts else None
        spec_name = str(spec_src)
        consts_name = str(consts_src) if consts_src is not None else "<consts>"
    spec_text = _read_text(spec_src, spec_name)
    consts_text = (_read_text(consts_src, consts_name)
                   if consts_src is not None else None)
    thad_set = load_spec(spec_text, consts_text, spec_name, consts_name)
    return thad_set, spec_name


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _prepared(program, thad_set: ThadSet, depth: int):
    """A parsed program lowered and prepared for the checker."""
    return preprocess(build_model(program), thad_set, depth)


def _unroll_oracle(program, thad_set: ThadSet, verdicts: list[ThadVerdict],
                   k: int, depth: int) -> dict:
    """The report's ``unroll_oracle`` object: the conclusive verdicts
    cross-checked against the path oracle on a k-unrolled copy of the
    program.  Informational only, it never changes verdicts or the exit
    code.  Inconclusive verdicts are skipped, and on programs with loops
    the oracle covers executions of up to k iterations."""
    unrolled = _prepared(unroll_loops(program, k), thad_set, depth)
    oracle = brute_force_paths(unrolled, thad_set)
    conclusive = [v for v in verdicts if v.status is not Status.INCONCLUSIVE]
    disagreements = [
        {"id": v.thad_id, "status": v.status.value,
         "oracle_satisfied": oracle[v.thad_id]}
        for v in conclusive
        if oracle[v.thad_id] is not (v.status is Status.SATISFIED)]
    return {"k": k, "checked": len(conclusive),
            "agrees": not disagreements, "disagreements": disagreements}


def run_check(source: str, path: str, thad_set: ThadSet, *, spec_path: str,
              inline_depth: int = 16, unroll: Optional[int] = None,
              timing: bool = False) -> tuple[dict, Optional[str]]:
    """Parse, lower, inline and resolve, and decide one program against
    ``thad_set``; returns the report and a note.  ``unroll`` adds the
    ``--unroll`` oracle block and ``timing`` the wall time.  The note is
    None unless the oracle was asked for and had to be skipped; then the
    report has no oracle block, and the note says why.  Parse and
    preparation errors raise, as ``check`` exits 2 on them.

    The cyclic garbage collector is paused for the check and left as the
    caller had it: the syntax tree, the graphs and the tables a check
    builds form no reference cycles, so a collection inside it would
    only rescan them, and reference counting frees them all when the
    check returns."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        program = parse_source(source, path)
        verdicts = check(_prepared(program, thad_set, inline_depth), thad_set)
        oracle = note = None
        if unroll is not None:
            try:
                oracle = _unroll_oracle(program, thad_set, verdicts, unroll,
                                        inline_depth)
            except (PathExplosion, UnrollTooDeep) as exc:
                note = f"unroll oracle skipped: {exc}"
        wall_ms = (int((time.perf_counter() - started) * 1000) if timing
                   else None)
        report = build_report(verdicts, thad_set, spec_path=spec_path,
                              program_path=path, wall_time_ms=wall_ms,
                              oracle=oracle)
    finally:
        if enabled:
            gc.enable()
    return report, note


def _checked(source: str, path: str, thad_set: ThadSet, options: dict
             ) -> dict:
    """:func:`run_check`'s report; its note, if any, goes to stderr."""
    report, note = run_check(source, path, thad_set, **options)
    if note is not None:
        print(f"thadc: {note}", file=sys.stderr)
    return report


def _cmd_check(args) -> int:
    thad_set, spec_path = _load_set(args)
    options = {"spec_path": spec_path, "inline_depth": args.inline_depth,
               "unroll": args.unroll, "timing": not args.no_timing}
    if args.corpus:
        return _run_corpus(thad_set, options, args.output)
    source = _read_text(Path(args.program), args.program)
    report = _checked(source, args.program, thad_set, options)
    if args.format == "json":
        text = render_json(report)
    else:
        color = args.output is None and _want_color(sys.stdout)
        text = render_text(report, color=color)
    _write_output(text, args.output)
    return exit_code(report)


# ---------------------------------------------------------------------------
# check --corpus
# ---------------------------------------------------------------------------

def _corpus_entries() -> list[tuple[str, str, dict]]:
    """(name, program text, expectations) for each bundled corpus file."""
    root = bundled_data_path("corpus")
    names = sorted(p.name for p in root.iterdir() if p.name.endswith(".c"))
    entries = []
    for name in names:
        source = root.joinpath(name).read_text(encoding="utf-8")
        expected_name = name[:-2] + ".expected.json"
        expected = json.loads(
            root.joinpath(expected_name).read_text(encoding="utf-8"))
        entries.append((name, source, expected))
    return entries


def _corpus_facts(report: dict) -> dict:
    entries = report["entries"]
    non_trivial = {e["id"]: e["status"] for e in entries if not e["trivial"]}
    via_alias = sorted(e["id"] for e in entries if e["via_alias"])
    witness_ends = {e["id"]: e["witness"][-1]["routine"] for e in entries
                    if e["witness"]}
    return {"non_trivial": non_trivial, "via_alias": via_alias,
            "witness_ends": witness_ends, "exit_code": exit_code(report)}


def _run_corpus(thad_set: ThadSet, options: dict,
                output: Optional[str]) -> int:
    """``check --corpus``; ``options`` are :func:`run_check`'s."""
    entries = _corpus_entries()
    color = output is None and _want_color(sys.stdout)
    lines = [f"corpus: {len(entries)} programs "
             f"(spec: {options['spec_path']})"]
    width = max(len(name) for name, _, _ in entries)
    mismatches = 0
    for name, source, expected in entries:
        report = _checked(source, name, thad_set, options)
        facts = _corpus_facts(report)
        problems = []
        for key in ("non_trivial", "via_alias", "witness_ends", "exit_code"):
            want = expected[key] if key != "via_alias" else sorted(expected[key])
            if facts[key] != want:
                problems.append((key, want, facts[key]))
        if not problems:
            detail = (f"{len(facts['non_trivial'])} non-trivial, "
                      f"exit {facts['exit_code']}")
            if "wall_time_ms" in report:
                detail += f", {report['wall_time_ms']} ms"
            mark = "ok" if not color else "\x1b[32mok\x1b[0m"
            lines.append(f"  {name:<{width}}  {mark} ({detail})")
        else:
            mismatches += 1
            mark = "MISMATCH" if not color else "\x1b[31mMISMATCH\x1b[0m"
            lines.append(f"  {name:<{width}}  {mark}")
            for key, want, got in problems:
                lines.append(f"    {key}: expected {want!r}, got {got!r}")
    if mismatches:
        lines.append(f"corpus: {mismatches} of {len(entries)} programs "
                     "do not match expectations")
    else:
        lines.append(f"corpus: all {len(entries)} programs match expectations")
    _write_output("\n".join(lines) + "\n", output)
    return 1 if mismatches else 0


# ---------------------------------------------------------------------------
# annotate
# ---------------------------------------------------------------------------

def _cmd_annotate(args) -> int:
    # Imported here, not at the top: ``check`` never needs it, and its
    # start-up would pay for it.
    from . import annotate

    if args.mode not in annotate.MODES:
        print(f"thadc: unknown annotation mode {args.mode!r}; expected one "
              f"of {', '.join(annotate.MODES)}", file=sys.stderr)
        return _USAGE
    thad_set, _ = _load_set(args)
    output = args.output
    try:
        if args.wrapper:
            text = annotate.emit_wrapper(thad_set, mode=args.mode)
        else:
            source = _read_text(Path(args.skeleton), args.skeleton)
            text = annotate.emit_annotated_source(thad_set, source,
                                                  mode=args.mode)
            if output is None:
                stem = args.skeleton[:-2] if args.skeleton.endswith(".c") \
                    else args.skeleton
                output = stem + ".annotated.c"
    except annotate.AnnotationError as exc:
        print(f"thadc: {exc}", file=sys.stderr)
        return _USAGE
    _write_output(text, output)
    return 0


# ---------------------------------------------------------------------------
# explain
# ---------------------------------------------------------------------------

def _binding_text(thad: Thad) -> str:
    if thad.binding is None:
        return ""
    return (f" (descriptor: {binding_source(thad)} -> "
            f"{thad.binding.target_param})")


def _explain_text(thad_set: ThadSet) -> str:
    lines = [f"routines: {', '.join(r.name for r in thad_set.routines)}"]
    for source, target in sorted(thad_set.aliases.items()):
        lines.append(f"alias: {source} satisfies {target}")
    lines.append("")
    for thad in thad_set.thads:
        lines.append(thad.describe() + _binding_text(thad))
    return "\n".join(lines) + "\n"


def _dot_node(label: str) -> str:
    if label.isidentifier():
        return label
    return '"' + label.replace('"', '\\"') + '"'


def _explain_dot(thad_set: ThadSet) -> str:
    lines = ["digraph dependencies {", "  rankdir=LR;"]
    for thad in thad_set.thads:
        dep = _dot_node(thad.dependency.describe())
        dnt = _dot_node(thad.dependent.describe())
        lines.append(f'  {dep} -> {dnt} [label="{thad.id}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_explain(args) -> int:
    thad_set, _ = _load_set(args)
    if args.format == "dot":
        text = _explain_dot(thad_set)
    else:
        text = _explain_text(thad_set)
    _write_output(text, args.output)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_spec_options(sub) -> None:
    sub.add_argument("--spec", metavar="PATH",
                     help="dependency spec file (default: bundled SPI "
                          "userspace device spec)")
    sub.add_argument("--consts", metavar="PATH",
                     help="platform constants table for the spec")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves
    no state on it, since every call fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="thadc",
        description="Check C programs against temporal HAL-API dependencies.")
    parser.add_argument("--version", action="version",
                        version=f"thadc {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_check = subs.add_parser(
        "check", help="statically check a program against a dependency set")
    p_check.add_argument("program", nargs="?", metavar="PROGRAM.c",
                         help="program to check (omit with --corpus)")
    _add_spec_options(p_check)
    p_check.add_argument("--corpus", action="store_true",
                         help="check the bundled example programs against "
                              "their recorded expectations")
    p_check.add_argument("--format", choices=["text", "json"],
                         default="text")
    p_check.add_argument("--inline-depth", type=int, default=16, metavar="N",
                         help="maximum call-inlining depth (default 16)")
    p_check.add_argument("--unroll", type=int, metavar="K",
                         help="also run the exhaustive path oracle on a "
                              "K-unrolled copy and report agreement "
                              "(verdicts and exit code are unchanged)")
    p_check.add_argument("--no-timing", action="store_true",
                         help="omit wall-clock timing from the report")
    p_check.add_argument("-o", "--output", metavar="PATH",
                         help="write the report to a file instead of stdout")
    p_check.set_defaults(func=_cmd_check)

    p_ann = subs.add_parser(
        "annotate",
        help="inject ghost-variable annotations for runtime checking")
    p_ann.add_argument("skeleton", nargs="?", metavar="SKELETON.c",
                       help="HAL implementation skeleton to annotate "
                            "(omit with --wrapper)")
    _add_spec_options(p_ann)
    p_ann.add_argument("--mode", default="acsl",
                       help="annotation style (default acsl)")
    p_ann.add_argument("--wrapper", action="store_true",
                       help="emit a self-contained instrumentation wrapper "
                            "instead of annotating a skeleton")
    p_ann.add_argument("-o", "--output", metavar="PATH",
                       help="output file (default: SKELETON.annotated.c, "
                            "or stdout with --wrapper)")
    p_ann.set_defaults(func=_cmd_annotate)

    p_exp = subs.add_parser(
        "explain", help="print the dependencies in a spec")
    _add_spec_options(p_exp)
    p_exp.add_argument("--format", choices=["text", "dot"], default="text")
    p_exp.add_argument("-o", "--output", metavar="PATH",
                       help="write to a file instead of stdout")
    p_exp.set_defaults(func=_cmd_explain)
    return parser


def _validate(parser: argparse.ArgumentParser, args) -> None:
    if args.command == "check":
        if args.corpus and args.program is not None:
            parser.error("--corpus does not take a program argument")
        if not args.corpus and args.program is None:
            parser.error("a program to check is required (or use --corpus)")
        if args.corpus and args.format == "json":
            parser.error("--corpus reports in text form only")
        if args.unroll is not None and args.unroll < 1:
            parser.error("--unroll must be at least 1")
        if args.inline_depth < 1:
            parser.error("--inline-depth must be at least 1")
    if args.command == "annotate":
        if args.wrapper and args.skeleton is not None:
            parser.error("--wrapper does not take a skeleton argument")
        if not args.wrapper and args.skeleton is None:
            parser.error("a skeleton to annotate is required "
                         "(or use --wrapper)")
    if getattr(args, "consts", None) is not None and args.spec is None:
        parser.error("--consts requires --spec")


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        return args.func(args)
    except DiagnosticError as exc:
        print(str(exc), file=sys.stderr)
        return _USAGE
    except (RecursionDetected, DepthLimitExceeded, OSError) as exc:
        print(f"thadc: {exc}", file=sys.stderr)
        return _USAGE
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"thadc: internal error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return _INTERNAL


if __name__ == "__main__":
    sys.exit(main())
