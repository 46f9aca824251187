"""Check reports: assembly from verdicts plus text and JSON rendering.

A report is the JSON document itself: a dict whose keys are in output
order, typed by ``data/report.schema.json``.  One checking run's report
renders as JSON for tooling or as text for humans.  JSON output is
deterministic: the only run-dependent field, ``wall_time_ms``, can be
suppressed by the caller.

Summary counts are disjoint: ``satisfied`` counts non-trivial satisfied
entries only, and the four buckets always sum to the number of entries.
"""

from __future__ import annotations

import json
from typing import Optional

from . import __version__
from .checker import ThadVerdict
from .model import ThadSet

__all__ = ["build_report", "exit_code", "render_json", "render_text"]

#: Witness traces come from the CFG without branch-feasibility checking,
#: so every witness is reported with this qualifier.
FEASIBILITY = "not-proven"


def _witness(verdict: ThadVerdict, program_path: str) -> Optional[list]:
    """The HAL calls on the verdict's witness path, if it has one."""
    if verdict.witness is None:
        return None
    events = []
    for step in verdict.witness.steps:
        routine = step.event.routine
        discriminator = step.event.discriminator_value
        events.append({
            "routine": routine,
            "discriminator": discriminator,
            "file": program_path,
            "line": step.line,
            "label": (routine if discriminator is None
                      else f"{routine}[{discriminator}]"),
        })
    return events


def build_report(verdicts: list[ThadVerdict], thad_set: ThadSet, *,
                 spec_path: str, program_path: str,
                 wall_time_ms: Optional[int] = None,
                 oracle: Optional[dict] = None) -> dict:
    """The report document, one entry per verdict in the verdicts' order
    (:func:`~thadc.checker.check` returns them in natural thad-id order).
    ``oracle`` is its ``unroll_oracle`` object, when the oracle ran."""
    by_id = {t.id: t for t in thad_set.thads}
    entries = []
    summary = {"satisfied": 0, "violated": 0, "inconclusive": 0,
               "trivially_satisfied": 0}
    for verdict in verdicts:
        thad = by_id[verdict.thad_id]
        witness = _witness(verdict, program_path)
        entries.append({
            "id": verdict.thad_id,
            "dependency": thad.dependency.describe(),
            "dependent": thad.dependent.describe(),
            "status": verdict.status.value,
            "trivial": verdict.trivial,
            "via_alias": verdict.via_alias,
            "reason": verdict.reason,
            "witness": witness,
            "feasibility": None if witness is None else FEASIBILITY,
        })
        summary["trivially_satisfied" if verdict.trivial
                else verdict.status.value] += 1
    report = {
        "tool": "thadc",
        "version": __version__,
        "spec": spec_path,
        "program": program_path,
        "entries": entries,
        "summary": summary,
    }
    if oracle is not None:
        report["unroll_oracle"] = oracle
    if wall_time_ms is not None:
        report["wall_time_ms"] = wall_time_ms
    return report


def exit_code(report: dict) -> int:
    """0 all satisfied, 1 any violation, 3 inconclusive but no violation."""
    if report["summary"]["violated"]:
        return 1
    if report["summary"]["inconclusive"]:
        return 3
    return 0


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------

_ANSI = {
    "green": "\x1b[32m",
    "red": "\x1b[31m",
    "yellow": "\x1b[33m",
    "dim": "\x1b[2m",
    "bold": "\x1b[1m",
}
_RESET = "\x1b[0m"


def _paint(text: str, code: str, color: bool) -> str:
    if not color:
        return text
    return f"{_ANSI[code]}{text}{_RESET}"


def _status_text(entry: dict, color: bool) -> str:
    if entry["status"] == "violated":
        return _paint("VIOLATED", "red", color)
    if entry["status"] == "inconclusive":
        return _paint("inconclusive", "yellow", color)
    if entry["trivial"]:
        return _paint("trivially satisfied", "dim", color)
    label = "satisfied (via alias)" if entry["via_alias"] else "satisfied"
    return _paint(label, "green", color)


def render_text(report: dict, *, color: bool = False) -> str:
    lines = [f"thadc {report['version']}",
             f"spec: {report['spec']}",
             f"program: {report['program']}",
             ""]
    entries = report["entries"]
    if entries:
        id_width = max(len(e["id"]) for e in entries)
        rule_texts = {e["id"]: f"{e['dependent']} requires {e['dependency']}"
                      for e in entries}
        rule_width = max(len(t) for t in rule_texts.values())
        for entry in entries:
            rule = rule_texts[entry["id"]]
            lines.append(f"  {entry['id']:<{id_width}}  {rule:<{rule_width}}"
                         f"  {_status_text(entry, color)}")
            if entry["reason"] is not None:
                lines.append(f"  {'':<{id_width}}    reason: {entry['reason']}")
            if entry["witness"] is not None:
                lines.append(f"  {'':<{id_width}}    witness "
                             f"(feasibility {entry['feasibility']}):")
                for ev in entry["witness"]:
                    lines.append(f"  {'':<{id_width}}      "
                                 f"{ev['file']}:{ev['line']}: {ev['label']}")
    else:
        lines.append("  (no dependencies in the spec)")
    lines.append("")
    s = report["summary"]
    lines.append(f"summary: {s['satisfied']} satisfied, {s['violated']} "
                 f"violated, {s['inconclusive']} inconclusive, "
                 f"{s['trivially_satisfied']} trivially satisfied")
    if "unroll_oracle" in report:
        o = report["unroll_oracle"]
        if o["agrees"]:
            lines.append(f"unroll oracle (k={o['k']}): agrees on "
                         f"{o['checked']} conclusive entries")
        else:
            ids = ", ".join(d["id"] for d in o["disagreements"])
            lines.append(f"unroll oracle (k={o['k']}): DISAGREES on {ids}")
    if "wall_time_ms" in report:
        lines.append(f"wall time: {report['wall_time_ms']} ms")
    return "\n".join(lines) + "\n"
