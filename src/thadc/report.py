"""Check reports: assembly from verdicts plus text and JSON rendering.

A report is a plain value so it can be rendered twice (text for humans,
JSON for tooling) from one checking run.  JSON output is deterministic:
field order is fixed by construction and the only run-dependent field,
``wall_time_ms``, can be suppressed by the caller.

Summary counts are disjoint: ``satisfied`` counts non-trivial satisfied
entries only, and the four buckets always sum to the number of entries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from . import __version__
from .checker import Status, ThadVerdict
from .model import ThadSet, natural_key

__all__ = [
    "OracleAgreement",
    "OracleDisagreement",
    "Report",
    "ReportEntry",
    "ReportEvent",
    "ReportSummary",
    "build_report",
    "exit_code",
    "render_json",
    "render_text",
    "to_dict",
]

_STATUS_LABELS = {
    Status.SATISFIED: "satisfied",
    Status.VIOLATED: "violated",
    Status.INCONCLUSIVE: "inconclusive",
}

#: Witness traces come from the CFG without branch-feasibility checking,
#: so every witness is reported with this qualifier.
FEASIBILITY = "not-proven"


@dataclass(frozen=True)
class ReportEvent:
    """One HAL call on a witness path."""

    routine: str
    discriminator: Optional[str]
    file: str
    line: int

    @property
    def label(self) -> str:
        if self.discriminator is not None:
            return f"{self.routine}[{self.discriminator}]"
        return self.routine


@dataclass(frozen=True)
class ReportEntry:
    thad_id: str
    dependency: str
    dependent: str
    status: str
    trivial: bool
    via_alias: bool
    reason: Optional[str]
    witness: Optional[tuple[ReportEvent, ...]]
    feasibility: Optional[str]


@dataclass(frozen=True)
class ReportSummary:
    satisfied: int
    violated: int
    inconclusive: int
    trivially_satisfied: int

    @property
    def total(self) -> int:
        return (self.satisfied + self.violated + self.inconclusive
                + self.trivially_satisfied)


@dataclass(frozen=True)
class OracleDisagreement:
    thad_id: str
    status: str
    oracle_satisfied: bool


@dataclass(frozen=True)
class OracleAgreement:
    """Result of cross-checking verdicts against the unrolled path oracle.

    Informational only; it never changes verdicts or the exit code.
    Inconclusive entries are skipped (the oracle has nothing to compare
    against), and the oracle runs on a loop-unrolled copy of the program,
    so on looping programs it covers bounded executions only.
    """

    k: int
    checked: int
    disagreements: tuple[OracleDisagreement, ...]

    @property
    def agrees(self) -> bool:
        return not self.disagreements


@dataclass(frozen=True)
class Report:
    version: str
    spec_path: str
    program_path: str
    entries: tuple[ReportEntry, ...]
    summary: ReportSummary
    wall_time_ms: Optional[int] = None
    oracle: Optional[OracleAgreement] = None


def build_report(verdicts: list[ThadVerdict], thad_set: ThadSet, *,
                 spec_path: str, program_path: str,
                 wall_time_ms: Optional[int] = None,
                 oracle: Optional[OracleAgreement] = None) -> Report:
    """Assemble a report; entries are sorted by natural thad-id order."""
    by_id = {t.id: t for t in thad_set.thads}
    entries = []
    counts = {"satisfied": 0, "violated": 0, "inconclusive": 0,
              "trivially_satisfied": 0}
    for verdict in sorted(verdicts, key=lambda v: natural_key(v.thad_id)):
        thad = by_id[verdict.thad_id]
        status = _STATUS_LABELS[verdict.status]
        witness = None
        feasibility = None
        if verdict.witness is not None:
            witness = tuple(
                ReportEvent(routine=step.event.routine,
                            discriminator=step.event.discriminator_value,
                            file=program_path, line=step.line)
                for step in verdict.witness.steps)
            feasibility = FEASIBILITY
        entries.append(ReportEntry(
            thad_id=verdict.thad_id,
            dependency=thad.dependency.describe(),
            dependent=thad.dependent.describe(),
            status=status,
            trivial=verdict.trivial,
            via_alias=verdict.via_alias,
            reason=verdict.reason,
            witness=witness,
            feasibility=feasibility,
        ))
        if verdict.trivial:
            counts["trivially_satisfied"] += 1
        else:
            counts[status] += 1
    return Report(
        version=__version__,
        spec_path=spec_path,
        program_path=program_path,
        entries=tuple(entries),
        summary=ReportSummary(**counts),
        wall_time_ms=wall_time_ms,
        oracle=oracle,
    )


def exit_code(report: Report) -> int:
    """0 all satisfied, 1 any violation, 3 inconclusive but no violation."""
    if report.summary.violated:
        return 1
    if report.summary.inconclusive:
        return 3
    return 0


# ---------------------------------------------------------------------------
# JSON rendering
# ---------------------------------------------------------------------------

def to_dict(report: Report) -> dict:
    """A JSON-ready dict with a fixed key order."""
    entries = []
    for entry in report.entries:
        witness = None
        if entry.witness is not None:
            witness = [
                {
                    "routine": ev.routine,
                    "discriminator": ev.discriminator,
                    "file": ev.file,
                    "line": ev.line,
                    "label": ev.label,
                }
                for ev in entry.witness
            ]
        entries.append({
            "id": entry.thad_id,
            "dependency": entry.dependency,
            "dependent": entry.dependent,
            "status": entry.status,
            "trivial": entry.trivial,
            "via_alias": entry.via_alias,
            "reason": entry.reason,
            "witness": witness,
            "feasibility": entry.feasibility,
        })
    data: dict = {
        "tool": "thadc",
        "version": report.version,
        "spec": report.spec_path,
        "program": report.program_path,
        "entries": entries,
        "summary": {
            "satisfied": report.summary.satisfied,
            "violated": report.summary.violated,
            "inconclusive": report.summary.inconclusive,
            "trivially_satisfied": report.summary.trivially_satisfied,
        },
    }
    if report.oracle is not None:
        data["unroll_oracle"] = {
            "k": report.oracle.k,
            "checked": report.oracle.checked,
            "agrees": report.oracle.agrees,
            "disagreements": [
                {
                    "id": d.thad_id,
                    "status": d.status,
                    "oracle_satisfied": d.oracle_satisfied,
                }
                for d in report.oracle.disagreements
            ],
        }
    if report.wall_time_ms is not None:
        data["wall_time_ms"] = report.wall_time_ms
    return data


def render_json(report: Report) -> str:
    return json.dumps(to_dict(report), indent=2) + "\n"


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


def _status_text(entry: ReportEntry, color: bool) -> str:
    if entry.status == "violated":
        return _paint("VIOLATED", "red", color)
    if entry.status == "inconclusive":
        return _paint("inconclusive", "yellow", color)
    if entry.trivial:
        return _paint("trivially satisfied", "dim", color)
    label = "satisfied (via alias)" if entry.via_alias else "satisfied"
    return _paint(label, "green", color)


def render_text(report: Report, *, color: bool = False) -> str:
    lines = [f"thadc {report.version}",
             f"spec: {report.spec_path}",
             f"program: {report.program_path}",
             ""]
    if report.entries:
        id_width = max(len(e.thad_id) for e in report.entries)
        rule_texts = {e.thad_id: f"{e.dependent} requires {e.dependency}"
                      for e in report.entries}
        rule_width = max(len(t) for t in rule_texts.values())
        for entry in report.entries:
            rule = rule_texts[entry.thad_id]
            lines.append(f"  {entry.thad_id:<{id_width}}  {rule:<{rule_width}}"
                         f"  {_status_text(entry, color)}")
            if entry.reason is not None:
                lines.append(f"  {'':<{id_width}}    reason: {entry.reason}")
            if entry.witness is not None:
                lines.append(f"  {'':<{id_width}}    witness "
                             f"(feasibility {entry.feasibility}):")
                for ev in entry.witness:
                    lines.append(f"  {'':<{id_width}}      "
                                 f"{ev.file}:{ev.line}: {ev.label}")
    else:
        lines.append("  (no dependencies in the spec)")
    lines.append("")
    s = report.summary
    lines.append(f"summary: {s.satisfied} satisfied, {s.violated} violated, "
                 f"{s.inconclusive} inconclusive, "
                 f"{s.trivially_satisfied} trivially satisfied")
    if report.oracle is not None:
        o = report.oracle
        if o.agrees:
            lines.append(f"unroll oracle (k={o.k}): agrees on "
                         f"{o.checked} conclusive entries")
        else:
            ids = ", ".join(d.thad_id for d in o.disagreements)
            lines.append(f"unroll oracle (k={o.k}): DISAGREES on {ids}")
    if report.wall_time_ms is not None:
        lines.append(f"wall time: {report.wall_time_ms} ms")
    return "\n".join(lines) + "\n"
