"""Report assembly and rendering."""

import json

import jsonschema

from thadc.checker import check
from thadc.model import ThadSet
from thadc.report import build_report, exit_code, render_json, render_text
from thadc.specio import bundled_data_path

from helpers import prepared, spidev_set

SPIDEV = spidev_set()

OK_SOURCE = """
int main(void) {
    int fd = open("/dev/spidev0.0", 2);
    ioctl(fd, WR_MAX_SPEED_HZ, 500000);
    ioctl(fd, MSG, 0);
    close(fd);
    return 0;
}
"""

BAD_SOURCE = """
int main(void) {
    int fd = open("/dev/spidev0.0", 2);
    read(fd, 0, 6);
    return 0;
}
"""

DISAGREEMENT = {"id": "d3", "status": "satisfied", "oracle_satisfied": False}

UNRESOLVED_SOURCE = """
int main(void) {
    int fd = open("/dev/spidev0.0", 2);
    ioctl(fd, cfg, 0);
    ioctl(fd, 1075866368, 0);
    return 0;
}
"""


def report_for(source, program_path="prog.c", **kwargs):
    verdicts = check(prepared(source, SPIDEV), SPIDEV)
    return build_report(verdicts, SPIDEV, spec_path="spidev.thad",
                        program_path=program_path, **kwargs)


class TestBuild:
    def test_entries_cover_every_thad_in_natural_order(self):
        report = report_for(OK_SOURCE)
        assert [e["id"] for e in report["entries"]] == \
            [f"d{i}" for i in range(1, 27)]

    def test_summary_counts_are_disjoint_and_total(self):
        report = report_for(OK_SOURCE)
        s = report["summary"]
        assert sum(s.values()) == len(report["entries"]) == 26
        assert (s["satisfied"], s["violated"], s["inconclusive"],
                s["trivially_satisfied"]) == (4, 0, 0, 22)

    def test_violations_carry_witnesses_with_location(self):
        report = report_for(BAD_SOURCE, program_path="bad.c")
        entry = next(e for e in report["entries"] if e["id"] == "d24")
        assert entry["status"] == "violated"
        assert entry["feasibility"] == "not-proven"
        assert [ev["routine"] for ev in entry["witness"]] == ["open", "read"]
        assert all(ev["file"] == "bad.c" for ev in entry["witness"])
        assert all(ev["line"] > 0 for ev in entry["witness"])

    def test_satisfied_entries_have_no_witness(self):
        report = report_for(OK_SOURCE)
        assert all(e["witness"] is None and e["feasibility"] is None
                   for e in report["entries"] if e["status"] == "satisfied")

    def test_reason_kept_for_inconclusive(self):
        report = report_for(UNRESOLVED_SOURCE)
        entry = next(e for e in report["entries"] if e["id"] == "d17")
        assert entry["status"] == "inconclusive"
        assert "unresolved" in entry["reason"]


class TestExitCode:
    def test_all_satisfied_is_zero(self):
        assert exit_code(report_for(OK_SOURCE)) == 0

    def test_violation_is_one(self):
        assert exit_code(report_for(BAD_SOURCE)) == 1

    def test_inconclusive_is_three(self):
        assert exit_code(report_for(UNRESOLVED_SOURCE)) == 3

    def test_violation_outranks_inconclusive(self):
        source = """
        int main(void) {
            int fd = open("/d", 2);
            ioctl(fd, cfg, 0);
            ioctl(fd, 1075866368, 0);
            read(fd, 0, 6);
            return 0;
        }
        """
        assert exit_code(report_for(source)) == 1


class TestJson:
    def test_render_matches_bundled_schema(self):
        schema = json.loads(
            bundled_data_path("report.schema.json").read_text())
        for source in (OK_SOURCE, BAD_SOURCE, UNRESOLVED_SOURCE):
            data = json.loads(render_json(report_for(source)))
            jsonschema.validate(data, schema)

    def test_timing_field_is_optional(self):
        schema = json.loads(
            bundled_data_path("report.schema.json").read_text())
        timed = report_for(OK_SOURCE, wall_time_ms=12)
        untimed = report_for(OK_SOURCE)
        assert timed["wall_time_ms"] == 12
        assert "wall_time_ms" not in untimed
        jsonschema.validate(timed, schema)

    def test_oracle_block_matches_schema(self):
        schema = json.loads(
            bundled_data_path("report.schema.json").read_text())
        oracle = {"k": 2, "checked": 26, "agrees": False,
                  "disagreements": [DISAGREEMENT]}
        data = report_for(OK_SOURCE, oracle=oracle)
        assert data["unroll_oracle"]["agrees"] is False
        jsonschema.validate(data, schema)

    def test_rendering_is_deterministic(self):
        assert render_json(report_for(OK_SOURCE)) == \
            render_json(report_for(OK_SOURCE))

    def test_fixed_top_level_key_order(self):
        data = report_for(OK_SOURCE, wall_time_ms=1)
        assert list(data) == ["tool", "version", "spec", "program",
                              "entries", "summary", "wall_time_ms"]


class TestText:
    def test_plain_text_has_no_ansi(self):
        text = render_text(report_for(BAD_SOURCE), color=False)
        assert "\x1b[" not in text
        assert "VIOLATED" in text
        assert "witness (feasibility not-proven):" in text

    def test_color_marks_statuses(self):
        text = render_text(report_for(BAD_SOURCE), color=True)
        assert "\x1b[31mVIOLATED\x1b[0m" in text
        assert "\x1b[32m" in text

    def test_alias_marker_shown(self):
        source = """
        int main(void) {
            int fd = open("/d", 2);
            ioctl(fd, WR_MODE, 3);
            return 0;
        }
        """
        text = render_text(report_for(source), color=False)
        assert "satisfied (via alias)" in text

    def test_reason_line_shown(self):
        text = render_text(report_for(UNRESOLVED_SOURCE), color=False)
        assert "reason: unresolved" in text

    def test_summary_line(self):
        text = render_text(report_for(OK_SOURCE), color=False)
        assert ("summary: 4 satisfied, 0 violated, 0 inconclusive, "
                "22 trivially satisfied") in text

    def test_oracle_lines(self):
        agree = {"k": 3, "checked": 26, "agrees": True, "disagreements": []}
        text = render_text(report_for(OK_SOURCE, oracle=agree))
        assert "unroll oracle (k=3): agrees on 26 conclusive entries" in text
        disagree = {"k": 1, "checked": 26, "agrees": False,
                    "disagreements": [DISAGREEMENT]}
        text = render_text(report_for(OK_SOURCE, oracle=disagree))
        assert "DISAGREES on d3" in text

    def test_empty_spec_renders(self):
        empty = ThadSet()
        model = prepared("int main(void) { return 0; }", empty)
        report = build_report(check(model, empty), empty,
                              spec_path="empty.thad", program_path="p.c")
        text = render_text(report)
        assert "(no dependencies in the spec)" in text
        assert exit_code(report) == 0
