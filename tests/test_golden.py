"""Golden report bytes: ``--no-timing`` JSON reports must not change.

Every program below is checked against the bundled spec and against
``helpers.bound_spidev_set()``, and the SHA-256 of each rendered report
is compared with ``golden/reports.sha256``.  A few reports are stored in
full under ``golden/`` so that a change shows up as a readable diff.

The file pins the checker's observable output (verdicts, reasons,
witness paths and their tie-breaks) across rewrites of the analyses.
Regenerate it only for an intended change of output, and say why:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from thadc.cfg import build_model
from thadc.checker import check
from thadc.minic import parse_source
from thadc.passes import preprocess
from thadc.report import build_report, render_json
from thadc.specio import bundled_data_path, bundled_spidev

from helpers import bound_spidev_set
from randprog import generate_program

GOLDEN = Path(__file__).resolve().parent / "golden"
SHA_FILE = GOLDEN / "reports.sha256"
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
]
# Reports stored in full, one per kind of program.
FULL = ("accelerometer-faulty.c.bundled", "large-3004.c.bound",
        "loops-1001.c.bundled")


def programs() -> dict[str, str]:
    """Program name -> source, in a fixed order."""
    out = {}
    corpus = bundled_data_path("corpus")
    for name in sorted(p.name for p in corpus.iterdir()
                       if p.name.endswith(".c")):
        out[name] = corpus.joinpath(name).read_text(encoding="utf-8")
    for prefix, first, count, kwargs in DRAWS:
        for seed in range(first, first + count):
            out[f"{prefix}-{seed}.c"] = generate_program(seed, **kwargs)
    return out


def report_text(source: str, path: str, set_name: str) -> str:
    thad_set = SETS[set_name]
    model = preprocess(build_model(parse_source(source, path)), thad_set)
    report = build_report(check(model, thad_set), thad_set,
                          spec_path=set_name, program_path=path)
    return render_json(report)


def all_reports() -> dict[str, str]:
    """``<program>.<set>`` -> rendered report, for every program and set."""
    return {
        f"{path}.{set_name}": report_text(source, path, set_name)
        for path, source in programs().items()
        for set_name in SETS
    }


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_golden() -> dict[str, str]:
    pairs = (line.split() for line in SHA_FILE.read_text().splitlines())
    return {name: sha for sha, name in pairs}


def test_report_bytes_match_golden():
    golden = read_golden()
    reports = all_reports()
    assert sorted(reports) == sorted(golden)
    for name in FULL:
        assert reports[name] == (GOLDEN / f"{name}.json").read_text(), name
    changed = [name for name, text in reports.items()
               if digest(text) != golden[name]]
    assert not changed, f"{len(changed)} reports changed: {changed[:10]}"


def main() -> None:
    reports = all_reports()
    GOLDEN.mkdir(exist_ok=True)
    SHA_FILE.write_text("".join(f"{digest(text)}  {name}\n"
                                for name, text in reports.items()))
    for name in FULL:
        (GOLDEN / f"{name}.json").write_text(reports[name])
    print(f"wrote {len(reports)} digests to {SHA_FILE}")


if __name__ == "__main__":
    main()
