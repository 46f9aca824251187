"""End-to-end acceptance gate.

Each test pins one advertised guarantee of the tool, mostly against the
bundled corpus and frozen expectation fixtures; `pytest -v` shows one
pass/fail line per guarantee.
"""

import json
import time

from hypothesis import given, settings

from thadc import cli
from thadc.annotate import emit_annotated_source, emit_wrapper
from thadc.checker import Status, brute_force_paths, check, hal_traces
from thadc.model import trace_satisfies
from thadc.report import exit_code
from thadc.specio import (
    bundled_data_path,
    bundled_spidev,
    parse_thad_spec,
    serialize_spec,
)

from ghostsim import simulate_wrapper
from helpers import bound_spidev_set, prepared, spidev_set
from randprog import generate_program
from strategies import thad_sets
from test_annotate import (
    MULTI_ANNOTATED,
    MULTI_SKELETON,
    OPEN_IOCTL_SKELETON,
    SINGLE_ANNOTATED,
    subset,
)

CORPUS = bundled_data_path("corpus")
SPIDEV = bundled_spidev()

EXPECTED_NON_TRIVIAL = {
    "io-expander.c": {"d3", "d4", "d14", "d26"},
    "accelerometer.c": {"d3", "d4", "d8", "d14", "d17", "d26"},
    "spidev-test.c": {"d3", "d4", "d7", "d8", "d11", "d12", "d13", "d14",
                      "d17", "d23", "d26"},
}
EXPECTED_VIA_ALIAS = {
    "io-expander.c": set(),
    "accelerometer.c": {"d8", "d17"},
    "spidev-test.c": set(),
}


def checked(source, path="prog.c"):
    """(report, elapsed seconds) for one program against the bundled set."""
    started = time.perf_counter()
    report, note = cli.run_check(source, path, SPIDEV, spec_path="spidev.thad")
    assert note is None
    return report, time.perf_counter() - started


def test_criterion_1_corpus_relevance_matrix():
    for name, expected_ids in EXPECTED_NON_TRIVIAL.items():
        report, elapsed = checked((CORPUS / name).read_text(), name)
        entries = report["entries"]
        non_trivial = {e["id"] for e in entries if not e["trivial"]}
        assert non_trivial == expected_ids, name
        assert all(e["status"] == "satisfied" for e in entries), name
        via_alias = {e["id"] for e in entries if e["via_alias"]}
        assert via_alias == EXPECTED_VIA_ALIAS[name], name
        assert exit_code(report) == 0, name
        assert elapsed < 1.0, f"{name}: {elapsed:.2f}s"


def test_criterion_2_faulty_variant_detected():
    name = "accelerometer-faulty.c"
    report, elapsed = checked((CORPUS / name).read_text(), name)
    by_id = {e["id"]: e for e in report["entries"]}
    assert by_id["d24"]["status"] == "violated"
    assert by_id["d24"]["witness"][-1]["routine"] == "read"
    assert exit_code(report) == 1
    assert elapsed < 1.0, f"{elapsed:.2f}s"


def test_criterion_3_annotation_reference_fidelity():
    def tokens(text):
        return text.split()

    single = emit_annotated_source(subset("d3"), OPEN_IOCTL_SKELETON, "acsl")
    assert tokens(single) == tokens(SINGLE_ANNOTATED)
    multi = emit_annotated_source(subset("d1", "d8", "d15"), MULTI_SKELETON,
                                  "acsl")
    assert tokens(multi) == tokens(MULTI_ANNOTATED)


def assert_oracle_agrees(seed, source, thad_set):
    """Every verdict is conclusive and matches the path oracle."""
    model = prepared(source, thad_set)
    oracle = brute_force_paths(model, thad_set)
    for verdict in check(model, thad_set):
        assert verdict.status is not Status.INCONCLUSIVE, (seed, verdict)
        agrees = (verdict.status is Status.SATISFIED) is \
            oracle[verdict.thad_id]
        assert agrees, (seed, verdict.thad_id, source)


def test_criterion_4_checker_agrees_with_path_oracle_on_500_programs():
    started = time.perf_counter()
    for seed in range(500):
        assert_oracle_agrees(seed, generate_program(seed), SPIDEV)
    assert time.perf_counter() - started < 60.0


def test_criterion_4_oracle_agreement_on_programs_with_helpers():
    # The same agreement once helper functions are inlined, against the
    # bundled spec and the descriptor-bound one.
    for seed in range(5000, 5150):
        source = generate_program(seed, helpers=True)
        for thad_set in (SPIDEV, bound_spidev_set()):
            assert_oracle_agrees(seed, source, thad_set)


def test_criterion_5_wrapper_asserts_encode_trace_semantics():
    wrapper = emit_wrapper(SPIDEV, "acsl")
    for seed in range(500):
        source = generate_program(seed)
        for trace in hal_traces(prepared(source, SPIDEV)):
            failed = simulate_wrapper(wrapper, trace, SPIDEV)
            expected = {
                t.id for t in SPIDEV.thads
                if not trace_satisfies(t, trace, SPIDEV.aliases)
            }
            assert failed == expected, (seed, trace)


def test_criterion_6_satisfied_verdicts_sound_under_loop_unrolling():
    # Satisfied verdicts hold for every unrolling.  At k=1 the check is
    # two-sided: a conclusive verdict is violated exactly when the oracle
    # says so, because a shortest completion-free path is simple and so
    # never needs a second iteration (randprog resolves no discriminator
    # through a loop-carried value).  oracle[t] is True when every path
    # satisfies t, so oracle[t] == violated is a disagreement.
    found = 0
    seed = 0
    while found < 100:
        source = generate_program(seed, allow_loops=True)
        seed += 1
        if source.count("while (") != 1:
            continue
        found += 1
        conclusive = {v.thad_id: v.status is Status.VIOLATED
                      for v in check(prepared(source, SPIDEV), SPIDEV)
                      if v.status is not Status.INCONCLUSIVE}
        for k in (1, 2, 3):
            oracle = brute_force_paths(prepared(source, SPIDEV, unroll=k),
                                       SPIDEV)
            wrong = {t for t, violated in conclusive.items()
                     if oracle[t] == violated and (k == 1 or not violated)}
            assert not wrong, (seed - 1, k, wrong)


@settings(max_examples=100, deadline=None)
@given(thad_sets())
def test_criterion_7a_spec_serialization_round_trips(thad_set):
    text = serialize_spec(thad_set)
    again = parse_thad_spec(text, known_constants=thad_set.constants)
    assert again == thad_set


def test_criterion_7b_bundled_spec_matches_dependency_table():
    reference = spidev_set()
    assert len(SPIDEV.thads) == 26
    bundled_pairs = {t.id: (t.dependency.describe(), t.dependent.describe())
                     for t in SPIDEV.thads}
    reference_pairs = {t.id: (t.dependency.describe(), t.dependent.describe())
                       for t in reference.thads}
    assert bundled_pairs == reference_pairs


def test_criterion_8_json_reports_are_byte_identical(capsys):
    for program in sorted(CORPUS.glob("*.c")):
        argv = ["check", str(program), "--format", "json", "--no-timing"]
        first_code = cli.main(argv)
        first = capsys.readouterr().out
        second_code = cli.main(argv)
        second = capsys.readouterr().out
        assert first_code == second_code
        assert first == second
        json.loads(first)
