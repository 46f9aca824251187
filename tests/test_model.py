"""Trace-semantics oracle: matching, satisfaction, and its invariants."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    SPIDEV_CONSTANTS,
    bound_read_set,
    ev_close,
    ev_ioctl,
    ev_open,
    ev_read,
    ev_write,
    spidev_set,
)
from thadc.model import (
    BindingSource,
    CallEvent,
    DescriptorBinding,
    Param,
    ParamRole,
    RoutineSpec,
    Thad,
    ThadSet,
    match_event,
    trace_satisfies,
)

SPIDEV = spidev_set()
ALIASES = SPIDEV.aliases


def thad(tid: str) -> Thad:
    return next(t for t in SPIDEV.thads if t.id == tid)


def satisfied_by(trace) -> dict[str, bool]:
    """:func:`trace_satisfies` for every bundled dependency."""
    return {t.id: trace_satisfies(t, trace, ALIASES) for t in SPIDEV.thads}


# ---------------------------------------------------------------------------
# match_event
# ---------------------------------------------------------------------------

def test_match_constrained_pattern_on_matching_constant():
    d3 = thad("d3")
    assert match_event(d3.dependent, ev_ioctl("MSG")) is True


def test_match_unconstrained_pattern_by_name():
    d1 = thad("d1")
    assert match_event(d1.dependent, ev_read()) is True
    assert match_event(d1.dependent, ev_write()) is False


def test_match_constrained_pattern_rejects_other_constant():
    d3 = thad("d3")
    assert match_event(d3.dependent, ev_ioctl("WR_MODE32")) is False


def test_match_unknown_discriminator_never_matches_constrained():
    d3 = thad("d3")
    assert match_event(d3.dependent, ev_ioctl(None)) is False


def test_match_is_pure():
    d3 = thad("d3")
    ev = ev_ioctl("MSG")
    assert match_event(d3.dependent, ev) == match_event(d3.dependent, ev)


def test_alias_event_matches_target_pattern():
    # A legacy WR_MODE request stands in for WR_MODE32.
    d8 = thad("d8")
    assert match_event(d8.dependent, ev_ioctl("WR_MODE"), ALIASES) is True
    assert match_event(d8.dependent, ev_ioctl("WR_MODE"), aliases=None) is False


def test_alias_is_a_rewrite_not_an_extension():
    # Once aliased away, the legacy constant no longer matches patterns
    # written over itself, and the substitution is one-directional.
    d6 = thad("d6")  # dependent pattern ioctl[WR_MODE]
    assert match_event(d6.dependent, ev_ioctl("WR_MODE"), ALIASES) is False
    d8 = thad("d8")
    assert match_event(d6.dependent, ev_ioctl("WR_MODE32"), ALIASES) is False
    assert match_event(d8.dependent, ev_ioctl("WR_MODE32"), ALIASES) is True


# ---------------------------------------------------------------------------
# trace_satisfies
# ---------------------------------------------------------------------------

def test_open_then_read_satisfies_d1():
    assert trace_satisfies(thad("d1"), [ev_open("t0"), ev_read("t0")]) is True


def test_empty_trace_is_vacuously_satisfied():
    assert trace_satisfies(thad("d1"), []) is True


def test_read_before_open_violates_d1():
    assert trace_satisfies(thad("d1"), [ev_read("t0"), ev_open("t0")]) is False


def test_non_msg_ioctl_is_not_a_d3_dependent():
    trace = [ev_open("t0"), ev_ioctl("WR_MODE32")]
    assert trace_satisfies(thad("d3"), trace) is True


def test_violation_is_permanent_for_open_read():
    trace = [ev_read("t0"), ev_open("t0"), ev_read("t0")]
    assert trace_satisfies(thad("d1"), trace) is False


def test_trace_satisfies_all_open_read():
    got = satisfied_by([ev_open("t0"), ev_read("t0")])
    expect = {t.id: True for t in SPIDEV.thads}
    # read also depends on the four write-config requests
    for tid in ("d15", "d18", "d21", "d24"):
        expect[tid] = False
    assert got == expect


def test_trace_satisfies_all_empty():
    got = satisfied_by([])
    assert got == {t.id: True for t in SPIDEV.thads}


def test_trace_satisfies_all_close_only():
    got = satisfied_by([ev_close("t0")])
    expect = {t.id: True for t in SPIDEV.thads}
    expect["d4"] = False
    assert got == expect


def test_fully_configured_sequence_satisfies_everything():
    trace = [
        ev_open("t0"),
        ev_ioctl("WR_MODE32"),
        ev_ioctl("WR_LSB_FIRST"),
        ev_ioctl("WR_BITS_PER_WORD"),
        ev_ioctl("WR_MAX_SPEED_HZ"),
        ev_ioctl("MSG"),
        ev_read("t0"),
        ev_write("t0"),
        ev_close("t0"),
    ]
    assert all(satisfied_by(trace).values())


def test_legacy_mode_request_satisfies_d15_under_alias():
    trace = [ev_open("t0"), ev_ioctl("WR_MODE"), ev_read("t0")]
    got = satisfied_by(trace)
    assert got["d15"] is True
    assert got["d18"] is False and got["d21"] is False and got["d24"] is False


# ---------------------------------------------------------------------------
# descriptor bindings
# ---------------------------------------------------------------------------

def test_binding_requires_same_token():
    s = bound_read_set()
    (b1,) = s.thads
    assert trace_satisfies(b1, [ev_open("t0"), ev_read("t0")]) is True
    assert trace_satisfies(b1, [ev_open("t0"), ev_read("t1")]) is False
    assert (
        trace_satisfies(b1, [ev_open("t0"), ev_open("t1"), ev_read("t1")]) is True
    )


def test_binding_with_missing_tokens_is_never_satisfied():
    s = bound_read_set()
    (b1,) = s.thads
    assert trace_satisfies(b1, [ev_open("t0"), ev_read(None)]) is False
    assert (
        trace_satisfies(b1, [CallEvent("open"), ev_read("t0")]) is False
    )


def test_param_source_binding_tracks_descriptor_param():
    routines = (
        RoutineSpec(
            "ioctl",
            (
                Param("fd", ParamRole.DESCRIPTOR),
                Param("request", ParamRole.DISCRIMINATOR),
            ),
        ),
        RoutineSpec("read", (Param("fd", ParamRole.DESCRIPTOR),)),
    )
    t = Thad(
        "p1",
        dependency=routines[0].with_constraint("WR_MODE32"),
        dependent=routines[1],
        binding=DescriptorBinding(BindingSource.PARAM, "fd"),
    )
    s = ThadSet(routines=routines, thads=(t,), constants={"WR_MODE32": None})
    ok = [ev_ioctl("WR_MODE32", "t0"), ev_read("t0")]
    other = [ev_ioctl("WR_MODE32", "t1"), ev_read("t0")]
    assert trace_satisfies(t, ok, s.aliases) is True
    assert trace_satisfies(t, other, s.aliases) is False


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------

def test_duplicate_thad_ids_rejected():
    r = spidev_set()
    with pytest.raises(ValueError):
        ThadSet(
            routines=r.routines,
            thads=(r.thads[0], r.thads[0]),
            constants=dict(r.constants),
        )


def test_self_dependency_rejected():
    open_spec = RoutineSpec("open", (), returns_descriptor=True)
    with pytest.raises(ValueError):
        Thad("dx", dependency=open_spec, dependent=open_spec)


def test_same_routine_different_constants_is_allowed():
    ioctl = spidev_set().routine("ioctl")
    t = Thad(
        "dx",
        dependency=ioctl.with_constraint("WR_MODE32"),
        dependent=ioctl.with_constraint("MSG"),
    )
    assert t.dependency.discriminator_constraint == ("request", "WR_MODE32")


def test_constraint_on_non_discriminator_param_rejected():
    with pytest.raises(ValueError):
        RoutineSpec(
            "read",
            (Param("fd", ParamRole.DESCRIPTOR),),
            discriminator_constraint=("fd", "MSG"),
        )


def test_binding_target_must_be_descriptor_param():
    open_spec = RoutineSpec("open", (), returns_descriptor=True)
    read_spec = RoutineSpec("read", (Param("buf"),))
    with pytest.raises(ValueError):
        Thad(
            "dx",
            dependency=open_spec,
            dependent=read_spec,
            binding=DescriptorBinding(BindingSource.RETURN_VALUE, "buf"),
        )


def test_alias_cycle_rejected():
    r = spidev_set()
    with pytest.raises(ValueError):
        ThadSet(
            routines=r.routines,
            thads=(),
            constants=dict(r.constants),
            aliases={"WR_MODE": "WR_MODE32", "WR_MODE32": "WR_MODE"},
        )


def test_unknown_constant_in_constraint_rejected():
    r = spidev_set()
    ioctl = r.routine("ioctl")
    t = Thad(
        "dx",
        dependency=r.routine("open"),
        dependent=ioctl.with_constraint("NO_SUCH"),
    )
    with pytest.raises(ValueError):
        ThadSet(routines=r.routines, thads=(t,), constants=dict(r.constants))


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

_TOKENS = ["t0", "t1", "t2"]
_REQUESTS = sorted(SPIDEV_CONSTANTS)


@st.composite
def _events(draw):
    routine = draw(
        st.sampled_from(["open", "read", "write", "close", "ioctl"])
    )
    token = draw(st.sampled_from(_TOKENS + [None]))
    if routine == "open":
        return CallEvent("open", produced_token=draw(st.sampled_from(_TOKENS)))
    if routine == "ioctl":
        return CallEvent(
            "ioctl",
            discriminator_value=draw(st.sampled_from(_REQUESTS)),
            descriptor_token=token,
        )
    return CallEvent(routine, descriptor_token=token)


_traces = st.lists(_events(), max_size=8)


@settings(max_examples=200, deadline=None)
@given(trace=_traces, cut=st.integers(min_value=0, max_value=8))
def test_prop_violations_survive_extension(trace, cut):
    prefix = trace[: min(cut, len(trace))]
    for t in SPIDEV.thads:
        if not trace_satisfies(t, prefix, ALIASES):
            assert not trace_satisfies(t, trace, ALIASES)


@settings(max_examples=200, deadline=None)
@given(trace=_traces)
def test_prop_prepending_dependency_never_breaks_unbound(trace):
    for t in SPIDEV.thads:
        dep = t.dependency
        const = (
            dep.discriminator_constraint[1]
            if dep.discriminator_constraint
            else None
        )
        lead = CallEvent(
            dep.name,
            discriminator_value=const,
            produced_token="t0" if dep.returns_descriptor else None,
        )
        before = trace_satisfies(t, trace, ALIASES)
        after = trace_satisfies(t, [lead] + list(trace), ALIASES)
        if before:
            assert after
        # a trace of dependent calls only is repaired by the prepend
        if all(match_event(t.dependent, ev, ALIASES) for ev in trace):
            assert after


@settings(max_examples=200, deadline=None)
@given(trace=_traces, seed=st.integers(min_value=0, max_value=5))
def test_prop_unbound_semantics_ignore_token_names(trace, seed):
    renames = {
        0: {"t0": "t1", "t1": "t2", "t2": "t0"},
        1: {"t0": "t2", "t1": "t0", "t2": "t1"},
        2: {"t0": "x", "t1": "y", "t2": "z"},
        3: {"t0": "t0", "t1": "t1", "t2": "t2"},
        4: {"t0": "t1", "t1": "t1", "t2": "t1"},  # merging is fine unbound
        5: {"t0": "a", "t1": "a", "t2": "b"},
    }[seed]

    def rename(tok):
        return None if tok is None else renames[tok]

    renamed = [
        CallEvent(
            ev.routine,
            discriminator_value=ev.discriminator_value,
            descriptor_token=rename(ev.descriptor_token),
            produced_token=rename(ev.produced_token),
            discriminator_unknown=ev.discriminator_unknown,
        )
        for ev in trace
    ]
    for t in SPIDEV.thads:
        assert trace_satisfies(t, trace, ALIASES) == trace_satisfies(
            t, renamed, ALIASES
        )
