"""Hypothesis strategies shared by the unit and acceptance tests."""

from __future__ import annotations

from hypothesis import strategies as st

from thadc.model import (
    BindingSource,
    DescriptorBinding,
    Param,
    ParamRole,
    RoutineSpec,
    Thad,
    ThadSet,
)

_CONST_POOL = ["CFG_A", "CFG_B", "CFG_C", "CFG_D", "CFG_E", "CFG_F"]


@st.composite
def thad_sets(draw) -> ThadSet:
    """Random valid dependency sets exercising every syntax feature."""
    n_routines = draw(st.integers(min_value=2, max_value=5))
    routines = []
    for i in range(n_routines):
        n_params = draw(st.integers(min_value=0, max_value=3))
        roles = [ParamRole.OPAQUE] * n_params
        if n_params and draw(st.booleans()):
            roles[0] = ParamRole.DESCRIPTOR
        if n_params > 1 and draw(st.booleans()):
            roles[1] = ParamRole.DISCRIMINATOR
        params = tuple(Param(f"p{j}", roles[j]) for j in range(n_params))
        routines.append(
            RoutineSpec(f"rt{i}", params, returns_descriptor=draw(st.booleans()))
        )

    constants: dict[str, int | None] = {}
    for j, name in enumerate(_CONST_POOL):
        if draw(st.booleans()):
            constants[name] = draw(
                st.one_of(st.none(), st.integers(min_value=0, max_value=2**31))
            )
    const_names = sorted(constants)

    def pattern(r: RoutineSpec) -> RoutineSpec:
        if r.discriminator_param and const_names and draw(st.booleans()):
            return r.with_constraint(draw(st.sampled_from(const_names)))
        return r

    thads = []
    n_thads = draw(st.integers(min_value=0, max_value=6))
    for k in range(n_thads):
        dependency = pattern(draw(st.sampled_from(routines)))
        dependent = pattern(draw(st.sampled_from(routines)))
        if (
            dependency.name == dependent.name
            and dependency.discriminator_constraint
            == dependent.discriminator_constraint
        ):
            continue
        binding = None
        if dependent.descriptor_param and draw(st.booleans()):
            if dependency.returns_descriptor:
                binding = DescriptorBinding(
                    BindingSource.RETURN_VALUE, dependent.descriptor_param
                )
            elif dependency.descriptor_param:
                binding = DescriptorBinding(
                    BindingSource.PARAM, dependent.descriptor_param
                )
        thads.append(
            Thad(f"d{k + 1}", dependency=dependency, dependent=dependent, binding=binding)
        )

    aliases: dict[str, str] = {}
    if len(const_names) >= 2 and draw(st.booleans()):
        src, dst = const_names[0], const_names[1]
        aliases[src] = dst

    return ThadSet(
        routines=tuple(routines),
        thads=tuple(thads),
        constants=constants,
        aliases=aliases,
    )


# Pieces of MiniC, of malformed C, and of everything around it.
_C_FRAGMENTS = [
    "int main(void) {", "int f(int a) {", "}", "{", ";", "(", ")", ",",
    "if (c) ", "else ", "while (c) ", "for (i = 0; i < 2; i++) ",
    "switch (c) {", "case 1:", "default:", "break;", "return 0;", "goto l;",
    'int fd = open("/dev/spidev0.0", 2);', "read(fd, 0, 1);", "close(fd);",
    "ioctl(fd, WR_MAX_SPEED_HZ, 0);", "ioctl(fd, MSG, 0);", "f(1);", "x = ",
    "fd", "1", "0x", "0x1fUL", "0644", "08", "'a'", "'ab'", "''", "'\\n'",
    "'", '"', "/*", "*/", "//", "#define N 3\n", "#define M 0x\n",
    "#include <x.h>\n", "#pragma once\n", "\n", "\r\n", " ", "\t", "+", "-",
    "*", "/", "&", "!", "~", "<<", "&&", "||", "==", "+=", "++", "...",
    "@", "\\", "sizeof", "int", "const char *",
    # blanks before a directive, a mid-line hash, a // comment without its
    # newline, a lone carriage return and a comment across lines
    "   #define K 1\n", "\t#", "// x", "\r", "/* a\nb */",
]

c_ish_text = st.lists(
    st.one_of(st.sampled_from(_C_FRAGMENTS),
              st.characters(exclude_categories=("Cs",))),
    max_size=40,
).map("".join)
"""Source text mixing MiniC fragments with arbitrary code points (all
but surrogates, which no UTF-8 file can hold)."""
