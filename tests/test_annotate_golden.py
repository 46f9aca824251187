"""Golden annotation bytes: what ``thadc annotate`` emits may not change.

``golden/annotate.sha256`` holds one SHA-256 per (set, subset, target).
The target is either the standalone wrapper or one of the skeletons in
``test_annotate.SKELETONS`` annotated in place.  Each digest covers the
target in ``acsl`` mode, in ``assert`` mode and in an unknown mode, one
section per mode.  A call that raises contributes the exception's type
and message instead of text, so error paths are pinned as well.  Most
subsets name a routine that a given skeleton lacks, so a skeleton's
digest also covers the subset cut down to the dependencies between
routines the skeleton names at the start of a line.

The sets are the bundled spidev set, ``helpers.bound_spidev_set()``,
``helpers.bound_read_set()`` and ``perfbench/bound.thad`` with the
bundled constants.  Each is taken whole, empty, and as subsets drawn by
a seeded ``random.Random``, half of them in shuffled order.  No
hypothesis draw is used: its examples depend on the hypothesis version.

Regenerate the file only for an intended change of output, and say why:

    PYTHONPATH=src python tests/test_annotate_golden.py
"""

from __future__ import annotations

import hashlib
import random
import re
from functools import partial
from pathlib import Path

from thadc.annotate import AnnotationError, emit_annotated_source, emit_wrapper
from thadc.model import ThadSet
from thadc.specio import bundled_data_path, load_spec

from helpers import (
    benchmark_generator,
    bound_read_set,
    bound_spidev_set,
    spidev_set,
)
from test_annotate import SKELETONS

GOLDEN_FILE = Path(__file__).resolve().parent / "golden" / "annotate.sha256"
MODES = ("acsl", "assert", "ghost")
SUBSET_DRAWS = 8


def perfbench_bound_set() -> ThadSet:
    spec = benchmark_generator().BOUND_SPEC
    consts = bundled_data_path("spidev-linux.consts")
    return load_spec(spec.read_text(encoding="utf-8"),
                     consts.read_text(encoding="utf-8"),
                     str(spec), str(consts))


def with_thads(thad_set: ThadSet, thads) -> ThadSet:
    return ThadSet(routines=thad_set.routines, thads=tuple(thads),
                   constants=dict(thad_set.constants),
                   aliases=dict(thad_set.aliases))


def variants(name: str, thad_set: ThadSet) -> dict[str, ThadSet]:
    """``<set>.<subset>`` -> the set whole, empty and in seeded subsets."""
    out = {f"{name}.all": thad_set, f"{name}.empty": with_thads(thad_set, ())}
    rng = random.Random(f"annotate:{name}")
    thads = thad_set.thads
    for draw in range(SUBSET_DRAWS):
        picked = rng.sample(range(len(thads)), rng.randint(1, len(thads)))
        if draw % 2 == 0:
            picked.sort()
        out[f"{name}.draw{draw}"] = with_thads(
            thad_set, (thads[i] for i in picked))
    return out


def fitted(thad_set: ThadSet, source: str) -> ThadSet:
    """The dependencies between routines ``source`` names at the start of
    a line, as in ``int open(``."""
    names = set(re.findall(r"^\w.*?(\w+)\(", source, re.MULTILINE))
    return with_thads(thad_set, (
        t for t in thad_set.thads
        if t.dependent.name in names and t.dependency.name in names))


def sections(emit) -> str:
    """``emit`` in every mode, the raised error standing for its text."""
    out = []
    for mode in MODES:
        out.append(f"--- mode {mode}\n")
        try:
            out.append(emit(mode))
        except (AnnotationError, ValueError) as exc:
            out.append(f"raised {type(exc).__name__}: {exc}\n")
    return "".join(out)


def texts() -> dict[str, str]:
    """``<set>.<subset>.<target>`` -> every mode's output, in sections."""
    sets = {"bundled": spidev_set(), "bound-spidev": bound_spidev_set(),
            "bound-read": bound_read_set(),
            "perfbench-bound": perfbench_bound_set()}
    out = {}
    for name, whole in sets.items():
        for label, thad_set in variants(name, whole).items():
            out[f"{label}.wrapper"] = sections(
                partial(emit_wrapper, thad_set))
            for skeleton, source in SKELETONS.items():
                out[f"{label}.{skeleton}"] = (
                    sections(partial(emit_annotated_source, thad_set, source))
                    + "--- fitted to the skeleton\n"
                    + sections(partial(emit_annotated_source,
                                       fitted(thad_set, source), source)))
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_annotation_bytes_match_golden():
    golden = dict(reversed(line.split())
                  for line in GOLDEN_FILE.read_text().splitlines())
    current = texts()
    assert sorted(current) == sorted(golden)
    different = [name for name, text in current.items()
                 if digest(text) != golden[name]]
    assert not different, f"{len(different)} outputs changed: {different[:10]}"


def main() -> None:
    current = texts()
    GOLDEN_FILE.write_text("".join(f"{digest(text)}  {name}\n"
                                   for name, text in current.items()))
    print(f"wrote {len(current)} annotation digests")


if __name__ == "__main__":
    main()
