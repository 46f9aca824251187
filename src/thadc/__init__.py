"""thadc: a checker for call-order dependencies between HAL-API routines.

Embedded code that talks to a peripheral through a hardware abstraction
layer has to call the HAL in the right order: a transfer needs a prior
open, a full-duplex ioctl needs the bus speed configured first, and so
on.  This package models such must-precede dependencies, annotates HAL
sources with ghost state variables and asserts that make the ordering
checkable, and verifies the dependencies statically against a C-subset
program, reporting a witness call trace for every violation.
"""

from .model import (
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

__version__ = "0.1.0"

__all__ = [
    "BindingSource",
    "CallEvent",
    "DescriptorBinding",
    "Param",
    "ParamRole",
    "RoutineSpec",
    "Thad",
    "ThadSet",
    "match_event",
    "trace_satisfies",
    "__version__",
]
