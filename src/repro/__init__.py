"""repro — reproduction of "Common Subexpression Induction" (Dietz, ICPP 1992).

Entry point: :func:`repro.api.induce` on a :class:`repro.api.InductionRequest`.
Core: :mod:`repro.core` (the CSI optimization).  Substrates: MIMD stack ISA
(:mod:`repro.isa`), MIMDC mini-language (:mod:`repro.lang`), SIMD machine
simulator (:mod:`repro.simd`), MIMD-on-SIMD interpreter (:mod:`repro.interp`),
discrete-event UNIX execution models (:mod:`repro.models`), and the AHS-style
heterogeneous target-selection scheduler (:mod:`repro.sched`).
"""

from repro.core import (
    CostModel,
    InductionResult,
    Operation,
    Region,
    Schedule,
    ThreadCode,
    maspar_cost_model,
    parse_region,
    uniform_cost_model,
    verify_schedule,
)

__version__ = "1.0.0"


def __getattr__(name: str):
    # Lazy so that `import repro` (and the whole CSI core) works without
    # numpy; the AHS pipeline pulls in the interpreter stack, which needs
    # the [fast] extra.
    if name in ("AhsReport", "run_ahs"):
        from repro import ahs

        return getattr(ahs, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AhsReport",
    "CostModel",
    "InductionResult",
    "Operation",
    "Region",
    "Schedule",
    "ThreadCode",
    "__version__",
    "maspar_cost_model",
    "parse_region",
    "run_ahs",
    "uniform_cost_model",
    "verify_schedule",
]
