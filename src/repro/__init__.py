"""repro — reproduction of "Common Subexpression Induction" (Dietz, ICPP 1992).

Entry point: :func:`repro.api.induce` on a :class:`repro.api.InductionRequest`.
Core: :mod:`repro.core` (the CSI optimization).  Substrates: MIMD stack ISA
(:mod:`repro.isa`), MIMDC mini-language (:mod:`repro.lang`), SIMD machine
simulator (:mod:`repro.simd`), MIMD-on-SIMD interpreter (:mod:`repro.interp`),
discrete-event UNIX execution models (:mod:`repro.models`), and the AHS-style
heterogeneous target-selection scheduler (:mod:`repro.sched`).
"""

from repro._lazy import reexport

__version__ = "1.0.0"

# On access, so that `import repro` loads nothing else; the AHS pipeline
# pulls in the interpreter stack, which needs the [fast] extra (numpy).
__getattr__, __dir__, __all__ = reexport(__name__, {
    "repro.ahs": ("AhsReport", "run_ahs"),
    "repro.core.costmodel": ("CostModel", "maspar_cost_model",
                             "uniform_cost_model"),
    "repro.core.ops": ("Operation", "Region", "ThreadCode", "parse_region"),
    "repro.core.result": ("InductionResult",),
    "repro.core.schedule": ("Schedule",),
    "repro.core.verify": ("verify_schedule",),
})
__all__ = ["__version__", *__all__]
