"""Common Subexpression Induction (CSI) — the paper's core contribution.

CSI takes the per-thread instruction sequences of a MIMD code region and
produces a single SIMD schedule in which one instruction slot may be shared
("induced") by every thread that needs an instruction of that class at that
point, minimizing total masked-SIMD execution time.

Public entry points (most callers want :func:`repro.api.induce`, which
wraps the driver with request parsing, deadlines and the service):

- :func:`repro.core.pipeline.run_induction` — the one induction driver:
  CSI or a baseline on a whole region, cut at its deadline if it has
  one, checked and reported next to the serial and lockstep baselines.
- :class:`repro.core.ops.Region` / :class:`repro.core.ops.Operation` — IR.
- :class:`repro.core.costmodel.CostModel` — SIMD timing/mergeability model.
- :class:`repro.core.schedule.Schedule` — the result, verifiable with
  :func:`repro.core.verify.verify_schedule`.
- :class:`repro.core.cache.ScheduleCache` — content-addressed memoization
  of finished results (in-memory LRU + optional on-disk tier).

Every name below is re-exported on access (:mod:`repro._lazy`), so
importing this package loads none of its modules.
"""

from repro._lazy import reexport

__getattr__, __dir__, __all__ = reexport(__name__, {
    "repro.core.cache": ("ScheduleCache", "region_fingerprint"),
    "repro.core.costmodel": ("CostModel", "maspar_cost_model",
                             "uniform_cost_model"),
    "repro.core.dag": ("DependenceDAG", "build_dags"),
    "repro.core.factor": ("factor_schedule",),
    "repro.core.greedy": ("greedy_schedule",),
    "repro.core.lower": ("MaskedInstruction", "lower_schedule",
                         "render_simd_code"),
    "repro.core.ops": ("Operation", "Region", "ThreadCode", "parse_region"),
    "repro.core.pipeline": ("run_induction",),
    "repro.core.result": ("InductionResult", "result_from_payload",
                          "result_to_payload"),
    "repro.core.schedule": ("Schedule", "Slot", "schedule_from_payload",
                            "schedule_to_payload"),
    "repro.core.search": ("SearchStats", "branch_and_bound"),
    "repro.core.serial": ("lockstep_schedule", "serial_schedule"),
    "repro.core.verify": ("ScheduleError", "verify_schedule"),
})
