"""Common Subexpression Induction (CSI) — the paper's core contribution.

CSI takes the per-thread instruction sequences of a MIMD code region and
produces a single SIMD schedule in which one instruction slot may be shared
("induced") by every thread that needs an instruction of that class at that
point, minimizing total masked-SIMD execution time.

Public entry points (most callers want :func:`repro.api.induce`, which
wraps the driver with request parsing, deadlines and the service):

- :func:`repro.core.pipeline.run_induction` — the one induction driver:
  CSI, a baseline or the strategy race on a whole region, checked
  and reported next to the serial and lockstep baselines.
- :class:`repro.core.ops.Region` / :class:`repro.core.ops.Operation` — IR.
- :class:`repro.core.costmodel.CostModel` — SIMD timing/mergeability model.
- :class:`repro.core.schedule.Schedule` — the result, verifiable with
  :func:`repro.core.verify.verify_schedule`.
- :class:`repro.core.cache.ScheduleCache` — content-addressed memoization
  of finished results (in-memory LRU + optional on-disk tier).
"""

from repro.core.anneal import AnnealStats, anneal_schedule
from repro.core.cache import ScheduleCache, region_fingerprint
from repro.core.costmodel import CostModel, maspar_cost_model, uniform_cost_model
from repro.core.dag import DependenceDAG, build_dags
from repro.core.factor import factor_schedule
from repro.core.greedy import greedy_schedule
from repro.core.lower import MaskedInstruction, lower_schedule, render_simd_code
from repro.core.ops import Operation, Region, ThreadCode, parse_region
from repro.core.pipeline import InductionResult, run_induction
from repro.core.portfolio import (
    PORTFOLIO_STRATEGIES,
    PortfolioResult,
    StrategyOutcome,
    run_portfolio,
)
from repro.core.result import (
    ResultBase,
    ServiceResult,
    result_from_payload,
    result_to_payload,
)
from repro.core.schedule import (
    Schedule,
    Slot,
    schedule_from_payload,
    schedule_to_payload,
)
from repro.core.search import SearchStats, branch_and_bound
from repro.core.serial import lockstep_schedule, serial_schedule
from repro.core.verify import ScheduleError, verify_schedule

__all__ = [
    "AnnealStats",
    "CostModel",
    "DependenceDAG",
    "InductionResult",
    "MaskedInstruction",
    "Operation",
    "PORTFOLIO_STRATEGIES",
    "PortfolioResult",
    "Region",
    "Schedule",
    "ScheduleCache",
    "ScheduleError",
    "SearchStats",
    "Slot",
    "StrategyOutcome",
    "ThreadCode",
    "anneal_schedule",
    "branch_and_bound",
    "build_dags",
    "factor_schedule",
    "greedy_schedule",
    "lockstep_schedule",
    "lower_schedule",
    "maspar_cost_model",
    "parse_region",
    "region_fingerprint",
    "render_simd_code",
    "result_from_payload",
    "result_to_payload",
    "run_induction",
    "run_portfolio",
    "ResultBase",
    "ServiceResult",
    "schedule_from_payload",
    "schedule_to_payload",
    "serial_schedule",
    "uniform_cost_model",
    "verify_schedule",
]
