"""The one induction driver.

Every local route runs :func:`run_induction`: :func:`repro.api.induce`
for one-shot and portfolio requests, the service's degraded fallback and
trace induction.  Every request schedules its whole region in one build
step.  Once per request it runs the envelope around that step:

1. the value-numbering pre-pass (:func:`repro.core.vn.vn_prepass`);
   everything downstream sees the rewritten region;
2. the build step, the only thing the modes differ in:

   - *one-shot*: one method from :data:`BUILDERS` on the whole region,
     behind a per-request :class:`~repro.core.cache.ScheduleCache`;
   - *portfolio*: :func:`repro.core.portfolio.run_portfolio` races the
     :data:`BUILDERS` entries named in ``PORTFOLIO_STRATEGIES``;

3. the independent check (:func:`repro.core.verify.verify_schedule`) of
   whatever the step computed.  Cache hits were checked before they were
   stored, and the race checks every candidate before it can win, so
   neither is checked again.  An invalid schedule is a library bug and
   raises :class:`repro.core.verify.ScheduleError`;
4. the serial and lockstep baselines (:func:`baselines`), so every result
   carries a paper-style "speedup over serial MIMD emulation";
5. the cache store, only of what step 3 checked: a one-shot result with
   its baselines.  A hit replays the stored result, baselines included;
6. the ``induce_*`` metrics and the ``induce`` trace event (the race's
   spans are its record).
"""

from __future__ import annotations

import dataclasses
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.cache import ScheduleCache, region_fingerprint
from repro.core.costmodel import CostModel
from repro.core.greedy import greedy_schedule
from repro.core.ops import Region
from repro.core.prepared import PreparedRegion
from repro.core.result import ResultBase, result_from_payload, result_to_payload
from repro.core.schedule import Schedule
from repro.core.search import SearchConfig, SearchStats, branch_and_bound
from repro.core.serial import lockstep_schedule, serial_schedule
from repro.core.verify import verify_schedule
from repro.obs import NULL_TRACER, StopWatch, Tracer, span
from repro.obs.metrics import get_registry, observe_search_throughput

__all__ = ["BUILDERS", "InductionResult", "METHODS", "REQUEST_METHODS",
           "VN_MODES", "baselines", "run_induction"]

METHODS = ("search", "greedy", "anneal", "factor", "lockstep", "serial")

#: Every method a request may name: the :data:`METHODS` plus the race.
REQUEST_METHODS = METHODS + ("portfolio",)

#: The value-numbering pre-pass modes (:func:`repro.core.vn.vn_prepass`):
#: ``off`` (no pass — the default, bit-identical to pre-vn behavior),
#: ``on`` (always rewrite), ``auto`` (rewrite, keep only if it lowered
#: serial issue cost or raised cross-thread merge-key candidates).  Kept
#: here, so a request checks its mode without loading the pass.
VN_MODES = ("off", "on", "auto")


@dataclass(frozen=True)
class InductionResult(ResultBase):
    """Outcome of one induction run (unified result protocol)."""

    method: str
    schedule: Schedule
    cost: float
    serial_cost: float
    lockstep_cost: float
    stats: SearchStats | None = None
    cache_hit: bool = False
    wall_s: float = 0.0
    degraded: bool = False

    kind = "induce"


# ---------------------------------------------------------------------------
# Builders: (prepared, config, should_stop, seed) -> (schedule, stats | None).
#
# One table for one-shot requests and the portfolio race.  ``should_stop``
# is the race's cooperative-cancel predicate (None outside a race) and
# ``seed`` its resolved seed (None: $REPRO_SEED, else 0).  Tests stub a
# strategy by patching an entry.  Builders that no search request runs
# import their module on first use.
# ---------------------------------------------------------------------------


def _search(prepared, config, should_stop, seed):
    return branch_and_bound(prepared.region, prepared.model, config,
                            prepared, should_stop=should_stop)


def _greedy(prepared, config, should_stop, seed):
    return greedy_schedule(prepared.region, prepared.model, prepared), None


def _anneal(prepared, config, should_stop, seed):
    from repro.core.anneal import anneal_schedule
    from repro.util.rng import resolve_seed

    schedule, _stats = anneal_schedule(
        prepared.region, prepared.model, seed=resolve_seed(seed, default=0),
        prepared=prepared, should_stop=should_stop)
    return schedule, None


def _factor(prepared, config, should_stop, seed):
    from repro.core.factor import factor_schedule

    return factor_schedule(prepared.region, prepared.model), None


def _lockstep(prepared, config, should_stop, seed):
    return lockstep_schedule(prepared.region, prepared.model, prepared), None


def _serial(prepared, config, should_stop, seed):
    return serial_schedule(prepared.region, prepared.model, prepared), None


BUILDERS: dict[str, Callable] = {
    "search": _search,
    "greedy": _greedy,
    "anneal": _anneal,
    "factor": _factor,
    "lockstep": _lockstep,
    "serial": _serial,
}


def baselines(prepared: PreparedRegion, method: str | None = None,
              cost: float | None = None) -> tuple[float, float]:
    """``(serial_cost, lockstep_cost)`` of the prepared region: the
    speedup baselines.

    A schedule built by the ``serial`` or ``lockstep`` method *is* that
    baseline, so its ``cost`` stands in for rebuilding it.  Baselines are
    built in program order, valid under any dependence structure, and
    costed from the merge-key table's slot costs, summed in slot order
    like :meth:`Schedule.cost`.
    """
    region, model, table = prepared.region, prepared.model, prepared.table
    slot_cost = dict(zip(table.opclasses, table.slot_costs))

    def total(schedule: Schedule) -> float:
        return sum([slot_cost[slot.opclass] for slot in schedule.slots])

    serial = cost if method == "serial" else \
        total(serial_schedule(region, model, prepared))
    lockstep = cost if method == "lockstep" else \
        total(lockstep_schedule(region, model, prepared))
    return serial, lockstep


def run_induction(
    region: Region,
    model: CostModel,
    method: str = "search",
    config: SearchConfig | None = None,
    *,
    vn: str = "off",
    cache: ScheduleCache | None = None,
    tracer: Tracer | None = None,
    **race: Any,
) -> ResultBase:
    """Run one induction request end to end (see the module docstring).

    Methods: ``search`` (branch-and-bound CSI), ``greedy`` (list-scheduling
    heuristic), ``anneal`` (simulated annealing over op priorities),
    ``factor`` (common prefix/suffix hand-factoring), ``lockstep`` (naive
    interpreter), ``serial`` (thread-at-a-time) and ``portfolio`` (the
    strategy race; ``race`` holds :func:`~repro.core.portfolio.run_portfolio`'s
    keywords).

    ``cache`` memoizes finished one-shot results under a content
    fingerprint of the post-vn region, never the race.  ``tracer``
    receives the spans and the ``induce`` trace event.  ``vn`` is the
    pre-pass mode (``off``/``on``/``auto``).
    """
    if method not in REQUEST_METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {REQUEST_METHODS}")
    config = config or SearchConfig()
    tracer = tracer or NULL_TRACER
    metrics = get_registry()
    watch = StopWatch().start()
    if method == "portfolio":
        # The race's ``portfolio.race`` span is the request's root.
        root = nullcontext()
    else:
        root = span("induce", tracer, method=method, ops=region.num_ops)

    with root as live:
        vnstats = None
        if vn != "off":
            from repro.core.vn import vn_prepass
            region, vnstats = vn_prepass(region, model, vn, tracer)
        if method == "portfolio":
            # Imported here: the race reads BUILDERS from this module.  It
            # checks every candidate before it can win.
            from repro.core.portfolio import run_portfolio
            prepared = PreparedRegion.build(region, model,
                                            config.respect_order)
            result = _with_baselines(
                run_portfolio(prepared, config, tracer=tracer, **race),
                prepared)
        else:
            result = _one_shot(region, model, method, config, cache, tracer,
                               vnstats)
        result = dataclasses.replace(result, wall_s=watch.stop())
        if live is not None:
            live.set(cost=result.cost, cache=_disposition(result, cache))

    _record(result, region, metrics, tracer, cache, vnstats)
    return result


def _with_baselines(result: ResultBase,
                    prepared: PreparedRegion) -> ResultBase:
    serial_cost, lockstep_cost = baselines(prepared, result.method,
                                           result.cost)
    return dataclasses.replace(result, serial_cost=serial_cost,
                               lockstep_cost=lockstep_cost)


def _one_shot(region: Region, model: CostModel, method: str,
              config: SearchConfig, cache: ScheduleCache | None,
              tracer: Tracer, vnstats) -> InductionResult:
    """One method on the whole region, checked, behind the request cache.

    A hit replays the stored result.  Wall time is left at 0 for the
    driver to fill in.
    """
    fingerprint = entry = None
    if cache is not None:
        fingerprint = region_fingerprint(region, model, config, method=method)
        entry = cache.get(fingerprint)
    if entry is not None:
        stored = result_from_payload(entry)
        result = InductionResult(
            stored.method, stored.schedule, stored.cost, stored.serial_cost,
            stored.lockstep_cost, stored.stats[0] if stored.stats else None,
            cache_hit=True)
    else:
        with span("induce.build", tracer, method=method):
            prepared = PreparedRegion.build(region, model,
                                            config.respect_order)
            schedule, stats = BUILDERS[method](prepared, config, None, None)
        with span("induce.verify", tracer):
            verify_schedule(schedule, region, model, dags=prepared.dags)
        cost = schedule.cost(model)
        result = InductionResult(method, schedule, cost,
                                 *baselines(prepared, method, cost),
                                 stats)
        if cache is not None:
            cache.put(fingerprint, result_to_payload(result))
    if vnstats is not None and result.stats is not None:
        # Entries stay vn-neutral: their key is the post-vn region, which
        # every vn mode shares, so only the returned result carries this
        # request's vn counters.
        result = dataclasses.replace(result, stats=dataclasses.replace(
            result.stats, vn_merged_candidates=vnstats.merged_candidates,
            vn_rewrites=vnstats.rewrites))
    return result


def _disposition(result: ResultBase, cache: ScheduleCache | None) -> str:
    if result.cache_hit:
        return "hit"
    return "miss" if cache is not None else "off"


def _record(result: ResultBase, region: Region, metrics, tracer: Tracer,
            cache: ScheduleCache | None, vnstats) -> None:
    """The request's ``induce_*`` metrics and its trace event."""
    metrics.inc("induce_total")
    metrics.observe("induce_wall_seconds", result.wall_s)
    if result.cache_hit:
        metrics.inc("induce_cache_hits_total")
    elif result.kind == "induce" and result.method == "search" and \
            result.stats is not None:
        metrics.observe("search_wall_seconds",
                        result.stats.wall_s or result.wall_s)
        observe_search_throughput(metrics, result.stats)
    if not tracer.enabled or result.kind == "portfolio":
        return
    event: dict = {
        "method": result.method,
        "threads": region.num_threads,
        "ops": region.num_ops,
        "slots": len(result.schedule),
        "cost": result.cost,
        "serial_cost": result.serial_cost,
        "lockstep_cost": result.lockstep_cost,
        "cache": _disposition(result, cache),
        "wall_s": result.wall_s,
    }
    if vnstats is not None:
        event.update(
            vn=vnstats.mode,
            vn_applied=vnstats.applied,
            vn_rewrites=vnstats.rewrites,
            vn_merged_candidates=vnstats.merged_candidates,
        )
    stats = result.stats
    if stats is not None:
        event.update(
            nodes_per_s=round(stats.nodes_per_second, 1),
            nodes=stats.nodes_expanded,
            pruned_bound=stats.pruned_by_bound,
            pruned_memo=stats.pruned_by_memo,
            incumbent_updates=stats.incumbent_updates,
            optimal=stats.optimal,
            budget_exhausted=stats.budget_exhausted,
        )
    tracer.emit("induce", **event)
