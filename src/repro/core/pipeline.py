"""The one induction driver.

Every request runs :func:`run_induction`: :func:`repro.api.induce` in
process, a service worker for a served miss, the service's degraded
fallback and trace induction.  Every request schedules its whole region
with one method from :data:`BUILDERS` and returns the
:class:`~repro.core.result.InductionResult` that every door returns.
Once per request, the envelope around that build is:

1. the value-numbering pre-pass (:func:`repro.core.vn.vn_prepass`);
   everything downstream sees the rewritten region;
2. the cache lookup (:class:`~repro.core.cache.ScheduleCache`); a hit is
   the stored entry, baselines included, built as a client builds a reply
   (:func:`~repro.core.result.result_from_payload`) with ``cache_hit``
   set;
3. the build.  A request with a deadline fixes one instant when the
   driver starts; the ``search`` builder polls it through the engines'
   ``should_stop`` hook (at the root, then every 256 nodes) and, when it
   passes, returns its incumbent with ``stats.deadline_cut`` set.  The
   other methods are linear-ish and ignore it;
4. the independent check (:func:`repro.core.verify.verify_schedule`) of
   what the build returned, a cut incumbent included.  Cache hits were
   checked before they were stored.  An invalid schedule is a library bug
   and raises :class:`repro.core.verify.ScheduleError`;
5. the serial and lockstep baselines (:func:`baselines`), so every result
   carries a paper-style "speedup over serial MIMD emulation";
6. the cache store, under the cache's one rule: never a result cut by
   its deadline;
7. the ``induce_*`` metrics and the ``induce`` trace event.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable

from repro.core.cache import ScheduleCache, region_fingerprint
from repro.core.costmodel import CostModel
from repro.core.greedy import greedy_schedule
from repro.core.ops import Region
from repro.core.prepared import PreparedRegion
from repro.core.result import (
    InductionResult, result_from_payload, result_to_payload)
from repro.core.schedule import Schedule
from repro.core.search import SearchConfig, branch_and_bound
from repro.core.serial import lockstep_schedule, serial_schedule
from repro.core.verify import verify_schedule
from repro.obs import NULL_TRACER, StopWatch, Tracer, span
from repro.obs.metrics import get_registry, observe_search_throughput

__all__ = ["BUILDERS", "METHODS", "VN_MODES", "baselines", "run_induction"]

#: Every method a request may name.
METHODS = ("search", "greedy", "factor", "lockstep", "serial")

#: The value-numbering pre-pass modes (:func:`repro.core.vn.vn_prepass`):
#: ``off`` (no pass — the default, bit-identical to pre-vn behavior),
#: ``on`` (always rewrite), ``auto`` (rewrite, keep only if it lowered
#: serial issue cost or raised cross-thread merge-key candidates).  Kept
#: here, so a request checks its mode without loading the pass.
VN_MODES = ("off", "on", "auto")


# ---------------------------------------------------------------------------
# Builders: (prepared, config, should_stop) -> (schedule, stats | None).
#
# ``should_stop`` is the request's deadline predicate (None without a
# deadline); only the search polls it.  Tests stub a method by patching
# an entry.  Builders that no search request runs import their module on
# first use.
# ---------------------------------------------------------------------------


def _search(prepared, config, should_stop):
    return branch_and_bound(prepared.region, prepared.model, config,
                            prepared, should_stop=should_stop)


def _greedy(prepared, config, should_stop):
    return greedy_schedule(prepared.region, prepared.model, prepared), None


def _factor(prepared, config, should_stop):
    from repro.core.factor import factor_schedule

    return factor_schedule(prepared.region, prepared.model), None


def _lockstep(prepared, config, should_stop):
    return lockstep_schedule(prepared.region, prepared.model, prepared), None


def _serial(prepared, config, should_stop):
    return serial_schedule(prepared.region, prepared.model, prepared), None


BUILDERS: dict[str, Callable] = {
    "search": _search,
    "greedy": _greedy,
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


class _Deadline:
    """A request's ``should_stop``: true from its deadline instant on.

    ``fired`` records that it answered true, so the driver can mark the
    stats of the search it stopped.
    """

    __slots__ = ("at", "fired")

    def __init__(self, at: float) -> None:
        self.at = at
        self.fired = False

    def __call__(self) -> bool:
        if not self.fired and time.monotonic() >= self.at:
            self.fired = True
        return self.fired


def run_induction(
    region: Region,
    model: CostModel,
    method: str = "search",
    config: SearchConfig | None = None,
    *,
    vn: str = "off",
    cache: ScheduleCache | None = None,
    tracer: Tracer | None = None,
    deadline_s: float | None = None,
) -> InductionResult:
    """Run one induction request end to end (see the module docstring).

    Methods: ``search`` (branch-and-bound CSI), ``greedy`` (list-scheduling
    heuristic), ``factor`` (common prefix/suffix hand-factoring),
    ``lockstep`` (naive interpreter) and ``serial`` (thread-at-a-time).

    ``deadline_s`` is seconds from this call.  A ``search`` still running
    then returns its checked incumbent, unproven, with
    ``stats.deadline_cut`` set; it is not degraded, and the cache does not
    store it.  ``cache`` memoizes finished results under a content
    fingerprint of the post-vn region.  ``tracer`` receives the spans and
    the ``induce`` trace event.  ``vn`` is the pre-pass mode
    (``off``/``on``/``auto``).
    """
    if method not in METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {METHODS}")
    stop = None if deadline_s is None \
        else _Deadline(time.monotonic() + deadline_s)
    config = config or SearchConfig()
    tracer = tracer or NULL_TRACER
    metrics = get_registry()
    watch = StopWatch().start()
    with span("induce", tracer, method=method, ops=region.num_ops) as live:
        vnstats = None
        if vn != "off":
            from repro.core.vn import vn_prepass
            region, vnstats = vn_prepass(region, model, vn, tracer)
        result = _one_shot(region, model, method, config, cache, tracer,
                           vnstats, stop)
        result = dataclasses.replace(result, wall_s=watch.stop())
        live.set(cost=result.cost, cache=_disposition(result, cache))

    _record(result, region, metrics, tracer, cache, vnstats)
    return result


def _one_shot(region: Region, model: CostModel, method: str,
              config: SearchConfig, cache: ScheduleCache | None,
              tracer: Tracer, vnstats,
              stop: _Deadline | None) -> InductionResult:
    """One method on the whole region, checked, behind the request cache.

    A hit replays the stored result.  Wall time is left at 0 for the
    driver to fill in.
    """
    fingerprint = entry = None
    if cache is not None:
        fingerprint = region_fingerprint(region, model, config, method=method)
        entry = cache.get(fingerprint)
    if entry is not None:
        # ``entry`` is the cache's private copy: marking it costs nothing.
        entry["cache_hit"] = True
        result = result_from_payload(entry)
    else:
        with span("induce.build", tracer, method=method):
            prepared = PreparedRegion.build(region, model,
                                            config.respect_order)
            schedule, stats = BUILDERS[method](prepared, config, stop)
        if stop is not None and stop.fired:
            # Only the search polls the deadline, so ``stats`` is its own.
            stats = dataclasses.replace(stats, deadline_cut=True)
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


def _disposition(result: InductionResult, cache: ScheduleCache | None) -> str:
    if result.cache_hit:
        return "hit"
    return "miss" if cache is not None else "off"


def _record(result: InductionResult, region: Region, metrics, tracer: Tracer,
            cache: ScheduleCache | None, vnstats) -> None:
    """The request's ``induce_*`` metrics and its trace event."""
    metrics.inc("induce_total")
    metrics.observe("induce_wall_seconds", result.wall_s)
    if result.cache_hit:
        metrics.inc("induce_cache_hits_total")
    elif result.method == "search" and result.stats is not None:
        metrics.observe("search_wall_seconds",
                        result.stats.wall_s or result.wall_s)
        observe_search_throughput(metrics, result.stats)
    if not tracer.enabled:
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
            deadline_cut=stats.deadline_cut,
        )
    tracer.emit("induce", **event)
