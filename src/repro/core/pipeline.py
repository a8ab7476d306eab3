"""High-level CSI entry point.

:func:`induce` runs the chosen induction method on a region, verifies the
resulting schedule against the independent checker, and reports its cost
next to the serialization baseline, so callers get a paper-style
"speedup over serial MIMD emulation" number out of one call.

The entry point is also where the induction *service* features attach:

- pass a :class:`repro.core.cache.ScheduleCache` to memoize finished
  schedules under a content fingerprint of (region, model, config, method)
  — repeated regions, the common case for interpreter handler sets, then
  return in O(lookup) instead of re-running the exponential search;
- pass a :class:`repro.obs.Tracer` to get one structured trace event per
  call (search counters, costs, cache disposition, wall time).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.anneal import anneal_schedule
from repro.core.cache import ScheduleCache, region_fingerprint
from repro.core.costmodel import CostModel
from repro.core.deprecation import warn_once
from repro.core.factor import factor_schedule
from repro.core.greedy import greedy_schedule
from repro.core.ops import Region
from repro.core.prepared import PreparedRegion
from repro.core.result import ResultBase
from repro.core.schedule import Schedule
from repro.core.search import SearchConfig, SearchStats, branch_and_bound
from repro.core.serial import lockstep_schedule, serial_schedule
from repro.core.verify import verify_schedule
from repro.core.vn import vn_prepass
from repro.obs import NULL_TRACER, StopWatch, Tracer, span
from repro.obs.metrics import get_registry, observe_search_throughput
from repro.util.rng import resolve_seed

__all__ = ["InductionResult", "METHODS", "induce"]

METHODS = ("search", "greedy", "anneal", "factor", "lockstep", "serial")


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


def _build_schedule(
    prepared: PreparedRegion,
    method: str,
    config: SearchConfig | None,
) -> tuple[Schedule, SearchStats | None]:
    region, model = prepared.region, prepared.model
    stats: SearchStats | None = None
    if method == "search":
        schedule, stats = branch_and_bound(region, model, config, prepared)
    elif method == "greedy":
        schedule = greedy_schedule(region, model, prepared)
    elif method == "anneal":
        # Resolve the seed here (explicit None -> $REPRO_SEED -> 0) so the
        # single seed knob reaches the annealer like every other RNG user.
        schedule, _astats = anneal_schedule(region, model,
                                            seed=resolve_seed(default=0),
                                            prepared=prepared)
    elif method == "factor":
        schedule = factor_schedule(region, model)
    elif method == "lockstep":
        schedule = lockstep_schedule(region, model)
    else:
        schedule = serial_schedule(region, model)
    return schedule, stats


def induce(
    region: Region,
    model: CostModel,
    method: str = "search",
    config: SearchConfig | None = None,
    verify: bool = True,
    cache: ScheduleCache | None = None,
    tracer: Tracer | None = None,
) -> InductionResult:
    """Deprecated positional entry point; use :func:`repro.api.induce`.

    Behaves like the original ``induce`` and warns once per process;
    ``verify`` is accepted for positional compatibility and ignored, since
    every computed schedule is verified.  New code should build a
    :class:`repro.api.InductionRequest` and call :func:`repro.api.induce`,
    which routes between one-shot, windowed and service execution.
    """
    warn_once(
        "core.induce",
        "repro.core.induce(region, model, ...) is deprecated; build a "
        "repro.api.InductionRequest and call repro.api.induce(request)",
    )
    return _induce_impl(region, model, method=method, config=config,
                        cache=cache, tracer=tracer)


def _induce_impl(
    region: Region,
    model: CostModel,
    method: str = "search",
    config: SearchConfig | None = None,
    cache: ScheduleCache | None = None,
    tracer: Tracer | None = None,
    vn: str = "off",
) -> InductionResult:
    """Run CSI (``method='search'``) or a baseline on ``region``.

    Methods: ``search`` (branch-and-bound CSI), ``greedy`` (list-scheduling
    heuristic), ``anneal`` (simulated annealing over op priorities),
    ``factor`` (common prefix/suffix hand-factoring), ``lockstep`` (naive
    interpreter), ``serial`` (thread-at-a-time).

    A computed request prepares its region once
    (:class:`~repro.core.prepared.PreparedRegion`): the method reads it,
    and the independent verifier checks the resulting schedule exactly
    once against the prepared DAGs.  An invalid schedule is a library bug
    and raises :class:`repro.core.verify.ScheduleError`.  Cache hits return
    the previously verified schedule without re-checking — that skip is the
    point of the cache.

    ``cache`` memoizes (schedule, stats) under a content fingerprint;
    ``tracer`` receives one ``induce`` event per call.  ``vn`` runs the
    value-numbering pre-pass (:func:`repro.core.vn.vn_prepass`) on the
    region first; everything downstream — fingerprinting, search,
    verification, baselines — sees the rewritten region.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    tracer = tracer or NULL_TRACER
    metrics = get_registry()
    watch = StopWatch().start()

    with span("induce", tracer, method=method, ops=region.num_ops) as live:
        vnstats = None
        if vn != "off":
            region, vnstats = vn_prepass(region, model, vn, tracer)
        fingerprint = None
        schedule: Schedule | None = None
        stats: SearchStats | None = None
        if cache is not None:
            fingerprint = region_fingerprint(region, model, config,
                                             method=method)
            hit = cache.get(fingerprint)
            if hit is not None:
                schedule, stats = hit
        cache_hit = schedule is not None

        if schedule is None:
            with span("induce.build", tracer, method=method):
                prepared = PreparedRegion.build(
                    region, model, bool(config and config.respect_order))
                schedule, stats = _build_schedule(prepared, method, config)
            # Baselines built in program order are valid under any
            # dependence structure; reordering methods are checked against
            # the real DAGs.
            with span("induce.verify", tracer):
                verify_schedule(schedule, region, model, dags=prepared.dags)
            if cache is not None:
                cache.put(fingerprint, schedule, stats)

        if vnstats is not None and stats is not None:
            # Copy-on-write: cached stats objects are shared (and the
            # cache key is the post-vn region, which a vn=off request on
            # an already-canonical region also hits), so never mutate the
            # stored object with this request's vn counters.
            stats = dataclasses.replace(
                stats,
                vn_merged_candidates=vnstats.merged_candidates,
                vn_rewrites=vnstats.rewrites)

        cost = schedule.cost(model)
        # Reuse the schedule we just built when it *is* the baseline, and pay
        # each baseline construction exactly once.
        serial_cost = cost if method == "serial" else \
            serial_schedule(region, model).cost(model)
        lockstep_cost = cost if method == "lockstep" else \
            lockstep_schedule(region, model).cost(model)
        wall_s = watch.stop()
        live.set(cost=cost,
                 cache="hit" if cache_hit
                 else ("miss" if cache is not None else "off"))

    metrics.inc("induce_total")
    metrics.observe("induce_wall_seconds", wall_s)
    if cache_hit:
        metrics.inc("induce_cache_hits_total")
    elif method == "search" and stats is not None:
        metrics.observe("search_wall_seconds", stats.wall_s or wall_s)
        observe_search_throughput(metrics, stats)

    if tracer.enabled:
        event: dict = {
            "method": method,
            "threads": region.num_threads,
            "ops": region.num_ops,
            "slots": len(schedule),
            "cost": cost,
            "serial_cost": serial_cost,
            "lockstep_cost": lockstep_cost,
            "cache": "hit" if cache_hit else ("miss" if cache is not None else "off"),
            "wall_s": wall_s,
        }
        if vnstats is not None:
            event.update(
                vn=vnstats.mode,
                vn_applied=vnstats.applied,
                vn_rewrites=vnstats.rewrites,
                vn_merged_candidates=vnstats.merged_candidates,
            )
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

    return InductionResult(
        method=method,
        schedule=schedule,
        cost=cost,
        serial_cost=serial_cost,
        lockstep_cost=lockstep_cost,
        stats=stats,
        cache_hit=cache_hit,
        wall_s=wall_s,
    )
