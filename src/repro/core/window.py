"""Windowed induction: CSI at scale.

The exact search is exponential in region size; real interpreter regions
(whole handler sets, long traces) exceed any node budget.  Windowing keeps
the search exact *locally*: every thread's sequence is cut at the same
program-order boundaries, each window is induced independently, and the
window schedules are concatenated.

Correctness: a window boundary is a cut across all threads at op index
``k*w``; every dependence inside a thread points forward in program order,
so a concatenation of per-window schedules (each internally valid) is
globally valid.  :func:`induce_windows` is the windowed build step of the
one request driver, :func:`repro.core.pipeline.run_induction`, which
checks the stitched schedule once against the whole region whenever a
window was searched.

Cost: windowing can only lose optimality at the seams (an op in window k
cannot share a slot with an op in window k+1), trading schedule quality
for search time in a controlled way.  The E3-style sweep in the tests
quantifies the trade.

Scale features (windows are embarrassingly parallel and highly repetitive):

- ``jobs`` fans the per-window searches out over a
  :class:`concurrent.futures.ProcessPoolExecutor` with ordered reassembly
  and per-window stats preserved; small inputs, single-window runs and
  pool-less environments fall back to the serial loop;
- ``cache`` consults a :class:`repro.core.cache.ScheduleCache` per window
  — traces of SPMD code repeat the same windows constantly, so warm runs
  skip the search entirely.  The freshly searched windows are handed back
  to the driver, which stores them only after the stitched check;
- ``tracer`` receives one ``window`` event per window (the driver adds
  the ``windowed`` aggregate event).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from repro.core.cache import ScheduleCache, region_fingerprint
from repro.core.costmodel import CostModel
from repro.core.ops import Operation, Region, ThreadCode
from repro.core.result import ResultBase
from repro.core.schedule import Schedule, Slot, schedule_from_payload
from repro.core.search import SearchConfig, SearchStats, branch_and_bound
from repro.obs import (
    MemoryTracer,
    NULL_TRACER,
    Tracer,
    attach_context,
    current_context,
    replay_events,
    span,
)
from repro.obs.metrics import get_registry, observe_search_throughput

__all__ = ["WindowedResult", "induce_windows"]

#: Structural floor for even considering the pool: total estimated search
#: work over the missed windows, scored as ops x threads per window (the
#: branching factor of a window search grows with both).  Below it the
#: fork/pickle overhead dwarfs the search itself; stay serial.
_MIN_PARALLEL_SCORE = 128

#: A process pool cannot beat the serial loop without at least this many
#: cores to spread the windows over.
_MIN_PARALLEL_CPUS = 2

#: Estimated remaining serial search time (first missed window's measured
#: wall times the number of remaining windows) below which pool startup
#: (~tens of ms per fork) is not worth paying.
_PARALLEL_MIN_EST_S = 0.25


@dataclass(frozen=True)
class WindowedResult(ResultBase):
    """Concatenated schedule plus per-window search statistics.

    Implements the unified result protocol: ``cost``/``serial_cost``/
    ``lockstep_cost`` are whole-region numbers, so speedups are directly
    comparable with one-shot :class:`repro.core.pipeline.InductionResult`.
    """

    schedule: Schedule
    window_size: int
    num_windows: int
    stats: tuple[SearchStats, ...]
    cache_hits: int = 0
    jobs_used: int = 1
    wall_s: float = 0.0
    cost: float = 0.0
    serial_cost: float = 0.0
    lockstep_cost: float = 0.0
    degraded: bool = False

    kind = "windowed"
    #: Windowed induction always runs the branch-and-bound per window.
    method = "search"

    @property
    def all_optimal(self) -> bool:
        """True if every window's search completed within budget."""
        return all(s.optimal for s in self.stats)

    @property
    def cache_hit(self) -> bool:
        """True when every window was served without a fresh search."""
        return self.num_windows > 0 and self.cache_hits >= self.num_windows

    def as_dict(self, include_schedule: bool = False) -> dict:
        out = super().as_dict(include_schedule=include_schedule)
        out.update(windows=self.num_windows, window_size=self.window_size,
                   cache_hits=self.cache_hits, jobs=self.jobs_used)
        return out


def _window_region(region: Region, start: int, size: int) -> tuple[Region, dict]:
    """Sub-region of ops [start, start+size) per thread, reindexed.

    Returns the window region and a map (thread, window_index) -> original
    index, used to translate slots back.
    """
    threads = []
    back: dict[tuple[int, int], int] = {}
    for tc in region.threads:
        ops = []
        for new_idx, op in enumerate(tc.ops[start:start + size]):
            ops.append(Operation(tc.thread, new_idx, op.opcode,
                                 op.reads, op.writes, op.imm))
            back[(tc.thread, new_idx)] = start + new_idx
        threads.append(ThreadCode(tc.thread, tuple(ops)))
    return Region(tuple(threads)), back


def _search_window(task: tuple[Region, CostModel, SearchConfig, dict | None]):
    """Process-pool entry point: induce one window region.

    Runs under the parent's span context (shipped as a plain dict so it
    pickles) and records its own ``window.search`` span into a
    :class:`MemoryTracer`; the recorded events and a nested counter
    snapshot ride back with the schedule so the parent can stitch one
    trace and merge per-worker counts.  ``perf_counter`` is
    CLOCK_MONOTONIC on Linux, so worker span timestamps are directly
    comparable with the parent's.
    """
    sub, model, config, ctx = task
    recorder = MemoryTracer()
    with attach_context(ctx):
        with span("window.search", recorder, ops=sub.num_ops,
                  pid=os.getpid()) as live:
            schedule, stats = branch_and_bound(sub, model, config)
            live.set(nodes=stats.nodes_expanded, cost=schedule.cost(model))
    snap = {"window": {"searches": 1, "nodes": stats.nodes_expanded,
                       "wall_s": stats.wall_s}}
    return schedule, stats, recorder.events, snap


def _resolve_jobs(jobs: int) -> int:
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 (0 = all cores), got {jobs}")
    return jobs or (os.cpu_count() or 1)


def _run_windows_parallel(
    tasks: list[tuple[Region, CostModel, SearchConfig, dict | None]],
    jobs: int,
) -> list[tuple[Schedule, SearchStats, list, dict]] | None:
    """Fan the window searches out over a process pool, order preserved.

    Returns None when no pool can be created (restricted environments,
    missing OS primitives) so the caller degrades to the serial loop.
    """
    from concurrent.futures import ProcessPoolExecutor

    try:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            return list(pool.map(_search_window, tasks))
    except (OSError, PermissionError, ImportError, RuntimeError):
        return None


def induce_windows(
    region: Region,
    model: CostModel,
    window_size: int = 8,
    config: SearchConfig | None = None,
    jobs: int = 1,
    cache: ScheduleCache | None = None,
    tracer: Tracer | None = None,
) -> tuple[WindowedResult, list[tuple[str, Region, Schedule, SearchStats]]]:
    """The windowed build step: cut, search each window, stitch.

    Each window is scheduled by the full branch-and-bound (with the given
    per-window ``config``); dependences are recomputed inside each window,
    and since windows respect program order, cross-window dependences are
    honoured by construction.

    ``jobs > 1`` (or 0 for all cores) searches cache-missed windows in a
    process pool; the stitched schedule is identical to the serial path's
    because every window search is deterministic and reassembly is ordered.

    Runs under :func:`repro.core.pipeline.run_induction`'s
    ``windowed_induce`` span, so per-window ``window.search`` spans (local
    or worker-side) hang off one parent.  The driver owns the rest of the
    request: the vn pre-pass before the cut, the check of the stitched
    schedule, the baselines and the wall time, which are left at 0 here.

    Returns the result and, with a ``cache``, each freshly searched window
    as ``(fingerprint, window region, schedule, stats)`` for the driver to
    store once the stitched schedule is checked.  Per-window stats are
    never stamped with region-level vn counters: their cache entries are
    shared across regions.
    """
    if window_size < 1:
        raise ValueError(f"window size must be positive, got {window_size}")
    config = config or SearchConfig()
    tracer = tracer or NULL_TRACER
    jobs = _resolve_jobs(jobs)

    longest = max((len(tc) for tc in region.threads), default=0)
    windows: list[tuple[int, Region, dict]] = []
    for start in range(0, longest, window_size):
        sub, back = _window_region(region, start, window_size)
        if sub.num_ops:
            windows.append((start, sub, back))

    # Pass 1: cache lookups (always in the parent — the cache is not shared
    # with workers).  ``results`` is indexed by window position.  A window
    # entry is the one-shot search result of the window region.
    results: list[tuple[Schedule, SearchStats] | None] = [None] * len(windows)
    fingerprints: list[str | None] = [None] * len(windows)
    cache_hits = 0
    if cache is not None:
        for w, (_start, sub, _back) in enumerate(windows):
            fingerprints[w] = region_fingerprint(sub, model, config)
            entry = cache.get(fingerprints[w])
            if entry is not None and entry.get("stats"):
                results[w] = (schedule_from_payload(entry["schedule"]),
                              SearchStats(**entry["stats"][0]))
                cache_hits += 1

    # Pass 2: search the misses — deduplicated by fingerprint (SPMD traces
    # repeat windows constantly, so equal windows are searched once per run)
    # and fanned out over a process pool when it pays off.
    miss_idx = [w for w, r in enumerate(results) if r is None]
    unique_idx: list[int] = []
    duplicate_of: dict[int, int] = {}
    first_with: dict[str, int] = {}
    for w in miss_idx:
        fp = fingerprints[w]
        if fp is not None and fp in first_with:
            duplicate_of[w] = first_with[fp]
        else:
            if fp is not None:
                first_with[fp] = w
            unique_idx.append(w)

    ctx = current_context()
    tasks = [(windows[w][1], model, config, ctx) for w in unique_idx]
    jobs_used = 1
    if (jobs > 1 and len(tasks) > 1
            and (os.cpu_count() or 1) >= _MIN_PARALLEL_CPUS
            and sum(t[0].num_ops * t[0].num_threads for t in tasks)
                >= _MIN_PARALLEL_SCORE):
        # Adaptive fan-out: search the first missed window serially — it is
        # work we must do anyway and it prices a window search on this
        # machine for this config.  Only when the estimated remaining
        # serial time clears the pool's startup overhead does the pool get
        # the rest; otherwise the serial loop below finishes the job and
        # small runs never pay fork/pickle for nothing (E13 regression:
        # jobs=4 was 0.8x serial on sub-second workloads).
        results[unique_idx[0]] = _search_window(tasks[0])
        first_wall = results[unique_idx[0]][1].wall_s
        if first_wall * (len(tasks) - 1) >= _PARALLEL_MIN_EST_S:
            parallel = _run_windows_parallel(tasks[1:], jobs)
            if parallel is not None:
                jobs_used = min(jobs, len(tasks) - 1)
                for w, outcome in zip(unique_idx[1:], parallel):
                    results[w] = outcome
    for pos, w in enumerate(unique_idx):
        if results[w] is None:
            results[w] = _search_window(tasks[pos])
    # Freshly searched windows come back as 4-tuples carrying the worker's
    # recorded spans and a nested counter snapshot: replay the spans into
    # the parent sink (one stitched trace) and merge the counts, then
    # normalize to the (schedule, stats) shape the passes below expect.
    metrics = get_registry()
    for w in unique_idx:
        sched, st, events, snap = results[w]
        replay_events(events, tracer)
        metrics.counters.merge(snap)
        metrics.observe("window_search_seconds", st.wall_s)
        observe_search_throughput(metrics, st)
        results[w] = (sched, st)
    fresh = [(fingerprints[w], windows[w][1], *results[w])
             for w in unique_idx] if cache is not None else []
    for w, source in duplicate_of.items():
        sched, st = results[source]
        results[w] = (sched, dataclasses.replace(st))
        cache_hits += 1

    # Pass 3: ordered reassembly through each window's back-map.  Windows
    # resolved without a fresh search (cache or in-run duplicate) are "hit".
    miss_set = set(unique_idx)
    slots: list[Slot] = []
    stats: list[SearchStats] = []
    for w, (start, sub, back) in enumerate(windows):
        sched, st = results[w]
        stats.append(st)
        for slot in sched:
            slots.append(Slot(slot.opclass,
                              {t: back[(t, i)] for t, i in slot.picks.items()}))
        if tracer.enabled:
            tracer.emit(
                "window",
                index=w,
                start=start,
                ops=sub.num_ops,
                slots=len(sched),
                cost=sched.cost(model),
                nodes_per_s=round(st.nodes_per_second, 1),
                nodes=st.nodes_expanded,
                pruned_bound=st.pruned_by_bound,
                pruned_memo=st.pruned_by_memo,
                incumbent_updates=st.incumbent_updates,
                optimal=st.optimal,
                budget_exhausted=st.budget_exhausted,
                wall_s=st.wall_s,
                cache="off" if cache is None else
                      ("miss" if w in miss_set else "hit"),
            )

    schedule = Schedule(tuple(slots))
    return WindowedResult(
        schedule=schedule,
        window_size=window_size,
        num_windows=len(windows),
        stats=tuple(stats),
        cache_hits=cache_hits,
        jobs_used=jobs_used,
        cost=schedule.cost(model),
    ), fresh
