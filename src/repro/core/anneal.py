"""Simulated-annealing induction.

A middle point between the greedy list scheduler (fast, myopic) and the
exact branch-and-bound (optimal, exponential): anneal over *op priorities*.

The schedule builder is a keyed list scheduler: at every step the ready
operations are bucketed by merge key and the bucket with the best
``(cost saved, mean priority)`` is issued.  The annealer perturbs one
operation's priority at a time and accepts by the Metropolis rule on the
resulting schedule cost.  Because every priority vector produces a *valid*
schedule by construction, the search space has no infeasible states —
moves are always legal, only better or worse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.costmodel import CostModel
from repro.core.dag import DependenceDAG
from repro.core.ops import Region
from repro.core.prepared import PreparedRegion
from repro.core.schedule import Schedule, Slot
from repro.util.rng import make_rng, resolve_seed

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np

__all__ = ["AnnealStats", "anneal_schedule"]


@dataclass
class AnnealStats:
    """Annealing run counters."""

    steps: int = 0
    accepted: int = 0
    improved: int = 0
    initial_cost: float = 0.0
    best_cost: float = 0.0


def _keyed_schedule(
    region: Region,
    model: CostModel,
    dags: tuple[DependenceDAG, ...],
    priority: dict[tuple[int, int], float],
) -> Schedule:
    """List schedule driven by per-op priorities (always valid)."""
    done: list[set[int]] = [set() for _ in region.threads]
    remaining = region.num_ops
    slots: list[Slot] = []
    while remaining:
        buckets: dict[tuple, dict[int, int]] = {}
        for t, dag in enumerate(dags):
            best_per_key: dict[tuple, int] = {}
            for i in dag.ready(frozenset(done[t])):
                key = model.merge_key(region[t].ops[i])
                prev = best_per_key.get(key)
                if prev is None or priority[(t, i)] > priority[(t, prev)]:
                    best_per_key[key] = i
            for key, i in best_per_key.items():
                buckets.setdefault(key, {})[t] = i

        def score(item):
            key, picks = item
            saved = (len(picks) - 1) * model.slot_cost(key[0])
            mean_priority = sum(priority[(t, i)] for t, i in picks.items()) / len(picks)
            return (saved, mean_priority, len(picks), repr(key))

        key, picks = max(buckets.items(), key=score)
        slots.append(Slot(key[0], picks))
        for t, i in picks.items():
            done[t].add(i)
        remaining -= len(picks)
    return Schedule(tuple(slots))


def anneal_schedule(
    region: Region,
    model: CostModel,
    seed: int | np.random.Generator | None = None,
    steps: int = 400,
    initial_temperature: float | None = None,
    cooling: float = 0.99,
    respect_order: bool = False,
    prepared: PreparedRegion | None = None,
    should_stop: Callable[[], bool] | None = None,
) -> tuple[Schedule, AnnealStats]:
    """Anneal op priorities; returns the best schedule seen and stats.

    Priorities start at the ops' remaining critical paths (so step 0
    reproduces the greedy heuristic's preference) and drift from there.
    Deterministic for a given seed.  ``seed=None`` resolves through
    :func:`repro.util.rng.resolve_seed` — ``$REPRO_SEED`` when set, else
    the historical default of 0 — so the single seed knob that drives the
    fuzzer and the benchmarks reaches the annealer too (previously a
    hardcoded ``seed=0`` default silently ignored it).

    ``prepared`` supplies the DAGs and critical paths (built here with
    ``respect_order`` when absent).

    ``should_stop`` (polled once per step) requests a cooperative early
    exit with the best schedule found so far — used by the portfolio racer
    to cancel a losing anneal and to honor deadlines.
    """
    try:  # numpy is the [fast] extra; the annealer is the only core user.
        import numpy as np
    except ImportError as exc:
        raise RuntimeError(
            "anneal_schedule requires numpy; install it with the [fast] "
            "extra (pip install repro[fast])") from exc
    if steps < 0:
        raise ValueError(f"negative step count {steps}")
    if not 0.0 < cooling <= 1.0:
        raise ValueError(f"cooling must be in (0, 1], got {cooling}")
    if seed is None:
        seed = resolve_seed(default=0)
    rng = make_rng(seed)
    if prepared is None:
        prepared = PreparedRegion.build(region, model, respect_order)
    dags, crit = prepared.dags, prepared.crit
    priority = {(t, i): crit[t][i]
                for t, dag in enumerate(dags) for i in range(len(dag))}
    op_keys = list(priority)
    stats = AnnealStats()
    if not op_keys:
        empty = Schedule(())
        return empty, stats

    current = _keyed_schedule(region, model, dags, priority)
    current_cost = current.cost(model)
    best, best_cost = current, current_cost
    stats.initial_cost = current_cost
    scale = max(1.0, float(np.mean([model.op_cost(op) for op in region.all_ops()])))
    temperature = initial_temperature if initial_temperature is not None else 2.0 * scale

    for _ in range(steps):
        if should_stop is not None and should_stop():
            break
        stats.steps += 1
        t, i = op_keys[int(rng.integers(len(op_keys)))]
        old = priority[(t, i)]
        priority[(t, i)] = old + float(rng.normal(0.0, scale))
        candidate = _keyed_schedule(region, model, dags, priority)
        cost = candidate.cost(model)
        delta = cost - current_cost
        if delta <= 0 or float(rng.random()) < math.exp(-delta / max(temperature, 1e-9)):
            stats.accepted += 1
            current, current_cost = candidate, cost
            if cost < best_cost - 1e-12:
                stats.improved += 1
                best, best_cost = candidate, cost
        else:
            priority[(t, i)] = old
        temperature *= cooling

    stats.best_cost = best_cost
    return best, stats
