"""Portfolio strategy racing with a self-improving selector.

The paper's induction is one fixed branch-and-bound; ComPar-style systems
show that *racing* several optimizers and keeping the best output per
input beats any single one.  :func:`run_portfolio` races the existing
strategies — the :data:`repro.core.pipeline.BUILDERS` entries for exact
search, greedy list scheduling, simulated annealing and the serial
baseline — in threads under one deadline.  It is the portfolio build step
of the request driver, :func:`repro.core.pipeline.run_induction`, which
runs the vn pre-pass and the baselines around it:

- every strategy that produces a schedule has it **verified** before it
  can become the incumbent, so a buggy strategy can never win a race;
- the race keeps a shared incumbent (best verified cost so far) and a
  schedule-independent **region lower bound** (max of the critical-path
  and class-count bounds).  Once the incumbent meets that bound no
  strategy can beat it, so every cooperative strategy is cancelled via
  its ``should_stop`` hook and the race ends early with a *proven*
  optimum;
- when the deadline fires, cooperative strategies are stopped and asked
  for their best-so-far; the winner is the cheapest verified schedule,
  decided by ``(cost, canonical strategy order)`` — never by thread
  arrival order, so races are deterministic under a fixed seed;
- a race where *nothing* finished still returns a verified greedy
  schedule (built synchronously after the deadline) flagged
  ``degraded=True`` — strictly better than the old degrade-to-greedy
  service path, which threw away any partial search progress.

Every race is also a training example.  The region is folded into a small
feature vector (:func:`region_features`), coarsened into a bucket key
(:func:`feature_bucket`), and the per-strategy outcomes are recorded into
a :class:`repro.sched.StrategyOutcomesStore`.  On later requests the
store's :meth:`~repro.sched.StrategyOutcomesStore.rank` orders strategies
best-first for that bucket and names historical losers to skip, so a warm
service reaches the winning strategy faster over time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Mapping, Sequence

from repro.core.costmodel import CostModel
from repro.core.greedy import greedy_schedule
from repro.core.ops import Region
from repro.core.pipeline import BUILDERS
from repro.core.prepared import PreparedRegion
from repro.core.result import ResultBase
from repro.core.schedule import Schedule
from repro.core.search import SearchConfig, SearchStats
from repro.core.verify import verify_schedule
from repro.obs import NULL_TRACER, Tracer, attach_context, current_context, span
from repro.obs.metrics import get_registry
from repro.util.rng import resolve_seed

__all__ = [
    "PORTFOLIO_STRATEGIES",
    "PortfolioResult",
    "StrategyOutcome",
    "feature_bucket",
    "region_features",
    "run_portfolio",
]

#: Canonical strategy order.  Doubles as the deterministic tie-break for
#: equal-cost winners: earlier entries win ties, so the exact search beats
#: greedy beats anneal beats serial at equal cost.
PORTFOLIO_STRATEGIES = ("search", "greedy", "anneal", "serial")

#: Seconds granted past the deadline for cooperative strategies to notice
#: their stop flag and hand back a best-so-far schedule.
_CANCEL_GRACE_S = 1.0

#: Incumbent-vs-lower-bound comparisons use this absolute slack.
_EPS = 1e-9


# ---------------------------------------------------------------------------
# Region features — the selector's input.
# ---------------------------------------------------------------------------


def region_features(region: Region, model: CostModel) -> dict[str, float]:
    """Small numeric description of a region for the strategy selector.

    Chosen to be cheap (one pass over the ops) and to separate the regimes
    where different strategies win: tiny regions (search proves optimality
    instantly), wide regions with heavy key sharing (greedy/anneal find
    most merges), and regions with little sharing (serial is already near
    the bound).
    """
    threads = region.num_threads
    ops = region.num_ops
    per_key_threads: dict[tuple, set[int]] = {}
    for op in region.all_ops():
        per_key_threads.setdefault(model.merge_key(op), set()).add(op.thread)
    keys = len(per_key_threads)
    shared = sum(1 for ts in per_key_threads.values() if len(ts) > 1)
    return {
        "threads": float(threads),
        "ops": float(ops),
        "mean_thread_len": ops / threads if threads else 0.0,
        "distinct_keys": float(keys),
        "shared_key_fraction": shared / keys if keys else 0.0,
    }


def feature_bucket(features: Mapping[str, float]) -> str:
    """Coarse string key for the outcomes store.

    Exact thread count, op count rounded to its power-of-two bucket, and
    key sharing quantized to quarters — coarse enough that repeat traffic
    lands in warm buckets, fine enough that the regimes above stay apart.
    """
    ops = int(features.get("ops", 0.0))
    pow2 = 1
    while pow2 < ops:
        pow2 *= 2
    sharing = features.get("shared_key_fraction", 0.0)
    quarter = min(4, int(sharing * 4.0 + 0.5))
    return (f"t{int(features.get('threads', 0.0))}"
            f"_ops{pow2}_share{quarter * 25}")


# ---------------------------------------------------------------------------
# Race bookkeeping.
# ---------------------------------------------------------------------------


@dataclass
class StrategyOutcome:
    """One strategy's contribution to one race."""

    strategy: str
    cost: float | None = None
    time_to_best_s: float | None = None
    wall_s: float = 0.0
    finished: bool = False
    error: str | None = None
    schedule: Schedule | None = None
    stats: SearchStats | None = None
    skipped: bool = False

    def as_dict(self) -> dict[str, Any]:
        """Wire shape consumed by ``StrategyOutcomesStore.record``."""
        return {
            "strategy": self.strategy,
            "cost": self.cost,
            "time_to_best_s": self.time_to_best_s,
            "wall_s": self.wall_s,
            "finished": self.finished,
            "error": self.error,
            "skipped": self.skipped,
        }


@dataclass(frozen=True)
class PortfolioResult(ResultBase):
    """Outcome of one portfolio race (unified result protocol).

    ``stats`` carries the winning strategy's search statistics when the
    winner ran the branch-and-bound; ``optimal`` is claimed only when the
    race *proved* the incumbent (it met the region lower bound, or the
    winning search completed within budget).
    """

    method: str
    schedule: Schedule
    cost: float
    serial_cost: float
    lockstep_cost: float
    stats: SearchStats | None = None
    cache_hit: bool = False
    wall_s: float = 0.0
    degraded: bool = False
    winner: str | None = None
    outcomes: tuple[StrategyOutcome, ...] = ()
    features: Mapping[str, float] = field(default_factory=dict)
    bucket: str = ""
    lower_bound: float = 0.0
    proven: bool = False

    kind = "portfolio"

    @property
    def optimal(self) -> bool:
        return bool(self.proven) and not self.degraded

    def as_dict(self, include_schedule: bool = False) -> dict[str, Any]:
        out = super().as_dict(include_schedule=include_schedule)
        out["winner"] = self.winner
        out["portfolio"] = {
            "bucket": self.bucket,
            "features": dict(self.features),
            "lower_bound": self.lower_bound,
            "proven": bool(self.proven),
            "outcomes": [o.as_dict() for o in self.outcomes],
        }
        return out


class _RaceState:
    """Shared incumbent + cancellation flags, guarded by one lock."""

    def __init__(self, lower_bound: float, deadline_at: float | None) -> None:
        self.lock = threading.Lock()
        self.lower_bound = lower_bound
        self.deadline_at = deadline_at
        self.stop = threading.Event()
        self.best_cost = float("inf")
        self.best_strategy: str | None = None
        self.best_at: float | None = None

    def should_stop(self) -> bool:
        """Cooperative-cancel predicate polled inside strategies."""
        if self.stop.is_set():
            return True
        if self.deadline_at is not None and perf_counter() >= self.deadline_at:
            self.stop.set()
            return True
        return False

    def offer(self, strategy: str, cost: float, now: float) -> None:
        """Install a verified schedule as incumbent if it is the best yet.

        An incumbent that meets the region lower bound is provably optimal
        — nobody can beat it, so the whole race is cancelled.
        """
        with self.lock:
            if cost < self.best_cost - _EPS:
                self.best_cost = cost
                self.best_strategy = strategy
                self.best_at = now
            if self.best_cost <= self.lower_bound + _EPS:
                self.stop.set()


def _race_one(
    name: str,
    outcome: StrategyOutcome,
    state: _RaceState,
    t0: float,
    prepared: PreparedRegion,
    config: SearchConfig,
    seed: int,
    tracer: Tracer,
    ctx: Mapping[str, str] | None,
) -> None:
    """Thread body: run one strategy, verify, offer to the incumbent.

    Exceptions are captured into the outcome — one crashing strategy must
    not poison the race or kill its siblings.
    """
    with attach_context(ctx):
        with span("portfolio.strategy", tracer, strategy=name) as live:
            try:
                schedule, stats = BUILDERS[name](
                    prepared, config, state.should_stop, seed)
                verify_schedule(schedule, prepared.region, prepared.model,
                                dags=prepared.dags)
                now = perf_counter()
                cost = schedule.cost(prepared.model)
                outcome.schedule = schedule
                outcome.stats = stats
                outcome.cost = cost
                outcome.time_to_best_s = now - t0
                outcome.wall_s = now - t0
                outcome.finished = True
                state.offer(name, cost, now)
                live.set(cost=cost, finished=True)
            except Exception as exc:  # noqa: BLE001 — isolate crashes
                outcome.error = f"{type(exc).__name__}: {exc}"
                outcome.wall_s = perf_counter() - t0
                live.set(error=outcome.error, finished=False)


def run_portfolio(
    prepared: PreparedRegion,
    config: SearchConfig | None = None,
    *,
    deadline_s: float | None = None,
    strategies: Sequence[str] | None = None,
    order: Sequence[str] | None = None,
    skip: Sequence[str] | None = None,
    store=None,
    seed: int | None = None,
    tracer: Tracer | None = None,
) -> PortfolioResult:
    """Race induction strategies concurrently; return the best verified one.

    The portfolio build step of :func:`repro.core.pipeline.run_induction`,
    which prepares the (post-vn) region and fills in the result's
    baselines and wall time (left at 0 here).  Each strategy is the
    :data:`~repro.core.pipeline.BUILDERS` entry of that name.

    ``strategies`` restricts the portfolio (default: all of
    :data:`PORTFOLIO_STRATEGIES`).  ``order``/``skip`` are selector hints
    — typically produced by ``StrategyOutcomesStore.rank`` and shipped
    over the service wire; when ``store`` is given and no explicit hints
    are, the store is consulted directly, and the race's outcomes are
    recorded back into it afterwards (the self-improving loop).

    The winner is decided by ``(verified cost, canonical strategy
    order)`` over every strategy that produced a schedule — including
    cooperatively cancelled ones, whose best-so-far is still a valid
    schedule.  With no deadline the race simply runs every strategy to
    completion.  A race where nothing produced a schedule before
    ``deadline + grace`` falls back to a synchronous verified greedy
    schedule with ``degraded=True``.
    """
    tracer = tracer or NULL_TRACER
    metrics = get_registry()
    chosen = tuple(strategies) if strategies is not None else PORTFOLIO_STRATEGIES
    unknown = [s for s in chosen if s not in PORTFOLIO_STRATEGIES]
    if unknown:
        raise ValueError(
            f"unknown portfolio strategies {unknown}; "
            f"expected a subset of {sorted(PORTFOLIO_STRATEGIES)}")
    if not chosen:
        raise ValueError("portfolio needs at least one strategy")

    config = config or SearchConfig()
    region, model = prepared.region, prepared.model
    features = region_features(region, model)
    bucket = feature_bucket(features)
    seed = resolve_seed(seed, default=0)

    if order is None and skip is None and store is not None:
        order, skip = store.rank(bucket, chosen)
    ordered = [s for s in (order or chosen) if s in chosen]
    ordered += [s for s in chosen if s not in ordered]
    skip_set = {s for s in (skip or ()) if s in chosen}
    active = [s for s in ordered if s not in skip_set]
    if not active:  # a skip set can never empty the race
        active, skip_set = [ordered[0]], set(ordered[1:])

    lb = prepared.lower_bound
    t0 = perf_counter()
    deadline_at = t0 + deadline_s if deadline_s is not None else None
    state = _RaceState(lb, deadline_at)

    outcomes = {name: StrategyOutcome(strategy=name) for name in ordered}
    for name in skip_set:
        outcomes[name].skipped = True

    with span("portfolio.race", tracer, strategies=",".join(active),
              skipped=",".join(sorted(skip_set)), bucket=bucket) as live:
        # Captured *inside* the race span: strategy threads re-parent to
        # it, keeping the whole race one stitched trace.
        ctx = current_context()
        threads = []
        for name in active:
            t = threading.Thread(
                target=_race_one,
                args=(name, outcomes[name], state, t0, prepared, config,
                      seed, tracer, ctx),
                name=f"portfolio-{name}",
                daemon=True,
            )
            threads.append(t)
            t.start()

        for t in threads:
            remaining = None
            if deadline_at is not None:
                remaining = max(0.0, deadline_at - perf_counter())
            t.join(remaining)
        state.stop.set()
        # Grace window: cooperative strategies notice the flag and land
        # their best-so-far; anything still running past it is abandoned
        # (daemon threads) and simply contributes no outcome.
        grace_at = perf_counter() + _CANCEL_GRACE_S
        for t in threads:
            t.join(max(0.0, grace_at - perf_counter()))

        # Deterministic winner: cheapest verified schedule, canonical
        # order breaking ties — never racing arrival order.
        candidates = [
            (outcomes[name].cost, PORTFOLIO_STRATEGIES.index(name), name)
            for name in ordered
            if outcomes[name].cost is not None
        ]
        degraded = False
        if candidates:
            _, _, winner = min(candidates)
            win = outcomes[winner]
            schedule = win.schedule
            stats = win.stats
        else:
            winner = None
            with span("portfolio.fallback", tracer):
                schedule = greedy_schedule(region, model, prepared)
                verify_schedule(schedule, region, model, dags=prepared.dags)
            stats = None
            degraded = True

        cost = schedule.cost(model)
        proven = bool(
            cost <= lb + _EPS
            or (winner == "search" and stats is not None and stats.optimal))
        live.set(winner=winner or "fallback", cost=cost, proven=proven,
                 degraded=degraded)

    result = PortfolioResult(
        method="portfolio",
        schedule=schedule,
        cost=cost,
        serial_cost=0.0,
        lockstep_cost=0.0,
        stats=stats,
        degraded=degraded,
        winner=winner,
        outcomes=tuple(outcomes[name] for name in ordered),
        features=features,
        bucket=bucket,
        lower_bound=lb,
        proven=proven,
    )

    metrics.inc("portfolio_races_total")
    if degraded:
        metrics.inc("portfolio_fallbacks_total")
    if winner is not None:
        metrics.inc(f"strategy_wins_total_{winner}")
        ttb = outcomes[winner].time_to_best_s
        if ttb is not None:
            metrics.observe("strategy_time_to_best_seconds", ttb)
            metrics.observe(f"strategy_time_to_best_seconds_{winner}", ttb)
    if store is not None:
        store.record(bucket, winner,
                     [o.as_dict() for o in result.outcomes])
    return result
