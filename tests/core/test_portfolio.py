"""Tests for the portfolio strategy race (repro.core.portfolio)."""

import time

import pytest

from repro.core import pipeline
from repro.core.costmodel import maspar_cost_model
from repro.core.greedy import greedy_schedule
from repro.core.pipeline import run_induction
from repro.core.portfolio import (
    PORTFOLIO_STRATEGIES,
    PortfolioResult,
    feature_bucket,
    region_features,
)
from repro.core.prepared import PreparedRegion
from repro.core.result import result_from_payload, result_to_payload
from repro.core.search import SearchConfig
from repro.core.verify import verify_schedule
from repro.sched import StrategyOutcomesStore
from repro.workloads.threads import RandomRegionSpec, random_region

MODEL = maspar_cost_model()
SPEC = RandomRegionSpec(num_threads=4, min_len=5, max_len=7, vocab_size=6,
                        overlap=0.6, private_vocab=False)


def make_region(seed=7):
    return random_region(SPEC, seed)


def run_race(region, **kwargs):
    """One portfolio request through the induction driver."""
    return run_induction(region, MODEL, "portfolio", **kwargs)


class TestRace:
    def test_returns_best_of_all_strategies(self):
        region = make_region()
        result = run_race(region, deadline_s=30.0)
        assert not result.degraded
        # The winner's schedule must be at least as good as every strategy
        # that finished — that is the whole point of racing.
        finished = [o for o in result.outcomes if o.cost is not None]
        assert finished, "nothing finished under a generous deadline"
        assert result.cost == min(o.cost for o in finished)
        verify_schedule(result.schedule, region, MODEL)

    def test_beats_or_ties_each_individual_strategy(self):
        region = make_region()
        result = run_race(region, deadline_s=30.0)
        for name in PORTFOLIO_STRATEGIES:
            schedule, _ = pipeline.BUILDERS[name](
                PreparedRegion.build(region, MODEL), SearchConfig(), None, 0)
            assert result.cost <= schedule.cost(MODEL) + 1e-9, name

    def test_no_deadline_runs_everything_to_completion(self):
        region = make_region()
        result = run_race(region)
        assert all(o.finished for o in result.outcomes)

    def test_winner_prefers_canonical_order_on_cost_ties(self):
        region = make_region()
        result = run_race(region, deadline_s=30.0)
        ties = [o.strategy for o in result.outcomes
                if o.cost is not None and o.cost == result.cost]
        canonical = min(ties, key=PORTFOLIO_STRATEGIES.index)
        assert result.winner == canonical

    def test_proven_when_incumbent_meets_lower_bound(self):
        # A fully-shared region: every thread runs the same ops, so the
        # class bound is tight and the race proves its winner optimal.
        region = make_region()
        result = run_race(region, deadline_s=30.0)
        if result.cost <= result.lower_bound + 1e-9:
            assert result.proven and result.optimal

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown portfolio"):
            run_race(make_region(), strategies=("nope",))

    def test_empty_strategy_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            run_race(make_region(), strategies=())


class TestDeterminism:
    def test_winner_deterministic_under_fixed_seed(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "123")
        region = make_region()
        runs = [run_race(region) for _ in range(3)]
        assert len({r.winner for r in runs}) == 1
        assert len({r.cost for r in runs}) == 1
        first = runs[0].schedule
        assert all(r.schedule == first for r in runs)


class TestCancellation:
    def test_zero_finishers_returns_verified_greedy(self, monkeypatch):
        region = make_region()

        def stuck(prepared, config, should_stop, seed):
            time.sleep(30.0)
            raise AssertionError("unreachable in this test")

        for name in PORTFOLIO_STRATEGIES:
            monkeypatch.setitem(pipeline.BUILDERS, name, stuck)
        start = time.monotonic()
        result = run_race(region, deadline_s=0.2)
        assert time.monotonic() - start < 10.0
        assert result.degraded and result.winner is None
        assert not result.optimal
        assert result.cost == greedy_schedule(region, MODEL).cost(MODEL)
        verify_schedule(result.schedule, region, MODEL)

    def test_crashing_strategy_does_not_poison_race(self, monkeypatch):
        region = make_region()

        def crash(prepared, config, should_stop, seed):
            raise RuntimeError("injected strategy crash")

        monkeypatch.setitem(pipeline.BUILDERS, "anneal", crash)
        result = run_race(region, deadline_s=30.0)
        assert not result.degraded
        crashed = next(o for o in result.outcomes if o.strategy == "anneal")
        assert crashed.error is not None
        assert "injected strategy crash" in crashed.error
        assert crashed.cost is None
        assert result.winner in ("search", "greedy", "serial")
        verify_schedule(result.schedule, region, MODEL)

    def test_cooperative_strategy_cancelled_at_deadline(self, monkeypatch):
        region = make_region()

        def cooperative(prepared, config, should_stop, seed):
            while not should_stop():
                time.sleep(0.01)
            # Cancelled strategies still hand back their best-so-far.
            return greedy_schedule(prepared.region, prepared.model,
                                   prepared), None

        monkeypatch.setitem(pipeline.BUILDERS, "search", cooperative)
        start = time.monotonic()
        result = run_race(region, deadline_s=0.3, strategies=("search",))
        assert time.monotonic() - start < 10.0
        assert not result.degraded
        assert result.winner == "search"
        assert result.cost == greedy_schedule(region, MODEL).cost(MODEL)

    def test_race_stops_early_when_optimum_proven(self, monkeypatch):
        region = make_region()
        stops = []

        def cooperative(prepared, config, should_stop, seed):
            deadline = time.monotonic() + 30.0
            while not should_stop():
                if time.monotonic() > deadline:  # pragma: no cover
                    raise AssertionError("never cancelled")
                time.sleep(0.005)
            stops.append(True)
            return greedy_schedule(prepared.region, prepared.model,
                                   prepared), None

        # 'anneal' now spins until cancelled; the real search should find
        # (and prove) the optimum, which must cancel the whole race well
        # before anneal's own 30s give-up.
        monkeypatch.setitem(pipeline.BUILDERS, "anneal", cooperative)
        result = run_race(region)
        if result.proven:
            assert stops == [True]


class TestSelectorIntegration:
    def test_store_records_and_learns_skips(self):
        region = make_region()
        store = StrategyOutcomesStore()
        results = [run_race(region, deadline_s=30.0, store=store)
                   for _ in range(4)]
        bucket = results[0].bucket
        _, skip = store.rank(bucket, PORTFOLIO_STRATEGIES)
        raced_last = {o.strategy for o in results[-1].outcomes
                      if not o.skipped}
        assert skip, "store learned no skips from four identical races"
        assert raced_last.isdisjoint(skip)
        assert results[-1].cost == results[0].cost

    def test_explicit_skip_hint_is_honored(self):
        region = make_region()
        result = run_race(region, deadline_s=30.0,
                          order=("greedy", "search"),
                          skip=("anneal", "serial"))
        skipped = {o.strategy for o in result.outcomes if o.skipped}
        assert skipped == {"anneal", "serial"}
        assert result.winner in ("greedy", "search")

    def test_skip_hints_can_never_empty_the_race(self):
        region = make_region()
        result = run_race(region, skip=PORTFOLIO_STRATEGIES)
        raced = [o for o in result.outcomes if not o.skipped]
        assert len(raced) == 1
        assert not result.degraded


class TestResultProtocol:
    def test_payload_round_trip_preserves_portfolio_extras(self):
        region = make_region()
        result = run_race(region, deadline_s=30.0)
        back = result_from_payload(result_to_payload(result))
        assert back.cost == result.cost
        assert back.extras["winner"] == result.winner
        info = back.extras["portfolio"]
        assert info["bucket"] == result.bucket
        assert {o["strategy"] for o in info["outcomes"]} == \
            set(PORTFOLIO_STRATEGIES)

    def test_kind_and_optimal_semantics(self):
        result = run_race(make_region(), deadline_s=30.0)
        assert result.kind == "portfolio"
        assert isinstance(result, PortfolioResult)
        assert result.optimal == (result.proven and not result.degraded)


class TestObservability:
    def test_strategy_spans_parent_under_the_race_span(self):
        from repro.obs import MemoryTracer

        tracer = MemoryTracer()
        run_race(make_region(), deadline_s=30.0, tracer=tracer)
        spans = {e["name"]: e for e in tracer.events
                 if e.get("kind") == "span"}
        race = spans["portfolio.race"]
        children = [e for e in tracer.events
                    if e.get("name") == "portfolio.strategy"]
        assert len(children) == len(PORTFOLIO_STRATEGIES)
        # One stitched trace: every strategy thread re-parents under the
        # race span, not onto a fresh root.
        assert all(e["parent"] == race["span"] for e in children)
        assert all(e["trace"] == race["trace"] for e in children)


class TestFeatures:
    def test_lower_bound_is_admissible(self):
        region = make_region()
        result = run_race(region, deadline_s=30.0)
        bound = PreparedRegion.build(region, MODEL).lower_bound
        assert bound <= result.cost + 1e-9

    def test_feature_bucket_is_stable_and_coarse(self):
        region = make_region()
        features = region_features(region, MODEL)
        assert feature_bucket(features) == feature_bucket(features)
        assert feature_bucket(features).startswith(
            f"t{region.num_threads}_ops")
