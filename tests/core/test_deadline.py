"""The one deadline rule in the request driver (`run_induction`).

A request's ``deadline_s`` becomes one instant when the driver starts.
The ``search`` builder gets a ``should_stop`` that answers true from that
instant on; a search it stops returns its checked incumbent, unproven,
with ``stats.deadline_cut`` set, not degraded and never cached.  The
other methods ignore it.
"""

import time

from repro.core import (
    ScheduleCache, SearchStats, greedy_schedule, maspar_cost_model,
    parse_region, verify_schedule,
)
from repro.core import pipeline
from repro.core.pipeline import run_induction

MODEL = maspar_cost_model()

REGION = parse_region("""
thread 0:
    a = ld x
    b = mul a a
    c = add b a
    d = sub c b
thread 1:
    e = ld y
    f = add e e
    g = mul f e
thread 2:
    h = ld x
    i = mul h h
    j = sub i h
""")


def _cooperative(polls):
    """A search builder that runs until its ``should_stop`` answers true,
    then hands back greedy's schedule as its incumbent."""

    def build(prepared, config, should_stop):
        while not should_stop():
            polls.append(time.monotonic())
            time.sleep(0.01)
        schedule = greedy_schedule(prepared.region, prepared.model, prepared)
        return schedule, SearchStats(budget_exhausted=True)

    return build


class TestDeadlineCut:
    def test_cooperative_builder_is_stopped_at_the_deadline(self,
                                                            monkeypatch):
        polls = []
        monkeypatch.setitem(pipeline.BUILDERS, "search", _cooperative(polls))
        start = time.monotonic()
        result = run_induction(REGION, MODEL, "search", deadline_s=0.2)
        elapsed = time.monotonic() - start
        assert 0.2 <= elapsed < 2.0 and polls
        # The incumbent, checked, flagged and unproven; not degraded.
        assert not result.degraded
        assert result.method == "search"
        assert result.deadline_cut and not result.optimal
        assert result.cost == greedy_schedule(REGION, MODEL).cost(MODEL)
        verify_schedule(result.schedule, REGION, MODEL)

    def test_search_past_its_deadline_at_the_root_returns_the_seed(self):
        # The instant has passed by the root poll, so the engine expands
        # nothing and the greedy seed is the incumbent.
        result = run_induction(REGION, MODEL, "search", deadline_s=1e-9)
        assert result.deadline_cut and not result.optimal
        assert result.stats.nodes_expanded == 0
        assert result.stats.budget_exhausted
        assert result.cost == greedy_schedule(REGION, MODEL).cost(MODEL)
        verify_schedule(result.schedule, REGION, MODEL)

    def test_unseeded_search_cut_before_its_first_leaf_answers(self):
        # Without the greedy seed there is no incumbent until the first
        # leaf; a cut before it still answers, with greedy's schedule.
        from repro.core.search import SearchConfig

        result = run_induction(REGION, MODEL, "search",
                               SearchConfig(seed_with_greedy=False),
                               deadline_s=1e-9)
        assert result.deadline_cut and not result.optimal
        assert result.stats.nodes_expanded == 0
        assert result.cost == greedy_schedule(REGION, MODEL).cost(MODEL)
        verify_schedule(result.schedule, REGION, MODEL)

    def test_no_deadline_and_a_far_one_search_alike(self):
        plain = run_induction(REGION, MODEL, "search")
        far = run_induction(REGION, MODEL, "search", deadline_s=3600.0)
        assert plain.optimal and far.optimal and not far.deadline_cut
        assert far.schedule == plain.schedule
        assert far.stats.nodes_expanded == plain.stats.nodes_expanded

    def test_other_methods_ignore_the_deadline(self):
        for method in ("greedy", "factor", "lockstep", "serial"):
            result = run_induction(REGION, MODEL, method, deadline_s=1e-9)
            assert result.optimal and not result.deadline_cut, method
            assert result.stats is None

    def test_a_cut_result_is_never_stored(self, monkeypatch):
        cache = ScheduleCache()
        with monkeypatch.context() as patch:
            patch.setitem(pipeline.BUILDERS, "search", _cooperative([]))
            cut = run_induction(REGION, MODEL, "search", cache=cache,
                                deadline_s=0.05)
        assert cut.deadline_cut and len(cache) == 0
        # A repeat without a deadline searches, and its proof is stored.
        full = run_induction(REGION, MODEL, "search", cache=cache)
        assert not full.cache_hit and full.optimal and len(cache) == 1
        again = run_induction(REGION, MODEL, "search", cache=cache,
                              deadline_s=0.05)
        assert again.cache_hit and again.optimal and not again.deadline_cut
