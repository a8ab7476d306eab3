"""E17 — portfolio racing vs the best single strategy, cold vs warm store.

``method="portfolio"`` races every induction strategy (search, greedy,
anneal, serial) concurrently under one deadline and returns the best
verified schedule.  This experiment measures the two claims that justify
the machinery, on a mixed bag of E3-style regions (varying thread count,
depth and opcode overlap, so different strategies win on different
regions):

1. **Never worse than the best single pick.**  For each region, every
   strategy runs alone under the same deadline/budget; the race's cost
   must be <= the best (and hence every) individual deadline-limited
   result.  This is asserted, not just reported — strategies are
   deterministic under a fixed seed, so equality with the per-region
   minimum is exact.

2. **The outcomes store pays for itself.**  A fresh (cold) store races
   everything; after ``MIN_RACES_TO_SKIP`` races per region it has
   learned which strategies never win there and skips them, so a warm
   race fields fewer competitors and reaches the winning schedule faster
   (fewer threads contending for the interpreter).  Headline:
   time-to-best, cold round 1 vs the first warm round, plus how many
   strategies actually raced.

``E17_SMOKE=1`` shrinks the workload/budget for CI; the regression gate
compares the measured warm/cold time-to-best speedup (a same-box ratio,
hardware-independent) against the committed
``benchmarks/BENCH_portfolio.json`` snapshot.
"""

import json
import os
import pathlib

from conftest import bench_seed, record_table
from repro.core import maspar_cost_model
from repro.core.pipeline import run_induction
from repro.core.portfolio import PORTFOLIO_STRATEGIES
from repro.core.search import SearchConfig
from repro.sched import StrategyOutcomesStore
from repro.sched.outcomes import MIN_RACES_TO_SKIP
from repro.util import format_table
from repro.workloads import RandomRegionSpec, random_region

SMOKE = os.environ.get("E17_SMOKE", "") not in ("", "0")
MODEL = maspar_cost_model()
DEADLINE_S = 0.5 if SMOKE else 2.0
#: Sized so the search finishes its budget well inside the deadline even
#: while sharing the interpreter with three rivals: the single-strategy
#: and raced searches then explore identical trees, which is what makes
#: criterion 1 an exact assertion instead of a timing coin-flip.
BUDGET = 8_000 if SMOKE else 60_000
SNAPSHOT = pathlib.Path(__file__).parent / "BENCH_portfolio.json"

MIXED = [
    ("3x8 balanced", RandomRegionSpec(num_threads=3, min_len=8, max_len=8,
                                      vocab_size=8, overlap=0.6,
                                      private_vocab=False), 42),
    ("4x6 shared", RandomRegionSpec(num_threads=4, min_len=6, max_len=6,
                                    vocab_size=6, overlap=0.8,
                                    private_vocab=False), 7),
    ("4x9 sparse", RandomRegionSpec(num_threads=4, min_len=9, max_len=9,
                                    vocab_size=12, overlap=0.4,
                                    private_vocab=False), 11),
    ("3x10 deep", RandomRegionSpec(num_threads=3, min_len=10, max_len=10,
                                   vocab_size=9, overlap=0.5,
                                   private_vocab=False), 3),
]


def workload():
    picks = MIXED[:2] if SMOKE else MIXED
    return [(name, random_region(spec, seed=bench_seed(seed)))
            for name, spec, seed in picks]


def _race(region, **kwargs):
    return run_induction(region, MODEL, "portfolio",
                         SearchConfig(node_budget=BUDGET),
                         deadline_s=DEADLINE_S, **kwargs)


def _winner_ttb(result):
    """The winning strategy's time-to-best, in seconds."""
    for outcome in result.outcomes:
        if outcome.strategy == result.winner:
            return outcome.time_to_best_s
    return None


def run_experiment():
    rows = []
    data = {"smoke": SMOKE, "deadline_s": DEADLINE_S, "budget": BUDGET,
            "regions": {}}
    cold_ttb_total = warm_ttb_total = 0.0
    cold_raced_total = warm_raced_total = 0
    for name, region in workload():
        # Criterion 1 baseline: each strategy alone, same deadline/budget.
        single = {
            strategy: _race(region, strategies=(strategy,)).cost
            for strategy in PORTFOLIO_STRATEGIES
        }
        # Criterion 2: race until the store has skip evidence, then once
        # more warm.  Race 1 is the cold measurement.
        store = StrategyOutcomesStore()
        cold = _race(region, store=store)
        for _ in range(MIN_RACES_TO_SKIP - 1):
            _race(region, store=store)
        warm = _race(region, store=store)

        cold_ttb = _winner_ttb(cold) or 0.0
        warm_ttb = _winner_ttb(warm) or 0.0
        cold_raced = sum(not o.skipped for o in cold.outcomes)
        warm_raced = sum(not o.skipped for o in warm.outcomes)
        cold_ttb_total += cold_ttb
        warm_ttb_total += warm_ttb
        cold_raced_total += cold_raced
        warm_raced_total += warm_raced

        best_single = min(single.values())
        assert warm.cost <= best_single + 1e-9, (
            f"{name}: warm portfolio {warm.cost} worse than best single "
            f"strategy {best_single}")
        assert cold.cost <= best_single + 1e-9, (
            f"{name}: cold portfolio {cold.cost} worse than best single "
            f"strategy {best_single}")

        data["regions"][name] = {
            "single": single,
            "portfolio_cost": warm.cost,
            "winner": warm.winner,
            "proven": warm.proven,
            "cold_ttb_s": cold_ttb,
            "warm_ttb_s": warm_ttb,
            "cold_raced": cold_raced,
            "warm_raced": warm_raced,
        }
        rows.append([name, warm.winner,
                     *(f"{single[s]:.0f}" for s in PORTFOLIO_STRATEGIES),
                     f"{warm.cost:.0f}",
                     f"{cold_ttb * 1e3:.1f}", f"{warm_ttb * 1e3:.1f}",
                     f"{cold_raced}->{warm_raced}"])

    n = len(data["regions"])
    data["cold_ttb_s"] = cold_ttb_total / n
    data["warm_ttb_s"] = warm_ttb_total / n
    data["warm_speedup"] = (cold_ttb_total / warm_ttb_total
                            if warm_ttb_total else float("inf"))
    data["cold_raced_total"] = cold_raced_total
    data["warm_raced_total"] = warm_raced_total
    text = format_table(
        ["region", "winner", *PORTFOLIO_STRATEGIES, "portfolio",
         "cold ttb ms", "warm ttb ms", "raced"],
        rows,
        title=f"E17: portfolio race vs single strategies "
              f"(deadline {DEADLINE_S}s, budget {BUDGET:,}"
              f"{', smoke' if SMOKE else ''}); warm store speedup "
              f"{data['warm_speedup']:.2f}x")
    record_table("E17_portfolio", text, data=data)
    return data


def _snapshot_speedup():
    """Committed reference warm/cold speedup for this mode, or None."""
    if not SNAPSHOT.exists():
        return None
    snap = json.loads(SNAPSHOT.read_text())
    mode = snap.get("smoke" if SMOKE else "full")
    return mode["warm_speedup"] if mode else None


def test_e17_portfolio(benchmark):
    data = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    # The store must have learned something: strictly fewer strategies
    # race warm than cold (deterministic — same races, same evidence).
    assert data["warm_raced_total"] < data["cold_raced_total"], (
        f"outcomes store skipped nothing "
        f"({data['cold_raced_total']} -> {data['warm_raced_total']})")
    # A thinner field must not be slower to the winning schedule beyond
    # timer noise.
    assert data["warm_ttb_s"] <= data["cold_ttb_s"] * 1.25, (
        f"warm race slower to best: {data['warm_ttb_s']*1e3:.1f}ms vs "
        f"cold {data['cold_ttb_s']*1e3:.1f}ms")
    # Regression gate vs the committed snapshot: the warm/cold ratio is
    # measured on one box in one process, so a large drop means the
    # selector stopped thinning the field (not that CI hardware changed).
    reference = _snapshot_speedup()
    if reference is not None:
        assert data["warm_speedup"] >= 0.5 * reference, (
            f"warm-store speedup regressed: {data['warm_speedup']:.2f}x vs "
            f"snapshot {reference:.2f}x (allowed floor "
            f"{0.5 * reference:.2f}x)")
