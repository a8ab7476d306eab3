"""Engine parity on hand-written regions — no numpy anywhere.

The main equivalence suite (``test_engine_equivalence.py``) drives the
engines over ``repro.workloads`` random regions, which need numpy, so a
numpy-less install skips it wholesale.  This file keeps a slice of the
same contract alive in that configuration: regions come from
``parse_region`` (pure Python), and the bitmask engine must agree with
the legacy oracle schedule-for-schedule and counter-for-counter.  With
numpy installed it runs too, as a cheap sanity layer under the big suite.
"""

import pytest

from repro.core import maspar_cost_model, parse_region, verify_schedule
from repro.core.engines import legacy_search
from repro.core.search import SearchConfig, branch_and_bound

_DIAMOND = """
thread 0:
    a = ld x
    b = mul a a
    c = add b a
    g = mul c b
thread 1:
    d = ld y
    e = mul d d
    f = add e d
    h = mul f e
"""

# Cross-thread redundancy spelled three different ways (mul-by-power-of-2
# vs float imm, reversed commutative reads): the vn pre-pass rewrites this
# region, and the rewritten form must keep full engine parity too.
_REDUNDANT = """
thread 0:
    a = ld x
    b = mul a #4
    c = add b a
thread 1:
    d = ld x
    e = mul d #4.0
    f = add d e
thread 2:
    g = ld y
    h = mul g #4
    i = add h g
"""

# Asymmetric lengths and a third thread: exercises partial merges,
# uneven critical paths, and slots where not every thread participates.
_RAGGED = """
thread 0:
    a = ld x
    b = add a a
    c = mul b a
thread 1:
    d = ld x
    e = mul d d
thread 2:
    f = ld y
    g = add f f
    h = mul g f
    i = add h g
"""

_COMPARED = ("nodes_expanded", "children_generated", "pruned_by_bound",
             "pruned_by_memo", "incumbent_updates", "best_cost",
             "optimal", "budget_exhausted")

_KNOBS = [
    {},
    {"use_cp_bound": False},
    {"use_class_bound": False},
    {"use_cp_bound": False, "use_class_bound": False, "use_memo": False,
     "seed_with_greedy": False},
]


def _assert_parity(region, knobs):
    model = maspar_cost_model()
    config = SearchConfig(node_budget=20_000, **knobs)
    sched, stats = branch_and_bound(region, model, config)
    sched_ref, stats_ref = branch_and_bound(region, model, config,
                                            search_fn=legacy_search)
    verify_schedule(sched_ref, region, model)
    assert sched == sched_ref, f"schedule diverged ({knobs})"
    for field in _COMPARED:
        assert getattr(stats, field) == getattr(stats_ref, field), (
            f"{field} diverged ({knobs})")


@pytest.mark.parametrize("text", [_DIAMOND, _RAGGED, _REDUNDANT],
                         ids=["diamond", "ragged", "redundant"])
@pytest.mark.parametrize("knobs", _KNOBS,
                         ids=["all", "no-cp", "no-class", "none"])
def test_engines_agree_on_handwritten_regions(text, knobs):
    _assert_parity(parse_region(text), knobs)


@pytest.mark.parametrize("text", [_DIAMOND, _RAGGED, _REDUNDANT],
                         ids=["diamond", "ragged", "redundant"])
@pytest.mark.parametrize("knobs", _KNOBS,
                         ids=["all", "no-cp", "no-class", "none"])
def test_engines_agree_on_vn_rewritten_regions(text, knobs):
    # The vn pre-pass is pure Python too, so the numpy-free slice of the
    # parity contract covers rewritten regions as well.  _REDUNDANT is
    # built to actually rewrite; the others pin the no-op path.
    from repro.core.vn import rewrite_region
    region = parse_region(text)
    rewritten, rewrites = rewrite_region(region, maspar_cost_model())
    if text is _REDUNDANT:
        assert rewrites > 0
    _assert_parity(rewritten, knobs)
