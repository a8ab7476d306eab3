"""Property-based tests for windowed induction."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.core import (
    maspar_cost_model,
    serial_schedule,
    verify_schedule,
)
from repro.core.search import SearchConfig
from repro.workloads import RandomRegionSpec, random_region

MODEL = maspar_cost_model()
COMMON = settings(max_examples=20, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


@given(
    seed=st.integers(0, 100),
    threads=st.integers(1, 5),
    length=st.integers(1, 18),
    window=st.integers(1, 20),
)
@COMMON
def test_windowed_always_valid_and_bounded(seed, threads, length, window):
    region = random_region(
        RandomRegionSpec(num_threads=threads, min_len=max(1, length - 3),
                         max_len=length, vocab_size=6, overlap=0.5,
                         private_vocab=False),
        seed=seed)
    result = api.induce(api.InductionRequest(
        region, MODEL, window=window, config=SearchConfig(node_budget=1_500)))
    verify_schedule(result.schedule, region, MODEL)
    serial_cost = serial_schedule(region, MODEL).cost(MODEL)
    cost = result.schedule.cost(MODEL)
    assert cost <= serial_cost + 1e-9
    # Slot-count sanity: between the longest thread and total ops.
    max_len = max((len(tc) for tc in region.threads), default=0)
    if region.num_ops:
        assert max_len <= len(result.schedule) <= region.num_ops


@given(seed=st.integers(0, 30), window=st.integers(1, 12))
@COMMON
def test_window_stats_consistent(seed, window):
    region = random_region(
        RandomRegionSpec(num_threads=3, min_len=6, max_len=12,
                         vocab_size=5, overlap=0.6, private_vocab=False),
        seed=seed)
    result = api.induce(api.InductionRequest(
        region, MODEL, window=window, config=SearchConfig(node_budget=1_500)))
    longest = max(len(tc) for tc in region.threads)
    expected_windows = -(-longest // window)  # ceil
    assert result.num_windows == expected_windows
    assert len(result.stats) == result.num_windows
    assert result.total_nodes == sum(s.nodes_expanded for s in result.stats)
