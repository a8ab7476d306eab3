"""One prepared region per request, and one verification of its schedule.

Hand-written regions only, so the file runs without numpy.
"""

import dataclasses
import sys
from collections import Counter

import pytest

import repro.core.dag as dag_mod
import repro.core.verify as verify_mod
from repro import api
from repro.core.costmodel import (MergeKeyTable, maspar_cost_model,
                                  uniform_cost_model)
from repro.core.ops import parse_region
from repro.core.prepared import PreparedRegion
from repro.service import protocol

SHARED = """
thread 0:
    a = ld x
    b = mul a a
    c = add b a
    st y c
thread 1:
    d = ld x
    e = mul d d
    f = sub e d
    st y f
thread 2:
    g = ld z
    h = add g g
    i = mul h g
"""

DIAMOND = """
thread 0:
    a = ld x
    b = add a #1
    c = mul a #2
    d = add b c
    st y d
thread 1:
    e = ld x
    f = mul e #2
    g = add e #1
    h = add f g
thread 2:
    k = ld w
"""

MODELS = {
    "maspar": maspar_cost_model(),
    "maspar-imm": maspar_cost_model(require_equal_imm=True),
    "uniform": uniform_cost_model(),
}


def _count_calls(monkeypatch) -> Counter:
    """Count ``build_dags``, ``verify_schedule`` and ``MergeKeyTable``
    builds, wrapping every module that binds the functions by name."""
    counts: Counter = Counter()
    for original in (dag_mod.build_dags, verify_mod.verify_schedule):
        def counted(*args, _fn=original, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)
        for mod in list(sys.modules.values()):
            for attr, value in list(getattr(mod, "__dict__", {}).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    init = MergeKeyTable.__init__

    def counted_init(self, *args, **kwargs):
        counts["MergeKeyTable"] += 1
        init(self, *args, **kwargs)
    monkeypatch.setattr(MergeKeyTable, "__init__", counted_init)
    return counts


class TestPreparedRegion:
    @pytest.mark.parametrize("text", [SHARED, DIAMOND],
                             ids=["shared", "diamond"])
    @pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
    @pytest.mark.parametrize("respect_order", [False, True])
    def test_critical_paths_match_the_dag_bit_for_bit(self, text, model,
                                                      respect_order):
        region = parse_region(text)
        prepared = PreparedRegion.build(region, model, respect_order)
        assert prepared.crit == tuple(
            dag.critical_path_costs(region[t], model)
            for t, dag in enumerate(prepared.dags))

    @pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
    def test_lower_bound_is_max_of_cp_and_class_bound(self, model):
        region = parse_region(DIAMOND)
        prepared = PreparedRegion.build(region, model)
        cp = max(max(c) for c in prepared.crit)
        per_key = Counter((model.merge_key(op), op.thread)
                          for op in region.all_ops())
        most: dict = {}
        for (key, _t), n in per_key.items():
            most[key] = max(most.get(key, 0), n)
        class_bound = sum(n * model.slot_cost(key[0])
                          for key, n in most.items())
        assert prepared.lower_bound == max(cp, class_bound)

    def test_immutable(self):
        prepared = PreparedRegion.build(parse_region(SHARED),
                                        maspar_cost_model())
        with pytest.raises(dataclasses.FrozenInstanceError):
            prepared.lower_bound = 0.0


# Equal critical paths inside one (key, thread) bucket: two loads and two
# adds per thread, so the two tie-breaks order them differently.
TIES = """
thread 0:
    a = ld x
    b = ld y
    c = add a #1
    d = add b #1
thread 1:
    e = ld x
    f = add e #1
    g = ld y
"""


def _reference_ready_state(prepared):
    """Buckets, root ready masks and both pick orders, built from the
    merge-key ids and predecessor sets with the keyed sorts the greedy
    and the engine used before the prepared region held them."""
    n = prepared.region.num_threads
    size = len(prepared.table) * n
    buckets = [[] for _ in range(size)]
    ready = [0] * size
    for t, dag in enumerate(prepared.dags):
        for i, kid in enumerate(prepared.table.ids_by_thread[t]):
            buckets[kid * n + t].append(i)
            if not dag.preds[i]:
                ready[kid * n + t] |= 1 << i
    low, high = [], []
    for slot, bucket in enumerate(buckets):
        crit = prepared.crit[slot % n]
        low.append(tuple(sorted(bucket, key=lambda i: (-crit[i], i))))
        high.append(tuple(sorted(bucket, key=lambda i: (-crit[i], -i))))
    return [tuple(b) for b in buckets], ready, low, high


def _assert_ready_state(prepared):
    buckets, ready, low, high = _reference_ready_state(prepared)
    n = prepared.region.num_threads
    assert list(prepared.buckets) == buckets
    assert list(prepared.root_ready) == ready
    assert list(prepared.root_ready_count) == [
        sum(bin(mask).count("1") for mask in ready[kid * n:(kid + 1) * n])
        for kid in range(len(prepared.table))]
    assert prepared.class_counts == tuple(
        tuple(len(b) for b in buckets[kid * n:(kid + 1) * n])
        for kid in range(len(prepared.table)))
    assert prepared.pick_orders(prefer_low_index=True) == low
    assert prepared.pick_orders() == high


class TestRootReadyState:
    """The root ready state is built once per request, in the prepared
    region; greedy and the engine each copy it and sort their own
    tie-break."""

    @pytest.mark.parametrize("text", [SHARED, DIAMOND, TIES],
                             ids=["shared", "diamond", "ties"])
    @pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
    @pytest.mark.parametrize("respect_order", [False, True])
    def test_matches_a_direct_construction(self, text, model, respect_order):
        _assert_ready_state(
            PreparedRegion.build(parse_region(text), model, respect_order))

    def test_tie_breaks_differ_on_equal_paths(self):
        prepared = PreparedRegion.build(parse_region(TIES),
                                        uniform_cost_model())
        low = prepared.pick_orders(prefer_low_index=True)
        high = prepared.pick_orders()
        n = prepared.region.num_threads
        ld = prepared.table.ids_by_thread[0][0]
        assert low[ld * n] == (0, 1)
        assert high[ld * n] == (1, 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_on_random_regions(self, seed):
        pytest.importorskip("numpy")
        from repro.workloads import RandomRegionSpec, random_region

        region = random_region(
            RandomRegionSpec(num_threads=4, min_len=4, max_len=10,
                             vocab_size=4, overlap=0.6, private_vocab=False),
            seed=seed)
        for model in MODELS.values():
            _assert_ready_state(PreparedRegion.build(region, model))

    def test_consumers_copy_the_root_state(self):
        from repro.core.dag import ReadyIndex
        from repro.core.greedy import greedy_schedule

        prepared = PreparedRegion.build(parse_region(SHARED),
                                        maspar_cost_model())
        root = (prepared.root_ready, prepared.root_ready_count)
        index = ReadyIndex(prepared)
        index.complete(0, 0)
        greedy_schedule(prepared.region, prepared.model, prepared)
        assert (prepared.root_ready, prepared.root_ready_count) == root
        assert index.ready != list(prepared.root_ready)


class TestPrepareOnce:
    """A computed request builds its DAGs and merge-key table once and
    verifies its schedule once (two of each before)."""

    @pytest.mark.parametrize("method", ["search", "greedy"])
    def test_one_build_one_table_one_verify(self, monkeypatch, method):
        counts = _count_calls(monkeypatch)
        api.induce(api.InductionRequest(region=SHARED, method=method))
        assert counts == {"build_dags": 1, "MergeKeyTable": 1,
                          "verify_schedule": 1}


class TestRemovedKnobs:
    """Knobs that are gone from the request.  Older clients may still send
    their wire keys; ``window`` only as 0, the whole region."""

    @pytest.mark.parametrize("knob", ["verify", "window", "jobs"])
    def test_request_has_no_verify_knob(self, knob):
        fields = {f.name for f in dataclasses.fields(api.InductionRequest)}
        assert knob not in fields
        with pytest.raises(TypeError):
            api.InductionRequest(region=SHARED, **{knob: 1})
        wire = protocol.request_to_wire(api.InductionRequest(region=SHARED))
        assert knob not in wire

    @pytest.mark.parametrize("knob,value",
                             [("verify", False), ("window", 0), ("jobs", 4)])
    def test_wire_accepts_an_older_clients_verify_key(self, knob, value):
        wire = protocol.request_to_wire(api.InductionRequest(region=SHARED))
        wire[knob] = value
        request = protocol.request_from_wire(wire)
        assert request.resolved_region() == parse_region(SHARED)
        assert not api.induce(request).degraded
