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
