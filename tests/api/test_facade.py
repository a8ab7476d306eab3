"""Tests for the unified induction facade (`repro.api`)."""

import dataclasses
import importlib

import pytest

import repro
from repro import api
from repro.core import (
    InductionResult, ScheduleCache, maspar_cost_model, parse_region,
    verify_schedule,
)
from repro.core.cache import encode_entry, region_fingerprint
from repro.core.result import result_from_payload, result_to_payload
from repro.core.search import SearchConfig
from repro.workloads.threads import RandomRegionSpec, random_region

REGION = """
thread 0:
    a = ld x
    b = mul a a
    c = add b a
thread 1:
    d = ld x
    e = mul d d
    f = add e d
"""

#: A region whose search runs long (eight threads, moderate overlap): a
#: 50-node budget or a short deadline stops it unproven.
WIDE_REGION = random_region(
    RandomRegionSpec(num_threads=8, min_len=10, max_len=10, vocab_size=12,
                     overlap=0.4, private_vocab=False), seed=5)


@pytest.fixture
def region():
    return parse_region(REGION)


class TestInductionRequest:
    def test_accepts_text_and_named_model(self):
        request = api.InductionRequest(region=REGION, model="maspar")
        assert request.resolved_region().num_threads == 2
        assert request.resolved_model().mask_overhead == \
            maspar_cost_model().mask_overhead

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            api.InductionRequest(region=REGION, method="magic")

    def test_rejects_nonpositive_deadline(self):
        with pytest.raises(ValueError, match="deadline"):
            api.InductionRequest(region=REGION, deadline_s=0.0)

    @pytest.mark.parametrize("deadline", [
        float("nan"), float("inf"), True, 0, -1],
        ids=["nan", "inf", "true", "zero", "minus-1"])
    def test_rejects_what_no_timeout_can_hold(self, deadline):
        # Refused up front: the driver turns a deadline into an instant
        # and a served worker's kill into a timeout.
        assert not api.valid_deadline(deadline)
        with pytest.raises(ValueError, match="deadline"):
            api.InductionRequest(region=REGION, deadline_s=deadline)

    @pytest.mark.parametrize("deadline", [0.25, 1, 3600.0])
    def test_accepts_positive_finite_deadlines(self, deadline):
        assert api.valid_deadline(deadline)
        assert api.InductionRequest(region=REGION,
                                    deadline_s=deadline).deadline_s == deadline

    @pytest.mark.parametrize("method", ["portfolio", "anneal"])
    def test_rejects_removed_methods(self, method):
        with pytest.raises(ValueError, match="unknown method"):
            api.InductionRequest(region=REGION, method=method)

    def test_budget_shorthand(self):
        request = api.InductionRequest(region=REGION, budget=123)
        assert request.resolved_config().node_budget == 123

    def test_nan_budget_refused_before_any_search(self, monkeypatch):
        from repro.core import pipeline

        calls = []
        monkeypatch.setitem(pipeline.BUILDERS, "search",
                            lambda *args: calls.append(args))
        request = api.InductionRequest(region=REGION, budget=float("nan"))
        with pytest.raises(ValueError, match="node budget must be positive"):
            api.induce(request)
        assert calls == []

    def test_explicit_config_wins_over_budget(self):
        config = SearchConfig(node_budget=77)
        request = api.InductionRequest(region=REGION, config=config, budget=5)
        assert request.resolved_config().node_budget == 77

    def test_fingerprint_ignores_deadline(self):
        base = api.InductionRequest(region=REGION)
        assert base.replace(deadline_s=5.0).fingerprint() == base.fingerprint()


class TestFingerprintPin:
    """Request fingerprints, pinned.  They key the cache, the single
    flights and the router, so a change that re-keys them must show up as
    an edit here."""

    REGION = ("thread 0:\n    a = ld x\n    b = mul a a\n"
              "thread 1:\n    c = ld x\n    d = mul c c\n")

    @pytest.mark.parametrize("changes,fingerprint", [
        ({}, "27508d489fd6197a6d6f68673fe03a75"
             "f5583c1cbbc26ae699730cddc5319a95"),
        ({"method": "greedy"}, "272764c676023837e15f0c637fd8d672"
                               "59a9b7ae967e0ee37c7759fe578cb26d"),
        ({"vn": "on"}, "c00e477721742192ae66ece986c63526"
                       "aa2a1b4b7b9ba2d16fb77183c1fd0e42"),
        ({"budget": 5000}, "a7a7164a6b97857d0c05c379a3c4bfc1"
                           "eb5e60fbc31d0d468d8e743546a163ad"),
    ], ids=["search", "greedy", "vn-on", "budget-5000"])
    def test_fingerprint_is_pinned(self, changes, fingerprint):
        request = api.InductionRequest(region=self.REGION, **changes)
        assert request.fingerprint() == fingerprint

    def test_fingerprint_matches_library_cache_key(self):
        request = api.InductionRequest(region=self.REGION)
        assert request.fingerprint() == region_fingerprint(
            parse_region(self.REGION), request.resolved_model(),
            request.resolved_config(), method="search")


class TestRouting:
    def test_rejects_positional_region(self):
        with pytest.raises(TypeError, match="InductionRequest"):
            api.induce(REGION)

    def test_one_shot_route(self):
        result = api.induce(api.InductionRequest(region=REGION))
        assert isinstance(result, InductionResult)
        assert result.as_dict()["kind"] == "induce"
        assert result.cost > 0 and not result.degraded

    def test_deadline_route_starts_no_process(self, monkeypatch):
        import multiprocessing.process

        def refuse(self):
            raise AssertionError("a local request started a process")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            refuse)
        result = api.induce(api.InductionRequest(region=REGION,
                                                 deadline_s=30.0))
        assert isinstance(result, InductionResult)
        assert result.optimal and not result.deadline_cut

    def test_cache_handle_stays_local(self, tmp_path):
        cache = ScheduleCache(cache_dir=str(tmp_path / "cache"))
        request = api.InductionRequest(region=REGION, cache=cache)
        first = api.induce(request)
        second = api.induce(request)
        assert not first.cache_hit and second.cache_hit
        assert second.cost == first.cost


class TestResultProtocol:
    CORE_KEYS = {"kind", "method", "cost", "serial_cost", "lockstep_cost",
                 "speedup_vs_serial", "speedup_vs_lockstep", "slots", "nodes",
                 "cache_hit", "optimal", "degraded", "wall_s"}

    def test_uniform_as_dict_across_kinds(self):
        one = api.induce(api.InductionRequest(region=REGION))
        served = result_from_payload(result_to_payload(one))
        for result in (one, served):
            d = result.as_dict()
            assert self.CORE_KEYS <= set(d)
            assert d["speedup_vs_serial"] == pytest.approx(
                result.serial_cost / result.cost)

    def test_search_stats_always_a_tuple(self):
        greedy = api.induce(api.InductionRequest(region=REGION, method="greedy"))
        search = api.induce(api.InductionRequest(region=REGION))
        assert greedy.search_stats == ()
        assert len(search.search_stats) == 1

    def test_payload_round_trip(self, region):
        request = api.InductionRequest(region=REGION)
        result = api.induce(request)
        back = result_from_payload(result_to_payload(result))
        assert back == result
        verify_schedule(back.schedule, region, request.resolved_model())

    def test_one_class_from_every_name(self):
        import repro.core.result

        assert repro.InductionResult is repro.core.InductionResult \
            is repro.core.result.InductionResult

    def test_optimal_false_when_degraded(self):
        result = api.induce(api.InductionRequest(region=REGION))
        payload = result_to_payload(result)
        payload["degraded"] = True
        assert result_from_payload(payload).optimal is False

    #: Each sender of a result, with the ``optimal`` it sends.
    SENDERS = {
        "proven-search": True,
        "budget-exhausted-search": False,
        "deadline-cut-search": False,
        "degraded-greedy": False,
        "greedy": True,
        "factor": True,
        "lockstep": True,
        "serial": True,
    }

    #: The senders whose result a daemon computes as a local call does.
    COMPUTED = ("proven-search", "budget-exhausted-search", "greedy",
                "factor", "lockstep", "serial")

    @staticmethod
    def _request_of(sender):
        """The request ``sender`` (a :attr:`SENDERS` key) answers."""
        if sender == "proven-search":
            return api.InductionRequest(region=REGION)
        if sender == "budget-exhausted-search":
            return api.InductionRequest(region=WIDE_REGION, budget=50)
        if sender == "deadline-cut-search":
            return api.InductionRequest(
                region=WIDE_REGION, budget=50_000_000, deadline_s=0.05)
        if sender == "degraded-greedy":
            return api.InductionRequest(region=REGION)
        return api.InductionRequest(region=REGION, method=sender)

    @classmethod
    def _sent_by(cls, sender):
        """A result as ``sender`` (a :attr:`SENDERS` key) makes it."""
        from repro.service.workers import degraded_result

        request = cls._request_of(sender)
        if sender == "degraded-greedy":
            return degraded_result(request)
        result = api.induce(request)
        assert result.deadline_cut is (sender == "deadline-cut-search")
        return result

    @pytest.mark.parametrize("sender", SENDERS)
    def test_optimal_survives_the_wire(self, sender):
        # Every sender's ``optimal`` is what its stats derive, so the
        # rebuilt result reads the same without a separate claim.
        optimal = self.SENDERS[sender]
        result = self._sent_by(sender)
        assert result.optimal is optimal
        back = result_from_payload(result_to_payload(result))
        assert back.optimal is optimal
        assert back.deadline_cut is result.deadline_cut
        assert result_to_payload(back)["optimal"] is optimal

    @pytest.mark.parametrize("sender", [
        "proven-search", "greedy", "serial", "deadline-cut-search",
        "degraded-greedy"])
    def test_entry_text_is_the_asdict_text(self, sender):
        # result_to_payload writes each SearchStats by its fields, without
        # dataclasses.asdict's deep copy: the entry text (what every cache
        # tier stores and every reply carries) must not move, for a result
        # as computed and as a client rebuilds it.
        result = self._sent_by(sender)
        for sent in (result, result_from_payload(result_to_payload(result))):
            reference = sent.as_dict(include_schedule=True)
            reference["stats"] = [dataclasses.asdict(s)
                                  for s in sent.search_stats]
            assert encode_entry(result_to_payload(sent)) == \
                encode_entry(reference)


def _run_invariant(result):
    """``result`` without what two runs of one request may differ in: the
    cache flag, the wall times and the daemons' extras."""
    stats = result.stats
    if stats is not None:
        stats = dataclasses.replace(stats, wall_s=0.0)
    return dataclasses.replace(result, cache_hit=False, wall_s=0.0,
                               extras={}, stats=stats)


@pytest.fixture(scope="class")
def doors(tmp_path_factory):
    """A live server's client and a :class:`LocalCluster`'s client."""
    from repro.cluster import LocalCluster
    from repro.service import (
        Endpoint, InductionServer, ServerConfig, ServiceClient)

    path = tmp_path_factory.mktemp("door") / "svc.sock"
    server = InductionServer(ServerConfig(endpoint=Endpoint.unix(str(path)),
                                          workers=1))
    cluster = LocalCluster(nodes=2, cache_capacity=16)
    try:
        with ServiceClient(server.endpoint) as client, \
                cluster.cluster_client() as routed:
            yield {"client": client, "cluster": routed}
    finally:
        cluster.shutdown()
        server.shutdown()


class TestServedResultIsTheLocalResult:
    @pytest.mark.parametrize("door", ["client", "cluster"])
    @pytest.mark.parametrize("sender", TestResultProtocol.COMPUTED)
    def test_fields_equal_the_local_call(self, doors, door, sender):
        request = TestResultProtocol._request_of(sender)
        local = api.induce(request)
        served = doors[door].submit(request)
        assert type(served) is InductionResult
        assert served.extras and not local.extras
        assert _run_invariant(served) == _run_invariant(local)


class TestNoShims:
    """The positional pre-facade entry points are gone, not deprecated."""

    @pytest.mark.parametrize("name", ["induce", "windowed_induce"])
    def test_positional_entry_points_are_gone(self, name):
        assert not hasattr(repro.core, name)
        assert name not in repro.core.__all__
        assert not hasattr(repro, name)

    def test_deprecation_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.deprecation")


def _knob_value(knob):
    return {"budget": 99}[knob]


class TestKnobTable:
    """Every knob/method combination outside KNOB_METHODS is rejected —
    uniformly, with the same error type and a message naming the knob."""

    @pytest.mark.parametrize("knob,method", [
        (knob, method)
        for knob, allowed in api.KNOB_METHODS.items()
        for method in api.METHODS
        if method not in allowed
    ])
    def test_invalid_combination_rejected(self, knob, method):
        kwargs = {knob: _knob_value(knob), "method": method}
        with pytest.raises(ValueError, match=knob):
            api.InductionRequest(region=REGION, **kwargs)

    @pytest.mark.parametrize("knob,method", [
        (knob, method)
        for knob, allowed in api.KNOB_METHODS.items()
        for method in allowed
    ])
    def test_valid_combination_accepted(self, knob, method):
        kwargs = {knob: _knob_value(knob), "method": method}
        request = api.InductionRequest(region=REGION, **kwargs)
        assert request.method == method


class TestClusterRouting:
    def test_routing_field_rides_the_wire_unchanged(self):
        from repro.service import protocol
        request = api.InductionRequest(
            region=REGION, routing={"node": "unix:///tmp/n0.sock",
                                    "attempt": 1})
        wire = protocol.request_to_wire(request)
        assert wire["routing"] == {"node": "unix:///tmp/n0.sock",
                                   "attempt": 1}
        back = protocol.request_from_wire(wire)
        assert back.routing == request.routing
        # Routing metadata never perturbs the content address.
        bare = api.InductionRequest(region=REGION)
        assert request.fingerprint() == bare.fingerprint()

    def test_induce_cluster_config_routes_and_returns(self):
        from repro.cluster import LocalCluster
        with LocalCluster(nodes=2, cache_capacity=8) as clu:
            result = api.induce(api.InductionRequest(region=REGION),
                                cluster=clu.config)
            assert result.cost > 0 and not result.degraded
            assert result.extras["routed_node"] in clu.config.node_names

    def test_induce_rejects_client_and_cluster_together(self):
        with pytest.raises(ValueError, match="not both"):
            api.induce(api.InductionRequest(region=REGION),
                       client="unix:///tmp/x.sock",
                       cluster=object())
