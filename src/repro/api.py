"""The unified induction facade: one request type, one entry point.

One request value describes every induction, local or served::

    from repro import api

    request = api.InductionRequest(region, model="maspar", budget=20_000)
    result = api.induce(request)            # local execution
    result = api.induce(request, client="unix:///tmp/repro.sock")  # served

Routing rules, in order:

1. ``cluster`` given — the request is routed by fingerprint across a
   cluster's nodes;
2. ``client`` given (a :class:`repro.service.ServiceClient`, an
   :class:`repro.service.Endpoint` or its URL string) — the request is
   submitted to a running ``repro serve`` daemon;
3. otherwise — in this process, through the one induction driver
   (:func:`repro.core.pipeline.run_induction`): one method on the whole
   region.

``deadline_s`` means one thing on every route: a search still running at
the deadline returns its checked incumbent, unproven and flagged
``deadline_cut``, not degraded, and no cache stores it.  A served request
degrades to the verified greedy schedule only when no worker answers:
its deadline passed before a worker was free, or its worker hung past
the deadline and was killed.

Every route returns the one result class,
:class:`repro.core.result.InductionResult`, so callers never special-case
where the schedule came from.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from numbers import Real
from typing import Any, Mapping

from repro.core.cache import ScheduleCache, region_fingerprint
from repro.core.costmodel import CostModel, maspar_cost_model, uniform_cost_model
from repro.core.ops import Region, parse_region
from repro.core.pipeline import METHODS, VN_MODES, run_induction
from repro.core.result import InductionResult
from repro.core.search import SearchConfig
from repro.obs import Tracer

__all__ = ["InductionRequest", "KNOB_METHODS", "METHODS", "induce",
           "valid_deadline"]

#: Named cost models accepted anywhere a :class:`CostModel` is expected
#: (including over the service wire).
NAMED_MODELS = ("maspar", "uniform")

#: The method/knob validity table: knob name -> methods where a
#: non-default value actually reaches the execution path.  Every other
#: combination would be silently ignored, so :class:`InductionRequest`
#: rejects it with :class:`ValueError` — the same error type for every
#: knob, built by :func:`_reject_knob`.
KNOB_METHODS: Mapping[str, tuple[str, ...]] = {
    # node_budget bounds branch-and-bound expansion; greedy/factor/
    # lockstep/serial never read it.
    "budget": ("search",),
}


def valid_deadline(deadline_s: object) -> bool:
    """The one deadline rule, for a local request and a wire submit alike:
    a real number, not a bool, finite and positive.

    NaN and infinity would pass a bare ``> 0``-style check and fail only
    once a worker turns them into a timeout.
    """
    return (isinstance(deadline_s, Real) and not isinstance(deadline_s, bool)
            and math.isfinite(deadline_s) and deadline_s > 0)


def _reject_knob(knob: str, value: Any, method: str) -> None:
    methods = KNOB_METHODS[knob]
    raise ValueError(
        f"{knob}={value!r} has no effect with method={method!r}; only "
        f"{methods} accept {knob}")


@dataclass
class InductionRequest:
    """Everything one induction needs, in one value.

    ``region`` and ``model`` accept either the parsed object or its
    textual/named form (``parse_region`` syntax, ``"maspar"``/``"uniform"``)
    so CLI, tests and the service build requests the same way.  ``budget``
    is a shorthand for ``config=SearchConfig(node_budget=...)``; an explicit
    ``config`` wins.
    ``cache`` and ``tracer`` are live handles and stay local — they never
    cross a process boundary.
    """

    region: Region | str
    model: CostModel | str = "maspar"
    method: str = "search"
    config: SearchConfig | None = None
    budget: int | None = None
    deadline_s: float | None = None
    #: Cross-thread value-numbering pre-pass (:mod:`repro.core.vn`):
    #: ``"off"`` (default — bit-identical to pre-vn behavior), ``"on"``
    #: (always canonicalize the region before scheduling) or ``"auto"``
    #: (canonicalize, keep only when it provably helps).  Consumed by
    #: every method — the rewritten region feeds every build and the
    #: baselines alike — so it has no KNOB_METHODS entry.
    vn: str = "off"
    cache: ScheduleCache | None = None
    tracer: Tracer | None = None
    #: Opaque routing metadata attached by the cluster front door (node,
    #: attempt count, router identity).  Rides the wire as an extra
    #: key that pre-cluster servers simply ignore; excluded from
    #: :meth:`fingerprint` so a rerouted retry still dedups and cache-hits
    #: against the original request.
    routing: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; expected one of "
                f"{METHODS}")
        if self.deadline_s is not None and not valid_deadline(self.deadline_s):
            raise ValueError(
                f"deadline must be a positive finite number of seconds, "
                f"got {self.deadline_s!r}")
        if self.vn not in VN_MODES:
            raise ValueError(
                f"unknown vn mode {self.vn!r}; expected one of {VN_MODES}")
        # The method/knob table: a non-default value of any knob whose
        # method can never consume it is an error, uniformly.
        if self.budget is not None and \
                self.method not in KNOB_METHODS["budget"]:
            _reject_knob("budget", self.budget, self.method)

    def resolved_region(self) -> Region:
        return parse_region(self.region) if isinstance(self.region, str) \
            else self.region

    def resolved_model(self) -> CostModel:
        if isinstance(self.model, CostModel):
            return self.model
        if self.model == "maspar":
            return maspar_cost_model()
        if self.model == "uniform":
            return uniform_cost_model()
        raise ValueError(
            f"unknown model {self.model!r}; expected one of {NAMED_MODELS} "
            "or a CostModel")

    def resolved_config(self) -> SearchConfig:
        if self.config is not None:
            return self.config
        if self.budget is not None:
            return SearchConfig(node_budget=self.budget)
        return SearchConfig()

    def fingerprint(self) -> str:
        """Content fingerprint of the *request* — the service's dedup key.

        Two requests agree iff they must produce the same schedule, so
        ``deadline_s``, ``routing`` and the local handles are excluded.
        """
        tag = self.method
        if self.vn != "off":
            # vn changes the region actually scheduled, so requests that
            # differ only in vn mode must not dedup against each other.
            tag = f"{tag}+vn:{self.vn}"
        return region_fingerprint(self.resolved_region(), self.resolved_model(),
                                  self.resolved_config(), method=tag)

    def replace(self, **changes) -> "InductionRequest":
        return dataclasses.replace(self, **changes)


def _execute_local(request: InductionRequest) -> InductionResult:
    """Run the request in this process through the one induction driver,
    its deadline included."""
    return run_induction(
        request.resolved_region(), request.resolved_model(), request.method,
        request.resolved_config(), vn=request.vn, cache=request.cache,
        tracer=request.tracer, deadline_s=request.deadline_s)


def induce(request: InductionRequest, client=None,
           cluster=None) -> InductionResult:
    """Route ``request`` to the right induction engine (see module doc).

    ``client`` may be a :class:`repro.service.ServiceClient`, an
    :class:`repro.service.Endpoint`, or an endpoint URL string
    (``unix:///path`` / ``tcp://host:port``); any of these sends the
    request to a running ``repro serve`` daemon and returns its reply.
    A bare address string raises :class:`ValueError`.

    ``cluster`` may be a :class:`repro.cluster.ClusterConfig` or a live
    :class:`repro.cluster.ClusterClient`; the request is then routed by
    fingerprint across the cluster's nodes with failover.
    """
    if not isinstance(request, InductionRequest):
        raise TypeError(
            f"repro.api.induce takes an InductionRequest, got "
            f"{type(request).__name__}")
    if client is not None and cluster is not None:
        raise ValueError("pass client= or cluster=, not both")
    if cluster is not None:
        from repro.cluster import ClusterClient, ClusterConfig
        if isinstance(cluster, ClusterConfig):
            with ClusterClient(cluster) as live:
                return live.submit(request)
        return cluster.submit(request)
    if client is not None:
        from repro.service.client import ServiceClient
        from repro.service.endpoint import Endpoint
        if not isinstance(client, ServiceClient) and \
                not hasattr(client, "submit"):
            client = Endpoint.parse(client)
        if isinstance(client, Endpoint):
            with ServiceClient(client) as live:
                return live.submit(request)
        return client.submit(request)
    return _execute_local(request)
