"""Differential oracles: every way a generated case can prove a bug.

A *region* case is pushed through the production search engine and the
reference oracle, plus a battery of independent checks, each of which
holds for **any** correct implementation:

- **engine parity** — the production ``bitmask`` engine and the ``legacy``
  oracle must return the identical slot sequence, cost, and every pruning
  counter (the repo's core contract, see :mod:`repro.core.search`);
- **validity** — every schedule passes :func:`repro.core.verify.verify_schedule`,
  the from-first-principles checker;
- **cost recomputation** — ``stats.best_cost`` equals the schedule's cost
  recomputed slot-by-slot from the model;
- **bounds** — search ≤ greedy (when seeded or proven optimal) and every
  schedule ≤ the serialized-MIMD baseline; merging can only remove slots,
  so a violation means a cost or search bug, not a modeling choice;
- **round-trips** — region text render/parse, fingerprint determinism,
  cache put/get (memory and, given a ``workdir``, the disk tier), and the
  result wire payload must all reproduce their input exactly;
- **submit memo** — a daemon's :class:`~repro.service.protocol.SubmitMemo`
  gives the case's submit, first seen and repeated, the fingerprint its
  parsed request gives and the case's own ``region_fingerprint``.

A *program* case is compiled with folding on and off and interpreted both
ways; all global memory must match (:mod:`repro.lang.fold` may only change
the instruction stream, never the answer).

Failures come back as :class:`OracleFailure` records — the oracle name is
stable so the shrinker can insist a reduced case still fails the *same*
check.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.api import InductionRequest
from repro.core.cache import ScheduleCache, encode_entry, region_fingerprint
from repro.core.engines import legacy_search
from repro.core.greedy import greedy_schedule
from repro.core.ops import parse_region
from repro.core.prepared import PreparedRegion
from repro.core.result import (
    InductionResult, result_from_payload, result_to_payload)
from repro.core.schedule import schedule_to_payload
from repro.core.search import branch_and_bound
from repro.core.serial import lockstep_schedule, serial_schedule
from repro.core.canon import regions_mismatch
from repro.core.verify import ScheduleError, verify_schedule
from repro.core.vn import rewrite_region, serial_issue_cost
from repro.fuzz.generators import FuzzCase
from repro.obs import Counters
from repro.service.protocol import (
    SubmitMemo, request_from_wire, request_to_wire)
from repro.util.rng import resolve_seed

__all__ = ["OracleFailure", "check_case"]

_EPS = 1e-9

#: SearchStats fields the engines must agree on exactly (wall time
#: legitimately differs).
_PARITY_COUNTERS = (
    "nodes_expanded", "children_generated", "pruned_by_bound",
    "pruned_by_memo", "best_cost", "incumbent_updates", "optimal",
    "budget_exhausted",
)


@dataclass(frozen=True)
class OracleFailure:
    """One oracle disagreement: which check failed and the evidence."""

    oracle: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.detail}"


def _slots_payload(schedule) -> list:
    return schedule_to_payload(schedule)


def _check_engine_parity(case: FuzzCase,
                         prepared) -> tuple[list[OracleFailure], dict]:
    """Run the production engine and the legacy oracle on one shared
    prepared region; return failures plus (schedule, stats) for each,
    keyed ``bitmask`` / ``legacy``."""
    region, model, config = case.region, case.model, case.config
    runs = {
        "bitmask": branch_and_bound(region, model, config, prepared),
        "legacy": branch_and_bound(region, model, config, prepared,
                                   search_fn=legacy_search),
    }
    failures: list[OracleFailure] = []
    (b_sched, b_stats), (l_sched, l_stats) = runs["bitmask"], runs["legacy"]
    if _slots_payload(b_sched) != _slots_payload(l_sched):
        failures.append(OracleFailure(
            "engine_schedule",
            f"bitmask={_slots_payload(b_sched)} legacy={_slots_payload(l_sched)}"))
    for name in _PARITY_COUNTERS:
        bv, lv = getattr(b_stats, name), getattr(l_stats, name)
        if bv != lv:
            failures.append(OracleFailure(
                "engine_counters", f"{name}: bitmask={bv!r} legacy={lv!r}"))
    return failures, runs


def _check_region(case: FuzzCase,
                  workdir: Path | None) -> list[OracleFailure]:
    region, model, config = case.region, case.model, case.config
    prepared = PreparedRegion.build(region, model, config.respect_order)

    failures, runs = _check_engine_parity(case, prepared)
    schedule, stats = runs["bitmask"]

    # Independent validity check, for both engines' schedules.
    for engine, (sched, _) in runs.items():
        try:
            verify_schedule(sched, region, model, dags=prepared.dags,
                            respect_order=config.respect_order)
        except ScheduleError as exc:
            failures.append(OracleFailure(f"verify:{engine}", str(exc)))

    # Cost recomputation: the reported best cost is the schedule's cost.
    for engine, (sched, st) in runs.items():
        recomputed = sched.cost(model)
        if abs(recomputed - st.best_cost) > _EPS:
            failures.append(OracleFailure(
                f"cost_recompute:{engine}",
                f"stats.best_cost={st.best_cost!r} recomputed={recomputed!r}"))

    # Upper bounds.  Slot cost includes masking for every slot, so merging
    # strictly removes cost: any leaf ≤ serial, and greedy ≤ serial too.
    greedy = greedy_schedule(region, model, prepared)
    serial = serial_schedule(region, model, prepared)
    greedy_cost = greedy.cost(model)
    serial_cost = serial.cost(model)
    if greedy_cost > serial_cost + _EPS:
        failures.append(OracleFailure(
            "bound_greedy_serial", f"greedy={greedy_cost!r} > serial={serial_cost!r}"))
    if stats.best_cost > serial_cost + _EPS:
        failures.append(OracleFailure(
            "bound_search_serial",
            f"search={stats.best_cost!r} > serial={serial_cost!r}"))
    if (config.seed_with_greedy or stats.optimal) and \
            stats.best_cost > greedy_cost + _EPS:
        failures.append(OracleFailure(
            "bound_search_greedy",
            f"search={stats.best_cost!r} > greedy={greedy_cost!r} "
            f"(seeded={config.seed_with_greedy}, optimal={stats.optimal})"))

    # Region text round-trip + fingerprint determinism.
    fingerprint = region_fingerprint(region, model, config)
    try:
        reparsed = parse_region(region.render())
    except Exception as exc:
        failures.append(OracleFailure("region_roundtrip", f"parse failed: {exc}"))
    else:
        if reparsed != region:
            failures.append(OracleFailure(
                "region_roundtrip", "parse(render()) != region"))
        elif region_fingerprint(reparsed, model, config) != fingerprint:
            failures.append(OracleFailure(
                "fingerprint", "re-parsed region fingerprints differently"))

    # A served submit: the memo's fingerprint on first sight and on a
    # repeat is the parsed request's, which is the case's own.
    wire = request_to_wire(InductionRequest(region, model, config=config))
    memo = SubmitMemo(Counters())
    seen = [memo.fingerprint(wire), memo.fingerprint(wire),
            request_from_wire(wire).fingerprint()]
    if seen != [fingerprint] * 3:
        failures.append(OracleFailure(
            "submit_memo", f"first, repeat, parsed = {seen}, "
                           f"region_fingerprint = {fingerprint}"))

    # The result as the driver reports (and caches) it.
    lockstep_cost = lockstep_schedule(region, model, prepared).cost(model)
    result = InductionResult(
        method="search", schedule=schedule, cost=stats.best_cost,
        serial_cost=serial_cost, lockstep_cost=lockstep_cost,
        stats=stats, wall_s=stats.wall_s)
    payload = result_to_payload(result)

    # Cache round-trip: memory tier always, disk tier when given a workdir.
    # A hit is the stored entry: the payload minus its per-request fields.
    entry = json.loads(encode_entry(payload)[0])
    cache_dir = (workdir / "cache") if workdir is not None else None
    cache = ScheduleCache(capacity=4, cache_dir=cache_dir)
    cache.put(fingerprint, payload)
    hit = cache.get(fingerprint)
    if hit is None:
        failures.append(OracleFailure("cache_roundtrip", "put then get missed"))
    elif hit != entry:
        diff = sorted(k for k in set(hit) | set(entry)
                      if hit.get(k) != entry.get(k))
        failures.append(OracleFailure(
            "cache_roundtrip", f"cached entry differs from stored: {diff}"))
    if cache_dir is not None:
        disk_hit = ScheduleCache(capacity=4, cache_dir=cache_dir).get(fingerprint)
        if disk_hit != entry:
            failures.append(OracleFailure(
                "cache_disk_roundtrip", "disk tier lost or changed the entry"))

    # Result wire round-trip: payload → JSON text → payload must be a
    # fixed point.
    rebuilt = result_from_payload(json.loads(json.dumps(payload, sort_keys=True)))
    payload2 = result_to_payload(rebuilt)
    if payload != payload2:
        diff = {k for k in set(payload) | set(payload2)
                if payload.get(k) != payload2.get(k)}
        failures.append(OracleFailure(
            "wire_roundtrip", f"payload changed through the wire: {sorted(diff)}"))

    return failures


def _check_vn(case: FuzzCase) -> list[OracleFailure]:
    """The vn-on/vn-off differential: rewriting must be invisible but free.

    - ``vn_equivalence`` — the rewritten region computes identical values
      op-for-op under the canonical probe assignments *plus* extra
      ``$REPRO_SEED``-derived assignments (semantics preserved);
    - ``vn_idempotent`` — rewriting a rewritten region is a no-op;
    - ``vn_serial_bound`` — per-op slot costs never rise (the pass's
      hard never-worse guarantee, which holds unconditionally);
    - ``vn_engine_*`` / ``vn_verify:*`` — bitmask and legacy stay
      bit-identical on the rewritten region and every schedule of it verifies;
    - ``vn_cost`` — end-to-end search cost with vn ≤ without, asserted
      only when *both* searches prove optimality under a common
      comparison config (budget-exhausted incumbents can legitimately
      order either way).
    """
    failures: list[OracleFailure] = []
    region, model = case.region, case.model
    rewritten, rewrites = rewrite_region(region, model)

    detail = regions_mismatch(region, rewritten, seed=resolve_seed(default=0))
    if detail is not None:
        # Semantics broke; downstream vn comparisons would only add noise.
        return [OracleFailure("vn_equivalence", detail)]

    again, _ = rewrite_region(rewritten, model)
    if again.render() != rewritten.render():
        failures.append(OracleFailure(
            "vn_idempotent", "vn(vn(region)) != vn(region)"))

    serial_off = serial_issue_cost(region, model)
    serial_vn = serial_issue_cost(rewritten, model)
    if serial_vn > serial_off + _EPS:
        failures.append(OracleFailure(
            "vn_serial_bound",
            f"serial issue cost rose {serial_off!r} -> {serial_vn!r}"))

    vncase = dataclasses.replace(case, region=rewritten)
    prepared = PreparedRegion.build(rewritten, model,
                                    case.config.respect_order)
    parity, runs = _check_engine_parity(vncase, prepared)
    failures.extend(OracleFailure(f"vn_{f.oracle}", f.detail) for f in parity)
    for engine, (sched, _st) in runs.items():
        try:
            verify_schedule(sched, rewritten, model, dags=prepared.dags,
                            respect_order=case.config.respect_order)
        except ScheduleError as exc:
            failures.append(OracleFailure(f"vn_verify:{engine}", str(exc)))

    if rewrites:
        comparison = dataclasses.replace(
            case.config, node_budget=50_000, seed_with_greedy=True)
        _s_off, st_off = branch_and_bound(region, model, comparison)
        _s_vn, st_vn = branch_and_bound(rewritten, model, comparison)
        if st_off.optimal and st_vn.optimal and \
                st_vn.best_cost > st_off.best_cost + _EPS:
            failures.append(OracleFailure(
                "vn_cost",
                f"optimal cost rose under vn: off={st_off.best_cost!r} "
                f"vn={st_vn.best_cost!r} ({rewrites} rewrites)"))
    return failures


def _check_cluster(case: FuzzCase, cluster) -> list[OracleFailure]:
    """Cluster round-trip: route → induce must equal a local single run.

    The whole routed path — fingerprint routing, forwarding, the node's
    dedup/worker/cache, a non-owner's read of the owner — must be invisible
    to the caller: same slots, same cost, never degraded.  ``cluster`` is a
    live :class:`repro.cluster.LocalCluster` owned by the run loop.
    """
    from repro.api import InductionRequest

    failures: list[OracleFailure] = []
    schedule, stats = branch_and_bound(case.region, case.model, case.config)
    request = InductionRequest(region=case.region, model=case.model,
                               config=case.config)
    try:
        result = cluster.client().submit(request)
    except Exception as exc:  # noqa: BLE001 - any transport blowup is a bug
        return [OracleFailure("cluster_roundtrip",
                              f"routed submit failed: {exc!r}")]
    if result.degraded:
        failures.append(OracleFailure(
            "cluster_roundtrip", "routed result came back degraded with no "
            "deadline set"))
    if _slots_payload(result.schedule) != _slots_payload(schedule):
        failures.append(OracleFailure(
            "cluster_roundtrip",
            f"routed={_slots_payload(result.schedule)} "
            f"local={_slots_payload(schedule)} "
            f"(node={result.extras.get('routed_node')})"))
    elif abs(result.cost - stats.best_cost) > _EPS:
        failures.append(OracleFailure(
            "cluster_roundtrip",
            f"routed cost={result.cost!r} local={stats.best_cost!r}"))
    return failures


def _check_program(case: FuzzCase) -> list[OracleFailure]:
    """Folding on vs off must agree on every global after execution."""
    from repro.interp import MIMDInterpreter
    from repro.lang import compile_mimdc

    failures: list[OracleFailure] = []
    units = {}
    for optimize in (True, False):
        units[optimize] = compile_mimdc(case.source, optimize=optimize)

    for optimize, unit in units.items():
        for opcode, count in unit.counts.items():
            if not (count >= 0.0 and np.isfinite(count)):
                failures.append(OracleFailure(
                    "counts_sane",
                    f"optimize={optimize}: count[{opcode}]={count!r}"))

    interps = {}
    for optimize, unit in units.items():
        interp = MIMDInterpreter(unit.program, 4, layout=unit.layout)
        interp.run()
        interps[optimize] = interp

    for name, addr in units[True].globals_map.items():
        folded = interps[True].peek_global(addr)
        plain = interps[False].peek_global(units[False].globals_map[name])
        if not np.array_equal(folded, plain):
            failures.append(OracleFailure(
                "fold_differential",
                f"global {name!r}: folded={list(folded)} plain={list(plain)}"))
    return failures


def check_case(case: FuzzCase, workdir: Path | None = None,
               cluster=None, vn: bool = False) -> list[OracleFailure]:
    """Run every applicable oracle; an empty list means the case passed.

    A region case always runs through both the production engine and the
    legacy oracle, and their parity is always asserted.
    ``cluster`` (a live :class:`repro.cluster.LocalCluster`) additionally
    routes the region through the cluster front door and insists the routed
    result equals the local one.  ``vn=True`` adds the value-numbering
    differential block (:func:`_check_vn`) to region cases.  Any exception
    inside an oracle is itself a failure (generated inputs must never crash
    the stack) and is reported as ``exception:<Type>``.
    """
    try:
        if case.kind == "program":
            return _check_program(case)
        failures = _check_region(case, workdir)
        if vn:
            failures.extend(_check_vn(case))
        if cluster is not None:
            failures.extend(_check_cluster(case, cluster))
        return failures
    except Exception as exc:
        return [OracleFailure(f"exception:{type(exc).__name__}", repr(exc))]
