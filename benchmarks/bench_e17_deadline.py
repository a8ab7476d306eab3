"""E17 — one deadline rule: a search cut at its deadline vs the old race.

A request's ``deadline_s`` stops its search through the engines'
``should_stop`` poll (at the root, then every 256 nodes), and the search
answers with its checked incumbent, unproven and flagged
``deadline_cut``.  This replaced the portfolio race, which ran search,
greedy, annealing and serial on four threads of one interpreter and
returned the best verified schedule at the deadline.  Before the race was
deleted its costs were recorded on the 54 regions of reqbench's
``local-search`` pool whose 20,000-node search does not prove its
schedule: the lowest of 3 runs per region, at a 0.3 s deadline and a 10M
node budget under maspar (``benchmarks/BENCH_deadline.json``).

This bench sends each of those regions through :func:`repro.api.induce`
with the same deadline and budget, one after another, and asserts:

- dearer than the recorded race on at most ``max_dearer`` (2) regions,
  and a lower total;
- nothing degraded, every schedule verified, and every result either
  proven or flagged ``deadline_cut`` (a 10M budget cannot run out in
  0.3 s, so an unproven result was cut).

Each region is named by its pool index and pinned by the SHA-256 of its
text, so a change to the pool fails here instead of comparing other
regions.  The outcome depends on the host's speed, which is why it is a
bench and not a tier-1 test.  Run it from the repository root (it reads
``reqbench/streams.py``).
"""

import hashlib
import json
import pathlib
import sys

from conftest import record_table
from repro import api
from repro.core import maspar_cost_model, parse_region, verify_schedule
from repro.util import format_table

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from reqbench.streams import search_pool  # noqa: E402

SNAPSHOT = ROOT / "benchmarks" / "BENCH_deadline.json"
POOL_SLOTS = 200
MODEL = maspar_cost_model()


def load_regions(snapshot):
    """``(index, text, race cost)`` per recorded region, text checked."""
    pool = search_pool(POOL_SLOTS)
    regions = []
    for entry in snapshot["regions"]:
        text = pool[entry["index"]]
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == entry["sha256"], (
            f"search_pool region {entry['index']} changed: {digest}")
        regions.append((entry["index"], text, entry["cost"]))
    return regions


def run_experiment():
    snapshot = json.loads(SNAPSHOT.read_text())
    rows = []
    for index, text, race_cost in load_regions(snapshot):
        result = api.induce(api.InductionRequest(
            text, MODEL, budget=snapshot["budget"],
            deadline_s=snapshot["deadline_s"]))
        verify_schedule(result.schedule, parse_region(text), MODEL)
        rows.append({
            "index": index, "race": race_cost, "search": result.cost,
            "optimal": result.optimal, "deadline_cut": result.deadline_cut,
            "degraded": result.degraded, "nodes": result.total_nodes,
            "wall_s": result.wall_s,
        })
    race_total = sum(r["race"] for r in rows)
    search_total = sum(r["search"] for r in rows)
    dearer = [r for r in rows if r["search"] > r["race"]]
    cheaper = [r for r in rows if r["search"] < r["race"]]
    data = {
        "deadline_s": snapshot["deadline_s"], "budget": snapshot["budget"],
        "regions": len(rows), "race_total": race_total,
        "search_total": search_total, "dearer": len(dearer),
        "cheaper": len(cheaper), "max_dearer": snapshot["max_dearer"],
        "proven": sum(r["optimal"] for r in rows),
        "cut": sum(r["deadline_cut"] for r in rows),
        "rows": rows,
    }
    table = [
        ["regions", len(rows)],
        ["total cost, recorded race (best of 3)", f"{race_total:.0f}"],
        ["total cost, deadline-cut search", f"{search_total:.0f}"],
        ["search cheaper / equal / dearer",
         f"{len(cheaper)} / {len(rows) - len(cheaper) - len(dearer)} / "
         f"{len(dearer)}"],
        ["dearer regions (index: search vs race)",
         ", ".join(f"{r['index']}: {r['search']:.0f} vs {r['race']:.0f}"
                   for r in dearer) or "-"],
        ["proven / cut at the deadline", f"{data['proven']} / {data['cut']}"],
    ]
    text = format_table(
        ["measure", "value"], table,
        title=f"E17: one search cut at its deadline vs the recorded race "
              f"({snapshot['deadline_s']} s, budget "
              f"{snapshot['budget']:,}, maspar)")
    record_table("E17_deadline", text, data=data)
    return data


def test_e17_deadline(benchmark):
    data = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = data["rows"]
    assert not any(r["degraded"] for r in rows)
    # Unproven means cut: a 10M budget cannot run out in the deadline.
    for r in rows:
        assert r["optimal"] != r["deadline_cut"], r
    assert data["dearer"] <= data["max_dearer"], (
        f"dearer than the recorded race on {data['dearer']} regions "
        f"(at most {data['max_dearer']})")
    assert data["search_total"] < data["race_total"], (
        f"total {data['search_total']:.0f} is not below the race's "
        f"{data['race_total']:.0f}")
