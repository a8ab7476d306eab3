"""Delta debugging for failing fuzz cases.

A fuzz failure on a 4-thread 24-op region is almost useless to a human; the
same failure on 2 threads × 3 ops is a unit test.  :func:`shrink_case`
greedily applies reduction passes — drop whole threads, drop contiguous op
chunks at halving granularity (classic ddmin), then simplify the surviving
ops (clear reads, clear immediates) — and keeps any candidate that still
fails the *same oracle* as the original case.  Requiring the same oracle
name matters: a reduced region that fails differently (or a reduced program
that merely stops compiling) is a different bug, and keeping it would shrink
toward the wrong minimum.

Program cases shrink by dropping source lines.

Everything is bounded by ``max_attempts`` oracle evaluations, so shrinking a
pathological case degrades to "returns the best reduction so far" rather
than hanging the fuzz run.
"""

from __future__ import annotations

import dataclasses

from repro.core.ops import Operation, Region, ThreadCode
from repro.fuzz.generators import FuzzCase
from repro.fuzz.oracles import OracleFailure, check_case

__all__ = ["shrink_case"]


def _rebuild_region(threads: list[list[Operation]]) -> Region:
    """Region from per-thread op lists, renumbering threads and indices."""
    return Region(tuple(
        ThreadCode(t, tuple(
            dataclasses.replace(op, thread=t, index=k)
            for k, op in enumerate(ops)))
        for t, ops in enumerate(threads)))


def _region_ops(region: Region) -> list[list[Operation]]:
    return [list(tc.ops) for tc in region.threads]


class _Budget:
    """Mutable attempt counter shared across reduction passes."""

    def __init__(self, attempts: int) -> None:
        self.left = attempts

    def spend(self) -> bool:
        if self.left <= 0:
            return False
        self.left -= 1
        return True


def _still_fails(case: FuzzCase, oracles: frozenset[str], vn: bool) -> bool:
    # ``vn`` rides through every re-check so the vn oracle set stays fixed
    # while ddmin runs: a candidate only counts as "still failing" if it
    # fails the same oracle under the same oracle battery.
    return any(f.oracle in oracles for f in check_case(case, vn=vn))


def _shrink_region(case: FuzzCase, oracles: frozenset[str],
                   budget: _Budget, vn: bool) -> FuzzCase:
    best = case

    def try_candidate(threads: list[list[Operation]]) -> FuzzCase | None:
        if not any(threads) or not budget.spend():
            return None
        candidate = dataclasses.replace(
            best, region=_rebuild_region([ops for ops in threads if ops]))
        return candidate if _still_fails(candidate, oracles, vn) else None

    progress = True
    while progress and budget.left > 0:
        progress = False

        # Pass 1: drop whole threads.
        threads = _region_ops(best.region)
        t = 0
        while len(threads) > 1 and t < len(threads):
            candidate = try_candidate(threads[:t] + threads[t + 1:])
            if candidate is not None:
                best = candidate
                threads = _region_ops(best.region)
                progress = True
            else:
                t += 1

        # Pass 2: ddmin over each thread's ops at halving chunk sizes.
        # Emptying a thread drops it (and renumbers the rest), so bounds are
        # re-checked against the current best region every step.
        for t in range(best.region.num_threads):
            if t >= best.region.num_threads:
                break
            chunk = max(1, len(_region_ops(best.region)[t]) // 2)
            while chunk >= 1 and t < best.region.num_threads:
                ops = _region_ops(best.region)[t]
                start = 0
                while start < len(ops):
                    threads = _region_ops(best.region)
                    trimmed = ops[:start] + ops[start + chunk:]
                    threads[t] = trimmed
                    candidate = try_candidate(threads)
                    if candidate is not None:
                        best = candidate
                        progress = True
                        if not trimmed or t >= best.region.num_threads:
                            ops = []
                            break
                        ops = _region_ops(best.region)[t]
                    else:
                        start += chunk
                chunk //= 2

        # Pass 3: simplify surviving ops (drop reads, then immediates).
        for simplify in (lambda op: dataclasses.replace(op, reads=()),
                         lambda op: dataclasses.replace(op, imm=None)):
            threads = _region_ops(best.region)
            for t, ops in enumerate(threads):
                for k, op in enumerate(ops):
                    simplified = simplify(op)
                    if simplified == op:
                        continue
                    candidate_threads = _region_ops(best.region)
                    candidate_threads[t][k] = simplified
                    candidate = try_candidate(candidate_threads)
                    if candidate is not None:
                        best = candidate
                        progress = True

    return best


def _shrink_program(case: FuzzCase, oracles: frozenset[str],
                    budget: _Budget, vn: bool) -> FuzzCase:
    best = case
    progress = True
    while progress and budget.left > 0:
        progress = False
        lines = best.source.splitlines()
        chunk = max(1, len(lines) // 2)
        while chunk >= 1 and budget.left > 0:
            start = 0
            while start < len(lines):
                if not budget.spend():
                    return best
                trimmed = lines[:start] + lines[start + chunk:]
                candidate = dataclasses.replace(best, source="\n".join(trimmed) + "\n")
                if trimmed and _still_fails(candidate, oracles, vn):
                    best = candidate
                    lines = trimmed
                    progress = True
                else:
                    start += chunk
            chunk //= 2
    return best


def shrink_case(case: FuzzCase, failing: list[OracleFailure],
                max_attempts: int = 400, vn: bool = False) -> FuzzCase:
    """Reduce ``case`` while it keeps failing one of ``failing``'s oracles.

    Returns the smallest case found (possibly ``case`` itself), with
    ``shrunk_from_ops`` recording the original size so reports can show
    the reduction.  ``vn`` must match the flag the failure was found under
    — it pins the oracle battery (the vn differential block included) for
    every candidate re-check, so a ``vn_*`` failure shrinks toward the
    smallest region that still breaks the value-numbering pass.
    """
    if not failing:
        return case
    oracles = frozenset(f.oracle for f in failing)
    budget = _Budget(max_attempts)
    if case.kind == "program":
        shrunk = _shrink_program(case, oracles, budget, vn)
    else:
        shrunk = _shrink_region(case, oracles, budget, vn)
    if shrunk is case:
        return case
    return dataclasses.replace(shrunk, shrunk_from_ops=case.num_ops or None,
                               note=f"{case.note}+shrunk")
