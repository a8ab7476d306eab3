"""The fuzz run loop behind ``repro fuzz``.

One run is: resolve the root seed (flag > ``$REPRO_SEED`` > entropy), then
for each index generate the case deterministically, run every oracle, and —
on disagreement — shrink the case and persist it to the corpus.  The loop is
double-bounded by case count and wall-clock budget, emits one ``fuzz.case``
span per case plus ``fuzz_*`` metrics (so throughput shows up in ``repro
stats`` next to the schedulers it exercises), and finishes with an aggregate
``fuzz`` event carrying the reproduce line.

Everything observable about the run is in the returned :class:`FuzzReport`;
the CLI only formats it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from repro.fuzz.corpus import save_failure
from repro.fuzz.generators import FuzzCase, GeneratorSpec, generate_case
from repro.fuzz.oracles import OracleFailure, check_case
from repro.fuzz.shrink import shrink_case
from repro.obs import NULL_TRACER, Tracer, get_registry, span
from repro.util.rng import resolve_seed

__all__ = ["FuzzConfig", "FuzzFailure", "FuzzReport", "fuzz_run"]


@dataclass(frozen=True)
class FuzzConfig:
    """One fuzz run's knobs (mirrors the ``repro fuzz`` flags)."""

    seed: int | None = None
    cases: int = 200
    max_ops: int = 24
    max_threads: int = 4
    #: Wall-clock budget in seconds; ``None`` means run all ``cases``.
    time_budget_s: float | None = None
    program_fraction: float = 0.15
    shrink: bool = True
    shrink_attempts: int = 400
    #: Where failing cases are persisted; ``None`` disables persistence.
    corpus_dir: str | None = None
    fail_fast: bool = False
    #: Scratch directory for the disk-cache oracle; ``None`` skips that tier.
    workdir: str | None = None
    #: Fraction of region cases additionally routed through an in-process
    #: 3-node cluster and compared against the local result (the
    #: ``cluster_roundtrip`` oracle).  0 disables the cluster entirely.
    cluster_fraction: float = 0.0
    #: Enable the value-numbering differential oracle block and bias the
    #: generator toward cross-thread redundancy (the inputs vn rewrites).
    vn: bool = False

    def __post_init__(self) -> None:
        if self.cases < 1:
            raise ValueError(f"need at least one case, got {self.cases}")
        if self.time_budget_s is not None and self.time_budget_s <= 0:
            raise ValueError(f"bad time budget {self.time_budget_s}")
        if not 0.0 <= self.cluster_fraction <= 1.0:
            raise ValueError(
                f"cluster fraction must be in [0, 1], got "
                f"{self.cluster_fraction}")


@dataclass(frozen=True)
class FuzzFailure:
    """One failing case: what was generated, what disagreed, the minimum."""

    case: FuzzCase
    failures: tuple[OracleFailure, ...]
    shrunk: FuzzCase | None = None

    @property
    def minimal(self) -> FuzzCase:
        return self.shrunk if self.shrunk is not None else self.case

    def summary(self) -> str:
        oracles = sorted({f.oracle for f in self.failures})
        size = ""
        if self.shrunk is not None and self.shrunk.kind == "region":
            size = f" (shrunk {self.case.num_ops} -> {self.shrunk.num_ops} ops)"
        return (f"case {self.case.index} [{self.case.describe()}] failed "
                f"{', '.join(oracles)}{size}")


@dataclass(frozen=True)
class FuzzReport:
    """Aggregate outcome of one fuzz run."""

    seed: int
    cases_run: int = 0
    region_cases: int = 0
    program_cases: int = 0
    failures: tuple[FuzzFailure, ...] = ()
    wall_s: float = 0.0
    #: "cases", "time_budget" or "fail_fast" — why the loop stopped.
    stopped_by: str = "cases"
    corpus_paths: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def reproduce_line(self) -> str:
        return f"repro fuzz --seed {self.seed} --cases {self.cases_run}"


def fuzz_run(config: FuzzConfig | None = None,
             tracer: Tracer | None = None) -> FuzzReport:
    """Run the differential fuzz loop; never raises on oracle failure.

    Oracle disagreements are collected (shrunk, persisted) and reported via
    :class:`FuzzReport`; only misconfiguration raises.
    """
    config = config or FuzzConfig()
    tracer = tracer or NULL_TRACER
    registry = get_registry()
    seed = resolve_seed(config.seed)
    spec = GeneratorSpec(
        max_threads=config.max_threads,
        max_ops=config.max_ops,
        program_fraction=config.program_fraction,
        redundancy=0.35 if config.vn else 0.0,
    )
    workdir = Path(config.workdir) if config.workdir else None

    started = time.perf_counter()
    cases_run = region_cases = program_cases = 0
    failures: list[FuzzFailure] = []
    corpus_paths: list[str] = []
    stopped_by = "cases"
    # The cluster oracle's 3-node LocalCluster boots lazily on the first
    # case that wants it and is shared by the whole run.
    cluster = None
    cluster_every = 0 if config.cluster_fraction <= 0 \
        else max(1, round(1 / config.cluster_fraction))

    try:
        for index in range(config.cases):
            elapsed = time.perf_counter() - started
            if config.time_budget_s is not None and \
                    elapsed >= config.time_budget_s:
                stopped_by = "time_budget"
                break
            case = generate_case(seed, index, spec)
            route_through_cluster = (cluster_every and case.kind == "region"
                                     and index % cluster_every == 0)
            if route_through_cluster and cluster is None:
                from repro.cluster import LocalCluster
                cluster = LocalCluster(nodes=3, cache_capacity=32)
            case_start = time.perf_counter()
            with span("fuzz.case", tracer, index=index, case_kind=case.kind,
                      note=case.note, ops=case.num_ops):
                found = check_case(
                    case, workdir=workdir,
                    cluster=cluster if route_through_cluster else None,
                    vn=config.vn)
            registry.inc("fuzz_cases_total")
            registry.observe("fuzz_case_seconds",
                             time.perf_counter() - case_start)
            cases_run += 1
            if case.kind == "program":
                program_cases += 1
            else:
                region_cases += 1

            if found:
                registry.inc("fuzz_failures_total")
                shrunk = None
                if config.shrink:
                    shrunk = shrink_case(case, found,
                                         max_attempts=config.shrink_attempts,
                                         vn=config.vn)
                    if shrunk is case:
                        shrunk = None
                failure = FuzzFailure(case=case, failures=tuple(found),
                                      shrunk=shrunk)
                failures.append(failure)
                tracer.emit(
                    "fuzz_failure", index=index, case_kind=case.kind,
                    oracles=sorted({f.oracle for f in found}),
                    reproduce=f"repro fuzz --seed {seed} --cases {index + 1}")
                if config.corpus_dir:
                    path = save_failure(config.corpus_dir, case, found,
                                        shrunk=shrunk)
                    corpus_paths.append(str(path))
                if config.fail_fast:
                    stopped_by = "fail_fast"
                    break
    finally:
        if cluster is not None:
            cluster.shutdown()

    wall_s = time.perf_counter() - started
    report = FuzzReport(
        seed=seed, cases_run=cases_run, region_cases=region_cases,
        program_cases=program_cases, failures=tuple(failures), wall_s=wall_s,
        stopped_by=stopped_by, corpus_paths=tuple(corpus_paths))
    tracer.emit("fuzz", seed=seed, cases=cases_run,
                region_cases=region_cases, program_cases=program_cases,
                failures=len(failures), wall_s=round(wall_s, 6),
                stopped_by=stopped_by, reproduce=report.reproduce_line())
    return report
