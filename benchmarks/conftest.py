"""Shared benchmark plumbing.

Every experiment prints its paper-style table through :func:`record_table`,
which also persists it under ``benchmarks/results/`` so EXPERIMENTS.md can
cite stable numbers; the console copy is emitted at session end through the
terminal reporter (pytest captures ordinary prints).

Each experiment additionally lands a machine-readable
``benchmarks/results/<name>.json`` (the rendered table plus whatever
structured ``data`` the experiment passes — config, wall times, nodes/sec),
which is what the CI regression check diffs against committed snapshots.
"""

from __future__ import annotations

import json
import pathlib
import platform
import sys

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_TABLES: list[str] = []


def _jsonable(value):
    """Best-effort conversion to something ``json.dump`` accepts."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def record_table(name: str, text: str, data: dict | None = None) -> None:
    """Persist one experiment table (+ JSON twin) and queue terminal output.

    ``data`` is the experiment's structured payload (config, wall times,
    throughput); the JSON twin always carries the rendered table so even
    data-less experiments stay machine-diffable.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    payload = {
        "name": name,
        "python": platform.python_version(),
        "platform": sys.platform,
        "table": text,
    }
    if data is not None:
        payload["data"] = _jsonable(data)
    with (RESULTS_DIR / f"{name}.json").open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    _TABLES.append(text)


def bench_seed(default: int = 0) -> int:
    """Workload seed for one experiment: ``$REPRO_SEED`` when set, else
    ``default``.

    Benchmarks keep their historical per-experiment defaults (so committed
    result snapshots stay comparable), but a single environment variable
    reseeds every randomized workload at once — the same knob ``repro
    fuzz`` resolves, so a seed printed by either tool reproduces in both.
    """
    from repro.util.rng import resolve_seed

    return resolve_seed(default=default)


def api_induce(region, model, **kwargs):
    """Benchmark entry point for induction, routed through ``repro.api``.

    Keywords map 1:1 onto :class:`repro.api.InductionRequest`.
    """
    from repro import api

    return api.induce(api.InductionRequest(region=region, model=model,
                                           **kwargs))


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _TABLES:
        return
    terminalreporter.write_sep("=", "experiment tables")
    for text in _TABLES:
        terminalreporter.write_line(text)
        terminalreporter.write_line("")
