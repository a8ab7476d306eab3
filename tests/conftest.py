"""Repo-wide test collection knobs.

The CSI core is pure Python; numpy (the ``[fast]`` extra, always present
in ``[dev]``) unlocks the interpreter / SIMD / scheduling substrates, the
fuzz harness, and the ``repro.workloads`` random-region generators most
core suites use as fixtures.  Without numpy those files cannot import, so
they are excluded from collection entirely — the hand-written-region
suites (engine parity in ``core/test_engines_numpy_free.py``, schedule/
verify/DAG units, cluster, service, observability, ISA, lang front-end,
events) still run and pass.
"""

import contextlib
import sys
from collections import Counter

import pytest

try:
    import numpy  # noqa: F401
    _HAVE_NUMPY = True
except ImportError:
    _HAVE_NUMPY = False

if not _HAVE_NUMPY:
    collect_ignore_glob = [
        # Substrates that hard-require numpy.
        "fuzz/*",
        "interp/*",
        "models/*",
        "sched/*",
        "simd/*",
        "simdc/*",
        # Language tests that execute through the interpreter.
        "lang/test_codegen_exec.py",
        "lang/test_fold.py",
        "lang/test_float_properties.py",
        "lang/test_lang_properties.py",
        # Individual files built on numpy-backed helpers.
        "api/test_facade.py",
        "service/test_workers.py",
        "util/test_rng.py",
        "util/test_stats.py",
        # Suites whose fixtures come from the numpy-backed
        # repro.workloads random-region generators.
        "core/test_cache.py",
        "core/test_engine_equivalence.py",
        "core/test_greedy.py",
        "core/test_pipeline_lower.py",
        "core/test_search.py",
        # End-to-end suites that drive the interpreter stack.
        "test_ahs.py",
        "test_cli.py",
        "test_examples.py",
        "test_integration.py",
    ]


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(*functions)`` returns a :class:`Counter` of their calls
    by name, wrapping every module that binds each function by name."""
    counts: Counter = Counter()

    def install(*functions) -> Counter:
        for original in functions:
            def counted(*args, _fn=original, **kwargs):
                counts[_fn.__name__] += 1
                return _fn(*args, **kwargs)
            for mod in list(sys.modules.values()):
                for attr, value in list(getattr(mod, "__dict__", {}).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counted)
        return counts

    return install


@pytest.fixture(scope="session")
def fresh_table():
    """``with fresh_table() as table:`` gives the parser an empty block
    table of its own (``repro.core.ops._BLOCKS``) while the block runs.

    The process-wide table admits nothing once full, and the suite
    parses far more distinct blocks than it holds.  Session-scoped, so a
    hypothesis test can take it and swap once per example.
    """
    from repro.core import ops

    @contextlib.contextmanager
    def swap():
        saved = ops._BLOCKS
        ops._BLOCKS = {}
        try:
            yield ops._BLOCKS
        finally:
            ops._BLOCKS = saved

    return swap
