"""Start-up pays only for the request path.

A fresh process that imports :mod:`repro.api` (or :mod:`repro`) loads
neither numpy nor :mod:`http.server`, nor any subsystem a plain search
request never runs; ``python -m repro induce`` loads neither numpy nor
:mod:`http.server`; the cluster router loads no worker pool.  The
packages still offer every name in their ``__all__``, resolved on access
from the defining module.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.core
import repro.obs

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules a plain ``search`` request never runs.
NOT_ON_REQUEST_PATH = (
    "numpy",
    "http.server",
    "repro.core.factor",
    "repro.core.lower",
    "repro.core.vn",
    "repro.core.canon",
    "repro.core.engines.legacy",
)

_REGION = """\
thread 0:
    a = ld x
    b = mul a a
thread 1:
    c = ld x
    d = mul c c
"""


def _loaded_modules(code: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after it runs ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    return set(json.loads(out.stdout.strip().splitlines()[-1]))


@pytest.mark.parametrize("statement", ["import repro.api", "import repro"])
def test_import_loads_only_the_request_path(statement):
    loaded = _loaded_modules(statement)
    assert not loaded & set(NOT_ON_REQUEST_PATH), sorted(
        loaded & set(NOT_ON_REQUEST_PATH))


def test_one_shot_induce_loads_no_numpy_and_no_http_server(tmp_path):
    region = tmp_path / "region.txt"
    region.write_text(_REGION)
    loaded = _loaded_modules(
        "import runpy, sys\n"
        f"sys.argv = ['repro', 'induce', {str(region)!r}]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n")
    assert "repro.core.pipeline" in loaded
    assert not loaded & {"numpy", "http.server"}


def test_router_loads_no_worker_pool():
    # A router never starts a worker: the daemon pieces it shares with
    # the server live apart from the pool and its multiprocessing.
    loaded = _loaded_modules("import repro.cluster.router")
    assert "repro.service.daemon" in loaded
    assert not loaded & {"repro.service.workers", "repro.service.server",
                         "multiprocessing", "pickle"}, sorted(
        loaded & {"repro.service.workers", "repro.service.server",
                  "multiprocessing", "pickle"})


# -- re-exports on access ----------------------------------------------------

try:
    import numpy  # noqa: F401
    _HAVE_NUMPY = True
except ImportError:
    _HAVE_NUMPY = False

#: Re-exported values that carry no ``__module__`` of their own.
_CONSTANT_HOMES = {
    "DEFAULT_SIZE_BUCKETS": "repro.obs.metrics",
    "DEFAULT_TIME_BUCKETS": "repro.obs.metrics",
    "DEFAULT_VALUE_BUCKETS": "repro.obs.metrics",
    "GAUGE_STAT_PREFIXES": "repro.obs.metrics",
}
#: The AHS pipeline runs on the interpreter stack, which needs numpy.
_NEEDS_NUMPY = {"AhsReport", "run_ahs"}


def _exported(package):
    """``(name, value)`` for every re-export of ``package`` this install
    can resolve (``__version__`` is ``repro``'s own)."""
    for name in package.__all__:
        if name == "__version__" or (name in _NEEDS_NUMPY and not _HAVE_NUMPY):
            continue
        yield name, getattr(package, name)


@pytest.mark.parametrize("package", [repro, repro.core, repro.obs],
                         ids=lambda p: p.__name__)
def test_every_export_is_the_defining_modules_object(package):
    for name, value in _exported(package):
        home = _CONSTANT_HOMES.get(name) or value.__module__
        assert home.startswith("repro."), (name, home)
        assert vars(importlib.import_module(home))[name] is value, name
        # Resolved on access, never stored in the package.
        assert name not in vars(package), name
    assert set(package.__all__) <= set(dir(package))


def test_star_import_resolves_every_name():
    namespace: dict = {}
    exec("from repro.core import *", namespace)
    for name in repro.core.__all__:
        assert namespace[name] is getattr(repro.core, name), name


def test_unknown_names_still_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.core.no_such_name  # noqa: B018
    assert not hasattr(repro.obs, "no_such_name")


def test_monkeypatch_of_the_defining_module_shows_through(monkeypatch):
    import repro.core.greedy as greedy_mod
    import repro.obs.tracer as tracer_mod

    original = greedy_mod.greedy_schedule
    tracer = tracer_mod.NULL_TRACER
    with monkeypatch.context() as patch:
        patch.setattr(greedy_mod, "greedy_schedule", "patched")
        patch.setattr(tracer_mod, "NULL_TRACER", "patched")
        assert repro.core.greedy_schedule == "patched"
        assert repro.obs.NULL_TRACER == "patched"
    # Undone with the patch: the packages kept no copy of either value.
    assert repro.core.greedy_schedule is original
    assert repro.obs.NULL_TRACER is tracer
    assert "greedy_schedule" not in vars(repro.core)
    assert "NULL_TRACER" not in vars(repro.obs)
