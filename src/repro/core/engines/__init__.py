"""Branch-and-bound engine implementations.

- ``bitmask`` — incremental int-bitmask state over an explicit stack, the
  one production engine (:mod:`repro.core.engines.bitmask`);
- ``legacy`` — the original frozenset/dict recursion, kept only as the
  reference oracle (:mod:`repro.core.engines.legacy`).

Both take the same arguments and run under the one driver,
:func:`repro.core.search.branch_and_bound`, whose ``search_fn`` keyword
picks the engine.  They must return the same schedules, costs and
:class:`~repro.core.search.SearchStats` counters, bit for bit:
``tests/core/test_engine_equivalence.py`` enforces this across the
pruning-knob matrix, and ``repro fuzz`` re-checks it on random regions.
"""

from repro._lazy import reexport

# On access: a request runs only the bitmask engine, and never loads the
# oracle.
__getattr__, __dir__, __all__ = reexport(__name__, {
    "repro.core.engines.bitmask": ("bitmask_search",),
    "repro.core.engines.legacy": ("legacy_search",),
})
