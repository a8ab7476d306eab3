"""Shared utilities: seeded RNG helpers, statistics, ASCII tables."""

from repro._lazy import reexport

# On access, so that `import repro` works without numpy (the [fast]
# extra): the statistics helpers are only needed by timing and benchmarks.
__getattr__, __dir__, __all__ = reexport(__name__, {
    "repro.util.rng": ("SEED_ENV", "derive_rng", "make_rng", "resolve_seed",
                       "spawn_rngs"),
    "repro.util.stats": ("Summary", "confidence_interval", "geometric_mean",
                         "harmonic_mean", "median_filter", "summarize"),
    "repro.util.tables": ("format_table",),
})
