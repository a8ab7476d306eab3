"""Deterministic random-number helpers.

Every stochastic component in the library takes either an integer seed or a
:class:`numpy.random.Generator`.  These helpers normalize the two and derive
independent child streams, so experiments are reproducible bit-for-bit from a
single top-level seed.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np

__all__ = ["SEED_ENV", "derive_rng", "make_rng", "resolve_seed", "spawn_rngs"]


def _numpy():
    """numpy, imported on first use: it is the [fast] extra, and only the
    generator helpers need it, so :func:`resolve_seed` never loads it."""
    try:
        import numpy
    except ImportError as exc:
        raise RuntimeError(
            "numpy is required for random-number generation; "
            "install it with the [fast] extra (pip install repro[fast])"
        ) from exc
    return numpy


#: Environment variable consulted by :func:`resolve_seed` — the single knob
#: that reseeds the fuzzer and the randomized benchmark workloads alike.
SEED_ENV = "REPRO_SEED"


def make_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be ``None`` (fresh OS entropy), an ``int``, or an existing
    generator (returned unchanged, so callers can thread one stream through a
    pipeline without reseeding).
    """
    np = _numpy()
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def resolve_seed(seed: int | None = None, default: int | None = None) -> int:
    """The root seed a run should actually use, resolved in priority order.

    An explicit ``seed`` wins; otherwise ``$REPRO_SEED`` (so one environment
    variable reseeds fuzz runs and benchmark workloads without touching any
    flags); otherwise ``default``; otherwise fresh OS entropy.  Always
    returns the concrete int used, so callers can print it and any reported
    failure is reproducible from that line.
    """
    if seed is not None:
        return int(seed)
    env = os.environ.get(SEED_ENV)
    if env is not None and env != "":
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"{SEED_ENV}={env!r} is not an integer") from exc
    if default is not None:
        return int(default)
    return int.from_bytes(os.urandom(8), "little") >> 1


def derive_rng(seed: int, *keys: int) -> np.random.Generator:
    """Independent child stream for ``(seed, *keys)``.

    Unlike :func:`spawn_rngs`, the child is addressable: stream ``(seed, i)``
    is identical no matter how many other streams were derived or how many
    draws they consumed, which is what lets a fuzz failure report say
    "reproduce case ``i`` from root seed ``s``".
    """
    return _numpy().random.default_rng([int(seed), *(int(k) for k in keys)])


def spawn_rngs(seed: int | np.random.Generator | None, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent generators from ``seed``.

    Uses the SeedSequence spawning protocol, so child streams never overlap
    regardless of how many draws each consumes.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    root = make_rng(seed)
    default_rng = _numpy().random.default_rng
    return [default_rng(s) for s in root.bit_generator.seed_seq.spawn(n)]
