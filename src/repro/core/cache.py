"""Content-addressed result cache for induction requests.

Repeated regions are the common case for interpreter workloads — the same
handler set is induced every time a program is loaded, and traces of SPMD
code repeat the same instruction streams.  Re-running the exponential
branch-and-bound for each of them is pure waste: a result is a pure
function of (region ops, cost-model parameters, search configuration), so
the triple is hashed into a stable *fingerprint* and finished results are
memoized under it.

An entry is the finished result itself: the JSON payload
:func:`repro.core.result.result_to_payload` gives for it, minus the fields
that belong to one request (its ``obs`` freight, ``retries``, ``wall_s``
and ``cache_hit``; :func:`encode_entry`).  It carries the schedule, the
search stats and the serial/lockstep baselines, and whatever else the
result reported, so a hit rebuilds nothing.  One rule (:func:`storable`)
decides what may be stored, in every tier: nothing degraded, and no
search cut by its deadline — ``deadline_s`` is not in the fingerprint,
so a short deadline's best-so-far must not answer a longer one.  A
search that ran out of node budget is stored: the budget is in the
fingerprint.

Two tiers hold the entry as the same JSON text, encoded once
(:func:`encode_entry`):

- an in-memory LRU (:class:`collections.OrderedDict`) bounded by
  ``capacity`` entries, always on;
- an optional on-disk tier (``cache_dir``) that persists entries across
  processes and runs — one ``<fingerprint>.result.json`` file per entry,
  written atomically (temp file + ``os.replace``) so parallel writers can
  never leave a torn file.

Daemons take the text itself (:meth:`ScheduleCache.get_text`) and splice
it into their reply frames (:class:`repro.service.protocol.ResultText`),
so a served hit neither decodes nor re-encodes its entry.  A local caller
takes :meth:`ScheduleCache.get`, a private copy parsed from the text, so
no caller can alter what is stored.  Memory entries are trusted; an entry
from outside this process — a disk file here, a peer's reply in
:mod:`repro.cluster.remotecache` — is checked once with
:func:`check_entry`, and one that fails is a counted miss, never an error.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from time import perf_counter
from typing import Any, Mapping

from repro.core.costmodel import CostModel
from repro.core.ops import Region
from repro.core.result import result_from_payload
from repro.core.search import SearchConfig
from repro.obs import Counters
from repro.obs.metrics import get_registry

__all__ = [
    "RULE_KEYS",
    "ScheduleCache",
    "check_entry",
    "encode_entry",
    "region_fingerprint",
    "storable",
]

#: Reply fields that describe one request, not its result: never stored.
_PER_REQUEST = ("obs", "retries", "wall_s", "cache_hit")

#: The entry keys the store rule (:func:`storable`) reads.
RULE_KEYS = ("degraded", "deadline_cut")

#: Bump when the fingerprint payload layout changes, so stale disk tiers
#: from older code can never alias new entries.
_FINGERPRINT_VERSION = 1


#: Built once, as ``json.dumps`` with options builds an encoder per call.
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode
#: The fingerprint's encoder.  Its payload is tuples, strings and numbers,
#: never a cycle, so it skips the circular-reference check.
_CANONICAL = json.JSONEncoder(separators=(",", ":"), sort_keys=True,
                              check_circular=False).encode


def _canon_imm(imm: int | float | None) -> list | None:
    """JSON-stable immediate encoding: ints and floats must not collide."""
    if imm is None:
        return None
    if isinstance(imm, float):
        return ["f", repr(imm)]
    return ["i", int(imm)]


def region_fingerprint(
    region: Region,
    model: CostModel,
    config: SearchConfig | None = None,
    method: str = "search",
) -> str:
    """SHA-256 hex fingerprint of everything the schedule depends on.

    Two calls agree iff they would produce the same schedule: same per-thread
    opcode/operand/immediate sequences, same cost-model parameters, same
    search configuration, same induction method.  Thread ids and op indices
    are positional, so re-parsed or re-generated copies of a region
    fingerprint identically.  The hashed text names disk entries and ring
    positions, so it must never change without :data:`_FINGERPRINT_VERSION`.
    """
    config = config or SearchConfig()
    payload = {
        "v": _FINGERPRINT_VERSION,
        "method": method,
        "region": [
            [(op.opcode, op.reads, op.writes, _canon_imm(op.imm))
             for op in tc.ops]
            for tc in region.threads
        ],
        "model": {
            "class_of": sorted(model.class_of.items()),
            "class_cost": sorted(
                (cls, repr(float(cost))) for cls, cost in model.class_cost.items()
            ),
            "mask_overhead": repr(float(model.mask_overhead)),
            "default_cost": repr(float(model.default_cost)),
            "require_equal_imm": model.require_equal_imm,
        },
        # The config's fields by name: dataclasses.asdict without its
        # deep copy of a flat record of scalars.
        "config": vars(config),
    }
    return hashlib.sha256(_CANONICAL(payload).encode("utf-8")).hexdigest()


def encode_entry(payload: Mapping[str, Any]) -> tuple[str, dict]:
    """``payload`` split once: its entry's JSON text, its own fields.

    The text is both what a cache stores and what a reply carries; the
    fields are the per-request ones (:data:`_PER_REQUEST`) it leaves out.
    """
    entry: dict = {}
    own: dict = {}
    for key, value in payload.items():
        (own if key in _PER_REQUEST else entry)[key] = value
    return _ENCODE(entry), own


def storable(payload: Mapping[str, Any]) -> bool:
    """The one store rule: not degraded, and not cut by a deadline.

    It reads only :data:`RULE_KEYS`; an entry written before
    ``deadline_cut`` existed has none and is storable.
    """
    return not payload.get("degraded") and not payload.get("deadline_cut")


def check_entry(entry: Any) -> dict:
    """``entry`` itself when it is a storable result payload.

    The trust-boundary check for entries read from disk or from a peer:
    anything else raises :class:`ValueError`.
    """
    try:
        result_from_payload(entry)
    except ValueError as exc:
        raise ValueError(f"entry is not a result payload: {exc}") from exc
    if not storable(entry):
        raise ValueError("entry is degraded or cut by a deadline")
    return entry


class ScheduleCache:
    """Two-tier (memory LRU + optional disk) cache of finished results.

    Counter names: ``hits``, ``memory_hits``, ``disk_hits``, ``misses``,
    ``stores``, ``evictions``, ``disk_errors``.

    Thread-safe: the induction server's connection threads share one
    cache, so the memory tier is guarded by an :class:`RLock`
    (the disk tier was already safe — atomic replace on write, torn reads
    degrade to a miss).
    """

    def __init__(self, capacity: int = 1024,
                 cache_dir: str | os.PathLike | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        #: fingerprint -> the entry's JSON text.
        self._memory: OrderedDict[str, str] = OrderedDict()
        self._lock = threading.RLock()
        self.counters = Counters()

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    @property
    def hit_rate(self) -> float:
        looked_up = self.counters["hits"] + self.counters["misses"]
        return self.counters["hits"] / looked_up if looked_up else 0.0

    def get(self, fingerprint: str) -> dict | None:
        """A private copy of the entry under ``fingerprint``, or None."""
        text = self.get_text(fingerprint)
        return None if text is None else json.loads(text)

    def get_text(self, fingerprint: str) -> str | None:
        """The entry under ``fingerprint`` as its JSON text, or None.

        What a daemon splices into its reply: memory text as stored, a
        disk entry once :func:`check_entry` passed it.
        """
        start = perf_counter()
        with self._lock:
            text = self._memory.get(fingerprint)
            if text is not None:
                self._memory.move_to_end(fingerprint)
        if text is not None:
            self.counters.bump("hits")
            self.counters.bump("memory_hits")
            get_registry().observe("cache_hit_seconds", perf_counter() - start)
            return text
        text = self._disk_get(fingerprint)
        if text is not None:
            with self._lock:
                self._remember(fingerprint, text)
            self.counters.bump("hits")
            self.counters.bump("disk_hits")
            get_registry().observe("cache_hit_seconds", perf_counter() - start)
            return text
        self.counters.bump("misses")
        get_registry().observe("cache_miss_seconds", perf_counter() - start)
        return None

    def put(self, fingerprint: str, payload: Mapping[str, Any],
            text: str | None = None) -> str | None:
        """Store ``payload``'s entry in both tiers if it is :func:`storable`.

        Returns the entry's text as stored, or None when the store rule
        refused it.  ``text`` is the entry's text when the caller already
        encoded it (:func:`encode_entry`), so nothing encodes it twice;
        ``payload`` may then hold just its :data:`RULE_KEYS` (a
        ``ResultText.flags``).
        """
        if not storable(payload):
            return None
        if text is None:
            text, _own = encode_entry(payload)
        with self._lock:
            self._remember(fingerprint, text)
        self.counters.bump("stores")
        if self.cache_dir is not None:
            self._disk_put(fingerprint, text)
        return text

    # -- memory tier ------------------------------------------------------

    def _remember(self, fingerprint: str, text: str) -> None:
        # Caller holds the lock.
        self._memory[fingerprint] = text
        self._memory.move_to_end(fingerprint)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self.counters.bump("evictions")

    # -- disk tier --------------------------------------------------------

    def _disk_path(self, fingerprint: str) -> Path:
        return self.cache_dir / f"{fingerprint}.result.json"

    def _disk_get(self, fingerprint: str) -> str | None:
        if self.cache_dir is None:
            return None
        try:
            text = self._disk_path(fingerprint).read_text(encoding="utf-8")
            check_entry(json.loads(text))
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            # Torn, corrupt or foreign entry: a miss, never an error.
            self.counters.bump("disk_errors")
            return None
        # Only JSON whitespace can surround text that parsed: what memory
        # keeps is the object itself, ready to splice.
        return text.strip(" \t\n\r")

    def _disk_put(self, fingerprint: str, text: str) -> None:
        try:
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, self._disk_path(fingerprint))
        except OSError:
            self.counters.bump("disk_errors")
