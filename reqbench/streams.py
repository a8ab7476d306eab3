"""Request streams for the benchmark, generated from a seed.

The benchmark owns its inputs: the 23 interpreter handler bodies and the
micro-op cost table are kept here as data (they mirror the paper's
interpreter workload but are not imported from the program), and every
region is drawn with the standard library's RNG from the ``--seed``
argument (``local-search`` sends a fixed pool of regions in a seeded
order, see :func:`search_pool`).  The same seed therefore gives
byte-identical region text on every commit, which :func:`digest` proves
with a SHA-256.

A stream is ``slots`` requests long and is sent ``passes`` times.  Local
workloads replay the same regions on every pass (no cache is involved, so
every pass is cold).  Served workloads keep their hot slots and give every
first-time slot a fresh handler set on each pass, so a first-time slot is
a cache miss on every pass.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

# Handler bodies in region syntax.  Every handler starts with the fetch
# prologue; the stack handlers reuse ``sp``, ``tos`` and ``pc``, so flow,
# anti and output dependences all occur.
_PROLOGUE = ("ir = fetch pc", "pc = incpc pc")


def _binary(alu: str) -> tuple[str, ...]:
    return ("nos = ldnos sp", "sp = decsp sp", f"res = {alu} nos tos",
            "tos = settos res")


def _unary(alu: str) -> tuple[str, ...]:
    return (f"res = {alu} tos", "tos = settos res")


HANDLER_BODIES: dict[str, tuple[str, ...]] = {
    "Add": _binary("uadd"), "Sub": _binary("usub"), "Mul": _binary("umul"),
    "Div": _binary("udiv"), "And": _binary("uand"), "Or": _binary("uor"),
    "Eq": _binary("ucmp"), "Ne": _binary("ucmp"), "Gt": _binary("ucmp"),
    "Ge": _binary("ucmp"), "Shl": _binary("ushl"), "Shr": _binary("ushl"),
    "Neg": _unary("uneg"), "Not": _unary("unot"),
    "Push": ("val = ldimm ir", "sp = incsp sp", "spill sp tos",
             "tos = settos val"),
    "PushC": ("cidx = ldimm ir", "val = ldpool cidx", "sp = incsp sp",
              "spill sp tos", "tos = settos val"),
    "Ld": ("val = ldmem tos", "tos = settos val"),
    "St": ("nos = ldnos sp", "sp = decsp sp", "stmem nos tos",
           "val = ldnos sp", "sp = decsp sp", "tos = settos val"),
    "LdS": ("val = ldmem tos", "tos = settos val"),
    "StS": ("nos = ldnos sp", "sp = decsp sp", "val = vote nos tos",
            "stmem nos val", "tos = settos val"),
    "LdD": ("val = router tos", "tos = settos val"),
    "StD": ("nos = ldnos sp", "sp = decsp sp", "router nos tos",
            "val = ldnos sp", "sp = decsp sp", "tos = settos val"),
    "Wait": ("bar",),
}
MNEMONICS: tuple[str, ...] = tuple(HANDLER_BODIES)

#: Micro-op costs of the handler model (cycles per slot); a slot also pays
#: ``MICRO_MASK`` for its enable mask, and unlisted opcodes cost
#: ``MICRO_DEFAULT``.
MICRO_COSTS: dict[str, float] = {
    "fetch": 8.0, "incpc": 1.0, "ldnos": 6.0, "stnos": 6.0, "decsp": 1.0,
    "incsp": 1.0, "spill": 6.0, "ldimm": 3.0, "ldpool": 9.0, "ldmem": 8.0,
    "stmem": 8.0, "settos": 1.0, "uadd": 2.0, "usub": 2.0, "uand": 1.5,
    "uor": 1.5, "ucmp": 2.0, "ushl": 2.0, "umul": 18.0, "udiv": 32.0,
    "uneg": 1.5, "unot": 1.5, "router": 20.0, "vote": 12.0, "bar": 10.0,
}
MICRO_MASK = 1.0
MICRO_DEFAULT = 2.0

#: The named ``maspar`` model's costs for the opcodes random regions use:
#: no ``op*`` opcode is in its table, so every slot costs the default cost
#: plus the mask.
MASPAR_DEFAULT = 3.0
MASPAR_MASK = 1.0

SEARCH_BUDGET = 20_000
HOT_SETS = 40
HOT_PER_FIRST = 9


@dataclass(frozen=True)
class Spec:
    """Everything the checker and the client need to send and check a slot."""

    text: str
    model: str          # "micro" or "maspar"
    budget: int | None


@dataclass(frozen=True)
class Stream:
    """``passes`` rows of ``slots`` specs, plus the hot set sent untimed."""

    rows: tuple[tuple[Spec, ...], ...]
    warm: tuple[Spec, ...]


def handler_text(mnemonics: tuple[str, ...]) -> str:
    lines: list[str] = []
    for t, name in enumerate(mnemonics):
        lines.append(f"thread {t}:")
        lines.extend(f"    {op}" for op in _PROLOGUE + HANDLER_BODIES[name])
    return "\n".join(lines) + "\n"


def _handler_sets(rng: random.Random, count: int,
                  taken: set[frozenset[str]],
                  used: dict[str, int]) -> list[tuple[str, ...]]:
    """``count`` handler sets none of which ``taken`` holds yet.

    Set sizes cycle through 4..8 in a shuffled order, and each set takes
    the bodies ``used`` least so far (ties broken at random), so a stream
    holds every size and every body about equally often and seeds differ
    only in which bodies meet in a set.
    """
    sizes = [4 + i % 5 for i in range(count)]
    rng.shuffle(sizes)
    out: list[tuple[str, ...]] = []
    for size in sizes:
        spread = 1.0
        while True:
            ranked = sorted(MNEMONICS,
                            key=lambda m: used[m] + spread * rng.random())
            names = ranked[:size]
            if frozenset(names) not in taken:
                break
            spread += 1.0
        rng.shuffle(names)
        taken.add(frozenset(names))
        for name in names:
            used[name] += 1
        out.append(tuple(names))
    return out


def _random_structure(rng: random.Random, threads: int = 5, length: int = 12,
                      vocab: int = 12, overlap: float = 0.4):
    """Per thread, ``(opcode id, read positions)`` for each op: position
    ``k`` copies a template opcode with probability ``overlap``, otherwise
    draws one from the same vocabulary, and reads up to two earlier ops'
    results."""
    template = [rng.randrange(vocab) for _ in range(length)]
    return tuple(
        tuple((template[k] if rng.random() < overlap else rng.randrange(vocab),
               tuple(rng.randrange(k) for _ in range(rng.randint(0, 2)))
               if k else ())
              for k in range(length))
        for _ in range(threads))


def _render_structure(structure) -> str:
    lines: list[str] = []
    for t, ops in enumerate(structure):
        lines.append(f"thread {t}:")
        for k, (opcode, reads) in enumerate(ops):
            operands = "".join(f" T{t}v{r}" for r in reads)
            lines.append(f"    T{t}v{k} = op{opcode}{operands}")
    return "\n".join(lines) + "\n"


def search_pool(slots: int) -> list[str]:
    """The ``slots`` distinct regions every ``local-search`` stream sends.

    Whether a region exhausts the node budget, and how many nodes a solved
    one needs, depends on its structure and even on its opcode names and
    thread order (they set the search's exploration order).  Exhausted
    regions hold most of the time, so with fresh regions per seed the seed,
    not the program, would move the timings by about 10%.  The pool is
    therefore fixed and the seed sets only the send order.
    """
    rng = random.Random("local-search:pool")
    pool: list[str] = []
    while len(pool) < slots:
        text = _render_structure(_random_structure(rng))
        if text not in pool:
            pool.append(text)
    return pool


def build(workload: str, seed: int, slots: int, passes: int) -> Stream:
    rng = random.Random(f"{workload}:{seed}")
    taken: set[frozenset[str]] = set()
    used = dict.fromkeys(MNEMONICS, 0)
    if workload == "local-cold":
        row = tuple(Spec(handler_text(names), "micro", None)
                    for names in _handler_sets(rng, slots, taken, used))
        return Stream((row,) * passes, ())
    if workload == "local-search":
        pool = search_pool(slots)
        rng.shuffle(pool)
        row = tuple(Spec(text, "maspar", SEARCH_BUDGET) for text in pool)
        return Stream((row,) * passes, ())
    if workload in ("service-repeat", "routed-repeat"):
        hot = [Spec(handler_text(names), "micro", None)
               for names in _handler_sets(rng, HOT_SETS, taken, used)]
        # One first-time slot in every group of HOT_PER_FIRST + 1; the hot
        # slots use every hot set equally often.
        group = HOT_PER_FIRST + 1
        first_slots = {g + rng.randrange(group)
                       for g in range(0, slots, group)}
        hot_slots = [i for i in range(slots) if i not in first_slots]
        picks = [hot[i % len(hot)] for i in range(len(hot_slots))]
        rng.shuffle(picks)
        hot_pick = dict(zip(hot_slots, picks))
        rows = []
        for _ in range(passes):
            fresh = iter(_handler_sets(rng, len(first_slots), taken, used))
            rows.append(tuple(hot_pick[i] if i in hot_pick else
                              Spec(handler_text(next(fresh)), "micro", None)
                              for i in range(slots)))
        return Stream(tuple(rows), tuple(hot))
    raise ValueError(f"unknown workload {workload!r}")


def digest(stream: Stream) -> str:
    """SHA-256 over every region, model and budget in send order."""
    h = hashlib.sha256()
    for spec in stream.warm + tuple(s for row in stream.rows for s in row):
        h.update(f"{spec.model}|{spec.budget}|{spec.text}\x00".encode())
    return h.hexdigest()
