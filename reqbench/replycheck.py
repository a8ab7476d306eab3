"""Independent reply checker, written from the problem statement.

A reply is a schedule: an ordered list of SIMD slots, each naming an
opcode class and, per participating thread, the index of the operation it
runs.  It is correct for its region when

- every operation of the region appears in exactly one slot;
- a slot holds at most one operation per thread;
- every operation's merge key (its opcode; both models here map each
  opcode to its own class and ignore immediates) equals its slot's class;
- every flow (write then read), anti (read then write) and output (write
  then write) dependence between two operations of a thread keeps its
  program order;
- the recomputed cost (sum of slot costs) equals the reported cost, the
  recomputed serial cost (one slot per operation) equals the reported
  serial cost, and the cost is no more than the serial cost.

Nothing here imports the program's verifier or dependence analysis; the
region text is parsed by this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from reqbench import streams

DEP_KINDS = ("flow", "anti", "output")


@dataclass(frozen=True)
class Region:
    """A parsed region: per-thread opcodes and per-thread dependence pairs."""

    opcodes: tuple[tuple[str, ...], ...]
    #: ``deps[t]`` lists ``(earlier, later, kind)`` index pairs of thread t.
    deps: tuple[tuple[tuple[int, int, str], ...], ...]
    slot_cost: dict
    serial_cost: float


def _parse_op(line: str) -> tuple[str, set[str], set[str]]:
    writes: set[str] = set()
    if "=" in line:
        lhs, line = line.split("=", 1)
        writes = {w.strip() for w in lhs.split(",") if w.strip()}
    tokens = line.split()
    reads = {tok for tok in tokens[1:] if not tok.startswith("#")}
    return tokens[0], reads, writes


def parse(spec: streams.Spec) -> Region:
    threads: list[list[tuple[str, set[str], set[str]]]] = []
    for raw in spec.text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("thread "):
            threads.append([])
        else:
            threads[-1].append(_parse_op(line))
    if spec.model == "micro":
        costs, default, mask = (streams.MICRO_COSTS, streams.MICRO_DEFAULT,
                                streams.MICRO_MASK)
    else:
        costs, default, mask = {}, streams.MASPAR_DEFAULT, streams.MASPAR_MASK
    opcodes = tuple(tuple(op[0] for op in ops) for ops in threads)
    slot_cost = {name: costs.get(name, default) + mask
                 for row in opcodes for name in row}
    deps = []
    for ops in threads:
        pairs = []
        for j, (_, reads_j, writes_j) in enumerate(ops):
            for i in range(j):
                _, reads_i, writes_i = ops[i]
                if writes_i & reads_j:
                    pairs.append((i, j, "flow"))
                if reads_i & writes_j:
                    pairs.append((i, j, "anti"))
                if writes_i & writes_j:
                    pairs.append((i, j, "output"))
        deps.append(tuple(pairs))
    serial = sum(slot_cost[name] for row in opcodes for name in row)
    return Region(opcodes, tuple(deps), slot_cost, serial)


def check(region: Region, result) -> str | None:
    """``None`` when ``result`` is a correct reply for ``region``, else why
    not.  ``result`` is any object of the program's result protocol."""
    position: list[dict[int, int]] = [{} for _ in region.opcodes]
    cost = 0.0
    for k, slot in enumerate(result.schedule.slots):
        picks = dict(slot.picks)
        if not picks or len(picks) != len(slot.picks):
            return f"slot {k} is empty or names a thread twice"
        if slot.opclass not in region.slot_cost:
            return f"slot {k} has unknown class {slot.opclass!r}"
        cost += region.slot_cost[slot.opclass]
        for thread, index in picks.items():
            if not 0 <= thread < len(region.opcodes) or \
                    not 0 <= index < len(region.opcodes[thread]):
                return f"slot {k} names missing op {thread}:{index}"
            if index in position[thread]:
                return f"op {thread}:{index} appears in two slots"
            if region.opcodes[thread][index] != slot.opclass:
                return (f"op {thread}:{index} "
                        f"({region.opcodes[thread][index]}) in a "
                        f"{slot.opclass} slot")
            position[thread][index] = k
    for thread, row in enumerate(region.opcodes):
        if len(position[thread]) != len(row):
            return f"thread {thread} has ops in no slot"
        where = position[thread]
        for i, j, kind in region.deps[thread]:
            if where[i] >= where[j]:
                return f"{kind} dependence {thread}:{i} -> {thread}:{j} broken"
    if cost != result.cost:
        return f"reported cost {result.cost} != recomputed {cost}"
    if region.serial_cost != result.serial_cost:
        return (f"reported serial cost {result.serial_cost} != recomputed "
                f"{region.serial_cost}")
    if cost > region.serial_cost:
        return f"cost {cost} exceeds serial cost {region.serial_cost}"
    return None


def dependence_counts(regions) -> dict[str, int]:
    """How many dependences of each kind the checked regions hold."""
    counts = dict.fromkeys(DEP_KINDS, 0)
    for region in regions:
        for pairs in region.deps:
            for _, _, kind in pairs:
                counts[kind] += 1
    return counts
