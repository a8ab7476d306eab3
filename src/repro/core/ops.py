"""Intermediate representation for CSI: operations, threads and regions.

The unit CSI operates on is a *region*: one straight-line operation sequence
per MIMD thread (the paper works at basic-block scope).  Each operation names
the virtual registers / memory symbols it reads and writes; dependences are
derived from those sets by :mod:`repro.core.dag`.

A tiny textual syntax is provided for tests, examples and benchmark
workloads::

    region = parse_region('''
        thread 0:
            t0 = ld   x
            t1 = mul  t0 t0
            st  y  t1
        thread 1:
            u0 = ld   x
            u1 = add  u0 #1
            st  y  u1
    ''')

Each line is ``dst = opcode src...`` or ``opcode src...`` (no result), with
``#value`` denoting an immediate operand.

The objects are frozen, so :func:`parse_region` interns them: each thread
block (a header line and the lines up to the next header) parses once
per process, and a region whose bodies the process has seen before —
the interpreter's handler sets, whose bodies come from a fixed
vocabulary — shares their :class:`ThreadCode` objects.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = ["Operation", "Region", "ThreadCode", "parse_region"]


@dataclass(frozen=True)
class Operation:
    """One MIMD operation inside a thread's sequence.

    ``thread`` and ``index`` identify the operation's home slot in the
    region; ``reads``/``writes`` are symbol tuples used for dependence
    analysis; ``imm`` is an optional immediate whose equality can be required
    for merging (hardware-dependent, see
    :attr:`repro.core.costmodel.CostModel.require_equal_imm`).
    """

    thread: int
    index: int
    opcode: str
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    imm: int | float | None = None

    def __post_init__(self) -> None:
        if self.thread < 0:
            raise ValueError(f"negative thread id {self.thread}")
        if self.index < 0:
            raise ValueError(f"negative operation index {self.index}")
        if not self.opcode:
            raise ValueError("empty opcode")

    @property
    def key(self) -> tuple[int, int]:
        """(thread, index) pair uniquely identifying this op in its region."""
        return (self.thread, self.index)

    def render(self) -> str:
        """Human-readable one-line form (inverse of the parser, roughly)."""
        parts = [self.opcode]
        parts.extend(self.reads)
        if self.imm is not None:
            parts.append(f"#{self.imm}")
        rhs = " ".join(parts)
        if self.writes:
            return f"{','.join(self.writes)} = {rhs}"
        return rhs


@dataclass(frozen=True)
class ThreadCode:
    """The straight-line operation sequence of one thread."""

    thread: int
    ops: tuple[Operation, ...]

    def __post_init__(self) -> None:
        for i, op in enumerate(self.ops):
            if op.thread != self.thread:
                raise ValueError(
                    f"operation {i} belongs to thread {op.thread}, not {self.thread}")
            if op.index != i:
                raise ValueError(f"operation at position {i} has index {op.index}")

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.ops)

    @staticmethod
    def from_specs(
        thread: int,
        specs: Iterable[tuple[str, Sequence[str], Sequence[str]] | Operation],
    ) -> "ThreadCode":
        """Build from ``(opcode, reads, writes)`` triples or Operations.

        Indices are assigned by position; Operation inputs are re-indexed.
        """
        ops: list[Operation] = []
        for i, spec in enumerate(specs):
            if isinstance(spec, Operation):
                ops.append(Operation(thread, i, spec.opcode, spec.reads, spec.writes, spec.imm))
            else:
                opcode, reads, writes = spec
                ops.append(Operation(thread, i, opcode, tuple(reads), tuple(writes)))
        return ThreadCode(thread, tuple(ops))


@dataclass(frozen=True)
class Region:
    """A multi-thread code region: the input to CSI."""

    threads: tuple[ThreadCode, ...]

    def __post_init__(self) -> None:
        for t, tc in enumerate(self.threads):
            if tc.thread != t:
                raise ValueError(f"thread at position {t} has id {tc.thread}")

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    @property
    def num_ops(self) -> int:
        return sum(len(tc) for tc in self.threads)

    def __iter__(self) -> Iterator[ThreadCode]:
        return iter(self.threads)

    def __getitem__(self, thread: int) -> ThreadCode:
        return self.threads[thread]

    def all_ops(self) -> Iterator[Operation]:
        for tc in self.threads:
            yield from tc.ops

    def opcodes(self) -> set[str]:
        return {op.opcode for op in self.all_ops()}

    @staticmethod
    def from_sequences(seqs: Iterable[Iterable[tuple[str, Sequence[str], Sequence[str]]]]) -> "Region":
        """Build a region from per-thread ``(opcode, reads, writes)`` triples."""
        threads = tuple(
            ThreadCode.from_specs(t, list(specs)) for t, specs in enumerate(seqs)
        )
        return Region(threads)

    def render(self) -> str:
        lines: list[str] = []
        for tc in self.threads:
            lines.append(f"thread {tc.thread}:")
            for op in tc.ops:
                lines.append(f"    {op.render()}")
        return "\n".join(lines)


class RegionParseError(ValueError):
    """Raised when :func:`parse_region` is given malformed text."""


def _parse_imm(token: str) -> int | float:
    body = token[1:]
    try:
        return int(body)
    except ValueError:
        try:
            value = float(body)
        except ValueError as exc:
            raise RegionParseError(f"bad immediate {token!r}") from exc
    # NaN equals nothing, itself included: a region holding one would be
    # unequal to its own re-parse and order merge keys by object id.
    if value != value:
        raise RegionParseError(f"bad immediate {token!r}")
    return value


#: Thread blocks the process-wide table holds at most.  The interpreter's
#: handler sets draw their bodies from a fixed vocabulary (23 bodies at
#: 8 positions are 184 blocks).  A full table interns nothing more and
#: evicts nothing: keeping each block of a stream that never repeats
#: makes the garbage collector trace it, and evicting one frees memory
#: long gone cold, so either would make every first-seen block dearer
#: than a plain parse.
BLOCK_TABLE_SIZE = 256
#: A block longer than this (in characters) is parsed but not interned.
BLOCK_MAX_CHARS = 1024

#: ``(thread position, block text)`` -> the block's frozen ThreadCode.
_BLOCKS: dict[tuple[int, str], ThreadCode] = {}
_BLOCKS_LOCK = threading.Lock()


def parse_region(text: str) -> Region:
    """Parse the textual region syntax documented in the module docstring.

    Thread headers must be ``thread N:`` with consecutive ``N`` starting at 0.

    The text is split at its header lines into thread blocks, and each
    block is looked up in one process-wide table keyed by its position
    and its text (header line, comments and blank lines included), never
    by the whole region.  A hit is the frozen :class:`ThreadCode` the
    block parsed to before, its operations included.  A miss parses that
    block alone (:func:`_parse_block`, one pass) and interns it while the
    table has room (:data:`BLOCK_TABLE_SIZE` entries, none longer than
    :data:`BLOCK_MAX_CHARS`), so a body the process has seen costs one
    lookup and a new one what a plain parse costs.  A block that fails
    to parse is never interned.  Errors come out in line order with
    their absolute line numbers, as from a line-by-line parse.  The
    whole parse is linear in the text, since a server runs it on any
    submit frame in its connection thread.
    """
    if not text.isascii() or "\r" in text or "\v" in text or "\f" in text \
            or "\x1c" in text or "\x1d" in text or "\x1e" in text:
        # Every line break but "\n" made "\n": the lines and their
        # numbers stay splitlines()', and a line starts after a "\n".
        text = "\n".join(text.splitlines())
    # A header is a line whose first non-blank characters are "thread".
    # Only a line's first "thread" can start one, so the scan goes on
    # from the next line: each line is looked back over at most once.
    starts = []
    at = text.find("thread")
    while at >= 0:
        line = text.rfind("\n", 0, at) + 1
        if line == at or text[line:at].isspace():
            starts.append(line)
        at = text.find("\n", at)
        if at < 0:
            break
        at = text.find("thread", at)
    head = text[:starts[0]] if starts else text
    if head and not head.isspace():
        for lineno, raw in enumerate(head.split("\n"), start=1):
            if raw.partition(";")[0].strip():
                raise RegionParseError(
                    f"line {lineno}: operation before any thread header")
    if not starts:
        raise RegionParseError("no threads in region text")
    starts.append(len(text))
    blocks = _BLOCKS
    codes = []
    # A miss's first line number, counted on from the last miss's.
    lineno, counted = 1, 0
    for t in range(len(starts) - 1):
        block = text[starts[t]:starts[t + 1]]
        key = (t, block)
        code = blocks.get(key)
        if code is None:
            lineno += text.count("\n", counted, starts[t])
            counted = starts[t]
            code = _parse_block(t, block, lineno)
            if len(block) <= BLOCK_MAX_CHARS and len(blocks) < BLOCK_TABLE_SIZE:
                with _BLOCKS_LOCK:
                    if len(blocks) < BLOCK_TABLE_SIZE:
                        blocks[key] = code
        codes.append(code)
    region = object.__new__(Region)
    region.__dict__["threads"] = tuple(codes)
    return region


def _parse_block(tid: int, block: str, lineno: int) -> ThreadCode:
    """Parse one thread block: its header line, numbered ``lineno``, and
    the operation lines up to the next header.

    One pass: each line is split once, and its operands are scanned for
    an immediate only when it holds a ``#``.  The frozen objects are
    built without their ``__post_init__``, whose checks this has already
    made (as :meth:`repro.core.schedule.Slot._adopt` builds a slot).
    """
    header, *lines = block.split("\n")
    line = header.partition(";")[0].strip()
    head = line.rstrip(":").split()
    if len(head) != 2:
        raise RegionParseError(f"line {lineno}: bad thread header {header!r}")
    try:
        got = int(head[1])
    except ValueError as exc:
        raise RegionParseError(f"line {lineno}: bad thread id {head[1]!r}") from exc
    if got != tid:
        raise RegionParseError(f"line {lineno}: expected thread {tid}, got {got}")
    ops: list[Operation] = []
    for lineno, raw in enumerate(lines, start=lineno + 1):
        line = (raw.partition(";")[0] if ";" in raw else raw).strip()
        if not line:
            continue
        lhs, eq, rhs = line.partition("=")
        writes: tuple[str, ...] = ()
        if eq:
            lhs = lhs.strip()
            if "," in lhs:
                writes = tuple([name for name in [part.strip() for part in lhs.split(",")]
                                if name])
            elif lhs:
                writes = (lhs,)
            if not writes:
                raise RegionParseError(f"line {lineno}: empty destination list")
        else:
            rhs = line
        reads = rhs.split()
        if not reads:
            raise RegionParseError(f"line {lineno}: empty operation")
        opcode = reads.pop(0)
        imm: int | float | None = None
        if "#" in rhs:
            operands, reads = reads, []
            for tok in operands:
                if tok[0] != "#":
                    reads.append(tok)
                elif imm is not None:
                    raise RegionParseError(f"line {lineno}: multiple immediates")
                else:
                    imm = _parse_imm(tok)
        op = object.__new__(Operation)
        op.__dict__.update(thread=tid, index=len(ops), opcode=opcode,
                           reads=tuple(reads), writes=writes, imm=imm)
        ops.append(op)
    code = object.__new__(ThreadCode)
    code.__dict__.update(thread=tid, ops=tuple(ops))
    return code
