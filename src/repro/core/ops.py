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
"""

from __future__ import annotations

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
            return float(body)
        except ValueError as exc:
            raise RegionParseError(f"bad immediate {token!r}") from exc


def parse_region(text: str) -> Region:
    """Parse the textual region syntax documented in the module docstring.

    Thread headers must be ``thread N:`` with consecutive ``N`` starting at 0.

    One pass, since a served miss pays it in every process it reaches:
    each line is split once, and its operands are scanned for an
    immediate only when it holds a ``#``.  The frozen objects are built
    without their ``__post_init__``, whose checks this has already made
    (as :meth:`repro.core.schedule.Slot._adopt` builds a slot).
    """
    threads: list[list[Operation]] = []
    ops: list[Operation] | None = None
    tid = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition(";")[0].strip()
        if not line:
            continue
        if line.startswith("thread"):
            head = line.rstrip(":").split()
            if len(head) != 2:
                raise RegionParseError(f"line {lineno}: bad thread header {raw!r}")
            try:
                tid = int(head[1])
            except ValueError as exc:
                raise RegionParseError(f"line {lineno}: bad thread id {head[1]!r}") from exc
            if tid != len(threads):
                raise RegionParseError(
                    f"line {lineno}: expected thread {len(threads)}, got {tid}")
            ops = []
            threads.append(ops)
            continue
        if ops is None:
            raise RegionParseError(f"line {lineno}: operation before any thread header")
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
    if not threads:
        raise RegionParseError("no threads in region text")
    codes = []
    for t, thread_ops in enumerate(threads):
        code = object.__new__(ThreadCode)
        code.__dict__.update(thread=t, ops=tuple(thread_ops))
        codes.append(code)
    region = object.__new__(Region)
    region.__dict__["threads"] = tuple(codes)
    return region
