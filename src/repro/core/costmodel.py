"""SIMD cost model and mergeability rules.

The cost model answers the two questions CSI's scheduler needs:

1. *Which operations may share a slot?*  Two operations from different
   threads are mergeable iff they map to the same *opcode class* — the same
   interpreter handler / SIMD code body.  Per-PE operands (register contents,
   memory addresses via indirect addressing) may differ freely; on hardware
   without per-PE register indexing (the MasPar MP-1 restriction, supplied
   text §3.1.3.1) immediates/register numbers must also agree, which is the
   ``require_equal_imm`` switch.

2. *What does a slot cost?*  A slot's cost is the class's issue cost plus a
   fixed masking overhead for setting the PE enable set.  Crucially, SIMD
   execution time is *not* proportional to the number of enabled PEs
   (supplied text §3.1.3.3: "two PEs executing a multiply takes much less
   time than two multiply operations executed sequentially"), so a slot
   shared by eight threads costs the same as a slot used by one — this is
   exactly the saving CSI hunts for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.core.ops import Operation, Region

__all__ = ["CostModel", "MergeKeyTable", "maspar_cost_model",
           "merge_key_sort_key", "uniform_cost_model"]


def merge_key_sort_key(key: tuple) -> tuple:
    """Canonical total order for merge keys, independent of ``repr``.

    Merge keys are ``(class,)`` or ``(class, imm)`` tuples with
    ``imm: int | float | None``.  Sorting them by ``repr`` — the scheduler's
    original tie-break — makes exploration order depend on float formatting
    and is fragile against dict-insertion accidents, which changes
    budget-exhausted search results between equivalent regions.  This key
    compares each component structurally instead: by type rank, then by
    numeric value (``1`` and ``1.0`` order identically) or string value.
    """
    canon = []
    for part in key:
        if part is None:
            canon.append((0, 0.0, ""))
        elif isinstance(part, (int, float)) and not isinstance(part, bool):
            canon.append((1, float(part), ""))
        else:
            canon.append((2, 0.0, str(part)))
    return (len(key), tuple(canon))


@dataclass(frozen=True)
class CostModel:
    """Opcode classification and slot timing for a SIMD target.

    Parameters
    ----------
    class_of:
        Maps opcode -> class name.  Opcodes absent from the map form their
        own singleton class (class name == opcode).
    class_cost:
        Maps class name -> issue cost in abstract cycles.  Classes absent
        from the map cost ``default_cost``.
    mask_overhead:
        Fixed cost added to every slot for computing/loading the PE enable
        mask.
    default_cost:
        Issue cost for classes not listed in ``class_cost``.
    require_equal_imm:
        If true, operations merge only when their immediates are equal
        (models SIMD targets whose broadcast instruction stream embeds the
        immediate, or which lack per-PE register indexing).
    """

    class_of: Mapping[str, str] = field(default_factory=dict)
    class_cost: Mapping[str, float] = field(default_factory=dict)
    mask_overhead: float = 1.0
    default_cost: float = 2.0
    require_equal_imm: bool = False

    def __post_init__(self) -> None:
        if self.mask_overhead < 0:
            raise ValueError(f"negative mask overhead {self.mask_overhead}")
        if self.default_cost <= 0:
            raise ValueError(f"non-positive default cost {self.default_cost}")
        for cls, cost in self.class_cost.items():
            if cost <= 0:
                raise ValueError(f"non-positive cost {cost} for class {cls!r}")
        # Freeze the mappings so the dataclass is genuinely immutable/hashable
        # by identity of contents.
        object.__setattr__(self, "class_of", MappingProxyType(dict(self.class_of)))
        object.__setattr__(self, "class_cost", MappingProxyType(dict(self.class_cost)))

    def opcode_class(self, opcode: str) -> str:
        """Class name for ``opcode`` (singleton class if unmapped)."""
        return self.class_of.get(opcode, opcode)

    def cost_of_class(self, cls: str) -> float:
        """Issue cost of one slot of class ``cls`` (mask overhead excluded)."""
        return self.class_cost.get(cls, self.default_cost)

    def op_cost(self, op: Operation) -> float:
        """Issue cost of ``op``'s class."""
        return self.cost_of_class(self.opcode_class(op.opcode))

    def slot_cost(self, cls: str) -> float:
        """Total cost of a slot of class ``cls`` including masking."""
        return self.cost_of_class(cls) + self.mask_overhead

    def mergeable(self, a: Operation, b: Operation) -> bool:
        """True iff ``a`` and ``b`` may occupy the same slot.

        Requires distinct threads (a thread executes at most one op per
        slot), equal opcode class and — under ``require_equal_imm`` — equal
        immediates.
        """
        if a.thread == b.thread:
            return False
        if self.opcode_class(a.opcode) != self.opcode_class(b.opcode):
            return False
        if self.require_equal_imm and a.imm != b.imm:
            return False
        return True

    def merge_key(self, op: Operation) -> tuple:
        """Hashable key such that ops merge iff their keys are equal.

        This is the grouping ("itemization") step of CSI: the scheduler
        never compares operations pairwise, it buckets them by this key.
        """
        if self.require_equal_imm:
            return (self.opcode_class(op.opcode), op.imm)
        return (self.opcode_class(op.opcode),)


class MergeKeyTable:
    """Per-search interning of merge keys to dense small ints.

    The schedulers bucket operations by :meth:`CostModel.merge_key` at every
    step; hashing and comparing those ``(class, imm)`` tuples is a large
    slice of per-node cost.  This table computes each op's key once per
    search and hands the hot loops plain ints instead: id order equals the
    canonical :func:`merge_key_sort_key` order, so iterating ids ascending
    *is* the schedulers' canonical key exploration order, and per-key
    lookups (slot cost, opcode class) become tuple indexing.
    """

    __slots__ = ("keys", "ids_by_thread", "opclasses", "slot_costs")

    def __init__(self, model: CostModel, region: Region) -> None:
        raw = [[model.merge_key(op) for op in tc.ops] for tc in region.threads]
        keys = sorted({key for row in raw for key in row}, key=merge_key_sort_key)
        index = {key: kid for kid, key in enumerate(keys)}
        #: Interned keys in canonical order; ``keys[kid]`` is the tuple form.
        self.keys: tuple[tuple, ...] = tuple(keys)
        #: ``ids_by_thread[t][i]`` — key id of op ``i`` of thread ``t``.
        self.ids_by_thread: tuple[tuple[int, ...], ...] = tuple(
            tuple(index[key] for key in row) for row in raw)
        #: ``opclasses[kid]`` — the key's opcode class (``key[0]``).
        self.opclasses: tuple[str, ...] = tuple(key[0] for key in keys)
        #: ``slot_costs[kid]`` — ``model.slot_cost(key[0])``, precomputed.
        self.slot_costs: tuple[float, ...] = tuple(
            model.slot_cost(key[0]) for key in keys)

    def __len__(self) -> int:
        return len(self.keys)


#: Relative issue costs loosely calibrated to the MasPar MP-1's interpreted
#: MIMD instruction set: 4-bit ALU slices make multiply/divide much more
#: expensive than add; router traffic (LdD/StD — parallel subscripting) and
#: mono broadcast (StS) dominate; control flow is cheap once decoded.
_MASPAR_CLASS_COST: dict[str, float] = {
    "push": 2.0,
    "pop": 1.0,
    "ld": 6.0,        # local memory: 16 PEs share an 8-bit memory port
    "st": 6.0,
    "lds": 6.0,       # mono load == local load on the MP-1 (supplied text §3.1.4)
    "sts": 14.0,      # pick winner + broadcast to every PE's copy
    "ldd": 22.0,      # global router round trip
    "std": 22.0,
    "add": 3.0,
    "sub": 3.0,
    "neg": 2.0,
    "shl": 3.0,
    "shr": 3.0,
    "and": 2.0,
    "or": 2.0,
    "not": 2.0,
    "eq": 3.0,
    "ne": 3.0,
    "lt": 3.0,
    "le": 3.0,
    "gt": 3.0,
    "ge": 3.0,
    "mul": 24.0,      # 32-bit multiply on 4-bit slices
    "div": 40.0,
    "mod": 42.0,
    "fadd": 30.0,
    "fmul": 36.0,
    "fdiv": 60.0,
    "jmp": 1.0,
    "jz": 2.0,
    "call": 4.0,
    "ret": 3.0,
    "wait": 4.0,
    "halt": 1.0,
}


def maspar_cost_model(mask_overhead: float = 1.0, require_equal_imm: bool = False) -> CostModel:
    """Cost model with MasPar-MP-1-flavoured relative instruction costs."""
    return CostModel(
        class_of={},
        class_cost=dict(_MASPAR_CLASS_COST),
        mask_overhead=mask_overhead,
        default_cost=3.0,
        require_equal_imm=require_equal_imm,
    )


def uniform_cost_model(cost: float = 1.0, mask_overhead: float = 0.0) -> CostModel:
    """Every opcode is its own class with identical cost.

    Useful in tests and in the pure slot-count formulation of the problem
    (minimum common supersequence flavour).
    """
    return CostModel(class_of={}, class_cost={}, mask_overhead=mask_overhead,
                     default_cost=cost)
