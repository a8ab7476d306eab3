"""Cross-thread value-numbering pre-pass.

CSI's speedup is bounded by how many slots the scheduler can merge, and
merging buckets ops purely by :meth:`repro.core.costmodel.CostModel.merge_key`
— so two threads computing the same value through *differently spelled*
ops (``mul x #2`` vs ``shl x #1``, ``add a b`` vs ``add b a``, a redundant
``add t #0`` copy) land in different buckets and never share a slot.  This
pass runs before the search and rewrites every thread into a canonical op
form so structurally-identical computations become mergeable:

- **canonical operand order** — commutative ops' reads are sorted;
- **canonical op form** — ``mul x #2^k`` becomes ``shl x #k``, the
  ``add/sub/or/shl/shr x #0`` / ``mul x #1`` identity family becomes
  ``mov x``, integral float immediates fold to int;
- **constant-pool hoist** — an op whose value is semantically constant 0
  or 1 under every probe assignment (``sub x x``, ``mul x #0``, masked
  ``and`` chains) becomes the constant-pool lookup ``lds #c``, the
  factored subsequence form the paper's §3.1.4 uses for shared constants.

The pass is *never worse* by construction:

1. every rewrite keeps the op's writes and only ever shrinks its reads,
   so the rewritten dependence DAG is a subgraph of the original and any
   valid original schedule order remains valid;
2. an opcode-changing rewrite must not raise the op's slot cost
   (``slot_cost(new class) <= slot_cost(old class)``);
3. rewrites that change an op's merge key are all-or-nothing per original
   merge-key group: they apply only if every op in the group lands on one
   common new key, otherwise the key-changing members revert to the
   key-preserving strip (operand reorder + immediate canonicalization).

Together these give a slot-by-slot mapping from any schedule of the
original region to a valid schedule of the rewritten region of equal or
lower cost — so the search's optimum can only improve.

Semantic preservation rests on :mod:`repro.core.canon`: every candidate
whose shape changed beyond a commutative reorder is value-checked against
the original op in context under the K probe assignments (probabilistic
identity testing over Z_p, failure odds ~2^-244), and the differential
fuzz oracle re-checks whole rewritten regions with extra
``$REPRO_SEED``-derived assignments on top.  Commutative reorders are
applied on the authority of :data:`repro.core.canon.COMMUTATIVE` alone —
the deliberate hook the mutation-smoke test uses to prove the oracle
catches a wrong-canonical-order bug.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import canon
from repro.core.canon import (
    NUM_ASSIGNMENTS,
    PURE_OPCODES,
    ThreadEvaluator,
    canonical_imm,
    cross_thread_candidates,
)
from repro.core.costmodel import CostModel
from repro.core.ops import Operation, Region, ThreadCode
from repro.core.pipeline import VN_MODES
from repro.obs import NULL_TRACER, StopWatch, Tracer, span
from repro.obs.metrics import get_registry

__all__ = ["VN_MODES", "VNStats", "rewrite_region", "serial_issue_cost",
           "vn_prepass"]

#: Opcodes the constant-pool hoist never produces a rewrite *for* —
#: div/mod keep their (potentially trapping) spelled form untouched.
_NO_CONST_HOIST = frozenset({"div", "mod", "lds"})


def _shape(op: Operation) -> tuple:
    """Identity of an op's rewritable surface (repr distinguishes 2/2.0)."""
    return (op.opcode, op.reads, repr(op.imm))


def _with(op: Operation, opcode: str | None = None,
          reads: tuple[str, ...] | None = None,
          imm: int | float | None = None, *, drop_imm: bool = False) -> Operation:
    return Operation(
        op.thread, op.index,
        op.opcode if opcode is None else opcode,
        op.reads if reads is None else reads,
        op.writes,
        None if drop_imm else (op.imm if imm is None else imm))


def _strip(op: Operation) -> Operation:
    """Key-preserving canonicalization: reorder + immediate folding.

    Safe fallback for any op a stronger rewrite was refused on: sorting a
    commutative op's reads and folding ``2.0`` to ``2`` never change the
    merge key (``(cls, 2) == (cls, 2.0)`` under Python numeric equality).
    ``canon.COMMUTATIVE`` is consulted late so tests can monkeypatch it.
    """
    reads = op.reads
    if op.opcode in canon.COMMUTATIVE and len(reads) > 1:
        reads = tuple(sorted(reads))
    return _with(op, reads=reads, imm=canonical_imm(op.imm))


def _rule_form(op: Operation) -> Operation:
    """Fixpoint of the context-free canonical-form rules on ``op``.

    Rules only fire on pure ops that produce a result; each output is
    itself in rule normal form, which is what makes the whole pass
    idempotent.  Cost guarding happens in the caller — this is shape only.
    """
    if not op.writes or op.opcode not in PURE_OPCODES:
        return op
    cur = _strip(op)
    for _ in range(4):  # mul#2.0 -> mul#2 -> shl#1 is the longest chain
        imm = cur.imm
        if cur.opcode in ("add", "sub", "or", "shl", "shr") and imm == 0 \
                and len(cur.reads) == 1:
            nxt = _with(cur, opcode="mov", drop_imm=True)
        elif cur.opcode == "mul" and imm == 1 and len(cur.reads) == 1:
            nxt = _with(cur, opcode="mov", drop_imm=True)
        elif cur.opcode == "mul" and isinstance(imm, int) \
                and not isinstance(imm, bool) and imm >= 2 \
                and imm & (imm - 1) == 0 and len(cur.reads) == 1:
            nxt = _with(cur, opcode="shl", imm=imm.bit_length() - 1)
        else:
            break
        cur = _strip(nxt)
    return cur


def _guarded(op: Operation, candidate: Operation, model: CostModel) -> Operation:
    """``candidate`` if it does not raise the op's slot cost, else strip."""
    old_cls = model.opcode_class(op.opcode)
    new_cls = model.opcode_class(candidate.opcode)
    if new_cls != old_cls and model.slot_cost(new_cls) > model.slot_cost(old_cls):
        return _strip(op)
    return candidate


def serial_issue_cost(region: Region, model: CostModel) -> float:
    """Cost of issuing every op in its own slot (the serial baseline)."""
    return sum(model.slot_cost(model.opcode_class(op.opcode))
               for op in region.all_ops())


def _merge_key_candidates(region: Region, model: CostModel) -> int:
    """Ops whose merge key is shared with an op of another thread.

    The scheduler-facing redundancy measure (contrast with the *semantic*
    :func:`repro.core.canon.cross_thread_candidates`): these ops can
    actually share a slot as spelled.
    """
    threads_by_key: dict[tuple, set[int]] = {}
    for op in region.all_ops():
        threads_by_key.setdefault(model.merge_key(op), set()).add(op.thread)
    return sum(1 for op in region.all_ops()
               if len(threads_by_key[model.merge_key(op)]) > 1)


@dataclass
class VNStats:
    """What one :func:`vn_prepass` run did (attached to search stats)."""

    mode: str
    applied: bool
    rewrites: int
    #: Ops whose *semantic* fingerprint collides across threads — the
    #: redundancy the pass discovered (invariant under its own rewrites).
    merged_candidates: int
    mergekey_candidates_before: int
    mergekey_candidates_after: int
    serial_cost_before: float
    serial_cost_after: float
    wall_s: float = 0.0


def rewrite_region(region: Region, model: CostModel) -> tuple[Region, int]:
    """Canonicalize ``region``; returns (rewritten region, rewrite count).

    Pure mechanics — mode selection, tracing and metrics live in
    :func:`vn_prepass`.  See the module docstring for the soundness and
    never-worse arguments each phase below implements.
    """
    originals = [list(tc.ops) for tc in region.threads]
    candidates = [[_guarded(op, _rule_form(op), model) for op in ops]
                  for ops in originals]

    # Value-check every candidate whose shape changed beyond the strip,
    # in context, under the K probe assignments; record original values
    # for the constant-pool hoist.  The walk steps *original* ops, which
    # is sound because only value-preserving candidates survive it.
    rejected: set[tuple[int, int]] = set()
    values: dict[tuple[int, int], list[int]] = {
        op.key: [] for ops in originals for op in ops}
    for index in range(NUM_ASSIGNMENTS):
        for t, ops in enumerate(originals):
            ev = ThreadEvaluator(index)
            for i, op in enumerate(ops):
                cand = candidates[t][i]
                if _shape(cand) != _shape(_strip(op)) \
                        and ev.value_of(cand) != ev.value_of(op):
                    rejected.add(op.key)
                values[op.key].append(ev.step(op))

    for t, ops in enumerate(originals):
        for i, op in enumerate(ops):
            if op.key in rejected:
                candidates[t][i] = _strip(op)
                continue
            # Constant-pool hoist: semantically constant 0/1 results
            # become the factored `lds #c` lookup (cost-guarded, so e.g.
            # maspar's cheap `sub x x` stays put while `mul x #0` hoists).
            vals = values[op.key]
            if op.writes and op.opcode in PURE_OPCODES \
                    and op.opcode not in _NO_CONST_HOIST \
                    and vals and vals[0] in (0, 1) \
                    and all(v == vals[0] for v in vals):
                hoist = _with(op, opcode="lds", reads=(), imm=vals[0])
                candidates[t][i] = _guarded(op, hoist, model)

    # All-or-nothing per merge-key group: a key-changing rewrite survives
    # only if the whole group lands on one common new key.
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for t, ops in enumerate(originals):
        for i, op in enumerate(ops):
            groups.setdefault(model.merge_key(op), []).append((t, i))
    for key, members in groups.items():
        new_keys = {model.merge_key(candidates[t][i]) for t, i in members}
        if len(new_keys) > 1:
            for t, i in members:
                if model.merge_key(candidates[t][i]) != key:
                    candidates[t][i] = _strip(originals[t][i])

    rewrites = sum(
        1 for t, ops in enumerate(originals)
        for i, op in enumerate(ops) if _shape(candidates[t][i]) != _shape(op))
    if not rewrites:
        return region, 0
    rewritten = Region(tuple(
        ThreadCode(t, tuple(ops)) for t, ops in enumerate(candidates)))
    return rewritten, rewrites


def vn_prepass(
    region: Region,
    model: CostModel,
    mode: str = "on",
    tracer: Tracer | None = None,
) -> tuple[Region, VNStats | None]:
    """Run the value-numbering pre-pass per ``mode``.

    Returns the region to schedule plus a :class:`VNStats` (``None`` iff
    ``mode="off"``, which is a guaranteed no-op).  ``auto`` keeps the
    rewrite only when it strictly lowered serial issue cost or strictly
    raised the cross-thread merge-key candidate count — otherwise the
    original region is returned and the stats record ``applied=False``.
    Emits a ``vn.prepass`` span and the ``vn_*`` metrics either way.
    """
    if mode not in VN_MODES:
        raise ValueError(f"unknown vn mode {mode!r}; expected one of {VN_MODES}")
    if mode == "off":
        return region, None
    tracer = tracer or NULL_TRACER
    metrics = get_registry()
    watch = StopWatch().start()
    with span("vn.prepass", tracer, mode=mode, ops=region.num_ops) as live:
        mk_before = _merge_key_candidates(region, model)
        serial_before = serial_issue_cost(region, model)
        rewritten, rewrites = rewrite_region(region, model)
        mk_after = _merge_key_candidates(rewritten, model)
        serial_after = serial_issue_cost(rewritten, model)
        applied = rewrites > 0 and (
            mode == "on"
            or serial_after < serial_before - 1e-9
            or mk_after > mk_before)
        if not applied:
            rewritten, mk_after, serial_after = region, mk_before, serial_before
        merged = cross_thread_candidates(rewritten)
        stats = VNStats(
            mode=mode,
            applied=applied,
            rewrites=rewrites if applied else 0,
            merged_candidates=merged,
            mergekey_candidates_before=mk_before,
            mergekey_candidates_after=mk_after,
            serial_cost_before=serial_before,
            serial_cost_after=serial_after,
        )
        stats.wall_s = watch.stop()
        live.set(applied=applied, rewrites=stats.rewrites,
                 merged_candidates=merged, merge_keys_before=mk_before,
                 merge_keys_after=mk_after)
    metrics.inc("vn_prepass_total")
    if stats.rewrites:
        metrics.inc("vn_rewrites_total", stats.rewrites)
    metrics.observe("vn_prepass_seconds", stats.wall_s)
    metrics.observe("vn_merged_candidates", float(merged))
    return rewritten, stats
