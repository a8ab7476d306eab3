"""The value-numbering pre-pass: soundness, idempotence, never-worse.

Four contracts from DESIGN.md §11 are pinned here:

- **semantic-hash soundness** — ``a+b``/``b+a``/renamed temporaries
  collide, inequivalent computations do not, loads respect store epochs;
- **idempotence** — ``rewrite(rewrite(r)) == rewrite(r)``, so the cache
  fingerprint of a vn-rewritten region is stable and a vn=off request on
  an already-canonical region hits the same cache entry;
- **determinism** — the rewrite is a function of the region and cost
  model alone; ``$REPRO_SEED`` must not leak into it (only the fuzz
  oracle mixes the run seed in, via extra checking assignments);
- **never worse** — on every region in the equivalence-style grid, the
  optimal schedule of the rewritten region costs no more than the optimal
  schedule of the original.
"""

import dataclasses

import pytest

from repro.core import canon
from repro.core.canon import (
    cross_thread_candidates,
    op_fingerprints,
    regions_mismatch,
)
from repro.core.costmodel import maspar_cost_model, uniform_cost_model
from repro.core.ops import parse_region
from repro.core.search import SearchConfig, branch_and_bound
from repro.core.vn import (
    VN_MODES,
    rewrite_region,
    serial_issue_cost,
    vn_prepass,
)

MASPAR = maspar_cost_model()
UNIFORM = uniform_cost_model()

#: Two threads computing the same values through differently spelled ops:
#: reversed commutative reads, ``mul #4`` vs ``mul #4.0``, and a shared
#: ``sub x x`` constant.
_REDUNDANT = """
thread 0:
    t0 = ld x
    t1 = mul t0 #4
    t2 = add t1 t0
    t3 = sub t1 t1
thread 1:
    u0 = ld x
    u1 = mul u0 #4.0
    u2 = add u0 u1
    u3 = sub u1 u1
"""


def _fp(text):
    region = parse_region(text)
    fps = op_fingerprints(region)
    return region, fps


class TestSemanticHash:
    def test_commutative_and_renamed_collide(self):
        region, fps = _fp("""
            thread 0:
                a = ld x
                b = ld y
                c = add a b
            thread 1:
                p = ld x
                q = ld y
                r = add q p
        """)
        for i in range(3):
            assert fps[(0, i)] == fps[(1, i)]

    def test_inequivalent_ops_do_not_collide(self):
        _, fps = _fp("""
            thread 0:
                a = ld x
                b = ld y
                c = add a b
                d = sub a b
                e = mul a b
        """)
        assert len(set(fps.values())) == 5

    def test_strength_reduced_forms_collide(self):
        _, fps = _fp("""
            thread 0:
                a = ld x
                b = mul a #2
            thread 1:
                p = ld x
                q = shl p #1
        """)
        assert fps[(0, 1)] == fps[(1, 1)]

    def test_integral_float_imm_collides_with_int(self):
        _, fps = _fp("""
            thread 0:
                a = ld x
                b = mul a #4
            thread 1:
                p = ld x
                q = mul p #4.0
        """)
        assert fps[(0, 1)] == fps[(1, 1)]

    def test_store_epoch_splits_loads(self):
        # The second load of x must not be conflated with the first across
        # an intervening store: the epoch is part of the load's hash.
        _, fps = _fp("""
            thread 0:
                a = ld x
                st x a
                b = ld x
        """)
        assert fps[(0, 0)] != fps[(0, 2)]

    def test_constant_zero_collides_with_lds(self):
        _, fps = _fp("""
            thread 0:
                a = ld x
                z = sub a a
            thread 1:
                z2 = lds #0
        """)
        assert fps[(0, 1)] == fps[(1, 0)]

    def test_cross_thread_candidates_counts_both_sides(self):
        region = parse_region(_REDUNDANT)
        # All 8 ops compute values their sibling thread also computes.
        assert cross_thread_candidates(region) == 8


class TestRewriteRules:
    def test_strength_reduction_and_imm_folding(self):
        region = parse_region(_REDUNDANT)
        rewritten, rewrites = rewrite_region(region, MASPAR)
        rendered = rewritten.render()
        assert rewrites > 0
        assert "shl" in rendered and "mul" not in rendered
        assert "#4.0" not in rendered
        assert regions_mismatch(region, rewritten, seed=123) is None

    def test_commutative_reads_sorted(self):
        region = parse_region("""
            thread 0:
                a = ld x
                b = ld y
                c = add b a
        """)
        rewritten, rewrites = rewrite_region(region, MASPAR)
        assert rewrites == 1
        assert rewritten[0].ops[2].reads == ("a", "b")

    def test_identity_becomes_mov(self):
        # No other op shares the add merge-key group, so the key-changing
        # identity elimination is free to fire.
        region = parse_region("""
            thread 0:
                a = ld x
                b = add a #0
        """)
        rewritten, _ = rewrite_region(region, UNIFORM)
        op = rewritten[0].ops[1]
        assert (op.opcode, op.reads, op.imm) == ("mov", ("a",), None)

    def test_constant_hoist_under_uniform(self):
        region = parse_region("""
            thread 0:
                a = ld x
                z = sub a a
        """)
        rewritten, _ = rewrite_region(region, UNIFORM)
        op = rewritten[0].ops[1]
        assert (op.opcode, op.reads, op.imm) == ("lds", (), 0)
        assert op.writes == ("z",)

    def test_cost_guard_blocks_expensive_hoist(self):
        # maspar: sub costs 3, lds costs 6 — hoisting would *raise* the
        # slot cost, so the guard keeps the spelled form.
        region = parse_region("""
            thread 0:
                a = ld x
                z = sub a a
        """)
        rewritten, rewrites = rewrite_region(region, MASPAR)
        assert rewrites == 0
        assert rewritten[0].ops[1].opcode == "sub"

    def test_no_hoist_for_div(self):
        # div by a semantically-zero denominator etc. must keep its spelled
        # (potentially trapping) form — and a div producing a constant is
        # left alone by policy.
        region = parse_region("""
            thread 0:
                a = ld x
                z = div a a
        """)
        rewritten, _ = rewrite_region(region, UNIFORM)
        assert rewritten[0].ops[1].opcode == "div"

    def test_group_consistency_is_all_or_nothing(self):
        # Both adds share one merge key; only one of them is an identity.
        # Rewriting it to mov would split the group, so it must revert.
        region = parse_region("""
            thread 0:
                a = ld x
                b = add a #0
                c = add b a
        """)
        rewritten, _ = rewrite_region(region, UNIFORM)
        assert rewritten[0].ops[1].opcode == "add"
        assert rewritten[0].ops[2].opcode == "add"

    def test_impure_and_storeless_ops_untouched(self):
        region = parse_region("""
            thread 0:
                a = ld x
                st y a
                jz a
        """)
        rewritten, rewrites = rewrite_region(region, UNIFORM)
        assert rewrites == 0
        assert rewritten is region

    def test_rewrite_preserves_writes_and_shrinks_reads(self):
        region = parse_region(_REDUNDANT)
        rewritten, _ = rewrite_region(region, UNIFORM)
        for before, after in zip(region.all_ops(), rewritten.all_ops()):
            assert after.writes == before.writes
            assert set(after.reads) <= set(before.reads)


class TestValueCheckSafetyNet:
    def test_wrong_rule_candidate_is_rejected(self, monkeypatch):
        # The value check is the backstop under the rewrite rules: feed it
        # a deliberately wrong candidate (add spelled as sub) and the pass
        # must reject it op-by-op and fall back to the harmless strip.
        import repro.core.vn as vn_mod

        real = vn_mod._rule_form

        def wrong(op):
            if op.opcode == "add" and len(op.reads) == 2:
                return vn_mod._with(op, opcode="sub")
            return real(op)

        monkeypatch.setattr(vn_mod, "_rule_form", wrong)
        region = parse_region("""
            thread 0:
                a = ld x
                b = ld y
                c = add a b
        """)
        rewritten, rewrites = rewrite_region(region, UNIFORM)
        assert rewritten[0].ops[2].opcode == "add"
        assert rewrites == 0
        assert regions_mismatch(region, rewritten) is None

    def test_evaluator_interprets_neg_and_shr_zero(self):
        _, fps = _fp("""
            thread 0:
                a = ld x
                b = neg a
                c = neg b
                d = shr a #0
        """)
        # neg(neg(a)) == a == shr(a, 0): all three collide.
        assert fps[(0, 0)] == fps[(0, 2)] == fps[(0, 3)]
        assert fps[(0, 1)] != fps[(0, 0)]


class TestRegionsMismatch:
    def test_structural_differences_reported(self):
        a = parse_region("thread 0:\n    x = ld g\n    y = add x x\n")
        assert "thread count" in regions_mismatch(
            a, parse_region("thread 0:\n    x = ld g\nthread 1:\n    z = ld g\n"))
        assert "op count" in regions_mismatch(
            a, parse_region("thread 0:\n    x = ld g\n"))
        assert "writes" in regions_mismatch(
            a, parse_region("thread 0:\n    x = ld g\n    w = add x x\n"))

    def test_value_difference_reported(self):
        a = parse_region("thread 0:\n    x = ld g\n    y = add x x\n")
        b = parse_region("thread 0:\n    x = ld g\n    y = sub x x\n")
        detail = regions_mismatch(a, b, seed=5)
        assert detail is not None and "value differs" in detail

    def test_effect_divergence_reported(self):
        # No-write ops compare by effect hash, not written value.
        a = parse_region("thread 0:\n    x = ld g\n    st g x\n")
        b = parse_region("thread 0:\n    x = ld g\n    mov x\n")
        detail = regions_mismatch(a, b)
        assert detail is not None and "effect differs" in detail

    def test_assignment_count_validated(self):
        from repro.core.canon import op_fingerprints
        with pytest.raises(ValueError, match="at least one assignment"):
            op_fingerprints(parse_region("thread 0:\n    x = ld g\n"),
                            assignments=0)


class TestIdempotenceAndDeterminism:
    @pytest.mark.parametrize("model", [MASPAR, UNIFORM],
                             ids=["maspar", "uniform"])
    def test_idempotent(self, model):
        region = parse_region(_REDUNDANT)
        once, n1 = rewrite_region(region, model)
        twice, n2 = rewrite_region(once, model)
        assert n1 > 0 and n2 == 0
        assert twice.render() == once.render()

    def test_repro_seed_does_not_leak_into_rewrite(self, monkeypatch):
        region = parse_region(_REDUNDANT)
        monkeypatch.setenv("REPRO_SEED", "1")
        first, _ = rewrite_region(region, MASPAR)
        monkeypatch.setenv("REPRO_SEED", "999")
        second, _ = rewrite_region(region, MASPAR)
        assert first.render() == second.render()

    def test_fingerprints_invariant_under_rewrite(self):
        # The pass only replaces ops by semantically-equal ops, so the
        # cross-thread candidate count it reports cannot drift.
        region = parse_region(_REDUNDANT)
        rewritten, _ = rewrite_region(region, MASPAR)
        assert cross_thread_candidates(rewritten) == \
            cross_thread_candidates(region)


class TestNeverWorse:
    @pytest.mark.parametrize("model", [MASPAR, UNIFORM],
                             ids=["maspar", "uniform"])
    @pytest.mark.parametrize("seed", range(10))
    def test_optimal_cost_never_worse_on_random_regions(self, seed, model):
        workloads = pytest.importorskip("repro.workloads")
        region = workloads.random_region(
            workloads.RandomRegionSpec(
                num_threads=2 + seed % 3, min_len=2, max_len=4 + seed % 4,
                vocab_size=5, overlap=0.7, private_vocab=False),
            seed=seed)
        rewritten, _ = rewrite_region(region, model)
        assert serial_issue_cost(rewritten, model) <= \
            serial_issue_cost(region, model) + 1e-9
        config = SearchConfig(node_budget=50_000)
        _, off = branch_and_bound(region, model, config)
        _, on = branch_and_bound(rewritten, model, config)
        if off.optimal and on.optimal:
            assert on.best_cost <= off.best_cost + 1e-9, (
                f"vn made search worse on seed {seed}: "
                f"{on.best_cost} > {off.best_cost}")

    def test_redundant_region_strictly_improves(self):
        region = parse_region(_REDUNDANT)
        rewritten, _ = rewrite_region(region, MASPAR)
        config = SearchConfig(node_budget=50_000)
        _, off = branch_and_bound(region, MASPAR, config)
        _, on = branch_and_bound(rewritten, MASPAR, config)
        assert off.optimal and on.optimal
        assert on.best_cost < off.best_cost


class TestPrepassModes:
    def test_off_is_identity(self):
        region = parse_region(_REDUNDANT)
        out, stats = vn_prepass(region, MASPAR, "off")
        assert out is region and stats is None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown vn mode"):
            vn_prepass(parse_region(_REDUNDANT), MASPAR, "bogus")

    def test_on_reports_stats(self):
        region = parse_region(_REDUNDANT)
        out, stats = vn_prepass(region, MASPAR, "on")
        assert stats.applied and stats.rewrites > 0
        assert stats.merged_candidates == 8
        assert stats.serial_cost_after < stats.serial_cost_before
        assert out.render() != region.render()

    def test_auto_keeps_profitable_rewrite(self):
        region = parse_region(_REDUNDANT)
        out, stats = vn_prepass(region, MASPAR, "auto")
        assert stats.applied
        assert out.render() != region.render()

    def test_auto_reverts_cosmetic_rewrite(self):
        # A single-thread commutative reorder changes neither serial cost
        # nor cross-thread merge candidates: auto must hand back the
        # original region (and report applied=False, rewrites=0).
        region = parse_region("""
            thread 0:
                a = ld x
                b = ld y
                c = add b a
        """)
        out, stats = vn_prepass(region, MASPAR, "auto")
        assert not stats.applied and stats.rewrites == 0
        assert out is region
        # The same rewrite is kept under mode=on.
        out_on, stats_on = vn_prepass(region, MASPAR, "on")
        assert stats_on.applied and stats_on.rewrites == 1
        assert out_on.render() != region.render()

    def test_prepass_emits_metrics_and_span(self):
        from repro.obs import MetricsRegistry, use_registry

        region = parse_region(_REDUNDANT)
        registry = MetricsRegistry()
        with use_registry(registry):
            vn_prepass(region, MASPAR, "on")
        counters = registry.counters
        assert counters["vn_prepass_total"] == 1
        assert counters["vn_rewrites_total"] > 0

    def test_prepass_span_has_attributes(self, tmp_path):
        import json

        from repro.obs import JsonlTracer

        path = tmp_path / "trace.jsonl"
        tracer = JsonlTracer(path)
        region = parse_region(_REDUNDANT)
        vn_prepass(region, MASPAR, "on", tracer)
        tracer.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        spans = [e for e in events if e.get("name") == "vn.prepass"]
        assert spans, events
        attrs = spans[-1]
        assert attrs["applied"] is True
        assert attrs["rewrites"] > 0
        assert attrs["merged_candidates"] == 8


class TestApiIntegration:
    def test_request_validates_and_fingerprints_vn(self):
        from repro.api import InductionRequest

        region = parse_region(_REDUNDANT)
        prints = set()
        for mode in VN_MODES:
            prints.add(InductionRequest(region=region, vn=mode).fingerprint())
        assert len(prints) == 3
        with pytest.raises(ValueError, match="unknown vn mode"):
            InductionRequest(region=region, vn="sometimes")

    def test_induce_stamps_vn_counters(self):
        from repro.api import InductionRequest, induce

        region = parse_region(_REDUNDANT)
        off = induce(InductionRequest(region=region))
        assert off.stats.vn_rewrites == 0
        assert off.stats.vn_merged_candidates == 0
        on = induce(InductionRequest(region=region, vn="on"))
        assert on.stats.vn_rewrites > 0
        assert on.stats.vn_merged_candidates == 8
        assert on.stats.best_cost <= off.stats.best_cost

    def test_wire_round_trip(self):
        from repro.api import InductionRequest
        from repro.service.protocol import request_from_wire, request_to_wire

        region = parse_region(_REDUNDANT)
        wire = request_to_wire(InductionRequest(region=region, vn="auto"))
        assert request_from_wire(wire).vn == "auto"
        # vn=off stays off the wire so old servers accept new clients.
        assert "vn" not in request_to_wire(InductionRequest(region=region))

    def test_vn_oracle_block_passes_on_clean_cases(self):
        # The fuzz oracles are numpy-backed (the [fast] extra).
        pytest.importorskip("numpy")
        from repro.core.search import SearchConfig
        from repro.fuzz.generators import FuzzCase
        from repro.fuzz.oracles import check_case

        case = FuzzCase(kind="region", seed=0, index=0, note="handwritten",
                        region=parse_region(_REDUNDANT), model=MASPAR,
                        config=SearchConfig(node_budget=20_000))
        failures = check_case(case, vn=True)
        assert not failures, failures
