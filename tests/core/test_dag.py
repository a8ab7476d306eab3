"""Tests for dependence-DAG construction (repro.core.dag)."""

import pytest

from repro.core.costmodel import uniform_cost_model
from repro.core.dag import _build_one, build_dags
from repro.core.ops import Region, parse_region


def single_thread(text: str):
    region = parse_region("thread 0:\n" + "\n".join("    " + l for l in text.splitlines()))
    return region, build_dags(region)[0]


class TestDependences:
    def test_flow_dependence(self):
        _, dag = single_thread("a = ld x\nb = add a a")
        assert dag.preds[1] == (0,)

    def test_anti_dependence(self):
        # op0 reads a; op1 writes a -> op1 must follow op0.
        _, dag = single_thread("b = add a a\na = ld x")
        assert 0 in dag.preds[1]

    def test_output_dependence(self):
        _, dag = single_thread("a = ld x\na = ld y")
        assert 0 in dag.preds[1]

    def test_independent_ops_unordered(self):
        _, dag = single_thread("a = ld x\nb = ld y")
        assert dag.preds[0] == () and dag.preds[1] == ()

    def test_read_then_write_same_op(self):
        # 'a = add a a' after 'a = ld x': flow dep only, no self edge.
        _, dag = single_thread("a = ld x\na = add a a")
        assert dag.preds[1] == (0,)
        assert all(i not in dag.preds[i] for i in range(2))

    def test_succs_mirror_preds(self):
        _, dag = single_thread("a = ld x\nb = add a a\nc = add b a")
        for i, ps in enumerate(dag.preds):
            for p in ps:
                assert i in dag.succs[p]

    def test_respect_order_builds_chain(self):
        region = parse_region("thread 0:\n  a = ld x\n  b = ld y\n  c = ld z")
        dag = build_dags(region, respect_order=True)[0]
        assert dag.preds == ((), (0,), (1,))


class TestReady:
    def test_initial_ready_set(self):
        _, dag = single_thread("a = ld x\nb = ld y\nc = add a b")
        assert dag.ready(frozenset()) == [0, 1]

    def test_ready_after_completion(self):
        _, dag = single_thread("a = ld x\nb = ld y\nc = add a b")
        assert dag.ready(frozenset({0, 1})) == [2]

    def test_done_ops_not_ready(self):
        _, dag = single_thread("a = ld x")
        assert dag.ready(frozenset({0})) == []


class TestValidOrder:
    def test_program_order_always_valid(self):
        _, dag = single_thread("a = ld x\nb = add a a\nst y b")
        assert dag.is_valid_order([0, 1, 2])

    def test_swap_of_independent_ok(self):
        _, dag = single_thread("a = ld x\nb = ld y")
        assert dag.is_valid_order([1, 0])

    def test_violating_order_rejected(self):
        _, dag = single_thread("a = ld x\nb = add a a")
        assert not dag.is_valid_order([1, 0])

    def test_incomplete_order_rejected(self):
        _, dag = single_thread("a = ld x\nb = add a a")
        assert not dag.is_valid_order([0])

    def test_duplicate_rejected(self):
        _, dag = single_thread("a = ld x\nb = add a a")
        assert not dag.is_valid_order([0, 0, 1])

    def test_out_of_range_rejected(self):
        _, dag = single_thread("a = ld x")
        assert not dag.is_valid_order([0, 5])


class TestTransitiveReduction:
    def test_redundant_edge_dropped(self):
        # a -> b -> c plus the implied a -> c: reduction keeps only the
        # covering chain (c's anti/flow dep on a is implied through b).
        _, dag = single_thread("a = ld x\nb = add a a\nc = add b a")
        assert dag.preds[1] == (0,)
        assert dag.preds[2] == (1,)        # direct 0 -> 2 edge reduced away

    def test_reduction_can_be_disabled(self):
        region = parse_region(
            "thread 0:\n  a = ld x\n  b = add a a\n  c = add b a")
        dag = build_dags(region, transitive_reduction=False)[0]
        assert dag.preds[2] == (0, 1)      # redundant edge kept

    def test_respect_order_chain_is_already_reduced(self):
        region = parse_region("thread 0:\n  a = ld x\n  b = ld y\n  c = ld z")
        dag = build_dags(region, respect_order=True)[0]
        assert dag.preds == ((), (0,), (1,))

    @pytest.mark.parametrize("seed", range(10))
    def test_identical_ready_sets_on_random_regions(self, seed):
        # Reduction must not change reachability: for any downward-closed
        # done-set (the only kind a scheduler produces) the ready sets of
        # the reduced and unreduced DAGs are identical.
        import random

        pytest.importorskip("numpy")
        from repro.workloads import RandomRegionSpec, random_region

        region = random_region(
            RandomRegionSpec(num_threads=3, min_len=6, max_len=10,
                             vocab_size=5, overlap=0.5, private_vocab=False),
            seed=seed)
        rng = random.Random(seed)
        reduced = build_dags(region)
        full = build_dags(region, transitive_reduction=False)
        for dag_r, dag_f in zip(reduced, full):
            n = len(dag_r)
            done: set[int] = set()
            while True:
                assert dag_r.ready(frozenset(done)) == \
                    dag_f.ready(frozenset(done)), f"done={done}"
                ready = dag_r.ready(frozenset(done))
                if not ready:
                    break
                # Complete a random nonempty subset of the ready ops,
                # keeping the done-set downward closed.
                for op in ready:
                    if not done or rng.random() < 0.7:
                        done.add(op)

    @pytest.mark.parametrize("seed", range(5))
    def test_identical_critical_paths(self, seed):
        from repro.core.costmodel import maspar_cost_model

        pytest.importorskip("numpy")
        from repro.workloads import RandomRegionSpec, random_region

        region = random_region(
            RandomRegionSpec(num_threads=2, min_len=5, max_len=8,
                             vocab_size=5, overlap=0.5, private_vocab=False),
            seed=100 + seed)
        model = maspar_cost_model()
        reduced = build_dags(region)
        full = build_dags(region, transitive_reduction=False)
        for tc, dag_r, dag_f in zip(region.threads, reduced, full):
            assert dag_r.critical_path_costs(tc, model) == \
                dag_f.critical_path_costs(tc, model)


class TestPredMasks:
    def test_masks_mirror_preds(self):
        _, dag = single_thread("a = ld x\nb = add a a\nc = add b a")
        for i, ps in enumerate(dag.preds):
            assert dag.pred_masks[i] == sum(1 << p for p in ps)


class TestCriticalPath:
    def test_chain_costs_accumulate(self):
        region, dag = single_thread("a = ld x\nb = add a a\nst y b")
        model = uniform_cost_model(cost=2.0, mask_overhead=1.0)
        cp = dag.critical_path_costs(region[0], model)
        # Each slot costs 3; chain of 3 ops.
        assert cp == (9.0, 6.0, 3.0)

    def test_parallel_ops_take_max(self):
        region, dag = single_thread("a = ld x\nb = ld y\nc = add a b")
        model = uniform_cost_model(cost=1.0, mask_overhead=0.0)
        cp = dag.critical_path_costs(region[0], model)
        assert cp == (2.0, 2.0, 1.0)

    def test_empty_thread(self):
        region = Region.from_sequences([[]])
        dag = build_dags(region)[0]
        assert dag.critical_path_costs(region[0], uniform_cost_model()) == ()


def _reference_dag(tc, serialize: bool, reduce: bool):
    """``(preds, succs, pred_masks)`` from the set-based construction that
    ``build_dags`` used before it built predecessor bitmasks directly."""
    n = len(tc.ops)
    preds: list[set[int]] = [set() for _ in range(n)]
    if serialize:
        for i in range(1, n):
            preds[i].add(i - 1)
    else:
        last_write: dict[str, int] = {}
        readers: dict[str, list[int]] = {}
        for i, op in enumerate(tc.ops):
            for sym in op.reads:
                if sym in last_write:
                    preds[i].add(last_write[sym])
                readers.setdefault(sym, []).append(i)
            for sym in op.writes:
                if sym in last_write:
                    preds[i].add(last_write[sym])
                for r in readers.get(sym, ()):
                    if r != i:
                        preds[i].add(r)
                last_write[sym] = i
                readers[sym] = []
        if reduce:
            ancestors = [0] * n
            reduced = []
            for i, ps in enumerate(preds):
                above = full = 0
                for p in ps:
                    above |= ancestors[p]
                    full |= ancestors[p] | (1 << p)
                reduced.append({p for p in ps if not (above >> p) & 1})
                ancestors[i] = full
            preds = reduced
    succs: list[list[int]] = [[] for _ in range(n)]
    for i, ps in enumerate(preds):
        for p in ps:
            succs[p].append(i)
    return (tuple(tuple(sorted(ps)) for ps in preds),
            tuple(tuple(sorted(ss)) for ss in succs),
            tuple(sum(1 << p for p in ps) for ps in preds))


class TestMaskConstruction:
    """``build_dags`` works on predecessor bitmasks; its DAGs equal the
    set-based construction's, edge for edge, on every fuzz generator."""

    @pytest.mark.parametrize("redundancy", [0.0, 0.8],
                             ids=["random+handlers", "vn-redundant"])
    @pytest.mark.parametrize("respect_order", [False, True])
    @pytest.mark.parametrize("reduce", [True, False],
                             ids=["reduced", "verbatim"])
    def test_equals_set_construction(self, redundancy, respect_order,
                                     reduce):
        pytest.importorskip("numpy")
        from repro.fuzz import GeneratorSpec, generate_case

        spec = GeneratorSpec(redundancy=redundancy, program_fraction=0.0)
        regions = 0
        for seed in range(2):
            for index in range(60):
                region = generate_case(seed, index, spec).region
                dags = build_dags(region, respect_order=respect_order,
                                  transitive_reduction=reduce)
                for tc, dag in zip(region.threads, dags):
                    assert (dag.preds, dag.succs, dag.pred_masks) == \
                        _reference_dag(tc, respect_order, reduce)
                regions += 1
        assert regions == 120


#: Hand-written regions: flow, anti and output dependences, an op that
#: reads and writes one symbol, an empty thread, and a redundant edge.
MEMO_TEXTS = [
    "thread 0:\n  a = ld x\n  b = add a a\n  c = add b a\n"
    "thread 1:\n  b = add a a\n  a = ld x\n  a = add a a\n  st y a\n",
    "thread 0:\nthread 1:\n  a, b = divmod x y\n  x = mov a\n  st x b\n",
]


def _memo_regions():
    """Parsed regions, plus fuzz regions where numpy is installed."""
    regions = [parse_region(text) for text in MEMO_TEXTS]
    try:
        from repro.fuzz import GeneratorSpec, generate_case
    except ImportError:
        return regions
    spec = GeneratorSpec(redundancy=0.5, program_fraction=0.0)
    return regions + [generate_case(3, index, spec).region
                      for index in range(40)]


class TestDefaultDagMemo:
    """With the default flags ``build_dags`` keeps one DAG per
    ``ThreadCode`` object; the other flags never see it."""

    def test_equals_a_fresh_build_for_every_thread(self):
        for region in _memo_regions():
            first = build_dags(region)
            again = build_dags(region)
            for tc, dag, kept in zip(region.threads, first, again):
                assert kept is dag
                assert dag == _build_one(tc, False)
                assert (dag.preds, dag.succs, dag.pred_masks) == \
                    _reference_dag(tc, False, True)

    @pytest.mark.parametrize("default_first", [True, False],
                             ids=["default-first", "default-last"])
    def test_other_flags_never_read_the_kept_dag(self, default_first):
        flags = [(True, True), (False, False), (True, False)]
        for region in _memo_regions():
            if default_first:
                build_dags(region)
            for respect_order, reduce in flags:
                dags = build_dags(region, respect_order=respect_order,
                                  transitive_reduction=reduce)
                for tc, dag in zip(region.threads, dags):
                    assert (dag.preds, dag.succs, dag.pred_masks) == \
                        _reference_dag(tc, respect_order, reduce)
            for tc, dag in zip(region.threads, build_dags(region)):
                assert (dag.preds, dag.succs, dag.pred_masks) == \
                    _reference_dag(tc, False, True)

    def test_an_interned_block_is_analysed_once(self, fresh_table):
        with fresh_table():
            one = parse_region(MEMO_TEXTS[0])
            two = parse_region(MEMO_TEXTS[0])
        assert build_dags(one)[1] is build_dags(two)[1]

    def test_the_kept_dag_is_no_field(self):
        region = parse_region(MEMO_TEXTS[0])
        twin = Region.from_sequences(
            [[(op.opcode, op.reads, op.writes) for op in tc] for tc in region])
        build_dags(region)
        assert region == twin and hash(region) == hash(twin)
        assert repr(region) == repr(twin)
