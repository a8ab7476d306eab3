"""Mutation smoke test: the fuzzer must catch a deliberately broken engine.

This is the fuzzer's own regression test.  A wrapper around the real bitmask
engine silently flips one pruning knob (``use_cp_bound``) — a bug class the
hand-written tests would miss because every schedule it produces is still
*valid*; only the cross-engine counter parity can see it.  The fuzz loop has
to (a) catch it within a bounded number of cases, (b) shrink the witness to
a tiny region, and (c) persist a replayable corpus entry.
"""

import dataclasses
import json

import repro.core.canon as canon
import repro.core.search as search
from repro.core.engines import bitmask_search
from repro.fuzz import (FuzzConfig, case_from_payload, check_case,
                        entry_needs_vn, fuzz_run, shrink_case)


def _install_buggy_bitmask(monkeypatch):
    """Make the production default of ``branch_and_bound`` the buggy
    engine; the fuzzer's legacy oracle run passes ``search_fn`` explicitly
    and stays correct.  With the class bound on the flip is invisible (the
    class bound dominates the critical-path bound), so the fuzzer has to
    find it through a class-bound-off case."""
    def buggy(prepared, config, stats, best_slots, **kwargs):
        return bitmask_search(prepared,
                              dataclasses.replace(config, use_cp_bound=False),
                              stats, best_slots, **kwargs)

    monkeypatch.setitem(search.branch_and_bound.__kwdefaults__,
                        "search_fn", buggy)


class TestMutationSmoke:
    def test_injected_bug_is_caught_and_shrunk(self, monkeypatch, tmp_path):
        _install_buggy_bitmask(monkeypatch)
        corpus = tmp_path / "corpus"
        report = fuzz_run(FuzzConfig(seed=7, cases=100, fail_fast=True,
                                     corpus_dir=str(corpus)))

        assert report.failures, "fuzzer missed the injected engine bug"
        failure = report.failures[0]
        oracles = {f.oracle for f in failure.failures}
        assert oracles & {"engine_counters", "engine_schedule"}

        # Acceptance bar: the witness shrinks to a tiny region.
        assert failure.minimal.num_ops <= 8
        assert failure.shrunk is not None
        assert failure.shrunk.num_ops <= failure.case.num_ops

        # The corpus entry replays to the same failing case.
        paths = list(corpus.glob("*.json"))
        assert len(paths) == 1
        payload = json.loads(paths[0].read_text())
        replayed = case_from_payload(payload["case"])
        assert check_case(replayed), "corpus entry no longer reproduces"
        assert payload["reproduce"].startswith("repro fuzz --seed 7")

    def test_fix_clears_the_corpus_entry(self, monkeypatch, tmp_path):
        # With the bug installed, persist the finding...
        _install_buggy_bitmask(monkeypatch)
        corpus = tmp_path / "corpus"
        report = fuzz_run(FuzzConfig(seed=7, cases=100, fail_fast=True,
                                     corpus_dir=str(corpus)))
        assert report.failures
        monkeypatch.undo()

        # ...then "fix" the engine: the replay must now pass, which is
        # exactly what the tier-1 corpus replay test enforces forever.
        path = next(corpus.glob("*.json"))
        case = case_from_payload(json.loads(path.read_text())["case"])
        assert check_case(case) == []

    def test_shrinker_respects_same_oracle(self, monkeypatch):
        _install_buggy_bitmask(monkeypatch)
        report = fuzz_run(FuzzConfig(seed=7, cases=100, fail_fast=True,
                                     shrink=False))
        assert report.failures
        failure = report.failures[0]
        shrunk = shrink_case(failure.case, list(failure.failures))
        kept = {f.oracle for f in check_case(shrunk)}
        wanted = {f.oracle for f in failure.failures}
        assert kept & wanted, "shrunk case fails a different oracle"


def _install_wrong_commutativity(monkeypatch):
    """Teach the vn rewriter that subtraction commutes (it does not).

    ``_strip`` sorts the reads of every opcode in ``canon.COMMUTATIVE``
    with no per-op value check — that table is trusted.  Poisoning it
    with ``sub`` makes the pass silently rewrite ``b - a`` into ``a - b``:
    a wrong-canonical-order bug only the vn differential oracle can see,
    since every schedule of the mis-rewritten region is still valid.
    """
    monkeypatch.setattr(canon, "COMMUTATIVE",
                        frozenset(canon.COMMUTATIVE | {"sub"}))


class TestVnMutationSmoke:
    def test_wrong_canonical_order_is_caught_and_shrunk(self, monkeypatch,
                                                        tmp_path):
        _install_wrong_commutativity(monkeypatch)
        corpus = tmp_path / "corpus"
        report = fuzz_run(FuzzConfig(seed=11, cases=200, fail_fast=True,
                                     corpus_dir=str(corpus), vn=True))

        assert report.failures, "fuzzer missed the commutativity bug"
        failure = report.failures[0]
        oracles = {f.oracle for f in failure.failures}
        assert "vn_equivalence" in oracles

        # Acceptance bar: the witness shrinks to a tiny region.
        assert failure.minimal.num_ops <= 8

        # The corpus entry is flagged as a vn finding and replays to the
        # same failure under the vn oracle battery.
        paths = list(corpus.glob("*.json"))
        assert len(paths) == 1
        assert entry_needs_vn(paths[0])
        payload = json.loads(paths[0].read_text())
        replayed = case_from_payload(payload["case"])
        found = check_case(replayed, vn=True)
        assert any(f.oracle == "vn_equivalence" for f in found), \
            "corpus entry no longer reproduces"

    def test_fix_clears_the_vn_corpus_entry(self, monkeypatch, tmp_path):
        _install_wrong_commutativity(monkeypatch)
        corpus = tmp_path / "corpus"
        report = fuzz_run(FuzzConfig(seed=11, cases=200, fail_fast=True,
                                     corpus_dir=str(corpus), vn=True))
        assert report.failures
        monkeypatch.undo()

        # With the table fixed, the replay — still under the vn battery,
        # as the tier-1 corpus replay test would run it — must pass.
        path = next(corpus.glob("*.json"))
        case = case_from_payload(json.loads(path.read_text())["case"])
        assert entry_needs_vn(path)
        assert check_case(case, vn=True) == []
