"""Tests for the ``repro fuzz`` command."""

import dataclasses
import json
import pathlib

from repro.cli import main

CORPUS_DIR = pathlib.Path(__file__).resolve().parents[1] / "corpus"


class TestFuzzCommand:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["fuzz", "--cases", "5", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "seed=42" in out
        assert "all oracles agree" in out

    def test_trace_written(self, tmp_path, capsys):
        trace = tmp_path / "fuzz.jsonl"
        assert main(["fuzz", "--cases", "3", "--seed", "1",
                     "--trace", str(trace)]) == 0
        kinds = [json.loads(line)["kind"]
                 for line in trace.read_text().splitlines()]
        assert "fuzz" in kinds and "span" in kinds

    def test_failing_run_exits_one_and_saves_corpus(self, monkeypatch,
                                                    tmp_path, capsys):
        import repro.core.search as search
        from repro.core.engines import bitmask_search

        def buggy(prepared, config, stats, best_slots, **kwargs):
            return bitmask_search(prepared,
                                  dataclasses.replace(config, use_cp_bound=False),
                                  stats, best_slots, **kwargs)

        monkeypatch.setitem(search.branch_and_bound.__kwdefaults__,
                            "search_fn", buggy)
        corpus = tmp_path / "corpus"
        code = main(["fuzz", "--cases", "100", "--seed", "7", "--fail-fast",
                     "--corpus-dir", str(corpus)])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILING" in out
        assert "reproduce: repro fuzz --seed 7" in out
        assert list(corpus.glob("*.json"))


class TestReplayCommand:
    def test_replay_committed_corpus_passes(self, capsys):
        assert main(["fuzz", "--replay", str(CORPUS_DIR)]) == 0
        out = capsys.readouterr().out
        assert "failing" in out and "FAIL" not in out

    def test_replay_single_entry(self, capsys):
        entry = sorted(CORPUS_DIR.glob("*.json"))[0]
        assert main(["fuzz", "--replay", str(entry)]) == 0

    def test_replay_empty_directory_fails(self, tmp_path, capsys):
        assert main(["fuzz", "--replay", str(tmp_path)]) == 1
