"""Tests for the command-line interface."""

import json
import warnings
from pathlib import Path

import pytest

from repro.cli import main

MIMDC = """
mono int total;
int result;
int main() {
    result = this * 2;
    if (this == 0) total = 7;
    wait;
    return result;
}
"""

REGION = """
thread 0:
    a = ld x
    b = mul a a
thread 1:
    c = ld x
    d = mul c c
"""


@pytest.fixture
def src(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text(MIMDC)
    return str(path)


@pytest.fixture
def region_file(tmp_path):
    path = tmp_path / "region.txt"
    path.write_text(REGION)
    return str(path)


class TestCompile:
    def test_asm_listing(self, src, capsys):
        assert main(["compile", src, "--asm"]) == 0
        out = capsys.readouterr().out
        assert "Halt" in out and "Call" in out

    def test_object_output_roundtrips(self, src, tmp_path, capsys):
        obj = str(tmp_path / "prog.mobj")
        assert main(["compile", src, "-o", obj]) == 0
        from repro.isa import decode_object
        program = decode_object(Path(obj).read_bytes())
        assert len(program) > 0

    def test_counts_flag(self, src, capsys):
        main(["compile", src, "--counts"])
        out = capsys.readouterr().out
        assert "StS" in out

    def test_no_optimize(self, src, capsys):
        assert main(["compile", src, "--asm", "--no-optimize"]) == 0


class TestRun:
    def test_run_source(self, src, capsys):
        assert main(["run", src, "--pes", "4"]) == 0
        out = capsys.readouterr().out
        assert "4 PEs" in out
        assert "total = 7" in out
        assert "result = [0, 2, 4, 6]" in out

    def test_run_object(self, src, tmp_path, capsys):
        obj = str(tmp_path / "prog.mobj")
        main(["compile", src, "-o", obj])
        capsys.readouterr()
        assert main(["run", obj, "--pes", "4"]) == 0
        assert "SIMD cycles" in capsys.readouterr().out

    def test_interpreter_flags(self, src, capsys):
        assert main(["run", src, "--pes", "4", "--no-factoring",
                     "--no-subinterpreters", "--bias", "4"]) == 0


class TestInduce:
    def test_search(self, region_file, capsys):
        assert main(["induce", region_file]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "total cost" in out

    def test_input_file_is_closed(self, region_file, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert main(["induce", region_file]) == 0
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    @pytest.mark.parametrize("method", ["greedy", "serial", "lockstep", "factor"])
    def test_methods(self, region_file, method, capsys):
        assert main(["induce", region_file, "--method", method]) == 0

    def test_uniform_model(self, region_file, capsys):
        assert main(["induce", region_file, "--model", "uniform"]) == 0

    def test_trace_flag_writes_jsonl(self, region_file, tmp_path, capsys):
        import json
        trace = tmp_path / "trace.jsonl"
        assert main(["induce", region_file, "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "trace: 4 events" in out  # 1 induce + 3 spans
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        kinds = sorted(e["kind"] for e in events)
        assert kinds == ["induce", "span", "span", "span"]
        (induce_event,) = (e for e in events if e["kind"] == "induce")
        assert induce_event["method"] == "search"
        assert {e["name"] for e in events if e["kind"] == "span"} == \
            {"induce", "induce.build", "induce.verify"}

    def test_cache_dir_second_run_hits(self, region_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["induce", region_file, "--cache-dir", cache_dir]) == 0
        assert "cache: miss" in capsys.readouterr().out
        assert main(["induce", region_file, "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "cache: hit" in out
        assert "hits=1" in out

    @pytest.mark.parametrize("flag", ["--window", "--jobs"])
    def test_window_flags_are_gone(self, region_file, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["induce", region_file, flag, "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["induce", "submit"])
    @pytest.mark.parametrize("method", ["portfolio", "anneal"])
    def test_removed_methods_are_refused(self, region_file, command, method,
                                         capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, region_file, "--method", method])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["induce", "REGION", "--strategy-store", "s.json"],
        ["serve", "--strategy-store", "s.json"],
        ["strategies", "s.json"],
    ], ids=["induce", "serve", "strategies"])
    def test_outcomes_store_flags_are_gone(self, region_file, argv, capsys):
        argv = [region_file if arg == "REGION" else arg for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_deadline_cut_is_reported(self, tmp_path, capsys):
        from repro.workloads.threads import RandomRegionSpec, random_region

        region = random_region(
            RandomRegionSpec(num_threads=8, min_len=10, max_len=10,
                             vocab_size=12, overlap=0.4, private_vocab=False),
            seed=5)
        path = tmp_path / "slow.txt"
        path.write_text(region.render())
        assert main(["induce", str(path), "--budget", "50000000",
                     "--deadline", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "optimal=False [cut at deadline]" in out
        assert "[degraded]" not in out


class TestStats:
    def test_summarizes_trace(self, region_file, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        cache_dir = str(tmp_path / "cache")
        for _ in range(2):  # a miss, then a hit
            main(["induce", region_file, "--trace", trace,
                  "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(["stats", trace]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "induce: 2 events" in out
        # Each request counts once, not once more per span.
        (row,) = [line for line in out.splitlines()
                  if "cache hits / misses" in line]
        assert "1 / 1" in row
        # The hit ran no search: only the cold run's nodes count.
        with open(trace) as fh:
            cold, hit = [event for event in map(json.loads, fh)
                         if event["kind"] == "induce"]
        assert (cold["cache"], hit["cache"]) == ("miss", "hit")
        assert hit["nodes"] == cold["nodes"] > 0
        (row,) = [line for line in out.splitlines()
                  if "search nodes expanded" in line]
        assert row.split("|")[2].strip() == str(cold["nodes"])

    def test_percentile_columns(self, region_file, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        main(["induce", region_file, "--trace", trace])
        capsys.readouterr()
        assert main(["stats", trace]) == 0
        out = capsys.readouterr().out
        assert "p50" in out and "p99" in out


class TestTrace:
    def test_renders_span_tree(self, region_file, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        main(["induce", region_file, "--trace", trace])
        capsys.readouterr()
        assert main(["trace", trace]) == 0
        out = capsys.readouterr().out
        assert "trace " in out and "% of trace" in out and "% self" in out
        assert "induce" in out and "induce.build" in out

    def test_last_and_id_filters(self, region_file, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        main(["induce", region_file, "--trace", trace])
        main(["induce", region_file, "--trace", trace])
        capsys.readouterr()
        assert main(["trace", trace, "--last"]) == 0
        out = capsys.readouterr().out
        headers = [line for line in out.splitlines()
                   if line.startswith("trace ")]
        assert len(headers) == 1
        trace_id = headers[0].split()[1]
        assert main(["trace", trace, "--trace-id", trace_id[:8]]) == 0
        assert trace_id in capsys.readouterr().out

    def test_no_spans_is_exit_1(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", str(empty)]) == 1
        assert "no span events" in capsys.readouterr().out


class TestSelect:
    def test_basic(self, src, capsys):
        assert main(["select", src, "--pes", "8"]) == 0
        out = capsys.readouterr().out
        assert "would run on" in out and "ms" in out

    def test_verbose_lists_candidates(self, src, capsys):
        assert main(["select", src, "--pes", "8", "-v"]) == 0
        out = capsys.readouterr().out
        assert "candidates considered" in out
        assert "maspar" in out

    def test_loaded_maspar(self, src, capsys):
        assert main(["select", src, "--pes", "1024", "--maspar-load", "500"]) == 0
        out = capsys.readouterr().out
        assert "would run on" in out


class TestSimdc:
    @pytest.fixture
    def sc_src(self, tmp_path):
        path = tmp_path / "kernel.sc"
        path.write_text("""
            plural int x, buf[2];
            int main() {
                x = this * this;
                buf[0] = x;
                buf[1] = x + 1;
                where (x % 2 == 0) x = x + 1;
                return reduceAdd(x);
            }
        """)
        return str(path)

    def test_run(self, sc_src, capsys):
        assert main(["simdc", sc_src, "--pes", "8"]) == 0
        out = capsys.readouterr().out
        assert "result =" in out and "SIMD cycles" in out
        assert "buf[0:2]" in out

    def test_vir_listing(self, sc_src, capsys):
        assert main(["simdc", sc_src, "--vir"]) == 0
        out = capsys.readouterr().out
        assert "vthis" in out and "reduce" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["explode"])
