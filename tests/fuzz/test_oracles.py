"""Tests for the differential oracle battery."""

import dataclasses

from repro.core.costmodel import maspar_cost_model
from repro.core.ops import parse_region
from repro.core.search import SearchConfig
from repro.fuzz import FuzzCase, check_case, generate_case
from repro.fuzz.oracles import OracleFailure

REGION = parse_region("""
thread 0:
    a = ld x
    b = mul a a
thread 1:
    c = ld x
    d = mul c c
""")


def region_case(**config_overrides):
    config = dataclasses.replace(SearchConfig(node_budget=10_000),
                                 **config_overrides)
    return FuzzCase(kind="region", seed=0, index=0, region=REGION,
                    model=maspar_cost_model(), config=config, note="hand")


class TestRegionOracles:
    def test_clean_case_passes(self, tmp_path):
        assert check_case(region_case(), workdir=tmp_path) == []

    def test_clean_case_passes_without_workdir(self):
        assert check_case(region_case()) == []

    def test_all_knob_corners_pass(self):
        for maximal in (True, False):
            for respect_order in (True, False):
                case = region_case(maximal_merges_only=maximal,
                                   respect_order=respect_order)
                assert check_case(case) == []

    def test_generated_cases_pass(self, tmp_path):
        for index in range(40):
            case = generate_case(11, index)
            assert check_case(case, workdir=tmp_path) == [], case.describe()


class TestProgramOracles:
    def test_kernel_program_passes(self):
        case = generate_case(0, 0)  # force a program via dedicated case
        program = FuzzCase(kind="program", seed=0, index=0,
                           source="int result;\n"
                                  "int main() { result = 2 * 3 + this; "
                                  "return result; }\n",
                           note="hand")
        assert check_case(program) == []
        del case

    def test_broken_program_reports_exception_oracle(self):
        case = FuzzCase(kind="program", seed=0, index=0,
                        source="int main() { return undeclared_var; }\n",
                        note="hand")
        failures = check_case(case)
        assert failures
        assert all(f.oracle.startswith("exception:") for f in failures)


class TestFailureShape:
    def test_failure_str_mentions_oracle(self):
        failure = OracleFailure("engine_counters", "nodes differ")
        assert "engine_counters" in str(failure)
        assert "nodes differ" in str(failure)


class TestClusterOracle:
    def test_clean_case_passes_through_the_cluster(self):
        from repro.cluster import LocalCluster
        with LocalCluster(nodes=3, cache_capacity=8) as cluster:
            assert check_case(region_case(), cluster=cluster) == []

    def test_degraded_cluster_result_is_a_failure(self):
        from repro.cluster import LocalCluster
        from repro.fuzz.oracles import _check_cluster

        class Degraded:
            def submit(self, request):
                raise OSError("cluster unreachable")

        class FakeCluster:
            def client(self):
                return Degraded()

        failures = _check_cluster(region_case(), FakeCluster())
        assert failures
        assert all(f.oracle == "cluster_roundtrip" for f in failures)
