"""Differential fuzzing and invariant verification for the induction stack.

The schedulers are pruned-search code — exactly where a subtle bug yields an
*invalid but cheap* schedule that looks like a great CSI result (see
:mod:`repro.core.verify`).  Hand-written tests cover the scenarios someone
imagined; this package generates the rest:

- :mod:`repro.fuzz.generators` — seeded random regions (threads, ops,
  dependence density, merge-class skew, immediates), random cost models and
  search configurations, random interpreter-handler subsets, and random
  MIMDC programs built on :mod:`repro.workloads.programs` templates;
- :mod:`repro.fuzz.oracles` — the differential harness: every case runs
  through the production bitmask engine and the legacy reference oracle,
  the independent verifier, a cost-model recomputation, the greedy/serial
  upper bounds, a cache round-trip and the wire/`as_dict` round-trip; any
  disagreement is a bug;
- :mod:`repro.fuzz.shrink` — delta debugging that reduces a failing case
  to a minimal region before it is reported;
- :mod:`repro.fuzz.corpus` — failing cases persist as JSON (one file per
  case) and are deterministically replayed by a tier-1 test, so every
  fuzz-found bug becomes a permanent regression test;
- :mod:`repro.fuzz.runner` — the ``repro fuzz`` engine: seeded case loop,
  time budget, obs spans/metrics, corpus persistence.

Everything is reproducible bit-for-bit from the single root seed printed on
the first line of every run (``repro fuzz --seed N``).
"""

from repro.fuzz.corpus import (
    case_from_payload,
    case_to_payload,
    entry_needs_vn,
    load_corpus,
    save_failure,
)
from repro.fuzz.generators import FuzzCase, GeneratorSpec, generate_case
from repro.fuzz.oracles import OracleFailure, check_case
from repro.fuzz.runner import FuzzConfig, FuzzFailure, FuzzReport, fuzz_run
from repro.fuzz.shrink import shrink_case

__all__ = [
    "FuzzCase",
    "FuzzConfig",
    "FuzzFailure",
    "FuzzReport",
    "GeneratorSpec",
    "OracleFailure",
    "case_from_payload",
    "case_to_payload",
    "check_case",
    "entry_needs_vn",
    "fuzz_run",
    "generate_case",
    "load_corpus",
    "save_failure",
    "shrink_case",
]
