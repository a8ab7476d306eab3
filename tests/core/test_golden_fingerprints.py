"""Fingerprints are pinned byte for byte.

A fingerprint names a result's disk entry and its place on the cluster's
hash ring, so any change to the text it hashes orphans every disk tier
and moves ring placement.  ``golden_fingerprints.json`` holds
fingerprints computed by an earlier implementation of
:func:`~repro.core.cache.region_fingerprint` (nested lists encoded by a
per-call ``json.dumps``), so the current one must reproduce them, not
just agree with itself.  It spans handler sets, ``local-search`` pool
regions and edge-case text (comments, CRLF, multi-destination writes,
int, float and negative immediates, JSON escapes, empty threads), each
under five cost models, three search configs and three method tags.  The
fixture may change only together with ``_FINGERPRINT_VERSION``.
"""

import json
from pathlib import Path

import pytest

from repro import api
from repro.core import cache as cache_mod
from repro.core.cache import region_fingerprint
from repro.core.costmodel import CostModel, maspar_cost_model, uniform_cost_model
from repro.core.ops import parse_region
from repro.core.search import SearchConfig
from repro.service import protocol

GOLDEN = json.loads(
    (Path(__file__).with_name("golden_fingerprints.json"))
    .read_text(encoding="utf-8"))
NAMED = {"maspar": maspar_cost_model, "uniform": uniform_cost_model}


def _model(spec):
    return NAMED[spec]() if isinstance(spec, str) else CostModel(**spec)


def test_fingerprint_version_is_the_pinned_one():
    assert cache_mod._FINGERPRINT_VERSION == GOLDEN["version"] == 1


def test_fixture_spans_what_it_claims():
    assert len(GOLDEN["regions"]) == len(GOLDEN["fingerprints"]) == 30
    assert list(GOLDEN["models"]) == [
        "maspar", "uniform", "maspar-equal-imm", "micro", "custom-class-of"]
    assert GOLDEN["methods"] == ["search", "greedy", "search+vn:on"]
    assert len(GOLDEN["configs"]) == 3
    every = [fp for row in GOLDEN["fingerprints"] for per_model in row
             for per_config in per_model for fp in per_config]
    assert len(every) == len(set(every)) == 30 * 5 * 3 * 3


@pytest.mark.parametrize("index", range(len(GOLDEN["regions"])))
def test_fingerprints_reproduce_byte_for_byte(index):
    region = parse_region(GOLDEN["regions"][index])
    got = [[[region_fingerprint(region, _model(spec), SearchConfig(**config),
                                method=method)
             for method in GOLDEN["methods"]]
            for config in GOLDEN["configs"]]
           for spec in GOLDEN["models"].values()]
    assert got == GOLDEN["fingerprints"][index]


@pytest.mark.parametrize("index", [0, 12, 24, 26])
def test_request_and_wire_fingerprints_match_the_fixture(index):
    """The request's tag (``search+vn:on``) and a served submit's
    first-seen parse reach the same pinned fingerprints."""
    text = GOLDEN["regions"][index]
    for m, spec in enumerate(GOLDEN["models"].values()):
        model = spec if isinstance(spec, str) else _model(spec)
        config = SearchConfig(**GOLDEN["configs"][1])
        expected = GOLDEN["fingerprints"][index][m][1]
        request = api.InductionRequest(text, model, config=config)
        assert request.fingerprint() == expected[0]
        assert request.replace(method="greedy").fingerprint() == expected[1]
        assert request.replace(vn="on").fingerprint() == expected[2]
        wire = protocol.request_to_wire(request.replace(vn="on"))
        assert protocol.request_from_wire(wire).fingerprint() == expected[2]
