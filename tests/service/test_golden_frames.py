"""A client's submit frames are pinned byte for byte.

Daemons digest a submit's keys for their memo, fingerprint it, and key
caches and the hash ring by that fingerprint, so a submit frame must not
change when the client encodes it differently.  ``golden_frames.json``
holds frames made by an earlier implementation, which encoded
``request_to_wire``'s dict whole with a sorted-key encoder on every
send: the client's encoder (:class:`~repro.service.protocol.Submit`,
which encodes a model's and a config's text once) must reproduce them.
The fixture spans named and custom models, ``budget``, an explicit
config, every method knob the wire carries (``vn``, ``deadline_s``,
``routing``, ``chaos``, an ambient trace context), parsed and text
regions, and values that compare equal but encode differently (budget
7, 7.0 and True; mask overhead 1 and 1.0), sent one after another.
"""

import json
import socket
from pathlib import Path

import pytest

from repro.api import InductionRequest
from repro.core.costmodel import CostModel
from repro.core.ops import parse_region
from repro.core.search import SearchConfig
from repro.obs import attach_context
from repro.service import protocol

GOLDEN = json.loads(
    (Path(__file__).with_name("golden_frames.json"))
    .read_text(encoding="utf-8"))


def _request(case):
    variant = GOLDEN["variants"][case["variant"]]
    kwargs = dict(variant["request"])
    if "config" in kwargs:
        kwargs["config"] = SearchConfig(**kwargs["config"])
    text = GOLDEN["regions"][case["region"]]
    spec = GOLDEN["models"][case["model"]]
    return InductionRequest(
        region=parse_region(text) if case["parsed"] else text,
        model=spec if isinstance(spec, str) else CostModel(**spec), **kwargs)


def _cases():
    """Each case's request, chaos and trace context, in fixture order.

    Custom models are built once per fixture name and shared by the
    cases that name them, as a client shares one model between its
    requests, so the model memo is warm from the second case on.
    """
    models: dict[str, CostModel] = {}
    for case in GOLDEN["cases"]:
        request = _request(case)
        if not isinstance(request.model, str):
            request = request.replace(
                model=models.setdefault(case["model"], request.model))
        variant = GOLDEN["variants"][case["variant"]]
        yield case, request, variant["chaos"], variant["trace_ctx"]


def _frame(request, chaos, ctx):
    with attach_context(ctx):
        return protocol.Submit(request, chaos).text()


def test_fixture_spans_what_it_claims():
    cases = GOLDEN["cases"]
    assert len(cases) == 49
    models = {case["model"] for case in cases}
    assert {"maspar", "uniform"} <= models
    assert {"micro", "custom-class-of", "mask-1-int", "mask-1-float"} <= models
    frames = [json.loads(case["frame"]) for case in cases]
    for key in ("chaos", "deadline_s", "routing", "trace_ctx", "vn"):
        assert any(key in frame for frame in frames), key
    assert any(case["parsed"] for case in cases)
    assert any("config" in GOLDEN["variants"][case["variant"]]["request"]
               for case in cases)
    budgets = [frame["config"]["node_budget"] for frame in frames[1:5]]
    assert budgets == [7, 7.0, True, 7]
    assert [type(b) for b in budgets] == [int, float, bool, int]


def test_client_frames_reproduce_byte_for_byte():
    # One pass in fixture order: the type-exact pairs are encoded one
    # after another, so a memo that keyed them by equality would answer
    # the second with the first one's text.
    for case, request, chaos, ctx in _cases():
        assert _frame(request, chaos, ctx) == case["frame"], case


@pytest.mark.parametrize("values", [(7, 7.0, True, 7), (True, 7.0, 7)])
def test_equal_budgets_keep_their_own_text(values):
    text = GOLDEN["regions"][3]
    frames = [protocol.Submit(InductionRequest(text, budget=value)).text()
              for value in values]
    assert [json.loads(frame)["config"]["node_budget"]
            for frame in frames] == list(values)
    assert [type(json.loads(frame)["config"]["node_budget"])
            for frame in frames] == [type(value) for value in values]


def test_equal_models_keep_their_own_text():
    spec = GOLDEN["models"]["mask-1-int"]
    one = CostModel(**spec)
    one_point_zero = CostModel(**{**spec, "mask_overhead": 1.0})
    assert one == one_point_zero
    text = GOLDEN["regions"][3]
    for model, expected in ((one, "1"), (one_point_zero, "1.0"),
                            (one, "1")):
        frame = protocol.Submit(InductionRequest(text, model)).text()
        assert f'"mask_overhead":{expected},' in frame


def test_frames_decode_to_request_to_wire():
    """The dict in-process callers take is the frame's own value."""
    for _case, request, chaos, ctx in _cases():
        with attach_context(ctx):
            wire = protocol.request_to_wire(request, chaos)
        assert json.loads(_frame(request, chaos, ctx)) == wire


def test_send_message_writes_the_frame():
    case, request, chaos, ctx = list(_cases())[-1]
    left, right = socket.socketpair()
    with left, right:
        right.settimeout(5.0)
        with attach_context(ctx):
            protocol.send_message(left, protocol.Submit(request, chaos))
        header = protocol._recv_exact(right, 4)
        body = protocol._recv_exact(right, int.from_bytes(header, "big"))
        assert body == case["frame"].encode("utf-8")


def test_frame_carries_the_context_current_when_sent():
    ctx = GOLDEN["variants"]["trace-ctx"]["trace_ctx"]
    message = protocol.Submit(InductionRequest(GOLDEN["regions"][3]))
    with attach_context(ctx):
        traced = json.loads(message.text())
    assert traced["trace_ctx"] == ctx
    assert "trace_ctx" not in json.loads(message.text())
