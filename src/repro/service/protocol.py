"""Wire protocol for the induction service.

Framing: every message is one length-prefixed JSON object — a 4-byte
big-endian length followed by that many UTF-8 bytes.  The transport is a
connected stream socket, either ``AF_UNIX`` (``unix:///path``) or
``AF_INET`` on loopback (``tcp://host:port``); see
:class:`~repro.service.endpoint.Endpoint`.  This is the real-transport
sibling of the *simulated* IPC models in :mod:`repro.models`: requests
flow over a shared stream like
:class:`~repro.models.pipes.PipeModel`'s request pipe, and the address
syntax mirrors the pipe-vs-datagram split of §3.2/§3.3.

A connection carries any number of request/reply exchanges, one at a
time.  Clients keep theirs open across requests and reopen once when a
kept-alive connection turns out to be closed (:func:`exchange`); a
stopping daemon closes its idle connections.

Requests are flat JSON objects with an ``op``:

- ``submit`` — one induction request (region text, model payload or name,
  method, budget/config, deadline, optional ``chaos`` fault injection
  honoured only by test servers).  A method outside
  :data:`repro.api.METHODS` is a ``bad submit payload: unknown method``
  error;
- ``stats`` — service metrics snapshot;
- ``ping`` — liveness probe;
- ``flightrec`` — recent captured request digests (``slow``/``failed``
  filters, ``last`` N);
- ``slo`` — objective/window burn-rate status;
- ``shutdown`` — drain in-flight requests, then stop (reply arrives after
  the drain completes).

Replies carry ``status``: ``ok`` (with a unified result payload), ``busy``
(admission control shed the request), ``error`` (malformed request — never
used for deadline expiry or worker crashes, which degrade instead),
``pong``, ``stats``, ``flightrec``, ``slo``.

A client's submit is a :class:`Submit`, encoded as :func:`send_message`
sends it.  A submit's keys and values are defined once, in the sorted
order every frame has its keys in; the frame is their text, byte for
byte the text of :func:`request_to_wire`'s dict (the form in-process
callers take), so no daemon digest, fingerprint or cache entry depends
on which one a caller used.  What a client's requests share is encoded
once: a custom model's text per :class:`CostModel` instance and a
config's per type-exact value.  The request's own fields (region,
method, vn, deadline, routing, chaos, trace context) are encoded each
time.  A reply is decoded once, by :func:`recv_message`, and
:func:`repro.service.client.read_reply` builds the result straight from
that dict (:func:`repro.core.result.result_from_payload`).

Inside a daemon, an ``ok`` result is one :class:`ResultText`: a cache
entry's JSON text plus this request's own fields.  A hit carries the text
its cache holds; a miss, a degraded fallback and a router forward encode
their entry once, and that one text is both stored and sent.
:func:`send_message` splices the fields in before the text's closing
brace, last, so they win on decode, and the peer ``cache_get`` op sends a
stored entry the same way: no daemon decodes or re-encodes an entry to
answer with it.  An in-process reader reads a result's fields, or decodes
it with :func:`decode_result` into the dict a client would receive.

A submit that carried a ``trace_ctx`` gets its reply's ``result["obs"]``
populated with the server-side span records (and, via the router, the
routing spans), which :func:`repro.service.client.read_reply` replays
into the caller's tracer — one trace id end to end.

A repeated submit costs one digest on every served hop.  The client sends
``region`` text unchanged and renders only a parsed
:class:`~repro.core.ops.Region`.  Each daemon (server and router) owns a
:class:`SubmitMemo` from a digest of the submit's fingerprint keys to the
fingerprint :func:`request_from_wire` gave the first time; parsing is
pure, so only a first-seen submit parses, and one that fails to parse is
an error and is never remembered.  Caches, single-flight and the hash ring
stay keyed by the fingerprint, so textual variants of one region (spacing,
comments) still share one entry.  No daemon takes a fingerprint from a
client: one wrong fingerprint would answer every later request for it,
through every cache tier.
"""

from __future__ import annotations

import functools
import hashlib
import json
import marshal
import socket
import struct
import threading
from collections import OrderedDict
from typing import Any, Callable, Mapping

from repro.api import InductionRequest, valid_deadline
from repro.core.cache import RULE_KEYS, encode_entry
from repro.core.costmodel import CostModel
from repro.core.ops import parse_region
from repro.core.search import SearchConfig
from repro.obs import Counters, current_context

__all__ = [
    "ProtocolError",
    "ResultText",
    "Submit",
    "SubmitMemo",
    "decode_result",
    "exchange",
    "model_from_payload",
    "model_to_payload",
    "recv_message",
    "request_from_wire",
    "request_to_wire",
    "send_message",
]

_LEN = struct.Struct(">I")

#: Upper bound on one frame; a region would have to be absurd to hit it,
#: so anything larger is a protocol violation, not data.
MAX_FRAME = 16 * 1024 * 1024


class ProtocolError(ValueError):
    """Raised on malformed frames or payloads."""


# -- results as text --------------------------------------------------------

#: JSON's whitespace: all that may surround an object's text.
_JSON_WS = " \t\n\r"

#: Built once, as ``json.dumps`` with options builds an encoder per call.
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode
_ENCODE_SORTED = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


class ResultText:
    """An ``ok`` result as a daemon holds it: JSON text plus own fields.

    ``text`` is one JSON object — a cache entry as stored, or as
    :meth:`encode` just made it.  ``fields`` belong to this request alone:
    the keys :func:`~repro.core.cache.encode_entry` splits off
    (``cache_hit``, ``wall_s``, ``retries``, and ``obs`` when spans are
    stitched) and the daemons' extras (``deduped``, ``queue_wait_s``,
    ``server_wall_s``, ``disposition``, ``router_cache``,
    ``router_dedup``).
    :func:`send_message` writes :meth:`splice`: the fields go in before
    the text's closing brace, last, so a field wins over a same-named key
    in the text when the frame is decoded.  ``flags`` holds the text's
    own :data:`~repro.core.cache.RULE_KEYS`, for in-process readers: the
    cache's store rule and :attr:`degraded` read them (a stored entry's
    value has none: it passed the rule).

    A value is never changed: :meth:`with_fields` makes a new one that
    shares the text, so the requests of one flight share the text but
    never one fields dict.  A worker process replies with one.
    """

    __slots__ = ("text", "fields", "flags", "degraded")

    def __init__(self, text: str, fields: dict[str, Any] | None = None,
                 flags: Mapping[str, Any] | None = None) -> None:
        self.text = text
        self.fields = fields if fields is not None else {}
        self.flags = flags if flags is not None else {}
        self.degraded = bool(self.flags.get("degraded"))

    @classmethod
    def encode(cls, payload: Mapping[str, Any], **fields: Any
               ) -> "ResultText":
        """``payload`` encoded once: its entry as text, the rest (and
        ``fields``) as this request's fields."""
        text, own = encode_entry(payload)
        own.update(fields)
        return cls(text, own, {key: payload[key] for key in RULE_KEYS
                               if key in payload})

    def with_fields(self, **fields: Any) -> "ResultText":
        """The same text with ``fields`` added to (or replacing) its own."""
        return ResultText(self.text, {**self.fields, **fields}, self.flags)

    def splice(self) -> str:
        """The JSON text a receiver decodes: the text, then the fields."""
        if not self.fields:
            return self.text
        head = self.text.rstrip(_JSON_WS)[:-1].rstrip(_JSON_WS)
        tail = _ENCODE(self.fields)
        # An object's text before its closing brace ends in ``{`` only
        # when the object is empty.
        return head + ("" if head.endswith("{") else ",") + tail[1:]


def decode_result(result: Any) -> Any:
    """A reply's result as its receiver gets it: a :class:`ResultText`
    decoded from its spliced text, anything else as it is."""
    if isinstance(result, ResultText):
        return json.loads(result.splice())
    return result


# -- framing ---------------------------------------------------------------


def _frame_text(obj: Mapping[str, Any]) -> str:
    """``obj``'s JSON text, each :class:`ResultText` value spliced in."""
    # A key is encoded by json.dumps's own default encoder, which it
    # builds once: only a call with options builds one per call.
    spliced = [f"{json.dumps(key)}:{value.splice()}"
               for key, value in obj.items() if isinstance(value, ResultText)]
    if not spliced:
        return _ENCODE_SORTED(obj)
    rest = _ENCODE_SORTED({key: value for key, value in obj.items()
                           if not isinstance(value, ResultText)})
    if rest != "{}":
        spliced.append(rest[1:-1])
    return "{" + ",".join(spliced) + "}"


def send_message(sock: socket.socket, obj: Mapping[str, Any] | Submit
                 ) -> None:
    """Write one framed JSON message: a mapping (each :class:`ResultText`
    value spliced in) or a :class:`Submit`'s text."""
    text = obj.text() if isinstance(obj, Submit) else _frame_text(obj)
    body = text.encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds {MAX_FRAME}")
    sock.sendall(_LEN.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """``n`` bytes, or None if the peer hung up before sending any of them.

    A reset before the first byte counts as a hang-up too; a peer that
    stops partway is a protocol error.
    """
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except ConnectionResetError:
            if chunks:
                raise
            return None
        if not chunk:
            if chunks:
                raise ProtocolError("connection closed mid-frame")
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> dict[str, Any] | None:
    """Read one framed JSON message; None if the peer hung up first."""
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME}")
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed mid-frame")
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad frame: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(f"frame is {type(obj).__name__}, expected object")
    return obj


def exchange(sock: socket.socket | None, message: Mapping[str, Any] | Submit,
             connect: Callable[[], socket.socket],
             ) -> tuple[socket.socket, dict[str, Any]]:
    """One request/reply over a kept-alive connection, reconnecting once.

    ``sock`` is an open connection to reuse, or None; ``connect()`` opens
    a fresh one.  If the peer closed ``sock`` before any byte of the reply
    — it restarted, say — ``sock`` is closed and the exchange retried once
    on a fresh connection.  Returns the connection that carried the
    exchange and the reply.  Any failure closes the connection in hand and
    raises :class:`OSError` or :class:`ProtocolError`.
    """
    for fresh in ((False, True) if sock is not None else (True,)):
        if fresh:
            sock = connect()
        try:
            try:
                send_message(sock, message)
            except ConnectionError:
                reply = None
            else:
                reply = recv_message(sock)
        except BaseException:
            sock.close()
            raise
        if reply is not None:
            return sock, reply
        sock.close()
    raise ProtocolError("peer closed the connection before replying")


# -- addresses -------------------------------------------------------------


def connect(spec, timeout: float | None = None) -> socket.socket:
    """Open a client connection to an :class:`Endpoint` or its URL string."""
    from repro.service.endpoint import Endpoint

    try:
        endpoint = Endpoint.parse(spec)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc
    return endpoint.connect(timeout)


# -- request (de)serialization --------------------------------------------


def model_to_payload(model: CostModel | str) -> dict | str:
    """Named models travel as their name; custom models as full parameters."""
    if isinstance(model, str):
        return model
    return {
        "class_of": dict(model.class_of),
        "class_cost": dict(model.class_cost),
        "mask_overhead": model.mask_overhead,
        "default_cost": model.default_cost,
        "require_equal_imm": model.require_equal_imm,
    }


def model_from_payload(payload: Mapping[str, Any] | str) -> CostModel | str:
    if isinstance(payload, str):
        return payload
    try:
        return CostModel(
            class_of=dict(payload["class_of"]),
            class_cost=dict(payload["class_cost"]),
            mask_overhead=float(payload["mask_overhead"]),
            default_cost=float(payload["default_cost"]),
            require_equal_imm=bool(payload["require_equal_imm"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad model payload: {exc}") from exc


#: Entries each submit-text memo keeps: a process sends few distinct
#: models and configs.  The memos are process-wide, not a client's:
#: ``api.induce(request, client=<endpoint>)`` makes a client per call.
_MEMO_SIZE = 64

#: ``id(model)`` -> ``(model, its JSON text)``.  An entry holds its
#: model, so no other object can take that id while it is here.
_MODEL_TEXTS: dict[int, tuple[CostModel, str]] = {}


def _model_text(model: CostModel | str) -> str:
    """A submit's ``model`` text, encoded once per :class:`CostModel`.

    A model is frozen and its mappings are read-only copies, so one
    instance always has the same text.
    """
    if isinstance(model, str):
        return _ENCODE(model)
    memo = _MODEL_TEXTS.get(id(model))
    if memo is not None:
        return memo[1]
    text = _ENCODE_SORTED(model_to_payload(model))
    if type(model) is CostModel:
        if len(_MODEL_TEXTS) >= _MEMO_SIZE:
            _MODEL_TEXTS.clear()
        _MODEL_TEXTS[id(model)] = (model, text)
    return text


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _config_text_of(key: bytes) -> str:
    """The text of the config fields ``key`` holds marshalled."""
    return _ENCODE_SORTED(marshal.loads(key))


def _config_text(config: SearchConfig) -> str:
    """A submit's ``config`` text, encoded once per type-exact value.

    Equal configs can differ in text (``node_budget`` 7, 7.0 and True),
    so the memo is keyed by the marshal bytes of the config's fields, as
    :class:`SubmitMemo` keys submits; a value marshal refuses is encoded
    every time.
    """
    fields = vars(config)
    try:
        key = marshal.dumps(fields, 2)
    except ValueError:
        return _ENCODE_SORTED(fields)
    return _config_text_of(key)


def _submit_fields(request: InductionRequest,
                   chaos: Mapping[str, Any] | None) -> list[tuple[str, Any]]:
    """A submit's keys and values, in the sorted order its frame has.

    The one definition of a submit's wire form: :func:`request_to_wire`
    makes it a dict and :meth:`Submit.text` its frame text, each turning
    the request's own ``model`` and ``config`` objects into a payload or
    a memoized text.
    """
    region = request.region
    fields: list[tuple[str, Any]] = []
    if chaos:
        fields.append(("chaos", dict(chaos)))
    fields.append(("config", request.resolved_config()))
    if request.deadline_s is not None:
        fields.append(("deadline_s", request.deadline_s))
    fields.append(("method", request.method))
    fields.append(("model", request.model))
    fields.append(("op", "submit"))
    # Region text travels as given, unparsed: the daemon that receives it
    # checks it.  Only a parsed Region is rendered.
    fields.append(("region", region if isinstance(region, str)
                   else region.render()))
    if request.routing:
        # Routing metadata is additive: pre-cluster servers rebuild the
        # request from the keys they know and never see this one.
        fields.append(("routing", dict(request.routing)))
    # Span context rides the wire so a client-side trace continues through
    # the server's threads and worker processes as one trace id.
    ctx = current_context()
    if ctx is not None:
        fields.append(("trace_ctx", ctx))
    if request.vn != "off":
        # Additive key: pre-vn servers rebuild from the keys they know.
        fields.append(("vn", request.vn))
    return fields


def request_to_wire(request: InductionRequest,
                    chaos: Mapping[str, Any] | None = None) -> dict[str, Any]:
    """Wire form of a submit as a dict, for in-process callers; live
    handles (cache/tracer) stay local.  A client sends a :class:`Submit`,
    whose frame is this dict's text."""
    wire = dict(_submit_fields(request, chaos))
    wire["model"] = model_to_payload(wire["model"])
    # The config's fields by name: dataclasses.asdict without its deep
    # copy of a flat record of scalars.
    wire["config"] = dict(vars(wire["config"]))
    return wire


#: The submit fields whose text is memoized; the rest are encoded each
#: time.
_FIELD_TEXT = {"model": _model_text, "config": _config_text}


class Submit:
    """A client's submit, encoded when :func:`send_message` sends it: the
    text of :func:`request_to_wire`'s dict, byte for byte, with the model
    and config text memoized, and the trace context current then."""

    __slots__ = ("request", "chaos")

    def __init__(self, request: InductionRequest,
                 chaos: Mapping[str, Any] | None = None) -> None:
        self.request = request
        self.chaos = chaos

    def text(self) -> str:
        """The submit's frame text."""
        return "{" + ",".join([
            f'"{key}":{_FIELD_TEXT.get(key, _ENCODE_SORTED)(value)}'
            for key, value in _submit_fields(self.request, self.chaos)
        ]) + "}"


def _check_unkeyed(wire: Mapping[str, Any]) -> None:
    """Refuse what the fingerprint keys leave out of a submit.

    A nonzero ``window`` asks for a windowed schedule, which no server
    computes (older clients send ``window: 0`` and ``jobs`` on every
    submit; both are ignored), and ``deadline_s`` must pass
    :func:`~repro.api.valid_deadline`, the rule a local request keeps.
    :class:`SubmitMemo` checks these on every submit, hit or not.
    """
    try:
        window = int(wire.get("window", 0))
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad submit payload: {exc}") from exc
    if window:
        raise ProtocolError(
            "bad submit payload: windowed induction was removed; "
            "submit the whole region")
    deadline_s = wire.get("deadline_s")
    if deadline_s is not None and not valid_deadline(deadline_s):
        raise ProtocolError(
            f"bad submit payload: deadline must be a positive finite "
            f"number of seconds, got {deadline_s!r}")


def request_from_wire(wire: Mapping[str, Any]) -> InductionRequest:
    """Rebuild an :class:`InductionRequest` server-side (validating).

    The region text is parsed and a named model resolved here: the
    returned request carries the :class:`Region` and :class:`CostModel`
    that its fingerprint and degraded fallback reuse, and malformed text
    is a ``bad submit payload`` error, not a crash.  A daemon calls it
    for a submit its :class:`SubmitMemo` has not seen and on the rare
    paths that need the request itself; a worker, for every search.

    Older clients still send keys for knobs the request does not have.
    ``verify``, ``jobs`` and ``window: 0`` (the whole region) are ignored;
    a nonzero ``window`` is refused (:func:`_check_unkeyed`).
    """
    _check_unkeyed(wire)
    try:
        text = wire["region"]
        if not isinstance(text, str):
            raise TypeError(f"region must be text, not {type(text).__name__}")
        config = SearchConfig(**wire["config"]) if "config" in wire else None
        request = InductionRequest(
            region=parse_region(text),
            model=model_from_payload(wire.get("model", "maspar")),
            method=wire.get("method", "search"),
            config=config,
            deadline_s=wire.get("deadline_s"),
            vn=str(wire.get("vn", "off")),
            routing=wire.get("routing"),
        )
        request.model = request.resolved_model()
        return request
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad submit payload: {exc}") from exc


#: The submit keys a request's fingerprint depends on.  The rest
#: (``deadline_s``, ``routing``, ``trace_ctx``, ``chaos``) never change it.
_FINGERPRINT_KEYS = ("region", "model", "method", "config", "vn")

#: Submits a :class:`SubmitMemo` remembers: a digest and a fingerprint
#: each, so a full memo holds about a megabyte.
SUBMIT_MEMO_SIZE = 4096


class SubmitMemo:
    """A daemon's memo: digest of a submit's fingerprint keys → fingerprint.

    :meth:`fingerprint` gives what ``request_from_wire(wire).fingerprint()``
    gives, but parses only a submit whose keys it has not seen: parsing is
    pure, so equal keys give an equal fingerprint, and a repeat costs one
    SHA-256 of those keys.  A submit that fails to parse raises and is
    never remembered.  The memo lives in memory only, is bounded LRU
    (:data:`SUBMIT_MEMO_SIZE`), and counts ``submit_memo_hits`` and
    ``submit_memo_misses`` in its owner's ``counters``.  The server and
    the router each own one.
    """

    def __init__(self, counters: Counters) -> None:
        self._counters = counters
        self._fingerprints: OrderedDict[bytes, str] = OrderedDict()
        self._lock = threading.Lock()

    def fingerprint(self, wire: Mapping[str, Any]) -> str:
        """The fingerprint of the submit ``wire``.

        Raises :class:`ProtocolError` for a malformed submit, the same as
        :func:`request_from_wire`; ``window`` and ``deadline_s``, which the
        digest leaves out, are checked every time.
        """
        _check_unkeyed(wire)
        keys = [wire.get(key) for key in _FINGERPRINT_KEYS]
        try:
            # marshal is type-exact (1, 1.0 and True differ, and so do 0.0
            # and -0.0) and formats no float; version 2 writes no refs or
            # intern flags, so equal keys give equal bytes.  Dict keys
            # keep the frame's order: a client that orders them
            # differently costs one more miss, no wrong hit.
            key = hashlib.sha256(marshal.dumps(keys, 2)).digest()
        except ValueError:
            # A value no JSON frame decodes to (an in-process caller's
            # str subclass, say): parse it, and remember nothing.
            self._counters.bump("submit_memo_misses")
            return request_from_wire(wire).fingerprint()
        with self._lock:
            fingerprint = self._fingerprints.get(key)
            if fingerprint is not None:
                self._fingerprints.move_to_end(key)
        if fingerprint is not None:
            self._counters.bump("submit_memo_hits")
            return fingerprint
        self._counters.bump("submit_memo_misses")
        fingerprint = request_from_wire(wire).fingerprint()
        with self._lock:
            self._fingerprints[key] = fingerprint
            if len(self._fingerprints) > SUBMIT_MEMO_SIZE:
                self._fingerprints.popitem(last=False)
        return fingerprint
