"""Per-layer ledger, measured from outside the program.

Local layers: :class:`Wrappers` replaces each public function at every
module that binds it by name with a timing wrapper; a layer's self time is
its calls' duration minus the wrapped calls nested inside them.  Served
layers: the client's connect and codec calls are wrapped the same way, and
the spans the daemons ship back to a caller that sets ``request.tracer``
give the server, worker and router layers (:func:`span_layers`).
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# (layer, module, attribute): the function object found there is wrapped
# wherever any loaded module binds it.
LOCAL_TARGETS = (
    ("pipeline", "repro.api", "induce"),
    ("ops", "repro.core.ops", "parse_region"),
    ("dag", "repro.core.dag", "build_dags"),
    ("greedy", "repro.core.greedy", "greedy_schedule"),
    ("verify", "repro.core.verify", "verify_schedule"),
    ("serial", "repro.core.serial", "serial_schedule"),
    ("serial", "repro.core.serial", "lockstep_schedule"),
    ("engines", "repro.core.search", "branch_and_bound"),
)
CLIENT_TARGETS = (
    ("codec", "repro.service.protocol", "request_to_wire"),
    ("codec", "repro.service.protocol", "send_message"),
    ("codec", "repro.service.protocol", "recv_message"),
    ("codec", "repro.core.result", "result_from_payload"),
    # The first read of a reply frame blocks until the server answers;
    # wrapping it keeps that wait out of the codec's self time.
    ("wait", "repro.service.protocol", "_recv_exact"),
)
# (layer, module, class, method): patched on the class itself.
LOCAL_METHODS = (("tables", "repro.core.costmodel", "MergeKeyTable",
                  "__init__"),)
CLIENT_METHODS = (("connect", "repro.service.endpoint", "Endpoint",
                   "connect"),)


class Wrappers:
    """Installs timing wrappers; ``self_s``/``calls`` accumulate per layer."""

    def __init__(self, targets, methods) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []
        self._targets = targets
        self._methods = methods
        self._seen: tuple[dict, dict] = ({}, {})

    def _wrap(self, layer: str, fn):
        stack, self_s, calls = self._stack, self.self_s, self.calls

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                self_s[layer] += took - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += took
        return timed

    def install(self) -> None:
        for layer, module, name in self._targets:
            original = getattr(sys.modules.get(module), name, None)
            if original is None:
                self.missing.append(f"{module}.{name}")
                continue
            timed = self._wrap(layer, original)
            for mod in list(sys.modules.values()):
                for attr, value in list(getattr(mod, "__dict__", {}).items()):
                    if value is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, timed)
        for layer, module, cls_name, name in self._methods:
            cls = getattr(sys.modules.get(module), cls_name, None)
            original = cls.__dict__.get(name) if cls is not None else None
            if original is None:
                self.missing.append(f"{module}.{cls_name}.{name}")
                continue
            self._undo.append((cls, name, original))
            setattr(cls, name, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def delta(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and calls per layer since the previous call."""
        seen_s, seen_n = self._seen
        self._seen = (dict(self.self_s), dict(self.calls))
        return ({k: v - seen_s.get(k, 0.0) for k, v in self.self_s.items()},
                {k: v - seen_n.get(k, 0) for k, v in self.calls.items()})


def _self_time(node: dict, children: list[dict]) -> float:
    """Span duration minus the part of it its child spans cover."""
    start, end = node["start_s"], node["start_s"] + node["wall_s"]
    covered, reach = 0.0, start
    for child in sorted(children, key=lambda c: c["start_s"]):
        lo = max(child["start_s"], reach)
        hi = min(child["start_s"] + child["wall_s"], end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return max(0.0, node["wall_s"] - covered)


def span_layers(events: list[dict]) -> dict[str, float]:
    """Served-layer seconds and counts for one request's span records."""
    spans = [e for e in events if e.get("kind") == "span"]
    kids: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        if s.get("parent"):
            kids[s["parent"]].append(s)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        name = s["name"]
        own = _self_time(s, kids[s["span"]])
        if name == "service.request":
            out["request_s"] += own
        elif name == "service.dispatch":
            out["dispatch_s"] += own
            if s.get("disposition") == "miss":
                out["ipc_s"] += own
        elif name == "worker.execute":
            out["execute_s"] += s["wall_s"]
        elif name == "cluster.route":
            out["route_s"] += own
            if not s.get("cached"):
                out["forwards"] += 1
        elif name == "cluster.attempt":
            out["attempts"] += 1
    return out
