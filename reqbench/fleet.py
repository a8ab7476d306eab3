"""Served fleets: ``repro serve`` or ``repro cluster serve|route`` daemons.

Each daemon is its own ``python -m repro ...`` process in a new session,
started from the checkout root with a fixed, *relative* unix endpoint under
the benchmark's run directory.  Daemons start one at a time (nodes before
the router), so set-up time is the sum of their start-up times rather
than a race between them.  Relative endpoints keep node names, and
with them hash-ring ownership, identical in every run and every checkout.
Readiness is the first answered ``ping``; a fleet is stopped with the
``shutdown`` op, and :meth:`Fleet.stop` raises if any process of the fleet
(daemons and their worker processes) is still alive afterwards.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.service import ServiceClient
from repro.service.endpoint import Endpoint

RUN_DIR = "reqbench/.run"
PING_INTERVAL_S = 0.002
READY_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 30.0


class FleetError(RuntimeError):
    """A fleet failed to start or left a process behind."""


def _url(name: str) -> str:
    return f"unix://{RUN_DIR}/{name}.sock"


def _status(pid: int) -> dict[str, str]:
    fields = {}
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            fields[key] = value.strip()
    return fields


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        return not _status(pid).get("State", "").startswith("Z")
    except OSError:
        return False


def peak_rss_mb(pid: int) -> float:
    """The process's peak resident set (``VmHWM``) in MB, 0 if gone."""
    try:
        hwm = _status(pid).get("VmHWM", "0 kB").split()[0]
    except OSError:
        return 0.0
    return int(hwm) / 1024.0


def descendants(roots: list[int]) -> list[int]:
    """Every live process below ``roots`` (found by walking ``/proc``)."""
    parent: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces; ppid follows its closing paren.
        parent[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    found: list[int] = []
    frontier = list(roots)
    while frontier:
        pid = frontier.pop()
        kids = [child for child, ppid in parent.items() if ppid == pid]
        found.extend(kids)
        frontier.extend(kids)
    return found


class Fleet:
    """One served fleet: ``kind`` is ``"service"`` or ``"routed"``."""

    NODES = 3

    def __init__(self, kind: str, root: Path) -> None:
        self.root = root
        self.procs: dict[str, subprocess.Popen] = {}
        self._logs: list = []
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src") + \
            (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self._env = env
        if kind == "service":
            self.commands = {"service": [
                "serve", "--socket", _url("service"), "--jobs", "1"]}
            self.front = "service"
        elif kind == "routed":
            peers = [_url(f"node{i}") for i in range(self.NODES)]
            self.commands = {
                f"node{i}": ["cluster", "serve", "--socket", peers[i],
                             "--peers", *peers, "--jobs", "1"]
                for i in range(self.NODES)}
            self.commands["router"] = ["cluster", "route", "--socket",
                                       _url("router"), "--peers", *peers]
            self.front = "router"
        else:
            raise ValueError(f"unknown fleet kind {kind!r}")

    def endpoint(self, name: str | None = None) -> Endpoint:
        return Endpoint.parse(_url(name or self.front))

    @property
    def nodes(self) -> list[str]:
        return [name for name in self.commands if name.startswith("node")]

    def start(self, between=None) -> list[float]:
        """Launch the daemons one after another, each once the previous
        answers ``ping``; returns each daemon's seconds from launch to its
        first answered ``ping``.  ``between()`` runs before the first
        launch and after every daemon is ready, outside those intervals."""
        run_dir = self.root / RUN_DIR
        run_dir.mkdir(parents=True, exist_ok=True)
        took = []
        for name, args in self.commands.items():
            if between is not None:
                between()
            started = time.perf_counter()
            (run_dir / f"{name}.sock").unlink(missing_ok=True)
            log = open(run_dir / f"{name}.log", "w")
            self._logs.append(log)
            proc = self.procs[name] = subprocess.Popen(
                [sys.executable, "-m", "repro", *args], cwd=self.root,
                env=self._env, stdin=subprocess.DEVNULL, stdout=log,
                stderr=subprocess.STDOUT, start_new_session=True)
            client = ServiceClient(self.endpoint(name), timeout=5.0)
            while not client.ping():
                if proc.poll() is not None:
                    raise FleetError(f"{name} exited during start-up; see "
                                     f"{RUN_DIR}/{name}.log")
                if time.perf_counter() - started > READY_TIMEOUT_S:
                    raise FleetError(f"{name} not ready after "
                                     f"{READY_TIMEOUT_S:.0f}s")
                time.sleep(PING_INTERVAL_S)
            took.append(time.perf_counter() - started)
        if between is not None:
            between()
        return took

    def pids(self) -> list[int]:
        roots = [proc.pid for proc in self.procs.values()]
        return roots + descendants(roots)

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in self.pids())

    def node_stats(self) -> list[dict]:
        return [ServiceClient(self.endpoint(name), timeout=10.0).stats()
                for name in self.nodes]

    def stop(self) -> None:
        """Shut every daemon down, front door first; raise on leftovers."""
        pids = self.pids()
        errors = []
        for name in sorted(self.procs, key=lambda n: n != self.front):
            if self.procs[name].poll() is None:
                try:
                    ServiceClient(self.endpoint(name),
                                  timeout=EXIT_TIMEOUT_S).shutdown()
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(f"{name}: shutdown failed: {exc}")
        for name, proc in self.procs.items():
            try:
                proc.wait(timeout=EXIT_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                errors.append(f"{name} did not exit after shutdown")
        deadline = time.monotonic() + EXIT_TIMEOUT_S
        while any(alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.01)
        left = [pid for pid in pids if alive(pid)]
        if left:
            errors.append(f"processes still alive after shutdown: {left}")
        self.kill()
        if errors:
            raise FleetError("; ".join(errors))

    def kill(self) -> None:
        """Last resort: kill each daemon's session and reap it."""
        for proc in self.procs.values():
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            proc.wait()
        for log in self._logs:
            log.close()
        self._logs = []
