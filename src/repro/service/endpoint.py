"""Typed service addresses: the one way to say *where* a service lives.

Before this module every connection-taking signature — the client, the
server config, ``api.induce(client=...)``, half a dozen CLI flags — took a
bare string whose meaning depended on whether it contained a colon.  That
convention was never written down anywhere callers could see it, broke for
IPv6 hosts, and made it impossible to type-check a cluster configuration
(a list of such strings says nothing).  :class:`Endpoint` replaces it:

- ``unix:///tmp/repro.sock`` — a unix stream socket at that path;
- ``tcp://host:port``        — a TCP stream socket (loopback by default).

``Endpoint.parse`` accepts exactly these two URL forms and round-trips
through ``str()``; every library signature in :mod:`repro.service`,
:mod:`repro.cluster` and :mod:`repro.api` takes an :class:`Endpoint` or its
URL string through it, so a bare string raises :class:`ValueError` naming
the URL forms.  Only the CLI's address flags also accept the bare forms
(``/tmp/repro.sock``, ``host:port``), via :meth:`Endpoint.parse_lenient`.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass

__all__ = ["Endpoint"]


@dataclass(frozen=True, order=True)
class Endpoint:
    """One service address: a unix-socket path or a TCP ``host:port``.

    Immutable and hashable, so endpoints key dictionaries (per-node
    counters, membership tables) and land on consistent-hash rings
    directly.  ``str(endpoint)`` is the canonical URL form and
    ``Endpoint.parse(str(endpoint)) == endpoint`` always holds.
    """

    scheme: str
    #: Unix-socket path (``scheme == "unix"``) — empty for TCP.
    path: str = ""
    #: TCP host/port (``scheme == "tcp"``) — empty/0 for unix.
    host: str = ""
    port: int = 0

    def __post_init__(self) -> None:
        if self.scheme == "unix":
            if not self.path:
                raise ValueError("unix endpoint needs a socket path")
            if self.host or self.port:
                raise ValueError("unix endpoint cannot carry host/port")
        elif self.scheme == "tcp":
            if self.path:
                raise ValueError("tcp endpoint cannot carry a path")
            if not self.host:
                raise ValueError("tcp endpoint needs a host")
            if not 0 <= self.port <= 65535:
                raise ValueError(f"bad tcp port {self.port}")
        else:
            raise ValueError(
                f"unknown endpoint scheme {self.scheme!r}; "
                "expected 'unix' or 'tcp'")

    # -- constructors ------------------------------------------------------

    @classmethod
    def unix(cls, path: str) -> "Endpoint":
        return cls(scheme="unix", path=str(path))

    @classmethod
    def tcp(cls, host: str, port: int) -> "Endpoint":
        return cls(scheme="tcp", host=host or "127.0.0.1", port=int(port))

    @classmethod
    def parse(cls, spec: str) -> "Endpoint":
        """Parse the canonical URL forms (and only those).

        ``unix:///path`` (also ``unix:/path``) and ``tcp://host:port``.
        Raises :class:`ValueError` for anything else — including the bare
        forms, which only the CLI's :meth:`parse_lenient` accepts.
        """
        if isinstance(spec, Endpoint):
            return spec
        text = str(spec).strip()
        if text.startswith("unix://"):
            path = text[len("unix://"):]
            # unix:///tmp/x.sock -> /tmp/x.sock ; unix://rel.sock -> rel.sock
            return cls.unix(path)
        if text.startswith("unix:"):
            return cls.unix(text[len("unix:"):])
        if text.startswith("tcp://"):
            rest = text[len("tcp://"):]
            host, sep, port = rest.rpartition(":")
            if not sep:
                raise ValueError(f"tcp endpoint {spec!r} needs host:port")
            if host.startswith("[") and host.endswith("]"):
                host = host[1:-1]
            try:
                return cls.tcp(host, int(port))
            except ValueError as exc:
                raise ValueError(f"bad tcp endpoint {spec!r}") from exc
        raise ValueError(
            f"bad endpoint {spec!r}; expected unix:///path or tcp://host:port")

    @classmethod
    def parse_lenient(cls, spec: "Endpoint | str") -> "Endpoint":
        """Parse URL forms *or* the bare forms (CLI address flags only).

        ``--socket /tmp/repro.sock`` and ``--socket host:port`` are
        documented CLI syntax; library signatures use :meth:`parse`.
        """
        if isinstance(spec, Endpoint):
            return spec
        text = str(spec).strip()
        if not text:
            raise ValueError("empty endpoint")
        if text.startswith(("unix:", "tcp:")):
            return cls.parse(text)
        if ":" in text:
            host, _, port = text.rpartition(":")
            try:
                return cls.tcp(host, int(port))
            except ValueError as exc:
                raise ValueError(f"bad endpoint {spec!r}") from exc
        return cls.unix(text)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if self.scheme == "unix":
            return f"unix://{self.path}"
        host = f"[{self.host}]" if ":" in self.host else self.host
        return f"tcp://{host}:{self.port}"

    @property
    def label(self) -> str:
        """A short metrics-safe identifier (``[a-z0-9_]``) for this node.

        Derived from the bare form (socket path, or ``host:port``), so
        ``unix:///tmp/clu/n0.sock`` labels as ``tmp_clu_n0_sock``.
        """
        bare = self.path if self.scheme == "unix" \
            else f"{self.host}:{self.port}"
        out = []
        for ch in bare.lower():
            out.append(ch if ch.isalnum() else "_")
        return "".join(out).strip("_") or "endpoint"

    # -- sockets -----------------------------------------------------------

    def _family_target(self) -> tuple[int, object]:
        if self.scheme == "unix":
            return socket.AF_UNIX, self.path
        return socket.AF_INET, (self.host, self.port)

    def connect(self, timeout: float | None = None) -> socket.socket:
        """Open a connected client stream socket to this endpoint."""
        family, target = self._family_target()
        sock = socket.socket(family, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        try:
            sock.connect(target)
        except BaseException:
            sock.close()
            raise
        return sock

    def bind(self, backlog: int = 64) -> socket.socket:
        """Bind and listen a server socket (unlinking a stale unix path)."""
        family, target = self._family_target()
        sock = socket.socket(family, socket.SOCK_STREAM)
        if self.scheme == "unix":
            import os
            try:
                os.unlink(self.path)
            except FileNotFoundError:
                pass
        else:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(target)
        sock.listen(backlog)
        return sock

    def resolved(self, sock: socket.socket) -> "Endpoint":
        """This endpoint with the real bound port (for ``tcp://host:0``)."""
        if self.scheme == "tcp" and self.port == 0:
            host, port = sock.getsockname()[:2]
            return Endpoint.tcp(self.host or host, port)
        return self
