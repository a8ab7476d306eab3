"""The induction service: ``repro serve`` / ``repro submit``.

The paper's CSI search is the expensive step of running MIMD code on SIMD
hardware; this package turns it from a one-shot library call into a
long-running local daemon, the "compile service" shape that MASIM- and
ComPar-style schedulers assume when they throw many kernels at one
backend.  Layout:

- :mod:`repro.service.protocol` — framed-JSON wire format over a unix or
  TCP socket (the real-transport counterpart of the simulated pipe/UDP
  models in :mod:`repro.models`);
- :mod:`repro.service.workers`  — supervised worker processes: per-request
  deadlines enforced by killing the worker, crash retry with backoff,
  graceful degradation to the greedy schedule;
- :mod:`repro.service.daemon`   — what the server and the cluster router
  share: per-connection threads, single-flight, the books each answered
  request closes (SLO, flight recorder, stitched spans);
- :mod:`repro.service.server`   — one thread per request: single-flight
  fingerprint dedup, admission control (a bounded wait for a worker,
  clear ``busy`` shed), drain-on-shutdown, :mod:`repro.obs` counters as
  service metrics; a cache hit is answered with its stored text;
- :mod:`repro.service.client`   — blocking client used by
  :func:`repro.api.induce` and the CLI.
"""

from repro._lazy import reexport

# On access: a client loads neither the server nor its worker processes.
__getattr__, __dir__, __all__ = reexport(__name__, {
    "repro.service.client": ("ServiceBusy", "ServiceClient", "ServiceError"),
    "repro.service.endpoint": ("Endpoint",),
    "repro.service.server": ("InductionServer", "ServerConfig"),
})
