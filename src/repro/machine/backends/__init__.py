"""Pluggable execution backends for the SPMD runtime.

The paper's algorithms only assume a coarse-grained SPMD machine with
collectives, so *how* ranks are physically driven is a strategy:

==============  ==========================================================
``serial``      the threaded launch loop under a run token: one rank at a
                time, handoff at collectives; fully reproducible
                interleaving + desync diagnosis (CI / debugging)
``threaded``    one preemptive OS thread per rank (the historical
                simulator); NumPy releases the GIL on large kernels
``process``     one forked process per rank, shard data in shared memory,
                collectives over queues; true multi-core past the GIL
``pool``        persistent forked workers reused across launches, shards
                pinned in shared memory; zero per-launch fork/pickle cost
                for the repeated-launch (Session) workload
==============  ==========================================================

All four charge identical simulated costs through the shared
:class:`~repro.machine.collectives.CollectiveEngine`: values, RNG streams
and simulated times are bit-identical across backends (pinned by
``tests/test_backend_conformance.py``); only wall-clock differs.

Selection: ``Machine(backend=...)`` / ``SelectionPlan(backend=...)`` /
``run_spmd(..., backend=...)``, or the ``REPRO_BACKEND`` environment
variable as the process-wide default (how CI runs the whole suite under
each backend).
"""

from __future__ import annotations

import os

from ...errors import ConfigurationError
from .base import ExecutionBackend, Launch, ProcContext, SPMDResult
from .pool import PoolBackend
from .process import ProcessBackend
from .serial import SerialBackend
from .threaded import ThreadedBackend

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "Launch",
    "ProcContext",
    "SPMDResult",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "resolve_backend",
]

#: Environment variable naming the process-wide default backend.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Registry: backend name -> shared process-wide instance. Most backends
#: are stateless; ``pool`` deliberately is not (it owns the persistent
#: workers and the pin cache), and sharing one instance is what lets every
#: Machine reuse the same warm workers.
BACKENDS: dict[str, ExecutionBackend] = {
    backend.name: backend
    for backend in (
        SerialBackend(), ThreadedBackend(), ProcessBackend(), PoolBackend()
    )
}


def available_backends() -> tuple[str, ...]:
    """The registered execution backend names, sorted."""
    return tuple(sorted(BACKENDS))


def get_backend(name: str) -> ExecutionBackend:
    """Look up a backend by name (:class:`ConfigurationError` lists the
    available names for unknown ones, same convention as the algorithm
    and balancer registries)."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown backend {name!r}; available: {sorted(BACKENDS)}"
        ) from None


def default_backend_name() -> str:
    """``REPRO_BACKEND`` if set (validated), else ``"threaded"``."""
    name = os.environ.get(BACKEND_ENV_VAR, "").strip()
    if not name:
        return "threaded"
    if name not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend {name!r} in ${BACKEND_ENV_VAR}; "
            f"available: {sorted(BACKENDS)}"
        )
    return name


def resolve_backend(backend) -> ExecutionBackend:
    """Normalise ``None`` (env default / threaded), a name, or an
    :class:`ExecutionBackend` instance to an instance."""
    if backend is None:
        return BACKENDS[default_backend_name()]
    if isinstance(backend, ExecutionBackend):
        return backend
    if isinstance(backend, str):
        return get_backend(backend)
    raise ConfigurationError(
        f"backend must be a name, an ExecutionBackend or None, "
        f"got {type(backend).__name__}"
    )
