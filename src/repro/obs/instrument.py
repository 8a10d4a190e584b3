"""Store instrumentation: a timing proxy over any ``STORE_PROTOCOL`` store.

Store operations are the fleet's hottest shared path — every claim,
heartbeat, queue poll and recovery pass crosses them — so their latency
per backend is the first series an operator reaches for.  Rather than
threading timers through three store implementations (and every future
one), :class:`InstrumentedStore` wraps any store object and times the
protocol methods into ``repro_store_op_seconds{op=...,backend=...}``,
counting failures in ``repro_store_op_errors_total``.

The proxy is semantically invisible: every attribute not on the timed
list forwards untouched (``cache_path``, ``root``,
backend-specific extras like ``push_telemetry``), timed methods return
exactly what the wrapped method returns, and exceptions propagate
unchanged after being counted.  Wrapped callables are cached on the
instance, so steady-state dispatch costs one dict hit.
"""

from __future__ import annotations

import time

from repro.obs.registry import get_registry

#: The store-protocol operations worth a latency series.  ``claim``,
#: ``claim_batch``, ``heartbeat`` and ``recover_stale_claims`` are the
#: fleet-scale hot path; the rest round out the lifecycle picture.
TIMED_STORE_OPS = frozenset({
    "submit", "save", "get", "records", "queued",
    "mark_running", "mark_completed", "mark_failed", "requeue",
    "claim", "claim_batch", "release", "heartbeat",
    "claim_info", "claims", "claimed_job_ids", "recover_stale_claims",
    "get_checkpoint", "put_checkpoint",
})


def store_backend_label(store: object) -> str:
    """A stable backend label for ``store``: sqlite or remote."""
    if getattr(store, "base_url", None):
        return "remote"
    return str(getattr(store, "spec", "")).partition(":")[0] or "unknown"


class InstrumentedStore:
    """Times the protocol methods of ``store`` into the global registry."""

    def __init__(self, store: object, backend: str | None = None) -> None:
        # Attribute names that would shadow the proxied store's own are
        # prefixed; __getattr__ only fires for everything else.
        self._obs_store = store
        self._obs_backend = backend if backend is not None else store_backend_label(store)

    @property
    def wrapped(self) -> object:
        """The store this proxy instruments."""
        return self._obs_store

    def __getattr__(self, name: str):
        value = getattr(self._obs_store, name)
        if name not in TIMED_STORE_OPS or not callable(value):
            return value
        backend = self._obs_backend
        registry = get_registry()

        def timed(*args: object, **kwargs: object):
            if not registry.enabled:
                return value(*args, **kwargs)
            start = time.perf_counter()
            try:
                return value(*args, **kwargs)
            except Exception:
                registry.inc("repro_store_op_errors_total", op=name, backend=backend)
                raise
            finally:
                registry.observe("repro_store_op_seconds",
                                 time.perf_counter() - start,
                                 op=name, backend=backend)

        timed.__name__ = name
        # Cache on the instance so the next access skips __getattr__.
        object.__setattr__(self, name, timed)
        return timed

    def __reduce__(self):
        # Pickles as the wrapped store: the timing proxy stays behind.
        return (_unwrapped, (self._obs_store,))

    def __repr__(self) -> str:
        return f"InstrumentedStore({self._obs_store!r}, backend={self._obs_backend!r})"


def _unwrapped(store: object) -> object:
    """An unpickled :class:`InstrumentedStore`: the store it wrapped."""
    return store


def instrument_store(store: object, backend: str | None = None) -> InstrumentedStore:
    """Wrap ``store`` for op-latency telemetry (idempotent)."""
    if isinstance(store, InstrumentedStore):
        return store
    return InstrumentedStore(store, backend)
