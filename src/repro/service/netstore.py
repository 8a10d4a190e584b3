"""Network job store: one shared local store behind JSON-over-HTTP.

A local :class:`~repro.service.sqlstore.SqliteJobStore` distributes work
across workers that share its disk; this module distributes it across
machines that share only a network.  A :class:`JobStoreServer` fronts
an ordinary local store with a stdlib ``ThreadingHTTPServer`` (also the
deployment for NFS or shared-disk fleets, since SQLite's WAL mode needs
a local disk), and a :class:`RemoteJobStore` client exposes the
exact :data:`~repro.service.store.STORE_PROTOCOL` method surface, so
:class:`~repro.service.worker.Worker` and the CLI run unchanged against
either store.  The parametrized suite in ``tests/test_store_contract.py``
is the executable contract both sides must keep.

Wire protocol (version 1)::

    POST /rpc     {"method": <name>, "params": {...}}
                  -> 200 {"result": ...}
                  -> 400 {"error": {"type": <exception>, "message": ...}}
                  -> 401 on a bad or missing token
    GET  /health  -> 200 {"ok": true}   (unauthenticated liveness probe)

Two observability side-channels ride next to the protocol (they are
*not* store methods, so the protocol version is untouched)::

    GET  /metrics    -> Prometheus text exposition of the server's
                        telemetry registry (authenticated like /rpc);
                        rendered output is cached ~1s, surfaced via the
                        ``X-Repro-Cache-Status: hit|miss`` header
    POST /telemetry  {"source": <worker id>, "snapshot": {...}}
                     -> ingest one worker's registry snapshot, so a
                        single /metrics scrape shows the whole fleet
                        (each source's series carry a ``source`` label)

Every response also carries ``X-Repro-Duration`` (seconds spent in the
handler), and each RPC dispatch lands in the
``repro_rpc_seconds{method=...,status=...}`` histogram.

Authentication is a shared token sent as ``Authorization: Bearer
<token>`` and compared in constant time; an empty server token disables
the check (bind such a server to localhost only).  Domain errors are
re-raised client-side as the same exception type the local store would
have raised, so calling code cannot tell the two stores apart; transport
failures are retried with exponential backoff and surface as
:class:`~repro.exceptions.StoreUnavailableError`.

Checkpoints ride along: the server owns the durable copy, and the client
mirrors it into a local spool directory — downloaded when a claim is
won (so a resumed job continues from the fleet's latest state) and
uploaded whenever a heartbeat or release finds the local file changed
(so a checkpoint survives the worker that wrote it).  The evaluation
cache, by contrast, stays worker-local: scores are deterministic, so a
cold cache costs time, never correctness.
"""

from __future__ import annotations

import hashlib
import hmac
import http.client
import json
import re
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.exceptions import (
    ReproError,
    ServiceError,
    StoreUnavailableError,
    WorkerError,
)
from repro.obs import get_registry, trace
from repro.service.job import JobResult, ProtectionJob
from repro.service.sqlstore import SqliteJobStore
from repro.service.store import (
    JobRecord,
    _atomic_write_json,
    default_state_dir,
)

PROTOCOL_VERSION = 1

# Largest request body the server will read.  Checkpoints dominate
# legitimate payloads and compress their code matrices, so this is
# generous headroom; anything bigger is a client bug or abuse.
_MAX_BODY_BYTES = 256 * 1024 * 1024

# Seconds between the serve loop's shutdown checks.  ``stop()`` waits out
# one of these, so the stdlib's 0.5 s default would make every stop slow.
_POLL_INTERVAL = 0.05

#: Job ids become file names server-side (the checkpoint spool); anything
#: that could escape the state directory is rejected before any
#: handler touches the disk — on raw ``job_id`` params and on the ids
#: of records/jobs sent over the wire alike.
_SAFE_JOB_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


def _checked_job_id(job_id: object) -> str:
    if not isinstance(job_id, str) or not _SAFE_JOB_ID.fullmatch(job_id):
        raise ServiceError(f"invalid job id {job_id!r}")
    return job_id


def _checked_record(record: JobRecord) -> JobRecord:
    _checked_job_id(record.job_id)
    return record


# -- server-side method table ------------------------------------------------
#
# Each handler takes (store, params) and returns a JSON-ready value.
# Records cross the wire as their to_dict() form; transitions return the
# updated record so the client can mirror the mutation into the caller's
# object, exactly as the local store mutates it in place.


def _m_submit(store: SqliteJobStore, p: dict) -> dict:
    job = ProtectionJob.from_dict(p["job"])
    _checked_job_id(job.job_id)
    extras = p.get("extras")
    if extras is not None and not isinstance(extras, dict):
        raise ServiceError("submit extras must be a JSON object")
    return store.submit(job, extras=extras).to_dict()


def _m_save(store: SqliteJobStore, p: dict) -> None:
    store.save(_checked_record(JobRecord.from_dict(p["record"])))


def _m_get(store: SqliteJobStore, p: dict) -> dict | None:
    record = store.get(_checked_job_id(p["job_id"]),
                       missing_ok=bool(p.get("missing_ok")))
    return record.to_dict() if record is not None else None


def _m_records(store: SqliteJobStore, p: dict) -> list[dict]:
    return [record.to_dict() for record in store.records()]


def _m_queued(store: SqliteJobStore, p: dict) -> list[dict]:
    return [record.to_dict() for record in store.queued()]


def _m_mark_running(store: SqliteJobStore, p: dict) -> dict:
    record = _checked_record(JobRecord.from_dict(p["record"]))
    store.mark_running(record)
    return record.to_dict()


def _m_mark_completed(store: SqliteJobStore, p: dict) -> dict:
    record = _checked_record(JobRecord.from_dict(p["record"]))
    store.mark_completed(record, JobResult.from_dict(p["result"]))
    return record.to_dict()


def _m_mark_failed(store: SqliteJobStore, p: dict) -> dict:
    record = _checked_record(JobRecord.from_dict(p["record"]))
    store.mark_failed(record, str(p.get("error", "")))
    return record.to_dict()


def _m_requeue(store: SqliteJobStore, p: dict) -> dict:
    return store.requeue(_checked_record(JobRecord.from_dict(p["record"]))).to_dict()


def _m_claim(store: SqliteJobStore, p: dict) -> bool:
    return store.claim(_checked_job_id(p["job_id"]), owner=str(p.get("owner", "")))


def _m_claim_batch(store: SqliteJobStore, p: dict) -> list[dict]:
    won = store.claim_batch(owner=str(p.get("owner", "")),
                            limit=int(p.get("limit", 0)))
    return [record.to_dict() for record in won]


def _m_release(store: SqliteJobStore, p: dict) -> bool:
    owner = p.get("owner")
    return store.release(_checked_job_id(p["job_id"]),
                         owner=None if owner is None else str(owner))


def _m_heartbeat(store: SqliteJobStore, p: dict) -> bool:
    return store.heartbeat(_checked_job_id(p["job_id"]), owner=str(p.get("owner", "")))


def _m_claim_info(store: SqliteJobStore, p: dict) -> dict | None:
    return store.claim_info(_checked_job_id(p["job_id"]))


def _m_claimed_job_ids(store: SqliteJobStore, p: dict) -> list[str]:
    return store.claimed_job_ids()


def _m_claims(store: SqliteJobStore, p: dict) -> dict:
    return store.claims()


def _m_recover_stale_claims(store: SqliteJobStore, p: dict) -> list[str]:
    return store.recover_stale_claims(float(p.get("max_age_seconds", 3600.0)))


def _m_get_checkpoint(store: SqliteJobStore, p: dict) -> dict | None:
    return store.get_checkpoint(_checked_job_id(p["job_id"]))


def _m_put_checkpoint(store: SqliteJobStore, p: dict) -> None:
    payload = p.get("payload")
    if not isinstance(payload, dict):
        raise ServiceError("put_checkpoint needs a JSON object payload")
    owner = p.get("owner")
    # The store's put_checkpoint enforces the owner gate (a worker whose
    # claim was recovered must not overwrite the new owner's state); for
    # the sqlite backend it also lands the blob in the database.
    store.put_checkpoint(_checked_job_id(p["job_id"]), payload,
                         owner=None if owner is None else str(owner))


def _m_ping(store: SqliteJobStore, p: dict) -> dict:
    return {"protocol": PROTOCOL_VERSION, "root": str(store.root)}


_METHODS = {
    "submit": _m_submit,
    "save": _m_save,
    "get": _m_get,
    "records": _m_records,
    "queued": _m_queued,
    "mark_running": _m_mark_running,
    "mark_completed": _m_mark_completed,
    "mark_failed": _m_mark_failed,
    "requeue": _m_requeue,
    "claim": _m_claim,
    "claim_batch": _m_claim_batch,
    "release": _m_release,
    "heartbeat": _m_heartbeat,
    "claim_info": _m_claim_info,
    "claims": _m_claims,
    "claimed_job_ids": _m_claimed_job_ids,
    "recover_stale_claims": _m_recover_stale_claims,
    "get_checkpoint": _m_get_checkpoint,
    "put_checkpoint": _m_put_checkpoint,
    "ping": _m_ping,
}


class _StoreRequestHandler(BaseHTTPRequestHandler):
    """One RPC request: authenticate, dispatch, serialize."""

    server_version = "repro-jobstore/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass  # request logging is the operator's reverse proxy's job

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        trace_id = getattr(self, "_trace_id", "")
        if trace_id:
            # Joins this response to its request's trace, so server
            # logs, metrics and traces meet on one key.
            self.send_header("X-Repro-Trace-Id", trace_id)
        self._send_duration_header()
        self.end_headers()
        self.wfile.write(body)

    def _send_duration_header(self) -> None:
        started = getattr(self, "_started", None)
        if started is not None:
            self.send_header("X-Repro-Duration",
                             f"{time.perf_counter() - started:.6f}")

    def _observe_rpc(self, method: str, status: int) -> None:
        registry = get_registry()
        started = getattr(self, "_started", None)
        if registry.enabled and started is not None:
            registry.observe("repro_rpc_seconds",
                             time.perf_counter() - started,
                             method=method, status=str(status))

    def _send_error_json(self, status: int, kind: str, message: str) -> None:
        self._send_json(status, {"error": {"type": kind, "message": message}})

    def _authorized(self) -> bool:
        token = self.server.token  # type: ignore[attr-defined]
        if not token:
            return True
        supplied = self.headers.get("Authorization", "")
        # Compare as bytes: compare_digest refuses non-ASCII str, and a
        # garbage header must mean 401, not a handler traceback.
        return hmac.compare_digest(
            supplied.encode("utf-8", "replace"),
            f"Bearer {token}".encode("utf-8", "replace"),
        )

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._started = time.perf_counter()
        self._trace_id = ""  # keep-alive handlers must not leak it across requests
        if self.path.startswith("/trace/"):
            self._handle_trace_get()
            return
        if self.path == "/health":
            self._send_json(200, {"ok": True})
            return
        if self.path == "/metrics":
            # The registry can hold fleet-internal detail (hostnames in
            # source labels), so scrapes authenticate exactly like RPCs.
            if not self._authorized():
                self.close_connection = True
                self._send_error_json(401, "ServiceError",
                                      "unauthorized: bad or missing store token")
                return
            text, cache_status = self._rendered_metrics()
            body = text.encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type",
                             "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.send_header("X-Repro-Cache-Status", cache_status)
            self._send_duration_header()
            self.end_headers()
            self.wfile.write(body)
            return
        self._send_error_json(404, "ServiceError", f"no such path {self.path!r}")

    def _handle_trace_get(self) -> None:
        """``GET /trace/<job_id>``: the job's stored span tree as JSON.

        Token-authenticated like ``/metrics``, and cached the same way
        (``X-Repro-Cache-Status``): a dashboard polling one waterfall
        must not turn every refresh into a store read.
        """
        if not self._authorized():
            self.close_connection = True
            self._send_error_json(401, "ServiceError",
                                  "unauthorized: bad or missing store token")
            return
        job_id = self.path[len("/trace/"):]
        if not _SAFE_JOB_ID.fullmatch(job_id):
            self._send_error_json(400, "ServiceError",
                                  f"invalid job id {job_id!r}")
            return
        payload, cache_status = self._rendered_trace(job_id)
        if payload is None:
            self._send_error_json(404, "ServiceError",
                                  f"no trace recorded for {job_id!r}")
            return
        self._trace_id = str(payload.get("trace_id", ""))
        body = json.dumps(payload).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Repro-Trace-Id", self._trace_id)
        self.send_header("X-Repro-Cache-Status", cache_status)
        self._send_duration_header()
        self.end_headers()
        self.wfile.write(body)

    def _rendered_trace(self, job_id: str) -> tuple[dict | None, str]:
        """The job's trace payload, re-read at most once per cache TTL.

        Missing traces cache too (as ``None``), so a storm of 404 polls
        costs one store read per TTL.  The cache is bounded FIFO — a
        serve process watching thousands of jobs stays flat.
        """
        server = self.server
        lock = getattr(server, "trace_lock", None)
        if lock is None:
            return trace.load_trace(server.store, job_id), "miss"  # type: ignore[attr-defined]
        ttl = getattr(server, "trace_ttl", 1.0)
        now = time.monotonic()
        with lock:
            cached = server.trace_cache.get(job_id)  # type: ignore[attr-defined]
            if cached is not None and now - cached[0] < ttl:
                return cached[1], "hit"
        payload = trace.load_trace(server.store, job_id)  # type: ignore[attr-defined]
        with lock:
            cache = server.trace_cache  # type: ignore[attr-defined]
            cache[job_id] = (now, payload)
            while len(cache) > 256:
                cache.pop(next(iter(cache)))
        return payload, "miss"

    def _rendered_metrics(self) -> tuple[str, str]:
        """The exposition text, re-rendered at most once per cache TTL.

        Rendering walks every series under the registry lock; a scrape
        storm (or a dashboard auto-refreshing several panels) would
        otherwise contend with the hot RPC path.  Within the TTL every
        scrape gets the cached text and a ``hit`` cache status.
        """
        server = self.server
        ttl = getattr(server, "metrics_ttl", 1.0)
        lock = getattr(server, "metrics_lock", None)
        if lock is None:
            return get_registry().render_prometheus(), "miss"
        with lock:
            rendered_at, text = server.metrics_cache  # type: ignore[attr-defined]
            now = time.monotonic()
            if text and now - rendered_at < ttl:
                return text, "hit"
            text = get_registry().render_prometheus()
            server.metrics_cache = (now, text)  # type: ignore[attr-defined]
            return text, "miss"

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        # Reject before reading: buffering an unauthenticated client's
        # body would hand anyone a memory-exhaustion lever.  Closing the
        # connection on rejection keeps keep-alive streams in sync
        # without draining — the unread body dies with the socket.
        self._started = time.perf_counter()
        self._trace_id = ""
        if self.path not in ("/rpc", "/telemetry"):
            self.close_connection = True
            self._send_error_json(404, "ServiceError", f"no such path {self.path!r}")
            return
        if not self._authorized():
            self.close_connection = True
            self._send_error_json(401, "ServiceError",
                                  "unauthorized: bad or missing store token")
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0 or length > _MAX_BODY_BYTES:
            self.close_connection = True
            self._send_error_json(400, "ServiceError", "unacceptable request body")
            return
        try:
            request = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, json.JSONDecodeError):
            self._send_error_json(400, "ServiceError", "malformed request body")
            return
        if self.path == "/telemetry":
            self._handle_telemetry(request)
            return
        # Optional traceparent riding the envelope (wire-protocol-v1
        # compatible: old clients omit it, and only "method"/"params"
        # drive dispatch).  It comes back as X-Repro-Trace-Id.
        parsed_trace = trace.parse_traceparent(request.get("trace"))
        if parsed_trace is not None:
            self._trace_id = parsed_trace[0]
        method = request.get("method", "")
        params = request.get("params") or {}
        handler = _METHODS.get(method)
        if handler is None or not isinstance(params, dict):
            self._send_error_json(400, "ServiceError", f"unknown method {method!r}")
            return
        store = self.server.store  # type: ignore[attr-defined]
        try:
            result = handler(store, params)
        except ReproError as exc:
            self._observe_rpc(method, 400)
            self._send_error_json(400, type(exc).__name__, str(exc))
            return
        except (KeyError, TypeError, ValueError) as exc:
            self._observe_rpc(method, 400)
            self._send_error_json(400, "ServiceError",
                                  f"bad parameters for {method!r}: {exc}")
            return
        except Exception as exc:  # noqa: BLE001 - keep the server alive
            self._observe_rpc(method, 500)
            self._send_error_json(500, "ServiceError",
                                  f"internal error: {type(exc).__name__}: {exc}")
            return
        self._observe_rpc(method, 200)
        self._send_json(200, {"result": result})

    def _handle_telemetry(self, request: dict) -> None:
        """Ingest one worker's pushed registry snapshot.

        A side-channel, not a store method: snapshots live only in the
        server's in-memory registry (dropped when stale or on restart),
        so the store directory and the wire protocol stay untouched.
        """
        source = request.get("source")
        snapshot = request.get("snapshot")
        if not isinstance(source, str) or not source or not isinstance(snapshot, dict):
            self._send_error_json(400, "ServiceError",
                                  "telemetry push needs a source and a snapshot")
            return
        get_registry().ingest(source, snapshot)
        self._send_json(200, {"ok": True})


class JobStoreServer:
    """Serves one local store to remote workers over HTTP.

    The server adds no state of its own — every operation lands in the
    backing store, so an operator can point local workers at the same
    database or restart the server without losing anything.  Claim
    atomicity likewise stays where it always was (the backing store's
    transactions), which is what makes remote and local claims mutually
    exclusive even when both kinds of worker run at once.

    Use :meth:`start` for a background thread (tests, embedding) or
    :meth:`serve_forever` to block (the ``repro serve`` command); both
    are shut down with :meth:`stop`.  ``port=0`` binds an ephemeral
    port, readable back via :attr:`port` / :attr:`url`.
    """

    def __init__(self, store: SqliteJobStore, host: str = "127.0.0.1", port: int = 0,
                 token: str = "") -> None:
        self.store = store
        self._httpd = ThreadingHTTPServer((host, port), _StoreRequestHandler)
        self._httpd.daemon_threads = True
        self._httpd.store = store  # type: ignore[attr-defined]
        self._httpd.token = token  # type: ignore[attr-defined]
        # /metrics render cache: (monotonic rendered_at, exposition text).
        self._httpd.metrics_lock = threading.Lock()  # type: ignore[attr-defined]
        self._httpd.metrics_cache = (0.0, "")  # type: ignore[attr-defined]
        self._httpd.metrics_ttl = 1.0  # type: ignore[attr-defined]
        # /trace/<job> read cache: job_id -> (monotonic read_at, payload).
        self._httpd.trace_lock = threading.Lock()  # type: ignore[attr-defined]
        self._httpd.trace_cache = {}  # type: ignore[attr-defined]
        self._httpd.trace_ttl = 1.0  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None
        self._serving = False

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "JobStoreServer":
        """Serve on a daemon thread and return immediately."""
        self._serving = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, args=(_POLL_INTERVAL,),
            name="jobstore-server", daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` or interrupt."""
        self._serving = True
        self._httpd.serve_forever(_POLL_INTERVAL)

    def stop(self) -> None:
        """Stop serving and release the socket (idempotent).

        ``shutdown`` would block forever on a server whose serve loop
        never ran, so it is only issued after one actually started.
        """
        if self._serving:
            self._httpd.shutdown()
            self._serving = False
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "JobStoreServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def __repr__(self) -> str:
        return f"JobStoreServer({self.store!r}, url={self.url!r})"


# -- the client --------------------------------------------------------------

_ERROR_TYPES = {
    "ReproError": ReproError,
    "ServiceError": ServiceError,
    "WorkerError": WorkerError,
    "StoreUnavailableError": StoreUnavailableError,
}


def _mapped_error(exc: urllib.error.HTTPError) -> ReproError:
    """Rebuild the server-side exception type from an error response."""
    try:
        payload = json.loads(exc.read().decode("utf-8"))
    except Exception:  # noqa: BLE001 - any unreadable body means no detail
        payload = {}
    error = payload.get("error") or {}
    cls = _ERROR_TYPES.get(error.get("type", ""), ServiceError)
    return cls(error.get("message") or f"job store returned HTTP {exc.code}")


class RemoteJobStore:
    """Client-side :data:`~repro.service.store.STORE_PROTOCOL` over HTTP.

    Presents the same method surface and semantics as the local
    :class:`~repro.service.sqlstore.SqliteJobStore` — records in, records out,
    claim booleans, the same exception types — so workers, the runner
    and the CLI take either store interchangeably.  What it adds is
    transport care: every call retries transient connection failures
    with exponential backoff (``retries`` / ``backoff``) before raising
    :class:`~repro.exceptions.StoreUnavailableError`, while HTTP-level
    errors (the server spoke, and said no) are never retried.

    ``spool`` is the client's local state directory: checkpoint mirror
    and worker-local evaluation cache.  It defaults to a per-server
    directory under the regular state root, so two clients of different
    servers never mix state.
    """

    def __init__(
        self,
        base_url: str,
        token: str = "",
        spool: str | Path | None = None,
        timeout: float = 10.0,
        retries: int = 3,
        backoff: float = 0.2,
    ) -> None:
        if retries < 0:
            raise ServiceError(f"retries must be >= 0, got {retries}")
        self.base_url = base_url.rstrip("/")
        self.token = token
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.backoff = float(backoff)
        if spool is None:
            digest = hashlib.sha256(self.base_url.encode("utf-8")).hexdigest()[:12]
            spool = default_state_dir() / "remote" / digest
        self.root = Path(spool)
        self.checkpoints_dir = self.root / "checkpoints"
        self.cache_dir = self.root / "cache"
        for directory in (self.checkpoints_dir, self.cache_dir):
            directory.mkdir(parents=True, exist_ok=True)
        # mtime of each checkpoint as last synced with the server, so
        # heartbeats only pay an upload when the file actually changed.
        self._synced_mtimes: dict[str, float] = {}

    @property
    def cache_path(self) -> Path:
        """The worker-local evaluation cache (never shared over the wire)."""
        return self.cache_dir / "evaluations.sqlite"

    # -- transport ----------------------------------------------------------

    def _call(self, method: str, **params: object) -> object:
        envelope: dict[str, object] = {"method": method, "params": params}
        traceparent = trace.format_traceparent()
        if traceparent:
            # Optional, wire-protocol-v1 compatible: old servers read
            # only "method"/"params" and ignore the extra field.
            envelope["trace"] = traceparent
        body = json.dumps(envelope).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        last_error: Exception | None = None
        with trace.span("repro.rpc", method=method):
            for attempt in range(self.retries + 1):
                if attempt:
                    time.sleep(self.backoff * (2 ** (attempt - 1)))
                request = urllib.request.Request(
                    f"{self.base_url}/rpc", data=body, headers=headers,
                    method="POST",
                )
                try:
                    with urllib.request.urlopen(
                        request, timeout=self.timeout
                    ) as response:
                        payload = json.loads(response.read().decode("utf-8"))
                    return payload.get("result")
                except urllib.error.HTTPError as exc:
                    raise _mapped_error(exc) from None
                except (OSError, http.client.HTTPException, TimeoutError) as exc:
                    last_error = exc
        raise StoreUnavailableError(
            f"job store at {self.base_url} unreachable after "
            f"{self.retries + 1} attempt(s): {last_error}"
        )

    def ping(self) -> dict:
        """Round-trip check; returns the server's protocol banner."""
        result = self._call("ping")
        return result if isinstance(result, dict) else {}

    def push_telemetry(self, source: str, snapshot: dict) -> None:
        """Push this process's registry snapshot to the server's ``/telemetry``.

        An observability side-channel, deliberately outside
        :data:`~repro.service.store.STORE_PROTOCOL`: local stores have
        no aggregation point, and the wire protocol version does not
        change.  One attempt, no retries — pushes are periodic and
        cumulative, so the next one supersedes anything a retry would
        have delivered.  Callers (the worker's throttled push loop)
        treat failures as telemetry loss, never as job failure.
        """
        body = json.dumps({"source": source, "snapshot": snapshot}).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        request = urllib.request.Request(
            f"{self.base_url}/telemetry", data=body, headers=headers, method="POST"
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                response.read()
        except urllib.error.HTTPError as exc:
            raise _mapped_error(exc) from None
        except (OSError, http.client.HTTPException, TimeoutError) as exc:
            raise StoreUnavailableError(
                f"telemetry push to {self.base_url} failed: {exc}"
            ) from None

    # -- record lifecycle ----------------------------------------------------

    def submit(self, job: ProtectionJob, extras: dict | None = None) -> JobRecord:
        """Register a job as queued (idempotent); see :meth:`SqliteJobStore.submit`."""
        return JobRecord.from_dict(
            self._call("submit", job=job.to_dict(), extras=extras)
        )

    def save(self, record: JobRecord) -> None:
        """Persist ``record`` on the server."""
        self._call("save", record=record.to_dict())

    def get(self, job_id: str, missing_ok: bool = False) -> JobRecord | None:
        """Load one record; raises :class:`ServiceError` unless ``missing_ok``."""
        payload = self._call("get", job_id=job_id, missing_ok=missing_ok)
        return JobRecord.from_dict(payload) if payload is not None else None

    def records(self) -> list[JobRecord]:
        """Every stored record, oldest submission first."""
        return [JobRecord.from_dict(item) for item in self._call("records")]

    def queued(self) -> list[JobRecord]:
        """Queued records only, oldest submission first."""
        return [JobRecord.from_dict(item) for item in self._call("queued")]

    def _apply(self, record: JobRecord, payload: dict) -> JobRecord:
        """Mirror a server-side transition into the caller's record.

        The local store mutates the caller's object in place (status,
        timestamps, result); parity requires the remote store to do the
        same, or a worker's follow-up save would clobber server-set
        fields with stale ones.
        """
        updated = JobRecord.from_dict(payload)
        record.status = updated.status
        record.submitted_at = updated.submitted_at
        record.started_at = updated.started_at
        record.finished_at = updated.finished_at
        record.result = updated.result
        record.error = updated.error
        record.extras = updated.extras
        return record

    def mark_running(self, record: JobRecord) -> None:
        """Transition to ``running`` and persist."""
        self._apply(record, self._call("mark_running", record=record.to_dict()))

    def mark_completed(self, record: JobRecord, result: JobResult) -> None:
        """Transition to ``completed`` with its result and persist."""
        self._apply(record, self._call(
            "mark_completed", record=record.to_dict(), result=result.to_dict()
        ))

    def mark_failed(self, record: JobRecord, error: str) -> None:
        """Transition to ``failed`` with the error text and persist."""
        self._apply(record, self._call(
            "mark_failed", record=record.to_dict(), error=error
        ))

    def requeue(self, record: JobRecord) -> JobRecord:
        """Put a ``running`` or ``failed`` record back on the queue."""
        return self._apply(record, self._call("requeue", record=record.to_dict()))

    # -- worker claims -------------------------------------------------------

    def claim(self, job_id: str, owner: str = "") -> bool:
        """Atomically claim ``job_id`` for ``owner`` on the server.

        Winning the claim also pulls the server's checkpoint for the job
        into the local spool, so a worker on a different machine resumes
        from the fleet's latest saved state, not its own.
        """
        won = bool(self._call("claim", job_id=job_id, owner=owner))
        if won:
            self._download_checkpoint(job_id)
        return won

    def claim_batch(self, owner: str = "", limit: int = 0) -> list[JobRecord]:
        """Claim up to ``limit`` queued records in one round trip.

        The whole queue-walk-and-claim loop happens server-side (for a
        database-backed store, in one transaction), so a worker's
        capacity pull costs one RPC however long the queue is.  Each
        won job's checkpoint is pulled into the local spool, exactly as
        a single-job claim does.
        """
        won = [
            JobRecord.from_dict(item)
            for item in self._call("claim_batch", owner=owner, limit=limit)
        ]
        for record in won:
            self._download_checkpoint(record.job_id)
        return won

    def release(self, job_id: str, owner: str | None = None) -> bool:
        """Drop ``job_id``'s claim; owner-checked when ``owner`` is given.

        An owner releasing its own claim first pushes its final
        checkpoint to the server — the last chance before another
        worker may take the job over.  The upload itself is owner-gated
        server-side, so if this claim was recovered and re-granted in
        the meantime, the new owner's fresher checkpoint survives.
        """
        if owner is not None:
            self._upload_checkpoint_if_changed(job_id, owner=owner)
        return bool(self._call("release", job_id=job_id, owner=owner))

    def heartbeat(self, job_id: str, owner: str = "") -> bool:
        """Refresh claim liveness; piggybacks checkpoint sync.

        Each beat that lands also uploads the local checkpoint if it
        changed since the last sync, so a worker killed mid-run loses at
        most one heartbeat interval of checkpoint progress.
        """
        alive = bool(self._call("heartbeat", job_id=job_id, owner=owner))
        if alive:
            self._upload_checkpoint_if_changed(job_id, owner=owner or None)
        return alive

    def claim_info(self, job_id: str) -> dict | None:
        """The claim payload (owner, pid, claimed_at, last_seen), or ``None``."""
        return self._call("claim_info", job_id=job_id)

    def claims(self) -> dict[str, dict]:
        """Every live claim's payload keyed by job id, in one round trip."""
        return dict(self._call("claims"))

    def claimed_job_ids(self) -> list[str]:
        """Every job id currently claimed by some worker."""
        return list(self._call("claimed_job_ids"))

    def recover_stale_claims(self, max_age_seconds: float = 3600.0) -> list[str]:
        """Server-side stale-claim recovery; returns recovered job ids."""
        return list(self._call("recover_stale_claims", max_age_seconds=max_age_seconds))

    # -- checkpoint spool ----------------------------------------------------

    def get_checkpoint(self, job_id: str) -> dict | None:
        """The server's durable checkpoint blob for ``job_id``, or ``None``."""
        payload = self._call("get_checkpoint", job_id=job_id)
        return payload if isinstance(payload, dict) else None

    def put_checkpoint(self, job_id: str, payload: dict,
                       owner: str | None = None) -> None:
        """Upload a checkpoint blob (claim-gated server-side with ``owner``)."""
        self._call("put_checkpoint", job_id=job_id, payload=payload, owner=owner)

    def _local_checkpoint(self, job_id: str) -> Path:
        return self.checkpoints_dir / f"{job_id}.json"

    def _download_checkpoint(self, job_id: str) -> None:
        payload = self.get_checkpoint(job_id)
        if payload is None:
            return
        path = self._local_checkpoint(job_id)
        _atomic_write_json(path, payload)
        self._synced_mtimes[job_id] = path.stat().st_mtime

    def _upload_checkpoint_if_changed(self, job_id: str,
                                      owner: str | None = None) -> None:
        path = self._local_checkpoint(job_id)
        try:
            mtime = path.stat().st_mtime
        except FileNotFoundError:
            return
        if self._synced_mtimes.get(job_id) == mtime:
            return
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, FileNotFoundError):
            return  # mid-write or gone; the next beat will retry
        try:
            self.put_checkpoint(job_id, payload, owner=owner)
        except WorkerError:
            return  # we no longer own the claim; the new owner's state wins
        self._synced_mtimes[job_id] = mtime

    def __repr__(self) -> str:
        return f"RemoteJobStore({self.base_url!r}, spool={str(self.root)!r})"
