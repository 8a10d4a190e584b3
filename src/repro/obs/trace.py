"""Causal job tracing: spans across the fleet, durable per-job traces.

PR 6/7 answered the aggregate questions (rates, latencies, queue depth);
this module answers the per-request one — "this job took 40 seconds;
where did they go?" — with a zero-dependency span tracer in the spirit
of OpenTelemetry, kept to the repo's stdlib-only rules.

A span is a plain dict: ``trace_id`` / ``span_id`` / ``parent_id`` /
``name`` / ``start`` (epoch seconds) / ``duration`` / optional
``attrs``.  Span names are part of the public observability surface
(see the ROADMAP stability contract): dotted, ``repro.``-prefixed, and
renaming one is a breaking change.

The moving parts, in the order a job meets them:

* :func:`new_trace_info` mints a trace identity at submit time; the
  submit CLI stores it in the job record's ``extras["trace"]``, which
  is how the identity crosses the store boundary to whichever worker
  wins the claim.
* :func:`activate` / :func:`span` collect spans on the current thread
  into a :class:`TraceScope`; the runner activates a scope inside the
  (possibly process-pool) worker, so engine generations and evaluation
  batches nest under the run.
* :func:`format_traceparent` / :func:`parse_traceparent` carry the
  context across the network as an optional ``trace`` field on the JSON
  RPC envelope — wire-protocol-v1 compatible: old servers ignore it,
  old clients omit it.
* :func:`flush_job_trace` persists finished spans as a JSON blob on the
  existing checkpoint-blob path (``<job_id>.trace``), so traces survive
  exactly like checkpoints and migrate with ``repro migrate``.  The
  submit-time head-sampling decision gates persistence — except for
  failed jobs, which always keep their trace.
* :func:`render_waterfall` turns a stored trace into the ASCII
  waterfall ``repro trace JOB`` prints.

Observer contract (PR 6): tracing is off by default, a disabled
:func:`span` call is one attribute check, ids come from ``uuid4`` (never
the seeded run RNG), and nothing here may change results or raise into
the workload — flushing swallows and counts its own failures.
"""

from __future__ import annotations

import re
import threading
import time
import uuid
from contextlib import contextmanager

from repro.obs.events import emit_event
from repro.obs.registry import get_registry

#: Suffix turning a job id into its durable trace-blob id.  Dots are
#: legal in checkpoint ids on every backend, so ``<job_id>.trace`` rides
#: the checkpoint path unchanged.
TRACE_BLOB_SUFFIX = ".trace"

#: Format version of the persisted trace payload.
TRACE_BLOB_VERSION = 1

#: Spans kept per scope before further recording is dropped (and
#: counted) — a runaway generation loop must not balloon worker memory.
MAX_SPANS_PER_SCOPE = 4096

#: Default slow-op ledger threshold (seconds).
DEFAULT_SLOW_OP_SECONDS = 30.0


class _TracerState:
    """Process-global tracer switchboard (head sampling + slow-op ledger)."""

    __slots__ = ("enabled", "sample_rate", "slow_op_seconds")

    def __init__(self) -> None:
        self.enabled = False
        self.sample_rate = 1.0
        self.slow_op_seconds = DEFAULT_SLOW_OP_SECONDS


_state = _TracerState()
_context = threading.local()


def enable_tracing(
    sample_rate: float = 1.0,
    slow_op_seconds: float = DEFAULT_SLOW_OP_SECONDS,
) -> None:
    """Turn the tracer on with a head-sampling rate in ``[0, 1]``."""
    rate = float(sample_rate)
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
    _state.sample_rate = rate
    _state.slow_op_seconds = float(slow_op_seconds)
    _state.enabled = True


def disable_tracing() -> None:
    """Turn the tracer off (sampling configuration is kept)."""
    _state.enabled = False


def tracing_enabled() -> bool:
    """True when the tracer is on."""
    return _state.enabled


# -- identities -------------------------------------------------------------


def new_trace_id() -> str:
    """A fresh 32-hex trace id (``uuid4``-backed, never the run RNG)."""
    return uuid.uuid4().hex


def new_span_id() -> str:
    """A fresh 16-hex span id."""
    return uuid.uuid4().hex[:16]


def head_sampled(trace_id: str, rate: float) -> bool:
    """The head-based sampling decision for ``trace_id``.

    Derived from the id itself so every process that sees the trace —
    submitter, worker, resumer — reaches the same verdict without
    coordination.
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    try:
        bucket = int(trace_id[:8], 16)
    except ValueError:
        return False
    return bucket < int(rate * 0x1_0000_0000)


def new_trace_info(sample_rate: float | None = None) -> dict | None:
    """Mint the trace identity a new job carries in ``extras["trace"]``.

    Returns ``None`` when tracing is off — the record then stays
    byte-identical to one from a tracing-unaware submitter.
    """
    if not _state.enabled:
        return None
    rate = _state.sample_rate if sample_rate is None else float(sample_rate)
    trace_id = new_trace_id()
    return {
        "id": trace_id,
        "root": new_span_id(),
        "sampled": head_sampled(trace_id, rate),
    }


def trace_context_from_extras(extras: object) -> dict | None:
    """The normalized trace identity stored in a record's extras, if any."""
    info = extras.get("trace") if isinstance(extras, dict) else None
    if not isinstance(info, dict) or not info.get("id"):
        return None
    return {
        "id": str(info["id"]),
        "root": str(info.get("root") or ""),
        "sampled": bool(info.get("sampled", True)),
    }


# -- span construction ------------------------------------------------------


def make_span(
    trace_id: str,
    parent_id: str,
    name: str,
    start: float,
    duration: float,
    span_id: str | None = None,
    **attrs: object,
) -> dict:
    """A finished span as a plain dict; ``None``-valued attrs are dropped."""
    span = {
        "trace_id": trace_id,
        "span_id": span_id or new_span_id(),
        "parent_id": parent_id or "",
        "name": name,
        "start": round(float(start), 6),
        "duration": round(max(0.0, float(duration)), 6),
    }
    kept = {key: value for key, value in attrs.items() if value is not None}
    if kept:
        span["attrs"] = kept
    return span


def _slow_op_check(span: dict) -> None:
    threshold = _state.slow_op_seconds
    if threshold <= 0 or span["duration"] < threshold:
        return
    get_registry().inc("repro_slow_ops_total", op=span["name"])
    emit_event(
        "slow_op",
        op=span["name"],
        seconds=span["duration"],
        trace_id=span["trace_id"],
        span_id=span["span_id"],
    )


class TraceScope:
    """Span collection context for one trace on one thread.

    ``stack`` holds the currently-open :class:`_LiveSpan` objects (for
    parenting and late attribute annotation); ``spans`` accumulates the
    finished ones.  ``record`` is lock-protected so explicitly-timed
    spans may be recorded from helper threads.
    """

    __slots__ = ("trace_id", "root_id", "spans", "stack", "dropped",
                 "collected", "_lock", "_prev")

    def __init__(self, trace_id: str, root_id: str = "") -> None:
        self.trace_id = trace_id
        self.root_id = root_id
        self.spans: list[dict] = []
        self.stack: list[_LiveSpan] = []
        self.dropped = 0
        #: Filled by :func:`deactivate`: the drained spans, kept
        #: reachable after a ``with activated(...)`` block exits.
        self.collected: list[dict] = []
        self._lock = threading.Lock()
        self._prev: TraceScope | None = None

    def record(self, span: dict) -> None:
        """Append a finished span (bounded; overflow counts as dropped)."""
        with self._lock:
            if len(self.spans) >= MAX_SPANS_PER_SCOPE:
                self.dropped += 1
                return
            self.spans.append(span)
        _slow_op_check(span)

    def drain(self) -> list[dict]:
        """Remove and return everything recorded so far."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def activate(trace_id: str, root_id: str = "") -> TraceScope:
    """Open a collection scope for ``trace_id`` on this thread.

    Also turns the tracer on in this process: arriving trace context
    means an upstream opted in, and a fresh process-pool worker starts
    with tracing off.  New spans parent under ``root_id`` (the submit-
    time root span id) unless nested inside another open span.
    """
    scope = TraceScope(trace_id, root_id)
    scope._prev = getattr(_context, "scope", None)
    _context.scope = scope
    _state.enabled = True
    return scope


def deactivate(scope: TraceScope) -> list[dict]:
    """Close ``scope``, restore the outer one, return the collected spans.

    The spans are also stashed thread-locally so an exception path that
    unwinds past the caller can still recover them with
    :func:`take_stray_spans`.
    """
    _context.scope = scope._prev
    spans = scope.drain()
    scope.collected = spans
    _context.last_spans = spans
    return spans


def take_stray_spans() -> list[dict]:
    """Spans drained by the most recent :func:`deactivate` on this thread."""
    spans = getattr(_context, "last_spans", None)
    _context.last_spans = None
    return list(spans) if spans else []


@contextmanager
def activated(trace_id: str, root_id: str = ""):
    """``with``-shaped :func:`activate`; read ``scope.collected`` after."""
    scope = activate(trace_id, root_id)
    try:
        yield scope
    finally:
        deactivate(scope)


def current_scope() -> TraceScope | None:
    """The active scope on this thread, or ``None`` (also when disabled)."""
    if not _state.enabled:
        return None
    return getattr(_context, "scope", None)


def span_active() -> bool:
    """True when a span recorded now would actually land somewhere."""
    return _state.enabled and getattr(_context, "scope", None) is not None


class _NoopSpan:
    """Shared do-nothing span: the disabled path allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: object) -> "_NoopSpan":
        return self


_NOOP_SPAN = _NoopSpan()


class _LiveSpan:
    """An open span: context manager that records itself on exit."""

    __slots__ = ("_scope", "name", "attrs", "span_id", "parent_id",
                 "_start_wall", "_start_perf")

    def __init__(self, scope: TraceScope, name: str, attrs: dict) -> None:
        self._scope = scope
        self.name = name
        self.attrs = attrs
        self.span_id = new_span_id()
        self.parent_id = ""

    def set(self, **attrs: object) -> "_LiveSpan":
        """Attach attributes discovered after the span opened."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_LiveSpan":
        stack = self._scope.stack
        self.parent_id = stack[-1].span_id if stack else self._scope.root_id
        stack.append(self)
        self._start_wall = time.time()
        self._start_perf = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._start_perf
        stack = self._scope.stack
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._scope.record(
            make_span(
                self._scope.trace_id,
                self.parent_id,
                self.name,
                self._start_wall,
                duration,
                span_id=self.span_id,
                **self.attrs,
            )
        )
        return False


def span(name: str, **attrs: object):
    """Open a child span of the current thread's trace context.

    Costs one attribute check when tracing is disabled, and a second
    lookup when no scope is active (e.g. ``repro evolve`` with tracing
    on but no traced job) — both return a shared no-op span.
    """
    if not _state.enabled:
        return _NOOP_SPAN
    scope = getattr(_context, "scope", None)
    if scope is None:
        return _NOOP_SPAN
    return _LiveSpan(scope, name, dict(attrs))


def record_span(
    name: str,
    duration: float,
    start: float | None = None,
    parent_id: str | None = None,
    **attrs: object,
) -> None:
    """Record an explicitly-timed span into the active context.

    For boundaries whose duration was measured out-of-band (a queue
    wait that began before this process existed, a batch timed with a
    single clock pair).  No-op without an active scope.
    """
    if not _state.enabled:
        return
    scope = getattr(_context, "scope", None)
    if scope is None:
        return
    if parent_id is None:
        parent_id = scope.stack[-1].span_id if scope.stack else scope.root_id
    if start is None:
        start = time.time() - duration
    scope.record(make_span(scope.trace_id, parent_id, name, start, duration, **attrs))


def annotate_span(**attrs: object) -> None:
    """Attach attributes to the innermost open span, if any.

    Lets a lower layer (the sharded store choosing a shard) enrich a
    span opened by a caller that cannot know the value.
    """
    if not _state.enabled:
        return
    scope = getattr(_context, "scope", None)
    if scope is None or not scope.stack:
        return
    scope.stack[-1].set(**attrs)


# -- network propagation ----------------------------------------------------

_TRACEPARENT_RE = re.compile(r"00-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}")


def format_traceparent() -> str | None:
    """The current context as a ``traceparent``-style string, or ``None``."""
    if not _state.enabled:
        return None
    scope = getattr(_context, "scope", None)
    if scope is None:
        return None
    parent = scope.stack[-1].span_id if scope.stack else (scope.root_id or "0" * 16)
    return f"00-{scope.trace_id}-{parent}-01"


def parse_traceparent(value: object) -> tuple[str, str] | None:
    """``(trace_id, span_id)`` from a traceparent string, else ``None``."""
    if not isinstance(value, str):
        return None
    match = _TRACEPARENT_RE.fullmatch(value.strip())
    if match is None:
        return None
    return match.group(1), match.group(2)


# -- durable trace blobs ----------------------------------------------------


def trace_blob_id(job_id: str) -> str:
    """The checkpoint-path blob id holding ``job_id``'s trace."""
    return f"{job_id}{TRACE_BLOB_SUFFIX}"


def flush_spans(
    store: object,
    job_id: str,
    trace_id: str,
    spans: list[dict],
    dropped: int = 0,
    root_id: str = "",
) -> bool:
    """Merge ``spans`` into the job's durable trace blob; never raises.

    Read-modify-write deduplicated by span id (new wins), so the
    submitter, the worker, and a later resume can each flush their part
    and the blob converges to one connected trace.  A blob from a
    different trace id (a resubmitted job) is replaced outright.  The
    span ``root_id`` names is stretched back to the earliest merged span,
    so the root covers its whole trace.
    """
    if not spans:
        return False
    try:
        blob_id = trace_blob_id(job_id)
        existing = store.get_checkpoint(blob_id)
        merged: dict[str, dict] = {}
        if isinstance(existing, dict) and existing.get("trace_id") == trace_id:
            for item in existing.get("spans", []):
                if isinstance(item, dict) and item.get("span_id"):
                    merged[item["span_id"]] = item
            dropped += int(existing.get("dropped", 0) or 0)
        for item in spans:
            merged[item["span_id"]] = item
        root = merged.get(root_id)
        if root is not None:
            earliest = min(item.get("start", 0.0) for item in merged.values())
            start = root.get("start", 0.0)
            if start > earliest:
                merged[root_id] = {
                    **root,
                    "start": earliest,
                    "duration": round(root.get("duration", 0.0) + start - earliest, 6),
                }
        payload = {
            "version": TRACE_BLOB_VERSION,
            "trace_id": trace_id,
            "job_id": job_id,
            "spans": sorted(
                merged.values(),
                key=lambda item: (item.get("start", 0.0), item.get("span_id", "")),
            ),
            "dropped": dropped,
        }
        store.put_checkpoint(blob_id, payload)
        return True
    except Exception:  # noqa: BLE001 - telemetry must never kill the job
        get_registry().inc("repro_errors_total", event="trace_flush_error")
        return False


def load_trace(store: object, job_id: str) -> dict | None:
    """The job's stored trace payload, or ``None`` when absent/malformed."""
    payload = store.get_checkpoint(trace_blob_id(job_id))
    if isinstance(payload, dict) and isinstance(payload.get("spans"), list):
        return payload
    return None


def flush_job_trace(
    store: object,
    record: object,
    spans: list[dict] | tuple = (),
    end: float | None = None,
) -> bool:
    """Flush a job's spans plus the synthesized ``repro.job`` root span.

    ``record`` is any job record (``job_id`` / ``status`` /
    ``submitted_at`` / ``extras``).  No-op for untraced records; the
    submit-time head-sampling decision gates persistence except for
    failed jobs, which always keep their trace.  The root span reuses
    the identity minted at submit (``extras["trace"]["root"]``), so
    repeated flushes update one root instead of stacking new ones.
    """
    info = trace_context_from_extras(getattr(record, "extras", None))
    if info is None:
        return False
    if not info["sampled"] and getattr(record, "status", "") != "failed":
        return False
    all_spans = list(spans)
    root_id = ""
    submitted = getattr(record, "submitted_at", None)
    if submitted:
        end_time = end if end is not None else time.time()
        all_spans.append(
            make_span(
                info["id"],
                "",
                "repro.job",
                start=submitted,
                duration=end_time - submitted,
                span_id=info["root"] or None,
                status=getattr(record, "status", None),
            )
        )
        # The store stamps ``submitted_at`` inside the submitter's own
        # ``repro.submit`` span, so the root starts a little late.
        root_id = all_spans[-1]["span_id"]
    return flush_spans(store, getattr(record, "job_id", ""), info["id"], all_spans,
                       root_id=root_id)


# -- rendering --------------------------------------------------------------


def build_tree(spans: list[dict]) -> list[dict]:
    """Parent-linked span tree: ``[{"span": ..., "children": [...]}]``.

    Spans whose parent is missing from the set (sampling gaps, a lost
    flush) surface as extra roots rather than disappearing.
    """
    nodes = {
        item["span_id"]: {"span": item, "children": []}
        for item in spans
        if isinstance(item, dict) and item.get("span_id")
    }
    roots = []
    for node in nodes.values():
        parent = nodes.get(node["span"].get("parent_id") or "")
        if parent is not None and parent is not node:
            parent["children"].append(node)
        else:
            roots.append(node)
    order = lambda n: (n["span"].get("start", 0.0), n["span"].get("span_id", ""))  # noqa: E731
    for node in nodes.values():
        node["children"].sort(key=order)
    roots.sort(key=order)
    return roots


def self_seconds(node: dict) -> float:
    """A node's own time: duration minus its direct children's."""
    children = sum(child["span"].get("duration", 0.0) for child in node["children"])
    return max(0.0, node["span"].get("duration", 0.0) - children)


def _format_attrs(attrs: dict) -> str:
    parts = [f"{key}={value}" for key, value in sorted(attrs.items())]
    text = " ".join(parts)
    return text if len(text) <= 48 else text[:45] + "..."


def render_waterfall(payload: dict, width: int = 40) -> str:
    """The ASCII waterfall ``repro trace JOB`` prints.

    One line per span: indented name, a time-positioned bar, duration,
    percent of the trace's wall clock, and self time (duration minus
    direct children — where the span itself did the work).
    """
    spans = [item for item in payload.get("spans", []) if isinstance(item, dict)]
    roots = build_tree(spans)
    if not roots:
        return "(no spans)"
    t0 = min(item.get("start", 0.0) for item in spans)
    t1 = max(item.get("start", 0.0) + item.get("duration", 0.0) for item in spans)
    total = max(t1 - t0, 1e-9)

    rows: list[tuple[int, dict]] = []

    def walk(node: dict, depth: int) -> None:
        rows.append((depth, node))
        for child in node["children"]:
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)

    name_width = max(len("  " * depth + node["span"]["name"]) for depth, node in rows)
    name_width = min(max(name_width, 16), 44)
    lines = [
        f"trace {payload.get('trace_id', '')[:16]} · {payload.get('job_id', '')} · "
        f"{len(spans)} span(s) · {total:.2f}s"
    ]
    for depth, node in rows:
        item = node["span"]
        start = item.get("start", 0.0) - t0
        duration = item.get("duration", 0.0)
        offset = min(width - 1, int(start / total * width))
        length = max(1, min(width - offset, round(duration / total * width)))
        bar = " " * offset + "#" * length + " " * (width - offset - length)
        label = ("  " * depth + item["name"])[:name_width]
        line = (
            f"{label:<{name_width}} |{bar}| {duration:9.3f}s "
            f"{100.0 * duration / total:5.1f}%  self {self_seconds(node):.3f}s"
        )
        attrs = item.get("attrs")
        if attrs:
            line += f"  {_format_attrs(attrs)}"
        lines.append(line)
    if payload.get("dropped"):
        lines.append(f"({payload['dropped']} span(s) dropped at the recording cap)")
    return "\n".join(lines)
