"""Distributed job tracing: span primitives, durable trace blobs, and
the fleet-crossing contract.

The centerpiece is the ``store_harness``-parametrized battery asserting
that one job run end-to-end — traced submit, worker claim, evaluation,
release — leaves exactly one *connected* span tree in the durable trace
blob, on every store backend (sqlite, and remote-over-HTTP fronting
it).  The kill-the-worker test proves a
resumed job links its new spans to the original trace instead of
starting a fresh one.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro import obs
from repro.cli import main
from repro.obs import trace
from repro.service import (
    JobStoreServer,
    ProtectionJob,
    SqliteJobStore,
    Worker,
)

EXPECTED_NAMES = {
    "repro.job",
    "repro.submit",
    "repro.queue.wait",
    "repro.claim",
    "repro.run",
    "repro.release",
    "repro.engine.generation",
    "repro.eval.batch",
}


@pytest.fixture(autouse=True)
def clean_tracer():
    """Tracer and registry are process-global; leave both quiet."""
    trace.disable_tracing()
    obs.disable()
    obs.get_registry().reset()
    obs.configure_events(None)
    yield
    trace.disable_tracing()
    obs.disable()
    obs.get_registry().reset()
    obs.configure_events(None)


def _job(seed: int = 5, generations: int = 2) -> ProtectionJob:
    return ProtectionJob(dataset="flare", generations=generations, seed=seed)


def _submit_traced(store, job, checkpoint_every: int = 0):
    """Submit ``job`` the way ``repro submit --trace-sample 1.0`` does."""
    info = trace.new_trace_info()
    assert info is not None
    with trace.activated(info["id"], info["root"]) as scope:
        with trace.span("repro.submit", dataset=job.dataset, seed=job.seed):
            record = store.submit(
                job,
                extras={"checkpoint_every": checkpoint_every, "trace": info},
            )
    trace.flush_spans(store, record.job_id, info["id"], scope.collected)
    return record, info


class TestSpanPrimitives:
    def test_disabled_span_is_shared_noop(self):
        assert trace.span("repro.anything") is trace.span("repro.other")
        with trace.span("repro.anything") as opened:
            opened.set(key="value")  # must be accepted and discarded

    def test_enabled_without_scope_is_noop(self):
        trace.enable_tracing()
        assert trace.span("repro.anything") is trace._NOOP_SPAN

    def test_nested_spans_parent_under_each_other(self):
        trace.enable_tracing()
        with trace.activated(trace.new_trace_id(), "rootrootrootroot") as scope:
            with trace.span("repro.outer") as outer:
                with trace.span("repro.inner"):
                    pass
        spans = {item["name"]: item for item in scope.collected}
        assert spans["repro.outer"]["parent_id"] == "rootrootrootroot"
        assert spans["repro.inner"]["parent_id"] == outer.span_id
        assert spans["repro.inner"]["start"] >= spans["repro.outer"]["start"]

    def test_exception_exit_records_error_attr_and_propagates(self):
        trace.enable_tracing()
        with trace.activated(trace.new_trace_id()) as scope:
            with pytest.raises(RuntimeError):
                with trace.span("repro.doomed"):
                    raise RuntimeError("boom")
        (span,) = scope.collected
        assert span["attrs"]["error"] == "RuntimeError"

    def test_record_span_defaults_parent_and_start(self):
        trace.enable_tracing()
        with trace.activated(trace.new_trace_id(), "rootrootrootroot") as scope:
            trace.record_span("repro.queue.wait", 1.5)
        (span,) = scope.collected
        assert span["parent_id"] == "rootrootrootroot"
        assert span["duration"] == 1.5

    def test_scope_caps_spans_and_counts_dropped(self):
        trace.enable_tracing()
        scope = trace.TraceScope("t" * 32)
        for index in range(trace.MAX_SPANS_PER_SCOPE + 7):
            scope.record(trace.make_span("t" * 32, "", "repro.x", 0.0, 0.0))
        assert len(scope.spans) == trace.MAX_SPANS_PER_SCOPE
        assert scope.dropped == 7

    def test_enable_tracing_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            trace.enable_tracing(sample_rate=1.5)
        with pytest.raises(ValueError):
            trace.enable_tracing(sample_rate=-0.1)

    def test_head_sampling_is_deterministic_from_the_id(self):
        low = "00000001" + "a" * 24
        high = "ffffffff" + "a" * 24
        assert trace.head_sampled(low, 0.5)
        assert not trace.head_sampled(high, 0.5)
        assert trace.head_sampled(high, 1.0)
        assert not trace.head_sampled(low, 0.0)
        # Every process must reach the same verdict.
        assert trace.head_sampled(low, 0.5) == trace.head_sampled(low, 0.5)

    def test_traceparent_round_trip(self):
        trace.enable_tracing()
        trace_id = trace.new_trace_id()
        with trace.activated(trace_id, "feedfacefeedface"):
            header = trace.format_traceparent()
        assert trace.parse_traceparent(header) == (trace_id, "feedfacefeedface")

    def test_traceparent_rejects_garbage(self):
        assert trace.parse_traceparent(None) is None
        assert trace.parse_traceparent("") is None
        assert trace.parse_traceparent("00-zz-aa-01") is None
        assert trace.parse_traceparent(12) is None

    def test_format_traceparent_none_when_disabled_or_unscoped(self):
        assert trace.format_traceparent() is None
        trace.enable_tracing()
        assert trace.format_traceparent() is None

    def test_slow_op_ledger_counts_and_emits(self):
        obs.enable()
        lines: list[str] = []

        class Sink:
            def write(self, text):
                lines.append(text)

            def flush(self):
                pass

        obs.configure_events(Sink())
        trace.enable_tracing(slow_op_seconds=0.5)
        with trace.activated(trace.new_trace_id()) as scope:
            trace.record_span("repro.run", 2.0)
        assert scope.collected
        counters = {
            (c["labels"].get("op"), c["value"])
            for c in obs.get_registry().snapshot()["counters"]
            if c["name"] == "repro_slow_ops_total"
        }
        assert ("repro.run", 1.0) in counters
        events = [json.loads(line) for line in lines if line.strip()]
        assert any(
            e["event"] == "slow_op" and e["op"] == "repro.run" for e in events
        )


class TestDurableBlobs:
    def test_flush_merges_and_dedupes_by_span_id(self, tmp_path):
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        trace_id = trace.new_trace_id()
        first = trace.make_span(trace_id, "", "repro.submit", 1.0, 0.1)
        trace.flush_spans(store, "job-x", trace_id, [first])
        updated = dict(first)
        updated["duration"] = 9.0
        second = trace.make_span(trace_id, "", "repro.run", 2.0, 0.2)
        assert trace.flush_spans(store, "job-x", trace_id, [updated, second])
        payload = trace.load_trace(store, "job-x")
        assert payload["version"] == trace.TRACE_BLOB_VERSION
        assert len(payload["spans"]) == 2
        by_id = {s["span_id"]: s for s in payload["spans"]}
        assert by_id[first["span_id"]]["duration"] == 9.0  # new wins

    def test_job_root_is_stretched_over_an_earlier_submit_span(self, tmp_path):
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        info = {"id": trace.new_trace_id(), "root": trace.new_span_id(), "sampled": True}
        submit = trace.make_span(info["id"], info["root"], "repro.submit", 10.0, 0.5)
        trace.flush_spans(store, "job-x", info["id"], [submit])
        record = SimpleNamespace(job_id="job-x", status="completed",
                                 submitted_at=10.25, extras={"trace": info})
        assert trace.flush_job_trace(store, record, end=12.0)
        spans = trace.load_trace(store, "job-x")["spans"]
        (root,) = [s for s in spans if s["name"] == "repro.job"]
        assert (root["start"], root["duration"]) == (10.0, 2.0)

    def test_resubmitted_job_replaces_foreign_trace(self, tmp_path):
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        old_id, new_id = trace.new_trace_id(), trace.new_trace_id()
        trace.flush_spans(
            store, "job-x", old_id,
            [trace.make_span(old_id, "", "repro.submit", 1.0, 0.1)],
        )
        trace.flush_spans(
            store, "job-x", new_id,
            [trace.make_span(new_id, "", "repro.submit", 2.0, 0.1)],
        )
        payload = trace.load_trace(store, "job-x")
        assert payload["trace_id"] == new_id
        assert len(payload["spans"]) == 1

    def test_flush_empty_is_a_noop(self, tmp_path):
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        assert not trace.flush_spans(store, "job-x", trace.new_trace_id(), [])
        assert trace.load_trace(store, "job-x") is None

    def test_flush_never_raises_and_counts_failures(self):
        obs.enable()

        class BrokenStore:
            def get_checkpoint(self, blob_id):
                raise OSError("disk on fire")

            def put_checkpoint(self, blob_id, payload, owner=None):
                raise OSError("disk on fire")

        trace_id = trace.new_trace_id()
        ok = trace.flush_spans(
            BrokenStore(), "job-x", trace_id,
            [trace.make_span(trace_id, "", "repro.submit", 1.0, 0.1)],
        )
        assert ok is False
        counters = {
            c["labels"].get("event"): c["value"]
            for c in obs.get_registry().snapshot()["counters"]
            if c["name"] == "repro_errors_total"
        }
        assert counters.get("trace_flush_error") == 1.0

    def test_flush_job_trace_honours_sampling_except_failures(self, tmp_path):
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        record = store.submit(_job(seed=31))
        record.extras["trace"] = {
            "id": trace.new_trace_id(), "root": trace.new_span_id(),
            "sampled": False,
        }
        assert not trace.flush_job_trace(store, record)
        assert trace.load_trace(store, record.job_id) is None
        record.status = "failed"
        assert trace.flush_job_trace(store, record)
        payload = trace.load_trace(store, record.job_id)
        (root,) = payload["spans"]
        assert root["name"] == "repro.job"
        assert root["attrs"]["status"] == "failed"

    def test_flush_job_trace_noop_without_trace_extras(self, tmp_path):
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        record = store.submit(_job(seed=32))
        assert not trace.flush_job_trace(store, record)

    def test_load_trace_rejects_malformed_blob(self, tmp_path):
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        store.put_checkpoint(trace.trace_blob_id("job-x"), {"spans": "nope"})
        assert trace.load_trace(store, "job-x") is None


class TestWaterfall:
    def _payload(self):
        trace_id = trace.new_trace_id()
        root = trace.make_span(
            trace_id, "", "repro.job", 0.0, 10.0, status="completed"
        )
        child = trace.make_span(
            trace_id, root["span_id"], "repro.run", 1.0, 8.0, dataset="flare"
        )
        return {
            "version": 1,
            "trace_id": trace_id,
            "job_id": "job-x",
            "spans": [root, child],
            "dropped": 0,
        }

    def test_renders_header_bars_and_self_time(self):
        out = trace.render_waterfall(self._payload())
        lines = out.splitlines()
        assert "job-x" in lines[0] and "2 span(s)" in lines[0]
        assert "repro.job" in lines[1] and "100.0%" in lines[1]
        assert "  repro.run" in lines[2] and "dataset=flare" in lines[2]
        assert "self 2.000s" in lines[1]  # 10s minus the 8s child

    def test_orphans_surface_as_roots_not_lost(self):
        payload = self._payload()
        orphan = trace.make_span(
            payload["trace_id"], "f" * 16, "repro.eval.batch", 2.0, 1.0
        )
        payload["spans"].append(orphan)
        roots = trace.build_tree(payload["spans"])
        assert {r["span"]["name"] for r in roots} == {
            "repro.job", "repro.eval.batch",
        }

    def test_dropped_footer(self):
        payload = self._payload()
        payload["dropped"] = 3
        assert "3 span(s) dropped" in trace.render_waterfall(payload)

    def test_empty_payload(self):
        assert trace.render_waterfall({"spans": []}) == "(no spans)"


def _assert_connected(payload, expect_names=EXPECTED_NAMES):
    spans = payload["spans"]
    ids = [s["span_id"] for s in spans]
    assert len(ids) == len(set(ids)), "span ids must be unique"
    assert {s["trace_id"] for s in spans} == {payload["trace_id"]}
    roots = [s for s in spans if not s["parent_id"]]
    assert [r["name"] for r in roots] == ["repro.job"]
    id_set = set(ids)
    for span in spans:
        if span["parent_id"]:
            assert span["parent_id"] in id_set, (
                f"{span['name']} parent missing: disconnected tree"
            )
    assert expect_names <= {s["name"] for s in spans}


class TestFleetContract:
    """Satellite 4: one connected span tree per job, on every backend."""

    def test_traced_job_leaves_one_connected_tree(self, store_harness):
        trace.enable_tracing(sample_rate=1.0)
        store = store_harness.store
        record, info = _submit_traced(store, _job())
        (outcome,) = Worker(store, stale_after=60.0).run_once()
        assert outcome.ok
        payload = trace.load_trace(store, record.job_id)
        assert payload is not None
        assert payload["trace_id"] == info["id"]
        _assert_connected(payload)
        root = next(s for s in payload["spans"] if s["name"] == "repro.job")
        assert root["span_id"] == info["root"]
        assert root["attrs"]["status"] == "completed"
        claim = next(s for s in payload["spans"] if s["name"] == "repro.claim")
        assert claim["attrs"]["worker"]

    def test_failed_reread_still_flushes_and_is_counted(self, tmp_path):
        trace.enable_tracing(sample_rate=1.0)
        registry = obs.enable()
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        record, info = _submit_traced(store, _job(seed=7))
        worker = Worker(store, stale_after=60.0)
        flush = worker._flush_traces

        def flush_with_a_failing_get(*args, **kwargs):
            def broken_get(*_, **__):
                raise OSError("store read failed")

            store.get = broken_get
            try:
                return flush(*args, **kwargs)
            finally:
                del store.get

        worker._flush_traces = flush_with_a_failing_get
        (outcome,) = worker.run_once()
        assert outcome.ok
        payload = trace.load_trace(store, record.job_id)
        assert payload is not None and payload["trace_id"] == info["id"]
        _assert_connected(payload)
        errors = [c["value"] for c in registry.snapshot()["counters"]
                  if c["name"] == "repro_errors_total"
                  and c["labels"] == {"event": "trace_reread_error"}]
        assert errors == [1.0]

    def test_untraced_job_leaves_no_blob(self, store_harness):
        store = store_harness.store
        record = store.submit(_job(seed=6))
        (outcome,) = Worker(store, stale_after=60.0).run_once()
        assert outcome.ok
        assert trace.load_trace(store, record.job_id) is None


class TestResumeLinksToOriginalTrace:
    """Kill the worker mid-job; the resumed run joins the same trace."""

    def test_killed_then_resumed_job_has_one_trace(self, tmp_path, monkeypatch):
        import repro.service.runner as runner_mod

        trace.enable_tracing(sample_rate=1.0)
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        record, info = _submit_traced(store, _job(seed=9), checkpoint_every=1)

        real = runner_mod.run_lockstep
        calls = {"n": 0}

        def dying_run(*args, **kwargs):
            calls["n"] += 1
            result = real(*args, **kwargs)
            if calls["n"] == 1:
                raise RuntimeError("worker killed mid-release")
            return result

        monkeypatch.setattr(runner_mod, "run_lockstep", dying_run)
        (outcome,) = Worker(store, stale_after=60.0).run_once()
        assert not outcome.ok
        failed = store.get(record.job_id)
        assert failed.status == "failed"
        first = trace.load_trace(store, record.job_id)
        assert first is not None and first["trace_id"] == info["id"]
        assert any(
            s["name"] == "repro.run" and s.get("attrs", {}).get("error")
            for s in first["spans"]
        )

        store.requeue(failed)
        (outcome,) = Worker(store, stale_after=60.0).run_once()
        assert outcome.ok
        payload = trace.load_trace(store, record.job_id)
        assert payload["trace_id"] == info["id"], "resume must keep the trace"
        runs = [s for s in payload["spans"] if s["name"] == "repro.run"]
        assert len(runs) == 2
        assert any(s.get("attrs", {}).get("resume") for s in runs)
        assert any(s.get("attrs", {}).get("error") for s in runs)
        claims = [s for s in payload["spans"] if s["name"] == "repro.claim"]
        assert len(claims) == 2
        roots = [s for s in payload["spans"] if not s["parent_id"]]
        assert [r["name"] for r in roots] == ["repro.job"]
        assert roots[0]["attrs"]["status"] == "completed"


    def test_repro_resume_flushes_its_claim_span(self, tmp_path, capsys):
        from repro.service import JobRunner

        trace.enable_tracing(sample_rate=1.0)
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        record, _ = _submit_traced(store, _job(seed=12), checkpoint_every=1)
        # A run that saved its checkpoints but never reached a worker's
        # trace flush, like one killed before its release.
        JobRunner(store=store, checkpoint_every=1).run([record.job])
        assert main(["resume", "--job", record.job_id,
                     "--state-dir", str(tmp_path)]) == 0
        payload = trace.load_trace(store, record.job_id)
        _assert_connected(payload, {"repro.job", "repro.submit", "repro.claim",
                                    "repro.run", "repro.release"})
        claims = [s for s in payload["spans"] if s["name"] == "repro.claim"]
        assert len(claims) == 1
        assert claims[0]["attrs"]["worker"].startswith("resume-")


class TestCheckpointSpan:
    def test_each_save_is_a_span_under_run(self, tmp_path):
        trace.enable_tracing(sample_rate=1.0)
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        record, _ = _submit_traced(store, _job(seed=11, generations=3),
                                   checkpoint_every=1)
        (outcome,) = Worker(store, stale_after=60.0).run_once()
        assert outcome.ok
        spans = trace.load_trace(store, record.job_id)["spans"]
        (run,) = [s for s in spans if s["name"] == "repro.run"]
        saves = [s for s in spans if s["name"] == "repro.checkpoint.save"]
        assert [s["attrs"]["generation"] for s in saves] == [1, 2, 3]
        assert {s["parent_id"] for s in saves} == {run["span_id"]}


class TestPlainJobSpanTree:
    """A traced plain job's whole tree, pinned as it was when plain jobs
    still ran through ``run_experiment``."""

    #: (name, parent name, attribute keys) of every span of a 3-generation
    #: job saving at generation 2 and the final partial 3.
    TREE = sorted(
        [("repro.job", "", ("status",)),
         ("repro.submit", "repro.job", ("dataset", "seed")),
         ("repro.queue.wait", "repro.job", ()),
         ("repro.claim", "repro.job", ("worker",)),
         ("repro.run", "repro.job", ("dataset", "seed")),
         ("repro.population.build", "repro.run", ("dataset", "memo_hit")),
         ("repro.eval.batch", "repro.run", ("fresh", "size")),
         ("repro.release", "repro.job", ("worker",))]
        + [("repro.engine.generation", "repro.run",
            ("accepted", "evaluations", "generation", "operator")),
           ("repro.eval.batch", "repro.engine.generation", ("fresh", "size"))] * 3
        + [("repro.checkpoint.save", "repro.run", ("generation",))] * 2
    )

    #: The client's RPC spans a store behind the HTTP server adds.
    RPCS = [("repro.rpc", "repro.submit", ("method",))] + \
        [("repro.rpc", "repro.checkpoint.save", ("method",))] * 2

    def test_tree_is_pinned(self, store_harness):
        trace.enable_tracing(sample_rate=1.0)
        store = store_harness.store
        record, _ = _submit_traced(store, _job(seed=31, generations=3), checkpoint_every=2)
        (outcome,) = Worker(store, stale_after=60.0).run_once()
        assert outcome.ok
        spans = trace.load_trace(store, record.job_id)["spans"]
        names = {s["span_id"]: s["name"] for s in spans}
        tree = sorted((s["name"], names.get(s["parent_id"], ""),
                       tuple(sorted(s.get("attrs") or ()))) for s in spans)
        remote = store is not store_harness.backing
        assert tree == sorted(self.TREE + (self.RPCS if remote else []))
        saves = [s for s in spans if s["name"] == "repro.checkpoint.save"]
        assert [s["attrs"]["generation"] for s in saves] == [2, 3]


class TestPopulationBuildSpan:
    def test_build_is_a_span_under_run_with_memo_hit(self, tmp_path, monkeypatch):
        from repro.experiments import population_builder

        monkeypatch.setattr(population_builder, "_MEMO", None)
        trace.enable_tracing(sample_rate=1.0)
        registry = obs.enable()
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        records = [_submit_traced(store, _job(seed=seed, generations=1))[0]
                   for seed in (21, 22)]
        outcomes = Worker(store, stale_after=60.0, capacity=2).run_once()
        assert all(o.ok for o in outcomes)
        hits = []
        for record in records:
            spans = trace.load_trace(store, record.job_id)["spans"]
            (run,) = [s for s in spans if s["name"] == "repro.run"]
            (build,) = [s for s in spans if s["name"] == "repro.population.build"]
            assert build["parent_id"] == run["span_id"]
            hits.append(build["attrs"]["memo_hit"])
        # Same dataset and population seed: one worker builds once.
        assert sorted(hits) == [False, True]
        (histogram,) = [h for h in registry.snapshot()["histograms"]
                        if h["name"] == "repro_population_build_seconds"]
        assert histogram["count"] == 2


class TestObserverContract:
    """PR 6 rules: tracing may never change results."""

    def _results_on_and_off(self, tmp_path, checkpoint_every: int = 0):
        results = {}
        for mode in ("off", "on"):
            store = SqliteJobStore(tmp_path / mode / "jobs.sqlite")
            if mode == "on":
                trace.enable_tracing(sample_rate=1.0)
                record, _ = _submit_traced(store, _job(seed=13), checkpoint_every)
            else:
                trace.disable_tracing()
                record = store.submit(
                    _job(seed=13), extras={"checkpoint_every": checkpoint_every})
            (outcome,) = Worker(store, stale_after=60.0).run_once()
            assert outcome.ok
            results[mode] = store.get(record.job_id).result
        return results["on"], results["off"]

    def test_results_bit_identical_with_tracing_on_and_off(self, tmp_path):
        on, off = self._results_on_and_off(tmp_path)
        assert on.final_scores == off.final_scores
        assert on.best_score == off.best_score
        assert on.best_information_loss == off.best_information_loss
        assert on.fresh_evaluations == off.fresh_evaluations

    def test_checkpointing_job_bit_identical_with_tracing_on_and_off(self, tmp_path):
        on, off = self._results_on_and_off(tmp_path, checkpoint_every=1)
        assert on.final_scores == off.final_scores
        assert on.best_score == off.best_score
        assert on.fresh_evaluations == off.fresh_evaluations

    def test_new_trace_info_is_none_when_disabled(self):
        assert trace.new_trace_info() is None
        record_extras = {"checkpoint_every": 0}
        assert trace.trace_context_from_extras(record_extras) is None


class TestServeTraceEndpoint:
    """GET /trace/<job_id> on the store server, plus header propagation."""

    @pytest.fixture
    def served(self, tmp_path):
        trace.enable_tracing(sample_rate=1.0)
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        record, info = _submit_traced(store, _job(seed=21))
        server = JobStoreServer(store, token="trace-token")
        server.start()
        try:
            yield server, record, info
        finally:
            server.stop()

    def _get(self, url, token="trace-token"):
        request = urllib.request.Request(url)
        if token:
            request.add_header("Authorization", f"Bearer {token}")
        return urllib.request.urlopen(request, timeout=5)

    def test_trace_get_returns_payload_with_headers(self, served):
        server, record, info = served
        with self._get(f"{server.url}/trace/{record.job_id}") as response:
            payload = json.loads(response.read())
            assert response.headers["X-Repro-Trace-Id"] == info["id"]
            assert response.headers["X-Repro-Cache-Status"] == "miss"
        assert payload["trace_id"] == info["id"]
        assert any(s["name"] == "repro.submit" for s in payload["spans"])
        with self._get(f"{server.url}/trace/{record.job_id}") as response:
            assert response.headers["X-Repro-Cache-Status"] == "hit"

    def test_trace_get_requires_token(self, served):
        server, record, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(f"{server.url}/trace/{record.job_id}", token=None)
        assert excinfo.value.code == 401

    def test_trace_get_unknown_job_is_404(self, served):
        server, _, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(f"{server.url}/trace/flare-s99-0000000000")
        assert excinfo.value.code == 404

    def test_trace_get_rejects_unsafe_id(self, served):
        server, _, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(f"{server.url}/trace/..%2Fetc")
        assert excinfo.value.code == 400

    def test_rpc_response_echoes_trace_id_header(self, served):
        """Satellite 3: X-Repro-Trace-Id on every traced RPC response."""
        server, record, info = served
        envelope = {
            "method": "get",
            "params": {"job_id": record.job_id},
            "trace": f"00-{info['id']}-{info['root']}-01",
        }
        request = urllib.request.Request(
            f"{server.url}/rpc",
            data=json.dumps(envelope).encode(),
            headers={
                "Authorization": "Bearer trace-token",
                "Content-Type": "application/json",
            },
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=5) as response:
            assert response.headers["X-Repro-Trace-Id"] == info["id"]
            body = json.loads(response.read())
        assert body["result"]

    def test_untraced_rpc_has_no_trace_header(self, served):
        server, record, _ = served
        envelope = {"method": "get", "params": {"job_id": record.job_id}}
        request = urllib.request.Request(
            f"{server.url}/rpc",
            data=json.dumps(envelope).encode(),
            headers={
                "Authorization": "Bearer trace-token",
                "Content-Type": "application/json",
            },
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=5) as response:
            assert response.headers.get("X-Repro-Trace-Id") is None


class TestEventSinkRotation:
    """Satellite 1: --log-json-file backing stream rotates by size."""

    def test_rotating_stream_rotates_at_bound(self, tmp_path):
        from repro.obs.events import RotatingFileStream

        path = tmp_path / "logs" / "events.jsonl"
        stream = RotatingFileStream(path, max_bytes=100)
        first = "x" * 80 + "\n"
        stream.write(first)
        stream.write("y" * 80 + "\n")
        stream.flush()
        stream.close()
        assert stream.backup_path.read_text(encoding="utf-8") == first
        assert path.read_text(encoding="utf-8") == "y" * 80 + "\n"

    def test_rotation_keeps_exactly_one_backup(self, tmp_path):
        from repro.obs.events import RotatingFileStream

        path = tmp_path / "events.jsonl"
        stream = RotatingFileStream(path, max_bytes=10)
        for index in range(5):
            stream.write(f"line-{index}-padding\n")
        stream.close()
        assert path.exists() and stream.backup_path.exists()
        assert not path.with_suffix(".jsonl.2").exists()

    def test_rejects_nonpositive_bound(self, tmp_path):
        from repro.obs.events import RotatingFileStream

        with pytest.raises(ValueError):
            RotatingFileStream(tmp_path / "e.jsonl", max_bytes=0)

    def test_tee_fans_out_writes(self):
        from repro.obs.events import TeeStream

        seen: list[tuple[int, str]] = []

        class Sink:
            def __init__(self, tag):
                self.tag = tag

            def write(self, text):
                seen.append((self.tag, text))

            def flush(self):
                pass

        tee = TeeStream(Sink(1), Sink(2))
        tee.write("hello")
        tee.flush()
        assert seen == [(1, "hello"), (2, "hello")]

    def test_event_log_survives_broken_file_sink(self, tmp_path):
        from repro.obs.events import RotatingFileStream

        path = tmp_path / "events.jsonl"
        stream = RotatingFileStream(path, max_bytes=1024)
        stream.close()  # writes after close raise inside the sink
        obs.enable()
        obs.configure_events(stream)
        obs.emit_event("job_submitted", job_id="j1")  # must not raise
        counters = {
            c["labels"].get("event"): c["value"]
            for c in obs.get_registry().snapshot()["counters"]
            if c["name"] == "repro_errors_total"
        }
        assert counters.get("event_log_write_error") == 1.0


class TestCliSurfaces:
    """repro trace / status --json trace_id / --log-json-file wiring."""

    @pytest.fixture(scope="class")
    def traced_state(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace-cli-state")
        log_file = path / "logs" / "events.jsonl"
        assert main([
            "submit", "--dataset", "flare", "--generations", "2",
            "--seed", "17", "--state-dir", str(path),
            "--trace-sample", "1.0",
            "--log-json-file", str(log_file),
        ]) == 0
        trace.disable_tracing()
        obs.disable()
        obs.get_registry().reset()
        obs.configure_events(None)
        job_id = ProtectionJob(dataset="flare", generations=2, seed=17).job_id
        return str(path), job_id, log_file

    def test_trace_renders_connected_waterfall(self, traced_state, capsys):
        path, job_id, _ = traced_state
        assert main(["trace", job_id, "--state-dir", path]) == 0
        out = capsys.readouterr().out
        assert "repro.job" in out
        assert "repro.submit" in out
        assert "repro.run" in out
        assert "100.0%" in out

    def test_trace_json_is_the_raw_payload(self, traced_state, capsys):
        path, job_id, _ = traced_state
        assert main(["trace", job_id, "--state-dir", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        _assert_connected(
            payload,
            expect_names={"repro.job", "repro.submit", "repro.run"},
        )

    def test_status_json_carries_trace_id(self, traced_state, capsys):
        path, job_id, _ = traced_state
        assert main(["status", "--state-dir", path, "--json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert row["job_id"] == job_id
        assert row["trace_id"]

    def test_log_json_file_received_structured_events(self, traced_state):
        _, job_id, log_file = traced_state
        events = [
            json.loads(line)
            for line in log_file.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        assert events, "the --log-json-file sink saw no events"
        assert all("event" in e and "ts" in e for e in events)
        assert "generation" in {e["event"] for e in events}

    def test_trace_without_blob_hints_and_fails(self, tmp_path, capsys):
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        record = store.submit(_job(seed=23))
        assert main(["trace", record.job_id,
                     "--state-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "no trace" in out or "sampled" in out

    def test_trace_unknown_job_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace"])  # job id is required


class TestMigrateCarriesTraces:
    def test_migrate_copies_trace_blobs(self, tmp_path):
        from repro.service.store import migrate_store

        trace.enable_tracing(sample_rate=1.0)
        source = SqliteJobStore(tmp_path / "src" / "jobs.sqlite")
        record, info = _submit_traced(source, _job(seed=27))
        target = SqliteJobStore(tmp_path / "dst" / "jobs.sqlite")
        counts = migrate_store(source, target)
        assert counts["records"] == 1
        assert counts["traces"] == 1
        moved = trace.load_trace(target, record.job_id)
        assert moved is not None and moved["trace_id"] == info["id"]
