"""Cross-process trace stitching: clock alignment, critical path,
stage coverage — plus the end-to-end fabric test that a 2-node router
run produces one stitched trace spanning all three process layers."""

import glob
import json
import os
import time
from collections import OrderedDict

import pytest

from repro.lower.engine import CompiledEngine, LoweringConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.stitch import (
    critical_path,
    events_for_trace,
    format_timeline,
    load_jsonl_trace,
    stage_coverage,
    stitch_traces,
    trace_ids,
)
from repro.obs.tracing import Tracer, install_tracer, uninstall_tracer
from repro.service import ServiceConfig, StencilService
from repro.service.pool import _run_job
from repro.service.proto import Request
from repro.service.router import NodeConfig, Router, RouterConfig
from repro.service.workload import resolve_request

TRACE = "a" * 32


def _write_jsonl(path, meta, records):
    with open(path, "w", encoding="utf-8") as fh:
        if meta is not None:
            fh.write(json.dumps(meta) + "\n")
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _meta(process, pid, epoch_us):
    return {
        "kind": "trace_meta",
        "process": process,
        "pid": pid,
        "epoch_unix_us": epoch_us,
    }


def _span(name, ts_us, dur_us, span_id=None, parent=None, **extra):
    rec = {
        "name": name,
        "ts_us": ts_us,
        "dur_us": dur_us,
        "tid": 1,
        "depth": 0,
        "parent": None,
        "args": extra,
        "trace_id": TRACE,
    }
    if span_id:
        rec["span_id"] = span_id
    if parent:
        rec["parent_span_id"] = parent
    return rec


class TestLoadJsonl:
    def test_meta_and_records(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        _write_jsonl(
            path, _meta("router", 1, 5.0), [_span("a", 0, 10)]
        )
        meta, records = load_jsonl_trace(path)
        assert meta["process"] == "router"
        assert [r["name"] for r in records] == ["a"]

    def test_truncated_line_names_position(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps(_meta("r", 1, 0.0)) + "\n")
            fh.write('{"name": "a", "ts_us":')  # torn write
        with pytest.raises(ValueError, match=r"t\.jsonl:2"):
            load_jsonl_trace(path)

    def test_non_span_object_rejected(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        _write_jsonl(path, None, [{"foo": 1}])
        with pytest.raises(ValueError, match="not a span record"):
            load_jsonl_trace(path)


class TestStitch:
    def _two_files(self, tmp_path):
        """Router at epoch 1e6 us, node at epoch 1e6+100 us."""
        router = str(tmp_path / "router.jsonl")
        node = str(tmp_path / "node.jsonl")
        _write_jsonl(
            router,
            _meta("router", 1, 1_000_000.0),
            [_span("router.request", 0.0, 1000.0, span_id="r" * 16)],
        )
        _write_jsonl(
            node,
            _meta("node", 2, 1_000_100.0),
            [
                _span(
                    "service.request",
                    50.0,
                    500.0,
                    span_id="s" * 16,
                    parent="r" * 16,
                ),
                # A pool worker's relayed span: own pid, no meta of
                # its own in any file.
                dict(
                    _span(
                        "worker.execute",
                        120.0,
                        200.0,
                        span_id="w" * 16,
                        parent="s" * 16,
                    ),
                    pid=3,
                ),
            ],
        )
        return [router, node]

    def test_rebase_aligns_epochs(self, tmp_path):
        doc = stitch_traces(self._two_files(tmp_path))
        events = {
            e["name"]: e
            for e in doc["traceEvents"]
            if e["ph"] == "X"
        }
        # Root starts at the global minimum; the node span lands
        # 150 us later (100 us epoch skew + 50 us local offset).
        assert events["router.request"]["ts"] == 0.0
        assert events["service.request"]["ts"] == pytest.approx(150.0)
        assert all(
            e["ts"] >= 0 for e in events.values()
        )

    def test_distinct_pid_rows_with_names(self, tmp_path):
        doc = stitch_traces(self._two_files(tmp_path))
        names = {
            e["pid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M"
        }
        assert names == {
            1: "router",
            2: "node",
            3: "pool-worker-3",
        }
        assert {
            e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"
        } == {1, 2, 3}

    def test_missing_meta_is_an_error(self, tmp_path):
        path = str(tmp_path / "bare.jsonl")
        _write_jsonl(path, None, [_span("a", 0, 1)])
        with pytest.raises(ValueError, match="no trace_meta header"):
            stitch_traces([path])

    def test_trace_ids_counts(self, tmp_path):
        doc = stitch_traces(self._two_files(tmp_path))
        assert trace_ids(doc) == {TRACE: 3}

    def test_timeline_renders_every_span(self, tmp_path):
        doc = stitch_traces(self._two_files(tmp_path))
        text = format_timeline(
            events_for_trace(doc, TRACE), {1: "router", 2: "node"}
        )
        assert "router.request" in text
        assert "worker.execute" in text


def _doc(events):
    return {"traceEvents": events}


def _event(name, ts, dur, span_id=None, parent=None, pid=1):
    return {
        "name": name,
        "ph": "X",
        "ts": float(ts),
        "dur": float(dur),
        "pid": pid,
        "tid": 0,
        "args": {
            "trace_id": TRACE,
            **({"span_id": span_id} if span_id else {}),
            **({"parent_span_id": parent} if parent else {}),
        },
    }


class TestCriticalPath:
    def test_descends_dominant_children(self):
        doc = _doc(
            [
                _event("root", 0, 1000, span_id="r"),
                _event("a", 10, 600, span_id="a", parent="r"),
                _event("b", 700, 100, span_id="b", parent="r"),
                _event("g", 20, 400, span_id="g", parent="a"),
            ]
        )
        assert [e["name"] for e in critical_path(doc, TRACE)] == [
            "root",
            "a",
            "g",
        ]

    def test_empty_trace(self):
        assert critical_path(_doc([]), TRACE) == []

    def test_orphan_parent_ids_do_not_break_rooting(self):
        # A span whose parent never exported (chaos-killed node) is a
        # root candidate, but the longest root still wins.
        doc = _doc(
            [
                _event("root", 0, 1000, span_id="r"),
                _event("lost", 5, 10, span_id="x", parent="gone"),
            ]
        )
        path = critical_path(doc, TRACE)
        assert path[0]["name"] == "root"


class TestStageCoverage:
    def test_union_of_overlapping_children(self):
        doc = _doc(
            [
                _event("root", 0, 1000, span_id="r"),
                _event("a", 0, 400, span_id="a", parent="r"),
                _event("b", 300, 300, span_id="b", parent="r"),
                _event("c", 800, 100, span_id="c", parent="r"),
            ]
        )
        # Union: [0, 600) + [800, 900) = 700 of 1000.
        assert stage_coverage(doc, TRACE) == pytest.approx(0.7)

    def test_children_clipped_to_root_window(self):
        doc = _doc(
            [
                _event("root", 100, 100, span_id="r"),
                _event("a", 0, 1000, span_id="a", parent="r"),
            ]
        )
        assert stage_coverage(doc, TRACE) == pytest.approx(1.0)

    def test_no_root_returns_none(self):
        assert stage_coverage(_doc([]), TRACE) is None


@pytest.mark.slow
class TestStitchedFabricTrace:
    def test_two_node_run_spans_three_process_layers(self, tmp_path):
        """A traced 2-node router campaign stitches into one valid
        trace_event document: distinct pid per process, non-negative
        epoch-aligned timestamps, and for every request one trace_id
        shared by router, node and pool-worker spans with >=90% of the
        root span's wall-clock attributed to named stages."""
        trace_dir = str(tmp_path / "traces")
        registry = MetricsRegistry()
        config = RouterConfig(
            nodes=2,
            node=NodeConfig(
                workers=2,
                worker_mode="process",
                cache_dir=str(tmp_path / "cache"),
            ),
            trace_dir=trace_dir,
        )
        tracer = install_tracer(Tracer(name="router"))
        try:
            router = Router(config, registry=registry).start()
            try:
                slots = [
                    router.submit(
                        {
                            "proto": 1,
                            "id": f"t-{name}",
                            "benchmark": name,
                            "grid": [10, 12],
                        }
                    )
                    for name in ("SOBEL", "DENOISE")
                ]
                responses = [s.result(timeout=120) for s in slots]
            finally:
                assert router.close(timeout=120)
            n = tracer.export_jsonl(
                os.path.join(trace_dir, "router.jsonl")
            )
        finally:
            uninstall_tracer()
        assert n > 0
        assert all(r.ok for r in responses), [
            r.to_json() for r in responses if not r.ok
        ]

        paths = sorted(glob.glob(os.path.join(trace_dir, "*.jsonl")))
        assert len(paths) == 3  # router + both nodes
        doc = stitch_traces(paths)
        json.loads(json.dumps(doc))  # loads as valid trace_event JSON

        complete = [
            e for e in doc["traceEvents"] if e["ph"] == "X"
        ]
        assert complete
        assert all(e["ts"] >= 0 for e in complete)
        named_pids = {
            e["pid"] for e in doc["traceEvents"] if e["ph"] == "M"
        }
        assert {e["pid"] for e in complete} <= named_pids

        for response in responses:
            assert response.trace_id
            events = events_for_trace(doc, response.trace_id)
            layers = {e["name"].split(".")[0] for e in events}
            assert {"router", "service", "worker"} <= layers
            # Three distinct processes contributed to this request.
            assert len({e["pid"] for e in events}) >= 3
            coverage = stage_coverage(doc, response.trace_id)
            assert coverage is not None and coverage >= 0.9
            path = critical_path(doc, response.trace_id)
            assert path and path[0]["name"] == "router.request"
            assert len(path) >= 2


def _group_wire(k):
    """Request ``k`` of a same-fingerprint group, with its own trace
    context; only the second one asks for the canary."""
    return {
        "proto": 1,
        "id": f"g-{k}",
        "benchmark": "DENOISE",
        "grid": [10, 12],
        "seed": k,
        "validate": k == 1,
        "trace_id": f"{k + 1:032x}",
        "parent_span_id": f"{k + 1:016x}",
    }


class TestGroupedRequestTraces:
    """A group of requests shares one execution, but every request's
    own work and canary must land in that request's trace."""

    @pytest.mark.parametrize("backend", ["interpreted", "compiled"])
    def test_thread_group_spans_join_their_own_traces(self, backend):
        svc = StencilService(
            ServiceConfig(workers=1, backend=backend),
            registry=MetricsRegistry(),
        )
        executor = svc.executor

        def group(wires):
            items = []
            for wire in wires:
                req = Request.from_json(wire)
                items.append(svc._parse(req, req.id))
            executor._process_group(items)
            return [item.slot.result(30) for item in items]

        # Compile and lower outside the traced group.
        warm = dict(_group_wire(0), validate=False)
        del warm["trace_id"], warm["parent_span_id"]
        assert group([warm])[0].ok
        tracer = install_tracer(Tracer(name="node"))
        try:
            replies = group([_group_wire(k) for k in range(3)])
        finally:
            uninstall_tracer()
        assert all(r.ok for r in replies), [r.to_json() for r in replies]
        assert replies[1].validated is True
        assert replies[0].validated is None

        by_trace = {}
        for rec in tracer.records:
            by_trace.setdefault(rec.trace_id, []).append(rec)
        traces = [f"{k + 1:032x}" for k in range(3)]
        assert set(by_trace) <= set(traces)
        for k, trace in enumerate(traces):
            names = [r.name for r in by_trace[trace]]
            # The canary (golden replay + cycle sim) ran for request 1
            # only, and only request 1's trace holds it.
            assert ("service.validate" in names) == (k == 1), names
            requests = {
                r.args["request"]
                for r in by_trace[trace]
                if "request" in r.args
            }
            assert requests == {f"g-{k}"}
            own = "lower.execute" if backend == "compiled" else (
                "service.execute"
            )
            assert [
                r for r in by_trace[trace]
                if r.name == own and r.args.get("request") == f"g-{k}"
            ]
        if backend == "interpreted":
            for trace in traces:  # each item's golden chain is its own
                assert "service.stage" in [
                    r.name for r in by_trace[trace]
                ]
        else:
            # One batched kernel pass, in the first request's trace.
            batched = [
                r for r in tracer.records if r.args.get("batch") == 3
            ]
            assert [r.trace_id for r in batched] == [traces[0]]

    @pytest.mark.parametrize("lowering", [None, LoweringConfig()])
    def test_pool_worker_spans_tile_the_job(self, lowering):
        """The pool worker's spans feed the worker_* stage histograms,
        so they must add up to the job's real time: the batched kernel
        pass is recorded once, not once per exec."""
        stages = resolve_request(Request.from_json(_group_wire(0)))
        stage = stages[0]
        execs = []
        for k in range(3):
            wire = _group_wire(k)
            execs.append(
                {
                    "id": wire["id"],
                    "seed": wire["seed"],
                    "validate": wire["validate"],
                    "attempt": 1,
                    "trace_id": wire["trace_id"],
                    "parent_span_id": wire["parent_span_id"],
                }
            )
        job = {
            "kind": "job",
            "fingerprint": stage.fingerprint,
            "stages": [
                {
                    "fingerprint": stage.fingerprint,
                    "name": stage.name,
                    "spec": stage.spec.to_json(),
                    "options": stage.options.to_json(),
                    "plan": None,
                }
            ],
            "lowering": None if lowering is None else lowering.to_json(),
            "execs": execs,
        }
        plans, engine = OrderedDict(), CompiledEngine()
        first = _run_job(job, plans, None, engine)  # compile + lower
        job["stages"][0]["plan"] = first["plans"][stage.fingerprint]
        started = time.time_ns()
        reply = _run_job(job, plans, None, engine)
        wall_us = (time.time_ns() - started) / 1e3
        assert [e["ok"] for e in reply["execs"]] == [True] * 3
        assert reply["execs"][1]["validated"] is True

        spans = sorted(
            (
                s for s in reply["spans"]
                if s["name"] in ("worker.execute", "worker.validate")
            ),
            key=lambda s: s["ts_unix_us"],
        )
        executes = [s for s in spans if s["name"] == "worker.execute"]
        batched = [s for s in executes if s["args"].get("batch") == 3]
        assert len(batched) == (0 if lowering is None else 1)
        assert len(executes) == 3 + len(batched)
        for earlier, later in zip(spans, spans[1:]):
            end = earlier["ts_unix_us"] + earlier["dur_us"]
            assert end <= later["ts_unix_us"] + 1
        assert sum(s["dur_us"] for s in spans) <= wall_us
        validates = [s for s in spans if s["name"] == "worker.validate"]
        assert [s["trace_id"] for s in validates] == [execs[1]["trace_id"]]
        for s in executes:
            if "request" in s["args"]:
                exec_ = next(
                    e for e in execs if e["id"] == s["args"]["request"]
                )
                assert s["trace_id"] == exec_["trace_id"]


class TestTraceCli:
    def _fabric_dir(self, tmp_path):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        _write_jsonl(
            str(trace_dir / "router.jsonl"),
            _meta("router", 1, 1_000_000.0),
            [
                _span(
                    "router.request",
                    0.0,
                    1000.0,
                    span_id="r" * 16,
                    request="req-1",
                ),
                _span(
                    "router.node_wait",
                    10.0,
                    980.0,
                    span_id="n" * 16,
                    parent="r" * 16,
                ),
            ],
        )
        _write_jsonl(
            str(trace_dir / "node-0-g0.jsonl"),
            _meta("serve-2", 2, 1_000_050.0),
            [
                _span(
                    "service.request",
                    0.0,
                    900.0,
                    span_id="s" * 16,
                    parent="n" * 16,
                )
            ],
        )
        return trace_dir

    def test_prints_timeline_coverage_and_critical_path(
        self, tmp_path, capsys
    ):
        from repro.cli import main as cli_main

        trace_dir = self._fabric_dir(tmp_path)
        out_file = tmp_path / "stitched.json"
        rc = cli_main(
            [
                "trace",
                "req-1",
                "--trace-dir",
                str(trace_dir),
                "--out",
                str(out_file),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "3 spans across 2 processes" in captured.out
        assert "router.request" in captured.out
        assert "stage coverage" in captured.out
        assert "critical path:" in captured.out
        # node_wait -> service.request chain crosses the processes.
        assert "service.request (serve-2)" in captured.out
        doc = json.loads(out_file.read_text())
        assert {e["ph"] for e in doc["traceEvents"]} == {"M", "X"}

    def test_unknown_request_id_fails(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        trace_dir = self._fabric_dir(tmp_path)
        rc = cli_main(
            ["trace", "nope", "--trace-dir", str(trace_dir)]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "no trace for request" in captured.err
        assert "req-1" in captured.err  # lists what it does know

    def test_empty_dir_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["trace", "--trace-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "no .jsonl trace files" in captured.err


class TestTopCli:
    def test_renders_fabric_snapshot(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        router_reg = MetricsRegistry()
        router_reg.counter(
            "router_requests_total", {"status": "ok"}
        ).inc(3)
        router_reg.histogram(
            "router_stage_ms", {"stage": "total"}, buckets=(1, 10, 100)
        ).observe(12.0)
        router_reg.record_exemplar(
            "router_request_latency_ms",
            12.0,
            {"request": "req-slow", "status": "ok"},
        )
        node_reg = MetricsRegistry()
        node_reg.counter(
            "service_requests_total", {"status": "ok"}
        ).inc(3)
        node_reg.counter(
            "service_cache_total", {"outcome": "hit"}
        ).inc(2)
        node_reg.counter(
            "service_cache_total", {"outcome": "miss"}
        ).inc(1)
        node_reg.histogram(
            "service_stage_ms",
            {"stage": "execute"},
            buckets=(1, 10, 100),
        ).observe(8.0)
        fabric = {
            "router": router_reg.snapshot(),
            "nodes": {"0": node_reg.snapshot(), "1": None},
            "merged": {},
        }
        path = tmp_path / "fabric.json"
        path.write_text(json.dumps(fabric))

        rc = cli_main(["top", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fabric summary (3 sources)" in out
        assert "per-node health:" in out
        assert "unreachable" in out  # node 1 never answered
        assert "node.execute" in out and "router.total" in out
        assert "p95_ms" in out
        assert "req-slow" in out  # slowest-request exemplar

    def test_rejects_non_metrics_json(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        path = tmp_path / "junk.json"
        path.write_text('{"hello": 1}')
        rc = cli_main(["top", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "not a metrics snapshot" in captured.err
