"""The versioned wire protocol: round trips, taxonomy, compat shim.

Every JSONL line crossing a service boundary is a :class:`Request` or
:class:`Response`.  ``proto: 2`` requests describe their work in a
typed ``workload`` object (single / iterate / graph); ``proto: 1``
requests keep the flat ``benchmark``/``spec`` shape and parse through
a compat shim counted on ``service_proto_v1_total``.  These tests pin
the contract:

* ``to_json``/``from_json`` round-trip losslessly (property-tested
  over generated requests — both proto dialects — and responses);
* both closed vocabularies (``status``, ``error.kind``) are enforced
  on parse, and unknown ``proto`` versions are rejected up front;
* the proto/shape cross-checks reject mixed envelopes with
  ``error.kind = "bad_workload"``;
* every request names its ``proto`` (an unversioned dict is
  ``unsupported_proto``), every field has its JSON type (``bad_request``
  otherwise), and a :class:`Response` is read by attribute, not as a
  mapping.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.service.proto import (
    ERROR_KINDS,
    PROTO_VERSION,
    STATUSES,
    ErrorInfo,
    ProtoError,
    Request,
    Response,
    default_error_kind,
    error_response,
)
from repro.service.workload import Workload

BENCHMARKS = ("DENOISE", "SOBEL", "BICUBIC")


# -- strategies --------------------------------------------------------
request_strategy = st.builds(
    Request,
    id=st.one_of(st.none(), st.text(min_size=1, max_size=12)),
    benchmark=st.sampled_from(BENCHMARKS),
    grid=st.one_of(
        st.none(),
        st.lists(
            st.integers(min_value=1, max_value=64),
            min_size=1,
            max_size=3,
        ).map(tuple),
    ),
    streams=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
    timeout_s=st.one_of(
        st.none(),
        st.floats(min_value=0.5, max_value=600, allow_nan=False),
    ),
    validate=st.one_of(st.none(), st.booleans()),
    retries=st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
)

error_strategy = st.builds(
    ErrorInfo,
    kind=st.sampled_from(ERROR_KINDS),
    detail=st.text(max_size=40),
)


@st.composite
def workload_strategy(draw):
    """A structurally valid workload of any kind."""
    kind = draw(st.sampled_from(["single", "iterate", "graph"]))
    fuse = draw(st.sampled_from(["auto", "never", "always"]))
    if kind == "single":
        return Workload.single(benchmark=draw(st.sampled_from(BENCHMARKS)))
    if kind == "iterate":
        return Workload.iterate(
            benchmark=draw(st.sampled_from(BENCHMARKS)),
            steps=draw(st.integers(min_value=1, max_value=6)),
            fuse=fuse,
        )
    n = draw(st.integers(min_value=1, max_value=4))
    nodes = tuple(
        {"id": f"n{i}", "benchmark": draw(st.sampled_from(BENCHMARKS))}
        for i in range(n)
    )
    edges = tuple([f"n{i}", f"n{i + 1}"] for i in range(n - 1))
    return Workload.from_json(
        {"kind": "graph", "nodes": list(nodes), "edges": list(edges),
         "fuse": fuse}
    )


workload_request_strategy = st.builds(
    Request,
    id=st.one_of(st.none(), st.text(min_size=1, max_size=12)),
    workload=workload_strategy(),
    grid=st.one_of(
        st.none(),
        st.lists(
            st.integers(min_value=1, max_value=64),
            min_size=1,
            max_size=3,
        ).map(tuple),
    ),
    streams=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
)


@st.composite
def response_strategy(draw):
    status = draw(st.sampled_from(STATUSES))
    return Response(
        id=draw(st.one_of(st.none(), st.text(min_size=1, max_size=12))),
        status=status,
        benchmark=draw(st.one_of(st.none(), st.sampled_from(BENCHMARKS))),
        fingerprint=draw(st.one_of(st.none(), st.text(min_size=4, max_size=16))),
        latency_ms=draw(
            st.one_of(
                st.none(),
                st.floats(min_value=0, max_value=1e6, allow_nan=False),
            )
        ),
        attempts=draw(st.one_of(st.none(), st.integers(1, 5))),
        cache=draw(
            st.one_of(
                st.none(),
                st.sampled_from(["hit", "disk", "miss", "coalesced"]),
            )
        ),
        validated=draw(st.one_of(st.none(), st.booleans())),
        retry_after_s=draw(
            st.one_of(
                st.none(),
                st.floats(min_value=0, max_value=60, allow_nan=False),
            )
        ),
        node=draw(st.one_of(st.none(), st.integers(0, 7))),
        error=draw(st.one_of(st.none(), error_strategy))
        if status != "ok"
        else None,
    )


class TestRequestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(request_strategy)
    def test_round_trip_is_lossless(self, req):
        wire = req.to_json()
        # Flat benchmark/spec requests stay on the proto:1 dialect.
        assert wire["proto"] == 1
        # Through actual JSON text, exactly like the JSONL pipes.
        parsed = Request.from_json(json.loads(json.dumps(wire)))
        assert parsed == req
        # A second hop changes nothing (idempotent encoding).
        assert Request.from_json(parsed.to_json()) == parsed

    @settings(max_examples=200, deadline=None)
    @given(workload_request_strategy)
    def test_workload_round_trip_is_lossless(self, req):
        wire = req.to_json()
        assert wire["proto"] == PROTO_VERSION
        parsed = Request.from_json(json.loads(json.dumps(wire)))
        assert parsed == req
        assert parsed.workload == req.workload
        assert Request.from_json(parsed.to_json()) == parsed

    @settings(max_examples=100, deadline=None)
    @given(request_strategy)
    def test_unknown_keys_ignored_but_preserved_in_raw(self, req):
        wire = req.to_json()
        wire["x_experimental"] = {"nested": True}
        parsed = Request.from_json(wire)
        assert parsed == req
        assert parsed.raw["x_experimental"] == {"nested": True}

    def test_exactly_one_of_benchmark_spec_or_workload(self):
        with pytest.raises(ProtoError):
            Request(benchmark=None, spec=None)
        with pytest.raises(ProtoError):
            Request(benchmark="DENOISE", spec={"name": "x"})
        with pytest.raises(ProtoError):
            Request(
                benchmark="DENOISE",
                workload=Workload.single(benchmark="SOBEL"),
            )

    def test_proto_shape_cross_checks(self):
        # A workload rides proto 2, flat benchmark/spec ride proto 1;
        # mixing the dialects is a bad_workload error either way.
        with pytest.raises(ProtoError) as excinfo:
            Request(benchmark="DENOISE", proto=2)
        assert excinfo.value.kind == "bad_workload"
        with pytest.raises(ProtoError) as excinfo:
            Request(workload=Workload.single(benchmark="SOBEL"), proto=1)
        assert excinfo.value.kind == "bad_workload"
        for wire in (
            {"proto": 2, "benchmark": "SOBEL"},
            {"proto": 2, "spec": {"name": "x"}},
            {"proto": 2},
            {"proto": 2, "workload": "not-an-object"},
            {"proto": 2, "workload": {"kind": "iterate"}},
            {"proto": 1, "workload": {"kind": "single",
                                      "benchmark": "SOBEL"}},
        ):
            with pytest.raises(ProtoError) as excinfo:
                Request.from_json(wire)
            assert excinfo.value.kind == "bad_workload", wire

    def test_effective_workload_wraps_proto1_shapes(self):
        req = Request.from_json({"proto": 1, "benchmark": "SOBEL"})
        wrapped = req.effective_workload()
        assert wrapped.kind == "single"
        assert wrapped.kernel.benchmark == "SOBEL"
        wl = Workload.iterate(benchmark="SOBEL", steps=2)
        req2 = Request(workload=wl)
        assert req2.effective_workload() is wl
        with pytest.raises(ValueError):
            req2.resolve_spec()

    def test_grid_string_form_accepted(self):
        parsed = Request.from_json(
            {"proto": 1, "benchmark": "SOBEL", "grid": "10x12"}
        )
        assert parsed.grid == (10, 12)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("validate", "false"),
            ("validate", "no"),
            ("validate", "0"),
            ("validate", 0),
            ("validate", 1),
            ("seed", 2.7),
            ("seed", 7.0),
            ("seed", "7"),
            ("seed", True),
            ("streams", 2.0),
            ("streams", False),
            ("retries", 1.5),
            ("retries", True),
            ("timeout_s", "30"),
            ("timeout_s", True),
            ("grid", [10.9, 12]),
            ("grid", [10, True]),
            ("grid", ["10", "12"]),
            ("grid", 24),
            ("grid", "10.9x12"),
        ],
    )
    def test_mistyped_field_is_bad_request(self, field, value):
        wire = {"proto": 1, "benchmark": "SOBEL", field: value}
        with pytest.raises(ProtoError) as excinfo:
            Request.from_json(wire)
        assert excinfo.value.kind == "bad_request"

    def test_bad_fields_raise_proto_error(self):
        for bad in (
            {"proto": 1, "benchmark": "SOBEL", "timeout_s": 0},
            {"proto": 1, "benchmark": "SOBEL", "retries": -1},
            {"proto": 1, "benchmark": "SOBEL", "streams": 0},
            {"proto": 1, "benchmark": "SOBEL", "grid": [0, 4]},
            {"proto": 1, "benchmark": "SOBEL", "spec": "not-an-object"},
            {"proto": 1, "benchmark": "SOBEL", "seed": "banana"},
            "not a dict",
        ):
            with pytest.raises(ProtoError):
                Request.from_json(bad)


class TestResponseRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(response_strategy())
    def test_round_trip_is_lossless(self, resp):
        wire = resp.to_json()
        assert wire["proto"] == PROTO_VERSION
        parsed = Response.from_json(json.loads(json.dumps(wire)))
        assert parsed == resp
        assert Response.from_json(parsed.to_json()) == parsed

    def test_response_is_not_a_mapping(self):
        resp = Response(id=None, status="ok")
        with pytest.raises(TypeError):
            resp["status"]
        with pytest.raises(TypeError):
            "status" in resp
        assert not hasattr(resp, "get")
        assert not hasattr(resp, "keys")

    def test_failure_without_error_gets_default_kind(self):
        for status in STATUSES:
            resp = Response(id="r", status=status)
            if status == "ok":
                assert resp.error is None
            else:
                assert resp.error is not None
                assert resp.error.kind == default_error_kind(status)

    def test_unknown_status_rejected(self):
        with pytest.raises(ProtoError):
            Response(id="r", status="sideways")
        with pytest.raises(ProtoError):
            Response.from_json(
                {"proto": 2, "id": "r", "status": "sideways"}
            )

    def test_missing_status_rejected(self):
        with pytest.raises(ProtoError):
            Response.from_json({"proto": 2, "id": "r"})

    def test_string_error_rejected(self):
        with pytest.raises(ProtoError):
            ErrorInfo.from_json("it broke")
        with pytest.raises(ProtoError):
            Response.from_json(
                {"proto": 2, "id": "r", "status": "error",
                 "error": "it broke"}
            )


class TestVersioning:
    def test_unknown_version_rejected_with_kind(self):
        for bad in (0, 3, 99, "1", 1.5, True):
            with pytest.raises(ProtoError) as excinfo:
                Request.from_json({"proto": bad, "benchmark": "SOBEL"})
            assert excinfo.value.kind == "unsupported_proto"
        with pytest.raises(ProtoError):
            Response.from_json({"proto": 7, "id": "r", "status": "ok"})

    @pytest.mark.parametrize("proto", ["absent", None])
    def test_unversioned_dict_rejected(self, proto):
        wire = {"benchmark": "SOBEL"}
        if proto != "absent":
            wire["proto"] = proto
        registry = MetricsRegistry()
        with pytest.raises(ProtoError) as excinfo:
            Request.from_json(wire, registry=registry)
        assert excinfo.value.kind == "unsupported_proto"
        assert "proto 1 and 2" in str(excinfo.value)
        assert registry.snapshot()["counters"] == {}
        with pytest.raises(ProtoError) as excinfo:
            Response.from_json({"id": "r", "status": "ok"})
        assert excinfo.value.kind == "unsupported_proto"

    def test_proto_v1_counts_on_own_counter(self):
        registry = MetricsRegistry()
        Request.from_json(
            {"proto": 1, "benchmark": "SOBEL"}, registry=registry
        )
        Request.from_json(
            {
                "proto": 2,
                "workload": {"kind": "single", "benchmark": "SOBEL"},
            },
            registry=registry,
        )
        assert registry.snapshot()["counters"] == {
            "service_proto_v1_total": 1
        }


class TestTracePropagation:
    def test_round_trip_and_with_trace(self):
        req = Request(benchmark="SOBEL", id="r1")
        wire = req.to_json()
        assert "trace_id" not in wire  # absent until stamped
        stamped = Request(
            benchmark="SOBEL",
            id="r1",
            trace_id="a" * 32,
            parent_span_id="b" * 16,
        )
        parsed = Request.from_json(stamped.to_json())
        assert parsed.trace_id == "a" * 32
        assert parsed.parent_span_id == "b" * 16

    def test_response_trace_id_round_trips(self):
        resp = Response(id="r1", status="ok", trace_id="c" * 32)
        parsed = Response.from_json(resp.to_json())
        assert parsed.trace_id == "c" * 32
        bare = Response(id="r1", status="ok")
        assert "trace_id" not in bare.to_json()


class TestErrorTaxonomy:
    def test_kinds_are_closed(self):
        with pytest.raises(ProtoError):
            ErrorInfo(kind="made_up", detail="")

    def test_every_failure_status_has_a_default_kind(self):
        for status in STATUSES:
            if status == "ok":
                continue
            assert default_error_kind(status) in ERROR_KINDS

    def test_error_response_helper(self):
        resp = error_response(
            "r9", "circuit_open", "cooling down", retry_after_s=1.5
        )
        assert resp.status == "circuit_open"
        assert resp.error.kind == "circuit_open"
        assert resp.retry_after_s == 1.5
        assert Response.from_json(resp.to_json()) == resp
