"""Targeted tests for less-travelled code paths across modules."""

import numpy as np
import pytest

from repro.flow.report import average_reduction
from repro.hls.ir import DataflowGraph
from repro.hls.schedule import FIXED32_LIBRARY, schedule_kernel
from repro.partitioning.cyclic import plan_cyclic
from repro.partitioning.gmp import plan_gmp
from repro.polyhedral.domain import (
    BoxDomain,
    DomainUnion,
    IntegerPolyhedron,
)
from repro.polyhedral.reuse import check_linearity
from repro.resources.estimate import estimate_kernel
from repro.rtl.core import RtlModule, RtlSimulator, Signal, WaveformDump
from repro.stencil.kernels import DENOISE

from conftest import small_spec


class TestRtlSimulatorKernel:
    """The generic two-phase RTL simulation kernel."""

    class Counter(RtlModule):
        def __init__(self):
            self.count = Signal("count", 0)

        def evaluate(self):
            self.count.stage(self.count.value + 1)

        def commit(self):
            self.count.commit()

        def signals(self):
            return (self.count,)

    def test_step_evaluates_then_commits(self):
        counter = self.Counter()
        sim = RtlSimulator([counter])
        sim.step()
        assert counter.count.value == 1
        sim.step()
        assert counter.count.value == 2

    def test_run_until(self):
        counter = self.Counter()
        sim = RtlSimulator([counter])
        cycles = sim.run_until(
            lambda: counter.count.value >= 5, max_cycles=100
        )
        assert cycles == 5

    def test_run_until_timeout(self):
        counter = self.Counter()
        sim = RtlSimulator([counter])
        with pytest.raises(RuntimeError):
            sim.run_until(lambda: False, max_cycles=3)

    def test_dump_integration(self):
        counter = self.Counter()
        dump = WaveformDump()
        sim = RtlSimulator([counter], dump=dump)
        sim.step()
        sim.step()
        assert len(dump.changes) == 2


class TestDomainEdgeCases:
    def test_union_lex_rank(self):
        u = DomainUnion(
            [BoxDomain((0, 0), (1, 1)), BoxDomain((3, 3), (4, 4))]
        )
        # 4 points in the first box, then the gap, then 4 more.
        assert u.lex_rank((1, 1)) == 4
        assert u.lex_rank((2, 0)) == 4
        assert u.lex_rank((4, 4)) == 8

    def test_union_bounding_box(self):
        u = DomainUnion(
            [BoxDomain((0, 0), (1, 1)), BoxDomain((3, 3), (4, 4))]
        )
        lo, hi = u.bounding_box()
        assert lo == (0, 0)
        assert hi == (4, 4)

    def test_polyhedron_lex_first_last_general(self):
        tri = IntegerPolyhedron(
            coefficients=[(-1, 0), (0, -1), (1, 1)],
            bounds=[0, 0, 2],
        )
        assert tri.lex_first() == (0, 0)
        assert tri.lex_last() == (2, 0)

    def test_linearity_on_union_stream(self):
        """Property 3 may lose exactness on non-box streams; the
        checker must still run and return a boolean."""
        from repro.polyhedral.access import (
            ArrayReference,
            input_data_domain,
        )

        refs = [
            ArrayReference("A", o)
            for o in [(1, 0), (0, 0), (-1, 0)]
        ]
        domain = BoxDomain((1, 1), (5, 6))
        union = input_data_domain(refs, domain)
        result = check_linearity(refs, domain, union)
        assert isinstance(result, bool)


class TestPlanSummaries:
    def test_cyclic_summary_row(self):
        spec = small_spec(DENOISE)
        row = plan_cyclic(spec.analysis()).summary_row()
        assert row["scheme"] == "cyclic_linear"
        assert row["banks"] >= spec.n_points

    def test_gmp_summary_row(self):
        spec = small_spec(DENOISE)
        row = plan_gmp(spec.analysis()).summary_row()
        assert row["scheme"] == "gmp_padded"
        assert row["achieved_ii"] == 1

    def test_gmp_padding_overhead_non_negative(self):
        spec = small_spec(DENOISE)
        plan = plan_gmp(spec.analysis())
        assert plan.mapping.padding_overhead() >= 0.0


class TestResourceEdges:
    def test_estimate_kernel_fields(self):
        g = DataflowGraph.from_expression(DENOISE.expression)
        sched = schedule_kernel(g, library=FIXED32_LIBRARY)
        usage = estimate_kernel(sched)
        assert usage.lut == sched.lut_usage()
        assert usage.ff == sched.ff_usage()
        assert usage.bram_18k == 0

    def test_average_reduction_empty_and_zero(self):
        assert average_reduction([], "a", "b") == 0.0
        assert (
            average_reduction([{"a": 1, "b": 0}], "a", "b") == 0.0
        )


class TestEngineEdges:
    def test_default_max_cycles_generous(self):
        from repro.microarch.memory_system import build_memory_system
        from repro.sim.engine import ChainSimulator
        from repro.stencil.golden import make_input

        spec = small_spec(DENOISE)
        sim = ChainSimulator(
            spec,
            build_memory_system(spec.analysis()),
            make_input(spec),
        )
        result = sim.run()  # default budget must suffice
        assert result.stats.outputs_produced > 0

    def test_kernel_latency_zero(self):
        from repro.microarch.memory_system import build_memory_system
        from repro.sim.engine import ChainSimulator
        from repro.stencil.golden import (
            golden_output_sequence,
            make_input,
        )

        spec = small_spec(DENOISE)
        grid = make_input(spec)
        result = ChainSimulator(
            spec,
            build_memory_system(spec.analysis()),
            grid,
            kernel_latency=0,
        ).run()
        assert np.allclose(
            result.output_values(),
            golden_output_sequence(spec, grid),
        )

    def test_single_reference_chain(self):
        """A 1-point window: no FIFOs at all, just a filter."""
        from repro.microarch.memory_system import build_memory_system
        from repro.sim.engine import ChainSimulator
        from repro.stencil.expr import Ref
        from repro.stencil.golden import (
            golden_output_sequence,
            make_input,
        )
        from repro.stencil.spec import StencilSpec, StencilWindow

        spec = StencilSpec(
            "COPY",
            (6, 7),
            StencilWindow.from_offsets([(0, 0)]),
            expression=2.0 * Ref((0, 0)),
        )
        system = build_memory_system(spec.analysis())
        assert system.num_banks == 0
        grid = make_input(spec)
        result = ChainSimulator(spec, system, grid).run()
        assert np.allclose(
            result.output_values(),
            golden_output_sequence(spec, grid),
        )


class TestArtifactsExport:
    def test_collect_and_write(self, tmp_path):
        import json

        from repro.flow.artifacts import write_artifacts

        path = tmp_path / "artifacts.json"
        data = write_artifacts(str(path))
        loaded = json.loads(path.read_text())
        assert loaded["table2"][0]["size"] == 1023
        assert len(loaded["table4"]) == 6
        assert len(loaded["fig15"]) == 18
        assert loaded["table5"]["average_bram_reduction_pct"] > 20
        assert data["paper"]["venue"] == "DAC 2014"

    def test_serializable(self):
        import json

        from repro.flow.artifacts import collect_artifacts

        json.dumps(collect_artifacts())  # must not raise


class TestCliRobustness:
    """User mistakes must produce clean errors, never tracebacks."""

    def _run(self, argv, capsys):
        from repro.cli import main

        rc = main(argv)
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    def test_unknown_benchmark_clean_error(self, capsys):
        rc, _, err = self._run(["info", "NOPE"], capsys)
        assert rc == 2
        assert err.startswith("error: unknown benchmark 'NOPE'")
        assert "known: " in err
        assert "Traceback" not in err

    def test_unknown_benchmark_submit(self, capsys):
        rc, _, err = self._run(
            ["submit", "NOPE", "--grid", "8x9"], capsys
        )
        assert rc == 2
        assert err.startswith("error: unknown benchmark")
        assert "Traceback" not in err

    def test_malformed_grid_clean_error(self, capsys):
        from repro.cli import main

        for bad in ("12xbanana", "12x", "x", "0x5", "-3x4"):
            # argparse rejects the value with a clean usage error.
            with pytest.raises(SystemExit) as excinfo:
                main(["submit", "DENOISE", "--grid", bad])
            assert excinfo.value.code == 2, bad
            err = capsys.readouterr().err
            assert "grid" in err, bad
            assert "Traceback" not in err, bad

    def test_valid_submit_smoke(self, capsys):
        import json

        rc, out, _ = self._run(
            ["submit", "DENOISE", "--grid", "12x16"], capsys
        )
        assert rc == 0
        reply = json.loads(out.strip().splitlines()[-1])
        assert reply["status"] == "ok"
        assert reply["benchmark"] == "DENOISE"

    def test_serve_jsonl_subprocess(self, tmp_path):
        import json
        import pathlib
        import subprocess
        import sys

        root = pathlib.Path(__file__).parent.parent
        lines = "\n".join(
            [
                json.dumps(
                    {"proto": 1, "id": "a", "benchmark": "SOBEL",
                     "grid": [10, 12]}
                ),
                "not json at all",
                json.dumps({"proto": 1, "id": "b", "benchmark": "BOGUS"}),
                json.dumps({"id": "c", "benchmark": "SOBEL"}),
                json.dumps(
                    {"proto": 1, "id": "d", "benchmark": "DENOISE",
                     "grid": [12, 16]}
                ),
            ]
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--workers", "2"],
            input=lines,
            capture_output=True,
            text=True,
            cwd=str(root),
            env={
                **__import__("os").environ,
                "PYTHONPATH": str(root / "src"),
            },
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        replies = [
            json.loads(line) for line in result.stdout.splitlines()
        ]
        assert [r["status"] for r in replies] == [
            "ok",
            "invalid",
            "invalid",
            "invalid",
            "ok",
        ]
        assert replies[0]["id"] == "a"
        # The unversioned line gets the typed rejection, in order, and
        # the line after it is still served.
        assert replies[3]["id"] == "c"
        assert replies[3]["error"]["kind"] == "unsupported_proto"
        assert replies[4]["id"] == "d"


class TestApiDocsGenerator:
    def test_generates_reference(self, tmp_path):
        import subprocess
        import sys

        out = tmp_path / "API.md"
        result = subprocess.run(
            [sys.executable, "tools/gen_api_docs.py", str(out)],
            capture_output=True,
            text=True,
            cwd=str(__import__("pathlib").Path(__file__).parent.parent),
        )
        assert result.returncode == 0, result.stderr
        text = out.read_text()
        assert "# API reference" in text
        assert "## `repro.partitioning.nonuniform`" in text
        assert "plan_nonuniform" in text

    def test_generation_is_deterministic(self, tmp_path):
        """Two runs are byte-identical: a callable default renders as
        its dotted name, never as a repr with a memory address."""
        import pathlib
        import subprocess
        import sys

        outs = [tmp_path / "a.md", tmp_path / "b.md"]
        for out in outs:
            result = subprocess.run(
                [sys.executable, "tools/gen_api_docs.py", str(out)],
                capture_output=True,
                text=True,
                cwd=str(pathlib.Path(__file__).parent.parent),
            )
            assert result.returncode == 0, result.stderr
        first, second = (out.read_bytes() for out in outs)
        assert first == second
        text = first.decode("utf-8")
        assert " at 0x" not in text
        assert "= repro.service.transport.connect_once" in text

    def test_checked_in_docs_up_to_date_enough(self):
        import pathlib

        api = pathlib.Path(__file__).parent.parent / "docs" / "API.md"
        text = api.read_text()
        # Spot-check a few load-bearing symbols.
        for symbol in (
            "plan_nonuniform",
            "ChainSimulator",
            "max_reuse_distance",
            "tradeoff_curve",
            "simulate_rtl",
        ):
            assert symbol in text, symbol
