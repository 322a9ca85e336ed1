"""Smoke test of the end-to-end benchmark.

Runs ``run.py --smoke --trace 0 1`` (the full code path, with each
run's seconds divided by 50 and one fabric start for set-up) and checks
that every metric named in ``BENCHMARK.json`` is printed with its unit
for every workload, and that no request failed.  It is not part of the
tier-1 suite (``testpaths = ["tests"]``); run it with::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def test_smoke_prints_every_metric_without_failures(tmp_path):
    record = tmp_path / "smoke.jsonl"
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--smoke",
            "--trace", "0", "1", "--out", str(record),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert final["correct"] and final["failed"] == 0
    assert final["attempted"] > 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = json.loads(record.read_text())["workloads"]
    assert sorted(rows) == sorted(w["name"] for w in spec["workloads"])
    for workload, metrics in rows.items():
        for m in spec["end_to_end"] + spec["per_layer"]:
            printed = final["metrics"][f"{workload}/{m['name']}"]
            assert printed["unit"] == m["unit"], (workload, m["name"])
            assert isinstance(printed["value"], (int, float))
        assert metrics["failed_share"] == 0, workload
