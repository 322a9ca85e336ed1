"""End-to-end benchmark of the routed stencil service.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0 [1]] [--smoke] [--out FILE]
    python3 benchmarks/e2e/run.py compare A.jsonl B.jsonl

``--trace 0`` (the default) is the untraced run and reports the
end-to-end metrics; ``--trace 1`` is the traced run and reports the
per-layer metrics; ``--trace 0 1`` does both.  Without ``--workload``
every workload of ``BENCHMARK.json`` runs.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
metrics named in ``BENCHMARK.json``; prefixed ``<workload>/`` when
several workloads ran).  ``--out`` appends one record line (every
metric, plus the git sha, seed and versions) for ``compare`` and for
``history.jsonl``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
TRACES = ROOT / "benchmarks" / "results"
WORK = HERE / ".work"

#: ``--smoke`` divides the run's seconds by this and starts one fabric
#: for set-up instead of five: the same code path in a few seconds.
SMOKE_DIVISOR = 50

#: Workloads that run only when named with ``--workload``: they are
#: not in ``BENCHMARK.json``, so no bound gates them (see README.md).
UNGATED = ("graph_chain", "cold_design")


def _load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def _bootstrap() -> None:
    """Import the program from this checkout's sources, or exit."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))


def _parse(argv, spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Routed end-to-end benchmark (see README.md)."
    )
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument(
        "--workload", nargs="+", choices=names + list(UNGATED),
        default=names,
    )
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured seconds per run (default: BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="+", choices=(0, 1), default=[0],
        help="0: untraced end-to-end run; 1: traced per-layer run",
    )
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=None, help="append a record")
    return parser.parse_args(argv)


def _print_table(workload: str, mode: str, result: dict) -> None:
    print(f"== {workload} ({mode}) ==")
    for name, m in result["metrics"].items():
        print(
            f"  {name:34s} {m['value']:14.4f} {m['unit']:9s} "
            f"n={m['count']}"
        )
    print(
        f"  attempted {result['attempted']}, failed {result['failed']}",
        flush=True,
    )


def _git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _record(args, seconds: float, per_workload: dict) -> dict:
    import numpy

    return {
        "sha": _git_sha(),
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workloads": {
            name: {m: v["value"] for m, v in metrics.items()}
            for name, metrics in per_workload.items()
        },
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    spec = _load_spec()
    args = _parse(argv, spec)
    _bootstrap()
    import endtoend
    import layers
    from workloads import Golden, build

    names = args.workload
    seconds = args.seconds or spec["run_seconds"]
    starts = endtoend.SETUP_STARTS
    if args.smoke:
        seconds /= SMOKE_DIVISOR
        starts = 1
    reported = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    # Node subprocesses inherit this: nothing lands outside the tree.
    os.environ["TMPDIR"] = workdir
    fabrics = endtoend.Fabrics(workdir)
    per_workload, final = {}, {}
    attempted = failed = 0
    try:
        for name in names:
            traffic = build(name, args.seed)
            golden = Golden()
            per_workload[name] = {}
            for mode in sorted(set(args.trace)):
                if mode == 0:
                    result = endtoend.run(
                        traffic, seconds, fabrics, golden, starts
                    )
                else:
                    TRACES.mkdir(parents=True, exist_ok=True)
                    result = layers.run(
                        traffic, seconds, fabrics, golden,
                        str(TRACES / f"e2e-{name}.trace.json"),
                    )
                _print_table(name, "traced" if mode else "untraced", result)
                per_workload[name].update(result["metrics"])
                attempted += result["attempted"]
                failed += result["failed"]
                for metric, m in result["metrics"].items():
                    if metric in reported[mode]:
                        key = metric if len(names) == 1 else f"{name}/{metric}"
                        final[key] = {"value": m["value"], "unit": m["unit"]}
    finally:
        fabrics.join()
        shutil.rmtree(workdir, ignore_errors=True)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(
                json.dumps(_record(args, seconds, per_workload)) + "\n"
            )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": final,
    }))
    return 0 if failed == 0 else 1


def _medians(path: str) -> dict:
    """``{workload: {metric: median over the file's records}}``."""
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for row in fh:
            if not row.strip():
                continue
            for name, metrics in json.loads(row)["workloads"].items():
                for metric, value in metrics.items():
                    values.setdefault(name, {}).setdefault(
                        metric, []
                    ).append(value)
    return {
        name: {m: statistics.median(v) for m, v in metrics.items()}
        for name, metrics in values.items()
    }


def compare(argv) -> int:
    """Label every workload x end-to-end metric of B against A."""
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("baseline", help="record file (JSONL) A")
    parser.add_argument("candidate", help="record file (JSONL) B")
    args = parser.parse_args(argv)
    spec = _load_spec()
    a, b = _medians(args.baseline), _medians(args.candidate)
    regressed = False
    print(
        f"{'workload':14s} {'metric':16s} {'A':>12s} {'B':>12s} "
        f"{'change':>8s} {'bound':>6s}  verdict"
    )
    for name in sorted(set(a) & set(b)):
        for m in spec["end_to_end"]:
            old, new = a[name].get(m["name"]), b[name].get(m["name"])
            if old is None or new is None:
                continue
            change = (new - old) / old
            worse = change if m["better"] == "lower" else -change
            if worse > m["bound"]:
                verdict = "regressed"
            elif worse < -m["bound"]:
                verdict = "improved"
            else:
                verdict = "within"
            regressed |= verdict == "regressed"
            print(
                f"{name:14s} {m['name']:16s} {old:12.4f} {new:12.4f} "
                f"{change:+8.2%} {m['bound']:6.0%}  {verdict}"
            )
        old_failed = a[name].get("failed_share", 0.0)
        new_failed = b[name].get("failed_share", 0.0)
        if new_failed > old_failed:
            regressed = True
            print(
                f"{name:14s} {'failed_share':16s} {old_failed:12.4f} "
                f"{new_failed:12.4f}  regressed (any rise)"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
