"""Counters, gauges and histograms with Prometheus/JSON export.

A :class:`MetricsRegistry` hands out three metric kinds, keyed by
``(name, labels)`` so repeated lookups return the same instance:

* :class:`Counter` — monotonically increasing (module fire counts,
  words streamed, candidates evaluated);
* :class:`Gauge` — a point-in-time value (total cycles, buffer sizes);
* :class:`Histogram` — fixed cumulative buckets (FIFO occupancy
  distributions, per-candidate evaluation latencies).

Two exporters cover both machine consumers: Prometheus text exposition
(:meth:`MetricsRegistry.to_prometheus`, ``*.prom``) and a nested JSON
snapshot (:meth:`MetricsRegistry.snapshot`).  Like the tracer, a
process-wide registry can be installed (:func:`install_metrics`) for
call sites that do not thread a registry explicitly; everything is a
no-op when none is installed.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import re
import threading
from typing import Dict, IO, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "install_metrics",
    "uninstall_metrics",
]

Labels = Tuple[Tuple[str, str], ...]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


@functools.lru_cache(maxsize=1024)
def _sanitize(name: str) -> str:
    """A valid Prometheus metric name (invalid chars become ``_``).

    Memoized: names are call-site constants, so the LRU bound (1024)
    is never reached in practice and the regex runs once per name.
    """
    name = _NAME_RE.sub("_", name)
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def _label_suffix(labels: Labels, extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == int(value):
        return str(int(value))
    return repr(value)


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: Labels) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount


class Gauge:
    """A value that can be set to anything at any time."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: Labels) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """A fixed-bucket cumulative histogram (Prometheus semantics).

    ``buckets`` are the finite upper bounds; an implicit ``+Inf``
    bucket always exists, so every observation lands somewhere.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")

    kind = "histogram"

    DEFAULT_BUCKETS: Tuple[float, ...] = (
        1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
    )

    def __init__(
        self,
        name: str,
        labels: Labels,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        if buckets is None:
            buckets = self.DEFAULT_BUCKETS
        bounds = tuple(sorted(set(buckets)))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        # The first bucket whose bound is >= value (NaN: the +Inf one).
        if value == value:
            self.counts[bisect.bisect_left(self.buckets, value)] += 1
        else:
            self.counts[-1] += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs ending at +Inf."""
        total = 0
        out: List[Tuple[float, int]] = []
        for bound, n in zip(self.buckets, self.counts):
            total += n
            out.append((bound, total))
        out.append((math.inf, total + self.counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (Prometheus style).

        The rank ``q * count`` is located in the cumulative bucket
        distribution and interpolated linearly inside its bucket, with
        the first bucket anchored at 0 (observations are assumed
        non-negative, true of every duration/latency histogram here).
        A rank landing in the ``+Inf`` bucket clamps to the highest
        finite bound — the estimate cannot exceed what the buckets can
        resolve.  Returns ``nan`` for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        rank = q * self.count
        cum_prev = 0
        lower = 0.0
        for bound, n in zip(self.buckets, self.counts):
            cum = cum_prev + n
            if rank <= cum:
                if n == 0:
                    return lower
                return lower + (bound - lower) * (rank - cum_prev) / n
            cum_prev = cum
            lower = bound
        return self.buckets[-1]

    def merge_counts(
        self, per_bucket: Sequence[int], total_sum: float, total_count: int
    ) -> None:
        """Fold another histogram's non-cumulative counts into this one.

        ``per_bucket`` must include the trailing ``+Inf`` bucket (so its
        length is ``len(self.buckets) + 1``); bounds are validated by
        the caller (:meth:`MetricsRegistry.merge_snapshot`).
        """
        if len(per_bucket) != len(self.counts):
            raise ValueError(
                f"histogram {self.name}: cannot merge "
                f"{len(per_bucket)} buckets into {len(self.counts)}"
            )
        for i, n in enumerate(per_bucket):
            self.counts[i] += n
        self.sum += total_sum
        self.count += total_count


_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"')


def split_metric_key(key: str) -> Tuple[str, Labels]:
    """Invert the snapshot key: ``name{a="x",b="y"}`` → name + labels.

    Label values never contain quotes in this codebase (they are
    fingerprint prefixes, enum words and small ints), so a regex over
    the brace suffix is exact.
    """
    brace = key.find("{")
    if brace < 0:
        return key, ()
    name = key[:brace]
    labels = tuple(_LABEL_PAIR_RE.findall(key[brace:]))
    return name, labels


class MetricsRegistry:
    """Thread-safe get-or-create store of named metrics.

    Besides the three metric kinds, the registry keeps a small top-K
    **exemplar** store per name (:meth:`record_exemplar`): the K
    largest-valued observations with their attached labels, so a
    fabric summary can show *which* requests were the slow ones, not
    just that a p99 exists.

    Lookups are memoized: :meth:`counter`, :meth:`gauge` and
    :meth:`histogram` key the series they resolve on the call's own
    ``(kind, name, tuple(labels.items()))`` (label values that are all
    ``str``; other calls are not memoized), so a repeated call skips
    name sanitizing and label sorting (the slow path, :meth:`_get`).
    The memo holds at most :attr:`MEMO_SPELLINGS` entries per series
    in the registry — one per distinct way call sites spell a series,
    which is one in practice, since no label carries a per-request
    value — and past that bound a call takes the slow path uncached.
    """

    EXEMPLAR_K = 8

    #: Memo entries allowed per registered series (see class doc).
    MEMO_SPELLINGS = 4

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, str, Labels], object] = {}
        self._memo: Dict[tuple, object] = {}
        self._exemplars: Dict[str, List[Dict[str, object]]] = {}

    # -- get-or-create -------------------------------------------------
    def _lookup(self, kind, cls, name, labels, **kwargs):
        """The series for one call, through the memo."""
        key = (kind, name, tuple(labels.items()) if labels else ())
        try:
            metric = self._memo.get(key)
        except TypeError:  # an unhashable label value: never memoized
            return self._get(kind, cls, name, self._labels(labels), **kwargs)
        if metric is None:
            metric = self._get(
                kind, cls, name, self._labels(labels), **kwargs
            )
            # Only str values are memoized: 1, 1.0 and True hash alike
            # but name different series.
            if len(self._memo) < self.MEMO_SPELLINGS * len(
                self._metrics
            ) and all(type(v) is str for _, v in key[2]):
                self._memo[key] = metric
        return metric

    def _get(self, kind, cls, name, labels, **kwargs):
        name = _sanitize(name)
        key = (kind, name, labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, labels, **kwargs)
                self._metrics[key] = metric
            return metric

    @staticmethod
    def _labels(labels: Optional[Dict[str, str]]) -> Labels:
        if not labels:
            return ()
        return tuple(sorted((k, str(v)) for k, v in labels.items()))

    def counter(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Counter:
        return self._lookup("counter", Counter, name, labels)

    def gauge(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Gauge:
        return self._lookup("gauge", Gauge, name, labels)

    def histogram(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._lookup(
            "histogram", Histogram, name, labels, buckets=buckets
        )

    def metrics(self) -> List[object]:
        with self._lock:
            return [m for _, m in sorted(self._metrics.items(),
                                         key=lambda kv: kv[0])]

    # -- exemplars -----------------------------------------------------
    def record_exemplar(
        self,
        name: str,
        value: float,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        """Keep this observation if it is among the K largest for
        ``name`` (e.g. the slowest requests seen, with their ids).

        A full store whose smallest kept value is at least ``value``
        keeps what it has (a tie goes to the earlier observation), so
        most calls return before building an entry.
        """
        value = float(value)
        with self._lock:
            store = self._exemplars.setdefault(_sanitize(name), [])
            if len(store) >= self.EXEMPLAR_K and value <= store[-1]["value"]:
                return
            store.append({
                "value": value,
                "labels": {k: str(v) for k, v in (labels or {}).items()},
            })
            store.sort(key=lambda e: -e["value"])
            del store[self.EXEMPLAR_K:]

    def exemplars(self, name: str) -> List[Dict[str, object]]:
        with self._lock:
            return [dict(e) for e in self._exemplars.get(name, [])]

    # -- exporters -----------------------------------------------------
    def to_prometheus(self, fileobj: Optional[IO[str]] = None) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        seen_type: set = set()
        for metric in self.metrics():
            if metric.name not in seen_type:
                lines.append(f"# TYPE {metric.name} {metric.kind}")
                seen_type.add(metric.name)
            if isinstance(metric, Histogram):
                for bound, cum in metric.cumulative():
                    suffix = _label_suffix(
                        metric.labels, f'le="{_format_value(bound)}"'
                    )
                    lines.append(
                        f"{metric.name}_bucket{suffix} {cum}"
                    )
                base = _label_suffix(metric.labels)
                lines.append(
                    f"{metric.name}_sum{base} "
                    f"{_format_value(metric.sum)}"
                )
                lines.append(f"{metric.name}_count{base} {metric.count}")
            else:
                lines.append(
                    f"{metric.name}{_label_suffix(metric.labels)} "
                    f"{_format_value(metric.value)}"
                )
        text = "\n".join(lines) + ("\n" if lines else "")
        if fileobj is not None:
            fileobj.write(text)
        return text

    def export_prometheus(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            self.to_prometheus(fh)

    def snapshot(self) -> Dict[str, object]:
        """A JSON-safe nested snapshot of every metric."""
        out: Dict[str, Dict[str, object]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for metric in self.metrics():
            key = metric.name + _label_suffix(metric.labels)
            if isinstance(metric, Histogram):
                out["histograms"][key] = {
                    "buckets": [
                        [
                            "+Inf" if b == math.inf else b,
                            c,
                        ]
                        for b, c in metric.cumulative()
                    ],
                    "sum": metric.sum,
                    "count": metric.count,
                }
            elif isinstance(metric, Counter):
                out["counters"][key] = metric.value
            else:
                out["gauges"][key] = metric.value
        with self._lock:
            if self._exemplars:
                out["exemplars"] = {
                    name: [dict(e) for e in entries]
                    for name, entries in sorted(self._exemplars.items())
                }
        return out

    def export_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh, indent=1, sort_keys=True)

    # -- merging -------------------------------------------------------
    def merge_snapshot(self, snapshot: Dict[str, object]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and gauges add; histograms add per-bucket counts after
        reconstructing them from the exported cumulative form, raising
        ``ValueError`` on a bucket-bound mismatch rather than silently
        misbinning (two processes disagreeing on bounds is a bug worth
        surfacing, not averaging away); exemplar stores merge keeping
        the K largest.  This is how the router builds one fabric-wide
        registry from per-node snapshots collected over its node
        connections.
        """
        if not isinstance(snapshot, dict):
            raise ValueError("metrics snapshot must be a JSON object")
        for key, value in (snapshot.get("counters") or {}).items():
            name, labels = split_metric_key(key)
            self._get("counter", Counter, name, labels).inc(float(value))
        for key, value in (snapshot.get("gauges") or {}).items():
            name, labels = split_metric_key(key)
            gauge = self._get("gauge", Gauge, name, labels)
            gauge.set(gauge.value + float(value))
        for key, data in (snapshot.get("histograms") or {}).items():
            name, labels = split_metric_key(key)
            pairs = data.get("buckets") or []
            bounds = tuple(
                float(b) for b, _ in pairs if b != "+Inf"
            )
            if not bounds:
                raise ValueError(
                    f"histogram {key}: snapshot has no finite buckets"
                )
            hist = self._get(
                "histogram", Histogram, name, labels, buckets=bounds
            )
            if hist.buckets != bounds:
                raise ValueError(
                    f"histogram {key}: bucket bounds {bounds} do not "
                    f"match existing {hist.buckets}"
                )
            per_bucket, prev = [], 0
            for _, cum in pairs:
                per_bucket.append(int(cum) - prev)
                prev = int(cum)
            hist.merge_counts(
                per_bucket,
                float(data.get("sum", 0.0)),
                int(data.get("count", prev)),
            )
        for name, entries in (snapshot.get("exemplars") or {}).items():
            for entry in entries:
                self.record_exemplar(
                    name, entry.get("value", 0.0), entry.get("labels")
                )

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another live registry into this one (via snapshot)."""
        self.merge_snapshot(other.snapshot())


# ---------------------------------------------------------------------
_install_lock = threading.Lock()
_registry: Optional[MetricsRegistry] = None


def install_metrics(
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Install (and return) the process-wide metrics registry."""
    global _registry
    with _install_lock:
        _registry = registry if registry is not None else MetricsRegistry()
        return _registry


def uninstall_metrics() -> Optional[MetricsRegistry]:
    global _registry
    with _install_lock:
        registry, _registry = _registry, None
        return registry


def get_metrics() -> Optional[MetricsRegistry]:
    return _registry
