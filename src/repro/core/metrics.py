"""The unified telemetry registry (PR 10).

One stdlib-only module every tier imports directly (MRT/BMP decode, broker,
segment cache, Kafka source, resilience primitives, gateway hub)::

    from repro.core import metrics

    metrics.enable()
    requests = metrics.counter("myapp_requests_total", "Requests served.")
    requests.inc()
    with metrics.trace_span("decode"):
        ...
    print(metrics.exposition())          # Prometheus 0.0.4 text format
    server = metrics.start_metrics_server(port=9102)   # GET /metrics

See ``docs/OBSERVABILITY.md`` for the metric catalog.

Design, in the spirit of the PR 7 ``_CounterBlock`` audit:

* **Disabled by default, one global load per site.**  Instrumented code
  guards every update with ``if metrics.enabled:`` — when metrics are off
  (the default) the whole telemetry tier costs one module-global read per
  instrumented site and nothing else.
* **Per-thread sharded hot paths.**  Counter and histogram children keep
  one tally block per thread, keyed by ``threading.get_ident()``; only the
  owning thread ever writes its block, so an enabled increment is a dict
  probe plus an integer add — no lock, no atomics, and **no lost updates**:
  totals read by scrapes are exact, not approximate (the 8-thread hammer
  test in ``tests/core/test_metrics.py`` asserts this).
* **Prometheus text exposition.**  :meth:`MetricsRegistry.exposition`
  renders the 0.0.4 text format — ``# HELP`` / ``# TYPE`` headers, escaped
  help strings and label values, labels in declaration order, histograms
  with cumulative ``le`` buckets plus ``_sum`` / ``_count``.
* **Collected (bridged) metrics.**  Tiers that keep their own exact
  counters for other readers (``InternPool``, hub/subscriber tallies)
  are not counted twice on the hot path; they are
  *bridged*: metrics created with ``collected=True`` are reset at the start
  of every :meth:`~MetricsRegistry.collect` cycle and then repopulated by
  registered collector callbacks that read the live objects.  Object-bound
  collectors are held by weakref, so a hub that goes away stops being
  scraped without explicit deregistration.
* **Pipeline tracing.**  :func:`trace_span` times one pipeline stage
  (``poll`` → ``decode`` → ``convert`` → ``filter`` → ``fanout`` →
  ``deliver``) into a per-stage latency histogram; when metrics are
  disabled it returns a shared no-op span.

Everything here is stdlib-only and thread-safe.
"""

from __future__ import annotations

import json
import re
import threading
import time
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.intern import default_pool

__all__ = [
    "enabled",
    "enable",
    "disable",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "counter",
    "gauge",
    "histogram",
    "trace_span",
    "PIPELINE_STAGES",
    "exposition",
    "metrics_snapshot",
    "decode_counts",
    "decode_summary_lines",
    "reset_decode_counts",
    "MetricsLogEmitter",
    "start_metrics_server",
]

#: The global telemetry switch.  Instrumented sites read this module global
#: directly (``if metrics.enabled: ...``) so the disabled cost is exactly
#: one global load per site.
enabled: bool = False


def enable() -> None:
    """Turn the telemetry tier on (instrumented sites start recording)."""
    global enabled
    enabled = True


def disable() -> None:
    """Turn the telemetry tier off (sites revert to one global load)."""
    global enabled
    enabled = False


# ---------------------------------------------------------------------------
# Name / label validation and text-format escaping
# ---------------------------------------------------------------------------

#: Prometheus metric-name grammar ([a-zA-Z_:][a-zA-Z0-9_:]*).
METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Prometheus label-name grammar (no colons; ``__``-prefixed is reserved).
LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(float(value))


def _validate_labelnames(labelnames: Sequence[str]) -> Tuple[str, ...]:
    names = tuple(labelnames)
    for name in names:
        if not LABEL_NAME_RE.match(name) or name.startswith("__"):
            raise ValueError(f"invalid label name {name!r}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate label names in {names!r}")
    return names


# ---------------------------------------------------------------------------
# Metric children: the per-series hot paths
# ---------------------------------------------------------------------------


class _CounterChild:
    """One labeled counter series: per-thread shards, exact totals.

    Each thread increments only its own slot of ``_shards`` (keyed by
    thread id), so the enabled hot path is a dict probe plus an add and
    concurrent threads can never lose each other's updates.  ``set_total``
    is the bridge path for collector callbacks mirroring an external
    counter — it replaces the value wholesale.
    """

    __slots__ = ("_shards", "_collected")

    def __init__(self) -> None:
        self._shards: Dict[int, float] = {}
        self._collected: Optional[float] = None

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        shards = self._shards
        ident = threading.get_ident()
        shards[ident] = shards.get(ident, 0) + amount

    def set_total(self, value: float) -> None:
        """Bridge an externally-maintained total (collector callbacks)."""
        self._collected = value

    def add_total(self, value: float) -> None:
        """Accumulate into the bridged total (multi-instance collectors)."""
        self._collected = (self._collected or 0) + value

    def value(self) -> float:
        total = sum(list(self._shards.values()))
        if self._collected is not None:
            total += self._collected
        return total

    def _reset(self) -> None:
        self._shards = {}
        self._collected = None


class _GaugeChild:
    """One labeled gauge series (a plain last-write-wins cell)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)

    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        self._value = 0.0


class _HistogramShard:
    """Per-thread histogram tallies: bucket counts plus the running sum."""

    __slots__ = ("counts", "total")

    def __init__(self, nbuckets: int) -> None:
        self.counts = [0] * nbuckets
        self.total = 0.0


class _HistogramChild:
    """One labeled histogram series: sharded observe, cumulative render."""

    __slots__ = ("_uppers", "_shards")

    def __init__(self, uppers: Sequence[float]) -> None:
        self._uppers = list(uppers)
        self._shards: Dict[int, _HistogramShard] = {}

    def observe(self, value: float) -> None:
        shards = self._shards
        ident = threading.get_ident()
        shard = shards.get(ident)
        if shard is None:
            shard = shards[ident] = _HistogramShard(len(self._uppers) + 1)
        # ``le`` buckets: the observation lands in the first bucket whose
        # upper bound is >= value (bisect_left keeps equality inclusive);
        # past every bound it lands in the +Inf overflow slot.
        shard.counts[bisect_left(self._uppers, value)] += 1
        shard.total += value

    def snapshot(self) -> Tuple[List[int], float, int]:
        """(per-bucket counts incl. +Inf, sum, total count) — exact totals."""
        counts = [0] * (len(self._uppers) + 1)
        total = 0.0
        for shard in list(self._shards.values()):
            for index, count in enumerate(shard.counts):
                counts[index] += count
            total += shard.total
        return counts, total, sum(counts)

    def value(self) -> float:
        return self.snapshot()[2]

    def _reset(self) -> None:
        self._shards = {}


# ---------------------------------------------------------------------------
# Metric families
# ---------------------------------------------------------------------------


class Metric:
    """Base class of one metric family: a name, help text and children.

    A family without labels owns exactly one (anonymous) child, created
    eagerly so the series is always present in the exposition (a scrape of
    an idle process shows explicit zeros, not absent metrics).  A labeled
    family creates children on first use via :meth:`labels`.
    """

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        collected: bool = False,
    ) -> None:
        if not METRIC_NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.labelnames = _validate_labelnames(labelnames)
        #: Collected metrics are reset at the start of every collect cycle
        #: and repopulated by collector callbacks bridging live objects.
        self.collected = collected
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}
        if not self.labelnames:
            self._children[()] = self._new_child()

    def _new_child(self):
        raise NotImplementedError

    def labels(self, *values, **kwargs):
        """The child series for one label-value combination."""
        if kwargs:
            if values:
                raise ValueError("pass label values positionally or by name, not both")
            try:
                values = tuple(str(kwargs.pop(name)) for name in self.labelnames)
            except KeyError as exc:
                raise ValueError(f"missing label {exc.args[0]!r} for {self.name}")
            if kwargs:
                raise ValueError(f"unknown labels {sorted(kwargs)!r} for {self.name}")
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} takes {len(self.labelnames)} label(s) "
                f"{self.labelnames!r}, got {len(values)}"
            )
        child = self._children.get(values)
        if child is None:
            with self._lock:
                child = self._children.setdefault(values, self._new_child())
        return child

    def _resolve(self, labels: Dict[str, str]):
        return self.labels(**labels) if labels else self.labels()

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        """(label values, child) pairs in insertion order (stable render)."""
        with self._lock:
            return list(self._children.items())

    def reset(self) -> None:
        """Drop labeled children and zero the rest (collect-cycle reset)."""
        if not self.labelnames:
            self.zero()
            return
        with self._lock:
            self._children = {}

    def zero(self) -> None:
        """Zero every child in place; children bound ahead of time stay live."""
        with self._lock:
            for child in self._children.values():
                child._reset()

    def _label_text(self, values: Tuple[str, ...], extra: str = "") -> str:
        pairs = [
            f'{name}="{_escape_label_value(value)}"'
            for name, value in zip(self.labelnames, values)
        ]
        if extra:
            pairs.append(extra)
        return "{" + ",".join(pairs) + "}" if pairs else ""

    def render(self, lines: List[str]) -> None:
        """Append this family's exposition lines (HELP/TYPE + samples)."""
        lines.append(f"# HELP {self.name} {_escape_help(self.help)}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for values, child in self.children():
            lines.append(f"{self.name}{self._label_text(values)} {_format_value(child.value())}")

    def sample_dict(self) -> Dict[str, float]:
        """``{label-suffix: value}`` for :func:`metrics_snapshot`."""
        return {
            self._label_text(values) or "": child.value()
            for values, child in self.children()
        }


class Counter(Metric):
    """A monotonically increasing metric family (name must end ``_total``)."""

    kind = "counter"

    def __init__(self, name, help, labelnames=(), collected=False) -> None:
        if not name.endswith("_total"):
            raise ValueError(f"counter {name!r} must end with '_total'")
        super().__init__(name, help, labelnames, collected)

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1, **labels) -> None:
        self._resolve(labels).inc(amount)

    def set_total(self, value: float, **labels) -> None:
        """Bridge an external total into this family (collector path)."""
        self._resolve(labels).set_total(value)

    def add_total(self, value: float, **labels) -> None:
        """Accumulate an external total (summing over several instances)."""
        self._resolve(labels).add_total(value)


class Gauge(Metric):
    """A metric family whose value can go up and down (or be sampled)."""

    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float, **labels) -> None:
        self._resolve(labels).set(value)

    def inc(self, amount: float = 1, **labels) -> None:
        self._resolve(labels).inc(amount)

    def dec(self, amount: float = 1, **labels) -> None:
        self._resolve(labels).dec(amount)


class Histogram(Metric):
    """A bucketed distribution family (Prometheus cumulative ``le`` form)."""

    kind = "histogram"

    #: The prometheus_client default bucket ladder.
    DEFAULT_BUCKETS = (
        0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    )

    def __init__(
        self, name, help, labelnames=(), buckets=None, collected=False
    ) -> None:
        uppers = list(buckets if buckets is not None else self.DEFAULT_BUCKETS)
        if not uppers:
            raise ValueError("a histogram needs at least one bucket")
        if sorted(uppers) != uppers or len(set(uppers)) != len(uppers):
            raise ValueError("histogram buckets must be sorted and distinct")
        if uppers and uppers[-1] == float("inf"):
            uppers = uppers[:-1]  # +Inf is implicit
        self.buckets = tuple(uppers)
        super().__init__(name, help, labelnames, collected)

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float, **labels) -> None:
        self._resolve(labels).observe(value)

    def render(self, lines: List[str]) -> None:
        lines.append(f"# HELP {self.name} {_escape_help(self.help)}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for values, child in self.children():
            counts, total, count = child.snapshot()
            cumulative = 0
            for upper, bucket_count in zip(self.buckets, counts):
                cumulative += bucket_count
                extra = f'le="{_format_value(upper)}"'
                lines.append(
                    f"{self.name}_bucket{self._label_text(values, extra)} {cumulative}"
                )
            inf_label = 'le="+Inf"'
            lines.append(f"{self.name}_bucket{self._label_text(values, inf_label)} {count}")
            lines.append(f"{self.name}_sum{self._label_text(values)} {_format_value(total)}")
            lines.append(f"{self.name}_count{self._label_text(values)} {count}")

    def sample_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for values, child in self.children():
            counts, total, count = child.snapshot()
            key = self._label_text(values) or ""
            out[key] = count
            out[key + ":sum"] = total
        return out


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


class MetricsRegistry:
    """A named collection of metric families plus collector callbacks.

    Registration enforces unique names (``tools/check_metrics.py`` re-walks
    the registry in CI as a belt-and-braces gate).  Collector callbacks run
    at the start of every :meth:`collect` so bridged metrics reflect the
    live objects at scrape time; object-bound collectors are weakly
    referenced and pruned automatically when their owner is garbage
    collected.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}
        #: (weakref-or-None, callback) pairs; callback takes the owner (or
        #: no argument when unbound).
        self._collectors: List[Tuple[Optional[object], Callable]] = []

    # -- registration ------------------------------------------------------

    def register(self, metric: Metric) -> Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                raise ValueError(f"duplicate metric name {metric.name!r}")
            self._metrics[metric.name] = metric
        return metric

    def counter(self, name, help, labelnames=(), collected=False) -> Counter:
        """Create and register a :class:`Counter`."""
        return self.register(Counter(name, help, labelnames, collected=collected))

    def gauge(self, name, help, labelnames=(), collected=False) -> Gauge:
        """Create and register a :class:`Gauge`."""
        return self.register(Gauge(name, help, labelnames, collected=collected))

    def histogram(self, name, help, labelnames=(), buckets=None, collected=False) -> Histogram:
        """Create and register a :class:`Histogram`."""
        return self.register(
            Histogram(name, help, labelnames, buckets=buckets, collected=collected)
        )

    def metrics(self) -> List[Metric]:
        """Every registered family, sorted by name (stable exposition)."""
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def get(self, name: str) -> Optional[Metric]:
        """The registered family called ``name``, or None."""
        with self._lock:
            return self._metrics.get(name)

    # -- collectors --------------------------------------------------------

    def add_collector(self, callback: Callable, owner: Optional[object] = None) -> None:
        """Run ``callback`` at the start of every collect cycle.

        With an ``owner`` the callback is invoked as ``callback(owner)``
        and the registration lives exactly as long as the owner does (a
        weak reference; dead owners are pruned silently) — instances like
        hubs and servers register themselves this way and never need to
        deregister.
        """
        import weakref

        ref = weakref.ref(owner) if owner is not None else None
        with self._lock:
            self._collectors.append((ref, callback))

    def collect(self) -> List[Metric]:
        """Reset bridged metrics, run collectors, return the families."""
        families = self.metrics()
        for metric in families:
            if metric.collected:
                metric.reset()
        with self._lock:
            collectors = list(self._collectors)
        alive: List[Tuple[Optional[object], Callable]] = []
        for ref, callback in collectors:
            if ref is None:
                callback()
                alive.append((ref, callback))
                continue
            owner = ref()
            if owner is None:
                continue  # pruned: the instance is gone
            callback(owner)
            alive.append((ref, callback))
        if len(alive) != len(collectors):
            with self._lock:
                current = {id(cb) for _ref, cb in alive}
                self._collectors = [
                    (ref, cb) for ref, cb in self._collectors if id(cb) in current
                ]
        return families

    # -- output surfaces ---------------------------------------------------

    def exposition(self) -> str:
        """The Prometheus 0.0.4 text exposition of every family."""
        lines: List[str] = []
        for metric in self.collect():
            metric.render(lines)
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``{metric name: {label suffix: value}}`` over every family."""
        return {metric.name: metric.sample_dict() for metric in self.collect()}


# ---------------------------------------------------------------------------
# The process-wide default registry and its convenience constructors
# ---------------------------------------------------------------------------

_default_registry = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry every tier registers into."""
    return _default_registry


def counter(name, help, labelnames=(), collected=False) -> Counter:
    """Register a :class:`Counter` on the default registry."""
    return _default_registry.counter(name, help, labelnames, collected=collected)


def gauge(name, help, labelnames=(), collected=False) -> Gauge:
    """Register a :class:`Gauge` on the default registry."""
    return _default_registry.gauge(name, help, labelnames, collected=collected)


def histogram(name, help, labelnames=(), buckets=None, collected=False) -> Histogram:
    """Register a :class:`Histogram` on the default registry."""
    return _default_registry.histogram(
        name, help, labelnames, buckets=buckets, collected=collected
    )


def exposition() -> str:
    """The default registry's Prometheus text exposition."""
    return _default_registry.exposition()


def metrics_snapshot() -> Dict[str, Dict[str, float]]:
    """A plain-dict snapshot of the default registry (headless replays)."""
    return _default_registry.snapshot()


# ---------------------------------------------------------------------------
# Pipeline tracing
# ---------------------------------------------------------------------------

#: The pipeline stages the span tracer distinguishes, in data-flow order.
PIPELINE_STAGES = ("poll", "decode", "convert", "filter", "fanout", "deliver")

#: Latency ladder tuned for in-process pipeline stages (sub-ms to seconds).
STAGE_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

stage_latency = histogram(
    "repro_stage_latency_seconds",
    "Wall-clock latency of one pipeline stage execution "
    "(poll/decode/convert/filter/fanout/deliver).",
    labelnames=("stage",),
    buckets=STAGE_BUCKETS,
)

#: Pre-resolved children: the hot path pays one dict probe, not a labels()
#: validation, per span.
_STAGE_CHILDREN = {stage: stage_latency.labels(stage) for stage in PIPELINE_STAGES}


class _Span:
    """A live tracing span: times enter→exit into a stage histogram."""

    __slots__ = ("_child", "_start")

    def __init__(self, child: _HistogramChild) -> None:
        self._child = child
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._child.observe(time.perf_counter() - self._start)


class _NoopSpan:
    """The shared do-nothing span handed out while metrics are disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


def trace_span(stage: str):
    """A context manager timing one pipeline stage execution.

    ``with trace_span("decode"): ...`` feeds the elapsed wall-clock time
    into ``repro_stage_latency_seconds{stage="decode"}``.  While metrics
    are disabled this returns a shared no-op span, so an un-guarded call
    site costs two empty method calls; hot loops should still guard with
    ``if metrics.enabled:`` for the one-global-load discipline.
    """
    if not enabled:
        return _NOOP_SPAN
    child = _STAGE_CHILDREN.get(stage)
    if child is None:
        child = stage_latency.labels(stage)
        _STAGE_CHILDREN[stage] = child
    return _Span(child)


# ---------------------------------------------------------------------------
# The decode tier: counted where it happens, read by --decode-stats and /stats
# ---------------------------------------------------------------------------

decode_records_scanned = counter(
    "repro_decode_records_scanned_total",
    "MRT records scanned by the decode tier.",
)
decode_frames_scanned = counter(
    "repro_decode_bmp_frames_scanned_total",
    "BMP frames scanned by the live decode tier.",
)
decode_bytes = counter(
    "repro_decode_bytes_total",
    "Bytes handled by the decode tier, split into zero-copy views vs copies.",
    labelnames=("kind",),
)
decode_attr_blocks = counter(
    "repro_decode_attr_blocks_total",
    "Path-attribute blocks deferred (lazy) vs decoded eagerly.",
    labelnames=("kind",),
)
decode_attr_fields = counter(
    "repro_decode_attr_fields_materialised_total",
    "Deferred path attributes parsed on first read.",
)
decode_elems = counter(
    "repro_decode_elems_total",
    "Elems created lazily, materialised on read, or built eagerly.",
    labelnames=("kind",),
)
# Every decode series exists from import on, in this order: a scrape shows
# explicit zeros, and the decode sites bind their children once.
for _family, _kinds in (
    (decode_bytes, ("viewed", "copied")),
    (decode_attr_blocks, ("deferred", "eager")),
    (decode_elems, ("lazy", "materialised", "eager")),
):
    for _kind in _kinds:
        _family.labels(_kind)
del _family, _kinds, _kind

#: The registry series behind ``--decode-stats`` and ``/stats``' ``decode``
#: object: report key → (family name, label values).  The segment-cache
#: family is registered by :mod:`repro.broker.segments`; until that is
#: imported its keys read 0.
DECODE_STATS_SERIES = {
    "records_scanned": ("repro_decode_records_scanned_total", ()),
    "bytes_viewed": ("repro_decode_bytes_total", ("viewed",)),
    "bytes_copied": ("repro_decode_bytes_total", ("copied",)),
    "attr_blocks_deferred": ("repro_decode_attr_blocks_total", ("deferred",)),
    "attr_blocks_eager": ("repro_decode_attr_blocks_total", ("eager",)),
    "attr_fields_materialised": ("repro_decode_attr_fields_materialised_total", ()),
    "lazy_elems": ("repro_decode_elems_total", ("lazy",)),
    "elems_materialised": ("repro_decode_elems_total", ("materialised",)),
    "eager_elems": ("repro_decode_elems_total", ("eager",)),
    "bmp_frames_scanned": ("repro_decode_bmp_frames_scanned_total", ()),
    "segment_hits": ("repro_segment_cache_events_total", ("hit",)),
    "segment_misses": ("repro_segment_cache_events_total", ("miss",)),
    "segment_corrupt": ("repro_segment_cache_events_total", ("corrupt",)),
}


def reset_decode_counts() -> None:
    """Zero the families ``--decode-stats`` reads: a run starts a fresh window."""
    for name in {name for name, _labels in DECODE_STATS_SERIES.values()}:
        family = _default_registry.get(name)
        if family is not None:
            family.zero()


def decode_counts() -> Dict[str, int]:
    """The decode tally: registry series plus the intern pool's totals."""
    counts = {}
    for key, (name, labels) in DECODE_STATS_SERIES.items():
        family = _default_registry.get(name)
        # children(), not labels(): reading must not create a series.
        child = dict(family.children()).get(labels) if family is not None else None
        counts[key] = int(child.value()) if child is not None else 0
    per_kind = default_pool().stats().values()
    counts["intern_hits"] = sum(stats["hits"] for stats in per_kind)
    counts["intern_misses"] = sum(stats["misses"] for stats in per_kind)
    return counts


def decode_summary_lines() -> List[str]:
    """The ``--decode-stats`` report (both CLIs print each line behind ``# ``)."""
    c = decode_counts()
    total_bytes = c["bytes_viewed"] + c["bytes_copied"]
    viewed_pct = (100.0 * c["bytes_viewed"] / total_bytes) if total_bytes else 0.0
    skipped = max(0, c["lazy_elems"] - c["elems_materialised"])
    return [
        f"records scanned:          {c['records_scanned']}",
        f"bmp frames scanned:       {c['bmp_frames_scanned']}",
        f"bytes viewed (zero-copy): {c['bytes_viewed']} ({viewed_pct:.1f}%)",
        f"bytes copied:             {c['bytes_copied']}",
        f"attr blocks deferred:     {c['attr_blocks_deferred']}",
        f"attr blocks eager:        {c['attr_blocks_eager']}",
        f"attr fields materialised: {c['attr_fields_materialised']}",
        f"lazy elems created:       {c['lazy_elems']}",
        f"elems materialised:       {c['elems_materialised']}",
        f"elems skipped (lazy win): {skipped}",
        f"eager elems created:      {c['eager_elems']}",
        f"intern hits:              {c['intern_hits']}",
        f"intern misses:            {c['intern_misses']}",
        f"segment cache hits:       {c['segment_hits']}",
        f"segment cache misses:     {c['segment_misses']}",
        f"segment files corrupt:    {c['segment_corrupt']}",
    ]


# ---------------------------------------------------------------------------
# Bridged tier: the intern pool
# ---------------------------------------------------------------------------

intern_operations = counter(
    "repro_intern_operations_total",
    "Probes of the process-wide intern pool by kind and outcome (one per "
    "AS path / community set built from wire bytes or a pickle).",
    labelnames=("kind", "result"),
    collected=True,
)
intern_entries = gauge(
    "repro_intern_entries",
    "Canonical entries resident in the process-wide intern pool, per kind.",
    labelnames=("kind",),
    collected=True,
)


def _collect_intern() -> None:
    """Bridge the process-wide intern pool's exact tallies.

    A scrape before anything was decoded creates the (empty) pool and
    reports zeros — cheaper than a second accessor that only peeks.
    """
    for kind, stats in default_pool().stats().items():
        intern_operations.set_total(stats["hits"], kind=kind, result="hit")
        intern_operations.set_total(stats["misses"], kind=kind, result="miss")
        intern_operations.set_total(stats["overflow"], kind=kind, result="overflow")
        intern_entries.set(stats["size"], kind=kind)


_default_registry.add_collector(_collect_intern)


# ---------------------------------------------------------------------------
# Output plumbing: the scrape server and the structured-log emitter
# ---------------------------------------------------------------------------


class _MetricsServer:
    """A tiny stdlib HTTP scrape server bound to one registry.

    Serves ``GET /metrics`` (and ``/``) with the text exposition from a
    daemon thread; anything else is a 404.  Built on
    ``http.server.ThreadingHTTPServer`` — no dependencies, good enough for
    a scrape endpoint that answers one request every few seconds.
    """

    def __init__(self, host: str, port: int, registry: MetricsRegistry) -> None:
        import http.server

        outer = self

        class Handler(http.server.BaseHTTPRequestHandler):
            """GET /metrics (and /) → the registry's text exposition."""

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                if self.path.split("?", 1)[0] not in ("/metrics", "/"):
                    self.send_error(404)
                    return
                body = outer.registry.exposition().encode("utf-8")
                self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: object) -> None:
                pass  # a scrape endpoint must not chat on stderr

        self.registry = registry
        self._httpd = http.server.ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True, name="metrics-server"
        )
        self._thread.start()

    def close(self) -> None:
        """Stop serving and release the socket."""
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=2.0)


def start_metrics_server(
    port: int, host: str = "127.0.0.1", registry: Optional[MetricsRegistry] = None
) -> _MetricsServer:
    """Serve ``GET /metrics`` on ``host:port`` from a daemon thread.

    ``port=0`` picks an ephemeral port (read it back from ``.port``).
    This is the ``--metrics-port`` surface of ``bgpreader`` and
    ``python -m repro.gateway``; embedders can call it directly.
    """
    return _MetricsServer(host, port, registry or _default_registry)


class MetricsLogEmitter:
    """Periodically write registry snapshots as JSON lines (headless runs).

    A replay with no scrape endpoint still wants observability: the emitter
    writes one ``{"event": "metrics", "elapsed": ..., "metrics": {...}}``
    JSON object per line to ``out`` every ``interval`` seconds from a
    daemon thread, plus a final line on :meth:`stop`.  Histograms are
    summarised as their count and sum.
    """

    def __init__(
        self,
        out,
        interval: float = 10.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.out = out
        self.interval = interval
        self.registry = registry or _default_registry
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started_at = time.monotonic()
        self.emitted = 0

    def emit(self) -> None:
        """Write one snapshot line immediately."""
        body = {
            "event": "metrics",
            "elapsed": round(time.monotonic() - self._started_at, 3),
            "metrics": self.registry.snapshot(),
        }
        print(json.dumps(body, sort_keys=True), file=self.out, flush=True)
        self.emitted += 1

    def start(self) -> "MetricsLogEmitter":
        """Start the periodic emission thread."""
        if self._thread is not None:
            raise RuntimeError("emitter already started")

        def loop() -> None:
            while not self._stop.wait(self.interval):
                self.emit()

        self._thread = threading.Thread(target=loop, daemon=True, name="metrics-log")
        self._thread.start()
        return self

    def stop(self, final: bool = True) -> None:
        """Stop the thread; by default emit one final snapshot line."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        if final:
            self.emit()
