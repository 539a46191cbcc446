"""A small metrics registry: counters, gauges, histograms.

Replaces the ad-hoc dict accounting the service layer grew — every
aggregate the serving path reports flows through one
:class:`MetricsRegistry`, so exporters (JSONL, snapshot dicts) see a
single deterministic catalogue instead of scraping dataclasses.

Design constraints, in order:

* **Determinism** — instruments are keyed by ``(name, sorted labels)``
  and snapshots are emitted in sorted key order; histogram quantiles are
  computed over the stored samples with ``numpy.percentile`` so they
  match the pre-registry accounting bit-for-bit.
* **No dependencies** — this is not a Prometheus client; it is the
  minimal instrument set the simulator's reports need.
* **Exact aggregation** — histograms keep raw samples (simulated
  workloads are small); sums are accumulated in observation order so a
  registry-backed report equals the hand-rolled ``sum()`` it replaced.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ReproError
from repro.obs.schemas import require

LabelKey = Tuple[Tuple[str, str], ...]


class MetricsError(ReproError):
    """Metrics registry misuse (type conflict, unknown instrument...)."""


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _require_finite(kind: str, name: str, value: float) -> float:
    """Reject NaN/inf at the instrument boundary.

    A single NaN observation would silently poison ``Histogram.sum`` /
    ``mean`` and every report built on them; an inf would do the same to
    counters.  Rejection must happen here — downstream aggregation has
    no way to tell a poisoned sum from a real one.
    """
    value = float(value)
    if not math.isfinite(value):
        raise MetricsError(
            f"{kind} {name!r}: non-finite value {value!r}"
        )
    return value


class Counter:
    """Monotonically increasing value."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        amount = _require_finite("counter", self.name, amount)
        if amount < 0:
            raise MetricsError(
                f"counter {self.name!r}: negative increment {amount!r}"
            )
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "metric", "kind": self.kind, "name": self.name,
                "labels": dict(self.labels), "value": self.value}


class Gauge:
    """Last-write-wins value."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = _require_finite("gauge", self.name, value)

    def snapshot(self) -> dict:
        return {"type": "metric", "kind": self.kind, "name": self.name,
                "labels": dict(self.labels), "value": self.value}


class Histogram:
    """Raw-sample histogram with exact quantiles.

    Samples are kept verbatim (simulated runs observe at most a few
    thousand values), so ``sum``/``mean``/``percentile`` reproduce the
    exact arithmetic of the list comprehensions they replaced.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "values")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(_require_finite("histogram", self.name, value))

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def sum(self) -> float:
        return sum(self.values)

    @property
    def mean(self) -> float:
        if not self.values:
            return 0.0
        return self.sum / len(self.values)

    def percentile(self, q: float) -> float:
        """Exact percentile over the raw samples.

        Degenerate histograms are well-defined rather than errors: an
        empty histogram returns NaN (there is no value to report — JSON
        snapshots encode this as ``null``) and a single-sample histogram
        returns that sample for every ``q``.
        """
        if not 0.0 <= q <= 100.0:
            raise MetricsError(
                f"histogram {self.name!r}: percentile {q!r} not in [0, 100]"
            )
        if not self.values:
            return float("nan")
        if len(self.values) == 1:
            return float(self.values[0])
        return float(np.percentile(
            np.asarray(self.values, dtype=np.float64), q
        ))

    def snapshot(self) -> dict:
        # Empty histograms report null percentiles/max: NaN is not valid
        # JSON, and 0.0 would be indistinguishable from a real sample.
        empty = not self.values
        return {
            "type": "metric", "kind": self.kind, "name": self.name,
            "labels": dict(self.labels), "count": self.count,
            "sum": self.sum, "mean": self.mean,
            "p50": None if empty else self.percentile(50),
            "p95": None if empty else self.percentile(95),
            "max": None if empty else max(self.values),
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def validate_metric_record(record, where: str = "metric") -> None:
    """Check one instrument snapshot record (JSONL log line or profile
    ``metrics`` entry): a known kind, a labels object, and finite
    numbers, except that an empty histogram's percentiles and max are
    null.  Raises :class:`MetricsError`.
    """
    kind = record.get("kind") if isinstance(record, dict) else None
    if not isinstance(kind, str) or kind not in _KINDS:
        raise MetricsError(f"{where}: metric kind {kind!r} not in "
                           f"{sorted(_KINDS)}")
    if kind != "histogram":
        require(record, {"labels": dict, "value": float}, where,
                MetricsError)
        return
    require(record, {"labels": dict, "count": int, "sum": float,
                     "mean": float}, where, MetricsError)
    stat = None if record["count"] == 0 else float
    require(record, {"p50": stat, "p95": stat, "max": stat}, where,
            MetricsError)


def validate_metrics_snapshot(records) -> None:
    """Check a saved metrics snapshot (a JSON array of
    :meth:`MetricsRegistry.snapshot` records), each record per
    :func:`validate_metric_record`.  Raises :class:`MetricsError`."""
    if not records:
        raise MetricsError("no metric records")
    for i, record in enumerate(records):
        where = f"metric {i}"
        if not isinstance(record, dict) or record.get("type") != "metric":
            raise MetricsError(f"{where}: not a metric record")
        validate_metric_record(record, where)


class MetricsRegistry:
    """Get-or-create instrument store keyed by name + labels."""

    def __init__(self):
        self._instruments: Dict[Tuple[str, LabelKey], object] = {}
        #: ``(name, *labels.items())`` of calls whose label values are
        #: all ``str`` -> their instrument, so a repeated call skips the
        #: sorted label key.  Only ``str`` values are cached: ``1``,
        #: ``1.0`` and ``True`` hash equal but label differently.
        self._by_shape: Dict[tuple, object] = {}

    def _get(self, kind: str, name: str, labels: Dict[str, object]):
        shape = (name, *labels.items())
        try:
            instrument = self._by_shape.get(shape)
        except TypeError:  # an unhashable label value
            shape = instrument = None
        if instrument is None:
            key = (name, _label_key(labels))
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = _KINDS[kind](name, key[1])
                self._instruments[key] = instrument
            if shape is not None and all(type(v) is str
                                         for v in labels.values()):
                self._by_shape[shape] = instrument
        if instrument.kind != kind:
            raise MetricsError(
                f"instrument {name!r} already registered as "
                f"{instrument.kind}, requested {kind}"
            )
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get("histogram", name, labels)

    # -- read-only access (no instrument creation) ----------------------------

    def peek(self, name: str, **labels):
        """The instrument if it exists, else ``None`` (never creates)."""
        return self._instruments.get((name, _label_key(labels)))

    def value(self, name: str, default: float = 0.0, **labels) -> float:
        """A counter/gauge value, or ``default`` if never touched."""
        instrument = self.peek(name, **labels)
        if instrument is None:
            return default
        if isinstance(instrument, Histogram):
            raise MetricsError(
                f"{name!r} is a histogram; read count/sum/percentile "
                "from peek() instead"
            )
        return instrument.value

    def samples(self, name: str, **labels) -> List[float]:
        """A histogram's raw samples (empty list if never touched)."""
        instrument = self.peek(name, **labels)
        if instrument is None:
            return []
        if not isinstance(instrument, Histogram):
            raise MetricsError(f"{name!r} is not a histogram")
        return list(instrument.values)

    # -- export ---------------------------------------------------------------

    def snapshot(self) -> List[dict]:
        """All instruments as plain dicts, sorted by (name, labels)."""
        return [self._instruments[key].snapshot()
                for key in sorted(self._instruments)]

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def __len__(self) -> int:
        return len(self._instruments)


def as_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Normalize an optional registry argument to a usable instance."""
    return MetricsRegistry() if registry is None else registry
