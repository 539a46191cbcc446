"""A deterministic, mergeable quantile sketch with bounded memory.

:class:`~repro.obs.metrics.Histogram` keeps raw samples — exact but
unbounded, and two histograms cannot be combined without shipping every
sample.  :class:`QuantileSketch` is its bounded-memory sibling for
fleet-scale telemetry: samples are folded into **fixed log-spaced
buckets**, so a sketch is a few hundred integers regardless of how many
values it absorbed, and sketches from different devices merge by adding
bucket counts.

Design invariants, each load-bearing for the fleet layer:

* **Fixed bucket boundaries.**  With relative accuracy ``alpha``, bucket
  ``i`` covers ``(gamma**(i-1), gamma**i]`` where
  ``gamma = (1 + alpha) / (1 - alpha)``.  The boundaries depend only on
  ``alpha`` — never on the data — so two sketches with equal ``alpha``
  are always mergeable and ``merge`` is associative and commutative.
* **Documented error bound.**  Bucket ``i`` is reported as its
  mid-representative ``2 * gamma**i / (1 + gamma)``, which is within a
  factor ``1 ± alpha`` of every value in the bucket.
  :meth:`percentile` interpolates between the representatives of the two
  order statistics that ``numpy.percentile`` (linear interpolation)
  would use, so for non-negative samples::

      |sketch.percentile(q) - numpy.percentile(samples, q)|
          <= alpha * numpy.percentile(samples, q) + min_value

  The additive ``min_value`` term covers the underflow bucket: values in
  ``[0, min_value]`` are collapsed to a single zero bucket reported as
  ``0.0``.
* **Exact counts and sums.**  Bucket counts are integers and the running
  sum is kept as an exact dyadic rational: every float is an integer
  over a power of two, so the sum is an integer numerator over
  ``2**exponent`` and adding a sample is a big-int shift and add.
  Merging sketches over *any* partition of a sample stream therefore
  yields bit-for-bit the sketch of the pooled stream — order of
  observation and order of merging are both irrelevant.  The property
  tests in ``tests/obs/test_sketch.py`` pin this down.
* **JSON round-trip.**  :meth:`to_json` / :meth:`from_json` serialize
  every field losslessly (the exact sum travels as an integer
  numerator/denominator pair), so device telemetry can cross process
  boundaries without widening the error bound.

Only non-negative samples are accepted: the fleet metrics (latencies,
energy) are non-negative by construction, and rejecting negatives keeps
the relative-error statement unconditional.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, Optional

from repro.errors import ReproError

#: Schema identifier stamped into every serialized sketch.
from repro.obs.schemas import SKETCH_SCHEMA  # noqa: E402 (constant table)

#: Default relative accuracy (1% — p99 of a 10 s tail is within 100 ms).
DEFAULT_ALPHA = 0.01

#: Default underflow threshold: values at or below this collapse into the
#: zero bucket (reported as 0.0, an absolute error of at most this much).
DEFAULT_MIN_VALUE = 1e-12


class SketchError(ReproError):
    """Quantile sketch misuse (negative sample, mismatched merge...)."""


class QuantileSketch:
    """Mergeable log-bucketed quantile sketch (see module docstring)."""

    __slots__ = ("alpha", "min_value", "_gamma", "_log_gamma", "_buckets",
                 "_zero_count", "_count", "_sum_num", "_sum_exp", "_min",
                 "_max")

    def __init__(self, alpha: float = DEFAULT_ALPHA,
                 min_value: float = DEFAULT_MIN_VALUE):
        if not 0.0 < alpha < 1.0:
            raise SketchError(f"alpha must be in (0, 1), got {alpha!r}")
        if not min_value > 0.0 or not math.isfinite(min_value):
            raise SketchError(
                f"min_value must be a positive finite number, got "
                f"{min_value!r}"
            )
        self.alpha = float(alpha)
        self.min_value = float(min_value)
        self._gamma = (1.0 + self.alpha) / (1.0 - self.alpha)
        self._log_gamma = math.log(self._gamma)
        self._buckets: Dict[int, int] = {}
        self._zero_count = 0
        self._count = 0
        # exact sum = _sum_num / 2**_sum_exp (unreduced)
        self._sum_num = 0
        self._sum_exp = 0
        self._min = math.inf
        self._max = -math.inf

    # -- ingestion ------------------------------------------------------------

    def observe(self, value: float) -> None:
        """Fold one non-negative sample into the sketch."""
        value = float(value)
        if not math.isfinite(value):
            raise SketchError(f"non-finite sample {value!r}")
        if value < 0.0:
            raise SketchError(f"negative sample {value!r}")
        if value <= self.min_value:
            self._zero_count += 1
        else:
            index = math.ceil(math.log(value) / self._log_gamma)
            self._buckets[index] = self._buckets.get(index, 0) + 1
        self._count += 1
        num, den = value.as_integer_ratio()
        exp = den.bit_length() - 1
        if exp > self._sum_exp:
            self._sum_num = (self._sum_num << (exp - self._sum_exp)) + num
            self._sum_exp = exp
        else:
            self._sum_num += num << (self._sum_exp - exp)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def _reduced_sum(self):
        """The exact sum as a lowest-terms ``(numerator, denominator)``."""
        num, exp = self._sum_num, self._sum_exp
        if num == 0:
            return 0, 1
        shift = min((num & -num).bit_length() - 1, exp)
        return num >> shift, 1 << (exp - shift)

    # -- aggregates -----------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        """Exact sum of all samples, rounded once to a float."""
        num, den = self._reduced_sum()
        return num / den

    @property
    def mean(self) -> float:
        if self._count == 0:
            return 0.0
        num, den = self._reduced_sum()
        return num / (den * self._count)

    @property
    def min(self) -> float:
        return self._min if self._count else float("nan")

    @property
    def max(self) -> float:
        return self._max if self._count else float("nan")

    @property
    def n_buckets(self) -> int:
        """Occupied buckets (the memory footprint), zero bucket included."""
        return len(self._buckets) + (1 if self._zero_count else 0)

    def bucket_representative(self, index: int) -> float:
        """Mid-representative of bucket ``index`` (rel. error <= alpha)."""
        return 2.0 * self._gamma ** index / (1.0 + self._gamma)

    # -- quantiles ------------------------------------------------------------

    def _value_at_rank(self, rank: int) -> float:
        """Representative of the sample at 0-based sorted ``rank``."""
        if rank < self._zero_count:
            return 0.0
        seen = self._zero_count
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if rank < seen:
                return self.bucket_representative(index)
        # unreachable when 0 <= rank < count (counts are consistent)
        raise SketchError(f"rank {rank} out of range (count={self._count})")

    def percentile(self, q: float) -> float:
        """Approximate percentile matching ``numpy.percentile``'s linear
        interpolation, within the documented error bound.

        Degenerate sketches mirror :class:`Histogram`: an empty sketch
        returns NaN, a single-sample sketch returns that sample's
        representative for every ``q``.
        """
        if not 0.0 <= q <= 100.0:
            raise SketchError(f"percentile {q!r} not in [0, 100]")
        if self._count == 0:
            return float("nan")
        position = (self._count - 1) * (q / 100.0)
        lower_rank = math.floor(position)
        fraction = position - lower_rank
        low = self._value_at_rank(lower_rank)
        if fraction == 0.0:
            value = low
        else:
            high = self._value_at_rank(min(lower_rank + 1, self._count - 1))
            value = low + fraction * (high - low)
        # Clamping to the exact observed range only tightens the bound.
        return min(max(value, self._min), self._max)

    # -- merging --------------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch (in place); returns ``self``.

        Counts add, the exact sums add, min/max combine — all exact
        operations, so merging is associative and commutative and the
        result is bit-for-bit the sketch of the pooled sample stream.
        """
        if not isinstance(other, QuantileSketch):
            raise SketchError(f"cannot merge {type(other).__name__}")
        if other.alpha != self.alpha or other.min_value != self.min_value:
            raise SketchError(
                f"mergeable sketches need identical boundaries: "
                f"alpha {self.alpha!r} vs {other.alpha!r}, min_value "
                f"{self.min_value!r} vs {other.min_value!r}"
            )
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        self._zero_count += other._zero_count
        self._count += other._count
        exp = max(self._sum_exp, other._sum_exp)
        self._sum_num = ((self._sum_num << (exp - self._sum_exp))
                         + (other._sum_num << (exp - other._sum_exp)))
        self._sum_exp = exp
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        return self

    @classmethod
    def merged(cls, sketches: Iterable["QuantileSketch"]
               ) -> "QuantileSketch":
        """A fresh sketch holding the union of ``sketches``.

        An empty iterable yields an empty default-boundary sketch — a
        fleet roll-up over zero devices is a report with zero samples,
        not an error (its percentiles read as NaN/None).
        """
        sketches = list(sketches)
        if not sketches:
            return cls()
        out = cls(alpha=sketches[0].alpha,
                  min_value=sketches[0].min_value)
        for sketch in sketches:
            out.merge(sketch)
        return out

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        """Lossless plain-dict form (sorted, JSON-safe)."""
        return {
            "schema": SKETCH_SCHEMA,
            "alpha": self.alpha,
            "min_value": self.min_value,
            "count": self._count,
            "zero_count": self._zero_count,
            "buckets": {str(i): self._buckets[i]
                        for i in sorted(self._buckets)},
            "sum": list(self._reduced_sum()),
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QuantileSketch":
        if not isinstance(data, dict) or data.get("schema") != SKETCH_SCHEMA:
            raise SketchError(
                f"expected schema {SKETCH_SCHEMA!r}, got "
                f"{data.get('schema') if isinstance(data, dict) else data!r}"
            )
        sketch = cls(alpha=data["alpha"], min_value=data["min_value"])
        sketch._zero_count = int(data["zero_count"])
        sketch._count = int(data["count"])
        sketch._buckets = {int(k): int(v)
                           for k, v in data["buckets"].items()}
        num, den = (int(v) for v in data["sum"])
        if den <= 0 or den & (den - 1):
            raise SketchError(
                f"sum denominator {den} is not a power of two")
        sketch._sum_num = num
        sketch._sum_exp = den.bit_length() - 1
        if sketch._count:
            sketch._min = float(data["min"])
            sketch._max = float(data["max"])
        return sketch

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "QuantileSketch":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SketchError(f"invalid sketch JSON: {exc}") from exc
        return cls.from_dict(data)

    # -- snapshot (MetricsRegistry-style read-out) ----------------------------

    def snapshot_percentiles(self) -> dict:
        """The standard percentile read-out used by fleet reports."""
        empty = self._count == 0
        return {
            "count": self._count,
            "sum": self.sum,
            "mean": self.mean,
            "p50": None if empty else self.percentile(50),
            "p90": None if empty else self.percentile(90),
            "p95": None if empty else self.percentile(95),
            "p99": None if empty else self.percentile(99),
            "max": None if empty else self._max,
        }

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        return (f"QuantileSketch(alpha={self.alpha}, count={self._count}, "
                f"buckets={self.n_buckets})")
