"""QuantileSketch: error bound, mergeability, serialization.

The two load-bearing properties, proven over random inputs:

* **merge == pooled, bit-for-bit** — sketching any partition of a
  sample stream and merging (in any order) serializes identically to
  sketching the pooled stream; this is what makes fleet aggregation of
  per-device sketches exact with respect to the sketches.
* **documented error bound** — every percentile is within
  ``alpha * exact + min_value`` of ``numpy.percentile`` on the raw
  samples.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import DEFAULT_ALPHA, QuantileSketch, SketchError

# Non-negative float samples spanning the magnitudes the service
# observes (sub-ms queueing to hour-scale turnaround, plus exact zeros).
samples_strategy = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
                  allow_infinity=False),
        st.just(0.0),
    ),
    min_size=1, max_size=200,
)


# The whole non-negative float range: exact zeros, subnormals down to
# the smallest (5e-324) and values up to 1.7e308.
extreme_samples = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=1.7e308, allow_nan=False,
                  allow_infinity=False, allow_subnormal=True),
        st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.7e308]),
    ),
    max_size=60,
)


def sketch_of(values, alpha=DEFAULT_ALPHA):
    sketch = QuantileSketch(alpha=alpha)
    for value in values:
        sketch.observe(value)
    return sketch


class TestErrorBound:
    @settings(max_examples=200, deadline=None)
    @given(samples_strategy, st.sampled_from([0.0, 25.0, 50.0, 90.0,
                                              95.0, 99.0, 100.0]))
    def test_percentile_within_documented_bound(self, values, q):
        sketch = sketch_of(values)
        exact = float(np.percentile(np.asarray(values, dtype=np.float64),
                                    q))
        bound = sketch.alpha * exact + sketch.min_value
        assert abs(sketch.percentile(q) - exact) <= bound + 1e-9 * exact

    def test_bucket_representative_relative_error(self):
        sketch = QuantileSketch(alpha=0.02)
        for value in (1e-6, 0.37, 1.0, 42.0, 9.9e3):
            index = math.ceil(math.log(value) / math.log(sketch._gamma))
            rep = sketch.bucket_representative(index)
            assert abs(rep - value) <= sketch.alpha * value * (1 + 1e-12)

    def test_single_sample(self):
        sketch = sketch_of([3.25])
        for q in (0, 50, 100):
            assert abs(sketch.percentile(q) - 3.25) <= 0.01 * 3.25

    def test_empty_sketch_is_nan(self):
        sketch = QuantileSketch()
        assert math.isnan(sketch.percentile(50))
        snap = sketch.snapshot_percentiles()
        assert snap["count"] == 0 and snap["p99"] is None

    def test_percentiles_monotone_and_clamped(self):
        rng = np.random.default_rng(3)
        values = rng.lognormal(0.0, 2.0, 500)
        sketch = sketch_of(values)
        qs = [sketch.percentile(q) for q in (0, 10, 50, 90, 99, 100)]
        assert qs == sorted(qs)
        assert qs[0] >= float(values.min())
        assert qs[-1] <= float(values.max())


class TestMergeIsExact:
    @settings(max_examples=150, deadline=None)
    @given(samples_strategy | extreme_samples,
           st.randoms(use_true_random=False))
    def test_merge_over_random_partition_equals_pooled(self, values, rnd):
        # split the stream into 1..4 random parts, sketch each part,
        # merge in shuffled order: bit-for-bit the pooled sketch, over
        # the whole float range
        n_parts = rnd.randint(1, 4)
        parts = [[] for _ in range(n_parts)]
        for value in values:
            parts[rnd.randrange(n_parts)].append(value)
        sketches = [sketch_of(part) for part in parts]
        rnd.shuffle(sketches)
        merged = QuantileSketch.merged(sketches)
        pooled = sketch_of(values)
        assert merged.to_dict() == pooled.to_dict()
        assert merged.to_json() == pooled.to_json()

    @settings(max_examples=100, deadline=None)
    @given(extreme_samples, extreme_samples)
    def test_streams_compose_in_any_order(self, first, second):
        # one sketch fed two streams back to back, in either order, is
        # the merge of the two streams' sketches, bit-for-bit
        forward = sketch_of(first + second, alpha=0.01)
        backward = sketch_of(second + first, alpha=0.01)
        merged = sketch_of(first, alpha=0.01).merge(
            sketch_of(second, alpha=0.01))
        assert forward.to_dict() == backward.to_dict() == merged.to_dict()

    def test_merge_associative_and_commutative(self):
        a = sketch_of([0.1, 2.0, 30.0])
        b = sketch_of([5.0, 5.0])
        c = sketch_of([0.0, 1e3])
        ab_c = QuantileSketch.merged([a, b]).merge(c)
        a_bc = QuantileSketch.merged([a]).merge(
            QuantileSketch.merged([b, c]))
        cba = QuantileSketch.merged([c, b, a])
        assert ab_c.to_dict() == a_bc.to_dict() == cba.to_dict()

    def test_merge_requires_identical_boundaries(self):
        with pytest.raises(SketchError, match="identical boundaries"):
            QuantileSketch(alpha=0.01).merge(QuantileSketch(alpha=0.02))
        with pytest.raises(SketchError, match="cannot merge"):
            QuantileSketch().merge([1.0])

    def test_merged_empty_iterable_is_empty_sketch(self):
        # a fleet roll-up over zero devices is zero samples, not a crash
        merged = QuantileSketch.merged([])
        assert merged.count == 0
        assert math.isnan(merged.percentile(99))
        snap = merged.snapshot_percentiles()
        assert snap["count"] == 0 and snap["p50"] is None


class TestExactSum:
    """The serialized sum against an independent oracle: the pooled
    :class:`fractions.Fraction` sum of the samples."""

    @settings(max_examples=150, deadline=None)
    @given(extreme_samples)
    def test_sum_equals_fraction_oracle(self, values):
        exact = sum(map(Fraction, values), Fraction(0))
        assert sketch_of(values).to_dict()["sum"] == [exact.numerator,
                                                      exact.denominator]

    def test_from_dict_rejects_non_dyadic_denominator(self):
        data = dict(sketch_of([1.0]).to_dict(), sum=[1, 3])
        with pytest.raises(SketchError, match="power of two"):
            QuantileSketch.from_dict(data)


class TestSerialization:
    @settings(max_examples=100, deadline=None)
    @given(samples_strategy)
    def test_json_round_trip_lossless(self, values):
        sketch = sketch_of(values)
        clone = QuantileSketch.from_json(sketch.to_json())
        assert clone.to_dict() == sketch.to_dict()
        assert clone.count == sketch.count
        assert clone.sum == sketch.sum
        for q in (50, 95, 99):
            assert clone.percentile(q) == sketch.percentile(q)

    def test_exact_sum_survives_serialization(self):
        # 0.1 + 0.2 is inexact in floats; the sketch's sum is exact and
        # must travel losslessly as a numerator/denominator pair
        sketch = sketch_of([0.1, 0.2])
        exact = Fraction(0.1) + Fraction(0.2)  # != 0.3
        assert sketch.to_dict()["sum"] == [exact.numerator,
                                           exact.denominator]
        clone = QuantileSketch.from_json(sketch.to_json())
        assert clone.to_dict()["sum"] == sketch.to_dict()["sum"]
        assert clone.sum == sketch.sum == float(exact)

    def test_schema_is_stamped_and_checked(self):
        sketch = sketch_of([1.0])
        assert json.loads(sketch.to_json())["schema"] == "repro.sketch/v1"
        with pytest.raises(SketchError, match="schema"):
            QuantileSketch.from_dict({"schema": "nope"})
        with pytest.raises(SketchError, match="invalid sketch JSON"):
            QuantileSketch.from_json("not json")


class TestValidation:
    def test_rejects_bad_samples(self):
        sketch = QuantileSketch()
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(SketchError):
                sketch.observe(bad)
        assert sketch.count == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), -1.0])
    def test_rejected_sample_leaves_sketch_unchanged(self, bad):
        sketch = sketch_of([2.0])
        before = sketch.to_dict()
        with pytest.raises(SketchError):
            sketch.observe(bad)
        assert sketch.to_dict() == before

    def test_rejects_bad_parameters(self):
        for alpha in (0.0, 1.0, -0.5):
            with pytest.raises(SketchError, match="alpha"):
                QuantileSketch(alpha=alpha)
        with pytest.raises(SketchError, match="min_value"):
            QuantileSketch(min_value=0.0)

    def test_rejects_bad_percentile(self):
        with pytest.raises(SketchError, match="not in"):
            sketch_of([1.0]).percentile(101)

    def test_bounded_memory(self):
        # 100k lognormal samples land in a few hundred buckets
        rng = np.random.default_rng(0)
        sketch = sketch_of(rng.lognormal(0.0, 3.0, 100_000))
        assert sketch.count == 100_000
        assert sketch.n_buckets < 4000


class TestEmptyPaths:
    """Degenerate telemetry (idle devices, zero-sample windows) must
    flow through the whole aggregation pipeline without raising."""

    def test_merge_of_all_empty_sketches_stays_empty(self):
        merged = QuantileSketch.merged(
            [QuantileSketch(), QuantileSketch(), QuantileSketch()])
        assert merged.count == 0
        assert merged.sum == 0.0
        assert merged.mean == 0.0
        assert math.isnan(merged.min) and math.isnan(merged.max)
        for q in (0, 50, 99, 100):
            assert math.isnan(merged.percentile(q))

    def test_empty_sketch_round_trips_and_merges(self):
        clone = QuantileSketch.from_json(QuantileSketch().to_json())
        assert clone.count == 0
        # an empty sketch is the merge identity
        full = sketch_of([1.0, 2.0])
        assert QuantileSketch.merged([clone, full]).to_dict() == \
            full.to_dict()

    def test_empty_sketch_then_merge_then_percentile(self):
        # the full fleet pipeline over zero samples: ingest nothing,
        # merge, snapshot — all no-ops, never an exception
        sketch = QuantileSketch()
        merged = QuantileSketch.merged([sketch])
        snap = merged.snapshot_percentiles()
        assert snap == {"count": 0, "sum": 0.0, "mean": 0.0,
                        "p50": None, "p90": None, "p95": None,
                        "p99": None, "max": None}
