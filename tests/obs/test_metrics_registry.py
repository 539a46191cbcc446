"""Unit tests for the metrics registry."""

import json

import pytest

from repro.obs import MetricsError, MetricsRegistry, as_registry, write_text


class TestInstruments:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        reg.counter("requests", tier="a").inc()
        reg.counter("requests", tier="a").inc(2.0)
        reg.counter("requests", tier="b").inc()
        assert reg.value("requests", tier="a") == 3.0
        assert reg.value("requests", tier="b") == 1.0
        assert len(reg) == 2

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricsError, match="negative"):
            reg.counter("c").inc(-1.0)

    def test_instruments_reject_nan_and_inf(self):
        # a single NaN would poison every aggregate downstream; reject
        # at the instrument boundary and leave state untouched
        reg = MetricsRegistry()
        reg.counter("c").inc(1.0)
        reg.gauge("g").set(2.0)
        reg.histogram("h").observe(3.0)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(MetricsError, match="finite"):
                reg.counter("c").inc(bad)
            with pytest.raises(MetricsError, match="finite"):
                reg.gauge("g").set(bad)
            with pytest.raises(MetricsError, match="finite"):
                reg.histogram("h").observe(bad)
        assert reg.value("c") == 1.0
        assert reg.value("g") == 2.0
        assert reg.histogram("h").count == 1

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(3)
        reg.gauge("depth").set(1)
        assert reg.value("depth") == 1.0

    def test_histogram_exact_stats(self):
        reg = MetricsRegistry()
        values = [0.3, 0.1, 0.2, 0.4]
        for v in values:
            reg.histogram("lat").observe(v)
        h = reg.histogram("lat")
        assert h.count == 4
        assert h.sum == sum(values)       # same accumulation order
        assert h.mean == sum(values) / 4
        import numpy as np
        assert h.percentile(50) == float(np.percentile(values, 50))
        assert reg.samples("lat") == values

    def test_empty_histogram_percentile_is_nan(self):
        import math
        h = MetricsRegistry().histogram("lat")
        assert h.count == 0 and h.mean == 0.0
        assert math.isnan(h.percentile(0))
        assert math.isnan(h.percentile(95))
        assert math.isnan(h.percentile(100))

    def test_single_sample_percentile_is_the_sample(self):
        h = MetricsRegistry().histogram("lat")
        h.observe(0.125)
        for q in (0, 25, 50, 95, 100):
            assert h.percentile(q) == 0.125

    def test_percentile_rejects_out_of_range(self):
        h = MetricsRegistry().histogram("lat")
        h.observe(1.0)
        with pytest.raises(MetricsError, match="not in"):
            h.percentile(101)
        with pytest.raises(MetricsError, match="not in"):
            h.percentile(-1)

    def test_empty_histogram_snapshot_is_valid_json(self):
        snap = MetricsRegistry().histogram("lat").snapshot()
        assert snap["count"] == 0
        assert snap["p50"] is None and snap["p95"] is None
        assert snap["max"] is None
        json.dumps(snap)  # NaN would raise with allow_nan=False
        assert json.loads(json.dumps(snap)) == snap

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(MetricsError, match="already registered"):
            reg.gauge("x")

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        reg.counter("c", a="1", b="2").inc()
        assert reg.value("c", b="2", a="1") == 1.0


class TestRepeatedLookup:
    """A repeated call shape resolves from a cache before the sorted
    label key is built; it must resolve exactly as the key would."""

    def test_permuted_kwargs_resolve_to_one_instrument(self):
        reg = MetricsRegistry()
        first = reg.counter("c", tier="a", status="ok")
        for _ in range(2):
            assert reg.counter("c", status="ok", tier="a") is first
            assert reg.counter("c", tier="a", status="ok") is first
        assert len(reg) == 1

    def test_equal_hashing_values_stay_distinct_labels(self):
        # 1, 1.0 and True are equal dict keys but label as "1", "1.0"
        # and "True": three instruments, in any lookup order, twice.
        reg = MetricsRegistry()
        for _ in range(2):
            for value in (1, 1.0, True, "1"):
                reg.counter("c", v=value).inc()
        assert len(reg) == 3
        assert reg.value("c", v="1") == 4.0
        assert reg.value("c", v="1.0") == 2.0
        assert reg.value("c", v="True") == 2.0

    def test_cached_shape_still_raises_on_kind_conflict(self):
        reg = MetricsRegistry()
        reg.counter("x", tier="a").inc()
        reg.counter("x", tier="a").inc()
        with pytest.raises(MetricsError, match="already registered"):
            reg.histogram("x", tier="a")
        with pytest.raises(MetricsError, match="already registered"):
            reg.gauge("x", tier="a")
        assert reg.value("x", tier="a") == 2.0

    def test_unhashable_label_value_uses_sorted_key(self):
        reg = MetricsRegistry()
        reg.counter("c", ids=[1, 2]).inc()
        reg.counter("c", ids=[1, 2]).inc()
        assert reg.value("c", ids="[1, 2]") == 2.0
        assert len(reg) == 1


class TestReadOnlyAndExport:
    def test_peek_and_value_never_create(self):
        reg = MetricsRegistry()
        assert reg.peek("nope") is None
        assert reg.value("nope", default=7.5) == 7.5
        assert reg.samples("nope") == []
        assert len(reg) == 0

    def test_value_on_histogram_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h").observe(1.0)
        with pytest.raises(MetricsError, match="histogram"):
            reg.value("h")

    def test_snapshot_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z").inc()
        reg.counter("a", tier="b").inc()
        reg.counter("a", tier="a").inc()
        names = [(s["name"], tuple(sorted(s["labels"].items())))
                 for s in reg.snapshot()]
        assert names == sorted(names)

    def test_snapshot_order_independent_of_insertion(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("z").inc()
        a.histogram("lat", tier="hi").observe(1.0)
        a.gauge("depth", tier="lo").set(2)
        b.gauge("depth", tier="lo").set(2)
        b.histogram("lat", tier="hi").observe(1.0)
        b.counter("z").inc()
        assert a.to_json() == b.to_json()

    def test_save_round_trips(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("requests", tier="x").inc(5)
        reg.histogram("lat").observe(0.5)
        path = str(tmp_path / "m" / "metrics.json")
        write_text(path, reg.to_json())
        data = json.loads(open(path).read())
        by_name = {d["name"]: d for d in data}
        assert by_name["requests"]["value"] == 5.0
        assert by_name["lat"]["count"] == 1

    def test_as_registry(self):
        reg = MetricsRegistry()
        assert as_registry(reg) is reg
        assert isinstance(as_registry(None), MetricsRegistry)
        assert as_registry(None) is not as_registry(None)
