"""Parallel fleet fan-out: byte-identity and the SplitMix seed stream.

The 1000-device fleet runs its per-device pipelines through a
multiprocessing pool, then merges payloads in canonical spec order, so
``fleet_report`` must be a pure function of its specs — *byte-identical*
JSON for any worker count and any submission order of the same specs.
"""

import json

import pytest

from repro.errors import ReproError
from repro.eval.fleet import (
    default_fleet,
    fleet_golden_json,
    fleet_report,
    seed_stream,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


class TestSeedStream:
    def test_deterministic_and_sized(self):
        assert seed_stream(42, 10) == seed_stream(42, 10)
        assert len(seed_stream(42, 1000)) == 1000

    def test_prefix_stable(self):
        # Growing the fleet must not reseed existing devices.
        assert seed_stream(42, 1000)[:10] == seed_stream(42, 10)

    def test_decorrelated_31_bit(self):
        seeds = seed_stream(42, 1000)
        assert len(set(seeds)) == 1000
        assert all(0 <= s < 2 ** 31 for s in seeds)
        # no arithmetic-progression structure like a seed + 100*i ladder
        gaps = {b - a for a, b in zip(seeds, seeds[1:])}
        assert len(gaps) > 900

    def test_seed_selects_stream(self):
        assert seed_stream(42, 10) != seed_stream(7, 10)


class TestDefaultFleetSeeding:
    def test_splitmix_is_the_default(self):
        specs = default_fleet(n_devices=5, seed=42)
        assert [s.seed for s in specs] == seed_stream(42, 5)



@pytest.fixture(scope="module")
def splitmix_specs():
    return default_fleet(n_devices=4, seed=42)


@pytest.fixture(scope="module")
def sequential_json(splitmix_specs):
    return json.dumps(fleet_report(specs=splitmix_specs, seed=42, workers=1))


class TestParallelByteIdentity:
    @pytest.mark.parametrize("workers", [2, 8])
    def test_worker_count_is_invisible(self, splitmix_specs,
                                       sequential_json, workers):
        # ACCEPTANCE: the parallel fleet report is byte-identical to the
        # sequential one — worker count may only change wall-clock.
        parallel = json.dumps(fleet_report(specs=splitmix_specs, seed=42,
                                           workers=workers))
        assert parallel == sequential_json

    @settings(max_examples=3, deadline=None)
    @given(rng=st.randoms(use_true_random=False),
           workers=st.sampled_from([1, 2, 8]))
    def test_spec_order_is_invisible(self, splitmix_specs, sequential_json,
                                     rng, workers):
        # Specs are canonically sorted before the fan-out, so submission
        # order cannot leak into the report either.
        shuffled = list(splitmix_specs)
        rng.shuffle(shuffled)
        report = json.dumps(fleet_report(specs=shuffled, seed=42,
                                         workers=workers))
        assert report == sequential_json

    def test_legacy_golden_unchanged_by_workers(self):
        assert fleet_golden_json(seed=42, workers=4) == \
            fleet_golden_json(seed=42)

    def test_workers_must_be_positive(self, splitmix_specs):
        with pytest.raises(ReproError):
            fleet_report(specs=splitmix_specs, seed=42, workers=0)


class TestScaledFleet:
    def test_thousand_device_specs_are_well_formed(self):
        specs = default_fleet(n_devices=1000, seed=42)
        assert len(specs) == 1000
        assert len({s.name for s in specs}) == 1000
        assert len({s.seed for s in specs}) == 1000
        # templates cycle flagship / mid-tier / budget
        assert specs[999].device_name == specs[0].device_name
