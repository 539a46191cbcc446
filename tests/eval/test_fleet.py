"""Fleet telemetry: merge-equals-pooled acceptance, determinism, storms."""

import json

import pytest

from repro.eval.fleet import (
    FLEET_SCHEMA,
    FLEET_SLOS,
    default_fleet,
    fault_storm_monitor,
    fleet_compliance_table,
    fleet_golden_json,
    fleet_percentile_table,
    fleet_report,
    _merge_payload_sketches,
    incident_table,
    run_device,
)
from repro.obs import (
    QuantileSketch,
    SloMonitor,
    StepLogger,
    validate_timeline_doc,
)


@pytest.fixture(scope="module")
def fleet_runs():
    """Run the default 3-device fleet once; share across tests."""
    specs = default_fleet(n_devices=3, seed=42)
    return specs, [run_device(spec) for spec in specs]


@pytest.fixture(scope="module")
def report():
    return fleet_report(specs=default_fleet(seed=42), seed=42)


def _sketch_payloads(monitors):
    """Each monitor's sketches as the serialized payload section that
    ``fleet_report`` merges."""
    return [{"sketches": {key: sketch.to_dict()
                          for key, sketch in monitor.sketches.items()}}
            for monitor in monitors]


class TestMergeEqualsPooled:
    def test_fleet_percentiles_match_pooled_sample_sketch(self, fleet_runs):
        # ACCEPTANCE: merging the per-device sketches must equal a
        # single sketch fed every device's raw samples, exactly.
        _, runs = fleet_runs
        monitors = [monitor for _, monitor in runs]
        fleet = _merge_payload_sketches(_sketch_payloads(monitors))
        assert fleet  # the fleet observed completed requests
        for key in fleet:
            pooled = QuantileSketch(alpha=monitors[0].sketch_alpha)
            for service, _ in runs:
                field, _, tier = key.partition("/")
                for record in service.requests:
                    if record.status == "completed" and record.tier == tier:
                        pooled.observe(_sample(record, field))
            assert pooled.count == fleet[key].count
            assert pooled.to_dict() == fleet[key].to_dict()
            for q in (50.0, 90.0, 95.0, 99.0):
                assert fleet[key].percentile(q) == pooled.percentile(q)

    def test_merge_order_does_not_matter(self, fleet_runs):
        _, runs = fleet_runs
        monitors = [monitor for _, monitor in runs]
        payloads = _sketch_payloads(monitors)
        forward = _merge_payload_sketches(payloads)
        backward = _merge_payload_sketches(list(reversed(payloads)))
        assert forward.keys() == backward.keys()
        for key in forward:
            assert forward[key].to_dict() == backward[key].to_dict()

    def test_fleet_compliance_sums_device_counts(self, fleet_runs, report):
        # The fleet row is SloSpec.compliance over the per-device event
        # and bad counts summed, not an average of device fractions.
        _, runs = fleet_runs
        rows = [monitor.compliance() for _, monitor in runs]
        expected = [
            slo.compliance(sum(r[i]["n_events"] for r in rows),
                           sum(r[i]["n_bad"] for r in rows))
            for i, slo in enumerate(FLEET_SLOS)
        ]
        assert report["alerts"]["slos"] == expected


def _sample(record, field):
    if field == "turnaround_s":
        return record.turnaround_s
    if field == "queueing_s":
        return record.queueing_s
    if field == "energy_j":
        return record.report.energy_j
    raise AssertionError(f"unexpected sketch key field {field!r}")


class TestFleetReport:
    def test_structure_and_schema(self, report):
        assert report["schema"] == FLEET_SCHEMA
        assert report["n_devices"] == 3
        names = [device["name"] for device in report["devices"]]
        assert names == ["dev00-k70", "dev01-k60", "dev02-budget"]
        for device in report["devices"]:
            assert device["n_requests"] == 22
            assert device["n_completed"] <= device["n_requests"]
        validate_timeline_doc(report["alerts"])

    def test_budget_device_suffers_most(self, report):
        healthy, storm = report["devices"][0], report["devices"][2]
        assert storm["n_completed"] < healthy["n_completed"]
        assert storm["n_incidents"] > healthy["n_incidents"]
        assert storm["n_faults"] > 0

    def test_firing_incidents_cross_link(self, report):
        firing = [inc for inc in report["alerts"]["incidents"]
                  if inc["firing_s"] is not None]
        assert firing
        for incident in firing:
            assert incident["links"]
            for link in incident["links"]:
                assert link["kind"] in ("request", "fault")

    def test_percentile_snaps_mirror_sketch_payloads(self, report):
        for key, snap in report["percentiles"].items():
            sketch = QuantileSketch.from_dict(report["sketches"][key])
            assert snap["count"] == sketch.count
            if snap["count"]:
                assert snap["p50"] == sketch.percentile(50.0)

    def test_golden_json_deterministic(self):
        assert fleet_golden_json(seed=42) == fleet_golden_json(seed=42)

    def test_seed_changes_report(self):
        assert fleet_golden_json(seed=42) != fleet_golden_json(seed=7)

    def test_tables_render(self, report):
        for table in (fleet_percentile_table(report),
                      fleet_compliance_table(report),
                      incident_table(report["alerts"])):
            text = table.render()
            assert len(text.splitlines()) > 3


class TestFaultStorm:
    def test_storm_timeline_is_deterministic_and_fires(self):
        first = fault_storm_monitor(seed=42)
        second = fault_storm_monitor(seed=42)
        assert first.timeline_json() == second.timeline_json()
        doc = first.timeline()
        validate_timeline_doc(doc)
        firing = [inc for inc in doc["incidents"]
                  if inc["firing_s"] is not None]
        assert firing
        for incident in firing:
            assert incident["links"]

    def test_storm_sees_fault_draws(self):
        monitor = fault_storm_monitor(seed=42)
        assert monitor.n_faults > 0
        doc = monitor.timeline()
        fault_links = [link
                       for inc in doc["incidents"]
                       for link in inc["links"]
                       if link["kind"] == "fault"]
        assert fault_links
        for link in fault_links:
            assert link["fault"] in ("transient", "permanent")


class TestStepProbeStream:
    def test_streamed_monitor_equals_steplog_replay(self, monkeypatch):
        # the probe streams its steps and decisions into the monitor;
        # a StepLogger on the same run, replayed record by record into
        # a fresh monitor, must leave the same telemetry
        import repro.eval.fleet as fleet
        logger = StepLogger()
        run_two_tier = fleet._run_two_tier

        def with_logger(*args, **kwargs):
            return run_two_tier(*args, steplog=logger, **kwargs)

        monkeypatch.setattr(fleet, "_run_two_tier", with_logger)
        spec = default_fleet(n_devices=1, seed=42)[0]
        streamed = SloMonitor(FLEET_SLOS)
        service = fleet.run_step_probe(spec, streamed)
        replayed = SloMonitor(FLEET_SLOS)
        for record in logger.steps:
            replayed.observe_step(record)
        for decision in logger.decisions:
            replayed.observe_decision(decision)
        assert streamed.n_steps == len(service.steps) > 0
        assert streamed.n_events == 0  # probe records stay out
        assert streamed.scheduler_summary() == replayed.scheduler_summary()
        assert streamed.decision_counts() == replayed.decision_counts()
        assert ({k: s.to_dict() for k, s in streamed.sketches.items()}
                == {k: s.to_dict() for k, s in replayed.sketches.items()})


class TestDefaultFleet:
    def test_templates_cycle_beyond_three(self):
        specs = default_fleet(n_devices=5, seed=42)
        assert len(specs) == 5
        assert specs[3].device_name == specs[0].device_name
        assert len({spec.seed for spec in specs}) == 5

    def test_rejects_bad_size(self):
        with pytest.raises(Exception):
            default_fleet(n_devices=0)


class TestArrivalJitter:
    """Per-device Poisson arrival jitter, which every fleet device runs.

    The jitter redraws *when* requests land, never *what* they are —
    the golden workload samples survive verbatim.
    """

    def test_jitter_preserves_golden_workload(self):
        from repro.eval.fleet import jittered_arrivals
        from repro.eval.service_eval import two_tier_arrivals
        golden = two_tier_arrivals(n_interactive=12, n_background=10,
                                   seed=42)
        jittered = jittered_arrivals(n_interactive=12, n_background=10,
                                     seed=42)
        assert [(t, s) for t, s, _ in jittered] == \
            [(t, s) for t, s, _ in golden]
        assert [t for _, _, t in jittered] != [t for _, _, t in golden]

    def test_jitter_is_deterministic(self):
        from repro.eval.fleet import jittered_arrivals
        assert jittered_arrivals(seed=7) == jittered_arrivals(seed=7)

    def test_jitter_decorrelates_seeds(self):
        from repro.eval.fleet import jittered_arrivals
        a = [t for _, _, t in jittered_arrivals(seed=1)]
        b = [t for _, _, t in jittered_arrivals(seed=2)]
        assert a != b

    def test_arrivals_are_monotone_per_tier(self):
        from repro.eval.fleet import jittered_arrivals
        stream = jittered_arrivals(seed=42)
        for tier in ("interactive", "background"):
            times = [t for tr, _, t in stream if tr == tier]
            assert times == sorted(times)
            assert all(t > 0 for t in times)

    def test_splitmix_fleet_gets_poisson_arrivals(self):
        from repro.eval.fleet import jittered_arrivals
        spec = default_fleet(n_devices=1, seed=42)[0]
        service, _monitor = run_device(spec)
        stream = jittered_arrivals(n_interactive=spec.n_interactive,
                                   n_background=spec.n_background,
                                   seed=spec.seed)
        # arrivals count from the engine's service-ready instant
        ready_s = min(r.arrival_s for r in service.requests) \
            - min(t for _, _, t in stream)
        assert [r.arrival_s for r in service.requests] == pytest.approx(
            [ready_s + t for _, _, t in stream], abs=1e-9)

    def test_poisson_devices_diverge_where_golden_clones_agree(self):
        # two devices on the same model/device pair (templates cycle
        # every three) would replay byte-identical background traffic
        # on the fixed golden cadence; jitter breaks the tie
        fleet = default_fleet(n_devices=6, seed=42)
        specs = [fleet[0], fleet[3]]
        assert specs[0].device_name == specs[1].device_name
        finishes = []
        for spec in specs:
            service, _monitor = run_device(spec)
            finishes.append([r.finish_s for r in service.requests])
        assert finishes[0] != finishes[1]
