"""Fleet telemetry experiment (extension beyond the paper).

Simulates a heterogeneous 3-device fleet (flagship / mid-tier / budget,
increasingly fault-prone) serving the seeded two-tier workload under
streaming SLO monitors, then merges the per-device quantile sketches and
incident timelines into fleet-wide percentiles and a compliance
scoreboard — the telemetry shape an on-device deployment can actually
aggregate (bounded-size sketches, no raw samples).
"""

from conftest import show_and_archive

from repro.eval.fleet import fleet_slo
from repro.eval.report import archive


def test_fleet_slo(once):
    percentiles, latency, compliance, incidents = once(fleet_slo)
    show_and_archive(percentiles, "fleet_percentiles.txt")
    show_and_archive(latency, "fleet_latency.txt")
    show_and_archive(compliance, "fleet_compliance.txt")
    # The incident table repeats (slo, rule) labels across devices, so
    # it archives as text only — its counts are asserted below and the
    # full repro.alerts/v1 document is CI-validated by bench-smoke.
    print()
    print(incidents.render())
    print(f"[archived: {archive(incidents, 'fleet_incidents.txt')}]")

    # merged sketches cover both tiers for every metric
    keys = percentiles.column("metric")
    for metric in ("turnaround_s", "queueing_s", "energy_j"):
        for tier in ("interactive", "background"):
            assert f"{metric}/{tier}" in keys
    assert all(c > 0 for c in percentiles.column("count"))
    # percentile columns are monotone within each row
    for row in percentiles.rows:
        p50, p90, p95, p99, mx = row[2:]
        assert p50 <= p90 <= p95 <= p99 <= mx

    # per-device latency scoreboard: TTFT percentiles are ordered, ITL
    # and goodput are positive wherever requests completed, and the
    # storm-ridden budget device sustains less goodput than the healthy
    # flagship
    p50s = latency.column("ttft p50 s")
    p95s = latency.column("ttft p95 s")
    goodputs = latency.column("goodput req/s")
    assert all(p50 <= p95 for p50, p95 in zip(p50s, p95s)
               if p50 is not None)
    assert all(g >= 0 for g in goodputs)
    assert goodputs[2] < goodputs[0]

    # the fault-storm fleet blows its availability SLOs and pages
    met = dict(zip(compliance.column("slo"), compliance.column("met")))
    assert met["interactive-availability"] == "NO"
    assert met["background-availability"] == "NO"
    assert sum(compliance.column("firing")) > 0

    # incidents concentrate on the fault-prone devices: the budget
    # device (dev02, storm) pages more than the healthy flagship (dev00)
    sources = incidents.column("source")
    assert sources.count("dev02-budget") > sources.count("dev00-k70")
    # every firing incident carries cross-links to spans/fault draws
    firing_col = incidents.column("firing s")
    links_col = incidents.column("links")
    assert all(links > 0 for firing, links in zip(firing_col, links_col)
               if firing is not None)
