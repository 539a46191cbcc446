"""Fleet telemetry — SLO monitors and mergeable sketches across devices.

An on-device LLM service ships to phones you don't control: flagships
next to budget SoCs, some of them flaky.  Raw latency samples never
leave a device — but *mergeable* telemetry can: bounded-size quantile
sketches and burn-rate incident timelines.  This example runs a
3-device mixed-tier fleet (one healthy flagship, one mid-tier with
transient faults, one slow budget device in a fault storm) through the
seeded two-tier workload, merges the per-device sketches into exact
fleet percentiles, and prints the incident timeline with cross-links
back to the offending request tracks and fault draws.

Run:  python examples/fleet_monitor.py
"""

from repro.eval.fleet import (
    default_fleet,
    fleet_compliance_table,
    fleet_percentile_table,
    fleet_report,
    incident_table,
)
from repro.obs import validate_timeline_doc


def main() -> None:
    fleet = default_fleet(n_devices=3, seed=42)
    print("Simulated fleet:")
    for spec in fleet:
        print(f"  {spec.name:14s} {spec.device_name:24s} "
              f"transient={spec.transient_rate:g} "
              f"permanent={spec.permanent_rate:g}")
    print()

    report = fleet_report(specs=fleet, seed=42)
    validate_timeline_doc(report["alerts"])

    print(fleet_percentile_table(report).render())
    print()
    print(fleet_compliance_table(report).render())
    print()
    print(incident_table(report["alerts"],
                         title="Fleet incident timeline").render())

    # A firing incident carries links back to the evidence: the bad
    # request tracks (the same `req NNNNN` names the Perfetto trace
    # uses) and the fault draws inside the alert's long window.
    firing = [inc for inc in report["alerts"]["incidents"]
              if inc["firing_s"] is not None]
    print(f"\n{len(firing)} incidents fired; the first one links to:")
    for link in firing[0]["links"][:5]:
        if link["kind"] == "request":
            print(f"  request {link['track']!r} ({link['status']}) "
                  f"at t={link['t_s']:.2f}s")
        else:
            print(f"  fault draw #{link['draw']} ({link['fault']}) "
                  f"at t={link['t_s']:.2f}s")

    healthy, storm = report["devices"][0], report["devices"][-1]
    print(f"\nThe story: {healthy['name']} completed "
          f"{healthy['n_completed']}/{healthy['n_requests']} with "
          f"{healthy['n_firing']} fired alerts, while {storm['name']} "
          f"({storm['device']}) completed only {storm['n_completed']} "
          f"and fired {storm['n_firing']} — same workload, same SLOs, "
          f"merged into one deterministic repro.fleet/v1 report.")


if __name__ == "__main__":
    main()
