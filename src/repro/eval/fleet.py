"""Fleet telemetry: merged sketches and SLO monitoring across devices.

An on-device LLM service ships to a heterogeneous fleet — flagship
phones next to budget SoCs, each with its own fault profile.  Per-device
raw latency samples never leave the device; what a fleet pipeline can
afford to collect is **mergeable telemetry**: bounded-size
:class:`~repro.obs.QuantileSketch`es and ``repro.alerts/v1`` incident
timelines.  This driver simulates that pipeline end to end:

1. each :class:`FleetDeviceSpec` runs the seeded two-tier workload on
   its own :class:`~repro.core.LlmService` with a device-specific
   :class:`~repro.hw.sim.FaultSpec`, watched by a streaming
   :class:`~repro.obs.SloMonitor`, and reduces to a plain-dict payload
   that ships each fact once: the device record (with its scheduler
   summary), the serialized sketches, and the incident timeline (with
   its SLO compliance rows);
2. the per-device sketches merge into exact fleet-wide percentiles
   through one merge, used for the latency sketches and the optional
   critical-path sketches alike (merging the sketches equals sketching
   the pooled samples — bit-for-bit, see ``tests/eval/test_fleet.py``);
3. the per-device incident timelines concatenate (tagged with their
   ``source`` device) into one fleet ``repro.alerts/v1`` document, and
   the per-SLO good/bad counts sum over devices before
   :meth:`~repro.obs.SloSpec.compliance` — the formula every device's
   monitor uses — derives the fleet scoreboard.

Everything is a pure function of the fleet seed: the ``repro.fleet/v1``
report is byte-identical across processes, which is what
``scripts/check_determinism.sh`` pins.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core import BatchConfig, goodput_rps
from repro.eval.report import Table
from repro.eval.service_eval import (
    BATCHING_BATCH_TOKENS,
    BATCHING_CONCURRENCY,
    BATCHING_TTFT_SLO,
    batching_arrivals,
    two_tier_arrivals,
    _run_two_tier,
)
from repro.hw.memory import GiB
from repro.hw.sim import FaultSpec
from repro.hw.soc import REDMI_K60_PRO, SocSpec
from repro.obs import (
    DEFAULT_RULES,
    ALERTS_SCHEMA,
    BurnRateRule,
    QuantileSketch,
    SloMonitor,
    SloSpec,
)

#: Schema identifier stamped into every fleet SLO report.
from repro.obs.schemas import FLEET_SCHEMA  # noqa: E402 (constant table)

#: The fleet's default objectives.  Targets are chosen so the burn-rate
#: ceiling ``1 / (1 - target)`` clears the fast-burn rule's threshold —
#: an SLO with a loose target (say 0.5) can never burn faster than 2x
#: and would make the 4x fast-burn rule unsatisfiable by construction.
FLEET_SLOS: Tuple[SloSpec, ...] = (
    SloSpec(name="interactive-latency", objective="latency", target=0.9,
            tier="interactive", threshold=4.0),
    SloSpec(name="interactive-availability", objective="availability",
            target=0.95, tier="interactive"),
    SloSpec(name="background-availability", objective="availability",
            target=0.8, tier="background"),
    SloSpec(name="request-energy", objective="energy", target=0.9,
            threshold=15.0),
)

#: A budget sibling of the paper's devices: uniformly slower CPU/GPU,
#: half-speed NPU, 8 GB of DRAM — the device that turns the shared
#: two-tier stream into sustained overload.
BUDGET_DEVICE: SocSpec = REDMI_K60_PRO.scaled(
    name="Redmi Budget (concept)",
    soc="Snapdragon 7 class",
    cpu_gpu=0.6,
    npu=0.5,
    dram_bytes=8 * GiB,
)


@dataclass(frozen=True)
class FleetDeviceSpec:
    """One simulated device of the fleet.

    ``device`` is a preset name or a full :class:`SocSpec`; ``seed``
    drives both the arrival stream and (offset, so the streams stay
    independent) the fault injector.  Every device draws its arrival
    clock from :func:`jittered_arrivals` (per-tier Poisson gaps), so no
    two devices replay byte-identical background traffic.
    """

    name: str
    device: Union[str, SocSpec]
    seed: int
    transient_rate: float = 0.0
    permanent_rate: float = 0.0
    n_interactive: int = 12
    n_background: int = 10
    model: str = "Qwen1.5-1.8B"

    @property
    def device_name(self) -> str:
        return self.device if isinstance(self.device, str) \
            else self.device.name

    def fault_spec(self) -> FaultSpec:
        return FaultSpec(transient_rate=self.transient_rate,
                         permanent_rate=self.permanent_rate,
                         seed=self.seed + 819)


#: (device, transient_rate, permanent_rate) templates the default fleet
#: cycles through: a healthy flagship, a mid-tier with flaky thermals,
#: and a budget device in a fault storm.
_FLEET_TEMPLATES: Tuple[Tuple[Union[str, SocSpec], float, float], ...] = (
    ("Redmi K70 Pro", 0.02, 0.0),
    ("Redmi K60 Pro", 0.15, 0.0),
    (BUDGET_DEVICE, 0.35, 0.1),
)


_SPLITMIX_MASK = (1 << 64) - 1


def _splitmix64(state: int) -> Tuple[int, int]:
    """One step of the SplitMix64 stream: ``(next_state, output)``."""
    state = (state + 0x9E3779B97F4A7C15) & _SPLITMIX_MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _SPLITMIX_MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _SPLITMIX_MASK
    return state, z ^ (z >> 31)


def seed_stream(seed: int, n: int) -> List[int]:
    """``n`` decorrelated 31-bit seeds from one fleet seed.

    A SplitMix64 walk gives every device an avalanche-mixed seed while
    staying a pure function of ``(seed, i)``, so even 1000 devices draw
    uncorrelated faults (an arithmetic ladder such as ``seed + 100 * i``
    would share low-bit structure between nearby devices).
    """
    state = seed & _SPLITMIX_MASK
    out = []
    for _ in range(n):
        state, z = _splitmix64(state)
        out.append(z % (1 << 31))
    return out


#: Mean arrival gaps of the golden two-tier stream, which the Poisson
#: redraw preserves: interactive gaps are ``uniform(0.8, 1.6)`` (mean
#: 1.2 s) and background requests land every 0.6 s after a 0.5 s lead-in.
JITTER_INTERACTIVE_MEAN_GAP_S = 1.2
JITTER_BACKGROUND_MEAN_GAP_S = 0.6
JITTER_BACKGROUND_START_S = 0.5

#: Offset folded into the jitter seed derivation so the arrival-jitter
#: RNG, the golden sampler (``seed``) and the fault injector
#: (``seed + 819``) never share a stream.
_JITTER_SEED_SALT = 4099


def jittered_arrivals(
    n_interactive: int = 12,
    n_background: int = 10,
    seed: int = 42,
    interactive_mean_gap_s: float = JITTER_INTERACTIVE_MEAN_GAP_S,
    background_mean_gap_s: float = JITTER_BACKGROUND_MEAN_GAP_S,
    background_start_s: float = JITTER_BACKGROUND_START_S,
):
    """Per-device Poisson redraw of the golden two-tier stream.

    The golden :func:`~repro.eval.service_eval.two_tier_arrivals`
    generator jitters the interactive tier per seed but schedules the
    background tier at a *fixed* cadence — so at 1000 devices every
    device replays byte-identical background traffic.  This variant
    keeps the golden workload *samples* (prompts, output lengths — same
    ``seed`` into the same samplers) and redraws only the arrival
    clock: per-tier exponential gaps (a Poisson process) whose means
    equal the golden cadences, drawn from a SplitMix-derived seed
    decorrelated from both the golden arrival RNG and the fault
    injector.  Still a pure function of its arguments, so fleet reports
    built on it stay byte-identical across processes.
    """
    golden = two_tier_arrivals(n_interactive=n_interactive,
                               n_background=n_background, seed=seed)
    rng = np.random.default_rng(
        seed_stream(seed + _JITTER_SEED_SALT, 1)[0])
    clock = {"interactive": 0.0, "background": background_start_s}
    mean = {"interactive": interactive_mean_gap_s,
            "background": background_mean_gap_s}
    stream = []
    for tier, sample, _golden_t in golden:
        clock[tier] += float(rng.exponential(mean[tier]))
        stream.append((tier, sample, clock[tier]))
    return stream


def default_fleet(n_devices: int = 3,
                  seed: int = 42) -> Tuple[FleetDeviceSpec, ...]:
    """A heterogeneous fleet cycling flagship / mid-tier / budget.

    Per-device seeds come from :func:`seed_stream`, so growing the
    fleet never reseeds the devices it already has.
    """
    from repro.errors import ReproError
    if n_devices < 1:
        raise ReproError("fleet needs at least one device")
    seeds = seed_stream(seed, n_devices)
    specs = []
    for i in range(n_devices):
        device, transient, permanent = _FLEET_TEMPLATES[
            i % len(_FLEET_TEMPLATES)]
        label = device if isinstance(device, str) else device.name
        slug = label.lower().split()[1 if " " in label else 0]
        specs.append(FleetDeviceSpec(
            name=f"dev{i:02d}-{slug}",
            device=device,
            seed=seeds[i],
            transient_rate=transient,
            permanent_rate=permanent,
        ))
    return tuple(specs)


def run_device(spec: FleetDeviceSpec,
               slos: Sequence[SloSpec] = FLEET_SLOS,
               rules: Sequence[BurnRateRule] = DEFAULT_RULES):
    """Run one device's workload under monitoring.

    Returns ``(service, monitor)`` — the monitor holds the device's
    sketches and incident timeline, the service the raw records.
    """
    monitor = SloMonitor(slos, rules=rules)
    stream = jittered_arrivals(n_interactive=spec.n_interactive,
                               n_background=spec.n_background,
                               seed=spec.seed)
    service = _run_two_tier(
        "priority", True, spec.model, spec.device, stream,
        fault_spec=spec.fault_spec(), monitor=monitor,
    )
    return service, monitor


def run_step_probe(spec: FleetDeviceSpec,
                   monitor: Optional[SloMonitor] = None):
    """One device's batched scheduler probe: step telemetry only.

    The fleet's request path runs the per-request loop; this probe
    serves the device under the batching experiment's config over its
    seeded batched arrival stream, with ``monitor`` registered as a step
    observer, so step records and scheduler decisions stream into
    :meth:`SloMonitor.observe_step` /
    :meth:`~SloMonitor.observe_decision` as the loop runs.  The probe's
    request records are never observed: they would pollute the fleet's
    request sketches and compliance counts.  Returns the service.
    """
    return _run_two_tier(
        "priority", True, spec.model, spec.device,
        batching_arrivals(seed=spec.seed),
        batching=BatchConfig(max_batch_tokens=BATCHING_BATCH_TOKENS,
                             max_concurrency=BATCHING_CONCURRENCY),
        step_observer=monitor,
    )


def _device_critpath_sketches(service) -> Dict[str, dict]:
    """Per-stage critical-path telemetry of one device, as serialized
    sketches.

    Each completed request's critical path is reduced to on-path
    seconds per stage tag and folded into one
    :class:`~repro.obs.QuantileSketch` per stage — the same mergeable
    shape the latency telemetry uses, so fleet-wide "which segments
    gate completion" roll-ups never ship raw per-request paths off
    device.
    """
    from repro.obs.critical_path import request_critical_path

    decode_backend = service.config.decode_backend
    sketches: Dict[str, QuantileSketch] = {}
    for record in service.requests:
        if record.status != "completed" or record.report is None:
            continue
        path = request_critical_path(record, decode_backend=decode_backend)
        for tag, seconds in path.by_tag().items():
            key = f"critpath.{tag}"
            if key not in sketches:
                sketches[key] = QuantileSketch()
            sketches[key].observe(seconds)
    return {key: sketch.to_dict() for key, sketch in sketches.items()}


def _device_payload(args) -> dict:
    """Run one device end-to-end and reduce it to a plain-dict payload.

    This is the multiprocessing work unit: everything the fleet merge
    needs — the per-device report record (with its scheduler summary),
    serialized sketches, and the incident timeline (with its compliance
    rows) — as picklable primitives, each fact shipped once, so the
    parent never ships live monitors across process boundaries.  An
    optional fourth element of ``args`` turns on
    critical-path attribution (off by default: the committed fleet
    goldens and the gated device-rate benchmark pin the legacy payload).
    """
    spec, slos, rules, *rest = args
    with_critpath = bool(rest[0]) if rest else False
    service, monitor = run_device(spec, slos=slos, rules=rules)
    run_step_probe(spec, monitor)
    records = service.requests
    # Count the four outcomes directly: ``service.metrics()`` would build
    # a registry of per-tier histograms the payload never reads.
    status = Counter(r.status for r in records)
    ttfts = sorted(r.ttft_s for r in records
                   if r.status == "completed" and r.ttft_s is not None)
    itls = [r.itl_s for r in records
            if r.status == "completed" and r.itl_s is not None]
    critpath = (_device_critpath_sketches(service) if with_critpath
                else {})
    return {
        "critpath": critpath,
        "record": {
            "name": spec.name,
            "device": spec.device_name,
            "seed": spec.seed,
            "transient_rate": spec.transient_rate,
            "permanent_rate": spec.permanent_rate,
            "n_requests": len(records),
            "n_completed": status["completed"],
            "n_rejected": status["rejected"],
            "n_timeout": status["timeout"],
            "n_failed": status["failed"],
            "n_faults": monitor.n_faults,
            "ttft_p50_s": (float(np.percentile(ttfts, 50))
                           if ttfts else None),
            "ttft_p95_s": (float(np.percentile(ttfts, 95))
                           if ttfts else None),
            "mean_itl_s": (float(np.mean(itls)) if itls else None),
            "goodput_rps": float(goodput_rps(records,
                                             BATCHING_TTFT_SLO)),
            "scheduler": monitor.scheduler_summary(),
        },
        "sketches": {key: sketch.to_dict()
                     for key, sketch in monitor.sketches.items()},
        "timeline": monitor.timeline(source=spec.name),
    }


def _device_payloads(specs: Sequence[FleetDeviceSpec],
                     slos: Sequence[SloSpec],
                     rules: Sequence[BurnRateRule],
                     workers: int = 1,
                     critpath: bool = False) -> List[dict]:
    """Per-device payloads, in ``specs`` order, optionally fanned out."""
    from repro.errors import ReproError
    if workers < 1:
        raise ReproError(f"workers must be >= 1, got {workers}")
    items = [(spec, tuple(slos), tuple(rules), critpath)
             for spec in specs]
    workers = min(workers, len(items))
    if workers <= 1:
        return [_device_payload(item) for item in items]
    import multiprocessing
    ctx = multiprocessing.get_context("fork")
    chunksize = max(1, len(items) // (workers * 4))
    with ctx.Pool(processes=workers) as pool:
        # Pool.map returns results in submission order, so the payload
        # list — and everything merged from it — is independent of
        # worker scheduling.
        return pool.map(_device_payload, items, chunksize=chunksize)


def _merge_payload_sketches(payloads: Sequence[dict],
                            section: str = "sketches"
                            ) -> Dict[str, QuantileSketch]:
    """Merge the serialized per-device sketches of one payload
    ``section`` (``"sketches"`` or ``"critpath"``) key-by-key.

    Exact: integer buckets and exact dyadic sums, so merging the sketches
    equals sketching the pooled samples and merge order cannot change a
    bit.
    """
    merged: Dict[str, QuantileSketch] = {}
    for payload in payloads:
        for key, doc in payload[section].items():
            sketch = QuantileSketch.from_dict(doc)
            if key in merged:
                merged[key].merge(sketch)
            else:
                merged[key] = sketch
    return merged


def _merge_payload_alerts(payloads: Sequence[dict],
                          slos: Sequence[SloSpec],
                          rules: Sequence[BurnRateRule]) -> dict:
    """One fleet ``repro.alerts/v1`` document from payload timelines.

    Incidents keep their device identity in a ``source`` field — the
    non-overlap invariant of the schema holds per ``(source, slo,
    rule)``, so concurrent incidents on different devices are legal.
    Each SLO's event and bad counts are summed over devices before
    :meth:`SloSpec.compliance` derives the fleet row.
    """
    incidents: List[dict] = []
    starts, ends = [], []
    n_requests = n_faults = 0
    for payload in payloads:
        timeline = payload["timeline"]
        source = timeline["source"]
        for incident in timeline["incidents"]:
            incidents.append({**incident, "source": source})
        if timeline["n_request_events"] or timeline["n_fault_events"]:
            starts.append(timeline["start_s"])
            ends.append(timeline["end_s"])
        n_requests += timeline["n_request_events"]
        n_faults += timeline["n_fault_events"]
    incidents.sort(key=lambda inc: (inc["pending_s"], inc["source"],
                                    inc["slo"], inc["rule"]))
    rows = [p["timeline"]["slos"] for p in payloads]
    return {
        "schema": ALERTS_SCHEMA,
        "source": "fleet",
        "start_s": min(starts) if starts else 0.0,
        "end_s": max(ends) if ends else 0.0,
        "n_request_events": n_requests,
        "n_fault_events": n_faults,
        "slos": [slo.compliance(sum(r[i]["n_events"] for r in rows),
                                sum(r[i]["n_bad"] for r in rows))
                 for i, slo in enumerate(slos)],
        "rules": [rule.to_dict() for rule in rules],
        "incidents": incidents,
    }


def fleet_report(specs: Optional[Sequence[FleetDeviceSpec]] = None,
                 seed: int = 42,
                 slos: Sequence[SloSpec] = FLEET_SLOS,
                 rules: Sequence[BurnRateRule] = DEFAULT_RULES,
                 workers: int = 1,
                 critpath: bool = False) -> dict:
    """Run the fleet and aggregate into a ``repro.fleet/v1`` report.

    ``workers > 1`` fans the devices out over a fork-based process pool.
    The report is byte-identical for every worker count and for every
    permutation of ``specs``: devices are canonicalized to ``(name,
    seed)`` order before running, each device reduces to a plain-dict
    payload, and all merges are either exact (integer counts, exact
    sketch sums) or performed in canonical device order.

    ``critpath=True`` additionally attributes every completed request's
    critical path on-device and merges the per-stage sketches into a
    fleet-wide ``"critpath"`` section (top gating segments across the
    fleet).  Off by default: the committed goldens pin the legacy
    report bytes.
    """
    if specs is None:
        specs = default_fleet(seed=seed)
    specs = tuple(sorted(specs, key=lambda s: (s.name, s.seed)))
    payloads = _device_payloads(specs, slos, rules, workers=workers,
                                critpath=critpath)
    sketches = _merge_payload_sketches(payloads)
    alerts = _merge_payload_alerts(payloads, slos, rules)
    devices = []
    for spec, payload in zip(specs, payloads):
        timeline_incidents = [
            inc for inc in alerts["incidents"] if inc["source"] == spec.name
        ]
        base = payload["record"]
        record = {key: base[key] for key in (
            "name", "device", "seed", "transient_rate", "permanent_rate",
            "n_requests", "n_completed", "n_rejected", "n_timeout",
            "n_failed", "n_faults")}
        record["n_incidents"] = len(timeline_incidents)
        record["n_firing"] = sum(1 for inc in timeline_incidents
                                 if inc["firing_s"] is not None)
        for key in ("ttft_p50_s", "ttft_p95_s", "mean_itl_s",
                    "goodput_rps", "scheduler"):
            record[key] = base[key]
        devices.append(record)
    schedulers = [p["record"]["scheduler"] for p in payloads]
    fleet_decisions: Dict[str, int] = {}
    for scheduler in schedulers:
        for action, count in scheduler["decision_counts"].items():
            fleet_decisions[action] = fleet_decisions.get(action, 0) \
                + count
    report = {
        "schema": FLEET_SCHEMA,
        "seed": seed,
        "n_devices": len(specs),
        "devices": devices,
        "percentiles": {
            key: sketches[key].snapshot_percentiles()
            for key in sorted(sketches)
        },
        "sketches": {key: sketches[key].to_dict()
                     for key in sorted(sketches)},
        "scheduler": {
            "n_steps": sum(sched["n_steps"] for sched in schedulers),
            "decision_counts": dict(sorted(fleet_decisions.items())),
        },
        "alerts": alerts,
    }
    if critpath:
        critpath_sketches = _merge_payload_sketches(payloads, "critpath")
        report["critpath"] = {
            key: critpath_sketches[key].snapshot_percentiles()
            for key in sorted(critpath_sketches)
        }
    return report


def fleet_golden_json(seed: int = 42, workers: int = 1) -> str:
    """Canonical default-fleet report JSON — the determinism tripwire
    ``scripts/check_determinism.sh`` compares across processes."""
    return json.dumps(fleet_report(specs=default_fleet(seed=seed),
                                   seed=seed, workers=workers),
                      sort_keys=True)


# -- the seeded fault-storm scenario (the `monitor` subcommand) ---------------

def fault_storm_monitor(seed: int = 42, transient_rate: float = 0.35,
                        permanent_rate: float = 0.1) -> SloMonitor:
    """The golden two-tier stream under a fault storm, monitored.

    The acceptance scenario for burn-rate alerting: at storm-level fault
    rates the availability SLOs page (every firing incident cross-links
    the bad request tracks and fault draws in its window), and the
    timeline is a pure function of ``seed``.
    """
    monitor = SloMonitor(FLEET_SLOS)
    _run_two_tier(
        "priority", True, "Qwen1.5-1.8B", "Redmi K70 Pro",
        two_tier_arrivals(seed=seed),
        fault_spec=FaultSpec(transient_rate=transient_rate,
                             permanent_rate=permanent_rate,
                             seed=819),
        monitor=monitor,
    )
    return monitor


# -- tables -------------------------------------------------------------------

def fleet_percentile_table(report: dict) -> Table:
    """Merged fleet percentiles per (metric, tier)."""
    table = Table(
        title=f"Fleet percentiles — {report['n_devices']} devices "
              f"(seed={report['seed']})",
        columns=["metric", "count", "p50", "p90", "p95", "p99", "max"],
    )
    for key, snap in report["percentiles"].items():
        table.add_row(key, snap["count"], snap["p50"], snap["p90"],
                      snap["p95"], snap["p99"], snap["max"])
    table.add_note("percentiles come from merged per-device quantile "
                   "sketches — identical to sketching the pooled "
                   "samples, no raw latencies leave a device")
    return table


def fleet_latency_table(report: dict) -> Table:
    """Per-device user-visible latency scoreboard: TTFT percentiles,
    mean inter-token latency, and goodput (completed requests that met
    their tier's TTFT bound, per second of span)."""
    table = Table(
        title=f"Fleet TTFT/ITL/goodput — {report['n_devices']} devices "
              f"(seed={report['seed']})",
        columns=["device", "completed", "ttft p50 s", "ttft p95 s",
                 "mean itl s", "goodput req/s"],
    )
    for device in report["devices"]:
        table.add_row(
            f"{device['name']} ({device['device']})",
            device["n_completed"],
            device["ttft_p50_s"],
            device["ttft_p95_s"],
            device["mean_itl_s"],
            device["goodput_rps"],
        )
    table.add_note("TTFT is arrival to first token; goodput counts "
                   "completed requests whose TTFT met the tier bound "
                   "(interactive 4 s, background 30 s) — the same SLOs "
                   "the batching experiment gates on")
    return table


def fleet_compliance_table(report: dict) -> Table:
    """Fleet-wide SLO scoreboard + per-device incident counts."""
    table = Table(
        title=f"Fleet SLO compliance — {report['n_devices']} devices "
              f"(seed={report['seed']})",
        columns=["slo", "objective", "tier", "target", "events", "bad",
                 "good", "met", "incidents", "firing"],
    )
    incidents = report["alerts"]["incidents"]
    for slo in report["alerts"]["slos"]:
        n_inc = sum(1 for inc in incidents if inc["slo"] == slo["name"])
        n_fire = sum(1 for inc in incidents
                     if inc["slo"] == slo["name"]
                     and inc["firing_s"] is not None)
        table.add_row(slo["name"], slo["objective"], slo["tier"] or "*",
                      slo["target"], slo["n_events"], slo["n_bad"],
                      slo["good_fraction"], "yes" if slo["met"] else "NO",
                      n_inc, n_fire)
    for device in report["devices"]:
        table.add_note(
            f"{device['name']} ({device['device']}): "
            f"{device['n_completed']}/{device['n_requests']} completed, "
            f"{device['n_faults']} faults, {device['n_incidents']} "
            f"incidents ({device['n_firing']} fired)"
        )
    return table


def incident_table(alerts: dict, title: str = "Incident timeline") -> Table:
    """One row per incident of a ``repro.alerts/v1`` document."""
    table = Table(
        title=title,
        columns=["source", "slo", "rule", "sev", "state", "pending s",
                 "firing s", "resolved s", "peak burn", "links"],
    )
    for inc in alerts["incidents"]:
        table.add_row(inc.get("source", alerts.get("source", "-")),
                      inc["slo"], inc["rule"], inc["severity"],
                      inc["state"], inc["pending_s"], inc["firing_s"],
                      inc["resolved_s"], inc["peak_burn_rate"],
                      len(inc["links"]))
    if not alerts["incidents"]:
        table.add_note("no incidents — every burn-rate rule stayed "
                       "below threshold")
    return table


def fleet_scheduler_table(report: dict) -> Table:
    """Fleet scheduler health: per-device occupancy and starvation from
    the batched step probes, plus the fleet-wide decision mix."""
    table = Table(
        title=f"Fleet scheduler occupancy — {report['n_devices']} "
              f"devices (seed={report['seed']})",
        columns=["device", "steps", "batch tok mean", "batch tok p95",
                 "queue p95", "util p95", "starved"],
    )
    for device in report["devices"]:
        sched = device.get("scheduler", {})
        occupancy = sched.get("batch_tokens", {})
        depth = sched.get("queue_depth", {})
        util = sched.get("budget_utilization", {})
        table.add_row(
            device["name"], sched.get("n_steps", 0),
            occupancy.get("mean"), occupancy.get("p95"),
            depth.get("p95"), util.get("p95"),
            len(sched.get("starved", ())),
        )
    mix = report.get("scheduler", {}).get("decision_counts", {})
    if mix:
        table.add_note("fleet decision mix: " + ", ".join(
            f"{action}={count}" for action, count in mix.items()))
    table.add_note("occupancy and starvation come from each device's "
                   "batched step probe (golden batching config over its "
                   "seeded stream); the request path stays legacy")
    return table


def fleet_critpath_table(report: dict, top: int = 10) -> Table:
    """Top critical-path segments across the fleet, by total gated time.

    Requires a report built with ``critpath=True``; each row is one
    stage tag's merged sketch — count of requests it appeared on-path
    for, total seconds it gated, and the per-request distribution.
    """
    from repro.errors import ReproError
    if "critpath" not in report:
        raise ReproError(
            "fleet report has no critpath section — build it with "
            "fleet_report(..., critpath=True)")
    section = report["critpath"]
    table = Table(
        title=f"Fleet critical-path segments — {report['n_devices']} "
              f"devices (seed={report['seed']}), top {top} by gated time",
        columns=["stage", "requests", "total gated s", "mean s",
                 "p50 s", "p95 s", "max s"],
    )
    ranked = sorted(section, key=lambda key: (-section[key]["sum"], key))
    for key in ranked[:top]:
        snap = section[key]
        table.add_row(key.removeprefix("critpath."), snap["count"],
                      snap["sum"], snap["mean"], snap["p50"],
                      snap["p95"], snap["max"])
    if len(ranked) > top:
        table.add_note(f"{len(ranked) - top} further stages omitted")
    table.add_note("per-stage on-path seconds are sketched on-device "
                   "and merged exactly — the fleet sees which segments "
                   "gate completion without any raw path leaving a "
                   "device")
    return table


def fleet_slo(n_devices: int = 3, seed: int = 42, workers: int = 1):
    """Experiment driver: fleet percentiles + per-device latency
    (TTFT/ITL/goodput) + compliance + incidents."""
    report = fleet_report(specs=default_fleet(n_devices, seed=seed),
                          seed=seed, workers=workers)
    return (fleet_percentile_table(report),
            fleet_latency_table(report),
            fleet_compliance_table(report),
            incident_table(report["alerts"],
                           title=f"Fleet incident timeline "
                                 f"(seed={seed})"))
