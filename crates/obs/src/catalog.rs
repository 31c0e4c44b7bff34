//! The metric catalogue: every production metric the workspace
//! records, with its type, unit and help text.
//!
//! The catalogue serves three purposes:
//!
//! 1. the OpenMetrics exporter ([`crate::openmetrics`]) emits each
//!    family's `# HELP` line from here,
//! 2. `docs/METRICS.md` is generated from [`markdown`] and a test
//!    compares the committed file against it, so a new metric cannot
//!    ship undocumented, and
//! 3. an end-to-end test snapshots the registry after driving every
//!    subsystem and asserts each recorded name appears here.
//!
//! Span timers record into a histogram of the same name, so they are
//! catalogued as histograms with unit `ns`.

/// What a metric is, for exposition purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing event count.
    Counter,
    /// Last-write-wins level.
    Gauge,
    /// Log2-bucketed distribution (span timers record nanoseconds).
    Histogram,
}

impl MetricKind {
    /// The OpenMetrics type keyword.
    pub fn as_str(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Registry name (`<crate>.<algo>.<event>`).
    pub name: &'static str,
    /// Counter, gauge or histogram.
    pub kind: MetricKind,
    /// Unit of the recorded value (`1` for dimensionless counts).
    pub unit: &'static str,
    /// One-line description.
    pub help: &'static str,
}

/// Every production metric, sorted by name. Keep sorted — a unit test
/// enforces order and uniqueness so lookups can binary-search.
pub const CATALOG: &[MetricDef] = &[
    MetricDef {
        name: "alloc.cds.best_move",
        kind: MetricKind::Histogram,
        unit: "ns",
        help: "Span: one CDS best-move scan over all item/channel pairs",
    },
    MetricDef {
        name: "alloc.cds.iterations",
        kind: MetricKind::Counter,
        unit: "1",
        help: "CDS hill-climbing iterations (accepted moves) across all runs",
    },
    MetricDef {
        name: "alloc.cds.refine",
        kind: MetricKind::Histogram,
        unit: "ns",
        help: "Span: one CDS refinement, to local optimality or its move cap",
    },
    MetricDef {
        name: "alloc.drp.run",
        kind: MetricKind::Histogram,
        unit: "ns",
        help: "Span: one full DRP recursive partition",
    },
    MetricDef {
        name: "alloc.drp.split_scan",
        kind: MetricKind::Histogram,
        unit: "ns",
        help: "Span: one DRP scan for the best split index",
    },
    MetricDef {
        name: "alloc.drp.splits",
        kind: MetricKind::Counter,
        unit: "1",
        help: "DRP split decisions taken across all runs",
    },
    MetricDef {
        name: "alloc.pipeline.cds",
        kind: MetricKind::Histogram,
        unit: "ns",
        help: "Span: CDS stage of the DRP-CDS pipeline",
    },
    MetricDef {
        name: "alloc.pipeline.drp",
        kind: MetricKind::Histogram,
        unit: "ns",
        help: "Span: DRP stage of the DRP-CDS pipeline",
    },
    MetricDef {
        name: "alloc.pipeline.runs",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Complete DRP-CDS pipeline executions",
    },
    MetricDef {
        name: "baselines.exact.nodes",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Branch-and-bound nodes expanded by the exact baseline",
    },
    MetricDef {
        name: "baselines.exact.prunes",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Branch-and-bound subtrees pruned by the lower bound",
    },
    MetricDef {
        name: "baselines.exact.search",
        kind: MetricKind::Histogram,
        unit: "ns",
        help: "Span: one exact branch-and-bound search",
    },
    MetricDef {
        name: "baselines.gopt.evolve",
        kind: MetricKind::Histogram,
        unit: "ns",
        help: "Span: one full GOPT genetic search",
    },
    MetricDef {
        name: "baselines.gopt.generation",
        kind: MetricKind::Histogram,
        unit: "ns",
        help: "Span: one GOPT generation (selection, crossover, mutation)",
    },
    MetricDef {
        name: "baselines.gopt.generations",
        kind: MetricKind::Counter,
        unit: "1",
        help: "GOPT generations evolved across all runs",
    },
    MetricDef {
        name: "baselines.gopt.runs",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Complete GOPT searches",
    },
    MetricDef {
        name: "baselines.vfk.dp",
        kind: MetricKind::Histogram,
        unit: "ns",
        help: "Span: one VF^K frequency-balancing dynamic program",
    },
    MetricDef {
        name: "baselines.vfk.runs",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Complete VF^K allocations",
    },
    MetricDef {
        name: "bench.sweep.cells",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Sweep grid cells evaluated by the bench runner",
    },
    MetricDef {
        name: "bench.sweep.worker",
        kind: MetricKind::Histogram,
        unit: "ns",
        help: "Span: one parallel sweep worker's share of the grid",
    },
    MetricDef {
        name: "conformance.cases",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Conformance cases executed (fuzzed plus corpus replays)",
    },
    MetricDef {
        name: "conformance.corpus.replayed",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Regression-corpus entries replayed",
    },
    MetricDef {
        name: "conformance.generate_case",
        kind: MetricKind::Histogram,
        unit: "ns",
        help: "Span: generating one seeded conformance instance",
    },
    MetricDef {
        name: "conformance.last_run.violations",
        kind: MetricKind::Gauge,
        unit: "1",
        help: "Violations found by the most recent conformance run",
    },
    MetricDef {
        name: "conformance.run",
        kind: MetricKind::Histogram,
        unit: "ns",
        help: "Span: one full conformance harness run",
    },
    MetricDef {
        name: "conformance.shrink",
        kind: MetricKind::Histogram,
        unit: "ns",
        help: "Span: ddmin-shrinking one failing conformance case",
    },
    MetricDef {
        name: "conformance.violations",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Invariant violations found across all conformance runs",
    },
    MetricDef {
        name: "fleet.access",
        kind: MetricKind::Histogram,
        unit: "us",
        help: "Per-request access time measured by fleet clients (virtual microseconds)",
    },
    MetricDef {
        name: "fleet.cache_hits",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Requested items answered from fleet client caches",
    },
    MetricDef {
        name: "fleet.clients",
        kind: MetricKind::Gauge,
        unit: "1",
        help: "Distinct clients heard on the telemetry uplink",
    },
    MetricDef {
        name: "fleet.conflicts",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Wanted-item occurrences that aired while a fleet client's tuner was busy",
    },
    MetricDef {
        name: "fleet.generation.access",
        kind: MetricKind::Gauge,
        unit: "s",
        help: "Fleet-observed mean access time per generation (virtual seconds); indexed as .<generation>",
    },
    MetricDef {
        name: "fleet.generation.gap",
        kind: MetricKind::Gauge,
        unit: "1",
        help: "Relative observed-vs-Eq. 2 access-time gap per generation; indexed as .<generation>",
    },
    MetricDef {
        name: "fleet.generation.predicted",
        kind: MetricKind::Gauge,
        unit: "s",
        help: "Eq. 2 expected access time per generation, conditioned on fleet draws; indexed as .<generation>",
    },
    MetricDef {
        name: "fleet.requests",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Requests measured across all fleet clients",
    },
    MetricDef {
        name: "fleet.retunes",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Fleet client downloads abandoned at a hot-swap boundary",
    },
    MetricDef {
        name: "fleet.stragglers",
        kind: MetricKind::Gauge,
        unit: "1",
        help: "Uplink clients whose acked generation trails the published one",
    },
    MetricDef {
        name: "fleet.torn_frames",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Planned fleet downloads the recorded air could not corroborate",
    },
    MetricDef {
        name: "fleet.tuning",
        kind: MetricKind::Histogram,
        unit: "us",
        help: "Per-request tuning time measured by fleet clients (virtual microseconds)",
    },
    MetricDef {
        name: "fleet.uplink.access",
        kind: MetricKind::Histogram,
        unit: "us",
        help: "Fleet access-time rollup merged from client digest histogram cells",
    },
    MetricDef {
        name: "fleet.uplink.digests",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Client telemetry digests folded into the fleet aggregator",
    },
    MetricDef {
        name: "fleet.uplink.tuning",
        kind: MetricKind::Histogram,
        unit: "us",
        help: "Fleet tuning-time rollup merged from client digest histogram cells",
    },
    MetricDef {
        name: "flight.exposition.refused",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Exposition connections closed unanswered at the connection cap",
    },
    MetricDef {
        name: "net.broadcast.refused",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Broadcast connections closed unsubscribed at the subscriber cap",
    },
    MetricDef {
        name: "net.bytes_sent",
        kind: MetricKind::Counter,
        unit: "By",
        help: "Frame bytes written to broadcast subscriber sockets",
    },
    MetricDef {
        name: "net.decode_errors",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Wire frames a client failed to decode (bad magic, checksum, payload)",
    },
    MetricDef {
        name: "net.dropped_frames",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Frames dropped by the slow-client policy (subscriber queue full)",
    },
    MetricDef {
        name: "net.frames_sent",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Frames written to broadcast subscriber sockets (fan-out counted per subscriber)",
    },
    MetricDef {
        name: "net.socket_writes",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Broadcast writer drains: each writes every frame its subscriber had queued",
    },
    MetricDef {
        name: "net.subscriber.queue_depth",
        kind: MetricKind::Gauge,
        unit: "1",
        help: "Deepest live subscriber frame queue at the last broadcast (back-pressure building)",
    },
    MetricDef {
        name: "net.subscriber.queue_peak",
        kind: MetricKind::Gauge,
        unit: "1",
        help: "High-watermark of any subscriber's frame queue depth since startup",
    },
    MetricDef {
        name: "net.subscribers",
        kind: MetricKind::Gauge,
        unit: "1",
        help: "Live broadcast subscriber connections",
    },
    MetricDef {
        name: "net.uplink.bytes",
        kind: MetricKind::Counter,
        unit: "By",
        help: "Bytes read off telemetry uplink connections",
    },
    MetricDef {
        name: "net.uplink.clients",
        kind: MetricKind::Gauge,
        unit: "1",
        help: "Live telemetry uplink connections",
    },
    MetricDef {
        name: "net.uplink.decode_errors",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Uplink frames that failed to decode or carried a non-telemetry type",
    },
    MetricDef {
        name: "net.uplink.frames",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Telemetry frames decoded off the uplink",
    },
    MetricDef {
        name: "net.uplink.refused",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Uplink connections closed unread at the connection cap",
    },
    MetricDef {
        name: "scope.watchdog.firings",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Watchdog rules that fired (sustained threshold or stall)",
    },
    MetricDef {
        name: "serve.audit.residual",
        kind: MetricKind::Gauge,
        unit: "s",
        help: "Per-channel observed-mean wait minus Eq. 2 predicted mean for the \
               serving generation, published per tick from the audit ledger; indexed \
               as .<channel>",
    },
    MetricDef {
        name: "serve.audit.sampled",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Requests captured by the audit tracer's deterministic seeded stage \
               (published per tick)",
    },
    MetricDef {
        name: "serve.audit.straddled",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Sampled requests whose service straddled an EpochCell program swap",
    },
    MetricDef {
        name: "serve.audit.tail_sampled",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Slow requests (wait > tail multiplier x the request's Eq. 2 prediction), \
               all captured by the audit tail stage (published per tick)",
    },
    MetricDef {
        name: "serve.channel.expected_wait",
        kind: MetricKind::Gauge,
        unit: "s",
        help: "Per-channel Eq. 2 wait contribution F_i*Z_i/(2b); indexed as .<channel>",
    },
    MetricDef {
        name: "serve.channel.load",
        kind: MetricKind::Gauge,
        unit: "1",
        help: "Per-channel share of access probability F_i; indexed as .<channel>",
    },
    MetricDef {
        name: "serve.drift_distance",
        kind: MetricKind::Gauge,
        unit: "1",
        help: "Latest drift score: Eq. 3 gap of the serving generation over its floor, minus 1",
    },
    MetricDef {
        name: "serve.drift_events",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Drift detections that dispatched a re-allocation",
    },
    MetricDef {
        name: "serve.dropped",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Requests for items no channel broadcasts (should stay 0)",
    },
    MetricDef {
        name: "serve.generation",
        kind: MetricKind::Gauge,
        unit: "1",
        help: "Program generation currently being served",
    },
    MetricDef {
        name: "serve.generation_cost",
        kind: MetricKind::Gauge,
        unit: "1",
        help: "Eq. 3 cost of the serving generation under its build profile",
    },
    MetricDef {
        name: "serve.repair",
        kind: MetricKind::Histogram,
        unit: "ns",
        help: "Span: one drift-triggered re-allocation (full or budgeted)",
    },
    MetricDef {
        name: "serve.repair_budget_exhausted",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Budgeted serve repairs that ran out of moves with gain left",
    },
    MetricDef {
        name: "serve.requests",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Requests admitted and served by the runtime (published per tick and \
               at run end)",
    },
    MetricDef {
        name: "serve.runtime.run",
        kind: MetricKind::Histogram,
        unit: "ns",
        help: "Span: one complete ServeRuntime::run over a trace",
    },
    MetricDef {
        name: "serve.slo.burn_rate",
        kind: MetricKind::Gauge,
        unit: "1",
        help: "Error-budget burn rate of the serving generation, per tick (1.0 = budget spent)",
    },
    MetricDef {
        name: "serve.slo.target_wait",
        kind: MetricKind::Gauge,
        unit: "s",
        help: "Eq. 2 expected wait W_b of the serving generation (the SLO target)",
    },
    MetricDef {
        name: "serve.swap_latency",
        kind: MetricKind::Histogram,
        unit: "ns",
        help: "Wall-clock duration of drift-triggered re-allocations",
    },
    MetricDef {
        name: "serve.swaps",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Hot program swaps published through the EpochCell",
    },
    MetricDef {
        name: "serve.ticks",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Virtual-time ticks the serving runtime advanced through",
    },
    MetricDef {
        name: "serve.wait",
        kind: MetricKind::Histogram,
        unit: "us",
        help: "Per-request waiting time in virtual microseconds (published per tick)",
    },
    MetricDef {
        name: "sim.engine.event_loop",
        kind: MetricKind::Histogram,
        unit: "ns",
        help: "Span: the simulator's event-dispatch loop",
    },
    MetricDef {
        name: "sim.engine.events",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Discrete events processed by the simulator",
    },
    MetricDef {
        name: "sim.engine.mean_download",
        kind: MetricKind::Gauge,
        unit: "s",
        help: "Mean download time of the last simulation run",
    },
    MetricDef {
        name: "sim.engine.mean_probe",
        kind: MetricKind::Gauge,
        unit: "s",
        help: "Mean probe time of the last simulation run",
    },
    MetricDef {
        name: "sim.engine.mean_waiting",
        kind: MetricKind::Gauge,
        unit: "s",
        help: "Mean total waiting time of the last simulation run",
    },
    MetricDef {
        name: "sim.engine.queue_depth",
        kind: MetricKind::Histogram,
        unit: "1",
        help: "Pending-event queue depth sampled per dispatched event",
    },
    MetricDef {
        name: "sim.engine.requests",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Requests completed by the simulator",
    },
    MetricDef {
        name: "sim.engine.run",
        kind: MetricKind::Histogram,
        unit: "ns",
        help: "Span: one complete simulation run",
    },
    MetricDef {
        name: "sim.engine.schedule",
        kind: MetricKind::Histogram,
        unit: "ns",
        help: "Span: building the simulator's broadcast schedule",
    },
];

/// Looks up a metric's definition by registry name (binary search —
/// the catalogue is sorted).
///
/// Indexed families record under `<family>.<index>` (for example the
/// per-channel gauges `serve.channel.load.3`); a name whose last
/// segment is all digits falls back to its family's entry, so indexed
/// members stay catalogued without one row per index.
pub fn describe(name: &str) -> Option<&'static MetricDef> {
    let exact = CATALOG.binary_search_by(|d| d.name.cmp(name)).ok().map(|i| &CATALOG[i]);
    exact.or_else(|| {
        let (family, index) = name.rsplit_once('.')?;
        if index.is_empty() || !index.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        CATALOG.binary_search_by(|d| d.name.cmp(family)).ok().map(|i| &CATALOG[i])
    })
}

/// Renders the catalogue as the body of `docs/METRICS.md`. A test
/// compares the committed file against this string, so regenerating
/// after adding a metric is mandatory:
///
/// ```sh
/// dbcast flight catalog > docs/METRICS.md
/// ```
pub fn markdown() -> String {
    let mut out = String::new();
    out.push_str("# Metrics catalogue\n\n");
    out.push_str(
        "Generated from `dbcast_obs::catalog::CATALOG` by `dbcast flight catalog`; \
         do not edit by hand.\nA test (`tests/flight_e2e.rs`) fails if this file \
         is stale or if a recorded metric is missing from the catalogue.\n\n\
         Recording is off until a flag that needs it turns it on: `--metrics-out`, \
         `--trace-out`, serve's `--listen`, `--listen-uplink`, `--postmortem-dir` \
         and `--watch`, or the `stats` command. Until then every metric reads 0.\n\n",
    );
    out.push_str("| Name | Type | Unit | Help |\n|---|---|---|---|\n");
    for d in CATALOG {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            d.name,
            d.kind.as_str(),
            d.unit,
            d.help
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_sorted_and_unique() {
        for w in CATALOG.windows(2) {
            assert!(
                w[0].name < w[1].name,
                "catalogue out of order or duplicated: {} vs {}",
                w[0].name,
                w[1].name
            );
        }
    }

    #[test]
    fn describe_finds_every_entry() {
        for d in CATALOG {
            let found = describe(d.name).expect("binary search finds its own entry");
            assert_eq!(found.name, d.name);
        }
        assert!(describe("no.such.metric").is_none());
    }

    #[test]
    fn describe_resolves_indexed_family_members() {
        let def = describe("serve.channel.load.7").expect("indexed member resolves");
        assert_eq!(def.name, "serve.channel.load");
        let def = describe("serve.channel.expected_wait.0").unwrap();
        assert_eq!(def.name, "serve.channel.expected_wait");
        // The fallback only strips an all-digit final segment.
        assert!(describe("serve.channel.load.x1").is_none());
        assert!(describe("serve.channel.nope.3").is_none());
    }

    #[test]
    fn fleet_observability_names_are_catalogued() {
        // The distributed-observability plane's required names: every
        // metric the uplink server, fleet aggregator, and subscriber
        // back-pressure gauges record must resolve in the catalogue.
        for name in [
            "fleet.clients",
            "fleet.stragglers",
            "fleet.uplink.access",
            "fleet.uplink.digests",
            "fleet.uplink.tuning",
            "net.socket_writes",
            "net.subscriber.queue_depth",
            "net.subscriber.queue_peak",
            "net.uplink.bytes",
            "net.uplink.clients",
            "net.uplink.decode_errors",
            "net.uplink.frames",
            "net.uplink.refused",
            "net.broadcast.refused",
            "flight.exposition.refused",
        ] {
            assert!(describe(name).is_some(), "missing catalogue entry: {name}");
        }
        for family in [
            "fleet.generation.access",
            "fleet.generation.gap",
            "fleet.generation.predicted",
        ] {
            let def = describe(&format!("{family}.3"))
                .unwrap_or_else(|| panic!("missing indexed family: {family}"));
            assert_eq!(def.name, family);
        }
    }

    #[test]
    fn markdown_has_one_row_per_entry() {
        let md = markdown();
        for d in CATALOG {
            assert!(md.contains(&format!("| `{}` |", d.name)), "missing row: {}", d.name);
        }
    }
}
