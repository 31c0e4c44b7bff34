//! Every telemetry document — the metrics snapshot, `/flight`,
//! postmortem dumps, `/status`, `/exemplars`, `/fleet` and the fleet run
//! report — goes through the one `dbcast_obs::doc` envelope. One table
//! drives all seven kinds: each must render and decode back to an equal
//! value, and each must reject the same five envelope-level tamperings
//! with the same typed error. The per-kind semantic checks are tested
//! next to each body type.

use std::fmt::Debug;

use dbcast_audit::{AuditConfig, AuditTracer, TraceRecord, FLAG_SEEDED, FLAG_TAIL};
use dbcast_flight::{EventKind, FlightEvent, FlightRing, Postmortem, StatusDoc};
use dbcast_net::{
    ClientReport, FleetConfig, FleetReport, FleetTotals, GenerationSlice, StatSummary,
    FLEET_SCHEMA,
};
use dbcast_obs::doc::{decode, render, DocError, Document};
use dbcast_obs::metrics::Histogram;
use dbcast_obs::snapshot::Snapshot;
use dbcast_serve::{FleetAggregator, FleetDigest};
use serde_json::Value;

type Decoder = Box<dyn Fn(&str) -> Result<(), DocError>>;

/// A rendered document plus a decoder that also asserts the decoded
/// value equals the original.
fn case<D: Document + PartialEq + Debug + 'static>(
    doc: D,
) -> (&'static str, String, Decoder) {
    let text = render(&doc);
    (D::KIND, text, Box::new(move |t| decode::<D>(t).map(|back| assert_eq!(back, doc))))
}

fn entries(v: &mut Value) -> &mut Vec<(String, Value)> {
    match v {
        Value::Map(entries) => entries,
        other => panic!("expected a map, found {other:?}"),
    }
}

fn body(v: &mut Value) -> &mut Vec<(String, Value)> {
    let envelope = entries(v);
    let at = envelope.iter().position(|(k, _)| k == "body").expect("envelope has a body");
    entries(&mut envelope[at].1)
}

fn flight_ring() -> FlightRing {
    let ring = FlightRing::new(64);
    ring.record(FlightEvent::new(EventKind::Tick, 1, 0, 0.5).value(0.5));
    ring.record(FlightEvent::new(EventKind::SwapPublish, 2, 1, 1.25).value(9.75).extra(1));
    ring.record(FlightEvent::new(EventKind::Fault, 3, 1, 1.5).extra(7));
    ring
}

fn metrics() -> Snapshot {
    let wait = Histogram::detached();
    for ns in [3, 70, 70, 900] {
        wait.force_record(ns);
    }
    Snapshot {
        counters: vec![("serve.requests".into(), 8), ("serve.ticks".into(), 3)],
        gauges: vec![("serve.drift_distance".into(), 0.125)],
        histograms: vec![("serve.tick".into(), wait.snapshot())],
    }
}

/// A one-client, one-generation run, as `dbcast fleet` reports it.
fn fleet_report() -> FleetReport {
    let access = StatSummary::from_values(&[1.5, 2.5]);
    let generation = GenerationSlice {
        generation: 0,
        origin: 0.0,
        requests: 2,
        mean_access: 2.0,
        mean_tuning: 2.0,
        predicted_access: 1.75,
    };
    let client = ClientReport {
        id: 0,
        seed: 1,
        requests: 2,
        completed: 2,
        cache_hits: 0,
        conflicts: 0,
        retunes: 0,
        torn_frames: 0,
        decode_errors: 0,
        access,
        tuning: access,
        generations: vec![generation],
    };
    let totals = FleetTotals { requests: 2, completed: 2, ..FleetTotals::default() };
    let config = FleetConfig { clients: 1, requests: 2, ..FleetConfig::default() };
    FleetReport {
        schema: FLEET_SCHEMA,
        config,
        indexed: false,
        clients: vec![client],
        totals,
    }
}

fn table() -> Vec<(&'static str, String, Decoder)> {
    let tracer = AuditTracer::new(AuditConfig::default(), 2);
    for id in 0..8u64 {
        let wait = 1.0 + id as f64 * 0.125;
        tracer.observe_wait((id % 2) as usize, wait, 0.9);
        tracer.record(&TraceRecord {
            request_id: id,
            item: id,
            arrival_tick: id,
            satisfied_tick: id + 1,
            generation: 0,
            channel: id % 2,
            queue_position: 1,
            arrival: id as f64 * 0.25,
            wait,
            predicted: 0.9,
            straddle_penalty: 0.0,
            flags: if id % 3 == 0 { FLAG_SEEDED | FLAG_TAIL } else { FLAG_SEEDED },
        });
    }
    tracer.on_swap(1.1, 1);

    let fleet = FleetAggregator::new();
    fleet.set_published(2);
    fleet.ingest(&FleetDigest::ack(0, 0, 2));
    fleet.ingest(&FleetDigest::ack(1, 0, 1));
    let mut slice = FleetDigest::ack(0, 1, 2);
    slice.slice = Some(GenerationSlice {
        generation: 2,
        origin: 0.0,
        requests: 4,
        mean_access: 1.5,
        mean_tuning: 0.75,
        predicted_access: 1.375,
    });
    (slice.requests, slice.completed) = (5, 4);
    slice.coverage = vec![(0, 12), (1, 4)];
    fleet.ingest(&slice);

    let json = |s: &str| serde_json::from_str::<Value>(s).unwrap();
    vec![
        case(metrics()),
        case(flight_ring().doc()),
        case(Postmortem {
            reason: "panic: table".into(),
            unix_ms: 1_700_000_000_000,
            flight: flight_ring().doc(),
            metrics: metrics(),
        }),
        case(StatusDoc {
            command: "serve".into(),
            items: 60,
            trace_requests: 8000,
            flight_recorded: 12,
            config: json(r#"{"channels": 5, "bandwidth": 10.5}"#),
        }),
        case(tracer.snapshot()),
        case(fleet.doc()),
        case(fleet_report()),
    ]
}

/// An envelope-level tampering and the error it must produce.
type Tamper = (&'static str, fn(&mut Value), fn(&DocError) -> bool);

const TAMPERS: [Tamper; 5] = [
    (
        "wrong schema",
        |v| entries(v)[0].1 = Value::U64(99),
        |e| matches!(e, DocError::Schema { found: 99, .. }),
    ),
    (
        "wrong kind",
        |v| entries(v)[1].1 = Value::Str("bogus".into()),
        |e| matches!(e, DocError::Kind { found, .. } if found == "bogus"),
    ),
    (
        "unknown field",
        |v| body(v).push(("bogus".into(), Value::U64(3))),
        |e| matches!(e, DocError::Parse(m) if m.contains("unknown field `bogus`")),
    ),
    (
        "duplicate key",
        |v| {
            let first = body(v)[0].clone();
            body(v).push(first);
        },
        |e| matches!(e, DocError::Parse(m) if m.contains("duplicate field")),
    ),
    ("missing body", |v| entries(v).truncate(2), |e| matches!(e, DocError::Parse(_))),
];

#[test]
fn every_document_kind_round_trips_and_rejects_envelope_tampering() {
    let table = table();
    let kinds: Vec<&str> = table.iter().map(|(kind, _, _)| *kind).collect();
    assert_eq!(
        kinds,
        ["metrics", "flight", "postmortem", "status", "exemplars", "fleet", "fleet-run"]
    );
    for (kind, text, decode) in &table {
        decode(text).unwrap_or_else(|e| panic!("{kind} does not round-trip: {e}\n{text}"));
        let envelope: Value = serde_json::from_str(text).unwrap();
        for (what, tamper, expected) in TAMPERS {
            let mut bad = envelope.clone();
            tamper(&mut bad);
            let err = decode(&serde_json::to_string(&bad).unwrap())
                .expect_err(&format!("{kind}: {what} accepted"));
            assert!(expected(&err), "{kind}: {what} gave {err:?}");
        }
    }
}

/// A `fleet-run` document must be the fold of its client rows: the
/// totals are their field-by-field sum (`dropped_frames` is the
/// server's own count), no client completes more than it requested,
/// and a client's clean slice requests never outnumber its completions.
#[test]
fn fleet_run_check_rejects_a_report_that_is_not_its_own_fold() {
    type Edit = fn(&mut FleetReport);
    let mut dropped = fleet_report();
    dropped.totals.dropped_frames = Some(7);
    assert_eq!(decode::<FleetReport>(&render(&dropped)), Ok(dropped));
    let cases: [(&str, Edit); 5] = [
        ("totals are not the sum", |r| r.totals.requests += 1),
        ("totals are not the sum", |r| r.totals.retunes += 1),
        ("totals are not the sum", |r| r.clients[0].conflicts += 1),
        ("completed 3 of 2 requests", |r| {
            r.clients[0].completed = 3;
            r.totals.completed = 3;
        }),
        ("slices count 3 requests, more than its 2 completed", |r| {
            r.clients[0].generations[0].requests = 3;
        }),
    ];
    for (needle, edit) in cases {
        let mut bad = fleet_report();
        edit(&mut bad);
        match decode::<FleetReport>(&render(&bad)) {
            Err(DocError::Check { reason, .. }) => {
                assert!(reason.contains(needle), "{needle}: {reason}");
            }
            other => panic!("{needle}: tampered report gave {other:?}"),
        }
    }
}
