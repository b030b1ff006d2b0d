//! Validation of the cycle-event observability layer (`aurora_core::obs`).
//!
//! Three invariants, each over the full 15-kernel suite crossed with all
//! three machine models and both issue widths:
//!
//! 1. **Attribution sum** — every stall cycle the counters charge is
//!    attributed by the event stream to exactly one [`StallCause`]: the
//!    observer's per-cause totals, folded through `StallCause::kind()`,
//!    are *equal* (not approximately) to the counter-based
//!    `SimStats::stalls` breakdown, and their grand totals match.
//! 2. **Zero-cost off** — a run with an observer attached yields
//!    bit-identical `SimStats` to one without; recording never perturbs
//!    machine state.
//! 3. **Well-formed trace JSON** — `Observer::chrome_trace_json` parses
//!    (with the workspace's `aurora-json`) into the trace-event structure
//!    Perfetto requires.

use aurora3::core::obs::DEFAULT_RING_CAPACITY;
use aurora3::core::{replay, IssueWidth, MachineModel, Simulator, StallKind};
use aurora3::mem::LatencyModel;
use aurora3::workloads::{FpBenchmark, IntBenchmark, Scale, TraceStore, Workload};
use aurora_json::Json;

fn full_suite() -> Vec<Workload> {
    let mut suite: Vec<Workload> = IntBenchmark::ALL
        .into_iter()
        .map(|b| b.workload(Scale::Test))
        .collect();
    suite.extend(
        FpBenchmark::ALL
            .into_iter()
            .map(|b| b.workload(Scale::Test)),
    );
    suite
}

fn grid() -> impl Iterator<Item = (MachineModel, IssueWidth)> {
    MachineModel::ALL
        .into_iter()
        .flat_map(|m| [IssueWidth::Single, IssueWidth::Dual].map(move |w| (m, w)))
}

#[test]
fn every_stall_cycle_attributes_to_exactly_one_cause() {
    for w in full_suite() {
        let trace = TraceStore::global().get(&w).expect("capture");
        for (model, width) in grid() {
            let cfg = model.config(width, LatencyModel::Fixed(17));
            let mut sim = Simulator::new(&cfg);
            sim.enable_observer(DEFAULT_RING_CAPACITY);
            for op in trace.iter() {
                sim.feed(op);
            }
            let (stats, obs) = sim.finish_observed();
            let obs = obs.expect("observer attached");

            let ctx = format!("{}/{model}/{width}", w.name());
            assert_eq!(
                obs.stalls_by_kind(),
                stats.stalls,
                "{ctx}: per-kind event attribution != counters"
            );
            assert_eq!(
                obs.total_stall_cycles(),
                stats.stalls.total(),
                "{ctx}: attributed total != counter total"
            );
            // The fine taxonomy partitions the coarse one: each kind's
            // counter is the sum of exactly its causes, so summing the
            // per-cause cells grouped by kind must reproduce each
            // counter — already implied by the equality above — and no
            // cause may be double-counted across kinds.
            let fine_total: u64 = obs.stall_breakdown().map(|(_, c)| c).sum();
            assert_eq!(fine_total, stats.stalls.total(), "{ctx}: causes overlap");
        }
    }
}

#[test]
fn observer_is_invisible_to_simulation_results() {
    for w in full_suite() {
        let trace = TraceStore::global().get(&w).expect("capture");
        for (model, width) in grid() {
            let cfg = model.config(width, LatencyModel::Fixed(17));
            let mut observed = Simulator::new(&cfg);
            observed.enable_observer(DEFAULT_RING_CAPACITY);
            for op in trace.iter() {
                observed.feed(op);
            }
            assert_eq!(
                observed.finish(),
                replay(&cfg, &trace),
                "{}/{model}/{width}: the observer changed SimStats",
                w.name()
            );
        }
    }
}

#[test]
fn chrome_trace_json_is_well_formed_and_complete() {
    let w = IntBenchmark::Espresso.workload(Scale::Test);
    let trace = TraceStore::global().get(&w).expect("capture");
    let cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
    let mut sim = Simulator::new(&cfg);
    sim.enable_observer(DEFAULT_RING_CAPACITY);
    for op in trace.iter() {
        sim.feed(op);
    }
    let (stats, obs) = sim.finish_observed();
    let obs = obs.expect("observer attached");
    assert!(!obs.is_empty(), "espresso must produce events");

    let json = Json::parse(&obs.chrome_trace_json()).expect("trace JSON parses");
    assert_eq!(
        json.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let events = json
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert_eq!(events.len(), 6 + obs.len(), "six track names plus the ring");
    for ph in ["M", "X", "i", "C"] {
        assert!(
            events.iter().any(|e| str_member(e, "ph") == Some(ph)),
            "trace JSON has no `{ph}` event"
        );
    }
    for e in events {
        let ph = str_member(e, "ph").expect("every event has a phase");
        assert!(str_member(e, "name").is_some(), "unnamed event {e}");
        assert!(e.get("tid").and_then(Json::as_u64).is_some(), "no tid: {e}");
        if ph == "M" {
            assert_eq!(str_member(e, "name"), Some("thread_name"));
        } else {
            assert!(e.get("ts").and_then(Json::as_u64).is_some(), "no ts: {e}");
        }
        if ph == "X" {
            assert!(e.get("dur").and_then(Json::as_u64).is_some(), "no dur: {e}");
        }
    }
    // Every stall cause that actually charged cycles must surface as a
    // named slice somewhere in the trace.
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| str_member(e, "name"))
        .collect();
    for kind in StallKind::ALL {
        if stats.stalls[kind] > 0 && obs.dropped() == 0 {
            let causes_present = obs
                .stall_breakdown()
                .filter(|&(c, n)| n > 0 && c.kind() == kind)
                .all(|(c, _)| names.contains(&format!("stall:{}", c.label()).as_str()));
            assert!(causes_present, "no slice for any cause of {kind}");
        }
    }
}

/// The string member `key` of a JSON object.
fn str_member<'a>(e: &'a Json, key: &str) -> Option<&'a str> {
    e.get(key).and_then(Json::as_str)
}
