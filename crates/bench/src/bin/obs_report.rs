//! Observability report: regenerates the Figure 6 stall breakdown *from
//! attribution events* rather than end-of-run counters, cross-checks the
//! two against each other per kernel, and summarises the event-derived
//! latency/occupancy histograms. Optionally dumps one kernel's event
//! ring as Chrome/Perfetto trace JSON.
//!
//! ```text
//! cargo run --release -p aurora-bench --bin obs_report -- \
//!     [--scale test|small|full] [--trace-out FILE.json] [--kernel NAME]
//! ```
//!
//! The counter-based breakdown (`fig6_stall_breakdown`) and the
//! event-based one are computed by independent code paths from the same
//! charge sites, so they must agree exactly; the report asserts the
//! per-category difference is within 1% for every kernel and prints the
//! worst observed deviation (expected: 0).

use aurora_bench::harness::{cpi, fp_suite, integer_suite, scale_from_args, TextTable};
use aurora_core::obs::DEFAULT_RING_CAPACITY;
use aurora_core::{
    IssueWidth, MachineConfig, MachineModel, Observer, SimStats, Simulator, StallCause, StallKind,
};
use aurora_mem::LatencyModel;
use aurora_workloads::{TraceStore, Workload};

/// One simulated cell: counter stats plus the observer that watched it.
struct Cell {
    name: &'static str,
    stats: SimStats,
    obs: Observer,
}

/// Replays `workload`'s block form with the observer attached, which
/// sends `feed_blocks` down its per-op path: every cycle event is seen.
fn observe(cfg: &MachineConfig, workload: &Workload) -> Cell {
    let blocks = TraceStore::global()
        .get_blocks(workload)
        .unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()));
    let mut sim = Simulator::new(cfg);
    sim.enable_observer(DEFAULT_RING_CAPACITY);
    sim.feed_blocks(&blocks);
    let (stats, obs) = sim.finish_observed();
    Cell {
        name: workload.name(),
        stats,
        obs: obs.expect("observer was enabled"),
    }
}

fn arg_value(flag: &str) -> Option<String> {
    std::env::args().skip_while(|a| a != flag).nth(1)
}

fn main() {
    let scale = scale_from_args();
    let mut suite = integer_suite(scale);
    suite.extend(fp_suite(scale));
    let kinds = [
        StallKind::ICache,
        StallKind::Load,
        StallKind::RobFull,
        StallKind::LsuBusy,
    ];

    println!("Figure 6 from attribution events, dual issue @ L17 (scale {scale})");

    let mut worst: (f64, &str, StallKind) = (0.0, "-", StallKind::ICache);
    for model in MachineModel::ALL {
        let cfg: MachineConfig = model.config(IssueWidth::Dual, LatencyModel::Fixed(17));

        // One observed replay per kernel, in parallel (each needs its own
        // simulator + observer, so the counter-oriented run_matrix does
        // not apply here).
        let cfg_ref = &cfg;
        let cells: Vec<Cell> = std::thread::scope(|scope| {
            let handles: Vec<_> = suite
                .iter()
                .map(|w| scope.spawn(move || observe(cfg_ref, w)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("observe thread"))
                .collect()
        });

        // Per-kernel cross-check: the event-derived per-kind cycles must
        // match the counters within 1% (they are exactly equal by
        // construction; the tolerance is the acceptance bound).
        for cell in &cells {
            let from_events = cell.obs.stalls_by_kind();
            for kind in StallKind::ALL {
                let counter = cell.stats.stalls[kind];
                let events = from_events[kind];
                let rel = (events.abs_diff(counter)) as f64 / counter.max(1) as f64;
                if rel > worst.0 {
                    worst = (rel, cell.name, kind);
                }
                assert!(
                    rel <= 0.01,
                    "{}/{model}: {kind} differs by {:.2}% (events {events}, counters {counter})",
                    cell.name,
                    100.0 * rel
                );
            }
            assert_eq!(
                cell.obs.total_stall_cycles(),
                cell.stats.stalls.total(),
                "{}/{model}: attribution-sum invariant violated",
                cell.name
            );
        }

        // The fine-grained table: per-cause CPI, suite average.
        let n = cells.len() as f64;
        let mut header = vec!["cause".to_string()];
        header.push(format!("{model} CPI"));
        header.push("share".to_string());
        let mut t = TextTable::new(header);
        let total_stall: f64 = cells
            .iter()
            .map(|c| c.obs.total_stall_cycles() as f64 / c.stats.instructions.max(1) as f64)
            .sum::<f64>()
            / n;
        for cause in StallCause::ALL {
            let v: f64 = cells
                .iter()
                .map(|c| c.obs.stall_cycles(cause) as f64 / c.stats.instructions.max(1) as f64)
                .sum::<f64>()
                / n;
            if v > 0.0 {
                t.row(vec![
                    cause.label().to_string(),
                    cpi(v),
                    format!("{:.1}%", 100.0 * v / total_stall.max(1e-12)),
                ]);
            }
        }
        let total_cpi: f64 = cells.iter().map(|c| c.stats.cpi()).sum::<f64>() / n;
        t.row(vec![
            "(total stall)".to_string(),
            cpi(total_stall),
            format!("of {} CPI", cpi(total_cpi)),
        ]);
        println!("\n{model} model — event-attributed stall CPI (15-kernel average):");
        println!("{}", t.render());

        // Coarse-category view, directly comparable with the
        // counter-based fig6_stall_breakdown output.
        let mut header = vec!["source".to_string()];
        header.extend(kinds.iter().map(|k| k.label().to_string()));
        let mut t = TextTable::new(header);
        for (label, pick) in [
            (
                "events",
                Box::new(|c: &Cell, k: StallKind| c.obs.stalls_by_kind()[k])
                    as Box<dyn Fn(&Cell, StallKind) -> u64>,
            ),
            (
                "counters",
                Box::new(|c: &Cell, k: StallKind| c.stats.stalls[k]),
            ),
        ] {
            let mut row = vec![label.to_string()];
            for kind in kinds {
                let v: f64 = cells
                    .iter()
                    .map(|c| pick(c, kind) as f64 / c.stats.instructions.max(1) as f64)
                    .sum::<f64>()
                    / n;
                row.push(cpi(v));
            }
            t.row(row);
        }
        println!("{}", t.render());

        // Histogram summaries from representative kernels.
        if model == MachineModel::Baseline {
            for cell in &cells {
                let d = cell.obs.dmiss_latency();
                let m = cell.obs.mshr_residency();
                let f = cell.obs.fpq_depth();
                if cell.name == "espresso" {
                    println!(
                        "espresso/baseline D$ miss latency: {} misses, mean {:.1}, \
                         p95 {}, max {}",
                        d.count(),
                        d.mean(),
                        d.percentile(0.95),
                        d.max()
                    );
                    println!(
                        "espresso/baseline MSHR residency: mean {:.1}, p95 {}, max {}",
                        m.mean(),
                        m.percentile(0.95),
                        m.max()
                    );
                }
                if cell.name == "nasa7" && f.count() > 0 {
                    println!(
                        "nasa7/baseline FPU queue depth: mean {:.2}, p95 {}, max {}",
                        f.mean(),
                        f.percentile(0.95),
                        f.max()
                    );
                }
            }
        }

        // Optional Perfetto dump of one kernel on the baseline model.
        if model == MachineModel::Baseline {
            if let Some(path) = arg_value("--trace-out") {
                let kernel = arg_value("--kernel").unwrap_or_else(|| "espresso".to_string());
                let cell = cells
                    .iter()
                    .find(|c| c.name == kernel)
                    .unwrap_or_else(|| panic!("unknown kernel `{kernel}`"));
                std::fs::write(&path, cell.obs.chrome_trace_json()).expect("trace file writes");
                println!(
                    "Perfetto trace of {kernel}/baseline written to {path} \
                     ({} events, {} dropped)",
                    cell.obs.len(),
                    cell.obs.dropped()
                );
            }
        }
    }

    println!(
        "\ncross-check vs fig6_stall_breakdown counters: worst deviation \
         {:.4}% ({}, {})",
        100.0 * worst.0,
        worst.1,
        worst.2
    );
}
