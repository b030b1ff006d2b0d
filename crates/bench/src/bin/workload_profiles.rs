//! Characterises every workload kernel: instruction mix, working set and
//! branch behaviour — the evidence that each kernel models its SPEC92
//! namesake's dominant character (see `aurora-workloads` docs).

use std::collections::HashSet;

use aurora_bench::harness::{pct, scale_from_args, TextTable};
use aurora_workloads::{FpBenchmark, IntBenchmark, Workload};

fn profile(t: &mut TextTable, w: &Workload) {
    let mut lines: HashSet<u32> = HashSet::new();
    let mut pcs: HashSet<u32> = HashSet::new();
    let s = w
        .run_traced(|op| {
            pcs.insert(op.pc);
            if let Some(ea) = op.kind.effective_address() {
                lines.insert(ea / 32);
            }
        })
        .expect("kernel runs");
    let total = s.total as f64;
    t.row([
        w.name().to_string(),
        s.total.to_string(),
        format!("{}", pcs.len() * 4),
        format!("{}", lines.len() * 32 / 1024),
        pct(s.memory_fraction()),
        pct((s.stores + s.fp_stores) as f64 / total),
        pct(s.branches as f64 / total),
        pct(s.taken_branches as f64 / s.branches.max(1) as f64),
        pct(s.fp_fraction()),
    ]);
}

fn main() {
    let scale = scale_from_args();
    let mut t = TextTable::new([
        "kernel",
        "dyn instrs",
        "code B",
        "data KB",
        "mem%",
        "store%",
        "br%",
        "taken%",
        "fp%",
    ]);
    for b in IntBenchmark::ALL {
        profile(&mut t, &b.workload(scale));
    }
    for b in FpBenchmark::ALL {
        profile(&mut t, &b.workload(scale));
    }
    println!("workload profiles at scale {scale}:");
    println!("{}", t.render());
}
