//! The master experiment runner: regenerates every table and figure of
//! the paper and emits a markdown report comparing measured numbers with
//! the paper's published values.
//!
//! ```text
//! cargo run --release -p aurora-bench --bin paper_report -- --scale small --write EXPERIMENTS.md
//! ```

use std::fmt::Write as _;
use std::fs;

use aurora_bench::harness::{
    cpi_range, fp_suite, integer_suite, run_cached, run_matrix, run_suite, scale_from_args,
};
use aurora_core::{FpIssuePolicy, IssueWidth, MachineConfig, MachineModel, SimStats, StallKind};
use aurora_cost::ipu_cost;
use aurora_mem::LatencyModel;
use aurora_workloads::{FpBenchmark, IntBenchmark, Scale, Workload};

fn main() {
    let scale = scale_from_args();
    let mut md = String::new();
    let _ = writeln!(md, "# EXPERIMENTS — paper vs. measured\n");
    let _ = writeln!(
        md,
        "Reproduction of every table and figure in *Resource Allocation in a \
         High Clock Rate Microprocessor* (ASPLOS 1994). Workloads are the \
         from-scratch SPEC92-like kernels of `aurora-workloads` at scale \
         `{scale}`; the substrate is the `aurora-core` cycle-level simulator \
         (see DESIGN.md for the substitution argument). Absolute numbers are \
         not expected to match the authors' traces; the *shape* — who wins, \
         by roughly what factor, where knees fall — is the reproduction \
         target. Regenerate with:\n"
    );
    let _ = writeln!(
        md,
        "```\ncargo run --release -p aurora-bench --bin paper_report -- --scale {scale} --write EXPERIMENTS.md\n```\n"
    );

    book(&mut md, scale);

    let int_suite = integer_suite(scale);
    let fpw = fp_suite(scale);

    fig4(&mut md, &int_suite, scale);
    tab3_tab4(&mut md, &int_suite);
    fig5(&mut md, &int_suite);
    fig6(&mut md, &int_suite);
    fig7(&mut md, &int_suite);
    tab5(&mut md, &int_suite);
    fig8(&mut md, scale);
    tab6(&mut md, &fpw);
    fig9(&mut md, &fpw);
    extension_doubleword(&mut md, scale);
    utilization(&mut md, &int_suite, &fpw);

    let _ = writeln!(
        md,
        "\n## Summary of divergences\n\n\
         * Absolute CPIs are lower than the paper's on the integer suite at\n\
           short latency: the hand-written kernels are better scheduled than\n\
           SPEC92 compiled \"with no additional code rescheduling\" (§4.1).\n\
         * I-stream prefetch hit rates run higher than Table 3 (~75-90% vs.\n\
           ~58% average): the kernels' clone rotation produces more\n\
           sequential miss patterns than real instruction streams.\n\
         * The dual-over-single FPU issue gap is smaller than Table 6's\n\
           (the non-pipelined 5-cycle multiplier of §3.1 bounds both).\n\
         * Figure 9c (FPU reorder buffer) is flatter than the paper's: our\n\
           kernels keep fewer FP instructions in flight than compiled\n\
           SPEC92 code.\n"
    );

    print!("{md}");
    let args: Vec<String> = std::env::args().collect();
    for pair in args.windows(2) {
        if pair[0] == "--write" {
            fs::write(&pair[1], &md).expect("write report");
            eprintln!("wrote {}", pair[1]);
        }
    }
}

/// The experiment book: one row per paper artifact, mapping it to the
/// binary, the exact command, where the output lands, and how far from
/// the paper's numbers to expect it. Emitted by the generator so
/// `--write` regeneration cannot orphan it.
fn book(md: &mut String, scale: Scale) {
    let _ = writeln!(
        md,
        "## The experiment book — how to reproduce each result\n"
    );
    let _ = writeln!(
        md,
        "Every row regenerates one paper artifact. All binaries accept \
         `--scale test|small|full` (~0.1M / 1M / 7M instructions per \
         kernel; this report used `{scale}`) and print to stdout unless an \
         output file is named. Prefix each command with \
         `cargo run --release -p aurora-bench --bin`. Runs are \
         deterministic: two runs at the same scale produce identical \
         numbers, so any diff against this file is a real behaviour \
         change.\n"
    );
    let _ = writeln!(
        md,
        "| paper artifact | binary | command | output | expected delta vs. paper |\n|---|---|---|---|---|"
    );
    for (artifact, binary, cmd, output, delta) in [
        (
            "everything below at once",
            "`paper_report`",
            "`paper_report -- --scale small --write EXPERIMENTS.md`",
            "this file",
            "see per-row notes; Summary of divergences at the end",
        ),
        (
            "Fig. 4 issue width × model",
            "`fig4_issue_perf`",
            "`fig4_issue_perf -- --scale small`",
            "stdout table",
            "CPIs ~0.2–0.5 lower (hand-scheduled kernels); ordering and the paper's four claims hold",
        ),
        (
            "Fig. 5 prefetch removal",
            "`fig5_prefetch_removal`",
            "`fig5_prefetch_removal -- --scale small`",
            "stdout table",
            "baseline gains match (~11–19%); small-model gain is larger than the paper's ~0%",
        ),
        (
            "Fig. 6 stall breakdown (counters)",
            "`fig6_stall_breakdown`",
            "`fig6_stall_breakdown -- --scale small`",
            "stdout table",
            "category ranking matches: LSU dominates small, ICache+Load dominate base/large",
        ),
        (
            "Fig. 6 from attribution events",
            "`obs_report`",
            "`obs_report -- --scale small [--trace-out t.json --kernel espresso]`",
            "stdout tables + optional Perfetto JSON",
            "identical to the counter version by construction (asserted, worst deviation 0%)",
        ),
        (
            "Fig. 7 MSHR count",
            "`fig7_mshr_sweep`",
            "`fig7_mshr_sweep -- --scale small`",
            "stdout table",
            "1→2 MSHR cliff reproduces; all models flat by 4",
        ),
        (
            "Fig. 8 espresso scatter",
            "`fig8_espresso_scatter`",
            "`fig8_espresso_scatter -- --scale small`",
            "stdout, 28 (cost, CPI) points",
            "shape matches: plateau past the recommended point",
        ),
        (
            "Tab. 3/4 prefetch hit rates",
            "`tab3_tab4_prefetch_rates`",
            "`tab3_tab4_prefetch_rates -- --scale small`",
            "stdout tables",
            "I-stream runs high (~75–90% vs. 58%): kernel streams are more sequential than SPEC92",
        ),
        (
            "Tab. 5 write-cache hits",
            "`tab5_write_cache`",
            "`tab5_write_cache -- --scale small`",
            "stdout table",
            "hit rates and the 4-line knee match; traffic ratios within ~10 points",
        ),
        (
            "Tab. 6 FPU issue policies",
            "`tab6_fpu_policies`",
            "`tab6_fpu_policies -- --scale small`",
            "stdout table",
            "dual-over-in-order gain smaller than 21% (non-pipelined multiplier bounds both)",
        ),
        (
            "Fig. 9 FPU sweeps",
            "`fig9_fpu_sweeps`",
            "`fig9_fpu_sweeps -- --scale small [--ablation]`",
            "stdout curves",
            "knees at the paper's recommended sizes; 9c flatter (fewer FP ops in flight)",
        ),
        (
            "Tab. 2 area model",
            "`tab1_tab2_models`",
            "`tab1_tab2_models`",
            "stdout RBE table",
            "exact — arithmetic, not simulation",
        ),
        (
            "§5 budgeted design search",
            "`optimize`",
            "`optimize -- --budget 36000 --scale small`",
            "stdout frontier",
            "rediscovers the paper's recommendation (baseline + MSHR upgrade)",
        ),
        (
            "sweep and query speed",
            "`aurora_benchmark`",
            "`cargo run --release -p aurora-serve --bin aurora_benchmark -- run --seed 1 --out FILE` \
             (full command)",
            "stdout and the result file",
            "not a paper number: end-to-end set-up time, throughput, latency and peak memory of \
             cold and warm design-space sweeps and of warm and cold daemon queries \
             (crates/serve/src/bin/aurora_benchmark/README.md); every row above replays \
             through the block engine, asserted bit-identical to per-op replay, and sampled \
             mode's suite-mean CPI error is gated at 2% by tests/sampled_accuracy.rs",
        ),
        (
            "workspace invariant gate",
            "`aurora-lint`",
            "`cargo run -q -p aurora-lint -- --format sarif > lint.sarif` (full command)",
            "`lint.sarif` + exit code",
            "not a paper number: the transitive hot-path, determinism and unit-safety rules \
             (docs/LINTS.md) that keep every row above allocation-free and bit-reproducible",
        ),
    ] {
        let _ = writeln!(md, "| {artifact} | {binary} | {cmd} | {output} | {delta} |");
    }
    let _ = writeln!(md);
}

fn pct(x: f64) -> String {
    format!("{:.1}", 100.0 * x)
}

fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Figure 4: single/dual issue x three models x two latencies.
fn fig4(md: &mut String, suite: &[Workload], scale: Scale) {
    let _ = writeln!(md, "## Figure 4 — issue width and model cost/performance\n");
    let _ = writeln!(
        md,
        "| latency | config | cost RBE | min CPI | avg CPI | max CPI |\n|---|---|---|---|---|---|"
    );
    let mut avgs = Vec::new();
    for latency in [17u32, 35] {
        for issue in [IssueWidth::Single, IssueWidth::Dual] {
            for model in MachineModel::ALL {
                let cfg = model.config(issue, LatencyModel::Fixed(latency));
                let r = cpi_range(&run_suite(&cfg, suite));
                let _ = writeln!(
                    md,
                    "| {latency} | {model}/{issue} | {} | {} | {} | {} |",
                    ipu_cost(&cfg).0,
                    f3(r.min),
                    f3(r.avg),
                    f3(r.max)
                );
                avgs.push((latency, format!("{model}/{issue}"), r.avg));
            }
        }
    }
    let avg = |l: u32, n: &str| {
        avgs.iter()
            .find(|(al, an, _)| *al == l && an == n)
            .unwrap()
            .2
    };
    let _ = writeln!(
        md,
        "\n| claim | paper | measured |\n|---|---|---|\n\
         | dual-issue CPI gain on baseline @L35 | 9.9% | {}% |\n\
         | large/dual best vs baseline/dual @L17 | 12.7% | {}% |\n\
         | second pipe on large model, extra cost | 20.4% | {:.1}% |\n\
         | baseline/single beats small/dual at similar cost | yes | {} |\n",
        pct((avg(35, "baseline/single") - avg(35, "baseline/dual")) / avg(35, "baseline/single")),
        pct((avg(17, "baseline/dual") - avg(17, "large/dual")) / avg(17, "baseline/dual")),
        100.0 * 8192.0
            / ipu_cost(&MachineModel::Large.config(IssueWidth::Single, LatencyModel::Fixed(17)))
                .as_f64(),
        if avg(17, "baseline/single") < avg(17, "small/dual") {
            "yes"
        } else {
            "no"
        },
    );
    let _ = scale;
}

/// Tables 3 and 4: prefetch hit rates.
fn tab3_tab4(md: &mut String, suite: &[Workload]) {
    let _ = writeln!(
        md,
        "## Tables 3 & 4 — prefetch stream-buffer hit rates (%)\n"
    );
    let names: Vec<&str> = suite.iter().map(Workload::name).collect();
    for (title, data_stream, paper_avg) in [
        ("Table 3 (I-stream)", false, "58%"),
        ("Table 4 (D-stream)", true, "~12%"),
    ] {
        let _ = writeln!(md, "### {title} — paper average {paper_avg}\n");
        let _ = writeln!(
            md,
            "| model | {} | avg |\n|---|{}---|",
            names.join(" | "),
            "---|".repeat(names.len())
        );
        for model in MachineModel::ALL {
            let cfg = model.config(IssueWidth::Dual, LatencyModel::Fixed(17));
            let results = run_suite(&cfg, suite);
            let rates: Vec<f64> = results
                .iter()
                .map(|(_, s)| {
                    if data_stream {
                        s.dstream.hit_rate()
                    } else {
                        s.istream.hit_rate()
                    }
                })
                .collect();
            let avg: f64 = rates.iter().sum::<f64>() / rates.len() as f64;
            let cells: Vec<String> = rates.iter().map(|&r| pct(r)).collect();
            let _ = writeln!(md, "| {model} | {} | {} |", cells.join(" | "), pct(avg));
        }
        let _ = writeln!(md);
    }
}

/// Figure 5: prefetch removal.
fn fig5(md: &mut String, suite: &[Workload]) {
    let _ = writeln!(
        md,
        "## Figure 5 — effect of removing prefetch (dual issue)\n"
    );
    let _ = writeln!(
        md,
        "| latency | model | avg CPI with | avg CPI without | gain | paper gain |\n|---|---|---|---|---|---|"
    );
    for latency in [17u32, 35] {
        for model in MachineModel::ALL {
            let with = model.config(IssueWidth::Dual, LatencyModel::Fixed(latency));
            let mut without = with.clone();
            without.prefetch_enabled = false;
            let rw = cpi_range(&run_suite(&with, suite));
            let ro = cpi_range(&run_suite(&without, suite));
            let paper = match (model, latency) {
                (MachineModel::Baseline, 17) => "11%",
                (MachineModel::Baseline, 35) => "19%",
                (MachineModel::Large, 17) => "11%",
                (MachineModel::Large, 35) => "17%",
                (MachineModel::Small, _) => "~0%",
                _ => "-",
            };
            let _ = writeln!(
                md,
                "| {latency} | {model} | {} | {} | {}% | {paper} |",
                f3(rw.avg),
                f3(ro.avg),
                pct((ro.avg - rw.avg) / ro.avg)
            );
        }
    }
    let _ = writeln!(md);
}

/// Figure 6: stall breakdown.
fn fig6(md: &mut String, suite: &[Workload]) {
    let _ = writeln!(
        md,
        "## Figure 6 — stall-penalty CPI breakdown (dual, L17)\n"
    );
    let _ = writeln!(
        md,
        "| model | ICache | Load | ROB-full | LSU-busy | other | total CPI |\n|---|---|---|---|---|---|---|"
    );
    for model in MachineModel::ALL {
        let cfg = model.config(IssueWidth::Dual, LatencyModel::Fixed(17));
        let results = run_suite(&cfg, suite);
        let n = results.len() as f64;
        let mean = |kind: StallKind| -> f64 {
            results.iter().map(|(_, s)| s.stall_cpi(kind)).sum::<f64>() / n
        };
        let total: f64 = results.iter().map(|(_, s)| s.cpi()).sum::<f64>() / n;
        let other =
            mean(StallKind::FpQueue) + mean(StallKind::FpResult) + mean(StallKind::Interlock);
        let _ = writeln!(
            md,
            "| {model} | {} | {} | {} | {} | {} | {} |",
            f3(mean(StallKind::ICache)),
            f3(mean(StallKind::Load)),
            f3(mean(StallKind::RobFull)),
            f3(mean(StallKind::LsuBusy)),
            f3(other),
            f3(total)
        );
    }
    let _ = writeln!(
        md,
        "\npaper: the small model is dominated by waiting on the LSU; base and \
         large by instruction misses and the pipelined data cache's 3-cycle \
         latency (Load); the ROB matters little for base/large.\n"
    );
}

/// Figure 7: MSHR count.
fn fig7(md: &mut String, suite: &[Workload]) {
    let _ = writeln!(md, "## Figure 7 — MSHR count (degree of non-blocking)\n");
    let _ = writeln!(md, "| model | 1 MSHR | 2 | 3 | 4 |\n|---|---|---|---|---|");
    for model in MachineModel::ALL {
        let mut cells = Vec::new();
        for mshrs in 1..=4usize {
            let mut cfg = model.config(IssueWidth::Dual, LatencyModel::Fixed(17));
            cfg.mshr_entries = mshrs;
            cells.push(f3(cpi_range(&run_suite(&cfg, suite)).avg));
        }
        let _ = writeln!(md, "| {model} | {} |", cells.join(" | "));
    }
    let _ = writeln!(
        md,
        "\npaper: the small model improves dramatically with a second MSHR; \
         all models perform best with 4.\n"
    );
}

/// Table 5 and the §5.5 write-traffic reduction.
fn tab5(md: &mut String, suite: &[Workload]) {
    let _ = writeln!(
        md,
        "## Table 5 — write-cache hit rate (%) and §5.5 store traffic\n"
    );
    let names: Vec<&str> = suite.iter().map(Workload::name).collect();
    let _ = writeln!(
        md,
        "| model | {} | avg hit | traffic (paper) |\n|---|{}---|---|",
        names.join(" | "),
        "---|".repeat(names.len())
    );
    for model in MachineModel::ALL {
        let cfg = model.config(IssueWidth::Dual, LatencyModel::Fixed(17));
        let results = run_suite(&cfg, suite);
        let n = results.len() as f64;
        let cells: Vec<String> = results
            .iter()
            .map(|(_, s)| pct(s.write_cache.hit_rate()))
            .collect();
        let avg_hit: f64 = results
            .iter()
            .map(|(_, s)| s.write_cache.hit_rate())
            .sum::<f64>()
            / n;
        let traffic: f64 = results
            .iter()
            .map(|(_, s)| s.write_cache.traffic_ratio())
            .sum::<f64>()
            / n;
        let paper_traffic = match model {
            MachineModel::Small => "44%",
            MachineModel::Baseline => "30%",
            MachineModel::Large => "22%",
        };
        let _ = writeln!(
            md,
            "| {model} | {} | {} | {}% ({paper_traffic}) |",
            cells.join(" | "),
            pct(avg_hit),
            pct(traffic)
        );
    }
    let _ = writeln!(md);
}

/// Figure 8: espresso scatter (headline points only in the report).
fn fig8(md: &mut String, scale: Scale) {
    let _ = writeln!(
        md,
        "## Figure 8 — espresso full cost/performance scatter (L17)\n"
    );
    let espresso = IntBenchmark::Espresso.workload(scale);
    let point = |name: &str, cfg: &MachineConfig| -> (String, u64, f64) {
        let s = run_cached(cfg, &espresso);
        (name.to_owned(), ipu_cost(cfg).0, s.cpi())
    };
    let mut rows = Vec::new();
    let small_dual = MachineModel::Small.config(IssueWidth::Dual, LatencyModel::Fixed(17));
    rows.push(point("A: small/dual, 1 MSHR (blocking)", &small_dual));
    let base_dual = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
    let mut c = base_dual.clone();
    c.prefetch_enabled = false;
    rows.push(point("C: baseline/dual, prefetch off", &c));
    rows.push(point("D: baseline/dual, prefetch on", &base_dual));
    let large_dual = MachineModel::Large.config(IssueWidth::Dual, LatencyModel::Fixed(17));
    rows.push(point("B: large/dual (plateau)", &large_dual));
    let mut e = large_dual.clone();
    e.write_cache_lines = 4;
    e.rob_entries = 6;
    e.prefetch_buffers = 4;
    rows.push(point("E: recommended (4K I$, 4 WC, 6 ROB, 4 MSHR)", &e));
    let _ = writeln!(md, "| point | cost RBE | CPI |\n|---|---|---|");
    for (name, cost, cpi) in &rows {
        let _ = writeln!(md, "| {name} | {cost} | {} |", f3(*cpi));
    }
    let e_cpi = rows[4].2;
    let b_cpi = rows[3].2;
    let e_cost = rows[4].1;
    let b_cost = rows[3].1;
    let _ = writeln!(
        md,
        "\nE achieves {:.1}% of B's performance at {:.1}% of its cost \
         (paper: \"nearly the same performance as the large model at a much \
         lower cost\"). The full 28-point scatter comes from \
         `fig8_espresso_scatter`.\n",
        100.0 * b_cpi / e_cpi,
        100.0 * e_cost as f64 / b_cost as f64
    );
}

/// Table 6: FPU issue policies.
fn tab6(md: &mut String, suite: &[Workload]) {
    let _ = writeln!(md, "## Table 6 — FPU issue policies (CPI)\n");
    let paper: &[(&str, f64, f64, f64)] = &[
        ("alvinn", 2.113, 2.111, 2.107),
        ("doduc", 1.957, 1.782, 1.671),
        ("ear", 1.299, 1.155, 1.022),
        ("hydro2d", 1.298, 1.123, 0.999),
        ("mdljdp2", 1.344, 1.136, 0.948),
        ("nasa7", 1.702, 1.294, 0.957),
        ("ora", 1.906, 1.780, 1.701),
        ("spice2g6", 1.219, 1.204, 1.203),
        ("su2cor", 1.973, 1.706, 1.557),
    ];
    let _ = writeln!(
        md,
        "| benchmark | in-order (paper) | single (paper) | dual (paper) |\n|---|---|---|---|"
    );
    let configs: Vec<MachineConfig> = [
        FpIssuePolicy::InOrderComplete,
        FpIssuePolicy::OutOfOrderSingle,
        FpIssuePolicy::OutOfOrderDual,
    ]
    .into_iter()
    .map(|policy| {
        let mut cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
        cfg.fpu.issue_policy = policy;
        cfg
    })
    .collect();
    let grid = run_matrix(&configs, suite);
    let mut sums = [0.0f64; 3];
    for (wi, w) in suite.iter().enumerate() {
        let mut vals = Vec::new();
        for (i, policy_row) in grid.iter().enumerate() {
            let c = policy_row[wi].cpi();
            sums[i] += c;
            vals.push(c);
        }
        let p = paper.iter().find(|(n, ..)| *n == w.name());
        let fmt = |i: usize, pv: fn(&(&str, f64, f64, f64)) -> f64| -> String {
            match p {
                Some(row) => format!("{} ({})", f3(vals[i]), f3(pv(row))),
                None => f3(vals[i]),
            }
        };
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} |",
            w.name(),
            fmt(0, |r| r.1),
            fmt(1, |r| r.2),
            fmt(2, |r| r.3)
        );
    }
    let n = suite.len() as f64;
    let _ = writeln!(
        md,
        "| **Average** | {} (1.577) | {} (1.401) | {} (1.248) |",
        f3(sums[0] / n),
        f3(sums[1] / n),
        f3(sums[2] / n)
    );
    let _ = writeln!(
        md,
        "\nmeasured gains over in-order: single {}%, dual {}% (paper: 12% and 21%).\n",
        pct((sums[0] - sums[1]) / sums[0]),
        pct((sums[0] - sums[2]) / sums[0])
    );
}

/// Figure 9: FPU design-space sweeps.
fn fig9(md: &mut String, suite: &[Workload]) {
    let _ = writeln!(
        md,
        "## Figure 9 — FPU resource and latency sweeps (avg CPI)\n"
    );
    let base = || {
        let mut cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
        cfg.fpu.issue_policy = FpIssuePolicy::OutOfOrderSingle;
        cfg
    };
    let avg = |cfg: &MachineConfig| -> f64 {
        let row = &run_matrix(std::slice::from_ref(cfg), suite)[0];
        row.iter().map(aurora_core::SimStats::cpi).sum::<f64>() / row.len() as f64
    };
    let mut sweep =
        |label: &str, values: &[u32], paper: &str, apply: &dyn Fn(&mut MachineConfig, u32)| {
            let cells: Vec<String> = values
                .iter()
                .map(|&v| {
                    let mut cfg = base();
                    apply(&mut cfg, v);
                    format!("{v}: {}", f3(avg(&cfg)))
                })
                .collect();
            let _ = writeln!(md, "* **{label}** — {} — paper: {paper}", cells.join(", "));
        };
    sweep(
        "9a instruction queue",
        &[1, 2, 3, 4, 5],
        "flat beyond 3 entries",
        &|c, v| {
            c.fpu.instr_queue = v as usize;
        },
    );
    sweep(
        "9b load queue",
        &[1, 2, 3, 4, 5],
        "two entries needed",
        &|c, v| {
            c.fpu.load_queue = v as usize;
        },
    );
    sweep(
        "9c reorder buffer",
        &[3, 5, 7, 9, 11],
        "insensitive beyond 6",
        &|c, v| {
            c.fpu.rob_entries = v as usize;
        },
    );
    sweep("9d add latency", &[1, 2, 3, 4, 5], "~17% swing", &|c, v| {
        c.fpu.add_latency = v
    });
    sweep(
        "9e multiply latency",
        &[1, 2, 3, 4, 5],
        "~17% swing (4%/cycle)",
        &|c, v| {
            c.fpu.mul_latency = v;
        },
    );
    sweep(
        "9f divide latency",
        &[10, 15, 19, 25, 30],
        "~8% swing",
        &|c, v| {
            c.fpu.div_latency = v;
        },
    );
    sweep(
        "9g convert latency",
        &[1, 2, 3, 4, 5],
        "negligible",
        &|c, v| c.fpu.cvt_latency = v,
    );

    // §5.10 pipelining ablation.
    let c0 = avg(&base());
    let mut np = base();
    np.fpu.add_pipelined = false;
    np.fpu.mul_pipelined = false;
    let c1 = avg(&np);
    let _ = writeln!(
        md,
        "* **§5.10 non-pipelined add+mul** — {} vs {} pipelined: {}% degradation (paper: <5%)\n",
        f3(c1),
        f3(c0),
        pct((c1 - c0) / c0)
    );
}

/// Appendix: the raw event counters behind the derived rates above —
/// eviction and MSHR pressure, prefetch traffic, write-cache coalescing,
/// and BIU bus occupancy. These are the §5 resource-utilisation numbers
/// the paper's cost/performance arguments lean on.
fn utilization(md: &mut String, suite: &[Workload], fpw: &[Workload]) {
    let _ = writeln!(
        md,
        "## Appendix — machine utilisation and bus traffic (dual, L17)\n"
    );
    let _ = writeln!(
        md,
        "| model | I$+D$ evictions | MSHR full-stalls | MSHR peak occ | prefetches issued | \
         WC stores (hits) | WC loads (hits) | WC store txns | BIU I-fills | \
         BIU write-backs | rx busy % | tx busy % |\n\
         |---|---|---|---|---|---|---|---|---|---|---|---|"
    );
    for model in MachineModel::ALL {
        let cfg = model.config(IssueWidth::Dual, LatencyModel::Fixed(17));
        let results = run_suite(&cfg, suite);
        let sum = |f: &dyn Fn(&SimStats) -> u64| results.iter().map(|(_, s)| f(s)).sum::<u64>();
        let peak = results
            .iter()
            .map(|(_, s)| s.mshr.peak_occupancy)
            .max()
            .unwrap_or(0);
        let cycles = sum(&|s| s.cycles).max(1);
        let _ = writeln!(
            md,
            "| {model} | {} | {} | {peak} | {} | {} ({}) | {} ({}) | {} | {} | {} | {} | {} |",
            sum(&|s| s.icache.evictions + s.dcache.evictions),
            sum(&|s| s.mshr.full_stalls),
            sum(&|s| s.istream.prefetches_issued + s.dstream.prefetches_issued),
            sum(&|s| s.write_cache.store_accesses),
            sum(&|s| s.write_cache.store_hits),
            sum(&|s| s.write_cache.load_accesses),
            sum(&|s| s.write_cache.load_hits),
            sum(&|s| s.write_cache.store_transactions),
            sum(&|s| s.biu.instr_fills),
            sum(&|s| s.biu.write_backs),
            pct(sum(&|s| s.biu.receive_busy_cycles) as f64 / cycles as f64),
            pct(sum(&|s| s.biu.transmit_busy_cycles) as f64 / cycles as f64),
        );
    }
    let cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
    let results = run_suite(&cfg, fpw);
    let pairs: u64 = results.iter().map(|(_, s)| s.fp_dual_issues).sum();
    let fp: u64 = results.iter().map(|(_, s)| s.fp_instructions).sum();
    let _ = writeln!(
        md,
        "\nFPU pair issue (dual policy, FP suite): {pairs} of {fp} FP \
         instructions issued as the second half of an FPU pair ({}%).\n",
        pct(pairs as f64 / fp.max(1) as f64)
    );
}

/// §5.9 extension: double-word FP loads/stores.
fn extension_doubleword(md: &mut String, scale: Scale) {
    let _ = writeln!(md, "## §5.9 extension — double-word FP loads/stores\n");
    let _ = writeln!(
        md,
        "The implemented FPU supports `ldc1`/`sdc1`; the paper predicts an \
         improvement since \"on average 15% of floating point instructions \
         executed in the SPEC benchmarks are loads\".\n"
    );
    let _ = writeln!(
        md,
        "| benchmark | 2x32-bit CPI | 64-bit CPI | gain |\n|---|---|---|---|"
    );
    let cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
    let mut total_gain = 0.0;
    for b in FpBenchmark::ALL {
        let sw = run_cached(&cfg, &b.workload(scale));
        let dw = run_cached(&cfg, &b.workload_doubleword(scale));
        // Compare cycles for the same work, not CPI (instruction counts differ).
        let gain = (sw.cycles as f64 - dw.cycles as f64) / sw.cycles as f64;
        total_gain += gain;
        let _ = writeln!(
            md,
            "| {} | {} | {} | {}% fewer cycles |",
            b.name(),
            f3(sw.cpi()),
            f3(dw.cpi()),
            pct(gain)
        );
    }
    let _ = writeln!(
        md,
        "\naverage cycle reduction from double-word FP memory ops: {}%\n",
        pct(total_gain / FpBenchmark::ALL.len() as f64)
    );
}
