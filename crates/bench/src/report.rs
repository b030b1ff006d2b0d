//! The paper report, one function per section of `EXPERIMENTS.md`: each
//! runs its section's experiment at a [`Scale`] and returns the markdown,
//! from the section's `## ` heading up to the next section's.
//! `paper_report` concatenates them into `EXPERIMENTS.md`, and each
//! `fig*`/`tab*` binary prints its own section, so every experiment's
//! configurations and loops are defined here once.
//!
//! Sections build their suites from the process-wide kernel table and
//! replay through [`run_suite`]/[`run_matrix`], so a trace is captured at
//! most once per process however many sections use it.

use std::fmt::Write as _;

use aurora_core::{FpIssuePolicy, IssueWidth, MachineConfig, MachineModel, SimStats, StallKind};
use aurora_cost::ipu_cost;
use aurora_mem::LatencyModel;
use aurora_workloads::{FpBenchmark, IntBenchmark, Scale, Workload};

use crate::harness::{cpi, cpi_range, fp_suite, integer_suite, run_matrix, run_suite};

/// A fraction as a percentage with one decimal, the report's precision.
fn pct(x: f64) -> String {
    format!("{:.1}", 100.0 * x)
}

/// The report's title and the command that regenerates it.
pub fn intro(scale: Scale) -> String {
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
    md
}

/// The experiment book: one row per paper artifact, mapping it to the
/// binary, the exact command, where the output lands, and how far from
/// the paper's numbers to expect it. Emitted by the generator so
/// `--write` regeneration cannot orphan it.
pub fn book(scale: Scale) -> String {
    let mut md = String::new();
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
            "ICache+Load dominate base/large as in the paper; small diverges: Load, not LSU-busy, dominates",
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
            "stdout, 5 annotated points + the 27-point (cost, CPI) table",
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
            "`fig9_fpu_sweeps -- --scale small`",
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
            "not a paper number: eight rules (docs/LINTS.md) that keep the replay and warming \
             hot path free of allocation, panics and unchecked cycle/count arithmetic, every \
             `SimStats` counter read, pool workers free of blocking calls, socket-derived sizes \
             bounded, and suppression pragmas well-formed and live; every `MachineConfig` knob \
             is checked by effect in tests/knob_effects.rs",
        ),
    ] {
        let _ = writeln!(md, "| {artifact} | {binary} | {cmd} | {output} | {delta} |");
    }
    let _ = writeln!(md);
    md
}

/// Figure 4: single/dual issue x three models x two latencies, and the
/// paper's four claims.
pub fn fig4(scale: Scale) -> String {
    let mut md = String::new();
    let suite = integer_suite(scale);
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
                let r = cpi_range(&run_suite(&cfg, &suite));
                let _ = writeln!(
                    md,
                    "| {latency} | {model}/{issue} | {} | {} | {} | {} |",
                    ipu_cost(&cfg).0,
                    cpi(r.min),
                    cpi(r.avg),
                    cpi(r.max)
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
    md
}

/// Tables 3 and 4: prefetch hit rates.
pub fn tab3_tab4(scale: Scale) -> String {
    let mut md = String::new();
    let suite = integer_suite(scale);
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
            let results = run_suite(&cfg, &suite);
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
    md
}

/// Figure 5: prefetch removal — average CPI with and without the
/// stream buffers, then each pair's cost and CPI extremes.
pub fn fig5(scale: Scale) -> String {
    let mut md = String::new();
    let suite = integer_suite(scale);
    let _ = writeln!(
        md,
        "## Figure 5 — effect of removing prefetch (dual issue)\n"
    );
    let _ = writeln!(
        md,
        "| latency | model | avg CPI with | avg CPI without | gain | paper gain |\n|---|---|---|---|---|---|"
    );
    let mut extremes = String::new();
    for latency in [17u32, 35] {
        for model in MachineModel::ALL {
            let with = model.config(IssueWidth::Dual, LatencyModel::Fixed(latency));
            let mut without = with.clone();
            without.prefetch_enabled = false;
            let rw = cpi_range(&run_suite(&with, &suite));
            let ro = cpi_range(&run_suite(&without, &suite));
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
                cpi(rw.avg),
                cpi(ro.avg),
                pct((ro.avg - rw.avg) / ro.avg)
            );
            let _ = writeln!(
                extremes,
                "| {latency} | {model} | {} | {} | {} | {} | {} | {} | {}% |",
                ipu_cost(&with).0,
                ipu_cost(&without).0,
                cpi(rw.min),
                cpi(ro.min),
                cpi(rw.max),
                cpi(ro.max),
                pct((ro.max - rw.max) / ro.max)
            );
        }
    }
    let _ = writeln!(
        md,
        "\nCost and CPI extremes with and without prefetch; the worst-case gain \
         compares the highest CPIs:\n"
    );
    let _ = writeln!(
        md,
        "| latency | model | cost RBE with | cost RBE without | min CPI with | min CPI without | \
         max CPI with | max CPI without | worst-case gain |\n|---|---|---|---|---|---|---|---|---|"
    );
    let _ = writeln!(
        md,
        "{extremes}\npaper: prefetch improves the worst case by 25% @L17 and 35% @L35.\n"
    );
    md
}

/// Figure 6: stall breakdown.
pub fn fig6(scale: Scale) -> String {
    let mut md = String::new();
    let suite = integer_suite(scale);
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
        let results = run_suite(&cfg, &suite);
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
            cpi(mean(StallKind::ICache)),
            cpi(mean(StallKind::Load)),
            cpi(mean(StallKind::RobFull)),
            cpi(mean(StallKind::LsuBusy)),
            cpi(other),
            cpi(total)
        );
    }
    let _ = writeln!(
        md,
        "\npaper: the small model is dominated by waiting on the LSU; base and \
         large by instruction misses and the pipelined data cache's 3-cycle \
         latency (Load); the ROB matters little for base/large.\n"
    );
    md
}

/// Figure 7: the 1–4 MSHR sweep, then the paper's two curves — each
/// model's standard configuration against its MSHR variation (small
/// 1→2, baseline 2→4, large 4→2), read off the same sweep.
pub fn fig7(scale: Scale) -> String {
    let mut md = String::new();
    let suite = integer_suite(scale);
    let _ = writeln!(md, "## Figure 7 — MSHR count (degree of non-blocking)\n");
    let _ = writeln!(md, "| model | 1 MSHR | 2 | 3 | 4 |\n|---|---|---|---|---|");
    let mut sweeps = Vec::new();
    for model in MachineModel::ALL {
        let mut points = Vec::new();
        for mshrs in 1..=4usize {
            let mut cfg = model.config(IssueWidth::Dual, LatencyModel::Fixed(17));
            cfg.mshr_entries = mshrs;
            let r = cpi_range(&run_suite(&cfg, &suite));
            points.push((cfg, r));
        }
        let cells: Vec<String> = points.iter().map(|(_, r)| cpi(r.avg)).collect();
        let _ = writeln!(md, "| {model} | {} |", cells.join(" | "));
        sweeps.push((model, points));
    }
    let _ = writeln!(
        md,
        "\npaper: the small model improves dramatically with a second MSHR; \
         all models perform best with 4.\n"
    );
    let _ = writeln!(
        md,
        "The paper's two curves, each standard configuration against its MSHR \
         variation:\n"
    );
    let _ = writeln!(
        md,
        "| config | MSHRs | cost RBE | min CPI | avg CPI | max CPI |\n|---|---|---|---|---|---|"
    );
    for (model, points) in &sweeps {
        let standard = model
            .config(IssueWidth::Dual, LatencyModel::Fixed(17))
            .mshr_entries;
        let variation = match model {
            MachineModel::Small => 2,
            MachineModel::Baseline => 4,
            MachineModel::Large => 2,
        };
        for (tag, mshrs) in [("standard", standard), ("variation", variation)] {
            let (cfg, r) = &points[mshrs - 1];
            let _ = writeln!(
                md,
                "| {model}/{tag} | {mshrs} | {} | {} | {} | {} |",
                ipu_cost(cfg).0,
                cpi(r.min),
                cpi(r.avg),
                cpi(r.max)
            );
        }
    }
    let _ = writeln!(md);
    md
}

/// Table 5 and the §5.5 write-traffic reduction: hit rates, the mean
/// traffic ratio, then the traffic ratio per benchmark.
pub fn tab5(scale: Scale) -> String {
    let mut md = String::new();
    let suite = integer_suite(scale);
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
    let mut traffic_rows = String::new();
    for model in MachineModel::ALL {
        let cfg = model.config(IssueWidth::Dual, LatencyModel::Fixed(17));
        let results = run_suite(&cfg, &suite);
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
        let per_benchmark: Vec<String> = results
            .iter()
            .map(|(_, s)| pct(s.write_cache.traffic_ratio()))
            .collect();
        let _ = writeln!(traffic_rows, "| {model} | {} |", per_benchmark.join(" | "));
    }
    let _ = writeln!(
        md,
        "\nStore transactions as % of store instructions, per benchmark:\n"
    );
    let _ = writeln!(
        md,
        "| model | {} |\n|---|{}\n{traffic_rows}",
        names.join(" | "),
        "---|".repeat(names.len())
    );
    md
}

/// One memory-element allocation of the Figure 8 scatter: write-cache
/// lines, ROB entries, prefetch buffers, MSHRs, prefetch enabled.
#[derive(Clone, Copy)]
struct Alloc(usize, usize, usize, usize, bool);

/// The eight allocations each dual-issue I-cache size is crossed with.
const FIG8_DUAL_ALLOCS: [Alloc; 8] = [
    Alloc(2, 2, 2, 1, true), // the small model's elements, 1 MSHR (A)
    Alloc(2, 2, 2, 2, true),
    Alloc(4, 6, 4, 1, true),  // 1 MSHR (A)
    Alloc(4, 6, 4, 2, false), // the baseline's elements, prefetch off (C at 2K)
    Alloc(4, 6, 4, 2, true),  // prefetch on (D at 2K)
    Alloc(4, 6, 4, 4, true),  // the recommended elements (E at 4K)
    Alloc(8, 8, 8, 2, true),
    Alloc(8, 8, 8, 4, true), // the large model's elements (B at 4K)
];

/// The points the paper annotates, in the order the headline table
/// prints them: each row's text and the scatter point it reads. Every
/// one is a Table 1 preset or a variation of one (A is small/dual, C/D
/// baseline/dual with prefetch off/on, B large/dual).
const FIG8_ANNOTATED: [(&str, &str); 5] = [
    (
        "A: small/dual, 1 MSHR (blocking)",
        "1K/dual/wc2rob2pf2mshr1",
    ),
    (
        "C: baseline/dual, prefetch off",
        "2K/dual/wc4rob6pf4mshr2-nopf",
    ),
    ("D: baseline/dual, prefetch on", "2K/dual/wc4rob6pf4mshr2"),
    ("B: large/dual (plateau)", "4K/dual/wc8rob8pf8mshr4"),
    (
        "E: recommended (4K I$, 4 WC, 6 ROB, 4 MSHR)",
        "4K/dual/wc4rob6pf4mshr4",
    ),
];

/// A Figure 8 machine: the baseline at 17 cycles with `icache_kb` of
/// I-cache, a D-cache 16 times larger (as in Table 1) and the elements
/// of `a`, named after all three.
fn fig8_config(icache_kb: u32, issue: IssueWidth, a: Alloc) -> MachineConfig {
    let mut cfg = MachineModel::Baseline.config(issue, LatencyModel::Fixed(17));
    cfg.icache_bytes = icache_kb * 1024;
    cfg.dcache_bytes = icache_kb * 16 * 1024;
    cfg.write_cache_lines = a.0;
    cfg.rob_entries = a.1;
    cfg.prefetch_buffers = a.2.max(1);
    cfg.prefetch_enabled = a.4 && a.2 > 0;
    cfg.mshr_entries = a.3;
    cfg.name = format!(
        "{icache_kb}K/{issue}/wc{}rob{}pf{}mshr{}{}",
        a.0,
        a.1,
        a.2,
        a.3,
        if cfg.prefetch_enabled { "" } else { "-nopf" }
    );
    cfg
}

/// The Figure 8 scatter, each point with its plot label: single-issue
/// machines of the three cache sizes (squares), then dual issue at a
/// 1/2/4 KB I-cache (diamonds/triangles/circles) crossed with
/// [`FIG8_DUAL_ALLOCS`]; `/A`–`/E` mark the paper's annotations.
fn fig8_points() -> Vec<(String, MachineConfig)> {
    let mut points = Vec::new();
    for (kb, alloc) in [
        (1u32, Alloc(2, 2, 2, 1, true)),
        (2, Alloc(4, 6, 4, 2, true)),
        (4, Alloc(8, 8, 8, 4, true)),
    ] {
        let label = if kb == 1 { "sq/A" } else { "sq" };
        points.push((label.to_owned(), fig8_config(kb, IssueWidth::Single, alloc)));
    }
    for (kb, shape) in [(1u32, "dia"), (2, "tri"), (4, "cir")] {
        for (i, &alloc) in FIG8_DUAL_ALLOCS.iter().enumerate() {
            let note = match (kb, i) {
                (_, 0 | 2) => "/A",
                (2, 3) => "/C",
                (2, 4) => "/D",
                (4, 5) => "/E",
                (4, 7) => "/B",
                _ => "",
            };
            points.push((
                format!("{shape}{note}"),
                fig8_config(kb, IssueWidth::Dual, alloc),
            ));
        }
    }
    points
}

/// Figure 8: espresso's full cost/performance scatter at 17 cycles, run
/// once; the headline table reads the paper's annotated points from it.
pub fn fig8(scale: Scale) -> String {
    let mut md = String::new();
    let _ = writeln!(
        md,
        "## Figure 8 — espresso full cost/performance scatter (L17)\n"
    );
    let points = fig8_points();
    let configs: Vec<MachineConfig> = points.iter().map(|(_, cfg)| cfg.clone()).collect();
    let espresso = IntBenchmark::Espresso.workload(scale);
    let grid = run_matrix(&configs, std::slice::from_ref(&espresso));
    let cost_cpi = |cfg: &MachineConfig, row: &[SimStats]| (ipu_cost(cfg).0, row[0].cpi());
    let annotated: Vec<(u64, f64)> = FIG8_ANNOTATED
        .iter()
        .map(|(_, name)| {
            let i = configs
                .iter()
                .position(|cfg| cfg.name == *name)
                .unwrap_or_else(|| panic!("no Figure 8 point named {name}"));
            cost_cpi(&configs[i], &grid[i])
        })
        .collect();
    let _ = writeln!(md, "| point | cost RBE | CPI |\n|---|---|---|");
    for ((row, _), (cost, c)) in FIG8_ANNOTATED.iter().zip(&annotated) {
        let _ = writeln!(md, "| {row} | {cost} | {} |", cpi(*c));
    }
    let (b_cost, b_cpi) = annotated[3];
    let (e_cost, e_cpi) = annotated[4];
    let _ = writeln!(
        md,
        "\nE achieves {:.1}% of B's performance at {:.1}% of its cost \
         (paper: \"nearly the same performance as the large model at a much \
         lower cost\"). The full {}-point scatter follows (sq: single issue; \
         dia/tri/cir: dual issue with a 1/2/4 KB I$; /A–/E: the annotated \
         points).\n",
        100.0 * b_cpi / e_cpi,
        100.0 * e_cost as f64 / b_cost as f64,
        points.len()
    );
    let _ = writeln!(md, "| point | config | cost RBE | CPI |\n|---|---|---|---|");
    for ((label, cfg), row) in points.iter().zip(&grid) {
        let (cost, c) = cost_cpi(cfg, row);
        let _ = writeln!(md, "| {label} | {} | {cost} | {} |", cfg.name, cpi(c));
    }
    let _ = writeln!(md);
    md
}

/// Table 6: FPU issue policies.
pub fn tab6(scale: Scale) -> String {
    let mut md = String::new();
    let suite = fp_suite(scale);
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
    let grid = run_matrix(&configs, &suite);
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
                Some(row) => format!("{} ({})", cpi(vals[i]), cpi(pv(row))),
                None => cpi(vals[i]),
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
        cpi(sums[0] / n),
        cpi(sums[1] / n),
        cpi(sums[2] / n)
    );
    let _ = writeln!(
        md,
        "\nmeasured gains over in-order: single {}%, dual {}% (paper: 12% and 21%).\n",
        pct((sums[0] - sums[1]) / sums[0]),
        pct((sums[0] - sums[2]) / sums[0])
    );
    md
}

/// Figure 9: FPU design-space sweeps, and the §5.10 pipelining ablation.
pub fn fig9(scale: Scale) -> String {
    let mut md = String::new();
    let suite = fp_suite(scale);
    let _ = writeln!(
        md,
        "## Figure 9 — FPU resource and latency sweeps (avg CPI)\n"
    );
    // Every point is the §5.9 machine (baseline, dual issue, single-issue
    // out-of-order FPU) with one change.
    let point = |change: &dyn Fn(&mut MachineConfig)| {
        let mut cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
        cfg.fpu.issue_policy = FpIssuePolicy::OutOfOrderSingle;
        change(&mut cfg);
        cfg
    };
    let avg_cpis = |configs: &[MachineConfig]| -> Vec<f64> {
        run_matrix(configs, &suite)
            .iter()
            .map(|row| row.iter().map(SimStats::cpi).sum::<f64>() / row.len() as f64)
            .collect()
    };
    type Knob = fn(&mut MachineConfig, u32);
    let sweeps: [(&str, [u32; 5], &str, Knob); 7] = [
        (
            "9a instruction queue",
            [1, 2, 3, 4, 5],
            "flat beyond 3 entries",
            |c, v| {
                c.fpu.instr_queue = v as usize;
            },
        ),
        (
            "9b load queue",
            [1, 2, 3, 4, 5],
            "two entries needed",
            |c, v| {
                c.fpu.load_queue = v as usize;
            },
        ),
        (
            "9c reorder buffer",
            [3, 5, 7, 9, 11],
            "insensitive beyond 6",
            |c, v| {
                c.fpu.rob_entries = v as usize;
            },
        ),
        ("9d add latency", [1, 2, 3, 4, 5], "~17% swing", |c, v| {
            c.fpu.add_latency = v;
        }),
        (
            "9e multiply latency",
            [1, 2, 3, 4, 5],
            "~17% swing (4%/cycle)",
            |c, v| {
                c.fpu.mul_latency = v;
            },
        ),
        (
            "9f divide latency",
            [10, 15, 19, 25, 30],
            "~8% swing",
            |c, v| {
                c.fpu.div_latency = v;
            },
        ),
        (
            "9g convert latency",
            [1, 2, 3, 4, 5],
            "negligible",
            |c, v| {
                c.fpu.cvt_latency = v;
            },
        ),
    ];
    for (label, values, paper, knob) in sweeps {
        let configs: Vec<MachineConfig> = values.iter().map(|&v| point(&|c| knob(c, v))).collect();
        let cells: Vec<String> = values
            .iter()
            .zip(avg_cpis(&configs))
            .map(|(v, c)| format!("{v}: {}", cpi(c)))
            .collect();
        let _ = writeln!(md, "* **{label}** — {} — paper: {paper}", cells.join(", "));
    }

    // §5.10 pipelining ablation.
    let unpipelined = point(&|c| {
        c.fpu.add_pipelined = false;
        c.fpu.mul_pipelined = false;
    });
    let cpis = avg_cpis(&[point(&|_| {}), unpipelined]);
    let (c0, c1) = (cpis[0], cpis[1]);
    let _ = writeln!(
        md,
        "* **§5.10 non-pipelined add+mul** — {} vs {} pipelined: {}% degradation (paper: <5%)\n",
        cpi(c1),
        cpi(c0),
        pct((c1 - c0) / c0)
    );
    md
}

/// §5.9 extension: double-word FP loads/stores.
pub fn extension_doubleword(scale: Scale) -> String {
    let mut md = String::new();
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
    // One sweep over both variants: single-word kernels first, then the
    // double-word ones, in FpBenchmark::ALL order.
    let workloads: Vec<Workload> = FpBenchmark::ALL
        .iter()
        .map(|b| b.workload(scale))
        .chain(
            FpBenchmark::ALL
                .iter()
                .map(|b| b.workload_doubleword(scale)),
        )
        .collect();
    let row = run_matrix(std::slice::from_ref(&cfg), &workloads)
        .pop()
        .expect("one row");
    let (single, double) = row.split_at(FpBenchmark::ALL.len());
    let mut total_gain = 0.0;
    for ((b, sw), dw) in FpBenchmark::ALL.iter().zip(single).zip(double) {
        // Compare cycles for the same work, not CPI (instruction counts differ).
        let gain = (sw.cycles as f64 - dw.cycles as f64) / sw.cycles as f64;
        total_gain += gain;
        let _ = writeln!(
            md,
            "| {} | {} | {} | {}% fewer cycles |",
            b.name(),
            cpi(sw.cpi()),
            cpi(dw.cpi()),
            pct(gain)
        );
    }
    let _ = writeln!(
        md,
        "\naverage cycle reduction from double-word FP memory ops: {}%\n",
        pct(total_gain / FpBenchmark::ALL.len() as f64)
    );
    md
}

/// Appendix: the raw event counters behind the derived rates above —
/// eviction and MSHR pressure, prefetch traffic, write-cache coalescing,
/// and BIU bus occupancy. These are the §5 resource-utilisation numbers
/// the paper's cost/performance arguments lean on.
pub fn utilization(scale: Scale) -> String {
    let mut md = String::new();
    let suite = integer_suite(scale);
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
        let results = run_suite(&cfg, &suite);
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
    let fpw = fp_suite(scale);
    let results = run_suite(&cfg, &fpw);
    let pairs: u64 = results.iter().map(|(_, s)| s.fp_dual_issues).sum();
    let fp: u64 = results.iter().map(|(_, s)| s.fp_instructions).sum();
    let _ = writeln!(
        md,
        "\nFPU pair issue (dual policy, FP suite): {pairs} of {fp} FP \
         instructions issued as the second half of an FPU pair ({}%).\n",
        pct(pairs as f64 / fp.max(1) as f64)
    );
    md
}

/// The closing list of where the reproduction departs from the paper,
/// and why.
pub const DIVERGENCES: &str = "\n## Summary of divergences\n\n\
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
    SPEC92 code.\n\
    * Figure 6's small model is dominated by Load stalls, not by\n\
    waiting on the LSU as in the paper (at `--scale small`: Load 0.524\n\
    against LSU-busy 0.141 CPI); base and large match. Cause not\n\
    established.\n\n";

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 8's annotated points are the Table 1 presets (and the
    /// recommended variation of large) they are named after, so the
    /// headline table reads the same machines the scatter plots.
    #[test]
    fn fig8_annotations_are_the_presets() {
        let preset = |model: MachineModel| model.config(IssueWidth::Dual, LatencyModel::Fixed(17));
        let mut no_prefetch = preset(MachineModel::Baseline);
        no_prefetch.prefetch_enabled = false;
        let mut recommended = preset(MachineModel::Large);
        recommended.write_cache_lines = 4;
        recommended.rob_entries = 6;
        recommended.prefetch_buffers = 4;
        let expected = [
            preset(MachineModel::Small),
            no_prefetch,
            preset(MachineModel::Baseline),
            preset(MachineModel::Large),
            recommended,
        ];
        let points = fig8_points();
        assert_eq!(points.len(), 27);
        for ((row, name), want) in FIG8_ANNOTATED.iter().zip(&expected) {
            let (_, cfg) = points
                .iter()
                .find(|(_, cfg)| cfg.name == *name)
                .unwrap_or_else(|| panic!("no point named {name}"));
            assert_eq!(cfg.fingerprint(), want.fingerprint(), "{row}");
        }
    }
}
