//! The master experiment runner: regenerates every table and figure of
//! the paper and emits a markdown report comparing measured numbers with
//! the paper's published values. Each section comes from
//! [`aurora_bench::report`].
//!
//! ```text
//! cargo run --release -p aurora-bench --bin paper_report -- --scale small --write EXPERIMENTS.md
//! ```

use std::fs;

use aurora_bench::harness::scale_from_args;
use aurora_bench::report;

fn main() {
    let scale = scale_from_args();
    let md = [
        report::intro(scale),
        report::book(scale),
        report::fig4(scale),
        report::tab3_tab4(scale),
        report::fig5(scale),
        report::fig6(scale),
        report::fig7(scale),
        report::tab5(scale),
        report::fig8(scale),
        report::tab6(scale),
        report::fig9(scale),
        report::extension_doubleword(scale),
        report::utilization(scale),
        report::DIVERGENCES.to_owned(),
    ]
    .concat();

    let args: Vec<String> = std::env::args().collect();
    match args.windows(2).find(|pair| pair[0] == "--write") {
        Some(pair) => {
            fs::write(&pair[1], &md).expect("write report");
            eprintln!("wrote {}", pair[1]);
        }
        None => print!("{md}"),
    }
}
