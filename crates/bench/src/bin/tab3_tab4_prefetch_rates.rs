//! Tables 3 and 4: instruction- and data-stream prefetch hit rates (the
//! fraction of primary-cache misses that hit a stream buffer) per model
//! and integer benchmark. Prints the Tables 3 & 4 section of
//! `EXPERIMENTS.md` at `--scale` ([`aurora_bench::report::tab3_tab4`]).

use aurora_bench::{harness::scale_from_args, report};

fn main() {
    print!("{}", report::tab3_tab4(scale_from_args()));
}
