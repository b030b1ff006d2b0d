//! Table 6: CPI for the three FPU issue policies (in-order issue with
//! in-order completion, out-of-order completion with single issue, and
//! out-of-order completion with dual issue) across the FP suite. Prints
//! the Table 6 section of `EXPERIMENTS.md` at `--scale`
//! ([`aurora_bench::report::tab6`]).

use aurora_bench::{harness::scale_from_args, report};

fn main() {
    print!("{}", report::tab6(scale_from_args()));
}
