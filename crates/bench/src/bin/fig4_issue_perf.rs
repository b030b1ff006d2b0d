//! Figure 4: dual- and single-issue cost/performance for the three models
//! at 17- and 35-cycle secondary latencies, and the paper's four claims.
//! Prints the Figure 4 section of `EXPERIMENTS.md` at `--scale`
//! ([`aurora_bench::report::fig4`]).

use aurora_bench::{harness::scale_from_args, report};

fn main() {
    print!("{}", report::fig4(scale_from_args()));
}
