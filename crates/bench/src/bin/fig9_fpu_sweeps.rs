//! Figure 9: the FPU design-space sweeps — queue sizes (a–c) and
//! functional-unit latencies (d–g) — as average CPI over the FP suite
//! with the single-issue out-of-order policy, plus the §5.10 pipelining
//! ablation. Prints the Figure 9 section of `EXPERIMENTS.md` at `--scale`
//! ([`aurora_bench::report::fig9`]).

use aurora_bench::{harness::scale_from_args, report};

fn main() {
    print!("{}", report::fig9(scale_from_args()));
}
