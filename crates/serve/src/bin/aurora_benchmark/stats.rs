//! Summary statistics and the regression verdict.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread printed here is the spread
//! anyone recomputing it from the raw samples gets. Tail latency follows
//! the benchmark's percentile rule: report the highest percentile that
//! still has at least ten samples beyond it.

/// Samples a percentile must leave beyond it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// Percentiles tried, highest first, when picking the reported tail, in
/// tenths of a percent so the rank arithmetic stays exact.
const TAIL_LADDER: [usize; 8] = [999, 995, 990, 980, 950, 900, 750, 500];

/// Median, quartiles and count of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let median = median_sorted(&v)?;
        let (q1, q3) = quartiles_sorted(&v);
        Some(Summary {
            median,
            q1,
            q3,
            n: v.len(),
        })
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        ((self.q3 - self.q1) / self.median).abs()
    }
}

/// The median of `values`, `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

fn median_sorted(v: &[f64]) -> Option<f64> {
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => v.get(n / 2).copied(),
        _ => Some((v.get(n / 2 - 1)? + v.get(n / 2)?) / 2.0),
    }
}

/// First and third quartile by Python's exclusive method; with fewer
/// than two samples both are the lone sample (or 0 for none).
fn quartiles_sorted(v: &[f64]) -> (f64, f64) {
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    // Capped so that `i * m` below cannot overflow; `m - 2` is then the
    // last index, `ld - 1`, or less.
    let m = (ld + 1).min(usize::MAX / 4);
    let cut = |i: usize| -> f64 {
        let j = (i * m / 4).clamp(1, m - 2);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The reported tail percentile for `n` samples: the highest on the
/// ladder whose nearest-rank position leaves at least [`TAIL_SAMPLES`]
/// samples beyond it. `None` when even the median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&pm| n.saturating_sub(nearest_rank(pm, n)) >= TAIL_SAMPLES)
        .map(|pm| pm as f64 / 10.0)
}

/// 1-based nearest-rank position of the percentile `permille / 10`
/// among `n` samples.
fn nearest_rank(permille: usize, n: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// The `p`th percentile of `values` by nearest rank (`p` is rounded to
/// a tenth of a percent).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let permille = (p * 10.0).round() as usize;
    v.get(nearest_rank(permille, v.len()) - 1).copied()
}

/// Outcome of comparing a metric between a base and a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the bound allows.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// Run-to-run spread is wider than the bound, so the data cannot
    /// tell a change from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges candidate samples `b` against base samples `a`.
///
/// `bound` is the share of the base median by which the metric may get
/// worse. Where either side's spread exceeds the bound the verdict is
/// `Unresolved`, unless every candidate run beats every base run (then
/// `Ok`) or loses to every base run by more than the bound (then
/// `Regressed`).
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (Some(sa), Some(sb)) = (Summary::of(a), Summary::of(b)) else {
        return Verdict::Unresolved;
    };
    let worse = |x: f64, y: f64| if lower_is_better { x > y } else { x < y };
    let worse_by = if sa.median == 0.0 {
        0.0
    } else if lower_is_better {
        (sb.median - sa.median) / sa.median.abs()
    } else {
        (sa.median - sb.median) / sa.median.abs()
    };
    let all_better = b.iter().all(|&y| a.iter().all(|&x| worse(x, y)));
    let all_worse = b.iter().all(|&y| a.iter().all(|&x| worse(y, x)));
    if all_better {
        Verdict::Ok
    } else if sa.spread().max(sb.spread()) > bound {
        if all_worse && worse_by > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(1200), Some(99.0)); // 12 beyond p99
        assert_eq!(tail_percentile(1000), Some(99.0)); // exactly 10
        assert_eq!(tail_percentile(999), Some(98.0)); // p99 leaves 9
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 5% slower with a 10% bound: ok. 15% slower: regressed.
        let slower5: Vec<f64> = base.iter().map(|x| x * 1.05).collect();
        let slower15: Vec<f64> = base.iter().map(|x| x * 1.15).collect();
        assert_eq!(verdict(&base, &slower5, true, 0.10), Verdict::Ok);
        assert_eq!(verdict(&base, &slower15, true, 0.10), Verdict::Regressed);
        // The same numbers read as throughput (higher is better) are
        // improvements.
        assert_eq!(verdict(&base, &slower15, false, 0.10), Verdict::Ok);
        // Spread wider than the bound: unresolved, even with equal
        // medians ...
        let noisy = [50.0, 150.0, 100.0, 60.0, 140.0];
        assert_eq!(verdict(&base, &noisy, true, 0.10), Verdict::Unresolved);
        // ... unless every candidate run beats every base run, or loses
        // to every one of them by more than the bound.
        let wide_better = [10.0, 40.0, 20.0, 30.0, 25.0];
        assert_eq!(verdict(&base, &wide_better, true, 0.10), Verdict::Ok);
        let wide_worse = [200.0, 400.0, 300.0, 250.0, 350.0];
        assert_eq!(verdict(&base, &wide_worse, true, 0.10), Verdict::Regressed);
        assert_eq!(verdict(&[], &base, true, 0.10), Verdict::Unresolved);
    }
}
