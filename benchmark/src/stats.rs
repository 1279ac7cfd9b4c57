//! Percentiles, the sample-count rule, quartiles and the compare verdict.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank index of percentile `p` (in `0..=1`) among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps `0.99 * 1000` from rounding up to rank 991.
    (((p * n as f64) - 1e-9).ceil().max(1.0) as usize).min(n) - 1
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p)]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// The fewest samples a run needs so that percentile `p` has at least
/// [`TAIL_SAMPLES`] beyond it: 1000 for p99, 100 for p90.
pub fn min_samples(p: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, p) >= TAIL_SAMPLES)
        .expect("p < 1")
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the "exclusive" method).
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median.
pub fn rel_spread(values: &[f64]) -> f64 {
    let [q1, med, q3] = quartiles(values);
    (q3 - q1) / med.abs()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges set `b` against baseline set `a` for a metric whose medians may
/// drift by `bound` (a share of `a`'s median) before it counts as a move.
/// When either set's quartile spread exceeds the bound the sets cannot
/// tell a move from noise: the verdict is unresolved unless every run of
/// one side beats every run of the other.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, higher_is_better: bool) -> Verdict {
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let (ma, mb) = (median(a), median(b));
    // Positive `worse` means b moved in the bad direction.
    let worse = sign * (mb - ma) / ma.abs();
    if rel_spread(a) > bound || rel_spread(b) > bound {
        let (a_lo, a_hi) = min_max(a);
        let (b_lo, b_hi) = min_max(b);
        let b_above = b_lo > a_hi;
        let b_below = b_hi < a_lo;
        return match (b_above || b_below, b_above == higher_is_better) {
            (false, _) => Verdict::Unresolved,
            (true, true) => Verdict::Better,
            (true, false) => Verdict::Worse,
        };
    }
    if worse > bound {
        Verdict::Worse
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

fn min_max(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(min_samples(0.99), 1000);
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(2000, 0.99), 20);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&v, 1.0), 1000.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([4, 1, 3, 2, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), [1.5, 3.0, 4.5]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.8, 99.1, 100.4, 99.7];
        assert_eq!(verdict(&a, &same, 0.05, false), Verdict::Unchanged);
        let slower = a.map(|x| x * 1.2);
        assert_eq!(verdict(&a, &slower, 0.05, false), Verdict::Worse);
        assert_eq!(verdict(&a, &slower, 0.05, true), Verdict::Better);
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(verdict(&a, &noisy, 0.05, false), Verdict::Unresolved);
        let far = noisy.map(|x| x + 200.0);
        assert_eq!(verdict(&a, &far, 0.05, false), Verdict::Worse);
    }
}
