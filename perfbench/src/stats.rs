//! Order statistics for the benchmark's reports.
//!
//! Percentiles use the nearest-rank rule: the `p`-th percentile of `n`
//! samples is the `⌈p·n/100⌉`-th smallest, and the samples *beyond* it are
//! the `n − rank` larger ones. A tail percentile is only reported when at
//! least [`MIN_BEYOND`] samples lie beyond it, so one outlier can never be
//! the whole tail.

/// Samples that must lie beyond a percentile before it counts as a tail.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a tail is chosen from, lowest first.
pub const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// One percentile of a sample set, with the counts that qualify it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile, in `(0, 100]`.
    pub p: f64,
    /// Its value.
    pub value: f64,
    /// How many samples it was taken from.
    pub n: usize,
    /// How many samples are larger in rank than it.
    pub beyond: usize,
}

impl std::fmt::Display for Percentile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{} = {:.4} (n = {}, {} beyond)",
            self.p, self.value, self.n, self.beyond
        )
    }
}

/// The nearest-rank `p`-th percentile; `None` for an empty set or a `p`
/// outside `(0, 100]`.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    if samples.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // The epsilon keeps exact ranks such as 95 % of 200 from rounding up.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil().clamp(1.0, n as f64) as usize;
    Some(Percentile {
        p,
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// The reported tail: the highest [`LADDER`] percentile with at least
/// [`MIN_BEYOND`] samples beyond it; `None` when there are too few samples
/// for even the median to qualify.
pub fn tail(samples: &[f64]) -> Option<Percentile> {
    LADDER
        .iter()
        .rev()
        .filter_map(|&p| percentile(samples, p))
        .find(|q| q.beyond >= MIN_BEYOND)
}

/// A percentile that must be a qualified tail (at least [`MIN_BEYOND`]
/// samples beyond it), or an error naming what was measured.
pub fn qualified(samples: &[f64], p: f64, what: &str) -> Result<Percentile, String> {
    match percentile(samples, p) {
        Some(q) if q.beyond >= MIN_BEYOND => Ok(q),
        Some(q) => Err(format!(
            "{what}: p{p} has {} samples beyond it (needs {MIN_BEYOND}) out of {}",
            q.beyond, q.n
        )),
        None => Err(format!("{what}: no samples")),
    }
}

/// The median (mean of the two middle values for an even count); `NaN`
/// for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed, so the helpers must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let q = percentile(&ramp(100), 95.0).unwrap();
        assert_eq!((q.value, q.n, q.beyond), (95.0, 100, 5));
        let q = percentile(&ramp(10), 50.0).unwrap();
        assert_eq!((q.value, q.beyond), (5.0, 5));
        assert_eq!(percentile(&ramp(3), 100.0).unwrap().value, 3.0);
        assert_eq!(percentile(&ramp(1), 0.1).unwrap().value, 1.0);
        assert!(percentile(&[], 50.0).is_none());
        assert!(percentile(&ramp(5), 0.0).is_none());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // 200 samples: p95 has exactly 10 beyond, p99 only 2.
        let q = tail(&ramp(200)).unwrap();
        assert_eq!((q.p, q.value, q.beyond), (95.0, 190.0, 10));
        // 1000 samples: p99 has 10 beyond, p99.9 only 1.
        assert_eq!(tail(&ramp(1000)).unwrap().p, 99.0);
        // 20 000 samples: p99.9 has 20 beyond.
        assert_eq!(tail(&ramp(20_000)).unwrap().p, 99.9);
        // 100 samples: p90 has 10 beyond, p95 only 5.
        assert_eq!(tail(&ramp(100)).unwrap().p, 90.0);
    }

    #[test]
    fn too_few_samples_give_no_tail() {
        // 20 samples: even the median has only 10 beyond it …
        assert_eq!(tail(&ramp(20)).unwrap().p, 50.0);
        // … and 19 leave fewer than 10 beyond every ladder percentile.
        assert!(tail(&ramp(19)).is_none());
        assert!(tail(&[]).is_none());
        assert!(qualified(&ramp(199), 95.0, "x").is_err());
        assert_eq!(qualified(&ramp(200), 95.0, "x").unwrap().value, 190.0);
        assert!(qualified(&[], 50.0, "x").is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
