use rand::Rng;

/// Priority sampling for subset-sum estimation (Duffield, Lund & Thorup,
/// the paper's reference \[5\]).
///
/// Each item of weight `w` receives priority `q = w / u` with `u ~ U(0,1)`;
/// the sampler keeps the `k` largest priorities. With `τ` the (k+1)-th
/// largest priority, `Σ max(w_i, τ)` over sampled subset members is an
/// unbiased estimator of the subset's weight sum.
#[derive(Debug, Clone)]
pub struct PrioritySampler<T> {
    k: usize,
    /// Kept entries `(priority, weight, item)`, sorted descending.
    entries: Vec<(f64, f64, T)>,
    /// The (k+1)-th largest priority seen so far.
    threshold: f64,
    overflowed: bool,
}

impl<T> PrioritySampler<T> {
    /// Creates a sampler keeping `k` items.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        PrioritySampler {
            k,
            entries: Vec::with_capacity(k + 1),
            threshold: 0.0,
            overflowed: false,
        }
    }

    /// Number of kept items.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no items are kept.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Offers an item with weight `w > 0`.
    pub fn offer<R: Rng + ?Sized>(&mut self, item: T, weight: f64, rng: &mut R) {
        assert!(
            weight > 0.0 && weight.is_finite(),
            "weight must be positive"
        );
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        self.offer_with_priority(item, weight, weight / u);
    }

    /// Offers an item with an externally supplied priority.
    pub fn offer_with_priority(&mut self, item: T, weight: f64, priority: f64) {
        let pos = self.entries.partition_point(|&(p, _, _)| p >= priority);
        self.entries.insert(pos, (priority, weight, item));
        if self.entries.len() > self.k {
            if let Some((evicted, _, _)) = self.entries.pop() {
                self.threshold = self.threshold.max(evicted);
                self.overflowed = true;
            }
        }
    }

    /// The kept items with weights, descending by priority.
    pub fn items(&self) -> impl Iterator<Item = (&T, f64)> {
        self.entries.iter().map(|(_, w, item)| (item, *w))
    }

    /// Estimates the total weight of items matching `predicate`:
    /// exact before overflow, `Σ max(w, τ)` after.
    pub fn estimate_subset_sum(&self, mut predicate: impl FnMut(&T) -> bool) -> f64 {
        self.entries
            .iter()
            .filter(|(_, _, item)| predicate(item))
            .map(|(_, w, _)| {
                if self.overflowed {
                    w.max(self.threshold)
                } else {
                    *w
                }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exact_before_overflow() {
        let mut s = PrioritySampler::new(10);
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..4 {
            s.offer(i, 2.0, &mut rng);
        }
        assert_eq!(s.len(), 4);
        assert!((s.estimate_subset_sum(|_| true) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn keeps_largest_priorities() {
        let mut s = PrioritySampler::new(2);
        s.offer_with_priority("a", 1.0, 10.0);
        s.offer_with_priority("b", 1.0, 30.0);
        s.offer_with_priority("c", 1.0, 20.0);
        let kept: Vec<&str> = s.items().map(|(i, _)| *i).collect();
        assert_eq!(kept, vec!["b", "c"]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn estimator_is_unbiased_on_average() {
        let mut rng = StdRng::seed_from_u64(17);
        let weights: Vec<f64> = (0..300).map(|i| 1.0 + (i % 10) as f64).collect();
        let true_total: f64 = weights.iter().sum();
        let runs = 300;
        let mut acc = 0.0;
        for _ in 0..runs {
            let mut s = PrioritySampler::new(48);
            for (i, &w) in weights.iter().enumerate() {
                s.offer(i, w, &mut rng);
            }
            acc += s.estimate_subset_sum(|_| true);
        }
        let avg = acc / runs as f64;
        let rel_err = (avg - true_total).abs() / true_total;
        assert!(rel_err < 0.08, "relative error {rel_err}");
    }

    #[test]
    fn subset_estimates_partition_the_total() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut s = PrioritySampler::new(32);
        for i in 0..200 {
            s.offer(i, 1.0, &mut rng);
        }
        let evens = s.estimate_subset_sum(|i| i % 2 == 0);
        let odds = s.estimate_subset_sum(|i| i % 2 == 1);
        let all = s.estimate_subset_sum(|_| true);
        assert!((evens + odds - all).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_weight_panics() {
        let mut s = PrioritySampler::new(2);
        let mut rng = StdRng::seed_from_u64(1);
        s.offer(0, f64::INFINITY, &mut rng);
    }
}
