use rand::Rng;

/// Bottom-k sketch over a weighted stream (Cohen & Kaplan, the paper's
/// reference \[4\]).
///
/// Each item gets the rank `r = u^(1/w)` with `u ~ U(0,1)`; the sketch
/// keeps the `k` smallest ranks. Subset sums are estimated with the
/// rank-conditioning estimator: an included item contributes
/// `w / (1 − τ^w)`-style inclusion-probability corrections; the standard
/// practical estimator uses the (k+1)-th smallest rank `τ` as threshold and
/// weights each kept item by `max(w, ln(1−τ)⁻¹…)`. Here we implement the
/// widely used priority-style estimator for bottom-k with exponential
/// ranks: rank `r = −ln(u)/w` (equivalent ordering), threshold `τ` =
/// (k+1)-th rank, and estimate `Σ max(w_i, 1/τ)` over kept subset members.
#[derive(Debug, Clone)]
pub struct BottomKSketch<T> {
    k: usize,
    /// Kept entries `(rank, weight, item)`, sorted ascending by rank.
    entries: Vec<(f64, f64, T)>,
    /// The smallest rank evicted so far (the (k+1)-th overall), if any.
    threshold: Option<f64>,
}

impl<T> BottomKSketch<T> {
    /// Creates a sketch keeping `k` items.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        BottomKSketch {
            k,
            entries: Vec::with_capacity(k + 1),
            threshold: None,
        }
    }

    /// Number of items currently kept (≤ k).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the sketch holds no items.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Offers an item with weight `w > 0`, drawing its rank from `rng`.
    pub fn offer<R: Rng + ?Sized>(&mut self, item: T, weight: f64, rng: &mut R) {
        assert!(
            weight > 0.0 && weight.is_finite(),
            "weight must be positive"
        );
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        // Exponential rank: smaller for heavier items on average.
        let rank = -u.ln() / weight;
        self.offer_with_rank(item, weight, rank);
    }

    /// Offers an item with an externally supplied rank (for deterministic
    /// tests and coordinated sketches).
    pub fn offer_with_rank(&mut self, item: T, weight: f64, rank: f64) {
        let pos = self.entries.partition_point(|&(r, _, _)| r <= rank);
        self.entries.insert(pos, (rank, weight, item));
        if self.entries.len() > self.k {
            if let Some((evicted_rank, _, _)) = self.entries.pop() {
                self.threshold = Some(match self.threshold {
                    Some(t) => t.min(evicted_rank),
                    None => evicted_rank,
                });
            }
        }
    }

    /// The kept items with their weights, ascending by rank.
    pub fn items(&self) -> impl Iterator<Item = (&T, f64)> {
        self.entries.iter().map(|(_, w, item)| (item, *w))
    }

    /// Estimates the total weight of items matching `predicate`.
    ///
    /// Unbiased in expectation once the sketch has overflowed; before
    /// overflow (fewer than `k` items seen) it is the exact subset sum.
    pub fn estimate_subset_sum(&self, mut predicate: impl FnMut(&T) -> bool) -> f64 {
        match self.threshold {
            None => self
                .entries
                .iter()
                .filter(|(_, _, item)| predicate(item))
                .map(|(_, w, _)| w)
                .sum(),
            Some(tau) => self
                .entries
                .iter()
                .filter(|(_, _, item)| predicate(item))
                .map(|(_, w, _)| w.max(1.0 / tau))
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exact_before_overflow() {
        let mut sketch = BottomKSketch::new(10);
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..5 {
            sketch.offer(i, (i + 1) as f64, &mut rng);
        }
        assert_eq!(sketch.len(), 5);
        let total = sketch.estimate_subset_sum(|_| true);
        assert!((total - 15.0).abs() < 1e-12);
        let evens = sketch.estimate_subset_sum(|i| i % 2 == 0);
        assert!((evens - 9.0).abs() < 1e-12); // weights 1 + 3 + 5
    }

    #[test]
    fn keeps_only_k_smallest_ranks() {
        let mut sketch = BottomKSketch::new(3);
        for i in 0..6 {
            sketch.offer_with_rank(i, 1.0, i as f64);
        }
        assert_eq!(sketch.len(), 3);
        let kept: Vec<i32> = sketch.items().map(|(i, _)| *i).collect();
        assert_eq!(kept, vec![0, 1, 2]);
    }

    #[test]
    fn heavier_items_are_kept_preferentially() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut kept_heavy = 0usize;
        let trials = 300;
        for _ in 0..trials {
            let mut sketch = BottomKSketch::new(5);
            // One heavy item among 50 light ones.
            sketch.offer("heavy", 100.0, &mut rng);
            for i in 0..50 {
                sketch.offer("light", 1.0, &mut rng);
                let _ = i;
            }
            if sketch.items().any(|(item, _)| *item == "heavy") {
                kept_heavy += 1;
            }
        }
        assert!(
            kept_heavy > trials * 80 / 100,
            "heavy item kept only {kept_heavy}/{trials}"
        );
    }

    #[test]
    fn subset_sum_estimate_is_close_on_average() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 500;
        let true_total: f64 = (0..n).map(|i| 1.0 + (i % 7) as f64).sum();
        let mut sum_est = 0.0;
        let runs = 200;
        for _ in 0..runs {
            let mut sketch = BottomKSketch::new(64);
            for i in 0..n {
                sketch.offer(i, 1.0 + (i % 7) as f64, &mut rng);
            }
            sum_est += sketch.estimate_subset_sum(|_| true);
        }
        let avg = sum_est / runs as f64;
        let rel_err = (avg - true_total).abs() / true_total;
        assert!(rel_err < 0.1, "relative error {rel_err}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_panics() {
        let mut sketch = BottomKSketch::new(2);
        let mut rng = StdRng::seed_from_u64(1);
        sketch.offer(1, 0.0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        BottomKSketch::<i32>::new(0);
    }
}
