/// Quantile of an **ascending-sorted** slice by linear interpolation
/// (type-7 estimator, the R/NumPy default).
///
/// `q` is clamped to `[0, 1]`. Returns `None` for an empty slice.
pub fn quantile_of_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let h = q * (sorted.len() as f64 - 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        return Some(sorted[lo]);
    }
    let frac = h - lo as f64;
    Some(sorted[lo] + frac * (sorted[hi] - sorted[lo]))
}

/// Element at ascending rank `k` (0-based, by [`f64::total_cmp`]) of the
/// multiset union of two ascending-sorted slices, without materializing
/// the merge. Equal values are interchangeable, so the result is
/// bit-identical to `merge(a, b)[k]`.
pub fn select_sorted_pair(a: &[f64], b: &[f64], k: usize) -> f64 {
    assert!(k < a.len() + b.len(), "rank out of range");
    let (a, b) = if a.len() > b.len() { (b, a) } else { (a, b) };
    // Binary search the number `i` of elements taken from `a`: the
    // smallest split where b's untaken prefix no longer precedes a[i].
    let mut lo = k.saturating_sub(b.len());
    let mut hi = k.min(a.len());
    while lo < hi {
        let i = (lo + hi) / 2;
        let j = k - i;
        if j > 0 && b[j - 1].total_cmp(&a[i]).is_gt() {
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    let i = lo;
    let j = k - i;
    // `i + j = k < a.len() + b.len()`, so when `a` is exhausted `b[j]`
    // exists.
    if i < a.len() && (j == b.len() || a[i].total_cmp(&b[j]).is_le()) {
        a[i]
    } else {
        b[j]
    }
}

/// Type-7 quantile of the union of two ascending-sorted slices —
/// bit-identical to `quantile_of_sorted(&merge(a, b), q)` with the merge
/// elided (two rank selections instead of an `O(n)` copy).
pub fn quantile_of_sorted_pair(a: &[f64], b: &[f64], q: f64) -> Option<f64> {
    UnionColumn::Pair(a, b).quantile(q)
}

/// Element at ascending rank `k` (0-based, by [`f64::total_cmp`]) of the
/// multiset `base ⊎ (base − removed + added)` — a sorted column pooled
/// with a patched copy of itself — without materializing the patched
/// copy. All three slices are ascending by [`f64::total_cmp`], and
/// `removed` must be a sub-multiset of `base`. Equal values are
/// interchangeable, so the result is bit-identical to
/// [`select_sorted_pair`] on `base` and the materialized patched column.
///
/// Costs `O(log n · (log n + log k))` for a column of `n` values and `k`
/// edits: a binary search over the monotone count
/// `2·#base≤x − #removed≤x + #added≤x`.
pub fn select_patched_pair(base: &[f64], removed: &[f64], added: &[f64], k: usize) -> f64 {
    let len = 2 * base.len() + added.len() - removed.len();
    assert!(k < len, "rank out of range");
    // Number of union elements at or below `x`.
    let at_or_below = |x: &f64| {
        let le = |s: &[f64]| s.partition_point(|y| y.total_cmp(x).is_le());
        2 * le(base) + le(added) - le(removed)
    };
    // Every union element comes from `base` or `added`; the rank-`k`
    // element is the smallest with more than `k` elements at or below it.
    let i = base.partition_point(|x| at_or_below(x) <= k);
    let j = added.partition_point(|x| at_or_below(x) <= k);
    // The union's maximum is `base`'s or `added`'s last element and has
    // `len > k` elements at or below it, so one side holds a candidate.
    if i < base.len() && (j == added.len() || base[i].total_cmp(&added[j]).is_le()) {
        base[i]
    } else {
        added[j]
    }
}

/// One axis of a grid-cover input: a multiset of values given as sorted
/// pieces that are read by rank selection and never merged.
#[derive(Debug, Clone, Copy)]
pub enum UnionColumn<'a> {
    /// `a ⊎ b`, both ascending by [`f64::total_cmp`] (see
    /// [`select_sorted_pair`]).
    Pair(&'a [f64], &'a [f64]),
    /// `base ⊎ (base − removed + added)`: a sorted column pooled with a
    /// patched copy of itself (see [`select_patched_pair`]).
    Patched {
        /// The unpatched column.
        base: &'a [f64],
        /// Values the patch removes from its copy, ascending.
        removed: &'a [f64],
        /// Values the patch adds to its copy, ascending.
        added: &'a [f64],
    },
}

impl UnionColumn<'_> {
    /// Number of values in the multiset.
    pub fn len(&self) -> usize {
        match *self {
            UnionColumn::Pair(a, b) => a.len() + b.len(),
            UnionColumn::Patched {
                base,
                removed,
                added,
            } => 2 * base.len() + added.len() - removed.len(),
        }
    }

    /// Whether the multiset is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element at ascending rank `k` (0-based, by [`f64::total_cmp`]).
    pub fn select(&self, k: usize) -> f64 {
        match *self {
            UnionColumn::Pair(a, b) => select_sorted_pair(a, b, k),
            UnionColumn::Patched {
                base,
                removed,
                added,
            } => select_patched_pair(base, removed, added, k),
        }
    }

    /// Type-7 quantile of the multiset — bit-identical to
    /// [`quantile_of_sorted`] on its materialized sorted merge. `None`
    /// when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let len = self.len();
        if len == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let h = q * (len as f64 - 1.0);
        let lo = h.floor() as usize;
        let hi = h.ceil() as usize;
        if lo == hi {
            return Some(self.select(lo));
        }
        let frac = h - lo as f64;
        let xlo = self.select(lo);
        let xhi = self.select(hi);
        Some(xlo + frac * (xhi - xlo))
    }
}

/// Quantile of an unsorted slice, skipping NaNs. `None` when no present
/// values remain.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    let sorted = crate::sorted_present(xs);
    quantile_of_sorted(&sorted, q)
}

/// Median of an unsorted slice, skipping NaNs.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_small_sample() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(quantile(&xs, 0.5), Some(2.5));
        assert_eq!(quantile(&xs, 0.25), Some(1.75));
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn nan_is_skipped() {
        assert_eq!(median(&[1.0, f64::NAN, 3.0]), Some(2.0));
        assert_eq!(median(&[f64::NAN]), None);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn pair_selection_matches_merge() {
        let cases: Vec<(Vec<f64>, Vec<f64>)> = vec![
            (vec![1.0, 3.0, 5.0], vec![2.0, 4.0, 6.0]),
            (vec![], vec![1.0, 2.0]),
            (vec![7.0], vec![]),
            (vec![1.0, 1.0, 1.0], vec![1.0, 2.0]),
            (vec![-3.0, 0.0, 0.0, 9.0], vec![-3.0, 12.0]),
            (vec![f64::NEG_INFINITY, 2.0], vec![2.0, f64::INFINITY]),
        ];
        for (a, b) in cases {
            let mut merged = [a.clone(), b.clone()].concat();
            merged.sort_by(f64::total_cmp);
            for (k, expected) in merged.iter().enumerate() {
                assert_eq!(
                    select_sorted_pair(&a, &b, k).to_bits(),
                    expected.to_bits(),
                    "k={k} a={a:?} b={b:?}"
                );
            }
            for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
                assert_eq!(
                    quantile_of_sorted_pair(&a, &b, q).map(f64::to_bits),
                    quantile_of_sorted(&merged, q).map(f64::to_bits),
                    "q={q} a={a:?} b={b:?}"
                );
            }
        }
        assert_eq!(quantile_of_sorted_pair(&[], &[], 0.5), None);
    }

    #[test]
    fn q_is_clamped() {
        let xs = [1.0, 2.0];
        assert_eq!(quantile(&xs, -1.0), Some(1.0));
        assert_eq!(quantile(&xs, 2.0), Some(2.0));
    }

    #[test]
    fn single_element() {
        assert_eq!(quantile(&[7.0], 0.3), Some(7.0));
    }
}
