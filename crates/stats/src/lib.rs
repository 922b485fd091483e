//! Statistics substrate for the statistical-distortion framework.
//!
//! Provides the descriptive machinery the paper's experiments rest on:
//! moment summaries that tolerate missing (NaN) values, quantiles and
//! ECDFs, 1-D histograms and sparse N-D grid histograms (the signatures fed
//! to the EMD engine), KL divergence as an alternative distortion distance,
//! correlation helpers for the glitch co-occurrence analyses, and the
//! attribute transforms (natural log) studied as an experimental factor
//! (§5.3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod correlation;
mod ecdf;
mod grid;
mod histogram;
mod kl;
mod pairwise;
mod quantile;
mod summary;
mod transform;

pub use correlation::{autocorrelation, pearson};
pub use ecdf::{cvm_statistic_sorted, ks_statistic_sorted, Ecdf};
pub use grid::{sorted_union_columns, GridHistogram, GridSpec};
pub use histogram::{Histogram, HistogramSpec};
pub use kl::{jensen_shannon_divergence, kl_divergence};
pub use pairwise::SumTree;
pub use quantile::{
    median, quantile, quantile_of_sorted, quantile_of_sorted_pair, select_patched_pair,
    select_sorted_pair, UnionColumn,
};
pub use summary::Summary;
pub use transform::AttributeTransform;

/// Convenience: the values of `xs` with NaNs removed, sorted ascending.
pub fn sorted_present(xs: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_present_drops_nan_and_sorts() {
        let xs = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(sorted_present(&xs), vec![1.0, 2.0, 3.0]);
        assert!(sorted_present(&[f64::NAN]).is_empty());
    }
}
