use std::fmt;

/// Errors surfaced by the experimental framework.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameworkError {
    /// The ideal partition is empty: no series meets the cleanliness rule.
    NoIdealData {
        /// The record-level threshold that was applied.
        threshold: f64,
    },
    /// The dirty partition is empty: everything met the cleanliness rule.
    NoDirtyData,
    /// A distortion computation failed.
    Distortion(String),
    /// Invalid experiment configuration.
    InvalidConfig(String),
    /// A stochastic draw left the observed sample empty — every value went
    /// missing, so there is nothing to treat or compare against.
    EmptyObserved {
        /// Requested sample size.
        n: usize,
        /// Requested missing fraction.
        missing_fraction: f64,
    },
    /// An internal invariant was violated. These arms were panics before
    /// the sd-lint P001 gate; a long-lived service must surface even
    /// "impossible" states as errors rather than die shard-by-shard.
    /// Seeing one is always a framework bug worth reporting.
    Internal(String),
    /// A streaming ingestion shard terminated abnormally — it panicked or
    /// its channel closed mid-stream. The serving layer surfaces this as a
    /// structured failure of the whole run instead of wedging producers on
    /// a dead channel.
    ShardFailed {
        /// Index of the shard that died.
        shard: usize,
        /// What the service observed.
        detail: String,
    },
    /// A streaming evaluator worker terminated abnormally — it panicked
    /// while calibrating or scoring a window. The serving layer's
    /// collector can no longer dispatch windows to it, and `finish`, which
    /// joins the evaluator thread, surfaces this instead of hanging on a
    /// window that will never arrive.
    EvaluatorFailed {
        /// Index of the evaluator worker that died.
        evaluator: usize,
        /// What the service observed.
        detail: String,
    },
}

impl fmt::Display for FrameworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameworkError::NoIdealData { threshold } => write!(
                f,
                "no series meets the ideal rule (< {:.0} % of each glitch type)",
                threshold * 100.0
            ),
            FrameworkError::NoDirtyData => {
                write!(f, "no dirty series to clean — everything is already ideal")
            }
            FrameworkError::Distortion(msg) => write!(f, "distortion computation failed: {msg}"),
            FrameworkError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            FrameworkError::EmptyObserved {
                n,
                missing_fraction,
            } => write!(
                f,
                "observed sample is empty: all {n} draws went missing \
                 (missing fraction {missing_fraction})"
            ),
            FrameworkError::Internal(msg) => {
                write!(f, "internal invariant violated (framework bug): {msg}")
            }
            FrameworkError::ShardFailed { shard, detail } => {
                write!(f, "streaming shard {shard} failed: {detail}")
            }
            FrameworkError::EvaluatorFailed { evaluator, detail } => {
                write!(f, "streaming evaluator {evaluator} failed: {detail}")
            }
        }
    }
}

impl std::error::Error for FrameworkError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(FrameworkError::NoIdealData { threshold: 0.05 }
            .to_string()
            .contains("5 %"));
        assert!(FrameworkError::NoDirtyData.to_string().contains("dirty"));
        assert!(FrameworkError::Distortion("x".into())
            .to_string()
            .contains("x"));
        assert!(FrameworkError::InvalidConfig("y".into())
            .to_string()
            .contains("y"));
        assert!(FrameworkError::EmptyObserved {
            n: 12,
            missing_fraction: 0.99
        }
        .to_string()
        .contains("12 draws"));
        assert!(FrameworkError::ShardFailed {
            shard: 3,
            detail: "panicked".into()
        }
        .to_string()
        .contains("shard 3"));
        assert!(FrameworkError::EvaluatorFailed {
            evaluator: 2,
            detail: "panicked".into()
        }
        .to_string()
        .contains("evaluator 2"));
    }
}
