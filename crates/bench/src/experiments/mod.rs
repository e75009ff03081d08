//! One module per reproduced paper artifact; [`crate::experiment_ids`]
//! is the index.

pub mod c67;
pub mod c71;
pub mod contention;
pub mod fig1;
pub mod ingest;
pub mod regimes;
pub mod serving;
pub mod serving_net;
pub mod sparse;
pub mod sparse_scaling;
pub mod speedup;
pub mod stepsize;
pub mod t31;
pub mod t51;
pub mod t65;

use asgd_oracle::NoisyQuadratic;
use std::sync::Arc;

/// Standard §5-style quadratic used by several experiments.
#[must_use]
pub fn quad(d: usize, sigma: f64) -> Arc<NoisyQuadratic> {
    Arc::new(NoisyQuadratic::new(d, sigma).expect("valid quadratic workload"))
}

/// Median of a slice (by value); the slice is copied and sorted.
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of empty slice");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in medians"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    #[should_panic(expected = "median of empty slice")]
    fn median_empty_panics() {
        let _ = median(&[]);
    }

    #[test]
    fn quad_fixture() {
        let q = quad(3, 0.5);
        assert_eq!(asgd_oracle::GradientOracle::dimension(&q), 3);
    }
}
