//! Exact order statistics over raw samples.

/// The nearest-rank `q`-quantile of `sorted` (ascending): the sample at
/// rank `⌈q·n⌉`, clamped to `[1, n]`, so `q = 0` is the minimum and
/// `q = 1` the maximum. `None` when `sorted` is empty.
///
/// This is the rank rule of `asgd_telemetry::quantile_le`, so on the same
/// samples the two differ only by the width of the telemetry bucket that
/// holds the value.
#[must_use]
pub fn nearest_rank(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_has_no_quantile() {
        assert_eq!(nearest_rank(&[], 0.0), None);
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&[], 1.0), None);
    }

    #[test]
    fn one_sample_is_every_quantile() {
        for q in [0.0, 0.5, 0.9, 0.999, 1.0] {
            assert_eq!(nearest_rank(&[7], q), Some(7));
        }
    }

    #[test]
    fn ranks_round_up() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&s, 0.5), Some(50));
        assert_eq!(nearest_rank(&s, 0.505), Some(51));
        assert_eq!(nearest_rank(&s, 0.99), Some(99));
        assert_eq!(nearest_rank(&s, 0.999), Some(100));
        // n = 2: the median is the lower sample, any higher q the upper.
        assert_eq!(nearest_rank(&[10, 20], 0.5), Some(10));
        assert_eq!(nearest_rank(&[10, 20], 0.9), Some(20));
    }

    #[test]
    fn ties_return_the_tied_value() {
        let s = [5, 5, 5, 40];
        assert_eq!(nearest_rank(&s, 0.25), Some(5));
        assert_eq!(nearest_rank(&s, 0.75), Some(5));
        assert_eq!(nearest_rank(&s, 0.76), Some(40));
    }

    #[test]
    fn q_zero_is_the_minimum_and_q_one_the_maximum() {
        let s = [2, 3, 3, 9, 11];
        assert_eq!(nearest_rank(&s, 0.0), Some(2));
        assert_eq!(nearest_rank(&s, 1.0), Some(11));
    }
}
