//! The benchmark's own arithmetic: percentiles and failure accounting.
//! Kept free of I/O so the unit tests below can pin every rule on
//! synthetic inputs.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of all samples at or below it.
///
/// # Panics
/// Panics on an empty slice or a `q` outside `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` in place and returns them, for [`percentile`].
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median (nearest rank) of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

/// How every workload reports a percentile: the nearest-rank `q`
/// percentile of each round's samples, and the median over the rounds
/// that have samples. A tail that recurs through the run moves it
/// fully; a stall confined to one round does not.
pub fn round_percentile(rounds: &[Vec<f64>], q: f64) -> f64 {
    let per_round: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| percentile(&sorted(r.clone()), q))
        .collect();
    median(&per_round)
}

/// Requests (or iterations) attempted, and how many of them failed:
/// non-2xx answers, transport errors and wrong answers all count, and
/// any one of them makes the run incorrect.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation and whether it succeeded: a 2xx answer
    /// that the oracle accepts.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// `failed / attempted`, 0 when nothing was attempted.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The definition, spelled out: the smallest sample `x` with
    /// `#{s <= x} >= q * n`.
    fn oracle(values: &[f64], q: f64) -> f64 {
        let mut best = f64::INFINITY;
        for &x in values {
            let at_or_below = values.iter().filter(|&&s| s <= x).count();
            if at_or_below as f64 >= q * values.len() as f64 && x < best {
                best = x;
            }
        }
        best
    }

    #[test]
    fn percentiles_match_a_sorted_vector_oracle() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
            let values: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..50.0f64).floor()).collect();
            let s = sorted(values.clone());
            for q in [0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(percentile(&s, q), oracle(&values, q), "n={n} q={q}");
            }
            assert_eq!(median(&values), oracle(&values, 0.5));
        }
    }

    #[test]
    fn round_percentiles_follow_recurring_tails_not_single_stalls() {
        let calm: Vec<f64> = vec![1.0; 1000];
        let mut stalled = calm.clone();
        stalled[..600].fill(100.0);
        let rounds = vec![calm.clone(), stalled, calm.clone(), calm.clone(), calm.clone()];
        assert_eq!(round_percentile(&rounds, 0.99), 1.0);
        assert_eq!(round_percentile(&rounds, 0.5), 1.0);
        let tail: Vec<f64> = (0..1000).map(|i| if i % 50 == 0 { 100.0 } else { 1.0 }).collect();
        assert_eq!(round_percentile(&vec![tail; 5], 0.99), 100.0);
        // Empty rounds are skipped; a single round is its own percentile.
        let one: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(round_percentile(&[Vec::new(), one.clone()], 0.99), percentile(&one, 0.99));
    }

    #[test]
    fn tally_counts_every_failure() {
        let mut t = Tally::default();
        t.record(true);
        t.record(true);
        assert_eq!(t.fail_frac(), 0.0);
        t.record(false);
        t.record(false);
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.fail_frac(), 0.5);
    }
}
