//! Per-window commit counters over the measured phase.

/// Windows the measured phase is split into; the last one gives
/// `tail_txn_per_s`.
pub const WINDOWS: usize = 10;

/// Commits completed in each tenth of the measured phase.
#[derive(Clone, Debug)]
pub struct Windows {
    width_ns: u64,
    commits: [u64; WINDOWS],
}

impl Windows {
    /// Counters for a measured phase of `phase_ns` nanoseconds.
    pub fn new(phase_ns: u64) -> Self {
        Windows { width_ns: (phase_ns / WINDOWS as u64).max(1), commits: [0; WINDOWS] }
    }

    /// The window a completion `offset_ns` after the phase start falls
    /// in; `None` at or past the phase end.
    pub fn index_of(&self, offset_ns: u64) -> Option<usize> {
        let w = (offset_ns / self.width_ns) as usize;
        (w < WINDOWS).then_some(w)
    }

    /// Count a commit completed `offset_ns` after the phase start.
    /// Returns whether it fell inside the phase.
    pub fn record(&mut self, offset_ns: u64) -> bool {
        match self.index_of(offset_ns) {
            Some(w) => {
                self.commits[w] += 1;
                true
            }
            None => false,
        }
    }

    /// Add another worker's counters (same phase).
    pub fn merge(&mut self, other: &Windows) {
        for (a, b) in self.commits.iter_mut().zip(&other.commits) {
            *a += b;
        }
    }

    /// Commits inside the phase.
    pub fn total(&self) -> u64 {
        self.commits.iter().sum()
    }

    /// Commits per second in window `w`.
    pub fn rate(&self, w: usize) -> f64 {
        self.commits[w] as f64 / (self.width_ns as f64 / 1e9)
    }

    /// Commits per second over the last window.
    pub fn tail_rate(&self) -> f64 {
        self.rate(WINDOWS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completions_land_in_their_tenth() {
        let mut w = Windows::new(10_000_000_000);
        assert_eq!(w.index_of(0), Some(0));
        assert_eq!(w.index_of(999_999_999), Some(0));
        assert_eq!(w.index_of(1_000_000_000), Some(1));
        assert_eq!(w.index_of(9_999_999_999), Some(9));
        assert_eq!(w.index_of(10_000_000_000), None);
        for t in [5, 9_000_000_000, 9_500_000_000, 9_999_999_999, 10_000_000_001] {
            w.record(t);
        }
        assert_eq!(w.total(), 4);
        assert_eq!(w.tail_rate(), 3.0);
        assert_eq!(w.rate(0), 1.0);
    }

    #[test]
    fn tail_rate_shows_a_slowdown_the_mean_hides() {
        // 1 s phase: 100 commits spread evenly over the first nine
        // tenths, 2 in the last one.
        let mut w = Windows::new(1_000_000_000);
        for k in 0..100u64 {
            w.record(k * 9_000_000);
        }
        let mut late = Windows::new(1_000_000_000);
        late.record(950_000_000);
        late.record(990_000_000);
        w.merge(&late);
        assert_eq!(w.total(), 102);
        assert!((w.tail_rate() - 20.0).abs() < 1e-9);
        assert!(w.rate(0) > 100.0);
    }
}
