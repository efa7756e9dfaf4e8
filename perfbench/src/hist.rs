//! Fixed-size log-bucketed latency histogram.
//!
//! Values are nanoseconds. Values below `2^SUB_BITS` get one bucket each
//! and are exact. Above that, every power-of-two octave is split into
//! `2^SUB_BITS` equal buckets, so a bucket `[lo, lo + width)` has
//! `width <= lo / 2^SUB_BITS`. A percentile is the nearest-rank bucket,
//! interpolated linearly by rank inside it; the true nearest-rank sample
//! lies in the same bucket, so
//!
//! `|reported - exact| < width <= exact / 256` (relative error below 0.4%).
//!
//! Values at or above `2^MAX_BITS` ns (about 18 minutes) are clamped into
//! the last bucket. The whole histogram is 8448 counters (66 KiB), however
//! many samples it holds.

const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;
const MAX_BITS: u32 = 40;
const BUCKETS: usize = (SUB + (MAX_BITS - SUB_BITS) as u64 * SUB) as usize;

/// A latency histogram of nanosecond samples.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: vec![0; BUCKETS], total: 0 }
    }
}

fn bucket_of(v: u64) -> usize {
    let v = v.min((1u64 << MAX_BITS) - 1);
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    let mantissa = (v >> shift) - SUB;
    (SUB + u64::from(shift) * SUB + mantissa) as usize
}

/// `(lower bound, width)` of a bucket.
fn bucket_range(b: usize) -> (u64, u64) {
    let b = b as u64;
    if b < SUB {
        return (b, 1);
    }
    let shift = (b - SUB) / SUB;
    let mantissa = (b - SUB) % SUB;
    ((SUB + mantissa) << shift, 1 << shift)
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The nearest-rank `p`-quantile (`0 < p <= 1`) in nanoseconds, within
    /// `1 / 2^SUB_BITS` of the exact sample (see the module docs); 0 when
    /// empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((p * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut below = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if below + c >= rank {
                let (lo, width) = bucket_range(b);
                if width == 1 {
                    return lo as f64;
                }
                let within = (rank - below) as f64 - 0.5;
                return lo as f64 + width as f64 * within / c as f64;
            }
            below += c;
        }
        unreachable!("rank {rank} lies within the {} recorded samples", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const RELATIVE_ERROR: f64 = 1.0 / SUB as f64;

    fn exact_nearest_rank(sorted: &[u64], p: f64) -> u64 {
        let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn buckets_tile_the_range() {
        let mut next = 0u64;
        for b in 0..BUCKETS {
            let (lo, width) = bucket_range(b);
            assert_eq!(lo, next, "bucket {b} starts where the previous ended");
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(lo + width - 1), b);
            if lo >= SUB {
                assert!(width * SUB <= lo, "bucket {b} is wider than lo/{SUB}");
            }
            next = lo + width;
        }
        assert_eq!(next, 1 << MAX_BITS);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::default();
        for v in [3u64, 1, 200, 7, 7, 42] {
            h.record(v);
        }
        let sorted = [1u64, 3, 7, 7, 42, 200];
        for p in [0.01, 0.2, 0.5, 0.51, 0.99, 1.0] {
            assert_eq!(h.percentile(p), exact_nearest_rank(&sorted, p) as f64, "p={p}");
        }
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn percentiles_match_nearest_rank_within_bound() {
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..200 {
            let n = rng.gen_range(1..60);
            let mut h = Histogram::default();
            let mut values = Vec::new();
            for _ in 0..n {
                // Log-uniform over 1 ns .. ~1 s.
                let v = 1u64 << rng.gen_range(0..30);
                let v = v + rng.gen_range(0..v);
                h.record(v);
                values.push(v);
            }
            values.sort_unstable();
            for p in [0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
                let exact = exact_nearest_rank(&values, p) as f64;
                let got = h.percentile(p);
                assert!(
                    (got - exact).abs() <= exact * RELATIVE_ERROR,
                    "trial {trial} p={p}: got {got}, exact {exact}"
                );
            }
        }
    }

    #[test]
    fn merge_adds_samples_and_huge_values_clamp() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.record(10);
        b.record(u64::MAX);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.percentile(0.5), 10.0);
        assert!(a.percentile(1.0) < (1u64 << MAX_BITS) as f64);
        assert_eq!(Histogram::default().percentile(0.5), 0.0);
    }
}
