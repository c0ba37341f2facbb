//! Input pattern sources for the bit-parallel simulator.
//!
//! A *block* packs up to 64 input patterns: each circuit source signal
//! gets one `u64`, bit `i` of every word belonging to pattern `i`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One block of up to 64 packed patterns over `num_signals` signals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternBlock {
    words: Vec<u64>,
    count: u32,
}

impl PatternBlock {
    /// Builds a block from per-signal words; `count` patterns
    /// (bits `0..count`) are valid.
    ///
    /// # Panics
    ///
    /// Panics if `count` is 0 or greater than 64.
    #[must_use]
    pub fn new(words: Vec<u64>, count: u32) -> Self {
        assert!(
            (1..=64).contains(&count),
            "count must be 1..=64, got {count}"
        );
        PatternBlock { words, count }
    }

    /// Per-signal pattern words.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of valid patterns in this block (1..=64).
    #[must_use]
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Mask with a 1 for every valid pattern bit.
    #[cfg(test)]
    fn valid_mask(&self) -> u64 {
        if self.count == 64 {
            !0
        } else {
            (1u64 << self.count) - 1
        }
    }

    /// The boolean value of signal `signal` under pattern `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `signal` or `pattern` is out of range.
    #[must_use]
    pub fn bit(&self, signal: usize, pattern: u32) -> bool {
        assert!(pattern < self.count, "pattern {pattern} out of range");
        self.words[signal] >> pattern & 1 != 0
    }
}

/// A source of pattern blocks over a fixed number of signals.
///
/// Implementors: [`RandomPatterns`] (uniform), [`WeightedPatterns`]
/// (per-signal bias) and [`ExhaustivePatterns`] (all `2^n` assignments).
pub trait PatternSource {
    /// Number of signals each block covers.
    fn num_signals(&self) -> usize;

    /// Produces the next block, or `None` when the source is exhausted
    /// (random sources never are).
    fn next_block(&mut self) -> Option<PatternBlock>;
}

/// Uniform random patterns from a seeded PRNG (reproducible).
///
/// # Examples
///
/// ```
/// use ser_sim::{PatternSource, RandomPatterns};
///
/// let mut src = RandomPatterns::new(3, 42);
/// let block = src.next_block().unwrap();
/// assert_eq!(block.words().len(), 3);
/// assert_eq!(block.count(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct RandomPatterns {
    num_signals: usize,
    rng: SmallRng,
}

impl RandomPatterns {
    /// Creates a source of uniform random patterns over `num_signals`
    /// signals, seeded with `seed`.
    #[must_use]
    pub fn new(num_signals: usize, seed: u64) -> Self {
        RandomPatterns {
            num_signals,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl PatternSource for RandomPatterns {
    fn num_signals(&self) -> usize {
        self.num_signals
    }

    fn next_block(&mut self) -> Option<PatternBlock> {
        let words = (0..self.num_signals).map(|_| self.rng.gen()).collect();
        Some(PatternBlock::new(words, 64))
    }
}

/// Random patterns where signal `i` is 1 with probability `weights[i]`
/// (used to exercise the SP engines on biased inputs).
#[derive(Debug, Clone)]
pub struct WeightedPatterns {
    weights: Vec<f64>,
    rng: SmallRng,
}

impl WeightedPatterns {
    /// Creates a biased source; `weights[i]` is the probability that
    /// signal `i` is logic 1 in a pattern.
    ///
    /// # Panics
    ///
    /// Panics if any weight is outside `[0, 1]` or not finite.
    #[must_use]
    pub fn new(weights: Vec<f64>, seed: u64) -> Self {
        for (i, &w) in weights.iter().enumerate() {
            assert!(
                w.is_finite() && (0.0..=1.0).contains(&w),
                "weight {i} = {w} outside [0,1]"
            );
        }
        WeightedPatterns {
            weights,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl PatternSource for WeightedPatterns {
    fn num_signals(&self) -> usize {
        self.weights.len()
    }

    fn next_block(&mut self) -> Option<PatternBlock> {
        let words = self
            .weights
            .iter()
            .map(|&w| {
                let mut word = 0u64;
                for bit in 0..64 {
                    if self.rng.gen_bool(w) {
                        word |= 1 << bit;
                    }
                }
                word
            })
            .collect();
        Some(PatternBlock::new(words, 64))
    }
}

/// Every assignment of `n` signals exactly once (`n <= 24` keeps the
/// pattern count sane; the exact oracles use this).
#[derive(Debug, Clone)]
pub struct ExhaustivePatterns {
    num_signals: usize,
    next: u64,
    total: u64,
}

impl ExhaustivePatterns {
    /// Creates an exhaustive source over `num_signals` signals.
    ///
    /// # Panics
    ///
    /// Panics if `num_signals > 63` (the pattern index must fit a u64).
    #[must_use]
    pub fn new(num_signals: usize) -> Self {
        assert!(num_signals <= 63, "exhaustive enumeration beyond 63 inputs");
        ExhaustivePatterns {
            num_signals,
            next: 0,
            total: 1u64 << num_signals,
        }
    }

    /// Total number of patterns this source will produce.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }
}

impl PatternSource for ExhaustivePatterns {
    fn num_signals(&self) -> usize {
        self.num_signals
    }

    fn next_block(&mut self) -> Option<PatternBlock> {
        if self.next >= self.total {
            return None;
        }
        let remaining = self.total - self.next;
        let count = remaining.min(64) as u32;
        // Pattern p in this block is assignment `self.next + p`; signal i
        // takes bit i of the assignment index.
        let words = (0..self.num_signals)
            .map(|signal| {
                let mut word = 0u64;
                for p in 0..count {
                    let assignment = self.next + u64::from(p);
                    if assignment >> signal & 1 != 0 {
                        word |= 1 << p;
                    }
                }
                word
            })
            .collect();
        self.next += u64::from(count);
        Some(PatternBlock::new(words, count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_invariants() {
        let b = PatternBlock::new(vec![0b1010, 0b0110], 4);
        assert_eq!(b.count(), 4);
        assert_eq!(b.valid_mask(), 0b1111);
        assert!(b.bit(0, 1));
        assert!(!b.bit(0, 0));
        assert!(b.bit(1, 2));
    }

    #[test]
    #[should_panic(expected = "count must be 1..=64")]
    fn block_rejects_zero_count() {
        let _ = PatternBlock::new(vec![0], 0);
    }

    #[test]
    fn full_block_valid_mask() {
        let b = PatternBlock::new(vec![0], 64);
        assert_eq!(b.valid_mask(), !0u64);
    }

    #[test]
    fn random_is_reproducible() {
        let mut a = RandomPatterns::new(4, 7);
        let mut b = RandomPatterns::new(4, 7);
        assert_eq!(a.next_block(), b.next_block());
        assert_eq!(a.next_block(), b.next_block());
        let mut c = RandomPatterns::new(4, 8);
        assert_ne!(a.next_block(), c.next_block());
    }

    #[test]
    fn exhaustive_covers_all_assignments() {
        let mut src = ExhaustivePatterns::new(3);
        assert_eq!(src.total(), 8);
        let block = src.next_block().unwrap();
        assert_eq!(block.count(), 8);
        assert!(src.next_block().is_none());
        // Collect the 8 assignments and check they are 0..8 exactly once.
        let mut seen = [false; 8];
        for p in 0..8 {
            let mut idx = 0usize;
            for s in 0..3 {
                if block.bit(s, p) {
                    idx |= 1 << s;
                }
            }
            assert!(!seen[idx], "assignment {idx} repeated");
            seen[idx] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn exhaustive_multi_block() {
        // 7 signals = 128 assignments = 2 full blocks.
        let mut src = ExhaustivePatterns::new(7);
        let b1 = src.next_block().unwrap();
        let b2 = src.next_block().unwrap();
        assert_eq!(b1.count(), 64);
        assert_eq!(b2.count(), 64);
        assert!(src.next_block().is_none());
        // First pattern of block 2 is assignment 64: signal 6 set.
        assert!(b2.bit(6, 0));
        assert!(!b2.bit(0, 0));
    }

    #[test]
    fn weighted_extremes() {
        let mut src = WeightedPatterns::new(vec![0.0, 1.0], 3);
        let b = src.next_block().unwrap();
        assert_eq!(b.words()[0], 0);
        assert_eq!(b.words()[1], !0);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn weighted_rejects_bad_weight() {
        let _ = WeightedPatterns::new(vec![1.5], 0);
    }

    #[test]
    fn weighted_frequency_approximates_weight() {
        let mut src = WeightedPatterns::new(vec![0.25], 11);
        let mut ones = 0u32;
        let mut total = 0u32;
        for _ in 0..256 {
            let b = src.next_block().unwrap();
            ones += b.words()[0].count_ones();
            total += 64;
        }
        let freq = f64::from(ones) / f64::from(total);
        assert!((freq - 0.25).abs() < 0.02, "freq {freq} too far from 0.25");
    }
}
