//! Monte-Carlo signal probability (simulation-based reference engine).

use ser_netlist::Circuit;
use ser_sim::{BitSim, PatternSource, RandomPatterns, SeqSim, WeightedPatterns};

use crate::types::{InputProbs, SpEngine, SpError, SpVector};

/// Estimates signal probabilities by logic simulation.
///
/// Combinational circuits are sampled directly. Sequential circuits are
/// *warmed up* for a number of cycles from the all-zero state (so the
/// flip-flop distribution approaches its steady state) and then sampled
/// over further cycles — the simulation counterpart of the independent
/// engine's fixed-point iteration.
///
/// # Examples
///
/// ```
/// use ser_netlist::parse_bench;
/// use ser_sp::{InputProbs, MonteCarloSp, SpEngine};
///
/// let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t")?;
/// let sp = MonteCarloSp::new(50_000).with_seed(3).compute(&c, &InputProbs::uniform(0.5))?;
/// let y = c.find("y").unwrap();
/// assert!((sp.get(y) - 0.25).abs() < 0.01);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonteCarloSp {
    vectors: u64,
    seed: u64,
}

/// Clock cycles a sequential circuit runs from reset before sampling
/// starts, so the flip-flop states move off the all-zero reset state.
const WARMUP_CYCLES: u32 = 16;

impl MonteCarloSp {
    /// Creates the engine with `vectors` sampled patterns (and, for
    /// sequential circuits, 16 warm-up cycles).
    ///
    /// # Panics
    ///
    /// Panics if `vectors` is 0.
    #[must_use]
    pub fn new(vectors: u64) -> Self {
        assert!(vectors > 0, "at least one vector");
        MonteCarloSp {
            vectors,
            seed: 0x5EED,
        }
    }

    /// Sets the PRNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of sampled vectors.
    #[must_use]
    pub fn vectors(&self) -> u64 {
        self.vectors
    }

    fn input_source(&self, circuit: &Circuit, inputs: &InputProbs) -> Box<dyn PatternSource> {
        // Uniform 0.5 with no overrides has a fast path.
        let uniform_half = circuit
            .inputs()
            .iter()
            .all(|&pi| (inputs.probability(pi) - 0.5).abs() < f64::EPSILON);
        if uniform_half {
            Box::new(RandomPatterns::new(circuit.num_inputs(), self.seed))
        } else {
            let weights = circuit
                .inputs()
                .iter()
                .map(|&pi| inputs.probability(pi))
                .collect();
            Box::new(WeightedPatterns::new(weights, self.seed))
        }
    }

    fn compute_combinational(
        &self,
        circuit: &Circuit,
        inputs: &InputProbs,
    ) -> Result<SpVector, SpError> {
        let sim = BitSim::new(circuit)?;
        let mut source = self.input_source(circuit, inputs);
        let mut ones = vec![0u64; circuit.len()];
        let mut total = 0u64;
        let mut remaining = self.vectors;
        while remaining > 0 {
            let count = remaining.min(64) as u32;
            let valid = if count == 64 {
                !0u64
            } else {
                (1u64 << count) - 1
            };
            let block = source.next_block().expect("random sources never end");
            let values = sim.run(block.words());
            for (slot, w) in ones.iter_mut().zip(&values) {
                *slot += u64::from((w & valid).count_ones());
            }
            total += u64::from(count);
            remaining -= u64::from(count);
        }
        let probs = ones.into_iter().map(|o| o as f64 / total as f64).collect();
        Ok(SpVector::new(probs))
    }

    fn compute_sequential(
        &self,
        circuit: &Circuit,
        inputs: &InputProbs,
    ) -> Result<SpVector, SpError> {
        let mut sim = SeqSim::new(circuit)?;
        let mut source = self.input_source(circuit, inputs);
        sim.reset(false);
        for _ in 0..WARMUP_CYCLES {
            let block = source.next_block().expect("random sources never end");
            let _ = sim.step(block.words());
        }
        let mut ones = vec![0u64; circuit.len()];
        let mut total = 0u64;
        let mut remaining = self.vectors;
        while remaining > 0 {
            let count = remaining.min(64) as u32;
            let valid = if count == 64 {
                !0u64
            } else {
                (1u64 << count) - 1
            };
            let block = source.next_block().expect("random sources never end");
            let values = sim.step(block.words());
            for (slot, w) in ones.iter_mut().zip(&values) {
                *slot += u64::from((w & valid).count_ones());
            }
            total += u64::from(count);
            remaining -= u64::from(count);
        }
        let probs = ones.into_iter().map(|o| o as f64 / total as f64).collect();
        Ok(SpVector::new(probs))
    }
}

impl SpEngine for MonteCarloSp {
    fn name(&self) -> &'static str {
        "monte-carlo"
    }

    fn compute(&self, circuit: &Circuit, inputs: &InputProbs) -> Result<SpVector, SpError> {
        if circuit.is_combinational() {
            self.compute_combinational(circuit, inputs)
        } else {
            self.compute_sequential(circuit, inputs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ser_netlist::parse_bench;

    #[test]
    fn matches_closed_form_on_tree() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nu = AND(a, b)\ny = OR(u, c)\n",
            "tree",
        )
        .unwrap();
        let sp = MonteCarloSp::new(100_000)
            .with_seed(42)
            .compute(&c, &InputProbs::uniform(0.5))
            .unwrap();
        // P(u) = 0.25, P(y) = 1 - 0.75*0.5 = 0.625.
        assert!((sp.get(c.find("u").unwrap()) - 0.25).abs() < 0.01);
        assert!((sp.get(c.find("y").unwrap()) - 0.625).abs() < 0.01);
    }

    #[test]
    fn captures_reconvergent_correlation() {
        // y = AND(a, a): truly 0.5 — MC gets this right where the
        // independent engine says 0.25.
        let c = parse_bench("INPUT(a)\nOUTPUT(y)\ny = AND(a, a)\n", "rc").unwrap();
        let sp = MonteCarloSp::new(50_000)
            .with_seed(1)
            .compute(&c, &InputProbs::uniform(0.5))
            .unwrap();
        assert!((sp.get(c.find("y").unwrap()) - 0.5).abs() < 0.01);
    }

    #[test]
    fn weighted_inputs_respected() {
        let c = parse_bench("INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n", "w").unwrap();
        let a = c.find("a").unwrap();
        let sp = MonteCarloSp::new(100_000)
            .with_seed(9)
            .compute(&c, &InputProbs::uniform(0.5).with(a, 0.1))
            .unwrap();
        assert!((sp.get(a) - 0.1).abs() < 0.01);
    }

    #[test]
    fn sequential_toggle_half() {
        let c = parse_bench("OUTPUT(q)\nq = DFF(d)\nd = NOT(q)\n", "tff").unwrap();
        let sp = MonteCarloSp::new(10_000)
            .with_seed(2)
            .compute(&c, &InputProbs::default())
            .unwrap();
        // A toggling FF spends half its time at 1. (All 64 lanes toggle in
        // lockstep from reset, but sampling over whole cycles averages the
        // 0-phase and 1-phase equally when vector count covers both.)
        let q = c.find("q").unwrap();
        assert!((sp.get(q) - 0.5).abs() < 0.05, "{}", sp.get(q));
    }

    #[test]
    fn deterministic_given_seed() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n", "d").unwrap();
        let e = MonteCarloSp::new(5_000).with_seed(7);
        let s1 = e.compute(&c, &InputProbs::default()).unwrap();
        let s2 = e.compute(&c, &InputProbs::default()).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(MonteCarloSp::new(1).name(), "monte-carlo");
    }
}
