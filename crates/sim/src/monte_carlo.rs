//! The random-simulation baseline the paper compares against.
//!
//! "All previous SER estimation methods use the random vector simulation
//! approach": apply random vectors, inject the SEU, and count how often
//! the erroneous value reaches an output or flip-flop. This module is
//! that method, made as fast as honestly possible (bit-parallel,
//! cone-restricted) so the Table 2 runtime comparison is fair.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ser_netlist::{CancelCause, CancelToken, NodeId, ObservePoint};

use crate::engine::BitSim;
use crate::fault::SiteFaultSim;

/// Monte-Carlo estimation parameters.
///
/// # Examples
///
/// ```
/// use ser_sim::MonteCarlo;
///
/// let mc = MonteCarlo::new(10_000).with_seed(7);
/// assert_eq!(mc.vectors(), 10_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonteCarlo {
    vectors: u64,
    seed: u64,
}

impl MonteCarlo {
    /// Creates a configuration running `vectors` random vectors per site.
    ///
    /// # Panics
    ///
    /// Panics if `vectors` is 0.
    #[must_use]
    pub fn new(vectors: u64) -> Self {
        assert!(vectors > 0, "at least one vector");
        MonteCarlo {
            vectors,
            seed: 0xE5EED,
        }
    }

    /// Sets the PRNG seed (estimates are deterministic given a seed).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of random vectors per site.
    #[must_use]
    pub fn vectors(&self) -> u64 {
        self.vectors
    }

    /// Estimates `P_sensitized` and per-output error-arrival
    /// probabilities for one error site.
    #[must_use]
    pub fn estimate_site(&self, sim: &BitSim, site: NodeId) -> SiteEstimate {
        let fault = SiteFaultSim::new(sim, site);
        self.run_site(sim, &fault)
    }

    /// Estimates every site in `sites`, reusing one PRNG stream; returns
    /// estimates in the same order.
    #[must_use]
    pub fn estimate_sites(&self, sim: &BitSim, sites: &[NodeId]) -> Vec<SiteEstimate> {
        sites
            .iter()
            .map(|&site| self.estimate_site(sim, site))
            .collect()
    }

    fn run_site(&self, sim: &BitSim, fault: &SiteFaultSim) -> SiteEstimate {
        let num_sources = sim.sources().len();
        let mut rng = SmallRng::seed_from_u64(self.seed ^ fault.site().index() as u64);
        let mut source_words = vec![0u64; num_sources];
        let mut good = vec![0u64; sim.circuit().len()];
        let mut scratch = vec![0u64; sim.circuit().len()];

        let mut sensitized = 0u64;
        let mut per_point: Vec<(ObservePoint, u64, u64)> = fault
            .observe_points()
            .iter()
            .map(|&p| (p, 0u64, 0u64))
            .collect();

        let mut remaining = self.vectors;
        while remaining > 0 {
            let count = remaining.min(64) as u32;
            let valid = if count == 64 {
                !0u64
            } else {
                (1u64 << count) - 1
            };
            for w in &mut source_words {
                *w = rng.gen();
            }
            sim.run_into(&source_words, &mut good);
            scratch.copy_from_slice(&good);
            let outcome = fault.inject(sim, &good, &mut scratch);
            sensitized += u64::from((outcome.any_diff & valid).count_ones());
            for (slot, masks) in per_point.iter_mut().zip(&outcome.per_point) {
                slot.1 += u64::from((masks.even & valid).count_ones());
                slot.2 += u64::from((masks.odd & valid).count_ones());
            }
            remaining -= u64::from(count);
        }

        let v = self.vectors as f64;
        SiteEstimate {
            site: fault.site(),
            vectors: self.vectors,
            p_sensitized: sensitized as f64 / v,
            per_point: per_point
                .into_iter()
                .map(|(point, even, odd)| PointEstimate {
                    point,
                    p_even: even as f64 / v,
                    p_odd: odd as f64 / v,
                })
                .collect(),
        }
    }
}

/// Monte-Carlo with a *sequential stopping rule* targeting a normalized
/// error bound, after Mendo's guaranteed-error sequential estimation
/// (L. Mendo & J. M. Hernando, 2009): instead of a fixed trial count,
/// simulate until a target number of **successes** (vectors where the
/// error reaches an observe point) has been observed — inverse binomial
/// sampling. With `k` target successes and `N` the (random) trial count
/// at stop, the estimator `p̂ = (k − 1) / (N − 1)` has normalized
/// mean-square error bounded by roughly `1 / (k − 2)`, *independent of
/// the unknown `p`* — so one `target_error` setting buys uniform
/// relative accuracy for highly- and barely-sensitized sites alike,
/// spending vectors only where `P_sensitized` is small.
///
/// Two deviations from the idealized scheme, both documented here
/// because they matter for interpreting results:
///
/// - Trials run in bit-parallel 64-vector blocks, so the stop is
///   checked at block granularity; the estimator generalizes to
///   `(successes − 1) / (N − 1)` with whatever success count the final
///   block reached. Per-point arrival frequencies are scaled by the
///   same debiasing factor, keeping them consistent with
///   `p_sensitized`.
/// - A hard `max_vectors` cap bounds dead and near-dead sites (true
///   inverse binomial sampling never terminates at `p = 0`). When the
///   cap triggers, the plain frequency `successes / N` is reported.
///
/// # Examples
///
/// ```
/// use ser_netlist::parse_bench;
/// use ser_sim::{BitSim, SequentialMonteCarlo};
///
/// let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t")?;
/// let sim = BitSim::new(&c)?;
/// let a = c.find("a").unwrap();
/// let mc = SequentialMonteCarlo::new(0.1).with_seed(7);
/// // No cancel token and no observer: the run cannot be cancelled.
/// let est = mc.estimate_site(&sim, a, None, |_, _| {}).unwrap();
/// // P_sensitized = 0.5; the rule stopped on its own, well under the cap.
/// assert!((est.p_sensitized - 0.5).abs() < 0.1);
/// assert!(est.vectors < mc.max_vectors());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequentialMonteCarlo {
    target_error: f64,
    max_vectors: u64,
    seed: u64,
}

impl SequentialMonteCarlo {
    /// Default trial cap: enough for `target_error`-accurate estimates
    /// down to `P_sensitized ≈ 10^-3` at the default setting.
    const DEFAULT_MAX_VECTORS: u64 = 1 << 20;

    /// Creates a rule targeting normalized RMS error `target_error`
    /// (e.g. `0.1` for ~10% relative error).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < target_error < 1`.
    #[must_use]
    pub fn new(target_error: f64) -> Self {
        assert!(
            target_error.is_finite() && target_error > 0.0 && target_error < 1.0,
            "target error {target_error} outside (0,1)"
        );
        SequentialMonteCarlo {
            target_error,
            max_vectors: Self::DEFAULT_MAX_VECTORS,
            seed: 0xE5EED,
        }
    }

    /// Sets the PRNG seed (estimates are deterministic given a seed).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the hard trial cap that bounds dead-site runs.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is 0.
    #[must_use]
    pub fn with_max_vectors(mut self, cap: u64) -> Self {
        assert!(cap > 0, "at least one vector");
        self.max_vectors = cap;
        self
    }

    /// The configured normalized error target.
    #[must_use]
    pub fn target_error(&self) -> f64 {
        self.target_error
    }

    /// The hard trial cap.
    #[must_use]
    pub fn max_vectors(&self) -> u64 {
        self.max_vectors
    }

    /// Successes required before stopping: `k = ⌈1/ε²⌉ + 2`, giving
    /// normalized MSE ≲ `1/(k − 2) = ε²`.
    #[must_use]
    fn successes_required(&self) -> u64 {
        (1.0 / (self.target_error * self.target_error)).ceil() as u64 + 2
    }

    /// Estimates `P_sensitized` and per-point arrivals for one site,
    /// running until `k = ⌈1/ε²⌉ + 2` sensitized vectors have been seen
    /// or the cap is reached.
    /// `SiteEstimate::vectors` reports the trials actually spent.
    ///
    /// `observe(vectors_run, sensitized_so_far)` is called after every
    /// simulated block (64 vectors, fewer on the capped final block), so
    /// a long-running sequential estimate can stream interim counts —
    /// the service's wire protocol turns these into progress frames.
    /// `cancel` is polled at the same block boundaries; a trip aborts
    /// the loop and discards the partial counts.
    ///
    /// Neither the observer nor a live token can influence the run: the
    /// estimate is **bit-identical** whatever is passed for either.
    ///
    /// # Errors
    ///
    /// The [`CancelCause`] when `cancel` trips before the stopping
    /// rule (or the cap) finishes the run.
    pub fn estimate_site(
        &self,
        sim: &BitSim,
        site: NodeId,
        cancel: Option<&CancelToken>,
        mut observe: impl FnMut(u64, u64),
    ) -> Result<SiteEstimate, CancelCause> {
        let fault = SiteFaultSim::new(sim, site);
        let needed = self.successes_required();
        let num_sources = sim.sources().len();
        let mut rng = SmallRng::seed_from_u64(self.seed ^ site.index() as u64);
        let mut source_words = vec![0u64; num_sources];
        let mut good = vec![0u64; sim.circuit().len()];
        let mut scratch = vec![0u64; sim.circuit().len()];

        let mut sensitized = 0u64;
        let mut per_point: Vec<(ObservePoint, u64, u64)> = fault
            .observe_points()
            .iter()
            .map(|&p| (p, 0u64, 0u64))
            .collect();

        let mut ran = 0u64;
        while ran < self.max_vectors && sensitized < needed {
            if let Some(token) = cancel {
                token.check()?;
            }
            let count = (self.max_vectors - ran).min(64) as u32;
            let valid = if count == 64 {
                !0u64
            } else {
                (1u64 << count) - 1
            };
            for w in &mut source_words {
                *w = rng.gen();
            }
            sim.run_into(&source_words, &mut good);
            scratch.copy_from_slice(&good);
            let outcome = fault.inject(sim, &good, &mut scratch);
            sensitized += u64::from((outcome.any_diff & valid).count_ones());
            for (slot, masks) in per_point.iter_mut().zip(&outcome.per_point) {
                slot.1 += u64::from((masks.even & valid).count_ones());
                slot.2 += u64::from((masks.odd & valid).count_ones());
            }
            ran += u64::from(count);
            observe(ran, sensitized);
        }

        let v = ran as f64;
        // When the rule stops on its own, debias with the inverse-
        // binomial estimator and scale the per-point frequencies by the
        // same factor, so per-point arrivals stay consistent with
        // `p_sensitized` (for a single-observe-point site their sum
        // equals it exactly, as in the fixed-count engine).
        let (p_sensitized, point_scale) = if sensitized >= needed && ran > 1 {
            let debiased = (sensitized - 1) as f64 / (ran - 1) as f64;
            (debiased, debiased / (sensitized as f64 / v))
        } else {
            (sensitized as f64 / v, 1.0)
        };
        Ok(SiteEstimate {
            site,
            vectors: ran,
            p_sensitized,
            per_point: per_point
                .into_iter()
                .map(|(point, even, odd)| PointEstimate {
                    point,
                    p_even: even as f64 / v * point_scale,
                    p_odd: odd as f64 / v * point_scale,
                })
                .collect(),
        })
    }
}

/// Monte-Carlo estimate of error arrival at one observe point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointEstimate {
    /// The observe point.
    pub point: ObservePoint,
    /// Estimated probability the erroneous value arrives with even
    /// parity (the analytical `Pa`).
    pub p_even: f64,
    /// Estimated probability it arrives with odd parity (`Pā`).
    pub p_odd: f64,
}

impl PointEstimate {
    /// Total arrival probability `Pa + Pā` at this point.
    #[must_use]
    pub fn p_arrival(&self) -> f64 {
        self.p_even + self.p_odd
    }
}

/// Monte-Carlo estimate for one error site.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteEstimate {
    /// The error site.
    pub site: NodeId,
    /// Vectors simulated.
    pub vectors: u64,
    /// Estimated `P_sensitized`: fraction of vectors where the error
    /// reached at least one observe point.
    pub p_sensitized: f64,
    /// Per-observe-point arrival estimates.
    pub per_point: Vec<PointEstimate>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ser_netlist::parse_bench;

    #[test]
    fn and_side_input_half_probability() {
        // Error on `a` propagates through AND(a,b) iff b=1: P = 0.5.
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t").unwrap();
        let sim = BitSim::new(&c).unwrap();
        let a = c.find("a").unwrap();
        let est = MonteCarlo::new(20_000).with_seed(1).estimate_site(&sim, a);
        assert!(
            (est.p_sensitized - 0.5).abs() < 0.02,
            "{}",
            est.p_sensitized
        );
        assert_eq!(est.vectors, 20_000);
        // Single observe point, all-even parity.
        assert_eq!(est.per_point.len(), 1);
        assert!(est.per_point[0].p_odd.abs() < 1e-12);
        assert!((est.per_point[0].p_arrival() - est.p_sensitized).abs() < 1e-12);
    }

    #[test]
    fn xor_always_sensitized() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n", "x").unwrap();
        let sim = BitSim::new(&c).unwrap();
        let a = c.find("a").unwrap();
        let est = MonteCarlo::new(1_000).estimate_site(&sim, a);
        assert_eq!(est.p_sensitized, 1.0);
        // Parity split ~50/50 by b.
        assert!((est.per_point[0].p_even - 0.5).abs() < 0.05);
        assert!((est.per_point[0].p_odd - 0.5).abs() < 0.05);
    }

    #[test]
    fn deterministic_given_seed() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nu = AND(a, b)\ny = OR(u, c)\n",
            "t",
        )
        .unwrap();
        let sim = BitSim::new(&c).unwrap();
        let a = c.find("a").unwrap();
        let mc = MonteCarlo::new(5_000).with_seed(99);
        let e1 = mc.estimate_site(&sim, a);
        let e2 = mc.estimate_site(&sim, a);
        assert_eq!(e1, e2);
    }

    #[test]
    fn partial_last_block_counts_correctly() {
        // vectors = 100 (not a multiple of 64): estimate must still be
        // a probability in [0,1] computed over exactly 100 vectors.
        let c = parse_bench("INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n", "b").unwrap();
        let sim = BitSim::new(&c).unwrap();
        let a = c.find("a").unwrap();
        let est = MonteCarlo::new(100).estimate_site(&sim, a);
        // BUF: always sensitized; if partial blocks were mis-masked this
        // would overshoot 1.0.
        assert_eq!(est.p_sensitized, 1.0);
    }

    #[test]
    fn multi_output_any_semantics() {
        // y1 = AND(a, b), y2 = AND(a, c): sensitized iff b=1 or c=1 -> 0.75.
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y1)\nOUTPUT(y2)\ny1 = AND(a, b)\ny2 = AND(a, c)\n",
            "m",
        )
        .unwrap();
        let sim = BitSim::new(&c).unwrap();
        let a = c.find("a").unwrap();
        let est = MonteCarlo::new(40_000).with_seed(5).estimate_site(&sim, a);
        assert!(
            (est.p_sensitized - 0.75).abs() < 0.02,
            "{}",
            est.p_sensitized
        );
        // Each single output arrives with p = 0.5.
        for p in &est.per_point {
            assert!((p.p_arrival() - 0.5).abs() < 0.02);
        }
    }

    #[test]
    fn sequential_rule_stops_early_on_live_sites() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t").unwrap();
        let sim = BitSim::new(&c).unwrap();
        let a = c.find("a").unwrap();
        let mc = SequentialMonteCarlo::new(0.1).with_seed(3);
        let est = mc.estimate_site(&sim, a, None, |_, _| {}).unwrap();
        // k = ceil(1/0.01) + 2 = 102 successes at p = 0.5: ~204 vectors,
        // far under the cap.
        assert_eq!(mc.successes_required(), 102);
        assert!(est.vectors < 1_000, "stopped after {} vectors", est.vectors);
        assert!(est.vectors >= 102, "cannot stop before k successes");
        assert!(
            (est.p_sensitized - 0.5).abs() < 0.15,
            "{}",
            est.p_sensitized
        );
        // Deterministic per seed.
        assert_eq!(est, mc.estimate_site(&sim, a, None, |_, _| {}).unwrap());
        // Single observe point: per-point arrival must equal the
        // (debiased) p_sensitized exactly, as in the fixed-count engine.
        assert_eq!(est.per_point.len(), 1);
        assert!(
            (est.per_point[0].p_arrival() - est.p_sensitized).abs() < 1e-12,
            "per-point {} vs p_sens {}",
            est.per_point[0].p_arrival(),
            est.p_sensitized
        );
    }

    #[test]
    fn observed_run_is_bit_identical_and_monotonic() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = AND(a, b, c)\n",
            "t",
        )
        .unwrap();
        let sim = BitSim::new(&c).unwrap();
        let a = c.find("a").unwrap();
        let mc = SequentialMonteCarlo::new(0.1).with_seed(3);
        let plain = mc.estimate_site(&sim, a, None, |_, _| {}).unwrap();
        let mut calls: Vec<(u64, u64)> = Vec::new();
        let observed = mc
            .estimate_site(&sim, a, None, |ran, hits| calls.push((ran, hits)))
            .unwrap();
        assert_eq!(observed, plain, "observer must not perturb the run");
        // One call per 64-vector block, counts non-decreasing, final
        // call reports the totals the estimate is built from.
        assert_eq!(calls.len() as u64, plain.vectors.div_ceil(64));
        assert!(calls
            .windows(2)
            .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(calls.last().unwrap().0, plain.vectors);
    }

    #[test]
    fn sequential_rule_caps_dead_sites() {
        // u drives nothing observable: p = 0, the rule would never stop
        // without the cap.
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(b)\nu = NOT(a)\n", "dead").unwrap();
        let sim = BitSim::new(&c).unwrap();
        let u = c.find("u").unwrap();
        let mc = SequentialMonteCarlo::new(0.2).with_max_vectors(512);
        let est = mc.estimate_site(&sim, u, None, |_, _| {}).unwrap();
        assert_eq!(est.vectors, 512, "ran to the cap");
        assert_eq!(est.p_sensitized, 0.0);
    }

    #[test]
    fn sequential_rule_meets_normalized_error_target() {
        // Error on `a` through AND(a, b, c): p = 0.25. Across seeds the
        // RMS of the *relative* error must be near the 20% target
        // (allow generous slack for the block-granular stop).
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = AND(a, b, c)\n",
            "t",
        )
        .unwrap();
        let sim = BitSim::new(&c).unwrap();
        let a = c.find("a").unwrap();
        let mc = SequentialMonteCarlo::new(0.2);
        let mut sq_rel = 0.0;
        const SEEDS: u64 = 40;
        for seed in 0..SEEDS {
            let est = mc
                .with_seed(seed)
                .estimate_site(&sim, a, None, |_, _| {})
                .unwrap();
            let rel = (est.p_sensitized - 0.25) / 0.25;
            sq_rel += rel * rel;
        }
        let rmse = (sq_rel / SEEDS as f64).sqrt();
        assert!(rmse < 0.3, "normalized RMSE {rmse} vs target 0.2");
    }

    #[test]
    fn sequential_spends_more_on_rare_sites() {
        // p(a via AND3) = 0.25 needs ~4x the vectors of p(buf) = 1.0 for
        // the same relative accuracy — the adaptivity a fixed budget
        // lacks.
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\ny = AND(a, b, c)\nz = BUF(b)\n",
            "t",
        )
        .unwrap();
        let sim = BitSim::new(&c).unwrap();
        let mc = SequentialMonteCarlo::new(0.1).with_seed(5);
        let rare = mc
            .estimate_site(&sim, c.find("a").unwrap(), None, |_, _| {})
            .unwrap();
        let easy = mc
            .estimate_site(&sim, c.find("b").unwrap(), None, |_, _| {})
            .unwrap();
        assert!(
            rare.vectors >= 2 * easy.vectors,
            "rare {} vs easy {}",
            rare.vectors,
            easy.vectors
        );
    }

    #[test]
    fn dff_state_randomized_like_inputs() {
        // y = XOR(q, a) with q a flip-flop: sensitization of `a` is 1.0
        // regardless of state randomization; and the site `q` itself is
        // also always sensitized (to PO via XOR and to its own D? no --
        // q drives only y). This exercises sources = PIs + DFFs.
        let c = parse_bench("INPUT(a)\nOUTPUT(y)\nq = DFF(y)\ny = XOR(q, a)\n", "s").unwrap();
        let sim = BitSim::new(&c).unwrap();
        assert_eq!(sim.sources().len(), 2);
        let q = c.find("q").unwrap();
        let est = MonteCarlo::new(1_000).estimate_site(&sim, q);
        // q reaches PO y (always, via XOR) and FF q (via y = D).
        assert_eq!(est.p_sensitized, 1.0);
        assert_eq!(est.per_point.len(), 2);
    }
}
