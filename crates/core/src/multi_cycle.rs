//! Multi-cycle (sequential) error propagation — an extension beyond the
//! paper's single-cycle analysis.
//!
//! The paper counts an error as "observed" once it reaches a primary
//! output or is latched by a flip-flop. A latched error, however, may
//! surface at a primary output only cycles later (or be logically
//! masked and vanish). This module follows the error through time two
//! ways:
//!
//! - [`MultiCycleEpp`] — an analytical frame-expansion built from the
//!   one-pass EPP kernel: per-flip-flop corruption probabilities are
//!   propagated through a (FF → FF, FF → PO) arrival matrix computed by
//!   running the paper's algorithm with each flip-flop as the error
//!   site. Corrupted flip-flops are treated as independent, and error
//!   polarity is dropped across frames, so this is an approximation —
//!   cross-checked by the simulator below.
//! - [`multi_cycle_monte_carlo`] — ground truth by differential
//!   sequential simulation with a fixed run count, and
//!   [`multi_cycle_monte_carlo_sequential`] — the same simulation under
//!   Mendo's inverse-binomial stopping rule, spending runs until the
//!   final-cycle estimate meets a normalized error target.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ser_netlist::{CancelCause, CancelToken, Circuit, NodeId, ObservePoint};
use ser_sim::SeqSim;
use ser_sp::SpVector;

use crate::engine::{combine_sensitization, EppAnalysis, PolarityMode, WorkspacePool};

/// Analytical multi-cycle observation probabilities.
///
/// Owns its circuit through the underlying [`EppAnalysis`]; no lifetime
/// parameter, freely movable across threads.
#[derive(Debug, Clone)]
pub struct MultiCycleEpp {
    /// `po_arrival[f]`: combined PO arrival probability when FF `f`'s
    /// output is the error site.
    po_arrival: Vec<f64>,
    /// `ff_arrival[f][g]`: arrival probability at FF `g`'s D pin when FF
    /// `f`'s output is the error site.
    ff_arrival: Vec<Vec<f64>>,
    analysis: EppAnalysis,
}

/// Per-cycle cumulative observation probabilities for one site.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiCycleResult {
    /// The error site.
    pub site: NodeId,
    /// `cumulative[k]`: probability the error was seen at a primary
    /// output within the first `k + 1` cycles (cycle 0 is the SEU
    /// cycle).
    pub cumulative: Vec<f64>,
    /// Residual per-flip-flop corruption probability after the last
    /// analyzed cycle (diagnostic: how much error is still "in flight").
    pub residual_corruption: Vec<f64>,
}

impl MultiCycleEpp {
    /// Compiles the frame-expansion tables: one EPP pass per flip-flop.
    ///
    /// # Errors
    ///
    /// Returns [`ser_netlist::NetlistError`] if the circuit cannot be
    /// topologically ordered.
    ///
    /// # Panics
    ///
    /// Panics if `sp` does not cover the circuit.
    pub fn new(
        circuit: impl Into<Arc<Circuit>>,
        sp: SpVector,
    ) -> Result<Self, ser_netlist::NetlistError> {
        Ok(Self::with_analysis(EppAnalysis::new(circuit, sp)?))
    }

    /// Compiles the frame-expansion tables on top of an existing
    /// single-cycle analysis — e.g. one handed out by an
    /// [`AnalysisSession`](crate::AnalysisSession) via
    /// [`epp()`](crate::AnalysisSession::epp), so topological order and
    /// SP are not recomputed. The per-flip-flop passes run as one
    /// batched sweep over the shared cone plans.
    #[must_use]
    pub fn with_analysis(analysis: EppAnalysis) -> Self {
        let circuit = Arc::clone(analysis.circuit_arc());
        let nffs = circuit.num_dffs();
        let mut po_arrival = vec![0.0; nffs];
        let mut ff_arrival = vec![vec![0.0; nffs]; nffs];
        let pool = WorkspacePool::new();
        let sweep = analysis.sweep_sites_with(circuit.dffs(), PolarityMode::Tracked, 1, &pool);
        for (fi, site) in sweep.iter().enumerate() {
            let mut po_arr = Vec::new();
            for p in site.per_point() {
                match p.point {
                    ObservePoint::PrimaryOutput(_) => po_arr.push(p.p_arrival()),
                    ObservePoint::FlipFlop { dff, .. } => {
                        let gi = circuit
                            .dffs()
                            .iter()
                            .position(|&d| d == dff)
                            .expect("observe point names a real dff");
                        ff_arrival[fi][gi] = p.p_arrival();
                    }
                }
            }
            po_arrival[fi] = combine_sensitization(po_arr);
        }
        MultiCycleEpp {
            po_arrival,
            ff_arrival,
            analysis,
        }
    }

    /// The underlying single-cycle analysis.
    #[must_use]
    pub fn single_cycle(&self) -> &EppAnalysis {
        &self.analysis
    }

    /// Cumulative PO-observation probability of an SEU at `site` over
    /// `cycles` clock cycles (cycle 0 included).
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is 0 or `site` out of range.
    #[must_use]
    pub fn site(&self, site: NodeId, cycles: usize) -> MultiCycleResult {
        assert!(cycles > 0, "at least the SEU cycle itself");
        let circuit = self.analysis.circuit();
        let nffs = circuit.num_dffs();
        let pool = WorkspacePool::new();
        let frame0_sweep = self
            .analysis
            .sweep_sites_with(&[site], PolarityMode::Tracked, 1, &pool);
        let frame0 = frame0_sweep.get(0);
        let mut po_arr = Vec::new();
        let mut corruption = vec![0.0f64; nffs];
        for p in frame0.per_point() {
            match p.point {
                ObservePoint::PrimaryOutput(_) => po_arr.push(p.p_arrival()),
                ObservePoint::FlipFlop { dff, .. } => {
                    let gi = circuit
                        .dffs()
                        .iter()
                        .position(|&d| d == dff)
                        .expect("observe point names a real dff");
                    corruption[gi] = p.p_arrival();
                }
            }
        }
        let obs0 = combine_sensitization(po_arr);
        let mut miss = 1.0 - obs0;
        let mut cumulative = vec![1.0 - miss];
        for _ in 1..cycles {
            // Probability some corrupted FF surfaces at a PO this cycle.
            let obs_k = combine_sensitization(
                corruption
                    .iter()
                    .zip(&self.po_arrival)
                    .map(|(&c, &o)| c * o),
            );
            miss *= 1.0 - obs_k;
            cumulative.push(1.0 - miss);
            // Next-cycle corruption.
            let mut next = vec![0.0f64; nffs];
            for (gi, slot) in next.iter_mut().enumerate() {
                *slot = combine_sensitization(
                    corruption
                        .iter()
                        .enumerate()
                        .map(|(fi, &c)| c * self.ff_arrival[fi][gi]),
                );
            }
            corruption = next;
        }
        MultiCycleResult {
            site,
            cumulative,
            residual_corruption: corruption,
        }
    }
}

/// Ground truth for the multi-cycle observation probability by
/// differential sequential simulation: inject the SEU in cycle 0 and
/// report, per cycle, the cumulative fraction of runs where any primary
/// output has differed so far.
///
/// # Errors
///
/// Returns [`ser_netlist::NetlistError`] if the circuit cannot be
/// simulated.
///
/// # Panics
///
/// Panics if `cycles` or `runs` is 0.
pub fn multi_cycle_monte_carlo(
    circuit: impl Into<Arc<Circuit>>,
    site: NodeId,
    cycles: usize,
    runs: u64,
    seed: u64,
) -> Result<Vec<f64>, ser_netlist::NetlistError> {
    assert!(runs > 0, "at least one run");
    match run_multi_cycle_mc(circuit.into(), site, cycles, runs, None, seed, None, None) {
        Ok(est) => Ok(est.cumulative),
        Err(MultiCycleMcAbort::Simulation(e)) => Err(e),
        Err(MultiCycleMcAbort::Cancelled(_)) => {
            unreachable!("a run without a token cannot be cancelled")
        }
    }
}

/// Result of a sequential-stopping multi-cycle Monte-Carlo run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiCycleMcEstimate {
    /// `cumulative[k]`: estimated probability the error was seen at a
    /// primary output within the first `k + 1` cycles. When the
    /// stopping rule fired, the final cycle carries the debiased
    /// inverse-binomial estimate and earlier cycles are scaled by the
    /// same factor (keeping the vector consistent and monotone).
    pub cumulative: Vec<f64>,
    /// Differential simulation runs actually spent.
    pub runs: u64,
    /// `true` when the stopping rule reached its success target;
    /// `false` when the `max_runs` cap cut the run short (plain
    /// frequencies are reported in that case).
    pub stopped_by_rule: bool,
}

/// Why a cancellable multi-cycle Monte-Carlo run ended without an
/// estimate.
#[derive(Debug)]
pub enum MultiCycleMcAbort {
    /// The circuit could not be simulated.
    Simulation(ser_netlist::NetlistError),
    /// The cancellation token tripped at an observation-block
    /// boundary; all partial counts were dropped.
    Cancelled(CancelCause),
}

impl std::fmt::Display for MultiCycleMcAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultiCycleMcAbort::Simulation(e) => e.fmt(f),
            MultiCycleMcAbort::Cancelled(cause) => cause.fmt(f),
        }
    }
}

impl std::error::Error for MultiCycleMcAbort {}

impl From<ser_netlist::NetlistError> for MultiCycleMcAbort {
    fn from(e: ser_netlist::NetlistError) -> Self {
        MultiCycleMcAbort::Simulation(e)
    }
}

impl From<CancelCause> for MultiCycleMcAbort {
    fn from(cause: CancelCause) -> Self {
        MultiCycleMcAbort::Cancelled(cause)
    }
}

/// [`multi_cycle_monte_carlo`] under Mendo's inverse-binomial stopping
/// rule (the same scheme as
/// [`SequentialMonteCarlo`](ser_sim::SequentialMonteCarlo), lifted from
/// single-cycle `P_sensitized` to the multi-cycle observation
/// probability): instead of a fixed run count, simulate 64-run blocks
/// until `k = ⌈1/ε²⌉ + 2` runs have shown the error at a primary output
/// within `cycles` cycles — so rarely-observed sites automatically get
/// more runs and strongly-observed sites stop almost immediately, with
/// normalized MSE on the final-cycle estimate bounded by ≈ `ε²`
/// regardless of the unknown probability.
///
/// The stop is checked at block granularity and a hard `max_runs` cap
/// bounds never-observed sites, exactly as in the single-cycle rule.
///
/// After every 64-run block, `observer(runs_done, observed_final)`
/// reports the runs spent so far and the final-cycle success count —
/// the raw tick a service throttles (e.g. at doubling thresholds) into
/// wire `progress` frames. `cancel` is polled at the same Mendo
/// observation-block boundaries; a trip aborts with
/// [`MultiCycleMcAbort::Cancelled`] and drops all partial counts.
///
/// The observer is pure telemetry and a live token changes nothing:
/// the RNG stream, stopping decisions, and estimate are
/// **bit-identical** whatever is passed for either.
///
/// # Errors
///
/// [`MultiCycleMcAbort::Simulation`] if the circuit cannot be
/// simulated, [`MultiCycleMcAbort::Cancelled`] when `cancel` trips
/// before the stopping rule (or the `max_runs` cap) finishes the run.
///
/// # Panics
///
/// Panics if `cycles` or `max_runs` is 0 or `target_error` is outside
/// `(0, 1)`.
// The simulation parameters plus the observer and the cancel token.
#[allow(clippy::too_many_arguments)]
pub fn multi_cycle_monte_carlo_sequential(
    circuit: impl Into<Arc<Circuit>>,
    site: NodeId,
    cycles: usize,
    target_error: f64,
    max_runs: u64,
    seed: u64,
    observer: &mut dyn FnMut(u64, u64),
    cancel: Option<&CancelToken>,
) -> Result<MultiCycleMcEstimate, MultiCycleMcAbort> {
    assert!(
        target_error.is_finite() && target_error > 0.0 && target_error < 1.0,
        "target error {target_error} outside (0,1)"
    );
    assert!(max_runs > 0, "at least one run");
    let needed = (1.0 / (target_error * target_error)).ceil() as u64 + 2;
    run_multi_cycle_mc(
        circuit.into(),
        site,
        cycles,
        max_runs,
        Some(needed),
        seed,
        Some(observer),
        cancel,
    )
}

/// The shared differential-simulation core: runs 64-lane blocks up to
/// `max_runs`, stopping early once the final-cycle success count
/// reaches `needed` (when set). Both simulators are compiled once,
/// sharing one circuit handle, and re-seeded per block.
#[allow(clippy::too_many_arguments)]
fn run_multi_cycle_mc(
    circuit: Arc<Circuit>,
    site: NodeId,
    cycles: usize,
    max_runs: u64,
    needed: Option<u64>,
    seed: u64,
    mut observer: Option<&mut dyn FnMut(u64, u64)>,
    cancel: Option<&CancelToken>,
) -> Result<MultiCycleMcEstimate, MultiCycleMcAbort> {
    assert!(cycles > 0, "at least the SEU cycle");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut observed = vec![0u64; cycles];
    let mut done = 0u64;
    let mut good = SeqSim::new(Arc::clone(&circuit))?;
    let mut faulty = SeqSim::new(Arc::clone(&circuit))?;
    while done < max_runs && needed.is_none_or(|k| observed[cycles - 1] < k) {
        if let Some(token) = cancel {
            token.check()?;
        }
        let lanes = (max_runs - done).min(64) as u32;
        let valid = if lanes == 64 {
            !0u64
        } else {
            (1u64 << lanes) - 1
        };
        // Random initial state shared by both machines.
        let init: Vec<u64> = (0..circuit.num_dffs()).map(|_| rng.gen()).collect();
        good.set_state(&init);
        faulty.set_state(&init);
        let mut seen = 0u64;
        // `cycle` both indexes `observed` and drives the SEU-at-cycle-0
        // branch; keep the index form.
        #[allow(clippy::needless_range_loop)]
        for cycle in 0..cycles {
            let pis: Vec<u64> = (0..circuit.num_inputs()).map(|_| rng.gen()).collect();
            let gv = good.step(&pis);
            let fv = if cycle == 0 {
                // The SEU: flip the site in every lane during cycle 0.
                faulty.step_with_seu(&pis, &[(site, !0u64)])
            } else {
                faulty.step(&pis)
            };
            for &po in circuit.outputs() {
                seen |= gv[po.index()] ^ fv[po.index()];
            }
            observed[cycle] += u64::from((seen & valid).count_ones());
        }
        done += u64::from(lanes);
        if let Some(obs) = observer.as_deref_mut() {
            obs(done, observed[cycles - 1]);
        }
    }
    let final_successes = observed[cycles - 1];
    let stopped_by_rule = needed.is_some_and(|k| final_successes >= k);
    let v = done as f64;
    // When the rule stops on its own, debias the final cycle with the
    // inverse-binomial estimator and scale the earlier cycles by the
    // same factor, mirroring `SequentialMonteCarlo`'s per-point scaling.
    let scale = if stopped_by_rule && done > 1 && final_successes > 0 {
        let debiased = (final_successes - 1) as f64 / (done - 1) as f64;
        debiased / (final_successes as f64 / v)
    } else {
        1.0
    };
    Ok(MultiCycleMcEstimate {
        cumulative: observed.into_iter().map(|o| o as f64 / v * scale).collect(),
        runs: done,
        stopped_by_rule,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ser_netlist::parse_bench;
    use ser_sp::{IndependentSp, InputProbs, SpEngine};

    fn sp_for(c: &Circuit) -> SpVector {
        IndependentSp::new()
            .compute(c, &InputProbs::default())
            .unwrap()
    }

    /// A pipeline: x -> u -> DFF q -> y (PO). The error on `u` is never
    /// seen in cycle 0 (no combinational PO path) and always seen in
    /// cycle 1.
    const PIPE: &str = "
INPUT(x)
OUTPUT(y)
u = NOT(x)
q = DFF(u)
y = NOT(q)
";

    #[test]
    fn pipeline_delays_observation_one_cycle() {
        let c = parse_bench(PIPE, "pipe").unwrap();
        let mc = MultiCycleEpp::new(&c, sp_for(&c)).unwrap();
        let u = c.find("u").unwrap();
        let r = mc.site(u, 3);
        assert_eq!(r.cumulative[0], 0.0, "no combinational path to y");
        assert_eq!(r.cumulative[1], 1.0, "latched error surfaces next cycle");
        assert_eq!(r.cumulative[2], 1.0);
        assert_eq!(r.site, u);
    }

    #[test]
    fn pipeline_matches_simulation() {
        let c = parse_bench(PIPE, "pipe").unwrap();
        let u = c.find("u").unwrap();
        let analytic = MultiCycleEpp::new(&c, sp_for(&c)).unwrap().site(u, 3);
        let sim = multi_cycle_monte_carlo(&c, u, 3, 4096, 7).unwrap();
        for (a, s) in analytic.cumulative.iter().zip(&sim) {
            assert!((a - s).abs() < 0.05, "analytic {a} vs sim {s}");
        }
    }

    #[test]
    fn masked_feedback_decays() {
        // q = DFF(d); d = AND(q, x); y = BUF(q): a corrupted q has a 50%
        // chance per cycle of being masked by x before re-latching.
        let c = parse_bench(
            "INPUT(x)\nOUTPUT(y)\nq = DFF(d)\nd = AND(q, x)\ny = BUF(q)\n",
            "decay",
        )
        .unwrap();
        let q = c.find("q").unwrap();
        let mc = MultiCycleEpp::new(&c, sp_for(&c)).unwrap();
        let r = mc.site(q, 4);
        // q is itself PO-visible through y immediately.
        assert_eq!(r.cumulative[0], 1.0);
        // Residual corruption decays geometrically (0.5 per cycle).
        assert!(
            r.residual_corruption[0] < 0.2,
            "{:?}",
            r.residual_corruption
        );
    }

    #[test]
    fn combinational_circuit_single_frame_consistency() {
        // With no flip-flops, every cycle after 0 adds nothing.
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "comb").unwrap();
        let a = c.find("a").unwrap();
        let mc = MultiCycleEpp::new(&c, sp_for(&c)).unwrap();
        let r = mc.site(a, 3);
        assert!((r.cumulative[0] - 0.5).abs() < 1e-12);
        assert_eq!(r.cumulative[0], r.cumulative[2]);
        assert!(r.residual_corruption.is_empty());
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let c = parse_bench(PIPE, "pipe").unwrap();
        let u = c.find("u").unwrap();
        let s1 = multi_cycle_monte_carlo(&c, u, 2, 1000, 5).unwrap();
        let s2 = multi_cycle_monte_carlo(&c, u, 2, 1000, 5).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn sequential_rule_stops_early_and_stays_accurate() {
        // The pipeline error is always observed by cycle 1: the rule
        // needs k = ceil(1/0.01)+2 = 102 successes, i.e. two 64-run
        // blocks, far under the cap.
        let c = parse_bench(PIPE, "pipe").unwrap();
        let u = c.find("u").unwrap();
        let est =
            multi_cycle_monte_carlo_sequential(&c, u, 3, 0.1, 1 << 20, 7, &mut |_, _| {}, None)
                .unwrap();
        assert!(est.stopped_by_rule);
        assert!(est.runs <= 256, "stopped after {} runs", est.runs);
        assert_eq!(est.cumulative.len(), 3);
        assert!(
            (est.cumulative[1] - 1.0).abs() < 0.05,
            "{:?}",
            est.cumulative
        );
        // Deterministic per seed.
        assert_eq!(
            est,
            multi_cycle_monte_carlo_sequential(&c, u, 3, 0.1, 1 << 20, 7, &mut |_, _| {}, None)
                .unwrap()
        );
        // Monotone after the debias scaling.
        for w in est.cumulative.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
    }

    #[test]
    fn sequential_observer_ticks_without_perturbing_the_estimate() {
        let c = parse_bench(PIPE, "pipe").unwrap();
        let u = c.find("u").unwrap();
        let plain =
            multi_cycle_monte_carlo_sequential(&c, u, 3, 0.1, 1 << 20, 7, &mut |_, _| {}, None)
                .unwrap();
        let mut ticks: Vec<(u64, u64)> = Vec::new();
        let observed = multi_cycle_monte_carlo_sequential(
            &c,
            u,
            3,
            0.1,
            1 << 20,
            7,
            &mut |runs, seen| ticks.push((runs, seen)),
            None,
        )
        .unwrap();
        assert_eq!(observed, plain, "the observer is pure telemetry");
        assert!(!ticks.is_empty(), "one tick per 64-run block");
        assert_eq!(
            ticks.last().unwrap().0,
            observed.runs,
            "final tick is the total"
        );
        for w in ticks.windows(2) {
            assert!(w[0].0 < w[1].0, "run counts strictly increase");
            assert!(w[0].1 <= w[1].1, "success counts never decrease");
        }
    }

    #[test]
    fn sequential_rule_caps_never_observed_sites() {
        // A site with no path to any PO is never observed: only the cap
        // terminates the run, and the plain frequency (0) is reported.
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(b)\nu = NOT(a)\n", "dead").unwrap();
        let u = c.find("u").unwrap();
        let est = multi_cycle_monte_carlo_sequential(&c, u, 2, 0.2, 512, 3, &mut |_, _| {}, None)
            .unwrap();
        assert!(!est.stopped_by_rule);
        assert_eq!(est.runs, 512, "ran to the cap");
        assert!(est.cumulative.iter().all(|&p| p == 0.0));
    }

    #[test]
    fn sequential_rule_matches_fixed_count_distributionally() {
        // Same RNG stream: with the success target effectively disabled
        // the sequential core IS the fixed-count core.
        let c = parse_bench(PIPE, "pipe").unwrap();
        let u = c.find("u").unwrap();
        let fixed = multi_cycle_monte_carlo(&c, u, 3, 256, 11).unwrap();
        let seq = multi_cycle_monte_carlo_sequential(&c, u, 3, 0.9, 256, 11, &mut |_, _| {}, None)
            .unwrap();
        // 0.9 target -> k = 4 successes: stops in the first block; the
        // first block of the fixed run saw the same patterns, so the
        // raw frequencies agree up to the debias factor.
        assert!(seq.stopped_by_rule);
        assert!(seq.runs <= 64);
        assert!((seq.cumulative[2] - fixed[2]).abs() < 0.2);
    }

    #[test]
    fn cumulative_is_monotone() {
        let c = parse_bench(
            "INPUT(x)\nOUTPUT(y)\nq1 = DFF(d1)\nq2 = DFF(q1)\nd1 = XOR(x, q2)\ny = AND(q2, x)\n",
            "loop",
        )
        .unwrap();
        let d1 = c.find("d1").unwrap();
        let mc = MultiCycleEpp::new(&c, sp_for(&c)).unwrap();
        let r = mc.site(d1, 6);
        for w in r.cumulative.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-12,
                "cumulative must not decrease: {:?}",
                r.cumulative
            );
        }
    }
}
