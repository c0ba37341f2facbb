//! The Table 2 workload: run the analytical method and the
//! random-simulation baselines on one circuit and produce the paper's
//! row quantities.
//!
//! Unit note: the paper's `SysT` (ms) and `SimT` (s) are **per-node**
//! times — that is the only reading under which its own speedup
//! columns reproduce (s953: `ESP = 28.3 s / 0.354 ms = 79,944`, table
//! says 79,950; `ISP = 28.3 s / (0.354 ms + 150 s / ~440 nodes) = ~79`,
//! table says 74.4). This harness therefore reports per-node times and
//! computes `ISP`/`ESP` the same way.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use ser_epp::{AnalysisSession, CircuitSerAnalysis};
use ser_netlist::{Circuit, NodeId};
use ser_sim::{MonteCarlo, NaiveMonteCarlo, SequentialMonteCarlo};
use ser_sp::{IndependentSp, InputProbs};

use crate::accuracy::{mean_abs_diff, percent_difference, SitePair};

/// Parameters for one Table 2 run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Config {
    /// Vector budget per site for the Monte-Carlo baseline: the fixed
    /// trial count when [`mc_target_error`](Self::mc_target_error) is
    /// `None`, the hard cap when the sequential stopping rule is on.
    pub mc_vectors: u64,
    /// When set, the baseline uses the Mendo-style sequential stopping
    /// rule ([`SequentialMonteCarlo`]) targeting this normalized error
    /// instead of a fixed trial count — each site stops as soon as its
    /// estimate is accurate enough, so the accuracy comparison stays
    /// honest without overpaying on strongly sensitized sites.
    pub mc_target_error: Option<f64>,
    /// Maximum number of sites the packed baseline simulates ("for
    /// larger circuits, a limited number of gates … are simulated due
    /// to exorbitant run time" — the paper's own protocol).
    pub max_mc_sites: usize,
    /// Sites for the *naive* scalar baseline (0 disables the column);
    /// kept small because it is the slow engine by design.
    pub naive_sites: usize,
    /// PRNG seed for site sampling and the baselines.
    pub seed: u64,
    /// Worker threads for the analytical sweep.
    pub threads: usize,
}

impl Default for Table2Config {
    fn default() -> Self {
        Table2Config {
            mc_vectors: 10_000,
            mc_target_error: None,
            max_mc_sites: 200,
            naive_sites: 8,
            seed: 0xDA7E,
            threads: 1,
        }
    }
}

/// One row of the regenerated Table 2 (per-node time semantics; see
/// the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Circuit name.
    pub name: String,
    /// Nodes analyzed by the analytical method (all of them).
    pub nodes: usize,
    /// Sites the packed Monte-Carlo baseline actually simulated.
    pub sampled_sites: usize,
    /// `SysT`: analytical EPP time **per node**, milliseconds.
    pub syst_ms: f64,
    /// `SimT`: packed random-simulation time **per node**, seconds.
    pub simt_s: f64,
    /// Mean vectors the baseline actually spent per sampled site (equal
    /// to the configured budget under fixed counts; varies per site
    /// under the sequential stopping rule).
    pub mean_mc_vectors: f64,
    /// Worker threads the sweep scheduler actually used.
    pub threads_used: usize,
    /// Naive scalar random-simulation time per node, seconds
    /// (`None` when disabled).
    pub naive_s: Option<f64>,
    /// `%Dif`: mean relative difference on the sampled sites.
    pub pct_dif: f64,
    /// Mean absolute difference of `P_sensitized` on the sampled sites.
    pub mad: f64,
    /// `SPT`: signal probability computation time (whole circuit), s.
    pub spt_s: f64,
    /// `ISP`: speedup incl. SP time: `SimT / (SysT + SPT/nodes)`.
    pub isp: f64,
    /// `ESP`: speedup excl. SP time: `SimT / SysT`.
    pub esp: f64,
}

/// Runs the full Table 2 protocol on one circuit.
///
/// # Panics
///
/// Panics if the circuit is structurally invalid (generated and
/// embedded circuits never are) or `cfg.max_mc_sites` is 0.
#[must_use]
pub fn run_circuit(circuit: &Circuit, cfg: &Table2Config) -> Table2Row {
    assert!(cfg.max_mc_sites > 0, "must sample at least one site");
    let nodes = circuit.len();

    // --- One compiled session: topo artifacts + SP computed once, then
    // shared by the analytical sweep AND both simulation baselines. ----
    // SPT times the whole compilation (sort + SP), matching the
    // pre-session metric where the engine's compute() included its own
    // ordering pass — keeps speedup columns comparable across commits.
    let spt_start = Instant::now();
    let session = AnalysisSession::with_engine(
        circuit,
        InputProbs::default(),
        &IndependentSp::new().with_max_iterations(1000),
    )
    .expect("SP computes on valid circuits");
    let spt_s = spt_start.elapsed().as_secs_f64();

    let outcome = CircuitSerAnalysis::new()
        .with_threads(cfg.threads)
        .run_with_session(&session);
    // Per-node analytical time: wall-clock of the sweep divided by the
    // node count (and multiplied back by the thread count so the figure
    // is CPU time per node, comparable across thread settings).
    let syst_ms = outcome.epp_time().as_secs_f64() * 1e3 * cfg.threads as f64 / nodes as f64;

    // --- Packed baseline: Monte-Carlo on a site sample. -----------------
    let mut sites: Vec<NodeId> = circuit.node_ids().collect();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    sites.shuffle(&mut rng);
    sites.truncate(cfg.max_mc_sites);

    let sim = session.bit_sim();
    let mc_start = Instant::now();
    let estimates = match cfg.mc_target_error {
        Some(eps) => {
            let rule = SequentialMonteCarlo::new(eps)
                .with_seed(cfg.seed)
                .with_max_vectors(cfg.mc_vectors);
            sites
                .iter()
                .map(|&site| rule.estimate_site(sim, site, None, |_, _| {}))
                .collect::<Result<_, _>>()
                .expect("a run without a cancel token always completes")
        }
        None => MonteCarlo::new(cfg.mc_vectors)
            .with_seed(cfg.seed)
            .estimate_sites(sim, &sites),
    };
    let simt_s = mc_start.elapsed().as_secs_f64() / sites.len() as f64;
    let mean_mc_vectors =
        estimates.iter().map(|e| e.vectors as f64).sum::<f64>() / estimates.len() as f64;

    // --- Naive baseline on a (smaller) subsample. ------------------------
    let naive_s = (cfg.naive_sites > 0).then(|| {
        let subsample = &sites[..cfg.naive_sites.min(sites.len())];
        let naive = NaiveMonteCarlo::new(cfg.mc_vectors).with_seed(cfg.seed);
        let t = Instant::now();
        for &s in subsample {
            let _ = naive.estimate_site(circuit, s).expect("valid circuit");
        }
        t.elapsed().as_secs_f64() / subsample.len() as f64
    });

    let pairs: Vec<SitePair> = sites
        .iter()
        .zip(&estimates)
        .map(|(&site, est)| SitePair {
            analytical: outcome.site(site).p_sensitized(),
            monte_carlo: est.p_sensitized,
        })
        .collect();
    let pct_dif = percent_difference(&pairs);
    let mad = mean_abs_diff(&pairs);

    Table2Row {
        name: circuit.name().to_owned(),
        nodes,
        sampled_sites: sites.len(),
        syst_ms,
        simt_s,
        mean_mc_vectors,
        threads_used: outcome.threads_used(),
        naive_s,
        pct_dif,
        mad,
        spt_s,
        isp: simt_s * 1e3 / (syst_ms + spt_s * 1e3 / nodes as f64),
        esp: simt_s * 1e3 / syst_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ser_gen::{c17, iscas89_like};

    #[test]
    fn c17_row_is_sane() {
        let c = c17();
        let cfg = Table2Config {
            mc_vectors: 2_000,
            mc_target_error: None,
            max_mc_sites: 16,
            naive_sites: 2,
            seed: 1,
            threads: 1,
        };
        let row = run_circuit(&c, &cfg);
        assert_eq!(row.name, "c17");
        assert_eq!(row.mean_mc_vectors, 2_000.0, "fixed budget: every site");
        assert_eq!(row.threads_used, 1);
        assert_eq!(row.nodes, 11); // 5 inputs + 6 NANDs
        assert!(row.sampled_sites <= 11);
        assert!(row.syst_ms > 0.0);
        assert!(row.simt_s > 0.0);
        assert!(row.naive_s.unwrap() > 0.0);
        assert!(row.esp >= row.isp, "ESP excludes SP time so it's >= ISP");
        // c17 is tiny and tree-ish; the methods should agree closely.
        assert!(row.pct_dif < 10.0, "%Dif = {}", row.pct_dif);
        assert!(row.mad < 0.05, "MAD = {}", row.mad);
    }

    #[test]
    fn small_synthetic_circuit_speedup_positive() {
        let c = iscas89_like("s298").unwrap();
        // A realistic vector budget: at 10k vectors/site the simulation
        // cost dominates even in debug builds.
        let cfg = Table2Config {
            mc_vectors: 10_000,
            mc_target_error: None,
            max_mc_sites: 30,
            naive_sites: 0,
            seed: 2,
            threads: 1,
        };
        let row = run_circuit(&c, &cfg);
        assert!(
            row.esp > 1.0,
            "analytical should beat MC, esp = {}",
            row.esp
        );
        assert!(row.naive_s.is_none());
        assert!(row.pct_dif.is_finite());
    }

    #[test]
    fn sequential_stopping_rule_spends_less_and_stays_accurate() {
        let c = iscas89_like("s298").unwrap();
        let fixed = Table2Config {
            mc_vectors: 20_000,
            mc_target_error: None,
            max_mc_sites: 30,
            naive_sites: 0,
            seed: 2,
            threads: 1,
        };
        let sequential = Table2Config {
            mc_target_error: Some(0.1),
            ..fixed
        };
        let row_fixed = run_circuit(&c, &fixed);
        let row_seq = run_circuit(&c, &sequential);
        // The rule stops early on live sites: mean spend is well under
        // the cap it shares with the fixed run.
        assert!(
            row_seq.mean_mc_vectors < row_fixed.mean_mc_vectors,
            "sequential {} vs fixed {}",
            row_seq.mean_mc_vectors,
            row_fixed.mean_mc_vectors
        );
        // And the accuracy comparison stays meaningful: the analytic-
        // vs-MC gap (dominated by the EPP independence approximation on
        // this reconvergent circuit, not by MC noise) is in the same
        // band as under the fixed budget.
        assert!(row_seq.pct_dif.is_finite());
        assert!(
            row_seq.mad < row_fixed.mad + 0.1,
            "sequential MAD {} vs fixed MAD {}",
            row_seq.mad,
            row_fixed.mad
        );
    }
}
