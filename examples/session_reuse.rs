//! The cached `AnalysisSession` layer: compile a circuit's analysis
//! context once, drive every estimation path from it, and sweep input
//! distributions with SP-only invalidation.
//!
//! ```text
//! cargo run --release --example session_reuse
//! ```
//!
//! The session holds the per-circuit artifacts every entry point used
//! to recompute privately — topological order and positions, observe
//! points, signal probabilities, the bit-parallel simulator and the
//! per-thread scratch pool. Changing input probabilities re-derives
//! only the SP vector; everything structural survives.

use std::time::Instant;

use ser_oracle::ExactEpp;
use ser_suite::epp::{AnalysisSession, CircuitSerAnalysis};
use ser_suite::gen::iscas89_like;
use ser_suite::sim::MonteCarlo;
use ser_suite::sp::InputProbs;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = iscas89_like("s1196").expect("s1196 profile exists");
    println!(
        "compiling session for `{}` ({} nodes)...",
        circuit.name(),
        circuit.len()
    );
    let t = Instant::now();
    let mut session = AnalysisSession::new(&circuit)?;
    println!(
        "  compiled in {:?} (SP portion {:?}, revision {})\n",
        t.elapsed(),
        session.sp_time(),
        session.revision()
    );

    // --- Every estimation path reads the same compiled artifacts. -----
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let analysis = CircuitSerAnalysis::new().with_threads(threads);

    let t = Instant::now();
    let outcome = analysis.run_with_session(&session);
    println!(
        "analytical sweep over {} sites ({} threads used): {:?}",
        outcome.len(),
        outcome.threads_used(),
        t.elapsed()
    );

    let top = outcome.report().ranking()[0];
    let name = circuit.node(top.node).name();
    println!(
        "most vulnerable node: `{name}` (P_sens = {:.4})",
        top.p_sensitized
    );

    // Cross-check the top node against the session's shared simulator —
    // no second topological sort, no second SP pass.
    let mc = MonteCarlo::new(20_000).with_seed(7);
    let baseline = session.monte_carlo_site(&mc, top.node);
    println!(
        "Monte-Carlo baseline at `{name}`: {:.4} (Δ = {:.4})",
        baseline.p_sensitized,
        (top.p_sensitized - baseline.p_sensitized).abs()
    );
    // The exact oracle usually needs a small cone; guard by source count.
    match ExactEpp::new().site_with_sim(session.bit_sim(), session.inputs(), top.node) {
        Ok(exact) => println!("exact oracle at `{name}`: {:.4}", exact.p_sensitized),
        Err(e) => println!("exact oracle skipped ({e})"),
    }

    // --- SP-only invalidation: sweep input biases. --------------------
    println!("\ninput-probability sweep (structure cached, SP re-derived):");
    for p in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let t = Instant::now();
        session.set_inputs(InputProbs::uniform(p))?;
        let sp_elapsed = t.elapsed();
        let outcome = analysis.run_with_session(&session);
        println!(
            "  p(1) = {p:.1}: total SER {:>8.3} (SP re-derivation {sp_elapsed:?}, revision {})",
            outcome.report().total(),
            session.revision()
        );
    }
    println!(
        "\nworkspace pool: {} scratch buffers served every sweep",
        session.workspace_pool().idle_sweep()
    );
    Ok(())
}
