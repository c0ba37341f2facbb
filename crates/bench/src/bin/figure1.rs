//! Regenerates the paper's **Figure 1** worked example, printing every
//! intermediate quantity of the EPP calculation on the reconvergent
//! circuit, and cross-checks the numbers against the exact oracle and
//! Monte-Carlo simulation.
//!
//! ```text
//! cargo run --release -p ser-bench-harness --bin figure1
//! ```

#![forbid(unsafe_code)]

use ser_epp::AnalysisSession;
use ser_gen::figure1;
use ser_oracle::ExactEpp;
use ser_sim::MonteCarlo;
use ser_sp::InputProbs;

fn main() {
    let c = figure1();
    let b = c.find("B").unwrap();
    let cc = c.find("C").unwrap();
    let f = c.find("F").unwrap();
    let probs = InputProbs::uniform(0.5)
        .with(b, 0.2)
        .with(cc, 0.3)
        .with(f, 0.7);

    println!("# Figure 1 walkthrough (Asadi & Tahoori, DATE'05)");
    println!("# SP(B) = 0.2, SP(C) = 0.3, SP(F) = 0.7; SEU at gate A.\n");

    // A compiled session: topo artifacts + SP once; the site pass runs
    // through the batched cone-plan sweep.
    let session = AnalysisSession::with_inputs(&c, probs.clone()).unwrap();
    let site = c.find("A").unwrap();
    let result = session.site(site);

    // The intermediate tuples the paper prints.
    for name in ["E", "D", "G", "H"] {
        let id = c.find(name).unwrap();
        // Rerun per-node via arrival_at on H; intermediate values are in
        // the pass; easiest is a fresh mini-analysis exposing them:
        // reconstruct by propagating to each signal using site analysis
        // of the sub-circuit — simplest here: use the exact oracle's
        // tuple, which matches the analytical pass on this circuit.
        let tuple = ExactEpp::new()
            .tuple_at(&c, &probs, site, id)
            .expect("small circuit");
        println!("P({name}) = {tuple}");
    }
    println!();
    let h = c.find("H").unwrap();
    let at_h = result.arrival_at(h).unwrap();
    println!("analytical P(H)      = {at_h}");
    println!("paper      P(H)      = 0.042(a) + 0.392(ā) + 0.168(0) + 0.398(1)");
    println!("P_sensitized(A)      = {:.3}", result.p_sensitized());

    let exact = ExactEpp::new().site(&c, &probs, site).unwrap();
    println!("exact P_sensitized   = {:.3}", exact.p_sensitized);

    // NOTE: MC draws inputs uniformly; to respect the biased SPs we use
    // the exact oracle above as ground truth and report uniform-input MC
    // only for the uniform variant. One session serves both the sweep
    // and the shared simulator.
    let uniform_session = AnalysisSession::new(&c).unwrap();
    let uniform_sweep = uniform_session.sweep_sites(&[site], 1);
    let uniform = uniform_sweep.get(0);
    let mc = uniform_session.monte_carlo_site(&MonteCarlo::new(200_000).with_seed(7), site);
    println!("\n# uniform-0.5 variant (Monte-Carlo cross-check)");
    println!("analytical P_sens    = {:.4}", uniform.p_sensitized());
    println!(
        "monte-carlo P_sens   = {:.4}  ({} vectors)",
        mc.p_sensitized, 200_000
    );
}
