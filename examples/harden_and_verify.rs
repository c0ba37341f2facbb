//! Close the loop the paper's conclusion draws: *identify the most
//! vulnerable components, protect them, and verify*.
//!
//! ```text
//! cargo run --release --example harden_and_verify
//! ```
//!
//! 1. rank c17's gates by SER contribution (the paper's method),
//! 2. TMR-harden the top gates,
//! 3. formally verify the hardened circuit is functionally identical
//!    (BDD equivalence checking),
//! 4. re-measure: replica upsets are outvoted (exact + Monte-Carlo),
//! 5. ...and observe a known limitation: the analytical EPP rules,
//!    blind to the voter's reconvergent correlation, overestimate the
//!    replicas' vulnerability — use the exact oracle on redundancy
//!    structures.

use ser_oracle::{check_equivalence, tmr_replica_names, BddExactEpp, Equivalence};
use ser_suite::epp::CircuitSerAnalysis;
use ser_suite::gen::c17;
use ser_suite::sim::{BitSim, MonteCarlo};
use ser_suite::sp::InputProbs;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = c17();
    let outcome = CircuitSerAnalysis::new().run(&circuit)?;

    println!("== step 1: rank (analytical EPP)");
    let ranking = outcome.report().ranking();
    for e in ranking.iter().take(3) {
        println!(
            "  {:<6} P_sens = {:.3}",
            circuit.node(e.node).name(),
            e.p_sensitized
        );
    }
    // Protect the two most vulnerable *gates* (inputs can't be TMR'd).
    let targets: Vec<_> = ranking
        .iter()
        .filter(|e| circuit.node(e.node).kind().is_logic())
        .take(2)
        .map(|e| e.node)
        .collect();
    let names: Vec<&str> = targets.iter().map(|&n| circuit.node(n).name()).collect();
    println!("  hardening: {names:?}");

    println!("\n== step 2: transform (TMR)");
    let hardened = ser_suite::netlist::harden_tmr(&circuit, &targets)?;
    println!(
        "  {} gates -> {} gates (area cost of protection)",
        circuit.num_gates(),
        hardened.num_gates()
    );

    println!("\n== step 3: formal verification");
    match check_equivalence(&circuit, &hardened, 1 << 20)? {
        Equivalence::Equivalent => println!("  BDD check: functionally identical"),
        other => panic!("hardening broke the circuit: {other:?}"),
    }

    println!("\n== step 4: re-measure the protected gates");
    let oracle = BddExactEpp::new();
    let sim = BitSim::new(&hardened)?;
    let mc = MonteCarlo::new(50_000).with_seed(1);
    let probs = InputProbs::default();
    let analytic = CircuitSerAnalysis::new().run(&hardened)?;
    println!("  site          exact    monte-carlo   analytical-EPP");
    for &t in &targets {
        for replica in tmr_replica_names(&circuit, t) {
            let site = hardened.find(&replica).expect("replica exists");
            let exact = oracle.site(&hardened, &probs, site)?.p_sensitized;
            let mc_est = mc.estimate_site(&sim, site).p_sensitized;
            let epp = analytic.site(site).p_sensitized();
            println!("  {replica:<12} {exact:>7.4} {mc_est:>12.4} {epp:>15.4}");
        }
    }
    println!("\nReading: exact and Monte-Carlo agree the replicas are fully");
    println!("protected (P_sens = 0). The analytical rules overestimate them —");
    println!("the voter is pure reconvergence, their documented blind spot —");
    println!("so hardening *evaluation* should use the exact oracle, while");
    println!("hardening *selection* (step 1) is where the fast method shines.");
    Ok(())
}
