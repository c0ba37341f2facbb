//! Regression tests for the cached `AnalysisSession` layer: reusing a
//! session must be *bit-identical* to building everything from scratch,
//! and SP-only invalidation must match a full rebuild exactly.

use ser_oracle::{ExactEpp, ReferenceEpp};
use ser_suite::epp::{AnalysisSession, CircuitSerAnalysis, EppAnalysis, PolarityMode};
use ser_suite::gen::{c17, iscas89_like, ripple_carry_adder, s27};
use ser_suite::netlist::Circuit;
use ser_suite::sim::{BitSim, MonteCarlo};
use ser_suite::sp::{IndependentSp, InputProbs, SpEngine};

fn circuits() -> Vec<Circuit> {
    vec![c17(), ripple_carry_adder(4), iscas89_like("s298").unwrap()]
}

/// Session reuse returns bit-identical `P_sensitized` to fresh
/// construction — for single sites, repeated queries of the same site,
/// and the whole-circuit sweep, sequential and parallel.
#[test]
fn session_reuse_is_bit_identical_to_fresh_construction() {
    for c in circuits() {
        let session = AnalysisSession::new(&c).unwrap();

        // Fresh construction per query, the pre-session way.
        let sp = IndependentSp::new()
            .compute(&c, &InputProbs::default())
            .unwrap();
        let fresh = EppAnalysis::new(&c, sp).unwrap();

        for id in c.node_ids() {
            let cached = session.site(id);
            let scratch = fresh.site(id);
            // PartialEq on SiteEpp compares every f64 exactly: this is
            // bit-identity, not an epsilon comparison.
            assert_eq!(cached, scratch, "{}: site {id}", c.name());
            // Asking the session again must not drift.
            assert_eq!(cached, session.site(id), "{}: re-query {id}", c.name());
        }

        // The per-site reference kernel is the sweep's oracle.
        let mut oracle = ReferenceEpp::new(&fresh);
        let sweep_fresh: Vec<_> = c
            .node_ids()
            .map(|id| oracle.site(id, PolarityMode::Tracked))
            .collect();
        for threads in [1, 4] {
            let sweep_cached = session.sweep(threads).to_site_epps().expect("a kept sweep");
            assert_eq!(
                sweep_cached,
                sweep_fresh,
                "{}: sweep with {threads} threads",
                c.name()
            );
        }
    }
}

/// The whole-circuit facade produces the same report through a shared
/// session as through its own one-shot path.
#[test]
fn facade_outcome_identical_through_session() {
    for c in circuits() {
        let session = AnalysisSession::new(&c).unwrap();
        let analysis = CircuitSerAnalysis::new();
        let via_session = analysis.run_with_session(&session);
        let one_shot = analysis.run(&c).unwrap();
        assert_eq!(via_session.p_sensitized(), one_shot.p_sensitized());
        assert_eq!(
            via_session.report().total(),
            one_shot.report().total(),
            "{}",
            c.name()
        );
        // Second run on the same session: still identical.
        let again = analysis.run_with_session(&session);
        assert_eq!(again.p_sensitized(), one_shot.p_sensitized());
    }
}

/// SP-only invalidation (`set_inputs`) must be indistinguishable from
/// tearing the session down and rebuilding it under the new inputs.
#[test]
fn sp_only_invalidation_matches_full_rebuild() {
    for c in circuits() {
        let first_input = c.inputs().first().copied();
        let mut probs_sequence = vec![
            InputProbs::uniform(0.3),
            InputProbs::uniform(0.8),
            InputProbs::uniform(0.5),
        ];
        if let Some(pi) = first_input {
            probs_sequence.push(InputProbs::uniform(0.5).with(pi, 0.05));
        }

        // Biased inputs slow the sequential fixed point below the
        // default 50-iteration budget on s298; both sides use the same
        // generous engine so they remain directly comparable.
        let engine = IndependentSp::new().with_max_iterations(2_000);
        let mut session = AnalysisSession::new(&c).unwrap();
        for (step, probs) in probs_sequence.into_iter().enumerate() {
            session
                .set_inputs_with_engine(probs.clone(), &engine)
                .unwrap();
            let rebuilt = AnalysisSession::with_engine(&c, probs, &engine).unwrap();
            assert_eq!(
                session.signal_probabilities().as_slice(),
                rebuilt.signal_probabilities().as_slice(),
                "{} step {step}: SP vectors must be bit-identical",
                c.name()
            );
            for id in c.node_ids() {
                assert_eq!(
                    session.site(id),
                    rebuilt.site(id),
                    "{} step {step}: site {id}",
                    c.name()
                );
            }
            assert_eq!(session.revision(), step as u64 + 2, "{}", c.name());
        }
    }
}

/// The session's shared simulator and cached schedule give the same
/// Monte-Carlo and exact-oracle answers as privately built ones.
#[test]
fn shared_simulator_matches_private_construction() {
    let c = c17();
    let session = AnalysisSession::new(&c).unwrap();
    let private_sim = BitSim::new(&c).unwrap();
    let mc = MonteCarlo::new(4_096).with_seed(11);
    let oracle = ExactEpp::new();
    for id in c.node_ids() {
        let shared = session.monte_carlo_site(&mc, id);
        let private = mc.estimate_site(&private_sim, id);
        assert_eq!(shared, private, "MC at {id}");
        let shared_exact = oracle
            .site_with_sim(session.bit_sim(), session.inputs(), id)
            .unwrap();
        let private_exact = oracle.site(&c, &InputProbs::default(), id).unwrap();
        assert_eq!(shared_exact, private_exact, "exact at {id}");
    }
}

/// The declined-plans fallback: a session whose plan arena was
/// declined (primed with `None` before the first query) answers `site`
/// on plans built for that site alone, bit-identical to a planned
/// session and to the per-site reference kernel.
#[test]
fn site_reference_fallback_matches_planned_site() {
    for c in circuits().into_iter().chain([s27()]) {
        let planned = AnalysisSession::new(&c).unwrap();
        let declined = AnalysisSession::new(&c).unwrap();
        assert!(declined.topo().prime_cone_plans(None));
        let mut oracle = ReferenceEpp::new(&planned.epp());
        for id in c.node_ids() {
            let want = oracle.site(id, PolarityMode::Tracked);
            assert_eq!(declined.site(id), want, "{}: site {id}", c.name());
            assert_eq!(planned.site(id), want, "{}: site {id}", c.name());
        }
        // The declined session never settled whole-circuit plans; both
        // ran on one pooled sweep scratch.
        assert!(declined.topo().cone_plans_primed().is_none());
        assert!(planned.topo().cone_plans_primed().is_some());
        assert_eq!(declined.workspace_pool().idle_sweep(), 1);
        assert_eq!(planned.workspace_pool().idle_sweep(), 1);
    }
}
