//! Integration tests for the `SerService` batch front-end and the
//! owned-session API it rides on: LRU eviction/reuse semantics,
//! cross-thread session sharing, and bit-identical equivalence of
//! service responses vs direct owned-session calls.

use std::sync::Arc;

use ser_oracle::ReferenceEpp;
use ser_suite::epp::{
    AnalysisSession, Arrivals, Edit, EppAnalysis, PlatchedModel, PolarityMode, RseuModel, RunCtx,
    SerReport, SweepResults,
};
use ser_suite::gen::{c17, iscas89_like, ripple_carry_adder, s27};
use ser_suite::netlist::{Circuit, NodeId};
use ser_suite::service::{
    MonteCarloRequest, MultiCycleMcRequest, MultiCycleRequest, Request, ResponsePayload,
    SerService, SerServiceConfig, ServiceError, SiteRequest, SweepRequest,
};
use ser_suite::sim::{MonteCarlo, SequentialMonteCarlo};
use ser_suite::sp::{IndependentSp, InputProbs, SpEngine};

fn arc(c: Circuit) -> Arc<Circuit> {
    Arc::new(c)
}

/// The library's sweep of `sites` on `session` at `threads`, as
/// `(folded, kept)`: the service's sweeps fold their arrivals.
fn library_sweeps(
    session: &AnalysisSession,
    sites: &[NodeId],
    polarity: PolarityMode,
    threads: usize,
) -> (SweepResults, SweepResults) {
    let kept = RunCtx::new(threads, session.workspace_pool());
    let folded = RunCtx {
        arrivals: Arrivals::Fold,
        ..kept
    };
    let epp = session.epp();
    (
        epp.sweep(sites, polarity, &folded),
        epp.sweep(sites, polarity, &kept),
    )
}

/// The library's whole-circuit Tracked sweep of `session`, as
/// [`library_sweeps`] gives it.
fn library_whole_sweeps(session: &AnalysisSession, threads: usize) -> (SweepResults, SweepResults) {
    let sites: Vec<NodeId> = session.circuit().node_ids().collect();
    library_sweeps(session, &sites, PolarityMode::Tracked, threads)
}

/// A service sweep equals the library's folded sweep, and its per-site
/// `p_sensitized` and `on_path_gates` equal the kept sweep's bit for
/// bit.
fn assert_service_sweep(
    got: &SweepResults,
    (folded, kept): &(SweepResults, SweepResults),
    what: &str,
) {
    assert_eq!(got, folded, "{what}");
    assert_eq!(got.sites(), kept.sites(), "{what}");
    for (g, k) in got.iter().zip(kept.iter()) {
        assert_eq!(
            g.p_sensitized().to_bits(),
            k.p_sensitized().to_bits(),
            "{what}: site {}",
            g.site()
        );
        assert_eq!(
            g.on_path_gates(),
            k.on_path_gates(),
            "{what}: site {}",
            g.site()
        );
    }
}

/// The owned session is what the service relies on: cheap to clone,
/// shareable across threads, `'static`.
#[test]
fn owned_sessions_are_send_sync_and_cheaply_cloneable() {
    fn assert_send_sync<T: Send + Sync + 'static>() {}
    assert_send_sync::<AnalysisSession>();
    assert_send_sync::<SerService>();

    let circuit = arc(c17());
    let session = Arc::new(AnalysisSession::new(Arc::clone(&circuit)).unwrap());
    // A clone shares the compiled artifacts and scratch pool — and a
    // clone taken BEFORE the first simulator use still shares the one
    // eventual BitSim compilation (the OnceLock cell is shared, not
    // copied empty).
    let clone = AnalysisSession::clone(&session);
    assert!(Arc::ptr_eq(session.topo(), clone.topo()));
    assert!(std::ptr::eq(
        session.workspace_pool(),
        clone.workspace_pool()
    ));
    assert!(
        std::ptr::eq(session.bit_sim(), clone.bit_sim()),
        "clones share one compiled simulator"
    );
    // And the session handle itself moves across threads.
    let handle = {
        let session = Arc::clone(&session);
        std::thread::spawn(move || session.sweep(1))
    };
    let theirs = handle.join().unwrap();
    assert_eq!(theirs, session.sweep(1), "cross-thread sweep identical");
}

/// Service sweep responses are bit-identical to direct session calls,
/// even though the service re-partitions the sweep into executor jobs.
#[test]
fn service_sweep_is_bit_identical_to_direct_session() {
    for circuit in [
        arc(c17()),
        arc(ripple_carry_adder(8)),
        arc(iscas89_like("s298").unwrap()),
        arc(s27()),
    ] {
        let service = SerService::new(SerServiceConfig {
            max_sessions: 4,
            threads: 4,
            sweep_batch_sites: 10, // force many parts per sweep
            ..SerServiceConfig::default()
        });
        let response = service
            .submit(&circuit, Request::Sweep(SweepRequest::default()))
            .unwrap();
        let sweep = response.as_sweep().unwrap();

        let direct = AnalysisSession::new(Arc::clone(&circuit)).unwrap();
        for threads in [1, 4] {
            assert_service_sweep(
                sweep,
                &library_whole_sweeps(&direct, threads),
                &format!("{}: service vs direct ({threads} threads)", circuit.name()),
            );
        }

        // Single-site and Monte-Carlo requests too.
        let site = circuit.node_ids().last().unwrap();
        let via_service = service
            .submit(&circuit, Request::Site(SiteRequest { site }))
            .unwrap();
        assert_eq!(via_service.as_site().unwrap(), &direct.site(site));

        // Every node's `site` request matches the reference kernel.
        let sp = IndependentSp::new()
            .compute(&circuit, &InputProbs::default())
            .unwrap();
        let mut reference = ReferenceEpp::new(&EppAnalysis::new(Arc::clone(&circuit), sp).unwrap());
        for id in circuit.node_ids() {
            let via_service = service
                .submit(&circuit, Request::Site(SiteRequest { site: id }))
                .unwrap();
            assert_eq!(
                via_service.as_site().unwrap(),
                &reference.site(id, PolarityMode::Tracked),
                "{}: site {id}",
                circuit.name()
            );
        }

        let mc_req = MonteCarloRequest {
            site,
            vectors: 4_096,
            target_error: None,
            seed: 11,
        };
        let via_service = service
            .submit(&circuit, Request::MonteCarlo(mc_req))
            .unwrap();
        let mc = MonteCarlo::new(4_096).with_seed(11);
        assert_eq!(
            via_service.as_monte_carlo().unwrap(),
            &direct.monte_carlo_site(&mc, site)
        );

        // Sequential (Mendo) Monte-Carlo goes through the same rule.
        let seq_req = MonteCarloRequest {
            site,
            vectors: 1 << 16,
            target_error: Some(0.1),
            seed: 11,
        };
        let via_service = service
            .submit(&circuit, Request::MonteCarlo(seq_req))
            .unwrap();
        let rule = SequentialMonteCarlo::new(0.1)
            .with_seed(11)
            .with_max_vectors(1 << 16);
        assert_eq!(
            via_service.as_monte_carlo().unwrap(),
            &rule
                .estimate_site(direct.bit_sim(), site, None, |_, _| {})
                .unwrap()
        );
    }
}

/// Warm-cache behavior: hits on resubmission, LRU eviction at
/// capacity, and recency updates.
#[test]
fn lru_reuses_and_evicts_sessions() {
    let a = arc(c17());
    let b = arc(ripple_carry_adder(4));
    let c = arc(iscas89_like("s298").unwrap());
    let service = SerService::new(SerServiceConfig {
        max_sessions: 2,
        threads: 2,
        sweep_batch_sites: 64,
        ..SerServiceConfig::default()
    });

    // Compile a and b (2 misses), then hit both.
    let (sa1, warm_a1) = service.session(&a, None).unwrap();
    let (sb1, warm_b1) = service.session(&b, None).unwrap();
    assert!(!warm_a1 && !warm_b1);
    let (sa2, warm_a2) = service.session(&a, None).unwrap();
    assert!(warm_a2, "second lookup is warm");
    assert!(Arc::ptr_eq(&sa1, &sa2), "the very same session object");

    // Touch order is now b, a (a most recent). Adding c evicts b.
    let (_, warm_c) = service.session(&c, None).unwrap();
    assert!(!warm_c);
    let stats = service.stats();
    assert_eq!(stats.session_misses, 3);
    assert_eq!(stats.evictions, 1);
    assert_eq!(stats.sessions_cached, 2);

    // a survived (recently used), b was evicted and recompiles.
    let (sa3, warm_a3) = service.session(&a, None).unwrap();
    assert!(warm_a3);
    assert!(Arc::ptr_eq(&sa1, &sa3));
    let (sb2, warm_b2) = service.session(&b, None).unwrap();
    assert!(!warm_b2, "b was the LRU victim");
    assert!(!Arc::ptr_eq(&sb1, &sb2), "recompiled session");
    assert_eq!(service.stats().evictions, 2, "c evicted in turn");
}

/// The acceptance scenario: one service, two distinct circuits, sweeps
/// submitted concurrently from multiple threads against the warm
/// cache — every response bit-identical to a direct session call.
#[test]
fn serves_two_circuits_concurrently_from_warm_cache() {
    let a = arc(iscas89_like("s298").unwrap());
    let b = arc(ripple_carry_adder(8));
    let service = Arc::new(SerService::new(SerServiceConfig {
        max_sessions: 4,
        threads: 4,
        sweep_batch_sites: 16,
        ..SerServiceConfig::default()
    }));
    // Warm both circuits.
    service.session(&a, None).unwrap();
    service.session(&b, None).unwrap();

    let expected_a = library_whole_sweeps(&AnalysisSession::new(Arc::clone(&a)).unwrap(), 1);
    let expected_b = library_whole_sweeps(&AnalysisSession::new(Arc::clone(&b)).unwrap(), 1);

    // One interleaved batch mixing both circuits…
    let responses = service.submit_batch(vec![
        (
            Arc::clone(&a),
            Request::Sweep(SweepRequest::default()),
            None,
            None,
        ),
        (
            Arc::clone(&b),
            Request::Sweep(SweepRequest::default()),
            None,
            None,
        ),
        (
            Arc::clone(&a),
            Request::Sweep(SweepRequest::default()),
            None,
            None,
        ),
    ]);
    for (i, expected) in [&expected_a, &expected_b, &expected_a].iter().enumerate() {
        let r = responses[i].as_ref().unwrap();
        assert!(r.meta.warm_session, "response {i} came from the warm cache");
        assert_service_sweep(r.as_sweep().unwrap(), expected, &format!("response {i}"));
    }

    // …and genuinely concurrent submitters sharing the service.
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let service = Arc::clone(&service);
            let circuit = if i % 2 == 0 {
                Arc::clone(&a)
            } else {
                Arc::clone(&b)
            };
            std::thread::spawn(move || {
                service
                    .submit(&circuit, Request::Sweep(SweepRequest::default()))
                    .unwrap()
            })
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let r = h.join().unwrap();
        let expected = if i % 2 == 0 { &expected_a } else { &expected_b };
        assert!(r.meta.warm_session);
        assert_service_sweep(r.as_sweep().unwrap(), expected, &format!("submitter {i}"));
    }
}

/// Multi-cycle requests through the service match the direct engines,
/// including the Mendo sequential-stopping simulation leg.
#[test]
fn multi_cycle_request_matches_direct_engines() {
    let circuit = arc(iscas89_like("s298").unwrap());
    let service = SerService::with_defaults();
    let site = circuit.find("G0").unwrap();
    let request = MultiCycleRequest {
        site,
        cycles: 3,
        monte_carlo: Some(MultiCycleMcRequest {
            runs: 2_048,
            target_error: Some(0.2),
            seed: 9,
        }),
    };
    let response = service
        .submit(&circuit, Request::MultiCycle(request))
        .unwrap();
    let ResponsePayload::MultiCycle {
        analytic,
        monte_carlo,
    } = &response.payload
    else {
        panic!("multi-cycle payload expected");
    };

    let session = AnalysisSession::new(Arc::clone(&circuit)).unwrap();
    assert_eq!(analytic, &session.multi_cycle().site(site, 3));
    let direct = ser_suite::epp::multi_cycle_monte_carlo_sequential(
        Arc::clone(&circuit),
        site,
        3,
        0.2,
        2_048,
        9,
        &mut |_, _| {},
        None,
    )
    .unwrap();
    assert_eq!(monte_carlo.as_ref().unwrap(), &direct);
}

/// Sweep over an explicit site subset and an explicit polarity.
#[test]
fn subset_sweep_with_polarity() {
    let circuit = arc(c17());
    let service = SerService::with_defaults();
    let sites: Vec<_> = circuit.node_ids().take(4).collect();
    let response = service
        .submit(
            &circuit,
            Request::Sweep(SweepRequest {
                sites: Some(sites.clone()),
                polarity: PolarityMode::Merged,
            }),
        )
        .unwrap();
    let sweep = response.as_sweep().unwrap();
    assert_eq!(sweep.sites(), sites.as_slice());

    let session = AnalysisSession::new(Arc::clone(&circuit)).unwrap();
    let direct = library_sweeps(&session, &sites, PolarityMode::Merged, 1);
    assert_service_sweep(sweep, &direct, "subset sweep");
}

/// The session's whole-sweep memo: repeat whole-circuit sweeps are
/// served from it (same `Arc`, no copy), each polarity has its own,
/// subset sweeps bypass it, and `set_inputs` both empties it (the
/// updated session starts with a fresh memo) and yields new (correct)
/// results.
#[test]
fn sweep_response_cache_hits_and_invalidates() {
    use ser_suite::sp::InputProbs;

    let circuit = arc(iscas89_like("s298").unwrap());
    let service = SerService::with_defaults();

    let r1 = service
        .submit(&circuit, Request::Sweep(SweepRequest::default()))
        .unwrap();
    let stats = service.stats();
    assert_eq!(stats.sweep_cache_misses, 1);
    assert_eq!(stats.sweep_cache_hits, 0);
    assert_eq!(stats.sweep_responses_cached, 1);

    let r2 = service
        .submit(&circuit, Request::Sweep(SweepRequest::default()))
        .unwrap();
    assert_eq!(service.stats().sweep_cache_hits, 1);
    assert_eq!(r2.as_sweep().unwrap(), r1.as_sweep().unwrap());
    // Served without copying: the very same arena.
    let (ResponsePayload::Sweep(a1), ResponsePayload::Sweep(a2)) = (&r1.payload, &r2.payload)
    else {
        panic!("sweep payloads expected");
    };
    assert!(Arc::ptr_eq(a1, a2), "cache hit shares the arena");

    // Each polarity has its own memo: a merged sweep is its own entry.
    let merged = service
        .submit(
            &circuit,
            Request::Sweep(SweepRequest {
                sites: None,
                polarity: PolarityMode::Merged,
            }),
        )
        .unwrap();
    assert_eq!(service.stats().sweep_cache_misses, 2);
    assert_eq!(service.stats().sweep_responses_cached, 2);
    assert_ne!(merged.as_sweep().unwrap(), r1.as_sweep().unwrap());

    // Subset sweeps bypass the memo entirely.
    let sites: Vec<_> = circuit.node_ids().take(3).collect();
    let _ = service
        .submit(
            &circuit,
            Request::Sweep(SweepRequest {
                sites: Some(sites),
                polarity: PolarityMode::Tracked,
            }),
        )
        .unwrap();
    let stats = service.stats();
    assert_eq!(stats.sweep_cache_misses, 2, "subset sweep not counted");
    assert_eq!(stats.sweep_responses_cached, 2);

    // set_inputs: bumps the revision, swaps in a session with empty
    // memos and the next sweep reflects the new distribution.
    let revision = service
        .set_inputs(&circuit, InputProbs::uniform(0.9))
        .unwrap();
    assert_eq!(revision, 2);
    assert_eq!(service.stats().sweep_responses_cached, 0, "purged");

    let r3 = service
        .submit(&circuit, Request::Sweep(SweepRequest::default()))
        .unwrap();
    assert!(r3.meta.warm_session, "set_inputs keeps the session warm");
    assert_eq!(service.stats().sweep_cache_misses, 3);
    assert_ne!(r3.as_sweep().unwrap(), r1.as_sweep().unwrap());
    let direct = library_whole_sweeps(
        &AnalysisSession::with_inputs(Arc::clone(&circuit), InputProbs::uniform(0.9)).unwrap(),
        1,
    );
    assert_service_sweep(r3.as_sweep().unwrap(), &direct, "new inputs in force");

    // And the new-revision response is itself cached + served shared.
    let r4 = service
        .submit(&circuit, Request::Sweep(SweepRequest::default()))
        .unwrap();
    assert_eq!(service.stats().sweep_cache_hits, 2);
    assert_eq!(r4.as_sweep().unwrap(), r3.as_sweep().unwrap());
}

/// The daemon's sweeps fold their arrivals: a cached whole-circuit
/// response, and the cache hit that shares it, hold none, and say so
/// with `None` rather than an empty answer.
#[test]
fn cached_sweep_responses_hold_no_arrivals() {
    let circuit = arc(iscas89_like("s298").unwrap());
    let service = SerService::with_defaults();
    let first = service
        .submit(&circuit, Request::Sweep(SweepRequest::default()))
        .unwrap();
    let again = service
        .submit(&circuit, Request::Sweep(SweepRequest::default()))
        .unwrap();
    assert_eq!(service.stats().sweep_cache_hits, 1);
    for response in [&first, &again] {
        let sweep = response.as_sweep().unwrap();
        assert_eq!(sweep.len(), circuit.len());
        assert_eq!(sweep.total_points(), None);
        assert!(sweep.to_site_epps().is_none());
        assert!(sweep.iter().all(|site| site.per_point().is_none()));
    }
}

/// A what-if stack takes its base from the sweep the netlist's session
/// already holds, so sweeping the netlist first changes no what-if
/// outcome: the same edits give the same outcomes, bit for bit, as on
/// a service that never swept.
#[test]
fn whatif_after_a_sweep_matches_a_fresh_service() {
    let circuit = arc(iscas89_like("s298").unwrap());
    let logic_gate = |fanout_free: bool| {
        circuit
            .node_ids()
            .find(|&id| {
                let node = circuit.node(id);
                node.kind().is_logic() && node.fanout().is_empty() == fanout_free
            })
            .unwrap()
    };
    let edits = [logic_gate(true), logic_gate(false)];
    let swept = SerService::with_defaults();
    swept
        .submit(&circuit, Request::Sweep(SweepRequest::default()))
        .unwrap();
    assert_eq!(swept.stats().sweep_responses_cached, 1);
    let fresh = SerService::with_defaults();
    for gate in edits {
        let name = circuit.node(gate).name().to_owned();
        let tmr = |current: &Circuit| Ok(Edit::Tmr(current.find(&name).unwrap()));
        let got = swept.whatif_apply(&circuit, tmr).unwrap();
        let want = fresh.whatif_apply(&circuit, tmr).unwrap();
        assert_eq!(got.previous_total.to_bits(), want.previous_total.to_bits());
        assert_eq!(got.total.to_bits(), want.total.to_bits());
        assert_eq!(got.dirty_sites, want.dirty_sites);
        assert_eq!(got.total_sites, want.total_sites);
        assert_eq!(got.depth, want.depth);
        assert_eq!(got.deltas, want.deltas);
    }
}

/// A what-if after a whole sweep of the same netlist runs no base
/// sweep: its stack holds the very arena the sweep response holds.
#[test]
fn whatif_after_a_whole_sweep_reuses_its_arena() {
    let circuit = arc(iscas89_like("s298").unwrap());
    let gate = circuit
        .node_ids()
        .find(|&id| circuit.node(id).kind().is_logic())
        .unwrap();
    let service = SerService::with_defaults();
    let response = service
        .submit(&circuit, Request::Sweep(SweepRequest::default()))
        .unwrap();
    let ResponsePayload::Sweep(arena) = &response.payload else {
        panic!("sweep payload expected");
    };
    // Held by the session's memo and by this response.
    assert_eq!(Arc::strong_count(arena), 2);
    let base_total = SerReport::assemble(
        &circuit,
        arena.p_sensitized(),
        &RseuModel::default(),
        &PlatchedModel::default(),
    )
    .total();

    let outcome = service
        .whatif_apply(&circuit, |_| Ok(Edit::Tmr(gate)))
        .unwrap();
    assert_eq!(outcome.previous_total.to_bits(), base_total.to_bits());
    assert_eq!(
        Arc::strong_count(arena),
        3,
        "the what-if base state is the swept arena, not a sweep of its own"
    );
    let stats = service.stats();
    assert_eq!(stats.sweep_cache_misses, 1);
    assert_eq!(stats.sweep_cache_hits, 0);
    assert_eq!(stats.session_misses, 1, "one compile for both");
}

/// A what-if fills the session's whole-sweep memo, so the first whole
/// sweep after it is a memo hit that shares the what-if's base arena,
/// and equals what a fresh service computes.
#[test]
fn whole_sweep_after_a_whatif_is_a_memo_hit() {
    let circuit = arc(iscas89_like("s298").unwrap());
    let gate = circuit
        .node_ids()
        .find(|&id| circuit.node(id).kind().is_logic())
        .unwrap();
    let service = SerService::with_defaults();
    service
        .whatif_apply(&circuit, |_| Ok(Edit::Tmr(gate)))
        .unwrap();
    assert_eq!(service.stats().sweep_responses_cached, 1);

    let response = service
        .submit(&circuit, Request::Sweep(SweepRequest::default()))
        .unwrap();
    let stats = service.stats();
    assert_eq!(stats.sweep_cache_hits, 1);
    assert_eq!(stats.sweep_cache_misses, 0);
    let ResponsePayload::Sweep(arena) = &response.payload else {
        panic!("sweep payload expected");
    };
    // The memo, the what-if base state and this response.
    assert_eq!(Arc::strong_count(arena), 3);
    let fresh = SerService::with_defaults()
        .submit(&circuit, Request::Sweep(SweepRequest::default()))
        .unwrap();
    assert_eq!(response.as_sweep().unwrap(), fresh.as_sweep().unwrap());

    // The merged polarity has a memo of its own: still a miss.
    service
        .submit(
            &circuit,
            Request::Sweep(SweepRequest {
                sites: None,
                polarity: PolarityMode::Merged,
            }),
        )
        .unwrap();
    assert_eq!(service.stats().sweep_cache_misses, 1);
    assert_eq!(service.stats().sweep_responses_cached, 2);
}

/// LRU eviction must not silently revert `set_inputs`: the service
/// records the distribution per netlist hash and recompiles under it.
#[test]
fn set_inputs_survives_session_eviction() {
    use ser_suite::sp::InputProbs;

    let target = arc(iscas89_like("s298").unwrap());
    let other = arc(ripple_carry_adder(4));
    let service = SerService::new(SerServiceConfig {
        max_sessions: 1, // any second circuit evicts the first
        threads: 2,
        sweep_batch_sites: 64,
        ..SerServiceConfig::default()
    });

    service
        .set_inputs(&target, InputProbs::uniform(0.8))
        .unwrap();
    let expected = library_whole_sweeps(
        &AnalysisSession::with_inputs(Arc::clone(&target), InputProbs::uniform(0.8)).unwrap(),
        1,
    );

    // Evict the configured session, then come back to the circuit.
    service.session(&other, None).unwrap();
    let response = service
        .submit(&target, Request::Sweep(SweepRequest::default()))
        .unwrap();
    assert!(!response.meta.warm_session, "session was recompiled");
    assert_service_sweep(
        response.as_sweep().unwrap(),
        &expected,
        "recompiled session restores the recorded inputs",
    );
}

/// A progress sink on a `submit_batch` job reports progress without
/// perturbing results:
/// sweep part completions arrive monotonically, sequential Monte-Carlo
/// counters stream from the worker, and the responses are identical to
/// plain `submit`.
#[test]
fn streaming_progress_observes_without_perturbing() {
    use ser_suite::service::Progress;
    use std::sync::Mutex;

    let circuit = arc(iscas89_like("s298").unwrap());
    let service = SerService::new(SerServiceConfig {
        max_sessions: 2,
        threads: 2,
        sweep_batch_sites: 16, // force several parts
        ..SerServiceConfig::default()
    });
    // Every site named: both sweeps below run, since no session memo
    // answers an explicit list — the memo stays out of the comparison.
    let every_site = Request::Sweep(SweepRequest {
        sites: Some(circuit.node_ids().collect()),
        polarity: PolarityMode::Tracked,
    });

    // Sweep: one Progress::Sweep event per part, cumulative, ending at
    // the full site count.
    let events: Arc<Mutex<Vec<Progress>>> = Arc::default();
    let sink = {
        let events = Arc::clone(&events);
        Arc::new(move |p: Progress| events.lock().unwrap().push(p))
    };
    let streamed = service
        .submit_batch(vec![(
            Arc::clone(&circuit),
            every_site.clone(),
            Some(sink),
            None,
        )])
        .remove(0)
        .unwrap();
    let direct = service.submit(&circuit, every_site).unwrap();
    assert_eq!(streamed.as_sweep().unwrap(), direct.as_sweep().unwrap());
    let events = std::mem::take(&mut *events.lock().unwrap());
    let expected_parts = circuit.len().div_ceil(16);
    assert_eq!(events.len(), expected_parts, "one event per part");
    let mut last = 0;
    for event in &events {
        let Progress::Sweep {
            sites_done,
            sites_total,
        } = event
        else {
            panic!("sweep events only: {event:?}");
        };
        assert!(*sites_done > last, "cumulative and monotonic");
        last = *sites_done;
        assert_eq!(*sites_total, circuit.len());
    }
    assert_eq!(last, circuit.len(), "final event covers every site");

    // Sequential Monte-Carlo: doubling-threshold counters, identical
    // final estimate.
    let site = circuit.find("G0").unwrap();
    let request = Request::MonteCarlo(MonteCarloRequest {
        site,
        vectors: 1 << 16,
        target_error: Some(0.05),
        seed: 13,
    });
    let events: Arc<Mutex<Vec<Progress>>> = Arc::default();
    let sink = {
        let events = Arc::clone(&events);
        Arc::new(move |p: Progress| events.lock().unwrap().push(p))
    };
    let streamed = service
        .submit_batch(vec![(
            Arc::clone(&circuit),
            request.clone(),
            Some(sink),
            None,
        )])
        .remove(0)
        .unwrap();
    let direct = service.submit(&circuit, request).unwrap();
    assert_eq!(
        streamed.as_monte_carlo().unwrap(),
        direct.as_monte_carlo().unwrap(),
        "the observer must not perturb the estimate"
    );
    let events = std::mem::take(&mut *events.lock().unwrap());
    assert!(events.len() >= 2, "long runs stream: {events:?}");
    let mut last = 0;
    for event in &events {
        let Progress::MonteCarlo { vectors, .. } = event else {
            panic!("monte-carlo events only: {event:?}");
        };
        assert!(*vectors > last);
        last = *vectors;
    }
    assert!(last <= streamed.as_monte_carlo().unwrap().vectors);
}

/// Malformed requests come back as typed errors, not worker panics.
#[test]
fn invalid_requests_are_rejected_up_front() {
    let circuit = arc(c17());
    let service = SerService::with_defaults();
    let bogus = ser_suite::netlist::NodeId::from_index(10_000);
    let err = service
        .submit(&circuit, Request::Site(SiteRequest { site: bogus }))
        .unwrap_err();
    assert!(matches!(err, ServiceError::SiteOutOfRange { .. }), "{err}");

    let err = service
        .submit(
            &circuit,
            Request::MonteCarlo(MonteCarloRequest {
                site: circuit.node_ids().next().unwrap(),
                vectors: 100,
                target_error: Some(1.5),
                seed: 1,
            }),
        )
        .unwrap_err();
    assert!(matches!(err, ServiceError::InvalidRequest(_)), "{err}");

    // A failed job in a batch doesn't poison its neighbours.
    let results = service.submit_batch(vec![
        (
            Arc::clone(&circuit),
            Request::Site(SiteRequest { site: bogus }),
            None,
            None,
        ),
        (
            Arc::clone(&circuit),
            Request::Sweep(SweepRequest::default()),
            None,
            None,
        ),
    ]);
    assert!(results[0].is_err());
    assert_eq!(
        results[1].as_ref().unwrap().as_sweep().unwrap().len(),
        circuit.len()
    );
}
