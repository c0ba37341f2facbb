//! Integration tests for the `SerService` batch front-end and the
//! owned-session API it rides on: LRU eviction/reuse semantics,
//! cross-thread session sharing, and bit-identical equivalence of
//! service responses vs direct owned-session calls.

use std::sync::Arc;

use ser_suite::epp::{AnalysisSession, PolarityMode};
use ser_suite::gen::{c17, iscas89_like, ripple_carry_adder};
use ser_suite::netlist::Circuit;
use ser_suite::service::{
    MonteCarloRequest, MultiCycleMcRequest, MultiCycleRequest, Request, ResponsePayload,
    SerService, SerServiceConfig, ServiceError, SiteRequest, SweepRequest,
};
use ser_suite::sim::{MonteCarlo, SequentialMonteCarlo};

fn arc(c: Circuit) -> Arc<Circuit> {
    Arc::new(c)
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
    ] {
        let service = SerService::new(SerServiceConfig {
            max_sessions: 4,
            threads: 4,
            sweep_batch_sites: 10, // force many parts per sweep
            max_sweep_responses: 32,
            plan_cache_dir: None,
            plan_cache_max_bytes: None,
            ..SerServiceConfig::default()
        });
        let response = service
            .submit(&circuit, Request::Sweep(SweepRequest::default()))
            .unwrap();
        let sweep = response.as_sweep().unwrap();

        let direct = AnalysisSession::new(Arc::clone(&circuit)).unwrap();
        for threads in [1, 4] {
            assert_eq!(
                sweep,
                &direct.sweep(threads),
                "{}: service vs direct ({threads} threads)",
                circuit.name()
            );
        }

        // Single-site and Monte-Carlo requests too.
        let site = circuit.node_ids().last().unwrap();
        let via_service = service
            .submit(&circuit, Request::Site(SiteRequest { site }))
            .unwrap();
        assert_eq!(via_service.as_site().unwrap(), &direct.site(site));

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
        max_sweep_responses: 32,
        plan_cache_dir: None,
        plan_cache_max_bytes: None,
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
        max_sweep_responses: 32,
        plan_cache_dir: None,
        plan_cache_max_bytes: None,
        ..SerServiceConfig::default()
    }));
    // Warm both circuits.
    service.session(&a, None).unwrap();
    service.session(&b, None).unwrap();

    let expected_a = AnalysisSession::new(Arc::clone(&a)).unwrap().sweep(1);
    let expected_b = AnalysisSession::new(Arc::clone(&b)).unwrap().sweep(1);

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
        assert_eq!(r.as_sweep().unwrap(), *expected, "response {i}");
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
        assert_eq!(r.as_sweep().unwrap(), expected, "submitter {i}");
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
    let direct =
        session
            .epp()
            .sweep_sites_with(&sites, PolarityMode::Merged, 1, session.workspace_pool());
    assert_eq!(sweep, &direct);
}

/// The cross-request sweep-response cache: repeat whole-circuit sweeps
/// are served from the cache (same `Arc`, no copy), the key includes
/// polarity, subset sweeps bypass it, and `set_inputs` both purges the
/// netlist's entries and yields new (correct) results.
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

    // Polarity is part of the key: a merged sweep is its own entry.
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

    // Subset sweeps bypass the cache entirely.
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

    // set_inputs: bumps the revision, purges the netlist's entries and
    // the next sweep reflects the new distribution.
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
    let direct = AnalysisSession::with_inputs(Arc::clone(&circuit), InputProbs::uniform(0.9))
        .unwrap()
        .sweep(1);
    assert_eq!(r3.as_sweep().unwrap(), &direct, "new inputs in force");

    // And the new-revision response is itself cached + served shared.
    let r4 = service
        .submit(&circuit, Request::Sweep(SweepRequest::default()))
        .unwrap();
    assert_eq!(service.stats().sweep_cache_hits, 2);
    assert_eq!(r4.as_sweep().unwrap(), r3.as_sweep().unwrap());
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
        max_sweep_responses: 8,
        plan_cache_dir: None,
        plan_cache_max_bytes: None,
        ..SerServiceConfig::default()
    });

    service
        .set_inputs(&target, InputProbs::uniform(0.8))
        .unwrap();
    let expected = AnalysisSession::with_inputs(Arc::clone(&target), InputProbs::uniform(0.8))
        .unwrap()
        .sweep(1);

    // Evict the configured session, then come back to the circuit.
    service.session(&other, None).unwrap();
    let response = service
        .submit(&target, Request::Sweep(SweepRequest::default()))
        .unwrap();
    assert!(!response.meta.warm_session, "session was recompiled");
    assert_eq!(
        response.as_sweep().unwrap(),
        &expected,
        "recompiled session restores the recorded inputs"
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
        sweep_batch_sites: 16,  // force several parts
        max_sweep_responses: 0, // keep the cache out of the comparison
        plan_cache_dir: None,
        plan_cache_max_bytes: None,
        ..SerServiceConfig::default()
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
            Request::Sweep(SweepRequest::default()),
            Some(sink),
            None,
        )])
        .remove(0)
        .unwrap();
    let direct = service
        .submit(&circuit, Request::Sweep(SweepRequest::default()))
        .unwrap();
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

/// The persistent plan-artifact cache: a second service rooted at the
/// same cache directory loads compiled cone plans from disk instead of
/// recompiling — the stats must show the hit, and the sweep must be
/// bit-identical to the uncached one. Corrupting the entry on disk
/// degrades the next restart to a silent recompile (a miss, never an
/// error), and the damaged entry is rewritten for the restart after.
#[test]
fn plan_cache_survives_service_restart() {
    let circuit = arc(iscas89_like("s298").unwrap());
    let dir = std::env::temp_dir().join(format!("ser-service-plan-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = SerServiceConfig {
        max_sessions: 2,
        threads: 2,
        sweep_batch_sites: 64,
        max_sweep_responses: 0,
        plan_cache_dir: Some(dir.clone()),
        plan_cache_max_bytes: None,
        ..SerServiceConfig::default()
    };

    // First process: compiles, stores, and reports no hit.
    let first = SerService::new(config.clone());
    let baseline = first
        .submit(&circuit, Request::Sweep(SweepRequest::default()))
        .unwrap();
    let stats = first.stats();
    assert_eq!(stats.plan_cache_hits, 0);
    assert_eq!(stats.plan_cache_misses, 1);
    drop(first);

    // "Restart": a fresh service over the same directory loads the
    // persisted plans instead of compiling.
    let second = SerService::new(config.clone());
    let replay = second
        .submit(&circuit, Request::Sweep(SweepRequest::default()))
        .unwrap();
    let stats = second.stats();
    assert_eq!(stats.plan_cache_hits, 1, "restart hits the artifact cache");
    assert_eq!(stats.plan_cache_misses, 0);
    assert_eq!(
        replay.as_sweep().unwrap(),
        baseline.as_sweep().unwrap(),
        "cached plans change nothing"
    );

    // Damage the entry: the next restart recompiles silently…
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().and_then(|e| e.to_str()) == Some("serplan"))
        .expect("entry persisted");
    let mut bytes = std::fs::read(&entry).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&entry, &bytes).unwrap();
    let third = SerService::new(config.clone());
    let recompiled = third
        .submit(&circuit, Request::Sweep(SweepRequest::default()))
        .unwrap();
    let stats = third.stats();
    assert_eq!(stats.plan_cache_hits, 0, "corrupt entry must not load");
    assert_eq!(stats.plan_cache_misses, 1);
    assert_eq!(recompiled.as_sweep().unwrap(), baseline.as_sweep().unwrap());
    drop(third);

    // …and the recompile repaired the entry for the next restart.
    let fourth = SerService::new(config);
    fourth
        .submit(&circuit, Request::Sweep(SweepRequest::default()))
        .unwrap();
    assert_eq!(fourth.stats().plan_cache_hits, 1, "entry was rewritten");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The plan-cache byte cap: a bounded cache evicts the least-recently-
/// used entry at store time, the service counts the eviction, and the
/// evicted circuit recompiles (correctly) on the next cold start.
#[test]
fn plan_cache_byte_cap_evicts_lru_and_counts() {
    let small = arc(ripple_carry_adder(8));
    let large = arc(iscas89_like("s298").unwrap());
    let dir = std::env::temp_dir().join(format!("ser-service-cache-cap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let unbounded = SerServiceConfig {
        max_sessions: 4,
        threads: 2,
        sweep_batch_sites: 64,
        max_sweep_responses: 0,
        plan_cache_dir: Some(dir.clone()),
        plan_cache_max_bytes: None,
        ..SerServiceConfig::default()
    };

    // Size the entries first (the cap must fit exactly one of them).
    let sizer = SerService::new(unbounded.clone());
    sizer
        .submit(&small, Request::Sweep(SweepRequest::default()))
        .unwrap();
    sizer
        .submit(&large, Request::Sweep(SweepRequest::default()))
        .unwrap();
    assert_eq!(sizer.stats().plan_cache_evictions, 0, "unbounded");
    drop(sizer);
    let entry_bytes: Vec<u64> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .collect();
    assert_eq!(entry_bytes.len(), 2, "both circuits persisted");
    let cap = *entry_bytes.iter().max().unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    // Bounded run: the second store must push the first entry out.
    let bounded = SerService::new(SerServiceConfig {
        plan_cache_max_bytes: Some(cap),
        ..unbounded.clone()
    });
    let small_sweep = bounded
        .submit(&small, Request::Sweep(SweepRequest::default()))
        .unwrap();
    assert_eq!(bounded.stats().plan_cache_evictions, 0);
    bounded
        .submit(&large, Request::Sweep(SweepRequest::default()))
        .unwrap();
    assert_eq!(
        bounded.stats().plan_cache_evictions,
        1,
        "storing the second entry evicted the first"
    );
    drop(bounded);

    // Cold restart: the surviving circuit hits; the evicted one misses
    // and recompiles to the identical sweep.
    let restarted = SerService::new(SerServiceConfig {
        plan_cache_max_bytes: Some(cap),
        ..unbounded
    });
    restarted
        .submit(&large, Request::Sweep(SweepRequest::default()))
        .unwrap();
    assert_eq!(
        restarted.stats().plan_cache_hits,
        1,
        "the most recently stored entry survived the cap"
    );
    let recompiled = restarted
        .submit(&small, Request::Sweep(SweepRequest::default()))
        .unwrap();
    let stats = restarted.stats();
    assert_eq!(stats.plan_cache_hits, 1, "evicted entry cannot hit");
    assert_eq!(stats.plan_cache_misses, 1);
    assert_eq!(
        recompiled.as_sweep().unwrap(),
        small_sweep.as_sweep().unwrap(),
        "eviction costs time, never correctness"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
