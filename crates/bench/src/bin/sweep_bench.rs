//! Sweep-throughput benchmark: the batched cone-plan engine vs
//! `ser-oracle`'s per-site reference kernel, on Table 2 workload
//! circuits.
//! Emits `BENCH_sweep.json` so the perf trajectory is tracked commit
//! over commit.
//!
//! ```text
//! cargo run --release -p ser-bench-harness --bin sweep_bench [-- --quick] [-- --out PATH]
//! ```
//!
//! Reported per circuit:
//!
//! - `reference`: the oracle's per-site loop (`ReferenceEpp::site`:
//!   cone DFS + sort + full-circuit AoS scratch per site), the
//!   definition the sweep is checked against — sites/sec plus p50/p99
//!   per-site latency.
//! - `batched_1t`: the cone-plan sweep, one thread — the kernel-level
//!   speedup with scheduling kept out of the picture (best of five
//!   whole-circuit sweeps, so scheduler steal on a shared recording
//!   host doesn't masquerade as a kernel regression).
//! - `folded_1t`: the same one-thread sweep under `Arrivals::Fold`,
//!   which stores no per-point arrivals — the daemon's sweep at the
//!   kernel layer (best of five, timed alternately with `batched_1t`,
//!   and every run asserted bit-identical to it in every site's
//!   `p_sensitized` and `on_path_gates`).
//! - `batched_mt`: the cone-plan sweep under the work-stealing
//!   scheduler at the machine's parallelism, batch stitch included
//!   (best of five as well).
//! - `plan_build_ms`: one-time cone-plan compilation cost of the
//!   **reverse-topological** builder (what production pays, amortized
//!   across every subsequent sweep of the session).
//! - `whatif_resweep_ms` / `whatif_dirty_site_fraction` /
//!   `whatif_full_recompute_ms`: the incremental what-if engine on a
//!   TMR of the fanout-free logic gate with the smallest combinational
//!   fan-in cone — plan compile of the edited circuit plus the re-sweep
//!   of the dirty sites (the gate's fan-in closure and the six inserted
//!   gates), and the dirty fraction, vs the from-scratch recompute an
//!   edit would otherwise cost (the run also asserts the incremental
//!   state matches that oracle bitwise).
//! - `whatif_general_ms`: the same one path on a TMR of a gate *with*
//!   fanout, whose voter's signal probability moves the dirty region
//!   through everything downstream (asserted bitwise against the
//!   oracle as well).

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::time::Instant;

use ser_epp::{
    AnalysisSession, Arrivals, Edit, KernelBackend, PolarityMode, RunCtx, SweepResults,
    WhatIfSession,
};
use ser_gen::synthesize;
use ser_netlist::{ConePlans, NodeId};
use ser_oracle::ReferenceEpp;

/// Number of nodes with a DFF-free path into `root` — the what-if
/// engine's dirty region for an edit at a fanout-free gate.
fn comb_fanin_closure(circuit: &ser_netlist::Circuit, root: NodeId) -> usize {
    let mut seen = vec![false; circuit.len()];
    let mut stack = vec![root];
    let mut count = 0;
    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut seen[id.index()], true) {
            continue;
        }
        count += 1;
        let node = circuit.node(id);
        if node.kind() != ser_netlist::GateKind::Dff {
            stack.extend_from_slice(node.fanin());
        }
    }
    count
}

/// Latency percentile over a sorted sample, in microseconds.
fn percentile_us(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] * 1e6
}

/// `true` when two sweeps hold the same sites with bit-identical
/// `p_sensitized` and equal `on_path_gates`.
fn same_site_numbers(a: &SweepResults, b: &SweepResults) -> bool {
    a.sites() == b.sites()
        && a.iter().zip(b.iter()).all(|(x, y)| {
            x.p_sensitized().to_bits() == y.p_sensitized().to_bits()
                && x.on_path_gates() == y.on_path_gates()
        })
}

/// One what-if row: a TMR edit applied incrementally, best of three.
struct TmrTiming {
    best_ms: f64,
    dirty: usize,
    dirty_fraction: f64,
    /// The from-scratch recompute of the edited circuit.
    full_ms: f64,
}

/// Times `Edit::Tmr(target)` on `wf` (best of three apply/revert
/// rounds), then applies it once more and asserts the incremental
/// state bitwise against the from-scratch oracle, timing that oracle —
/// the compile + plans + whole-circuit sweep the edit would otherwise
/// cost. Leaves `wf` at the depth it started.
fn time_tmr(wf: &mut WhatIfSession, target: NodeId) -> TmrTiming {
    let mut best_ms = f64::INFINITY;
    for _ in 0..3 {
        let outcome = wf.apply(Edit::Tmr(target)).expect("valid TMR target");
        best_ms = best_ms.min(outcome.elapsed.as_secs_f64() * 1e3);
        wf.revert();
    }
    let outcome = wf.apply(Edit::Tmr(target)).expect("valid TMR target");
    let t = Instant::now();
    let (full, full_total) = wf.full_recompute().expect("edited circuit recompiles");
    let full_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        full_total.to_bits(),
        wf.total_ser().to_bits(),
        "incremental total diverged from the from-scratch oracle"
    );
    assert_eq!(
        &full,
        wf.results().as_ref(),
        "incremental arena diverged from the from-scratch oracle"
    );
    wf.revert();
    TmrTiming {
        best_ms,
        dirty: outcome.dirty_sites,
        dirty_fraction: outcome.dirty_sites as f64 / outcome.total_sites as f64,
        full_ms,
    }
}

struct EngineStats {
    sites_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
}

fn json_engine(label: &str, s: &EngineStats) -> String {
    format!(
        "\"{label}\": {{\"sites_per_sec\": {:.1}, \"p50_us\": {:.3}, \"p99_us\": {:.3}}}",
        s.sites_per_sec, s.p50_us, s.p99_us
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_sweep.json".to_owned());
    let only = args
        .iter()
        .position(|a| a == "--circuit")
        .and_then(|i| args.get(i + 1).cloned());
    let names: Vec<&str> = if let Some(only) = only.as_deref() {
        vec![match only {
            "s953" => "s953",
            "s1196" => "s1196",
            "s1423" => "s1423",
            "s9234" => "s9234",
            other => panic!("unknown bench circuit `{other}`"),
        }]
    } else if quick {
        vec!["s953"]
    } else {
        vec!["s953", "s1196", "s1423", "s9234"]
    };
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut records: Vec<String> = Vec::new();
    for name in names {
        let profile = ser_gen::profile(name).expect("profile exists");
        let circuit = synthesize(&profile, 1);
        let n = circuit.len();
        let session = AnalysisSession::new(&circuit).expect("valid circuit");
        let epp = session.epp();
        let sites: Vec<NodeId> = circuit.node_ids().collect();

        // --- Reference kernel: per-site DFS + sort + AoS scratch. -----
        let mut reference_epp = ReferenceEpp::new(&epp);
        let mut ref_lat: Vec<f64> = Vec::with_capacity(n);
        let ref_start = Instant::now();
        for &site in &sites {
            let t = Instant::now();
            let r = reference_epp.site(site, PolarityMode::Tracked);
            std::hint::black_box(r.p_sensitized());
            ref_lat.push(t.elapsed().as_secs_f64());
        }
        let ref_total = ref_start.elapsed().as_secs_f64();
        ref_lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let reference = EngineStats {
            sites_per_sec: n as f64 / ref_total,
            p50_us: percentile_us(&ref_lat, 0.50),
            p99_us: percentile_us(&ref_lat, 0.99),
        };

        // --- Plan build, explicitly timed. ----------------------------
        // `tests/plan_builder.rs` checks these plans against the flat
        // per-site-DFS reference builder.
        let plan_start = Instant::now();
        let merged_plans = ConePlans::build(&circuit, epp.artifacts(), usize::MAX, None)
            .expect("no cancel token to trip")
            .expect("unbudgeted build cannot decline");
        let plan_build_ms = plan_start.elapsed().as_secs_f64() * 1e3;
        // The dedup win: how many members the arena actually stores
        // versus the logical sum-of-cones the flat layout would store.
        let arena_members = merged_plans.stored_members();
        let arena_bytes = merged_plans.arena_bytes();
        let logical_members = merged_plans.logical_members();
        let dedup_factor = logical_members as f64 / arena_members.max(1) as f64;
        drop(merged_plans);
        // Warm the session's own cached plans so the sweeps below pay
        // no build.
        assert!(
            epp.artifacts().cone_plans(&circuit).is_some(),
            "bench circuits fit the plan budget"
        );

        // --- Batched, one thread: the kernel speedup. -----------------
        // Best of a few whole-circuit sweeps: one sweep is tens of
        // milliseconds, short enough that a single shot folds scheduler
        // steal (this records on shared hosts) straight into the
        // trajectory; the min is the pace the kernel actually sustains.
        // The folded sweep alternates with the kept one, so host drift
        // hits both rows alike.
        let fold_ctx = RunCtx {
            arrivals: Arrivals::Fold,
            ..RunCtx::new(1, session.workspace_pool())
        };
        let mut batched1_total = f64::INFINITY;
        let mut folded1_total = f64::INFINITY;
        let mut sweep1 = session.sweep(1);
        for _ in 0..5 {
            let t = Instant::now();
            sweep1 = session.sweep(1);
            batched1_total = batched1_total.min(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let folded = epp.sweep(&sites, PolarityMode::Tracked, &fold_ctx);
            folded1_total = folded1_total.min(t.elapsed().as_secs_f64());
            assert!(
                same_site_numbers(&folded, &sweep1),
                "folded sweep diverged from batched_1t"
            );
        }
        // Per-site latency sample: singleton sweeps through the shared
        // plans and pool (an upper bound on steady-state per-site cost —
        // each call still assembles a one-site result arena).
        let mut one_lat: Vec<f64> = Vec::with_capacity(n);
        for &site in &sites {
            let t = Instant::now();
            let s = session.sweep_sites(&[site], 1);
            std::hint::black_box(s.get(0).p_sensitized());
            one_lat.push(t.elapsed().as_secs_f64());
        }
        one_lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let batched_1t = EngineStats {
            sites_per_sec: n as f64 / batched1_total,
            p50_us: percentile_us(&one_lat, 0.50),
            p99_us: percentile_us(&one_lat, 0.99),
        };

        // --- Batched, scheduler at full parallelism. ------------------
        // Only a *real* multi-thread run is recorded as one: on a
        // single-core box the row reuses the 1-thread timing instead of
        // passing off a second serial sweep as "mt". Best of 5, like
        // the 1-thread row, so the stitch is timed at the same pace.
        let (batched_mt_total, mt_threads_used) = if threads > 1 {
            let mut total = f64::INFINITY;
            let mut threads_used = 0;
            for _ in 0..5 {
                let t = Instant::now();
                let sweep_mt = session.sweep(threads);
                total = total.min(t.elapsed().as_secs_f64());
                // Sanity: thread count must not change results.
                assert_eq!(sweep1, sweep_mt, "thread count changed results");
                threads_used = sweep_mt.threads_used();
            }
            (total, threads_used)
        } else {
            (batched1_total, sweep1.threads_used())
        };
        assert_eq!(sweep1.p_sensitized().len(), n, "sweep covered every node");

        // --- What-if: single-gate TMR, incremental vs from-scratch. ---
        // Sink row: a fanout-free logic gate (a PO driver) with the
        // smallest combinational fan-in cone. Fanout-free keeps the
        // dirty region at the gate's own fan-in closure plus the six
        // inserted gates; small-cone makes the record measure
        // blast-radius-proportional cost, the property the engine
        // sells. General row: the logic gate *with* fanout whose
        // fan-in cone is smallest — its voter's signal probability
        // moves, so the edit dirties everything that perturbation
        // reaches through the DFF fixed point. Both rows take the one
        // path: compile the edited circuit's plans and re-sweep the
        // dirty sites on them.
        let smallest_cone = |with_fanout: bool| {
            circuit
                .node_ids()
                .filter(|&id| {
                    circuit.node(id).kind().is_logic()
                        && circuit.node(id).fanout().is_empty() != with_fanout
                })
                .min_by_key(|&id| (comb_fanin_closure(&circuit, id), id.index()))
        };
        let sink = smallest_cone(false).expect("bench circuits have fanout-free logic gates");
        let general = smallest_cone(true).expect("bench circuits have logic gates with fanout");
        let mut wf = WhatIfSession::new(session.clone(), 1);
        let TmrTiming {
            best_ms: whatif_ms,
            dirty: whatif_dirty,
            dirty_fraction,
            full_ms: whatif_full_ms,
        } = time_tmr(&mut wf, sink);
        let TmrTiming {
            best_ms: whatif_general_ms,
            dirty: general_dirty,
            ..
        } = time_tmr(&mut wf, general);
        drop(wf);

        let speedup_1t = batched_1t.sites_per_sec / reference.sites_per_sec;
        let speedup_mt = (n as f64 / batched_mt_total) / reference.sites_per_sec;
        eprintln!(
            "{name}: {n} nodes | ref {:.0}/s | batched(1t) {:.0}/s ({speedup_1t:.2}x) | folded(1t) {:.0}/s | batched({mt_threads_used}t used) {:.0}/s ({speedup_mt:.2}x) | plans {plan_build_ms:.1}ms | arena {arena_members} stored / {logical_members} logical ({dedup_factor:.1}x), {arena_bytes} B | whatif TMR {whatif_ms:.2}ms ({whatif_dirty} dirty, {:.1}% of sites; full {whatif_full_ms:.1}ms, warm sweep {:.1}ms) | whatif general TMR {whatif_general_ms:.2}ms ({general_dirty} dirty)",
            reference.sites_per_sec,
            batched_1t.sites_per_sec,
            n as f64 / folded1_total,
            n as f64 / batched_mt_total,
            dirty_fraction * 100.0,
            batched1_total * 1e3,
        );

        let mut rec = String::from("  {");
        let _ = write!(
            rec,
            "\"circuit\": \"{name}\", \"nodes\": {n}, \"plan_build_ms\": {plan_build_ms:.3}, \"arena_members\": {arena_members}, \"arena_bytes\": {arena_bytes}, \"logical_members\": {logical_members}, \"dedup_factor\": {dedup_factor:.3}, "
        );
        rec.push_str(&json_engine("reference", &reference));
        rec.push_str(", ");
        rec.push_str(&json_engine("batched_1t", &batched_1t));
        let _ = write!(
            rec,
            ", \"folded_1t\": {{\"sites_per_sec\": {:.1}}}",
            n as f64 / folded1_total
        );
        let _ = write!(
            rec,
            ", \"batched_mt\": {{\"threads_requested\": {threads}, \"threads_used\": {mt_threads_used}, \"distinct_run\": {}, \"sites_per_sec\": {:.1}}}",
            threads > 1,
            n as f64 / batched_mt_total
        );
        let _ = write!(
            rec,
            ", \"speedup_1t\": {speedup_1t:.3}, \"speedup_mt\": {speedup_mt:.3}, \"whatif_resweep_ms\": {whatif_ms:.3}, \"whatif_general_ms\": {whatif_general_ms:.3}, \"whatif_dirty_site_fraction\": {:.4}, \"whatif_full_recompute_ms\": {whatif_full_ms:.3}}}",
            dirty_fraction
        );
        records.push(rec);
    }

    // Backend provenance: a throughput number without the rule-core
    // backend that produced it is uninterpretable across hosts.
    let kernel = KernelBackend::auto().name();
    #[cfg(target_arch = "x86_64")]
    let avx512f = std::arch::is_x86_feature_detected!("avx512f");
    #[cfg(not(target_arch = "x86_64"))]
    let avx512f = false;
    let json = format!(
        "{{\n  \"bench\": \"sweep_throughput\",\n  \"kernel\": \"{kernel}\",\n  \"unit_note\": \"latencies in microseconds; speedups vs per-site reference path; arena_members = deduplicated stored cone members (suffix-shared); host cores: {threads}, avx512f: {avx512f}\",\n  \"results\": [\n{}\n  ]\n}}\n",
        records.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write benchmark output");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
