//! Regenerates the paper's **Table 2**: analytical EPP vs random
//! simulation on the eleven ISCAS'89 circuits (synthetic stand-ins with
//! each circuit's published structural profile; see `ser_gen::TABLE2`).
//!
//! ```text
//! cargo run --release -p ser-bench-harness --bin table2 [-- --quick]
//! ```
//!
//! `--quick` restricts the run to the six smaller circuits with a lower
//! Monte-Carlo budget (useful in CI). Column meanings match the paper
//! (per-node time semantics — see `ser-bench/src/workload.rs`):
//! `SysT` (ms/node, our approach), `SimT` (s/node, packed random
//! simulation), `NaiveT` (s/node, scalar unoptimized simulation),
//! `%Dif`, `MAD` (mean |ΔP_sens|), `SPT` (s, whole-circuit signal
//! probabilities), `ISP`/`ESP` (speedups incl./excl. SP time).
//!
//! Each row prints as soon as its circuit finishes. A circuit whose
//! signal probabilities cannot be computed gets a row naming the SP
//! error instead, and the average covers the answered rows only.

#![forbid(unsafe_code)]

use ser_bench_harness::table::{fixed_width_line, fmt_speedup};
use ser_bench_harness::workload::{run_circuit, Table2Config};
use ser_gen::{synthesize, TABLE2};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let circuits: &[_] = if quick { &TABLE2[..6] } else { &TABLE2[..] };
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // The baseline runs under the Mendo-style sequential stopping rule:
    // each site stops once its estimate meets the normalized error
    // target (capped at mc_vectors), replacing the old fixed trial
    // count in the accuracy comparison.
    let cfg_proto = Table2Config {
        mc_vectors: if quick { 16_000 } else { 40_000 },
        mc_target_error: Some(0.05),
        max_mc_sites: if quick { 50 } else { 200 },
        naive_sites: if quick { 4 } else { 8 },
        seed: 0xDA7E,
        threads,
    };

    println!("# Table 2 reproduction: EPP vs random simulation");
    println!(
        "# {} circuits, sequential MC (target error {:.0}%, cap {} vectors/site) over {} sampled sites, naive baseline on {} sites, {} threads",
        circuits.len(),
        cfg_proto.mc_target_error.unwrap_or(0.0) * 100.0,
        cfg_proto.mc_vectors,
        cfg_proto.max_mc_sites,
        cfg_proto.naive_sites,
        threads,
    );
    println!("# SysT/SimT/NaiveT are per-node times (see workload.rs docs)");
    println!();

    let header = [
        "Circuit",
        "Nodes",
        "SysT(ms)",
        "SimT(s)",
        "MCvec",
        "NaiveT(s)",
        "%Dif",
        "MAD",
        "SPT(s)",
        "ISP",
        "ESP",
        "NSP",
    ];
    // Rows print as they finish, so the widths are fixed up front:
    // wide enough for every header and for the figures' formats.
    let width: Vec<usize> = header.iter().map(|h| h.len().max(9)).collect();
    print!("{}", fixed_width_line(&header, &width));
    println!(
        "{}",
        "-".repeat(width.iter().sum::<usize>() + 2 * (width.len() - 1))
    );
    let mut sums = (0.0f64, 0.0f64, 0.0f64, 0.0f64); // dif, isp, esp, nsp
    let mut answered = 0usize;
    for profile in circuits {
        let circuit = synthesize(profile, 1);
        let row = match run_circuit(&circuit, &cfg_proto) {
            Ok(row) => row,
            Err(e) => {
                println!("{:<w$}  no answer: {e}", circuit.name(), w = width[0]);
                continue;
            }
        };
        let nsp = row
            .naive_s
            .map(|n| n * 1e3 / row.syst_ms)
            .unwrap_or(f64::NAN);
        let cells = [
            row.name.clone(),
            row.nodes.to_string(),
            format!("{:.4}", row.syst_ms),
            format!("{:.4}", row.simt_s),
            format!("{:.0}", row.mean_mc_vectors),
            row.naive_s
                .map(|n| format!("{n:.3}"))
                .unwrap_or_else(|| "-".into()),
            format!("{:.1}", row.pct_dif),
            format!("{:.3}", row.mad),
            format!("{:.3}", row.spt_s),
            fmt_speedup(row.isp),
            fmt_speedup(row.esp),
            if nsp.is_nan() {
                "-".to_owned()
            } else {
                fmt_speedup(nsp)
            },
        ];
        print!("{}", fixed_width_line(&cells, &width));
        sums.0 += row.pct_dif;
        sums.1 += row.isp;
        sums.2 += row.esp;
        sums.3 += if nsp.is_nan() { 0.0 } else { nsp };
        answered += 1;
    }
    if answered > 0 {
        let n = answered as f64;
        let average = [
            "average".to_owned(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            format!("{:.1}", sums.0 / n),
            String::new(),
            String::new(),
            fmt_speedup(sums.1 / n),
            fmt_speedup(sums.2 / n),
            fmt_speedup(sums.3 / n),
        ];
        print!("{}", fixed_width_line(&average, &width));
    }
    println!(
        "({answered} of {} circuits answered; the average covers those)",
        circuits.len()
    );
    println!();
    println!("Paper reference: avg %Dif 5.4; ESP 4-5 orders of magnitude; ISP 2-3 orders.");
    println!("NSP = speedup vs the naive scalar baseline (closer to what 2005-era");
    println!("comparisons used); ESP is against our bit-parallel, cone-restricted");
    println!("simulator, a deliberately stronger opponent.");
}
