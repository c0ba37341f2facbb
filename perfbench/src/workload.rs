//! Workload generation: seeded netlists (`ser_gen::synthesize` +
//! `write_bench`) and the request streams each connection sends.
//!
//! Every input is a pure function of the workload seed. The daemon only
//! ever sees the generated `.bench` files and the request lines.

use std::path::Path;
use std::sync::Arc;

use ser_epp::AnalysisSession;
use ser_netlist::{parse_bench, write_bench, Circuit};
use ser_service::json_escape;
use ser_sp::InputProbs;

/// The three workloads, by their command-line names.
pub const WORKLOADS: [&str; 3] = ["cold-analyze", "input-scan", "interactive"];

/// SplitMix64: a tiny, fully specified PRNG, so a seed means the same
/// inputs on every host and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Which circuits a workload runs on: the full-size benchmark, or the
/// tiny inputs of the self-test.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Mid-size profiles of one cold-analyze round (the main class).
    pub cold_mid: &'static [&'static str],
    /// Large profiles of one cold-analyze round (the side class).
    pub cold_large: &'static [&'static str],
    /// The resident circuit input-scan re-weights.
    pub scan: &'static str,
    /// The resident circuit interactive reads single sites of.
    pub site: &'static str,
    /// The resident circuit whose cached sweep interactive re-reads.
    pub hit: &'static str,
    /// The resident circuit interactive edits with `whatif`.
    pub whatif: &'static str,
}

pub const FULL: Scale = Scale {
    cold_mid: &[
        "s953", "s1196", "s1238", "s1423", "s1488", "s1494", "c1908", "c2670", "c3540", "c5315",
        "c6288", "c7552",
    ],
    // s15850 is left out: the default response cache would keep two of
    // its sweeps (~250 MB each) resident, pushing the daemon past 1.5 GB.
    cold_large: &["s9234", "s9234", "s9234"],
    scan: "s9234",
    site: "s9234",
    hit: "s953",
    whatif: "s1423",
};

pub const TINY: Scale = Scale {
    cold_mid: &["s298", "s298", "s953"],
    cold_large: &["s953"],
    scan: "s953",
    site: "s953",
    hit: "s298",
    whatif: "s298",
};

/// One generated netlist, written to disk for the daemon.
#[derive(Debug)]
pub struct Netlist {
    pub path: String,
    pub text: String,
}

impl Netlist {
    /// Parses the netlist exactly as the daemon does (`parse_bench`
    /// with the file stem as the circuit name).
    pub fn parse(&self) -> Circuit {
        parse_bench(&self.text, self.stem()).expect("generated netlists parse")
    }

    pub fn stem(&self) -> &str {
        Path::new(&self.path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("circuit")
    }
}

/// One request, with netlists referenced by index into [`Plan::netlists`].
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Sweep {
        net: usize,
        chunk: Option<usize>,
    },
    Site {
        net: usize,
        node: String,
    },
    SetInputs {
        net: usize,
        default_p: f64,
        overrides: Vec<(String, f64)>,
    },
    WhatIf {
        net: usize,
        node: String,
    },
    Revert {
        net: usize,
    },
}

/// Ranking length of every sweep request.
pub const TOP: usize = 10;

impl Op {
    pub fn name(&self) -> &'static str {
        match self {
            Op::Sweep { .. } => "sweep",
            Op::Site { .. } => "site",
            Op::SetInputs { .. } => "set_inputs",
            Op::WhatIf { .. } => "whatif",
            Op::Revert { .. } => "whatif_revert",
        }
    }

    pub fn net(&self) -> usize {
        match self {
            Op::Sweep { net, .. }
            | Op::Site { net, .. }
            | Op::SetInputs { net, .. }
            | Op::WhatIf { net, .. }
            | Op::Revert { net } => *net,
        }
    }

    /// The v2 envelope for this request.
    pub fn line(&self, id: &str, nets: &[Netlist]) -> String {
        let head = format!(
            "{{\"v\": 2, \"id\": \"{}\", \"op\": \"{}\", \"netlist\": \"{}\"",
            json_escape(id),
            self.name(),
            json_escape(&nets[self.net()].path)
        );
        match self {
            Op::Sweep { chunk, .. } => match chunk {
                Some(n) => format!("{head}, \"top\": {TOP}, \"chunk_sites\": {n}}}"),
                None => format!("{head}, \"top\": {TOP}}}"),
            },
            Op::Site { node, .. } => format!("{head}, \"node\": \"{}\"}}", json_escape(node)),
            Op::SetInputs {
                default_p,
                overrides,
                ..
            } => {
                let overrides: Vec<String> = overrides
                    .iter()
                    .map(|(name, p)| format!("\"{}\": {p}", json_escape(name)))
                    .collect();
                format!(
                    "{head}, \"inputs\": {{\"default\": {default_p}, \"overrides\": {{{}}}}}}}",
                    overrides.join(", ")
                )
            }
            Op::WhatIf { node, .. } => format!(
                "{head}, \"edit\": \"tmr\", \"node\": \"{}\"}}",
                json_escape(node)
            ),
            Op::Revert { .. } => format!("{head}}}"),
        }
    }
}

/// A few requests a client sends back to back; the unit's latency runs
/// from the first send to the last reply.
#[derive(Debug, Clone)]
pub struct Unit {
    pub reqs: Vec<Op>,
    /// The unit's latency is a `main_ms` sample.
    pub main: bool,
    /// Index into `reqs` of the request whose latency is a `side_ms`
    /// sample, if any.
    pub side: Option<usize>,
    /// The run may stop after this unit (cold-analyze stops only at
    /// round boundaries, so every run sees the same profile mix).
    pub checkpoint: bool,
}

/// A connection's request stream.
#[derive(Debug, Clone)]
pub enum Source {
    /// A finite, pre-generated stream.
    Fixed { units: Arc<Vec<Unit>>, next: usize },
    /// Interactive reads: `site` on random nodes, every 10th request a
    /// `sweep` the response cache answers.
    Reads {
        rng: Rng,
        count: usize,
        site_net: usize,
        nodes: Arc<Vec<String>>,
        hit_net: usize,
    },
    /// Interactive writes: `whatif` TMR on a random logic gate, then
    /// `whatif_revert`.
    Writes {
        rng: Rng,
        net: usize,
        gates: Arc<Vec<String>>,
    },
}

impl Iterator for Source {
    type Item = Unit;

    fn next(&mut self) -> Option<Unit> {
        match self {
            Source::Fixed { units, next } => {
                let unit = units.get(*next).cloned();
                *next += 1;
                unit
            }
            Source::Reads {
                rng,
                count,
                site_net,
                nodes,
                hit_net,
            } => {
                *count += 1;
                let node = nodes[rng.below(nodes.len())].clone();
                Some(if *count % 10 == 0 {
                    Unit {
                        reqs: vec![Op::Sweep {
                            net: *hit_net,
                            chunk: None,
                        }],
                        main: false,
                        side: None,
                        checkpoint: true,
                    }
                } else {
                    Unit {
                        reqs: vec![Op::Site {
                            net: *site_net,
                            node,
                        }],
                        main: true,
                        side: None,
                        checkpoint: true,
                    }
                })
            }
            Source::Writes { rng, net, gates } => {
                let node = gates[rng.below(gates.len())].clone();
                Some(Unit {
                    reqs: vec![Op::WhatIf { net: *net, node }, Op::Revert { net: *net }],
                    main: false,
                    side: Some(0),
                    checkpoint: true,
                })
            }
        }
    }
}

/// Everything one run of a workload sends.
#[derive(Debug)]
pub struct Plan {
    pub workload: &'static str,
    pub netlists: Vec<Netlist>,
    /// Sent on the first connection during set-up (warm-up compiles).
    pub warmup: Vec<Op>,
    /// One source per connection.
    pub sources: Vec<Source>,
    /// How many units of the first source the sequential replay takes
    /// before one of the second.
    pub replay_ratio: usize,
    /// Circuits the traced run probes layer functions on when the
    /// stream itself does not call them.
    pub probe_nets: Vec<usize>,
    /// Each daemon of a run serves exactly one round of the stream (up
    /// to its first checkpoint) instead of a fixed share of the time:
    /// its peak RSS then holds the same cached sweeps every time.
    pub round_per_daemon: bool,
}

impl Plan {
    /// The merged order a sequential replay sends the streams in.
    pub fn replay_units(&self) -> impl Iterator<Item = Unit> {
        let mut sources = self.sources.clone();
        let ratio = self.replay_ratio.max(1);
        let mut i = 0usize;
        std::iter::from_fn(move || {
            i += 1;
            if sources.len() > 1 && i.is_multiple_of(ratio + 1) {
                sources[1].next()
            } else {
                sources[0].next()
            }
        })
    }
}

/// Generates a converging instance of `profile`: gen seeds whose
/// sequential SP fixed point does not converge are skipped, so no
/// request of the workload fails by design.
fn generate(profile: &'static str, rng: &mut Rng, dir: &Path, tag: &str) -> Netlist {
    let p = ser_gen::profile(profile).expect("known profile");
    loop {
        let gen_seed = rng.next_u64() % 1_000_000;
        let text = write_bench(&ser_gen::synthesize(&p, gen_seed));
        let path = dir.join(format!("{tag}_{profile}_{gen_seed}.bench"));
        let net = Netlist {
            path: path.to_str().expect("utf-8 work path").to_owned(),
            text,
        };
        if AnalysisSession::new(net.parse()).is_ok() {
            std::fs::write(&path, &net.text).expect("write netlist");
            return net;
        }
    }
}

/// Builds the plan of `workload` for `seed`. `seconds` bounds how much
/// of a finite stream is generated.
pub fn plan(workload: &str, seed: u64, seconds: f64, scale: &Scale, dir: &Path) -> Plan {
    match workload {
        "cold-analyze" => cold_analyze(seed, seconds, scale, dir),
        "input-scan" => input_scan(seed, seconds, scale, dir),
        "interactive" => interactive(seed, scale, dir),
        other => panic!("unknown workload `{other}`"),
    }
}

fn cold_analyze(seed: u64, seconds: f64, scale: &Scale, dir: &Path) -> Plan {
    let mut rng = Rng::new(seed, 1);
    // A round takes about a second at full scale and each of a run's
    // daemons serves one: two rounds per second of run never run out.
    let rounds = 2 * seconds.ceil() as usize + 2;
    let mut netlists = Vec::new();
    let mut units = Vec::new();
    for round in 0..rounds {
        let mut members: Vec<(&'static str, bool)> = scale
            .cold_mid
            .iter()
            .map(|&p| (p, true))
            .chain(scale.cold_large.iter().map(|&p| (p, false)))
            .collect();
        rng.shuffle(&mut members);
        let last = members.len() - 1;
        for (i, (profile, mid)) in members.into_iter().enumerate() {
            let net = netlists.len();
            netlists.push(generate(profile, &mut rng, dir, &format!("r{round}i{i}")));
            units.push(Unit {
                reqs: vec![Op::Sweep { net, chunk: None }],
                main: mid,
                side: (!mid).then_some(0),
                checkpoint: i == last,
            });
        }
    }
    Plan {
        workload: "cold-analyze",
        probe_nets: (0..netlists.len().min(4)).collect(),
        netlists,
        warmup: Vec::new(),
        sources: vec![Source::Fixed {
            units: Arc::new(units),
            next: 0,
        }],
        replay_ratio: 0,
        round_per_daemon: true,
    }
}

/// Sites per chunk frame of an input-scan sweep.
pub const SCAN_CHUNK: usize = 1024;

/// Gen seed stream of the warm workloads' resident circuits. Costs such
/// as the SP fixed point or a TMR edit's dirty region differ severalfold
/// between instances of one profile, so residents stay the same for
/// every workload seed; the seed draws the request stream.
const RESIDENT_SEED: u64 = 0x5E5_1DE7;

fn input_scan(seed: u64, seconds: f64, scale: &Scale, dir: &Path) -> Plan {
    let net = generate(scale.scan, &mut Rng::new(RESIDENT_SEED, 2), dir, "scan");
    let mut rng = Rng::new(seed, 2);
    let circuit = net.parse();
    let inputs: Vec<_> = circuit.inputs().to_vec();
    let mut session = AnalysisSession::new(circuit.clone()).expect("generate() checked SP");
    // Steps take ~0.1 s at full scale; 25 per second of run is ample.
    let steps = (seconds * 25.0).ceil() as usize + 4;
    let mut units = Vec::with_capacity(steps);
    let start = rng.range(0.0, 1.0);
    while units.len() < steps {
        // A golden-ratio sequence from a seeded start spreads the defaults
        // evenly over [0.2, 0.8] within every few steps, so each daemon
        // sees a like mix of SP fixed points.
        let default_p = 0.2 + 0.6 * (start + units.len() as f64 * 0.618_033_988_749_895).fract();
        let mut probs = InputProbs::uniform(default_p);
        let mut overrides = Vec::new();
        for _ in 0..3 {
            let input = inputs[rng.below(inputs.len())];
            let name = circuit.node(input).name().to_owned();
            if overrides.iter().any(|(n, _)| *n == name) {
                continue;
            }
            let p = rng.range(0.05, 0.95);
            probs = probs.with(input, p);
            overrides.push((name, p));
        }
        // A distribution whose sequential SP does not converge would
        // fail on the daemon too: draw again.
        if session.set_inputs(probs).is_err() {
            continue;
        }
        units.push(Unit {
            reqs: vec![
                Op::SetInputs {
                    net: 0,
                    default_p,
                    overrides,
                },
                Op::Sweep {
                    net: 0,
                    chunk: Some(SCAN_CHUNK),
                },
            ],
            main: true,
            side: Some(0),
            checkpoint: true,
        });
    }
    Plan {
        workload: "input-scan",
        netlists: vec![net],
        warmup: vec![Op::Sweep {
            net: 0,
            chunk: None,
        }],
        sources: vec![Source::Fixed {
            units: Arc::new(units),
            next: 0,
        }],
        replay_ratio: 0,
        probe_nets: vec![0],
        round_per_daemon: false,
    }
}

fn interactive(seed: u64, scale: &Scale, dir: &Path) -> Plan {
    let mut rng = Rng::new(RESIDENT_SEED, 3);
    let netlists = vec![
        generate(scale.site, &mut rng, dir, "site"),
        generate(scale.hit, &mut rng, dir, "hit"),
        generate(scale.whatif, &mut rng, dir, "whatif"),
    ];
    let site_circuit = netlists[0].parse();
    let nodes: Vec<String> = site_circuit
        .node_ids()
        .map(|id| site_circuit.node(id).name().to_owned())
        .collect();
    let whatif_circuit = netlists[2].parse();
    // TMR applies to logic gates only; a DFF target is a bad_request.
    let gates: Vec<String> = whatif_circuit
        .node_ids()
        .filter(|&id| whatif_circuit.node(id).kind().is_logic())
        .map(|id| whatif_circuit.node(id).name().to_owned())
        .collect();
    let mut warm_rng = Rng::new(seed, 4);
    let warm_gate = gates[warm_rng.below(gates.len())].clone();
    Plan {
        workload: "interactive",
        warmup: vec![
            Op::Site {
                net: 0,
                node: nodes[0].clone(),
            },
            Op::Sweep {
                net: 1,
                chunk: None,
            },
            Op::WhatIf {
                net: 2,
                node: warm_gate,
            },
            Op::Revert { net: 2 },
        ],
        sources: vec![
            Source::Reads {
                rng: Rng::new(seed, 5),
                count: 0,
                site_net: 0,
                nodes: Arc::new(nodes),
                hit_net: 1,
            },
            Source::Writes {
                rng: Rng::new(seed, 6),
                net: 2,
                gates: Arc::new(gates),
            },
        ],
        netlists,
        // Reads are ~15x shorter than writes; the sequential replay
        // keeps roughly the mix the two connections produce.
        replay_ratio: 8,
        probe_nets: vec![0, 1, 2],
        round_per_daemon: false,
    }
}
