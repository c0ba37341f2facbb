//! The in-process library replay: every request answered by direct
//! calls into `ser-netlist`/`ser-epp`, timed call by call. Its answers
//! are the reference the daemon's replies are checked against; its
//! timings are the bottom layers of the traced breakdown.

use std::sync::Arc;
use std::time::Instant;

use ser_epp::{AnalysisSession, Edit, SweepResults, WhatIfSession};
use ser_netlist::{Circuit, NodeId};
use ser_sp::InputProbs;

use crate::client::THREADS;
use crate::workload::{Netlist, Op};

/// Seconds spent in each library layer by one request.
#[derive(Debug, Clone, Copy, Default)]
pub struct LibTime {
    pub parse: f64,
    pub compile: f64,
    pub plan: f64,
    pub kernel: f64,
    pub set_inputs: f64,
    pub site: f64,
    pub apply: f64,
    pub revert: f64,
}

impl LibTime {
    /// Time below the service layer: everything but the netlist parse,
    /// which the protocol layer does before the service sees a circuit.
    pub fn below_service(&self) -> f64 {
        self.compile
            + self.plan
            + self.kernel
            + self.set_inputs
            + self.site
            + self.apply
            + self.revert
    }
}

/// The reference answer to one request.
#[derive(Debug, Clone)]
pub enum Answer {
    Sweep {
        circuit: Arc<Circuit>,
        results: Arc<SweepResults>,
    },
    Site {
        name: String,
        p: f64,
        on_path_gates: usize,
    },
    SetInputs,
    WhatIf {
        total: f64,
        previous: f64,
        dirty: usize,
        deltas: usize,
        depth: usize,
    },
    Revert {
        total: f64,
        depth: usize,
    },
    /// The library refused the request too (the reply must be an error).
    Refused(String),
}

/// Per-circuit plan figures, recorded when the plans are built.
#[derive(Debug, Clone, Copy)]
pub struct PlanFigures {
    pub arena_bytes: usize,
    pub stored_members: usize,
    pub logical_members: u64,
}

/// Counts and samples the per-layer metrics are computed from.
#[derive(Debug, Default)]
pub struct LayerSamples {
    pub parse_ms: Vec<f64>,
    pub compile_ms: Vec<f64>,
    pub sp_ms: Vec<f64>,
    pub set_inputs_ms: Vec<f64>,
    pub site_us: Vec<f64>,
    pub plan_ms: Vec<f64>,
    pub plans: Vec<PlanFigures>,
    pub kernel_ms: Vec<f64>,
    pub kernel_sites: usize,
    pub kernel_members: u64,
    pub kernel_s: f64,
    pub planned_site_us: Vec<f64>,
    pub apply_ms: Vec<f64>,
    pub revert_ms: Vec<f64>,
    pub dirty_fraction: Vec<f64>,
    /// Nodes `site` was asked about, per netlist (the planned-path
    /// probe re-asks them).
    pub site_nodes: Vec<(usize, NodeId)>,
}

struct Entry {
    circuit: Arc<Circuit>,
    session: AnalysisSession,
    plans: Option<PlanFigures>,
    /// The whole-circuit sweep under the current inputs, as the
    /// daemon's response cache would hold it.
    sweep: Option<Arc<SweepResults>>,
    whatif: Option<WhatIfSession>,
}

/// Reference state for one plan's netlists.
pub struct Oracle<'a> {
    nets: &'a [Netlist],
    entries: Vec<Option<Entry>>,
    pub samples: LayerSamples,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

impl<'a> Oracle<'a> {
    pub fn new(nets: &'a [Netlist]) -> Self {
        Oracle {
            nets,
            entries: nets.iter().map(|_| None).collect(),
            samples: LayerSamples::default(),
        }
    }

    /// Drops a netlist's compiled state (cold netlists are used once).
    pub fn forget(&mut self, net: usize) {
        self.entries[net] = None;
    }

    fn entry(&mut self, net: usize, time: &mut LibTime) -> Result<&mut Entry, String> {
        if self.entries[net].is_none() {
            let t = Instant::now();
            let circuit = Arc::new(self.nets[net].parse());
            time.parse = secs(t);
            let t = Instant::now();
            let session = AnalysisSession::new(Arc::clone(&circuit)).map_err(|e| e.to_string())?;
            time.compile = secs(t);
            self.samples.parse_ms.push(time.parse * 1e3);
            self.samples.compile_ms.push(time.compile * 1e3);
            self.samples
                .sp_ms
                .push(session.sp_time().as_secs_f64() * 1e3);
            self.entries[net] = Some(Entry {
                circuit,
                session,
                plans: None,
                sweep: None,
                whatif: None,
            });
        }
        Ok(self.entries[net].as_mut().expect("just filled"))
    }

    /// Answers one request, timing each library call it makes.
    pub fn answer(&mut self, op: &Op) -> (Answer, LibTime) {
        let mut time = LibTime::default();
        let answer = self
            .answer_timed(op, &mut time)
            .unwrap_or_else(Answer::Refused);
        (answer, time)
    }

    fn answer_timed(&mut self, op: &Op, time: &mut LibTime) -> Result<Answer, String> {
        let net = op.net();
        self.entry(net, time)?;
        let entry = self.entries[net].as_mut().expect("entry() filled it");
        let samples = &mut self.samples;
        match op {
            Op::Sweep { .. } => {
                if let Some(results) = &entry.sweep {
                    // The daemon answers this from its response cache.
                    return Ok(Answer::Sweep {
                        circuit: Arc::clone(&entry.circuit),
                        results: Arc::clone(results),
                    });
                }
                let mut built = None;
                if entry.plans.is_none() {
                    let t = Instant::now();
                    let epp = entry.session.epp();
                    let plans = epp
                        .artifacts()
                        .cone_plans(&entry.circuit)
                        .map(|p| PlanFigures {
                            arena_bytes: p.arena_bytes(),
                            stored_members: p.stored_members(),
                            logical_members: p.logical_members(),
                        });
                    time.plan = secs(t);
                    let plans = plans.ok_or("plan arena over budget")?;
                    entry.plans = Some(plans);
                    built = Some(plans);
                }
                let t = Instant::now();
                let results = Arc::new(entry.session.sweep(THREADS));
                time.kernel = secs(t);
                entry.sweep = Some(Arc::clone(&results));
                let members = entry.plans.map_or(0, |p| p.logical_members);
                let circuit = Arc::clone(&entry.circuit);
                if let Some(plans) = built {
                    samples.plan_ms.push(time.plan * 1e3);
                    samples.plans.push(plans);
                }
                samples.kernel_ms.push(time.kernel * 1e3);
                samples.kernel_sites += results.len();
                samples.kernel_members += members;
                samples.kernel_s += time.kernel;
                Ok(Answer::Sweep { circuit, results })
            }
            Op::Site { node, .. } => {
                let id = entry.circuit.find(node).ok_or("no such node")?;
                let t = Instant::now();
                let site = entry.session.site(id);
                time.site = secs(t);
                samples.site_us.push(time.site * 1e6);
                samples.site_nodes.push((net, id));
                Ok(Answer::Site {
                    name: node.clone(),
                    p: site.p_sensitized(),
                    on_path_gates: site.on_path_gates(),
                })
            }
            Op::SetInputs {
                default_p,
                overrides,
                ..
            } => {
                let mut probs = InputProbs::uniform(*default_p);
                for (name, p) in overrides {
                    probs = probs.with(entry.circuit.find(name).ok_or("no such input")?, *p);
                }
                let t = Instant::now();
                entry.session.set_inputs(probs).map_err(|e| e.to_string())?;
                time.set_inputs = secs(t);
                entry.sweep = None;
                samples.set_inputs_ms.push(time.set_inputs * 1e3);
                samples
                    .sp_ms
                    .push(entry.session.sp_time().as_secs_f64() * 1e3);
                Ok(Answer::SetInputs)
            }
            Op::WhatIf { node, .. } => {
                if entry.whatif.is_none() {
                    entry.whatif = Some(WhatIfSession::new(entry.session.clone(), THREADS));
                }
                let wf = entry.whatif.as_mut().expect("just filled");
                let id = wf.circuit().find(node).ok_or("no such node")?;
                let t = Instant::now();
                let outcome = wf.apply(Edit::Tmr(id)).map_err(|e| e.to_string())?;
                time.apply = secs(t);
                samples.apply_ms.push(time.apply * 1e3);
                samples
                    .dirty_fraction
                    .push(outcome.dirty_sites as f64 / outcome.total_sites as f64);
                Ok(Answer::WhatIf {
                    total: outcome.total,
                    previous: outcome.previous_total,
                    dirty: outcome.dirty_sites,
                    deltas: outcome.deltas.len(),
                    depth: outcome.depth,
                })
            }
            Op::Revert { .. } => {
                let wf = entry.whatif.as_mut().ok_or("no what-if session")?;
                let t = Instant::now();
                let total = wf.revert().ok_or("nothing to revert")?;
                time.revert = secs(t);
                samples.revert_ms.push(time.revert * 1e3);
                Ok(Answer::Revert {
                    total,
                    depth: wf.depth(),
                })
            }
        }
    }

    /// Times the layer functions the request stream did not call, on
    /// `nets`, so every per-layer metric has samples on every workload.
    /// Also times the planned single-site path on the same sites as
    /// `session.site` for comparison.
    pub fn probe(&mut self, nets: &[usize], seed: u64) {
        let mut rng = crate::workload::Rng::new(seed, 7);
        let want_set_inputs = self.samples.set_inputs_ms.is_empty();
        let want_site = self.samples.site_us.is_empty();
        let want_whatif = self.samples.apply_ms.is_empty();
        let want_kernel = self.samples.kernel_ms.len() < 3;
        for &net in nets {
            if self.entry(net, &mut LibTime::default()).is_err() {
                continue;
            }
            let entry = self.entries[net].as_mut().expect("entry() filled it");
            let samples = &mut self.samples;
            let n = entry.circuit.len();
            // Plans are built once per circuit, outside every timed call.
            let logical = entry
                .session
                .epp()
                .artifacts()
                .cone_plans(&entry.circuit)
                .map_or(0, |p| p.logical_members());
            if want_kernel {
                let t = Instant::now();
                let results = entry.session.sweep(THREADS);
                let s = secs(t);
                samples.kernel_ms.push(s * 1e3);
                samples.kernel_sites += results.len();
                samples.kernel_members += logical;
                samples.kernel_s += s;
            }
            if want_site {
                for _ in 0..32 {
                    let id = NodeId::from_index(rng.below(n));
                    let t = Instant::now();
                    std::hint::black_box(entry.session.site(id));
                    samples.site_us.push(secs(t) * 1e6);
                    samples.site_nodes.push((net, id));
                }
            }
            if want_whatif {
                let gates: Vec<NodeId> = entry
                    .circuit
                    .node_ids()
                    .filter(|&id| entry.circuit.node(id).kind().is_logic())
                    .collect();
                if !gates.is_empty() {
                    let mut wf = WhatIfSession::new(entry.session.clone(), THREADS);
                    let id = gates[rng.below(gates.len())];
                    let t = Instant::now();
                    if let Ok(outcome) = wf.apply(Edit::Tmr(id)) {
                        samples.apply_ms.push(secs(t) * 1e3);
                        samples
                            .dirty_fraction
                            .push(outcome.dirty_sites as f64 / outcome.total_sites as f64);
                        let t = Instant::now();
                        wf.revert();
                        samples.revert_ms.push(secs(t) * 1e3);
                    }
                }
            }
            if want_set_inputs {
                let t = Instant::now();
                if entry
                    .session
                    .set_inputs(InputProbs::uniform(rng.range(0.2, 0.8)))
                    .is_ok()
                {
                    samples.set_inputs_ms.push(secs(t) * 1e3);
                    entry.sweep = None;
                }
            }
        }
        // The planned path on the same sites `site` answered (at most
        // 256 of them), one thread as a single-site request would run.
        let sites: Vec<(usize, NodeId)> =
            self.samples.site_nodes.iter().take(256).copied().collect();
        for (net, id) in sites {
            let Some(entry) = self.entries[net].as_ref() else {
                continue;
            };
            let _ = entry.session.epp().artifacts().cone_plans(&entry.circuit);
            let t = Instant::now();
            std::hint::black_box(entry.session.sweep_sites(&[id], 1));
            self.samples.planned_site_us.push(secs(t) * 1e6);
        }
    }
}
