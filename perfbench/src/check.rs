//! Reply checking: wire frames parsed at full precision and compared
//! bit for bit with the in-process library's answers.

use std::collections::BTreeMap;

use ser_service::json::{parse_object, JsonValue};

use crate::oracle::Answer;
use crate::workload::{Op, TOP};

/// What one reply turned out to be.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// The wire error code, when the reply is an error frame.
    pub error: Option<String>,
    /// Why the reply disagrees with the library, when it does.
    pub mismatch: Option<String>,
    /// Per-site EPP values the reply delivered (or, for a top-k sweep,
    /// analysed).
    pub sites: usize,
}

impl Verdict {
    pub fn ok(&self) -> bool {
        self.error.is_none() && self.mismatch.is_none()
    }
}

type Fields = Vec<(String, JsonValue)>;

fn field<'f>(fields: &'f Fields, key: &str) -> Result<&'f JsonValue, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("reply has no `{key}`"))
}

fn num(fields: &Fields, key: &str) -> Result<f64, String> {
    field(fields, key)?
        .as_f64()
        .ok_or_else(|| format!("`{key}` is not a number"))
}

fn count(fields: &Fields, key: &str) -> Result<usize, String> {
    field(fields, key)?
        .as_count()
        .map(|n| n as usize)
        .ok_or_else(|| format!("`{key}` is not a count"))
}

fn same_bits(what: &str, wire: f64, lib: f64) -> Result<(), String> {
    if wire.to_bits() == lib.to_bits() {
        Ok(())
    } else {
        Err(format!("{what}: wire {wire:e} != library {lib:e}"))
    }
}

fn same<T: PartialEq + std::fmt::Debug>(what: &str, wire: T, lib: T) -> Result<(), String> {
    if wire == lib {
        Ok(())
    } else {
        Err(format!("{what}: wire {wire:?} != library {lib:?}"))
    }
}

/// A `{"node": ..., "p_sensitized": ...}` entry.
fn site_entry(v: &JsonValue) -> Result<(&str, f64), String> {
    let node = v.get("node").and_then(JsonValue::as_str);
    let p = v.get("p_sensitized").and_then(JsonValue::as_f64);
    node.zip(p).ok_or_else(|| "malformed site entry".to_owned())
}

/// Checks one reply (every frame of it) against the library's answer.
pub fn check(op: &Op, frames: &[String], answer: &Answer) -> Verdict {
    let mut verdict = Verdict::default();
    let Some(last) = frames.last() else {
        verdict.mismatch = Some("empty reply".into());
        return verdict;
    };
    let result = parse_object(last).and_then(|fields| {
        if let Ok(JsonValue::Obj(error)) = field(&fields, "error") {
            let code = error
                .iter()
                .find(|(k, _)| k == "code")
                .and_then(|(_, v)| v.as_str())
                .unwrap_or("unknown");
            verdict.error = Some(code.to_owned());
            return Ok(());
        }
        if let Answer::Refused(why) = answer {
            return Err(format!("daemon answered what the library refused ({why})"));
        }
        compare(op, frames, &fields, answer, &mut verdict.sites)
    });
    if let Err(e) = result {
        verdict.mismatch = Some(format!("{}: {e}", op.name()));
    }
    verdict
}

fn compare(
    op: &Op,
    frames: &[String],
    fields: &Fields,
    answer: &Answer,
    sites: &mut usize,
) -> Result<(), String> {
    match (op, answer) {
        (Op::Sweep { chunk, .. }, Answer::Sweep { circuit, results }) => {
            let p = results.p_sensitized();
            same("nodes", count(fields, "nodes")?, p.len())?;
            // Summed in node order, exactly as the result frame does.
            let total: f64 = p.iter().sum();
            same_bits(
                "total_p_sensitized",
                num(fields, "total_p_sensitized")?,
                total,
            )?;
            let mut ranked: Vec<usize> = (0..p.len()).collect();
            ranked.sort_by(|&a, &b| p[b].total_cmp(&p[a]));
            let top = match field(fields, "top")? {
                JsonValue::Arr(items) => items,
                _ => return Err("`top` is not an array".into()),
            };
            same("top length", top.len(), TOP.min(p.len()))?;
            for (entry, &pos) in top.iter().zip(&ranked) {
                let (node, wire_p) = site_entry(entry)?;
                let site = results.get(pos);
                same("top node", node, circuit.node(site.site()).name())?;
                same_bits(node, wire_p, site.p_sensitized())?;
            }
            if chunk.is_some() {
                let mut seen = 0usize;
                for frame in &frames[..frames.len() - 1] {
                    let chunk = parse_object(frame)?;
                    same("chunk first", count(&chunk, "first")?, seen)?;
                    let JsonValue::Arr(entries) = field(&chunk, "sites")? else {
                        return Err("`sites` is not an array".into());
                    };
                    for entry in entries {
                        let (node, wire_p) = site_entry(entry)?;
                        let site = results.get(seen);
                        same("chunk node", node, circuit.node(site.site()).name())?;
                        same_bits(node, wire_p, site.p_sensitized())?;
                        seen += 1;
                    }
                }
                same("chunked sites", seen, p.len())?;
                same("chunks", count(fields, "chunks")?, frames.len() - 1)?;
            }
            *sites = p.len();
        }
        (
            Op::Site { .. },
            Answer::Site {
                name,
                p,
                on_path_gates,
            },
        ) => {
            same("node", field(fields, "node")?.as_str(), Some(name.as_str()))?;
            same_bits("p_sensitized", num(fields, "p_sensitized")?, *p)?;
            same(
                "on_path_gates",
                count(fields, "on_path_gates")?,
                *on_path_gates,
            )?;
            *sites = 1;
        }
        (Op::SetInputs { .. }, Answer::SetInputs) => {
            count(fields, "revision")?;
        }
        (
            Op::WhatIf { .. },
            Answer::WhatIf {
                total,
                previous,
                dirty,
                deltas,
                depth,
            },
        ) => {
            same_bits("total_ser", num(fields, "total_ser")?, *total)?;
            same_bits("previous_ser", num(fields, "previous_ser")?, *previous)?;
            same("dirty_sites", count(fields, "dirty_sites")?, *dirty)?;
            same("depth", count(fields, "depth")?, *depth)?;
            let mut wire_deltas = 0;
            for frame in &frames[..frames.len() - 1] {
                if let JsonValue::Arr(items) = field(&parse_object(frame)?, "deltas")? {
                    wire_deltas += items.len();
                }
            }
            same("deltas", wire_deltas, *deltas)?;
            *sites = *dirty;
        }
        (Op::Revert { .. }, Answer::Revert { total, depth }) => {
            same_bits("total_ser", num(fields, "total_ser")?, *total)?;
            same("depth", count(fields, "depth")?, *depth)?;
        }
        _ => return Err("reply and library answer are of different ops".into()),
    }
    Ok(())
}

/// Flips the lowest mantissa bit of the first `p_sensitized` or
/// `total_ser` value in a reply's last frame — the seeded corruption
/// the self-test feeds the checker.
pub fn flip_one_bit(frames: &[String]) -> Option<Vec<String>> {
    let last = frames.last()?;
    for key in ["\"p_sensitized\": ", "\"total_ser\": "] {
        if let Some(at) = last.find(key) {
            let start = at + key.len();
            let end = start + last[start..].find([',', '}']).unwrap_or(last.len() - start);
            let value: f64 = last[start..end].parse().ok()?;
            let flipped = f64::from_bits(value.to_bits() ^ 1);
            let mut out = frames.to_vec();
            *out.last_mut()? = format!("{}{flipped}{}", &last[..start], &last[end..]);
            return Some(out);
        }
    }
    None
}

/// Per-op failure accounting.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: usize,
    pub ok: usize,
    pub errors: BTreeMap<String, usize>,
    pub mismatches: usize,
}

#[derive(Debug, Default, Clone)]
pub struct Accounts {
    pub ops: BTreeMap<&'static str, Tally>,
    /// The first few mismatch explanations, for the log.
    pub first_mismatches: Vec<String>,
}

impl Accounts {
    pub fn record(&mut self, op: &Op, verdict: &Verdict) {
        let tally = self.ops.entry(op.name()).or_default();
        tally.attempted += 1;
        if let Some(code) = &verdict.error {
            *tally.errors.entry(code.clone()).or_default() += 1;
        }
        if let Some(why) = &verdict.mismatch {
            tally.mismatches += 1;
            if self.first_mismatches.len() < 5 {
                self.first_mismatches.push(why.clone());
            }
        }
        if verdict.ok() {
            tally.ok += 1;
        }
    }

    pub fn attempted(&self) -> usize {
        self.ops.values().map(|t| t.attempted).sum()
    }

    pub fn failed(&self) -> usize {
        self.ops.values().map(|t| t.attempted - t.ok).sum()
    }

    pub fn json(&self) -> String {
        let ops: Vec<String> = self
            .ops
            .iter()
            .map(|(op, t)| {
                let errors: Vec<String> =
                    t.errors.iter().map(|(c, n)| format!("\"{c}\": {n}")).collect();
                format!(
                    "\"{op}\": {{\"attempted\": {}, \"ok\": {}, \"errors\": {{{}}}, \"mismatches\": {}}}",
                    t.attempted,
                    t.ok,
                    errors.join(", "),
                    t.mismatches
                )
            })
            .collect();
        format!("{{{}}}", ops.join(", "))
    }
}
