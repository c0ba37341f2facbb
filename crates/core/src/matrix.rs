//! The site × observe-point vulnerability matrix.
//!
//! `P_sensitized` collapses each site's exposure to one number; the
//! matrix underneath it — *which* outputs see *which* sites, at what
//! arrival probability — is what placement-aware hardening and error
//! containment actually need (e.g. "protect everything visible from
//! the bus parity output"). The EPP pass computes the full matrix for
//! free; this module materializes it.

use std::fmt::Write as _;

use ser_netlist::{Circuit, NodeId, ObservePoint};

use crate::engine::{EppAnalysis, PolarityMode, WorkspacePool};
use crate::sweep::RunCtx;

/// Dense site × observe-point arrival matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct VulnerabilityMatrix {
    points: Vec<ObservePoint>,
    /// Row-major `[site][point]` arrival probabilities (`Pa + Pā`).
    arrivals: Vec<f64>,
    sites: usize,
}

impl VulnerabilityMatrix {
    /// Computes the matrix for every node of the analysis' circuit, in
    /// one batched sweep over the shared cone plans.
    #[must_use]
    pub fn compute(analysis: &EppAnalysis) -> Self {
        let circuit = analysis.circuit();
        let points: Vec<ObservePoint> = circuit.observe_points().collect();
        let cols = points.len();
        let mut arrivals = vec![0.0f64; circuit.len() * cols];
        let pool = WorkspacePool::new();
        let sites: Vec<NodeId> = circuit.node_ids().collect();
        let sweep = analysis.sweep(&sites, PolarityMode::Tracked, &RunCtx::new(1, &pool));
        for result in sweep.iter() {
            let site = result.site();
            for p in result.per_point() {
                let col = points
                    .iter()
                    .position(|&q| q == p.point)
                    .expect("point enumerated");
                arrivals[site.index() * cols + col] = p.p_arrival();
            }
        }
        VulnerabilityMatrix {
            points,
            arrivals,
            sites: circuit.len(),
        }
    }

    /// The observe points (column order).
    #[must_use]
    pub fn points(&self) -> &[ObservePoint] {
        &self.points
    }

    /// Arrival probability from `site` to column `point_index`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn arrival(&self, site: NodeId, point_index: usize) -> f64 {
        assert!(point_index < self.points.len(), "column out of range");
        self.arrivals[site.index() * self.points.len() + point_index]
    }

    /// All arrivals from one site (a row).
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    #[must_use]
    pub fn row(&self, site: NodeId) -> &[f64] {
        let cols = self.points.len();
        &self.arrivals[site.index() * cols..(site.index() + 1) * cols]
    }

    /// Number of sites (rows).
    #[must_use]
    pub fn num_sites(&self) -> usize {
        self.sites
    }

    /// The sites visible from one observe point above a threshold —
    /// the "error containment region" of that output.
    #[must_use]
    pub fn visible_sites(&self, point_index: usize, threshold: f64) -> Vec<NodeId> {
        (0..self.sites)
            .map(NodeId::from_index)
            .filter(|&s| self.arrival(s, point_index) > threshold)
            .collect()
    }

    /// Renders the matrix as CSV: header of observe-point signal names,
    /// one row per site.
    #[must_use]
    pub fn to_csv(&self, circuit: &Circuit) -> String {
        let mut out = String::from("site");
        for p in &self.points {
            let tag = if p.is_flip_flop() { "ff" } else { "po" };
            let _ = write!(out, ",{}:{}", tag, circuit.node(p.signal()).name());
        }
        out.push('\n');
        for site in circuit.node_ids() {
            let _ = write!(out, "{}", circuit.node(site).name());
            for v in self.row(site) {
                let _ = write!(out, ",{v:.6}");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ser_netlist::parse_bench;
    use ser_sp::{IndependentSp, InputProbs, SpEngine};

    fn matrix_for(src: &str) -> (ser_netlist::Circuit, VulnerabilityMatrix) {
        let c = parse_bench(src, "m").unwrap();
        let sp = IndependentSp::new()
            .compute(&c, &InputProbs::default())
            .unwrap();
        let analysis = EppAnalysis::new(&c, sp).unwrap();
        let m = VulnerabilityMatrix::compute(&analysis);
        (c, m)
    }

    #[test]
    fn fan_shaped_visibility() {
        // y1 sees a (gated by b); y2 sees c (gated by b); b sees both.
        let (c, m) = matrix_for(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y1)\nOUTPUT(y2)\ny1 = AND(a, b)\ny2 = AND(c, b)\n",
        );
        assert_eq!(m.points().len(), 2);
        assert_eq!(m.num_sites(), c.len());
        let a = c.find("a").unwrap();
        let b = c.find("b").unwrap();
        let cc = c.find("c").unwrap();
        // Column order matches circuit.observe_points(): y1 then y2.
        assert!((m.arrival(a, 0) - 0.5).abs() < 1e-12);
        assert_eq!(m.arrival(a, 1), 0.0);
        assert_eq!(m.arrival(cc, 0), 0.0);
        assert!((m.arrival(cc, 1) - 0.5).abs() < 1e-12);
        assert!((m.arrival(b, 0) - 0.5).abs() < 1e-12);
        assert!((m.arrival(b, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn visible_sites_threshold() {
        let (c, m) = matrix_for(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y1)\nOUTPUT(y2)\ny1 = AND(a, b)\ny2 = AND(c, b)\n",
        );
        let vis = m.visible_sites(0, 0.1);
        let names: Vec<&str> = vis.iter().map(|&s| c.node(s).name()).collect();
        assert!(names.contains(&"a"));
        assert!(names.contains(&"b"));
        assert!(names.contains(&"y1"));
        assert!(!names.contains(&"c"));
        assert!(!names.contains(&"y2"));
    }

    #[test]
    fn csv_shape() {
        let (c, m) = matrix_for("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n");
        let csv = m.to_csv(&c);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + c.len());
        assert_eq!(lines[0], "site,po:y");
        assert!(lines[1].starts_with("a,1.000000"));
    }

    #[test]
    fn flip_flop_columns_tagged() {
        let (c, m) = matrix_for("INPUT(a)\nOUTPUT(y)\nq = DFF(d)\nd = NOT(a)\ny = NOT(q)\n");
        let csv = m.to_csv(&c);
        assert!(csv.lines().next().unwrap().contains("ff:d"));
        assert!(csv.lines().next().unwrap().contains("po:y"));
    }

    #[test]
    fn row_slices_match_point_lookup() {
        let (c, m) = matrix_for(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y1)\nOUTPUT(y2)\ny1 = OR(a, b)\ny2 = NAND(a, b)\n",
        );
        for site in c.node_ids() {
            let row = m.row(site);
            for (i, &v) in row.iter().enumerate() {
                assert_eq!(v, m.arrival(site, i));
            }
        }
    }
}
