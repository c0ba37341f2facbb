//! Structural profiles of the ISCAS'89 circuits used in the paper's
//! Table 2.
//!
//! The real ISCAS'89 netlists are distribution-restricted data we do not
//! ship; what the EPP algorithm's cost and accuracy depend on is the
//! circuits' *structure* — source/sink counts, gate count, depth and
//! fanout shape. Each profile records the published parameters of one
//! benchmark; [`synthesize`](crate::synthesize) produces a deterministic
//! synthetic circuit matching them.

use std::fmt;

/// Published structural parameters of one benchmark circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Profile {
    /// Benchmark name (e.g. `"s953"`).
    pub name: &'static str,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// D flip-flops.
    pub dffs: usize,
    /// Logic gates.
    pub gates: usize,
    /// Approximate logic depth the synthetic stand-in should target.
    pub depth: usize,
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} PI, {} PO, {} DFF, {} gates (target depth {})",
            self.name, self.inputs, self.outputs, self.dffs, self.gates, self.depth
        )
    }
}

/// The eleven circuits of the paper's Table 2, in table order.
pub const TABLE2: [Profile; 11] = [
    Profile {
        name: "s953",
        inputs: 16,
        outputs: 23,
        dffs: 29,
        gates: 395,
        depth: 16,
    },
    Profile {
        name: "s1196",
        inputs: 14,
        outputs: 14,
        dffs: 18,
        gates: 529,
        depth: 24,
    },
    Profile {
        name: "s1238",
        inputs: 14,
        outputs: 14,
        dffs: 18,
        gates: 508,
        depth: 22,
    },
    Profile {
        name: "s1423",
        inputs: 17,
        outputs: 5,
        dffs: 74,
        gates: 657,
        depth: 53,
    },
    Profile {
        name: "s1488",
        inputs: 8,
        outputs: 19,
        dffs: 6,
        gates: 653,
        depth: 17,
    },
    Profile {
        name: "s1494",
        inputs: 8,
        outputs: 19,
        dffs: 6,
        gates: 647,
        depth: 17,
    },
    Profile {
        name: "s9234",
        inputs: 36,
        outputs: 39,
        dffs: 211,
        gates: 5597,
        depth: 38,
    },
    Profile {
        name: "s15850",
        inputs: 77,
        outputs: 150,
        dffs: 534,
        gates: 9772,
        depth: 63,
    },
    Profile {
        name: "s35932",
        inputs: 35,
        outputs: 320,
        dffs: 1728,
        gates: 16065,
        depth: 29,
    },
    Profile {
        name: "s38584",
        inputs: 38,
        outputs: 304,
        dffs: 1426,
        gates: 19253,
        depth: 56,
    },
    Profile {
        name: "s38417",
        inputs: 28,
        outputs: 106,
        dffs: 1636,
        gates: 22179,
        depth: 47,
    },
];

/// Additional small ISCAS'89 profiles (useful for tests and quick runs).
pub const SMALL: [Profile; 4] = [
    Profile {
        name: "s298",
        inputs: 3,
        outputs: 6,
        dffs: 14,
        gates: 119,
        depth: 9,
    },
    Profile {
        name: "s344",
        inputs: 9,
        outputs: 11,
        dffs: 15,
        gates: 160,
        depth: 20,
    },
    Profile {
        name: "s386",
        inputs: 7,
        outputs: 7,
        dffs: 6,
        gates: 159,
        depth: 11,
    },
    Profile {
        name: "s526",
        inputs: 3,
        outputs: 6,
        dffs: 21,
        gates: 193,
        depth: 9,
    },
];

/// ISCAS'85 combinational profiles (no flip-flops). The paper evaluates
/// on ISCAS'89; these widen the workload space for the suite's own
/// experiments (pure-combinational SER is the regime the paper's
/// introduction motivates).
const ISCAS85: [Profile; 10] = [
    Profile {
        name: "c432",
        inputs: 36,
        outputs: 7,
        dffs: 0,
        gates: 160,
        depth: 17,
    },
    Profile {
        name: "c499",
        inputs: 41,
        outputs: 32,
        dffs: 0,
        gates: 202,
        depth: 11,
    },
    Profile {
        name: "c880",
        inputs: 60,
        outputs: 26,
        dffs: 0,
        gates: 383,
        depth: 24,
    },
    Profile {
        name: "c1355",
        inputs: 41,
        outputs: 32,
        dffs: 0,
        gates: 546,
        depth: 24,
    },
    Profile {
        name: "c1908",
        inputs: 33,
        outputs: 25,
        dffs: 0,
        gates: 880,
        depth: 40,
    },
    Profile {
        name: "c2670",
        inputs: 233,
        outputs: 140,
        dffs: 0,
        gates: 1193,
        depth: 32,
    },
    Profile {
        name: "c3540",
        inputs: 50,
        outputs: 22,
        dffs: 0,
        gates: 1669,
        depth: 47,
    },
    Profile {
        name: "c5315",
        inputs: 178,
        outputs: 123,
        dffs: 0,
        gates: 2307,
        depth: 49,
    },
    Profile {
        name: "c6288",
        inputs: 32,
        outputs: 32,
        dffs: 0,
        gates: 2416,
        depth: 124,
    },
    Profile {
        name: "c7552",
        inputs: 207,
        outputs: 108,
        dffs: 0,
        gates: 3512,
        depth: 43,
    },
];

/// Looks a profile up by benchmark name across all tables.
#[must_use]
pub fn profile(name: &str) -> Option<Profile> {
    TABLE2
        .iter()
        .chain(SMALL.iter())
        .chain(ISCAS85.iter())
        .find(|p| p.name == name)
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper_order() {
        assert_eq!(TABLE2.len(), 11);
        assert_eq!(TABLE2[0].name, "s953");
        assert_eq!(TABLE2[10].name, "s38417");
    }

    #[test]
    fn lookup_by_name() {
        let p = profile("s1423").unwrap();
        assert_eq!(p.dffs, 74);
        assert_eq!(profile("c7552").unwrap().gates, 3512);
        assert!(profile("b17").is_none());
        let small = profile("s298").unwrap();
        assert_eq!(small.gates, 119);
    }

    #[test]
    fn iscas85_is_combinational() {
        for p in &ISCAS85 {
            assert_eq!(p.dffs, 0, "{}", p.name);
        }
        assert_eq!(profile("c6288").unwrap().depth, 124);
    }

    #[test]
    fn profiles_are_sane() {
        for p in TABLE2.iter().chain(SMALL.iter()).chain(ISCAS85.iter()) {
            assert!(p.inputs > 0, "{}", p.name);
            assert!(p.outputs > 0, "{}", p.name);
            assert!(p.gates > p.depth, "{}", p.name);
            assert!(!p.to_string().is_empty());
        }
    }
}
