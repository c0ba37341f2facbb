//! Gate kinds and their boolean semantics.

use std::fmt;
use std::str::FromStr;

/// The kind of a circuit node.
///
/// Primary inputs and flip-flops are modelled as node kinds so a
/// [`Circuit`](crate::Circuit) is a single homogeneous arena: a
/// [`GateKind::Input`] node has no fanin, a [`GateKind::Dff`] node has
/// exactly one fanin (its D pin) and acts as a *source* for combinational
/// analysis (its Q output) and as a *sink* for the D signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    /// Primary input (no fanin).
    Input,
    /// D flip-flop; fanin is the single D signal, node value is Q.
    Dff,
    /// Logical AND of all fanins (n >= 1).
    And,
    /// Logical NAND of all fanins (n >= 1).
    Nand,
    /// Logical OR of all fanins (n >= 1).
    Or,
    /// Logical NOR of all fanins (n >= 1).
    Nor,
    /// Inverter (exactly 1 fanin).
    Not,
    /// Buffer (exactly 1 fanin).
    Buf,
    /// Exclusive OR of all fanins (n >= 1), i.e. odd parity.
    Xor,
    /// Complement of XOR, i.e. even parity (n >= 1).
    Xnor,
    /// Constant logic 0 (no fanin).
    Const0,
    /// Constant logic 1 (no fanin).
    Const1,
}

impl GateKind {
    /// All gate kinds, in a fixed order (for exhaustive tests).
    #[cfg(test)]
    const ALL: [GateKind; 12] = [
        GateKind::Input,
        GateKind::Dff,
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Not,
        GateKind::Buf,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Const0,
        GateKind::Const1,
    ];

    /// The kinds that compute a boolean function of their fanins
    /// (everything except inputs, flip-flops and constants).
    pub const LOGIC: [GateKind; 8] = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Not,
        GateKind::Buf,
        GateKind::Xor,
        GateKind::Xnor,
    ];

    /// Returns `true` if `n` is a legal fanin count for this kind.
    ///
    /// `AND`/`NAND`/`OR`/`NOR`/`XOR`/`XNOR` accept one or more inputs
    /// (a one-input AND degenerates to a buffer, one-input NAND to an
    /// inverter, and so on — the evaluation rules below honour this).
    #[must_use]
    pub fn arity_ok(self, n: usize) -> bool {
        match self {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => n == 0,
            GateKind::Dff | GateKind::Not | GateKind::Buf => n == 1,
            GateKind::And
            | GateKind::Nand
            | GateKind::Or
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor => n >= 1,
        }
    }

    /// Returns `true` for kinds that are pure logic gates (excludes
    /// inputs, flip-flops and constants).
    #[must_use]
    pub fn is_logic(self) -> bool {
        !matches!(
            self,
            GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1
        )
    }

    /// Evaluate the gate over boolean fanin values.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if `inputs.len()` violates
    /// [`arity_ok`](Self::arity_ok), and panics for [`GateKind::Input`]
    /// (inputs have no defining function). [`GateKind::Dff`] evaluates to
    /// its D input, which is the *next-state* function — sequential
    /// semantics live in the simulator, not here.
    #[must_use]
    pub fn eval_bool(self, inputs: &[bool]) -> bool {
        debug_assert!(
            self.arity_ok(inputs.len()),
            "{self} cannot take {} inputs",
            inputs.len()
        );
        match self {
            GateKind::Input => panic!("primary input has no defining function"),
            GateKind::Const0 => false,
            GateKind::Const1 => true,
            GateKind::Dff | GateKind::Buf => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And => inputs.iter().all(|&b| b),
            GateKind::Nand => !inputs.iter().all(|&b| b),
            GateKind::Or => inputs.iter().any(|&b| b),
            GateKind::Nor => !inputs.iter().any(|&b| b),
            GateKind::Xor => inputs.iter().fold(false, |acc, &b| acc ^ b),
            GateKind::Xnor => !inputs.iter().fold(false, |acc, &b| acc ^ b),
        }
    }

    /// Evaluate the gate bitwise over 64-pattern words (one pattern per
    /// bit), the workhorse of the bit-parallel simulator.
    ///
    /// # Panics
    ///
    /// Same conditions as [`eval_bool`](Self::eval_bool).
    #[must_use]
    pub fn eval_word(self, inputs: &[u64]) -> u64 {
        debug_assert!(
            self.arity_ok(inputs.len()),
            "{self} cannot take {} inputs",
            inputs.len()
        );
        match self {
            GateKind::Input => panic!("primary input has no defining function"),
            GateKind::Const0 => 0,
            GateKind::Const1 => !0,
            GateKind::Dff | GateKind::Buf => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And => inputs.iter().fold(!0u64, |acc, &w| acc & w),
            GateKind::Nand => !inputs.iter().fold(!0u64, |acc, &w| acc & w),
            GateKind::Or => inputs.iter().fold(0u64, |acc, &w| acc | w),
            GateKind::Nor => !inputs.iter().fold(0u64, |acc, &w| acc | w),
            GateKind::Xor => inputs.iter().fold(0u64, |acc, &w| acc ^ w),
            GateKind::Xnor => !inputs.iter().fold(0u64, |acc, &w| acc ^ w),
        }
    }

    /// The `.bench` keyword for this kind, upper-case.
    ///
    /// Inputs and constants have no gate keyword in the bench format;
    /// they are rendered as declarations by the writer instead.
    #[must_use]
    pub fn bench_keyword(self) -> &'static str {
        match self {
            GateKind::Input => "INPUT",
            GateKind::Dff => "DFF",
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Not => "NOT",
            GateKind::Buf => "BUF",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Const0 => "CONST0",
            GateKind::Const1 => "CONST1",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.bench_keyword())
    }
}

/// Error returned when parsing a [`GateKind`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
// ser-lint: allow(orphan) — `GateKind`'s `FromStr::Err`: callers get it from
// `str::parse` without naming it, and it must be public to be that type.
pub struct ParseGateKindError {
    text: String,
}

impl fmt::Display for ParseGateKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown gate kind `{}`", self.text)
    }
}

impl std::error::Error for ParseGateKindError {}

impl FromStr for GateKind {
    type Err = ParseGateKindError;

    /// Parses a `.bench`-style keyword, case-insensitively. `BUFF` is
    /// accepted as an alias for `BUF` (both spellings appear in the wild).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let up = s.to_ascii_uppercase();
        Ok(match up.as_str() {
            "INPUT" => GateKind::Input,
            "DFF" => GateKind::Dff,
            "AND" => GateKind::And,
            "NAND" => GateKind::Nand,
            "OR" => GateKind::Or,
            "NOR" => GateKind::Nor,
            "NOT" | "INV" => GateKind::Not,
            "BUF" | "BUFF" => GateKind::Buf,
            "XOR" => GateKind::Xor,
            "XNOR" => GateKind::Xnor,
            "CONST0" => GateKind::Const0,
            "CONST1" => GateKind::Const1,
            _ => return Err(ParseGateKindError { text: s.to_owned() }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_rules() {
        assert!(GateKind::Input.arity_ok(0));
        assert!(!GateKind::Input.arity_ok(1));
        assert!(GateKind::Not.arity_ok(1));
        assert!(!GateKind::Not.arity_ok(2));
        assert!(GateKind::Dff.arity_ok(1));
        assert!(!GateKind::Dff.arity_ok(0));
        assert!(GateKind::And.arity_ok(1));
        assert!(GateKind::And.arity_ok(9));
        assert!(!GateKind::And.arity_ok(0));
        assert!(GateKind::Const0.arity_ok(0));
        assert!(!GateKind::Const1.arity_ok(1));
    }

    #[test]
    fn eval_two_input_truth_tables() {
        let cases: [(GateKind, [bool; 4]); 6] = [
            (GateKind::And, [false, false, false, true]),
            (GateKind::Nand, [true, true, true, false]),
            (GateKind::Or, [false, true, true, true]),
            (GateKind::Nor, [true, false, false, false]),
            (GateKind::Xor, [false, true, true, false]),
            (GateKind::Xnor, [true, false, false, true]),
        ];
        for (kind, expected) in cases {
            for (i, want) in expected.iter().enumerate() {
                let a = i & 1 != 0;
                let b = i & 2 != 0;
                assert_eq!(kind.eval_bool(&[a, b]), *want, "{kind}({a},{b})");
            }
        }
    }

    #[test]
    fn eval_unary() {
        assert!(!GateKind::Not.eval_bool(&[true]));
        assert!(GateKind::Not.eval_bool(&[false]));
        assert!(GateKind::Buf.eval_bool(&[true]));
        assert!(!GateKind::Buf.eval_bool(&[false]));
        assert!(GateKind::Dff.eval_bool(&[true]));
    }

    #[test]
    fn eval_constants() {
        assert!(!GateKind::Const0.eval_bool(&[]));
        assert!(GateKind::Const1.eval_bool(&[]));
    }

    #[test]
    fn eval_multi_input_parity() {
        // XOR over 3 inputs is odd parity.
        assert!(GateKind::Xor.eval_bool(&[true, true, true]));
        assert!(!GateKind::Xor.eval_bool(&[true, true, false]));
        assert!(!GateKind::Xnor.eval_bool(&[true, true, true]));
    }

    #[test]
    fn word_eval_matches_bool_eval() {
        // For every logic kind and every 3-input assignment, the word
        // evaluation of broadcast constants must equal the bool evaluation.
        for kind in GateKind::LOGIC {
            let n = if matches!(kind, GateKind::Not | GateKind::Buf) {
                1
            } else {
                3
            };
            for bits in 0u32..(1 << n) {
                let bools: Vec<bool> = (0..n).map(|i| bits >> i & 1 != 0).collect();
                let words: Vec<u64> = bools.iter().map(|&b| if b { !0 } else { 0 }).collect();
                let want = if kind.eval_bool(&bools) { !0u64 } else { 0 };
                assert_eq!(kind.eval_word(&words), want, "{kind} {bools:?}");
            }
        }
    }

    #[test]
    fn word_eval_is_bitwise_independent() {
        // Bit i of the output depends only on bit i of the inputs.
        let a = 0b1100u64;
        let b = 0b1010u64;
        assert_eq!(GateKind::And.eval_word(&[a, b]), 0b1000);
        assert_eq!(GateKind::Or.eval_word(&[a, b]), 0b1110);
        assert_eq!(GateKind::Xor.eval_word(&[a, b]), 0b0110);
        assert_eq!(GateKind::Nand.eval_word(&[a, b]) & 0xF, 0b0111);
    }

    #[test]
    fn keyword_round_trip() {
        for kind in GateKind::ALL {
            let parsed: GateKind = kind.bench_keyword().parse().unwrap();
            assert_eq!(parsed, kind);
            // lower-case also accepted
            let parsed: GateKind = kind.bench_keyword().to_lowercase().parse().unwrap();
            assert_eq!(parsed, kind);
        }
    }

    #[test]
    fn parse_aliases_and_failures() {
        assert_eq!("BUFF".parse::<GateKind>().unwrap(), GateKind::Buf);
        assert_eq!("inv".parse::<GateKind>().unwrap(), GateKind::Not);
        assert!("MAJ".parse::<GateKind>().is_err());
        let err = "FOO".parse::<GateKind>().unwrap_err();
        assert!(err.to_string().contains("FOO"));
    }
}
