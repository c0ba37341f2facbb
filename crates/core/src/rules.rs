//! EPP propagation rules — Table 1 of the paper, extended to every gate
//! kind in the netlist IR.
//!
//! The paper prints the AND, OR and NOT rules; the rest follow:
//! NAND/NOR are the AND/OR rules composed with the NOT swap, BUF and the
//! flip-flop D pin are identities, and XOR/XNOR admit an *exact*
//! symbolic rule because XOR is linear — representing each value as
//! `c ⊕ d·x` (with `x` the unknown erroneous value, so `0 = (0,0)`,
//! `1 = (1,0)`, `a = (0,1)`, `ā = (1,1)`), an XOR gate adds tuples
//! componentwise over GF(2).
//!
//! All rules assume the gate's inputs are independent — the same
//! assumption the paper makes; its accuracy under reconvergence is
//! quantified against the exact oracle in this crate's tests and the
//! ablation benches.
//!
//! # The fused 4-wide form
//!
//! Internally every rule runs over 4-wide lane arrays `[Pa, Pā, P0,
//! P1]` (see [`FourValue::lanes`]) in a **single fused pass**: the AND
//! and OR rules keep their three running products in independent
//! accumulator lanes updated together per fanin (instead of
//! re-traversing the fanin list once per product), and XOR's bilinear
//! symbol addition is written as four unrolled lane expressions. Per
//! accumulator, the multiplication order is exactly the order the
//! original three-pass formulation used, so the fused form is
//! **bit-identical** — it only removes redundant traversals and gives
//! the compiler independent lanes to schedule. No core uses FMA or
//! reassociates a sum, so every rounding step is the one written here.
//!
//! # Pin rows
//!
//! The AND and OR cores read their fanins as fixed rows of four, the
//! last row padded with the rule's identity tuple: `(0, 0, 0, 1)` for
//! AND ([`AND_IDENTITY`]) and `(0, 0, 1, 0)` for OR ([`OR_IDENTITY`]).
//! Either one's three factors are exactly `1.0`, and `x × 1.0 == x`
//! for every finite `f64`, so a padded row multiplies the same values
//! in the same order as the unpadded pins: bit-identical, with a
//! fixed trip count and no per-gate pin count. The copy rule reads its
//! one pin; XOR reads its true pins.
//!
//! These are the only rule cores: the planned sweep kernel drives them
//! through [`RuleOp`] + [`propagate_pins`], reading each pin straight
//! off its value plane (whose pin rows the plans pad with the
//! identities' positions), and the public [`propagate`] feeds the
//! same cores padded rows of a slice (the per-site reference kernel in
//! `ser-oracle` calls it).

use ser_netlist::GateKind;

use crate::four_value::FourValue;

/// The compiled dispatch of one on-path gate: which fused rule core to
/// run, which of the AND and OR rules it is, and whether the output is
/// seen through an inverter. Resolved **once per gate** by a table
/// lookup — the per-pin inner loops below are dispatch-free. The AND/OR
/// choice and the inverter are bit masks ([`pick`]) rather than flags,
/// so neither is a branch: a gate mix that changes from member to
/// member would mispredict one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RuleOp {
    class: RuleClass,
    /// All ones for the OR rule, whose blocking value is read off `P0`;
    /// zero for the AND rule, which reads it off `P1`.
    or_mask: u64,
    /// All ones where the AND/OR product lands in `P0` rather than
    /// `P1`: OR and NAND.
    blocked_low_mask: u64,
    /// All ones behind an inverter (NAND, NOR, NOT, XNOR).
    invert_mask: u64,
}

/// The three fused rule cores (NAND/NOR/XNOR/NOT are the base class
/// composed with the NOT swap).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RuleClass {
    /// BUF and the flip-flop D pin: the tuple passes through.
    Copy,
    /// Table 1, AND row, and its dual, the OR row.
    AndOr,
    /// The exact GF(2) symbol addition.
    Xor,
}

impl RuleOp {
    /// Classifies a gate kind.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is a source ([`GateKind::Input`],
    /// [`GateKind::Const0`], [`GateKind::Const1`]) — an error cannot
    /// propagate *into* a source.
    #[inline(always)]
    pub(crate) fn of(kind: GateKind) -> RuleOp {
        // A table load rather than a `match`: a gate mix that changes
        // from member to member then costs no mispredicted jump.
        RuleOp::TABLE[kind as usize].unwrap_or_else(|| panic!("{kind} cannot be an on-path gate"))
    }

    /// [`classify`](Self::classify) of every gate kind, indexed by the
    /// kind's discriminant.
    const TABLE: [Option<RuleOp>; 12] = {
        let kinds = [
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
        let mut table = [None; 12];
        let mut i = 0;
        while i < kinds.len() {
            table[kinds[i] as usize] = RuleOp::classify(kinds[i]);
            i += 1;
        }
        table
    };

    /// The dispatch of `kind`, or `None` for a source.
    const fn classify(kind: GateKind) -> Option<RuleOp> {
        let (class, or, invert) = match kind {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => return None,
            // The D pin passes the tuple through; latching is accounted
            // for by `P_latched`, not by the propagation rules.
            GateKind::Buf | GateKind::Dff => (RuleClass::Copy, false, false),
            GateKind::Not => (RuleClass::Copy, false, true),
            GateKind::And => (RuleClass::AndOr, false, false),
            GateKind::Nand => (RuleClass::AndOr, false, true),
            GateKind::Or => (RuleClass::AndOr, true, false),
            GateKind::Nor => (RuleClass::AndOr, true, true),
            GateKind::Xor => (RuleClass::Xor, false, false),
            GateKind::Xnor => (RuleClass::Xor, false, true),
        };
        const fn mask(on: bool) -> u64 {
            0u64.wrapping_sub(on as u64)
        }
        Some(RuleOp {
            class,
            or_mask: mask(or),
            blocked_low_mask: mask(or != invert),
            invert_mask: mask(invert),
        })
    }

    /// The rule's output seen through the gate's inverter, if any.
    #[inline(always)]
    fn finish(self, out: FourValue) -> FourValue {
        let [pa, pa_bar, p0, p1] = out.lanes();
        let m = self.invert_mask;
        FourValue::from_lanes([
            pick(m, pa_bar, pa),
            pick(m, pa, pa_bar),
            pick(m, p1, p0),
            pick(m, p0, p1),
        ])
    }
}

/// `a` where `mask` is all ones, `b` where it is zero: a bitwise blend,
/// exact for every value. The masks come from [`RuleOp::TABLE`], data
/// the compiler cannot see through, so the blend stays mask operations
/// where a `bool` select would be compiled back into a branch (the
/// x86-64 baseline has no `blendv`).
#[inline(always)]
fn pick(mask: u64, a: f64, b: f64) -> f64 {
    f64::from_bits((a.to_bits() & mask) | (b.to_bits() & !mask))
}

/// The AND rule's padding tuple, `from_signal_probability(1.0)`: its
/// factors `[P1, P1 + Pa, P1 + Pā]` are exactly `[1, 1, 1]`.
pub(crate) const AND_IDENTITY: [f64; 4] = [0.0, 0.0, 0.0, 1.0];

/// The OR rule's padding tuple, `from_signal_probability(0.0)`: its
/// factors `[P0, P0 + Pa, P0 + Pā]` are exactly `[1, 1, 1]`.
pub(crate) const OR_IDENTITY: [f64; 4] = [0.0, 0.0, 1.0, 0.0];

/// Four fanin tuples of an AND or OR gate, the last row of a gate
/// padded with its rule's identity.
type Row = [[f64; 4]; 4];

/// Runs a pre-dispatched rule over a gate's pin positions, reading
/// each pin's lanes through `lane` — the sweep kernel's entry point:
/// the dispatch happened in [`RuleOp::of`], outside the per-pin loop.
/// An AND/OR gate's `pins` are whole rows of four, padded with
/// positions whose lanes are [`AND_IDENTITY`] or [`OR_IDENTITY`]; any
/// other gate's are its true pins. The three rule classes are a branch;
/// within the AND/OR class, the rule and the inverter are not.
///
/// # Panics
///
/// Panics if `pins` is empty.
#[inline(always)]
pub(crate) fn propagate_pins(
    op: RuleOp,
    pins: &[u32],
    lane: impl Fn(u32) -> [f64; 4],
) -> FourValue {
    match op.class {
        RuleClass::Copy => op.finish(FourValue::from_lanes(lane(pins[0]))),
        RuleClass::AndOr => {
            let (rows, _) = pins.as_chunks::<4>();
            and_or_core(op, rows.len(), |i| {
                let [a, b, c, d] = rows[i];
                [lane(a), lane(b), lane(c), lane(d)]
            })
        }
        RuleClass::Xor => op.finish(xor_core(pins.len(), |i| lane(pins[i]))),
    }
}

/// Applies the propagation rule of `kind` to the gate's fanin tuples
/// (on-path fanins carry real four-value tuples; off-path fanins carry
/// [`FourValue::from_signal_probability`] tuples).
///
/// # Panics
///
/// Panics if `inputs.len()` is illegal for `kind`, or if `kind` is
/// [`GateKind::Input`], [`GateKind::Const0`] or [`GateKind::Const1`]
/// (sources are never on-path gates — an error cannot propagate *into*
/// a source).
#[must_use]
pub fn propagate(kind: GateKind, inputs: &[FourValue]) -> FourValue {
    assert!(
        kind.arity_ok(inputs.len()),
        "{kind} cannot take {} inputs",
        inputs.len()
    );
    let op = RuleOp::of(kind);
    let identity = if op.or_mask == 0 {
        AND_IDENTITY
    } else {
        OR_IDENTITY
    };
    let row = |i: usize| {
        let mut row = [identity; 4];
        for (slot, x) in row
            .iter_mut()
            .zip(&inputs[4 * i..inputs.len().min(4 * i + 4)])
        {
            *slot = x.lanes();
        }
        row
    };
    match op.class {
        RuleClass::Copy => op.finish(inputs[0]),
        RuleClass::AndOr => and_or_core(op, inputs.len().div_ceil(4), row),
        RuleClass::Xor => op.finish(xor_core(inputs.len(), |i| inputs[i].lanes())),
    }
}

/// Table 1's AND row, fused, over `rows` padded rows (at least one):
/// `P1 = Π P1(Xi)`,
/// `Pa = Π [P1(Xi) + Pa(Xi)] − P1`,
/// `Pā = Π [P1(Xi) + Pā(Xi)] − P1`,
/// `P0 = 1 − (P1 + Pa + Pā)`;
/// or, for an OR-class `op`, its dual, the OR row, with the roles of
/// `P1` and `P0` swapped. The blocking lane and the output lanes are
/// picked by `op`'s masks, so AND, NAND, OR and NOR gates run the same
/// instructions.
///
/// The three products run as independent accumulator lanes in one
/// pass over the pins, each multiplying in pin order, exactly as the
/// one-product-per-traversal form did. The lanes start from the first
/// pin's factors rather than from `1.0`: `1.0 × x == x` exactly for
/// every finite `f64`, so a unit seed could not change a bit, and a
/// padded pin's factors are exactly `1.0` for the same reason.
#[inline(always)]
fn and_or_core(op: RuleOp, rows: usize, row: impl Fn(usize) -> Row) -> FourValue {
    let factors = |x: [f64; 4]| {
        let blocking = pick(op.or_mask, x[2], x[3]);
        [blocking, blocking + x[0], blocking + x[1]]
    };
    let mul = |acc: [f64; 3], x: [f64; 4]| {
        let f = factors(x);
        [acc[0] * f[0], acc[1] * f[1], acc[2] * f[2]]
    };
    let [x0, x1, x2, x3] = row(0);
    let mut acc = mul(mul(mul(factors(x0), x1), x2), x3);
    for i in 1..rows {
        let [x0, x1, x2, x3] = row(i);
        acc = mul(mul(mul(mul(acc, x0), x1), x2), x3);
    }
    let [blocked, with_a, with_a_bar] = acc;
    let pa = with_a - blocked;
    let pa_bar = with_a_bar - blocked;
    let rest = 1.0 - (blocked + pa + pa_bar);
    // Clamped as AND lays it out, then placed: the product goes to `P0`
    // for OR and NAND, and an inverter swaps `Pa` and `Pā`.
    let [pa, pa_bar, rest, blocked] = FourValue::new_clamped(pa, pa_bar, rest, blocked).lanes();
    let (inv, low) = (op.invert_mask, op.blocked_low_mask);
    FourValue::from_lanes([
        pick(inv, pa_bar, pa),
        pick(inv, pa, pa_bar),
        pick(low, blocked, rest),
        pick(low, rest, blocked),
    ])
}

/// Exact XOR rule: fold the inputs pairwise through the GF(2) symbol
/// addition `0=(0,0), 1=(1,0), a=(0,1), ā=(1,1)`:
///
/// ```text
/// ⊕ | 0   1   a   ā
/// --+----------------
/// 0 | 0   1   a   ā
/// 1 | 1   0   ā   a
/// a | a   ā   0   1
/// ā | ā   a   1   0
/// ```
///
/// Note `a ⊕ a = 0` and `a ⊕ ā = 1`: two copies of the error meeting at
/// an XOR cancel *regardless of the error's actual value* — the
/// polarity bookkeeping that motivates the paper's four-value tuple.
#[inline(always)]
fn xor_core(pins: usize, pin: impl Fn(usize) -> [f64; 4]) -> FourValue {
    let mut acc = pin(0);
    for i in 1..pins {
        acc = xor2(acc, pin(i));
    }
    FourValue::from_lanes(acc)
}

/// One GF(2) symbol addition over lanes — four unrolled output lanes,
/// each summing its four products in the fixed order below (the
/// bit-identity contract: reassociating these sums would move bits).
#[inline]
fn xor2(l: [f64; 4], r: [f64; 4]) -> [f64; 4] {
    let [lpa, lpab, lp0, lp1] = l;
    let [rpa, rpab, rp0, rp1] = r;
    // out = 0: (0,0),(1,1),(a,a),(ā,ā)
    let p0 = lp0 * rp0 + lp1 * rp1 + lpa * rpa + lpab * rpab;
    // out = 1: (0,1),(1,0),(a,ā),(ā,a)
    let p1 = lp0 * rp1 + lp1 * rp0 + lpa * rpab + lpab * rpa;
    // out = a: (0,a),(a,0),(1,ā),(ā,1)
    let pa = lp0 * rpa + lpa * rp0 + lp1 * rpab + lpab * rp1;
    // out = ā: (0,ā),(ā,0),(1,a),(a,1)
    let pa_bar = lp0 * rpab + lpab * rp0 + lp1 * rpa + lpa * rp1;
    FourValue::new_clamped(pa, pa_bar, p0, p1).lanes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn off(sp: f64) -> FourValue {
        FourValue::from_signal_probability(sp)
    }

    /// The paper's worked Fig. 1 numbers: H = OR(C, D, G) with
    /// C off-path (SP 0.3), D = 0.2(a)+0.8(0), G = 0.7(ā)+0.3(0).
    #[test]
    fn figure1_or_gate() {
        let c = off(0.3);
        let d = FourValue::new(0.2, 0.0, 0.8, 0.0);
        let g = FourValue::new(0.0, 0.7, 0.3, 0.0);
        let h = propagate(GateKind::Or, &[c, d, g]);
        assert!((h.p0() - 0.168).abs() < 1e-12, "P0 = {}", h.p0());
        assert!((h.pa() - 0.042).abs() < 1e-12, "Pa = {}", h.pa());
        assert!((h.pa_bar() - 0.392).abs() < 1e-12, "Pā = {}", h.pa_bar());
        assert!((h.p1() - 0.398).abs() < 1e-12, "P1 = {}", h.p1());
    }

    #[test]
    fn and_with_one_off_path_side() {
        // Error arrives clean (pure a); side input has SP 0.7.
        // AND propagates iff side is 1: Pa = 0.7; blocked at 0 otherwise.
        let out = propagate(GateKind::And, &[FourValue::error_site(), off(0.7)]);
        assert!((out.pa() - 0.7).abs() < 1e-12);
        assert_eq!(out.pa_bar(), 0.0);
        assert!((out.p0() - 0.3).abs() < 1e-12);
        assert_eq!(out.p1(), 0.0);
    }

    #[test]
    fn or_with_one_off_path_side() {
        // OR propagates iff side is 0.
        let out = propagate(GateKind::Or, &[FourValue::error_site(), off(0.7)]);
        assert!((out.pa() - 0.3).abs() < 1e-12);
        assert!((out.p1() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn nand_nor_compose_not() {
        let inputs = [FourValue::error_site(), off(0.6)];
        let nand = propagate(GateKind::Nand, &inputs);
        let and_not = propagate(GateKind::And, &inputs).invert();
        assert_eq!(nand, and_not);
        let nor = propagate(GateKind::Nor, &inputs);
        let or_not = propagate(GateKind::Or, &inputs).invert();
        assert_eq!(nor, or_not);
        // NAND flips polarity: incoming a leaves as ā.
        assert!(nand.pa_bar() > 0.0);
        assert_eq!(nand.pa(), 0.0);
    }

    #[test]
    fn buf_and_dff_are_identity() {
        let v = FourValue::new(0.2, 0.3, 0.4, 0.1);
        assert_eq!(propagate(GateKind::Buf, &[v]), v);
        assert_eq!(propagate(GateKind::Dff, &[v]), v);
    }

    #[test]
    fn not_swaps() {
        let v = FourValue::new(0.2, 0.3, 0.4, 0.1);
        let w = propagate(GateKind::Not, &[v]);
        assert_eq!(w, v.invert());
    }

    #[test]
    fn xor_cancels_equal_polarity() {
        // a ⊕ a = 0 with certainty.
        let a = FourValue::error_site();
        let out = propagate(GateKind::Xor, &[a, a]);
        assert_eq!(out.p0(), 1.0);
        assert_eq!(out.p_arrival(), 0.0);
    }

    #[test]
    fn xor_of_a_and_abar_is_one() {
        let a = FourValue::error_site();
        let abar = a.invert();
        let out = propagate(GateKind::Xor, &[a, abar]);
        assert_eq!(out.p1(), 1.0);
    }

    #[test]
    fn xor_with_off_path_side_flips_polarity_by_sp() {
        // XOR with side SP p: error passes always; polarity flips iff
        // side = 1.
        let out = propagate(GateKind::Xor, &[FourValue::error_site(), off(0.3)]);
        assert!((out.pa() - 0.7).abs() < 1e-12);
        assert!((out.pa_bar() - 0.3).abs() < 1e-12);
        assert_eq!(out.p0() + out.p1(), 0.0);
    }

    #[test]
    fn xnor_is_xor_inverted() {
        let inputs = [FourValue::error_site(), off(0.3)];
        assert_eq!(
            propagate(GateKind::Xnor, &inputs),
            propagate(GateKind::Xor, &inputs).invert()
        );
    }

    #[test]
    fn three_input_xor_associates() {
        let v1 = FourValue::new(0.2, 0.1, 0.4, 0.3);
        let v2 = FourValue::new(0.0, 0.5, 0.25, 0.25);
        let v3 = off(0.5);
        let left = propagate(GateKind::Xor, &[propagate(GateKind::Xor, &[v1, v2]), v3]);
        let flat = propagate(GateKind::Xor, &[v1, v2, v3]);
        assert!(left.max_abs_diff(&flat) < 1e-12);
        let right = propagate(GateKind::Xor, &[v1, propagate(GateKind::Xor, &[v2, v3])]);
        assert!(right.max_abs_diff(&flat) < 1e-12);
    }

    #[test]
    fn all_off_path_inputs_yield_plain_signal_probability() {
        // With no error on any input, the rules degenerate to the
        // independent SP computation.
        let out = propagate(GateKind::And, &[off(0.5), off(0.5)]);
        assert_eq!(out.p_arrival(), 0.0);
        assert!((out.p1() - 0.25).abs() < 1e-12);
        let out = propagate(GateKind::Or, &[off(0.5), off(0.5)]);
        assert!((out.p1() - 0.75).abs() < 1e-12);
        let out = propagate(GateKind::Xor, &[off(0.5), off(0.5)]);
        assert!((out.p1() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn outputs_always_sum_to_one() {
        // Spot-check closure over a grid of inputs for every logic kind.
        let grid = [
            FourValue::new(0.25, 0.25, 0.25, 0.25),
            FourValue::new(1.0, 0.0, 0.0, 0.0),
            FourValue::new(0.0, 0.0, 0.3, 0.7),
            FourValue::new(0.1, 0.6, 0.1, 0.2),
        ];
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            for &x in &grid {
                for &y in &grid {
                    let out = propagate(kind, &[x, y]);
                    assert!((out.sum() - 1.0).abs() < 1e-9, "{kind}: sum {}", out.sum());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot be an on-path gate")]
    fn sources_rejected() {
        let _ = propagate(GateKind::Const0, &[]);
    }
}

#[cfg(test)]
mod property_tests {
    //! The rules must equal brute-force enumeration over the four-symbol
    //! alphabet `{0, 1, a, ā}` for *independent* inputs — that is the
    //! exact semantics Table 1 encodes. Symbols are encoded as
    //! `value = c ⊕ d·x` with `x` the (unknown) erroneous value.

    use super::*;
    use crate::engine::PolarityMode;
    use crate::four_value::FourValue;
    use proptest::prelude::*;

    /// (c, d) encodings: 0, 1, a, ā.
    const SYMBOLS: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

    fn symbol_probability(v: &FourValue, sym: usize) -> f64 {
        match sym {
            0 => v.p0(),
            1 => v.p1(),
            2 => v.pa(),
            _ => v.pa_bar(),
        }
    }

    /// Evaluates the gate over concrete bools for a given x, per input
    /// symbol assignment.
    fn eval_for_x(kind: GateKind, assignment: &[usize], x: bool) -> bool {
        let bools: Vec<bool> = assignment
            .iter()
            .map(|&s| {
                let (c, d) = SYMBOLS[s];
                c ^ (d & x)
            })
            .collect();
        kind.eval_bool(&bools)
    }

    /// Brute-force reference: enumerate all 4^n input-symbol
    /// assignments, weight by independence, classify the output symbol.
    fn enumerate(kind: GateKind, inputs: &[FourValue]) -> FourValue {
        let n = inputs.len();
        let (mut pa, mut pab, mut p0, mut p1) = (0.0, 0.0, 0.0, 0.0);
        for code in 0..4usize.pow(n as u32) {
            let assignment: Vec<usize> = (0..n).map(|i| code >> (2 * i) & 3).collect();
            let w: f64 = assignment
                .iter()
                .zip(inputs)
                .map(|(&s, v)| symbol_probability(v, s))
                .product();
            if w == 0.0 {
                continue;
            }
            let v0 = eval_for_x(kind, &assignment, false);
            let v1 = eval_for_x(kind, &assignment, true);
            match (v0, v1) {
                (false, false) => p0 += w,
                (true, true) => p1 += w,
                (false, true) => pa += w,  // equals x: even parity
                (true, false) => pab += w, // equals !x: odd parity
            }
        }
        FourValue::new_clamped(pa, pab, p0, p1)
    }

    /// Strategy: a normalized four-value tuple.
    fn four_value() -> impl Strategy<Value = FourValue> {
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0).prop_map(|(a, b, c, d)| {
            let sum = a + b + c + d;
            if sum == 0.0 {
                FourValue::from_signal_probability(0.5)
            } else {
                FourValue::new_clamped(a / sum, b / sum, c / sum, d / sum)
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// AND/OR/NOT (the published Table 1) and NAND/NOR/XOR/XNOR/BUF
        /// (our derived rules) all match symbolic enumeration exactly.
        #[test]
        fn rules_match_symbolic_enumeration(
            inputs in proptest::collection::vec(four_value(), 1..4),
            kind_idx in 0usize..8,
        ) {
            let kind = GateKind::LOGIC[kind_idx];
            // Unary kinds only take the first input.
            let inputs: Vec<FourValue> = if matches!(kind, GateKind::Not | GateKind::Buf) {
                inputs[..1].to_vec()
            } else {
                inputs
            };
            let fast = propagate(kind, &inputs);
            let slow = enumerate(kind, &inputs);
            prop_assert!(
                fast.max_abs_diff(&slow) < 1e-9,
                "{kind}: rule {fast} vs enumeration {slow}"
            );
        }

        /// Closure: outputs are valid probability tuples.
        #[test]
        fn rules_preserve_tuple_invariant(
            inputs in proptest::collection::vec(four_value(), 2..4),
            kind_idx in 0usize..8,
        ) {
            let kind = GateKind::LOGIC[kind_idx];
            let inputs: Vec<FourValue> = if matches!(kind, GateKind::Not | GateKind::Buf) {
                inputs[..1].to_vec()
            } else {
                inputs
            };
            let out = propagate(kind, &inputs);
            prop_assert!((out.sum() - 1.0).abs() < 1e-9);
            prop_assert!(out.pa() >= 0.0 && out.pa() <= 1.0);
            prop_assert!(out.pa_bar() >= 0.0 && out.pa_bar() <= 1.0);
        }

        /// De Morgan at the rule level: NAND(xs) = NOT(AND(xs)) and the
        /// OR rule equals AND over inverted inputs, inverted.
        #[test]
        fn de_morgan_duality(inputs in proptest::collection::vec(four_value(), 2..4)) {
            let or_direct = propagate(GateKind::Or, &inputs);
            let inverted: Vec<FourValue> = inputs.iter().map(FourValue::invert).collect();
            let or_via_and = propagate(GateKind::And, &inverted).invert();
            prop_assert!(or_direct.max_abs_diff(&or_via_and) < 1e-9);
        }
    }

    /// Today's AND rule as it was before pin rows: the three products
    /// seeded from the first fanin's factors, one multiply per further
    /// fanin. Kept as the oracle the padded row core must match bit for
    /// bit.
    fn per_fanin_and_core(mut inputs: impl Iterator<Item = [f64; 4]>) -> FourValue {
        let factors = |[pa, pa_bar, _p0, p1]: [f64; 4]| [p1, p1 + pa, p1 + pa_bar];
        let mut acc = factors(inputs.next().expect("gate has a fanin"));
        for f in inputs.map(factors) {
            acc = [acc[0] * f[0], acc[1] * f[1], acc[2] * f[2]];
        }
        let p1 = acc[0];
        let pa = acc[1] - p1;
        let pa_bar = acc[2] - p1;
        let p0 = 1.0 - (p1 + pa + pa_bar);
        FourValue::new_clamped(pa, pa_bar, p0, p1)
    }

    /// The OR rule before pin rows, the oracle's dual.
    fn per_fanin_or_core(mut inputs: impl Iterator<Item = [f64; 4]>) -> FourValue {
        let factors = |[pa, pa_bar, p0, _p1]: [f64; 4]| [p0, p0 + pa, p0 + pa_bar];
        let mut acc = factors(inputs.next().expect("gate has a fanin"));
        for f in inputs.map(factors) {
            acc = [acc[0] * f[0], acc[1] * f[1], acc[2] * f[2]];
        }
        let p0 = acc[0];
        let pa = acc[1] - p0;
        let pa_bar = acc[2] - p0;
        let p1 = 1.0 - (p0 + pa + pa_bar);
        FourValue::new_clamped(pa, pa_bar, p0, p1)
    }

    /// The edge lane values: exact 0 and 1, the smallest subnormal and
    /// normal, 1 − ε, and two plain values.
    const EDGES: [f64; 7] = [
        0.0,
        1.0,
        5e-324,
        f64::MIN_POSITIVE,
        1.0 - f64::EPSILON,
        0.5,
        0.25,
    ];

    /// Strategy: a tuple that puts an edge value in one lane and the
    /// rest of the mass in another, or a random normalized tuple.
    fn edge_lanes() -> impl Strategy<Value = [f64; 4]> {
        (0usize..EDGES.len() + 1, 0usize..4, 0usize..3, four_value()).prop_map(
            |(e, i, j, random)| {
                let Some(&edge) = EDGES.get(e) else {
                    return random.lanes();
                };
                let mut lanes = [0.0; 4];
                lanes[i] = edge;
                lanes[(i + 1 + j) % 4] = 1.0 - edge;
                lanes
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The padded 4-wide row core, through both of its entry
        /// points — the slice form and the kernel's pin form over a
        /// plane holding the two identities — equals the per-fanin fold
        /// bit for bit: 1 to 9 pins (so rows continue past the first),
        /// duplicate pins, edge lanes, AND/NAND/OR/NOR, both polarity
        /// modes.
        #[test]
        fn padded_rows_match_per_fanin_fold(
            pool in proptest::collection::vec(edge_lanes(), 1..10),
            picks in proptest::collection::vec(0usize..9, 1..10),
            kind_idx in 0usize..4,
        ) {
            let kind = [GateKind::And, GateKind::Nand, GateKind::Or, GateKind::Nor][kind_idx];
            let op = RuleOp::of(kind);
            let or = matches!(kind, GateKind::Or | GateKind::Nor);
            // Picks index the pool modulo its size: pins repeat.
            let pins: Vec<u32> = picks.iter().map(|&i| (i % pool.len()) as u32).collect();
            let inputs = || pins.iter().map(|&p| pool[p as usize]);
            let per_fanin = if or {
                per_fanin_or_core(inputs())
            } else {
                per_fanin_and_core(inputs())
            };
            let per_fanin = if kind_idx % 2 == 1 { per_fanin.invert() } else { per_fanin };

            let values: Vec<FourValue> = inputs().map(FourValue::from_lanes).collect();
            let slice = propagate(kind, &values);

            let mut plane = pool.clone();
            let and_pad = u32::try_from(plane.len()).unwrap();
            plane.extend([AND_IDENTITY, OR_IDENTITY]);
            let mut padded = pins.clone();
            padded.resize(pins.len().div_ceil(4) * 4, if or { and_pad + 1 } else { and_pad });
            let rows = propagate_pins(op, &padded, |p| plane[p as usize]);

            for polarity in [PolarityMode::Tracked, PolarityMode::Merged] {
                let bits = |v: FourValue| polarity.apply(v).lanes().map(f64::to_bits);
                prop_assert_eq!(bits(slice), bits(per_fanin), "{} slice {:?}", kind, polarity);
                prop_assert_eq!(bits(rows), bits(per_fanin), "{} rows {:?}", kind, polarity);
            }
        }
    }
}
