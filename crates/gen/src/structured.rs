//! Structured combinational generators: arithmetic and datapath shapes
//! with known functional behaviour (the workloads the paper's
//! introduction motivates — logic whose soft errors corrupt data).

use ser_netlist::{Circuit, CircuitBuilder, GateKind, NodeId};

/// An `n`-bit ripple-carry adder: inputs `a0..`, `b0..`, `cin`;
/// outputs `s0..` and `cout`.
///
/// # Panics
///
/// Panics if `n` is 0.
///
/// # Examples
///
/// ```
/// use ser_gen::ripple_carry_adder;
///
/// let c = ripple_carry_adder(8);
/// assert_eq!(c.num_inputs(), 17);  // 8 + 8 + cin
/// assert_eq!(c.num_outputs(), 9);  // 8 sums + cout
/// ```
#[must_use]
pub fn ripple_carry_adder(n: usize) -> Circuit {
    assert!(n > 0, "adder width must be positive");
    let mut b = CircuitBuilder::new(format!("rca{n}"));
    let a: Vec<NodeId> = (0..n).map(|i| b.input(&format!("a{i}"))).collect();
    let bb: Vec<NodeId> = (0..n).map(|i| b.input(&format!("b{i}"))).collect();
    let mut carry = b.input("cin");
    for i in 0..n {
        let axb = b.gate(&format!("axb{i}"), GateKind::Xor, &[a[i], bb[i]]);
        let sum = b.gate(&format!("s{i}"), GateKind::Xor, &[axb, carry]);
        let ab = b.gate(&format!("ab{i}"), GateKind::And, &[a[i], bb[i]]);
        let ac = b.gate(&format!("ac{i}"), GateKind::And, &[axb, carry]);
        carry = b.gate(&format!("c{}", i + 1), GateKind::Or, &[ab, ac]);
        b.mark_output(sum);
    }
    b.mark_output(carry);
    b.finish().expect("adder is structurally valid")
}

/// An `n × n` array multiplier: inputs `a0..`, `b0..`; outputs
/// `p0..p{2n-1}`.
///
/// # Panics
///
/// Panics if `n` is 0.
#[cfg(test)]
// Row/column indices address the `pp`/`sums`/`carries` grids jointly;
// the index form mirrors the array-multiplier diagram.
#[allow(clippy::needless_range_loop)]
fn array_multiplier(n: usize) -> Circuit {
    assert!(n > 0, "multiplier width must be positive");
    let mut b = CircuitBuilder::new(format!("mul{n}"));
    let a: Vec<NodeId> = (0..n).map(|i| b.input(&format!("a{i}"))).collect();
    let bb: Vec<NodeId> = (0..n).map(|i| b.input(&format!("b{i}"))).collect();
    // Partial products.
    let mut pp = vec![vec![NodeId::from_index(0); n]; n];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in bb.iter().enumerate() {
            pp[i][j] = b.gate(&format!("pp{i}_{j}"), GateKind::And, &[ai, bj]);
        }
    }
    // Carry-save reduction, row by row.
    // row holds the current accumulated bits for columns i..i+n.
    let mut sums: Vec<NodeId> = pp[0].clone(); // column weights 0..n-1 for row 0
    let mut carries: Vec<NodeId> = Vec::new();
    b.mark_output(sums[0]); // p0
    let mut outputs = 1usize;
    let mut prev_carry: Vec<NodeId> = Vec::new();
    for i in 1..n {
        // Add row i (pp[i][j] at column i+j) into sums/carries.
        let mut new_sums = Vec::with_capacity(n);
        let mut new_carries = Vec::with_capacity(n);
        for j in 0..n {
            // Bits at column i + j: shifted accumulator bit, the fresh
            // partial product, and last row's carry (if any).
            let acc = if j + 1 < sums.len() {
                Some(sums[j + 1])
            } else {
                None
            };
            let carry_in = prev_carry.get(j).copied();
            let tag = format!("r{i}_{j}");
            let (s, c) = match (acc, carry_in) {
                (Some(x), Some(ci)) => full_adder(&mut b, &tag, x, pp[i][j], ci),
                (Some(x), None) => half_adder(&mut b, &tag, x, pp[i][j]),
                (None, Some(ci)) => half_adder(&mut b, &tag, pp[i][j], ci),
                (None, None) => {
                    let s = b.gate(&format!("s{tag}"), GateKind::Buf, &[pp[i][j]]);
                    let c = b.constant(&format!("c{tag}"), false);
                    (s, c)
                }
            };
            new_sums.push(s);
            new_carries.push(c);
        }
        b.mark_output(new_sums[0]); // p_i
        outputs += 1;
        sums = new_sums;
        prev_carry = new_carries;
        carries = prev_carry.clone();
    }
    // Final ripple: combine remaining sums (columns n..2n-1) with carries.
    let mut carry: Option<NodeId> = None;
    for j in 1..n {
        let tag = format!("f{j}");
        let ci = carries.get(j - 1).copied();
        let (s, c) = match (ci, carry) {
            (Some(x), Some(cc)) => full_adder(&mut b, &tag, sums[j], x, cc),
            (Some(x), None) => half_adder(&mut b, &tag, sums[j], x),
            (None, Some(cc)) => half_adder(&mut b, &tag, sums[j], cc),
            (None, None) => {
                let s = b.gate(&format!("s{tag}"), GateKind::Buf, &[sums[j]]);
                (s, b.constant(&format!("c{tag}"), false))
            }
        };
        b.mark_output(s);
        outputs += 1;
        carry = Some(c);
    }
    // Top bit.
    let last = carries.last().copied();
    let tag = "top".to_owned();
    let top = match (last, carry) {
        (Some(x), Some(cc)) => {
            let (s, _c) = half_adder(&mut b, &tag, x, cc);
            s
        }
        (Some(x), None) => x,
        (None, Some(cc)) => cc,
        (None, None) => b.constant("ctop", false),
    };
    b.mark_output(top);
    outputs += 1;
    debug_assert_eq!(outputs, 2 * n);
    b.finish().expect("multiplier is structurally valid")
}

#[cfg(test)]
fn full_adder(
    b: &mut CircuitBuilder,
    tag: &str,
    x: NodeId,
    y: NodeId,
    z: NodeId,
) -> (NodeId, NodeId) {
    let xy = b.gate(&format!("fx{tag}"), GateKind::Xor, &[x, y]);
    let s = b.gate(&format!("fs{tag}"), GateKind::Xor, &[xy, z]);
    let and1 = b.gate(&format!("fa{tag}"), GateKind::And, &[x, y]);
    let and2 = b.gate(&format!("fb{tag}"), GateKind::And, &[xy, z]);
    let c = b.gate(&format!("fc{tag}"), GateKind::Or, &[and1, and2]);
    (s, c)
}

#[cfg(test)]
fn half_adder(b: &mut CircuitBuilder, tag: &str, x: NodeId, y: NodeId) -> (NodeId, NodeId) {
    let s = b.gate(&format!("hs{tag}"), GateKind::Xor, &[x, y]);
    let c = b.gate(&format!("hc{tag}"), GateKind::And, &[x, y]);
    (s, c)
}

/// A balanced XOR parity tree over `n` inputs — maximally transparent
/// to errors (every SEU always propagates), the anti-masking extreme of
/// the ablation sweeps.
///
/// # Panics
///
/// Panics if `n` is 0.
#[must_use]
pub fn parity_tree(n: usize) -> Circuit {
    assert!(n > 0, "parity width must be positive");
    let mut b = CircuitBuilder::new(format!("parity{n}"));
    let mut layer: Vec<NodeId> = (0..n).map(|i| b.input(&format!("i{i}"))).collect();
    let mut next_id = 0usize;
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for pair in layer.chunks(2) {
            if pair.len() == 2 {
                next.push(b.gate(&format!("x{next_id}"), GateKind::Xor, &[pair[0], pair[1]]));
                next_id += 1;
            } else {
                next.push(pair[0]);
            }
        }
        layer = next;
    }
    let out = if n == 1 {
        // Degenerate: buffer the single input.
        b.gate("x0", GateKind::Buf, &[layer[0]])
    } else {
        layer[0]
    };
    b.mark_output(out);
    b.finish().expect("parity tree is structurally valid")
}

/// A `2^k : 1` multiplexer tree: `2^k` data inputs, `k` select lines,
/// one output — strong logical masking (only the selected path
/// propagates), the opposite extreme from [`parity_tree`].
///
/// # Panics
///
/// Panics if `k` is 0 or greater than 16.
#[must_use]
pub fn mux_tree(k: usize) -> Circuit {
    assert!((1..=16).contains(&k), "select width must be 1..=16");
    let mut b = CircuitBuilder::new(format!("mux{k}"));
    let data: Vec<NodeId> = (0..1usize << k)
        .map(|i| b.input(&format!("d{i}")))
        .collect();
    let sel: Vec<NodeId> = (0..k).map(|i| b.input(&format!("s{i}"))).collect();
    let seln: Vec<NodeId> = (0..k)
        .map(|i| b.gate(&format!("sn{i}"), GateKind::Not, &[sel[i]]))
        .collect();
    let mut layer = data;
    for level in 0..k {
        let mut next = Vec::with_capacity(layer.len() / 2);
        for (j, pair) in layer.chunks(2).enumerate() {
            let a_side = b.gate(
                &format!("m{level}_{j}a"),
                GateKind::And,
                &[pair[0], seln[level]],
            );
            let b_side = b.gate(
                &format!("m{level}_{j}b"),
                GateKind::And,
                &[pair[1], sel[level]],
            );
            next.push(b.gate(&format!("m{level}_{j}"), GateKind::Or, &[a_side, b_side]));
        }
        layer = next;
    }
    b.mark_output(layer[0]);
    b.finish().expect("mux tree is structurally valid")
}

/// An `n`-bit equality comparator: `eq = AND_i XNOR(a_i, b_i)`.
///
/// # Panics
///
/// Panics if `n` is 0.
#[must_use]
pub fn equality_comparator(n: usize) -> Circuit {
    assert!(n > 0, "comparator width must be positive");
    let mut b = CircuitBuilder::new(format!("eq{n}"));
    let a: Vec<NodeId> = (0..n).map(|i| b.input(&format!("a{i}"))).collect();
    let bb: Vec<NodeId> = (0..n).map(|i| b.input(&format!("b{i}"))).collect();
    let bits: Vec<NodeId> = (0..n)
        .map(|i| b.gate(&format!("x{i}"), GateKind::Xnor, &[a[i], bb[i]]))
        .collect();
    let eq = b.gate("eq", GateKind::And, &bits);
    b.mark_output(eq);
    b.finish().expect("comparator is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ser_sim::BitSim;

    fn scalar_inputs(c: &Circuit, assign: impl Fn(&str) -> bool) -> Vec<bool> {
        c.inputs()
            .iter()
            .map(|&id| assign(c.node(id).name()))
            .collect()
    }

    #[test]
    fn adder_adds() {
        let n = 4;
        let c = ripple_carry_adder(n);
        let sim = BitSim::new(&c).unwrap();
        for a in 0u32..16 {
            for bv in 0u32..16 {
                for cin in 0u32..2 {
                    let bits = scalar_inputs(&c, |name| {
                        if let Some(i) = name.strip_prefix('a') {
                            a >> i.parse::<u32>().unwrap() & 1 != 0
                        } else if let Some(i) = name.strip_prefix('b') {
                            bv >> i.parse::<u32>().unwrap() & 1 != 0
                        } else {
                            cin != 0
                        }
                    });
                    let v = sim.run_scalar(&bits);
                    let mut got = 0u32;
                    for i in 0..n {
                        let s = c.find(&format!("s{i}")).unwrap();
                        if v[s.index()] {
                            got |= 1 << i;
                        }
                    }
                    let cout = c.find(&format!("c{n}")).unwrap();
                    if v[cout.index()] {
                        got |= 1 << n;
                    }
                    assert_eq!(got, a + bv + cin, "{a} + {bv} + {cin}");
                }
            }
        }
    }

    #[test]
    fn multiplier_multiplies() {
        let n = 3;
        let c = array_multiplier(n);
        let sim = BitSim::new(&c).unwrap();
        assert_eq!(c.num_outputs(), 2 * n);
        for a in 0u32..8 {
            for bv in 0u32..8 {
                let bits = scalar_inputs(&c, |name| {
                    if let Some(i) = name.strip_prefix('a') {
                        a >> i.parse::<u32>().unwrap() & 1 != 0
                    } else {
                        let i = name.strip_prefix('b').unwrap();
                        bv >> i.parse::<u32>().unwrap() & 1 != 0
                    }
                });
                let v = sim.run_scalar(&bits);
                let mut got = 0u32;
                for (w, &po) in c.outputs().iter().enumerate() {
                    if v[po.index()] {
                        got |= 1 << w;
                    }
                }
                assert_eq!(got, a * bv, "{a} * {bv} (got {got})");
            }
        }
    }

    #[test]
    fn parity_tree_is_parity() {
        let c = parity_tree(9);
        let sim = BitSim::new(&c).unwrap();
        let out = c.outputs()[0];
        for pattern in [0u32, 1, 0b101, 0b111111111, 0b100100100] {
            let bits: Vec<bool> = (0..9).map(|i| pattern >> i & 1 != 0).collect();
            let v = sim.run_scalar(&bits);
            assert_eq!(v[out.index()], pattern.count_ones() % 2 == 1);
        }
    }

    #[test]
    fn parity_of_one_input() {
        let c = parity_tree(1);
        assert_eq!(c.num_gates(), 1);
    }

    #[test]
    fn mux_selects() {
        let k = 3;
        let c = mux_tree(k);
        let sim = BitSim::new(&c).unwrap();
        let out = c.outputs()[0];
        let data = 0b10110100u32; // d_i = bit i
        for sel in 0u32..8 {
            let bits = scalar_inputs(&c, |name| {
                if let Some(i) = name.strip_prefix('d') {
                    data >> i.parse::<u32>().unwrap() & 1 != 0
                } else {
                    let i = name.strip_prefix('s').unwrap();
                    sel >> i.parse::<u32>().unwrap() & 1 != 0
                }
            });
            let v = sim.run_scalar(&bits);
            assert_eq!(v[out.index()], data >> sel & 1 != 0, "sel {sel}");
        }
    }

    #[test]
    fn comparator_compares() {
        let c = equality_comparator(4);
        let sim = BitSim::new(&c).unwrap();
        let out = c.outputs()[0];
        for a in 0u32..16 {
            for bv in [a, (a + 1) % 16, (a + 7) % 16] {
                let bits = scalar_inputs(&c, |name| {
                    if let Some(i) = name.strip_prefix('a') {
                        a >> i.parse::<u32>().unwrap() & 1 != 0
                    } else {
                        let i = name.strip_prefix('b').unwrap();
                        bv >> i.parse::<u32>().unwrap() & 1 != 0
                    }
                });
                let v = sim.run_scalar(&bits);
                assert_eq!(v[out.index()], a == bv, "{a} vs {bv}");
            }
        }
    }
}
