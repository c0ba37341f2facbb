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
