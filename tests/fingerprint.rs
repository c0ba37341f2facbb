//! `Circuit::structural_hash` is computed once, when a circuit is
//! built, and read back as a field. These tests hold that cached value
//! to the byte-at-a-time FNV-1a fold it has always been, on every way a
//! circuit comes into being, and pin two values so the wire's
//! `netlist_hash` provably never moves.

use proptest::prelude::*;
use ser_suite::gen::{c17, figure1, s27, RandomDag};
use ser_suite::netlist::{
    harden_tmr, parse_bench, parse_verilog, write_bench, write_verilog, Circuit,
};

/// The reference fold, recomputed from the public API on every call:
/// the circuit name, the node count, each node's (name, `0xFF`, kind,
/// fanin count, fanin ids) and the output list, little-endian, one byte
/// at a time.
fn fnv_oracle(c: &Circuit) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    eat(c.name().as_bytes());
    eat(&(c.len() as u64).to_le_bytes());
    for id in c.node_ids() {
        let node = c.node(id);
        eat(node.name().as_bytes());
        eat(&[0xFF, node.kind() as u8]);
        eat(&(node.fanin().len() as u32).to_le_bytes());
        for f in node.fanin() {
            eat(&(f.index() as u32).to_le_bytes());
        }
    }
    eat(&(c.outputs().len() as u64).to_le_bytes());
    for o in c.outputs() {
        eat(&(o.index() as u32).to_le_bytes());
    }
    h
}

fn assert_matches_oracle(c: &Circuit) {
    assert_eq!(c.structural_hash(), fnv_oracle(c), "{}", c.name());
}

/// The values the wire reports as `netlist_hash` for two embedded
/// benchmarks. A change here changes every client-visible hash.
#[test]
fn pinned_netlist_hashes() {
    assert_eq!(
        format!("{:016x}", c17().structural_hash()),
        "0fae6fe40398b14d"
    );
    assert_eq!(
        format!("{:016x}", s27().structural_hash()),
        "e258d9fe7261b9b4"
    );
}

#[test]
fn embedded_benchmarks_match_oracle() {
    for c in [figure1(), c17(), s27()] {
        assert_matches_oracle(&c);
        // A clone carries the cached value, not a stale or zeroed one.
        let clone = c.clone();
        assert_matches_oracle(&clone);
        assert_eq!(clone.structural_hash(), c.structural_hash());
    }
}

#[test]
fn parsers_and_transforms_match_oracle() {
    for c in [c17(), s27()] {
        let back = parse_bench(&write_bench(&c), c.name()).unwrap();
        assert_matches_oracle(&back);
        assert_eq!(back.structural_hash(), c.structural_hash());
    }

    let v = parse_verilog(&write_verilog(&s27())).unwrap();
    assert_matches_oracle(&v);

    let c = s27();
    let gate = c.find("G8").unwrap();
    let hardened = harden_tmr(&c, &[gate]).unwrap();
    assert_matches_oracle(&hardened);
    assert_ne!(hardened.structural_hash(), c.structural_hash());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_dags_match_oracle(
        inputs in 2usize..8,
        gates in 3usize..40,
        reconv in 0.0f64..1.0,
        seed in 0u64..1_000,
    ) {
        let c = RandomDag::new(inputs, gates)
            .with_reconvergence(reconv)
            .build(seed);
        prop_assert_eq!(c.structural_hash(), fnv_oracle(&c));
        prop_assert_eq!(c.clone().structural_hash(), fnv_oracle(&c));
    }
}
