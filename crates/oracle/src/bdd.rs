//! Reduced Ordered Binary Decision Diagrams — the classic symbolic
//! substrate for *exact* probability computation beyond the reach of
//! input enumeration.
//!
//! A node's signal probability is computed in one pass over its BDD:
//! `P(f) = (1 − p_v) · P(f.lo) + p_v · P(f.hi)` — linear in BDD size
//! where enumeration is exponential in input count. Circuits with large
//! support but benign structure (adders, comparators, control logic)
//! get exact answers; genuinely exponential functions (multipliers) hit
//! the node limit and report an error instead of silently burning CPU.
//!
//! The manager is deliberately minimal: complement edges and dynamic
//! reordering are not implemented (clarity over peak capacity); the
//! variable order is the circuit's source order.

// ser-lint: allow(no-hash-iter) — this module's maps are memo/interning
// tables: keyed get/insert only, never iterated, so arena order never
// leaks into node numbering or floats (see the per-field notes below).
use std::collections::HashMap;

use ser_netlist::GateKind;
use ser_sp::SpError;

/// A BDD function handle (index into the manager's node arena).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BddRef(u32);

impl BddRef {
    /// The constant FALSE function.
    pub const FALSE: BddRef = BddRef(0);
    /// The constant TRUE function.
    pub const TRUE: BddRef = BddRef(1);

    /// `true` if this handle is one of the two constants.
    #[must_use]
    fn is_constant(self) -> bool {
        self.0 <= 1
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BddNode {
    /// Decision variable (level); smaller = closer to the root.
    var: u32,
    /// Cofactor for `var = 0`.
    lo: BddRef,
    /// Cofactor for `var = 1`.
    hi: BddRef,
}

/// Error raised when a BDD grows past the manager's node limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BddOverflow {
    /// The limit that was exceeded.
    pub limit: usize,
}

/// Callers report an overflow as the engine's size limit.
impl From<BddOverflow> for SpError {
    fn from(o: BddOverflow) -> Self {
        SpError::CircuitTooLarge {
            nodes: o.limit,
            limit: o.limit,
        }
    }
}

/// A reduced, ordered BDD manager with hash-consing and an ITE cache.
#[derive(Debug)]
pub struct Bdd {
    nodes: Vec<BddNode>,
    // ser-lint: allow(no-hash-iter) — interning table, get/insert only;
    // node numbering comes from push order on `nodes`, never from here.
    unique: HashMap<BddNode, BddRef>,
    // ser-lint: allow(no-hash-iter) — memo for `ite`, get/insert only.
    ite_cache: HashMap<(BddRef, BddRef, BddRef), BddRef>,
    num_vars: u32,
    limit: usize,
}

impl Bdd {
    /// Creates a manager for `num_vars` variables with a node limit.
    ///
    /// # Panics
    ///
    /// Panics if `limit < 2` (the constants must fit).
    #[must_use]
    pub fn new(num_vars: usize, limit: usize) -> Self {
        assert!(limit >= 2, "limit must hold at least the constants");
        // Slot 0/1 are dummies standing for the constants (never
        // dereferenced: `is_constant` guards every traversal).
        let sentinel = BddNode {
            var: u32::MAX,
            lo: BddRef::FALSE,
            hi: BddRef::FALSE,
        };
        Bdd {
            nodes: vec![sentinel, sentinel],
            // ser-lint: allow(no-hash-iter) — constructor for the
            // lookup-only unique table above.
            unique: HashMap::new(),
            // ser-lint: allow(no-hash-iter) — constructor for the
            // lookup-only ITE memo above.
            ite_cache: HashMap::new(),
            num_vars: u32::try_from(num_vars).expect("var count fits u32"),
            limit,
        }
    }

    /// Number of live nodes (constants included).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The projection function of variable `v`.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflow`] if the node limit is already exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn var(&mut self, v: usize) -> Result<BddRef, BddOverflow> {
        assert!((v as u32) < self.num_vars, "variable {v} out of range");
        self.mk(v as u32, BddRef::FALSE, BddRef::TRUE)
    }

    fn mk(&mut self, var: u32, lo: BddRef, hi: BddRef) -> Result<BddRef, BddOverflow> {
        if lo == hi {
            return Ok(lo); // reduction rule
        }
        let node = BddNode { var, lo, hi };
        if let Some(&r) = self.unique.get(&node) {
            return Ok(r);
        }
        if self.nodes.len() >= self.limit {
            return Err(BddOverflow { limit: self.limit });
        }
        let r = BddRef(u32::try_from(self.nodes.len()).expect("node count fits u32"));
        self.nodes.push(node);
        self.unique.insert(node, r);
        Ok(r)
    }

    fn var_of(&self, f: BddRef) -> u32 {
        if f.is_constant() {
            u32::MAX
        } else {
            self.nodes[f.0 as usize].var
        }
    }

    fn cofactors(&self, f: BddRef, var: u32) -> (BddRef, BddRef) {
        if f.is_constant() || self.nodes[f.0 as usize].var != var {
            (f, f)
        } else {
            let n = self.nodes[f.0 as usize];
            (n.lo, n.hi)
        }
    }

    /// If-then-else: the universal connective all others derive from.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflow`] if the result would exceed the limit.
    fn ite(&mut self, f: BddRef, g: BddRef, h: BddRef) -> Result<BddRef, BddOverflow> {
        // Terminal cases.
        if f == BddRef::TRUE {
            return Ok(g);
        }
        if f == BddRef::FALSE {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        if g == BddRef::TRUE && h == BddRef::FALSE {
            return Ok(f);
        }
        if let Some(&r) = self.ite_cache.get(&(f, g, h)) {
            return Ok(r);
        }
        let top = self.var_of(f).min(self.var_of(g)).min(self.var_of(h));
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let (h0, h1) = self.cofactors(h, top);
        let lo = self.ite(f0, g0, h0)?;
        let hi = self.ite(f1, g1, h1)?;
        let r = self.mk(top, lo, hi)?;
        self.ite_cache.insert((f, g, h), r);
        Ok(r)
    }

    /// Logical NOT.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflow`] on node-limit exhaustion.
    pub fn not(&mut self, f: BddRef) -> Result<BddRef, BddOverflow> {
        self.ite(f, BddRef::FALSE, BddRef::TRUE)
    }

    /// Logical AND.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflow`] on node-limit exhaustion.
    pub fn and(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, BddOverflow> {
        self.ite(f, g, BddRef::FALSE)
    }

    /// Logical OR.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflow`] on node-limit exhaustion.
    pub fn or(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, BddOverflow> {
        self.ite(f, BddRef::TRUE, g)
    }

    /// Logical XOR.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflow`] on node-limit exhaustion.
    pub fn xor(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, BddOverflow> {
        let ng = self.not(g)?;
        self.ite(f, ng, g)
    }

    /// The function of a logic gate of `kind` over its fanins'
    /// functions: one AND, OR or XOR fold across `fanins`, complemented
    /// for the inverting kinds. Sources (inputs, flip-flops, constants)
    /// have no gate function; each caller maps its own.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflow`] on node-limit exhaustion.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not a logic gate or `fanins` is empty.
    pub fn gate(&mut self, kind: GateKind, fanins: &[BddRef]) -> Result<BddRef, BddOverflow> {
        type Op = fn(&mut Bdd, BddRef, BddRef) -> Result<BddRef, BddOverflow>;
        let (op, invert): (Op, bool) = match kind {
            GateKind::Buf | GateKind::And => (Bdd::and, false),
            GateKind::Not | GateKind::Nand => (Bdd::and, true),
            GateKind::Or => (Bdd::or, false),
            GateKind::Nor => (Bdd::or, true),
            GateKind::Xor => (Bdd::xor, false),
            GateKind::Xnor => (Bdd::xor, true),
            GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1 => {
                panic!("{kind} is a source, not a gate")
            }
        };
        let mut acc = fanins[0];
        for &f in &fanins[1..] {
            acc = op(self, acc, f)?;
        }
        if invert {
            self.not(acc)
        } else {
            Ok(acc)
        }
    }

    /// The probability that `f` evaluates to 1 when variable `v` is 1
    /// with independent probability `probs[v]`.
    ///
    /// Linear in the number of BDD nodes reachable from `f`.
    ///
    /// # Panics
    ///
    /// Panics if `probs.len()` differs from the manager's variable
    /// count, or any probability is outside `[0, 1]`.
    #[must_use]
    pub fn probability(&self, f: BddRef, probs: &[f64]) -> f64 {
        assert_eq!(
            probs.len(),
            self.num_vars as usize,
            "one probability per variable"
        );
        for (i, &p) in probs.iter().enumerate() {
            assert!(
                p.is_finite() && (0.0..=1.0).contains(&p),
                "p[{i}] = {p} outside [0,1]"
            );
        }
        // ser-lint: allow(no-hash-iter) — per-call probability memo,
        // get/insert only; the recursion order is BDD-structural.
        let mut memo: HashMap<BddRef, f64> = HashMap::new();
        self.prob_rec(f, probs, &mut memo)
    }

    // ser-lint: allow(no-hash-iter) — the memo parameter above; lookups only.
    fn prob_rec(&self, f: BddRef, probs: &[f64], memo: &mut HashMap<BddRef, f64>) -> f64 {
        if f == BddRef::FALSE {
            return 0.0;
        }
        if f == BddRef::TRUE {
            return 1.0;
        }
        if let Some(&p) = memo.get(&f) {
            return p;
        }
        let node = self.nodes[f.0 as usize];
        let p_var = probs[node.var as usize];
        let p = (1.0 - p_var) * self.prob_rec(node.lo, probs, memo)
            + p_var * self.prob_rec(node.hi, probs, memo);
        memo.insert(f, p);
        p
    }

    /// Counts the satisfying assignments of `f` over all variables
    /// (`2^n` scaled; exact for up to 63 variables).
    #[cfg(test)]
    fn sat_count(&self, f: BddRef) -> f64 {
        let probs = vec![0.5; self.num_vars as usize];
        self.probability(f, &probs) * 2f64.powi(self.num_vars as i32)
    }

    /// Number of nodes reachable from `f` (the *function's* size, as
    /// opposed to [`len`](Self::len), the arena size including dead
    /// intermediates — this manager does not garbage-collect).
    #[cfg(test)]
    fn reachable_count(&self, f: BddRef) -> usize {
        // ser-lint: allow(no-hash-iter) — visited-set for a reachability
        // walk; only `insert` and `len` are used, never iteration.
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        while let Some(r) = stack.pop() {
            if r.is_constant() || !seen.insert(r) {
                continue;
            }
            let n = self.nodes[r.0 as usize];
            stack.push(n.lo);
            stack.push(n.hi);
        }
        seen.len()
    }

    /// Extends `path` with `(variable, value)` decisions reaching the
    /// TRUE terminal from `f` (a satisfying assignment; variables not
    /// mentioned are don't-cares). Pushes nothing when `f` is FALSE.
    pub fn walk_to_true(&self, f: BddRef, path: &mut Vec<(usize, bool)>) {
        let mut cur = f;
        while !cur.is_constant() {
            let node = self.nodes[cur.0 as usize];
            // Prefer the branch that can still reach TRUE: a reduced BDD
            // with no complement edges reaches TRUE from every internal
            // node, but one branch may be the FALSE terminal.
            let (branch, value) = if node.hi != BddRef::FALSE {
                (node.hi, true)
            } else {
                (node.lo, false)
            };
            path.push((node.var as usize, value));
            cur = branch;
        }
        if cur == BddRef::FALSE {
            path.clear();
        }
    }

    /// Evaluates `f` under a concrete assignment.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len()` differs from the variable count.
    #[cfg(test)]
    fn eval(&self, f: BddRef, assignment: &[bool]) -> bool {
        assert_eq!(assignment.len(), self.num_vars as usize);
        let mut cur = f;
        while !cur.is_constant() {
            let node = self.nodes[cur.0 as usize];
            cur = if assignment[node.var as usize] {
                node.hi
            } else {
                node.lo
            };
        }
        cur == BddRef::TRUE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_vars() {
        let mut m = Bdd::new(2, 1000);
        let a = m.var(0).unwrap();
        assert!(!a.is_constant());
        assert!(BddRef::TRUE.is_constant());
        assert_eq!(m.probability(BddRef::TRUE, &[0.3, 0.7]), 1.0);
        assert_eq!(m.probability(BddRef::FALSE, &[0.3, 0.7]), 0.0);
        assert_eq!(m.probability(a, &[0.3, 0.7]), 0.3);
    }

    #[test]
    fn and_of_two_vars_has_product_probability() {
        let mut m = Bdd::new(2, 1 << 20);
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let f = m.and(a, b).unwrap();
        // P(a AND b) with p(a) = 0.5, p(b) = 0.25.
        let p = m.probability(f, &[0.5, 0.25]);
        assert!((p - 0.125).abs() < 1e-12);
        assert_ne!(f, BddRef::FALSE);
    }

    #[test]
    fn gate_agrees_with_eval_word_for_every_logic_kind() {
        for kind in GateKind::LOGIC {
            for n in (1..=4).filter(|&n| kind.arity_ok(n)) {
                let mut m = Bdd::new(n, 1 << 12);
                let vars: Vec<BddRef> = (0..n).map(|v| m.var(v).unwrap()).collect();
                let f = m.gate(kind, &vars).unwrap();
                // Pattern `p` gives variable `v` the value of bit `v` of
                // `p`, so word `v` holds that variable across all 2^n
                // patterns.
                let words: Vec<u64> = (0..n)
                    .map(|v| {
                        (0..1u64 << n)
                            .filter(|p| p >> v & 1 != 0)
                            .fold(0, |w, p| w | 1 << p)
                    })
                    .collect();
                let want = kind.eval_word(&words);
                for p in 0..1usize << n {
                    let assignment: Vec<bool> = (0..n).map(|v| p >> v & 1 != 0).collect();
                    assert_eq!(
                        m.eval(f, &assignment),
                        want >> p & 1 != 0,
                        "{kind} over {n} fanins, assignment {assignment:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn hash_consing_is_canonical() {
        let mut m = Bdd::new(2, 1000);
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let f1 = m.and(a, b).unwrap();
        let f2 = m.and(b, a).unwrap();
        assert_eq!(f1, f2, "AND is canonical regardless of operand order");
        let g1 = m.or(a, b).unwrap();
        let ng = m.not(g1).unwrap();
        let na = m.not(a).unwrap();
        let nb = m.not(b).unwrap();
        let g2 = m.and(na, nb).unwrap();
        assert_eq!(ng, g2, "De Morgan holds structurally");
    }

    #[test]
    fn truth_table_agreement() {
        // Random 3-var expressions vs direct evaluation.
        let mut m = Bdd::new(3, 10_000);
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let c = m.var(2).unwrap();
        let ab = m.and(a, b).unwrap();
        let f = m.xor(ab, c).unwrap(); // (a & b) ^ c
        for code in 0u32..8 {
            let assignment = [(code & 1) != 0, (code & 2) != 0, (code & 4) != 0];
            let want = (assignment[0] & assignment[1]) ^ assignment[2];
            assert_eq!(m.eval(f, &assignment), want, "{assignment:?}");
        }
        assert_eq!(m.sat_count(f), 4.0);
    }

    #[test]
    fn probability_matches_enumeration() {
        let mut m = Bdd::new(3, 10_000);
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let c = m.var(2).unwrap();
        let ab = m.or(a, b).unwrap();
        let f = m.and(ab, c).unwrap();
        let probs = [0.2, 0.5, 0.9];
        let mut want = 0.0;
        for code in 0u32..8 {
            let bits = [(code & 1) != 0, (code & 2) != 0, (code & 4) != 0];
            if (bits[0] | bits[1]) & bits[2] {
                let mut w = 1.0;
                for (i, &bit) in bits.iter().enumerate() {
                    w *= if bit { probs[i] } else { 1.0 - probs[i] };
                }
                want += w;
            }
        }
        assert!((m.probability(f, &probs) - want).abs() < 1e-12);
    }

    #[test]
    fn xor_chain_stays_linear() {
        // XOR chains are the BDD best case: n vars -> O(n) nodes.
        let n = 40;
        let mut m = Bdd::new(n, 4096);
        let mut acc = m.var(0).unwrap();
        for v in 1..n {
            let x = m.var(v).unwrap();
            acc = m.xor(acc, x).unwrap();
        }
        // The *function* is linear (2n-1 internal nodes); the arena also
        // holds dead intermediates from the fold (no GC), quadratically.
        let live = m.reachable_count(acc);
        assert_eq!(live, 2 * n - 1, "xor chain function size");
        assert!(
            m.len() < 2 * n * n,
            "arena blew past quadratic: {}",
            m.len()
        );
        let probs = vec![0.5; n];
        assert!((m.probability(acc, &probs) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn node_limit_enforced() {
        // A function family with exponential BDDs under a bad order:
        // the "hidden weighted bit"-ish AND-OR mesh; simpler: just set a
        // tiny limit so even small functions overflow.
        let mut m = Bdd::new(8, 6);
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let c = m.var(2).unwrap();
        let ab = m.and(a, b);
        let f = ab.and_then(|ab| m.or(ab, c));
        assert!(
            matches!(f, Err(BddOverflow { limit: 6 })),
            "expected overflow, got {f:?}"
        );
    }

    #[test]
    fn idempotence_and_annihilation() {
        let mut m = Bdd::new(1, 100);
        let a = m.var(0).unwrap();
        assert_eq!(m.and(a, a).unwrap(), a);
        assert_eq!(m.or(a, a).unwrap(), a);
        assert_eq!(m.xor(a, a).unwrap(), BddRef::FALSE);
        assert_eq!(m.and(a, BddRef::FALSE).unwrap(), BddRef::FALSE);
        assert_eq!(m.or(a, BddRef::TRUE).unwrap(), BddRef::TRUE);
        let na = m.not(a).unwrap();
        assert_eq!(m.and(a, na).unwrap(), BddRef::FALSE);
        assert_eq!(m.or(a, na).unwrap(), BddRef::TRUE);
        let nna = m.not(na).unwrap();
        assert_eq!(nna, a, "double negation is the identity");
    }
}
