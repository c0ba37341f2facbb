//! Persistent on-disk cache for compiled [`ConePlans`] — so a fleet
//! restart or a new replica never pays plan compilation for a circuit
//! any process has compiled before.
//!
//! # File format
//!
//! One file per circuit under the cache directory, named
//! `{structural_hash:016x}.serplan`. The layout is a flat,
//! mmap-friendly byte stream (fixed header, then contiguous
//! little-endian sections — no pointers, no compression):
//!
//! ```text
//! offset  size  field
//! 0       8     magic "SERPLANC"
//! 8       4     format version (u32 LE) — bump on any layout change
//! 12      4     reserved (0)
//! 16      8     circuit structural hash (u64 LE)
//! 24      8     payload length in bytes (u64 LE)
//! 32      8     FNV-1a checksum of the payload (u64 LE)
//! 40      …     payload: the arena tables, each as
//!               u64 element count + packed LE elements
//! ```
//!
//! The payload sections mirror [`ConePlans`]' fields in declaration
//! order (per-node chain tables, the per-position kind/fanin tables,
//! the shared tail position arena, then the four scalar stats).
//! [`NodeId`]s serialize as `u32` indices and [`GateKind`]s as
//! explicit `u8` tags — both stable across platforms.
//!
//! # Integrity
//!
//! [`PlanCache::load`] verifies magic, version, key and checksum and
//! returns `None` on **any** mismatch — truncated writes, bit rot,
//! stale format versions and hash collisions all degrade to a silent
//! recompile, never an error and never a wrong plan. Writes go through
//! a temp file + atomic rename so readers only ever observe complete
//! entries.
//!
//! # Size cap
//!
//! An optional byte budget ([`PlanCache::with_max_bytes`]) turns the
//! directory into an LRU: every successful [`PlanCache::load`] re-dates
//! its entry's mtime, and [`PlanCache::store`] evicts
//! oldest-mtime-first until the directory fits the cap again. Eviction
//! runs at store time only — a cache that is never written never
//! shrinks — and never removes the entry just stored, so a single
//! over-budget circuit still caches (the cap is a target, not an
//! invariant).

use std::collections::VecDeque;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

use crate::circuit::NodeId;
use crate::gate::GateKind;
use crate::plan::ConePlans;

const MAGIC: &[u8; 8] = b"SERPLANC";
const HEADER_LEN: usize = 40;

/// Extension of cache entries (`{hash:016x}.serplan`).
pub const PLAN_CACHE_EXT: &str = "serplan";

/// Aggregate statistics of one cache directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Number of `.serplan` entries present.
    pub entries: usize,
    /// Their total size in bytes.
    pub bytes: u64,
}

/// A persistent compile-artifact cache rooted at one directory (the
/// `plan_cache.rs` module docs specify the file format).
///
/// # Examples
///
/// ```no_run
/// use ser_netlist::{parse_bench, PlanCache, TopoArtifacts};
///
/// let c = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", "t")?;
/// let topo = TopoArtifacts::compute(&c)?;
/// let cache = PlanCache::new("/var/cache/ser");
/// let key = c.structural_hash();
/// let plans = match cache.load(key) {
///     Some(cached) => cached, // skip compilation entirely
///     None => {
///         let built = topo.cone_plans(&c).expect("fits budget").as_ref().clone();
///         let _ = cache.store(key, &built); // best-effort persist
///         built
///     }
/// };
/// # let _ = plans;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct PlanCache {
    dir: PathBuf,
    /// Byte budget for the directory (`None` = unbounded). See the
    /// [module docs](self) on the eviction policy.
    max_bytes: Option<u64>,
    /// Chaos-test fault injection; `None` in production.
    faults: Option<Arc<FaultPlan>>,
}

/// A single injected fault for one [`PlanCache::store`] call — the
/// crash shapes a production filesystem can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFault {
    /// Write only the first `keep` bytes of the encoded entry, then
    /// rename anyway: a present-but-torn file, as after power loss on
    /// a filesystem that reordered the rename past the data blocks.
    /// [`PlanCache::load`] must reject it via length/checksum.
    Torn {
        /// Bytes of the encoded entry actually written.
        keep: usize,
    },
    /// The data write itself fails (disk full / I/O error mid-write);
    /// `store` returns the error and cleans up the temp file.
    WriteError,
    /// The final rename fails; the complete temp file is cleaned up
    /// and `store` returns the error — no entry appears.
    RenameError,
}

/// A deterministic fault schedule for [`PlanCache`] chaos tests: each
/// [`PlanCache::store`] call consumes the next slot in order (`None` =
/// store healthily). Once the schedule is exhausted every store is
/// healthy. Shared via `Arc` so the injecting test keeps a handle.
#[derive(Debug, Default)]
pub struct FaultPlan {
    schedule: Mutex<VecDeque<Option<StoreFault>>>,
    injected: AtomicU64,
}

impl FaultPlan {
    /// A schedule consumed one slot per store, in order.
    #[must_use]
    pub fn new(schedule: impl IntoIterator<Item = Option<StoreFault>>) -> Self {
        FaultPlan {
            schedule: Mutex::new(schedule.into_iter().collect()),
            injected: AtomicU64::new(0),
        }
    }

    /// How many faults have actually been injected so far — lets a
    /// test assert its schedule was exercised, not silently skipped.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    fn next(&self) -> Option<StoreFault> {
        let fault = self
            .schedule
            .lock()
            .expect("fault schedule poisoned")
            .pop_front()
            .flatten();
        if fault.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fault
    }
}

/// What one [`PlanCache::store`] did: where the entry landed, and how
/// many older entries were evicted to make room under the byte cap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStoreOutcome {
    /// The stored entry's path.
    pub path: PathBuf,
    /// `.serplan` entries removed by LRU-by-mtime eviction (always 0
    /// on an unbounded cache).
    pub evicted: usize,
}

impl PlanCache {
    /// Version tag of the on-disk layout. Bumped whenever the
    /// [`ConePlans`] arena or the serialization changes; entries with
    /// any other version are ignored (and recompiled over).
    pub const FORMAT_VERSION: u32 = 1;

    /// A cache rooted at `dir` (created lazily on first store),
    /// unbounded.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PlanCache {
            dir: dir.into(),
            max_bytes: None,
            faults: None,
        }
    }

    /// Arms a chaos-test [`FaultPlan`]: each subsequent
    /// [`store`](Self::store) consumes one slot of the schedule. Never
    /// used in production paths.
    #[must_use]
    pub fn with_fault_plan(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Caps the directory at `max_bytes` total `.serplan` bytes
    /// (`None` removes the cap). At every store the oldest-mtime
    /// entries are evicted until the directory fits; loads re-date
    /// their entry so "oldest" means least recently *used*.
    #[must_use]
    pub fn with_max_bytes(mut self, max_bytes: Option<u64>) -> Self {
        self.max_bytes = max_bytes;
        self
    }

    /// The byte cap in force, if any.
    #[must_use]
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry path for one structural hash.
    #[must_use]
    pub fn entry_path(&self, hash: u64) -> PathBuf {
        self.dir.join(format!("{hash:016x}.{PLAN_CACHE_EXT}"))
    }

    /// Loads the cached plans for `hash`, or `None` when the entry is
    /// absent, truncated, corrupted, version-mismatched or keyed to a
    /// different hash — every failure mode means "recompile", never an
    /// error.
    #[must_use]
    pub fn load(&self, hash: u64) -> Option<ConePlans> {
        let path = self.entry_path(hash);
        let bytes = fs::read(&path).ok()?;
        let plans = decode(hash, &bytes)?;
        // Under a byte cap the mtime is the LRU recency, so a hit must
        // re-date the entry or eviction would remove the hottest
        // circuits in insertion order. Best-effort: a read-only
        // directory still serves hits, it just ages them.
        if self.max_bytes.is_some() {
            let _ = fs::File::options()
                .append(true)
                .open(&path)
                .and_then(|f| f.set_modified(SystemTime::now()));
        }
        Some(plans)
    }

    /// Persists `plans` under `hash`, atomically (temp file + rename):
    /// concurrent readers see either the old entry or the complete new
    /// one, never a torn write. Under a byte cap, then evicts
    /// oldest-mtime entries (never the one just stored) until the
    /// directory fits again.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (callers typically treat a failed
    /// store as best-effort and carry on with the in-memory plans).
    pub fn store(&self, hash: u64, plans: &ConePlans) -> io::Result<PlanStoreOutcome> {
        fs::create_dir_all(&self.dir)?;
        let path = self.entry_path(hash);
        let tmp = self.dir.join(format!(
            "{hash:016x}.{PLAN_CACHE_EXT}.tmp{}",
            std::process::id()
        ));
        let bytes = encode(hash, plans);
        let fault = self.faults.as_ref().and_then(|f| f.next());
        let result = (|| {
            let mut f = fs::File::create(&tmp)?;
            match fault {
                Some(StoreFault::Torn { keep }) => {
                    // The crash shape: a truncated entry becomes
                    // visible under the final name. `load` must treat
                    // it as a miss and the next store overwrites it.
                    f.write_all(&bytes[..keep.min(bytes.len())])?;
                    f.sync_all()?;
                    return fs::rename(&tmp, &path);
                }
                Some(StoreFault::WriteError) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "injected mid-write failure",
                    ));
                }
                Some(StoreFault::RenameError) | None => {}
            }
            f.write_all(&bytes)?;
            f.sync_all()?;
            if matches!(fault, Some(StoreFault::RenameError)) {
                return Err(io::Error::other("injected rename failure"));
            }
            fs::rename(&tmp, &path)
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result?;
        let evicted = self.evict_to_cap(&path)?;
        Ok(PlanStoreOutcome { path, evicted })
    }

    /// Removes oldest-mtime `.serplan` entries (never `keep`) until the
    /// directory's total fits the byte cap; a no-op on an unbounded
    /// cache. Returns how many entries were removed.
    fn evict_to_cap(&self, keep: &Path) -> io::Result<usize> {
        let Some(cap) = self.max_bytes else {
            return Ok(0);
        };
        let mut total: u64 = 0;
        let mut candidates: Vec<(SystemTime, u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(PLAN_CACHE_EXT) {
                continue;
            }
            let meta = entry.metadata()?;
            total += meta.len();
            if path != keep {
                // Entries whose mtime is unreadable evict first — on
                // such a filesystem recency is unknowable anyway.
                let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                candidates.push((mtime, meta.len(), path));
            }
        }
        if total <= cap {
            return Ok(0);
        }
        // Oldest first; path breaks mtime ties so eviction order is
        // deterministic on coarse-timestamp filesystems.
        candidates.sort();
        let mut evicted = 0;
        for (_, len, path) in candidates {
            if total <= cap {
                break;
            }
            match fs::remove_file(&path) {
                Ok(()) => {
                    total -= len;
                    evicted += 1;
                }
                // A concurrent process beat us to it: the bytes are
                // gone either way.
                Err(e) if e.kind() == io::ErrorKind::NotFound => total -= len,
                Err(e) => return Err(e),
            }
        }
        Ok(evicted)
    }

    /// Entry count and total bytes of the cache directory. A missing
    /// directory is an empty cache, not an error.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than a missing directory.
    pub fn stats(&self) -> io::Result<PlanCacheStats> {
        let mut stats = PlanCacheStats::default();
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(stats),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            if entry.path().extension().and_then(|e| e.to_str()) == Some(PLAN_CACHE_EXT) {
                stats.entries += 1;
                stats.bytes += entry.metadata()?.len();
            }
        }
        Ok(stats)
    }

    /// Removes every `.serplan` entry; returns how many were deleted.
    /// A missing directory counts as already clear.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than a missing directory.
    pub fn clear(&self) -> io::Result<usize> {
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let mut removed = 0;
        for entry in entries {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some(PLAN_CACHE_EXT) {
                fs::remove_file(&path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

fn kind_to_u8(kind: GateKind) -> u8 {
    match kind {
        GateKind::Input => 0,
        GateKind::Dff => 1,
        GateKind::And => 2,
        GateKind::Nand => 3,
        GateKind::Or => 4,
        GateKind::Nor => 5,
        GateKind::Not => 6,
        GateKind::Buf => 7,
        GateKind::Xor => 8,
        GateKind::Xnor => 9,
        GateKind::Const0 => 10,
        GateKind::Const1 => 11,
    }
}

fn kind_from_u8(tag: u8) -> Option<GateKind> {
    GateKind::ALL.get(tag as usize).copied()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn put_u32s(out: &mut Vec<u8>, v: &[u32]) {
    out.extend_from_slice(&(v.len() as u64).to_le_bytes());
    for &x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// Serializes `plans` into the full file image (header included).
pub(crate) fn encode(hash: u64, plans: &ConePlans) -> Vec<u8> {
    let mut p = Vec::new();
    put_u32s(&mut p, &plans.chain_next);
    put_u32s(&mut p, &plans.tail_of);
    put_u32s(&mut p, &plans.prefix_len);
    put_u32s(&mut p, &plans.path_pins_after);
    put_u32s(&mut p, &plans.path_obs_from);
    put_u32s(&mut p, &plans.node_obs_off);
    put_u32s(&mut p, &plans.node_obs);
    p.extend_from_slice(&(plans.pos_node.len() as u64).to_le_bytes());
    for &id in &plans.pos_node {
        p.extend_from_slice(&(id.index() as u32).to_le_bytes());
    }
    p.extend_from_slice(&(plans.pos_kind.len() as u64).to_le_bytes());
    for &kind in &plans.pos_kind {
        p.push(kind_to_u8(kind));
    }
    put_u32s(&mut p, &plans.pos_fanin_off);
    p.extend_from_slice(&(plans.pos_fanins.len() as u64).to_le_bytes());
    for &(pf, off) in &plans.pos_fanins {
        p.extend_from_slice(&pf.to_le_bytes());
        p.extend_from_slice(&off.to_le_bytes());
    }
    put_u32s(&mut p, &plans.tail_start);
    put_u32s(&mut p, &plans.tail_end);
    put_u32s(&mut p, &plans.tail_pins);
    put_u32s(&mut p, &plans.tail_positions);
    put_u32s(&mut p, &plans.tail_obs_off);
    p.extend_from_slice(&(plans.tail_obs.len() as u64).to_le_bytes());
    for &(obs, local) in &plans.tail_obs {
        p.extend_from_slice(&obs.to_le_bytes());
        p.extend_from_slice(&local.to_le_bytes());
    }
    p.extend_from_slice(&(plans.max_cone_len as u64).to_le_bytes());
    p.extend_from_slice(&(plans.chain_count as u64).to_le_bytes());
    p.extend_from_slice(&plans.logical_members.to_le_bytes());
    p.extend_from_slice(&plans.logical_observe_refs.to_le_bytes());

    let mut out = Vec::with_capacity(HEADER_LEN + p.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&PlanCache::FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&hash.to_le_bytes());
    out.extend_from_slice(&(p.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(&p).to_le_bytes());
    out.extend_from_slice(&p);
    out
}

/// Sequential little-endian reader over the payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let s = self.bytes.get(self.at..end)?;
        self.at = end;
        Some(s)
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn len(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    fn u32s(&mut self) -> Option<Vec<u32>> {
        let n = self.len()?;
        let raw = self.take(n.checked_mul(4)?)?;
        Some(
            raw.chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
                .collect(),
        )
    }
}

/// Parses a full file image back into [`ConePlans`]; `None` on any
/// mismatch (wrong magic/version/key, bad checksum, truncation,
/// trailing garbage, invalid gate tags).
pub(crate) fn decode(hash: u64, bytes: &[u8]) -> Option<ConePlans> {
    let header = bytes.get(..HEADER_LEN)?;
    if &header[..8] != MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(header[8..12].try_into().ok()?);
    if version != PlanCache::FORMAT_VERSION {
        return None;
    }
    let key = u64::from_le_bytes(header[16..24].try_into().ok()?);
    if key != hash {
        return None;
    }
    let payload_len = u64::from_le_bytes(header[24..32].try_into().ok()?);
    let checksum = u64::from_le_bytes(header[32..40].try_into().ok()?);
    let payload = bytes.get(HEADER_LEN..)?;
    if payload.len() as u64 != payload_len || fnv1a(payload) != checksum {
        return None;
    }

    let mut c = Cursor {
        bytes: payload,
        at: 0,
    };
    let chain_next = c.u32s()?;
    let tail_of = c.u32s()?;
    let prefix_len = c.u32s()?;
    let path_pins_after = c.u32s()?;
    let path_obs_from = c.u32s()?;
    let node_obs_off = c.u32s()?;
    let node_obs = c.u32s()?;
    let pos_node = c
        .u32s()?
        .into_iter()
        .map(|i| NodeId::from_index(i as usize))
        .collect();
    let n_kinds = c.len()?;
    let pos_kind = c
        .take(n_kinds)?
        .iter()
        .map(|&t| kind_from_u8(t))
        .collect::<Option<Vec<GateKind>>>()?;
    let pos_fanin_off = c.u32s()?;
    let n_fanins = c.len()?;
    let raw_fanins = c.take(n_fanins.checked_mul(8)?)?;
    let pos_fanins = raw_fanins
        .chunks_exact(8)
        .map(|p| {
            (
                u32::from_le_bytes(p[..4].try_into().expect("4-byte half")),
                u32::from_le_bytes(p[4..].try_into().expect("4-byte half")),
            )
        })
        .collect();
    let tail_start = c.u32s()?;
    let tail_end = c.u32s()?;
    let tail_pins = c.u32s()?;
    let tail_positions = c.u32s()?;
    let tail_obs_off = c.u32s()?;
    let n_obs = c.len()?;
    let raw_obs = c.take(n_obs.checked_mul(8)?)?;
    let tail_obs = raw_obs
        .chunks_exact(8)
        .map(|p| {
            (
                u32::from_le_bytes(p[..4].try_into().expect("4-byte half")),
                u32::from_le_bytes(p[4..].try_into().expect("4-byte half")),
            )
        })
        .collect();
    let max_cone_len = usize::try_from(c.u64()?).ok()?;
    let chain_count = usize::try_from(c.u64()?).ok()?;
    let logical_members = c.u64()?;
    let logical_observe_refs = c.u64()?;
    if c.at != payload.len() {
        return None; // trailing garbage: treat as corrupt
    }

    Some(ConePlans {
        chain_next,
        tail_of,
        prefix_len,
        path_pins_after,
        path_obs_from,
        node_obs_off,
        node_obs,
        pos_node,
        pos_kind,
        pos_fanin_off,
        pos_fanins,
        tail_start,
        tail_end,
        tail_pins,
        tail_positions,
        tail_obs_off,
        tail_obs,
        max_cone_len,
        chain_count,
        logical_members,
        logical_observe_refs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::TopoArtifacts;
    use crate::parse::parse_bench;

    fn sample() -> (crate::circuit::Circuit, ConePlans) {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nu = NOT(a)\nv = AND(a, b)\nq = DFF(v)\nw = XOR(u, q)\nz = OR(w, v)\n",
            "cachetest",
        )
        .unwrap();
        let topo = TopoArtifacts::compute(&c).unwrap();
        let plans = ConePlans::build(&c, &topo, usize::MAX, 1, None)
            .unwrap()
            .unwrap();
        (c, plans)
    }

    #[test]
    fn encode_decode_round_trips() {
        let (c, plans) = sample();
        let hash = c.structural_hash();
        let bytes = encode(hash, &plans);
        let back = decode(hash, &bytes).expect("round trip");
        assert_eq!(back, plans);
    }

    #[test]
    fn decode_rejects_wrong_key_version_and_corruption() {
        let (c, plans) = sample();
        let hash = c.structural_hash();
        let bytes = encode(hash, &plans);
        // Wrong key.
        assert!(decode(hash ^ 1, &bytes).is_none());
        // Version bump.
        let mut v = bytes.clone();
        v[8] = PlanCache::FORMAT_VERSION as u8 + 1;
        assert!(decode(hash, &v).is_none());
        // Bad magic.
        let mut m = bytes.clone();
        m[0] ^= 0xFF;
        assert!(decode(hash, &m).is_none());
        // Truncation at every section boundary-ish point.
        for cut in [10, HEADER_LEN - 1, HEADER_LEN + 3, bytes.len() - 1] {
            assert!(decode(hash, &bytes[..cut]).is_none(), "cut at {cut}");
        }
        // Single-byte payload corruption breaks the checksum.
        let mut f = bytes.clone();
        let last = f.len() - 1;
        f[last] ^= 0x40;
        assert!(decode(hash, &f).is_none());
        // Trailing garbage is rejected too (checksum covers declared
        // payload length only, so the length check must catch it).
        let mut t = bytes.clone();
        t.push(0);
        assert!(decode(hash, &t).is_none());
    }

    /// A per-test scratch directory under the system temp dir, removed
    /// on drop (tests run in parallel, so the name carries the tag).
    struct TempCacheDir(PathBuf);

    impl TempCacheDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("ser-plan-cache-test-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            TempCacheDir(dir)
        }
    }

    impl Drop for TempCacheDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn store_load_round_trips_on_disk() {
        let (c, plans) = sample();
        let hash = c.structural_hash();
        let dir = TempCacheDir::new("roundtrip");
        let cache = PlanCache::new(&dir.0);
        // Nothing stored yet: miss, and stats see an absent dir.
        assert!(cache.load(hash).is_none());
        assert_eq!(cache.stats().unwrap(), PlanCacheStats::default());
        cache.store(hash, &plans).expect("store");
        assert_eq!(cache.load(hash).expect("hit"), plans);
        // A different key misses without touching the stored entry.
        assert!(cache.load(hash ^ 1).is_none());
        let stats = cache.stats().unwrap();
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > HEADER_LEN as u64);
        assert_eq!(cache.clear().unwrap(), 1);
        assert!(cache.load(hash).is_none());
        assert_eq!(cache.stats().unwrap(), PlanCacheStats::default());
    }

    #[test]
    fn damaged_entries_on_disk_degrade_to_misses() {
        let (c, plans) = sample();
        let hash = c.structural_hash();
        let dir = TempCacheDir::new("damage");
        let cache = PlanCache::new(&dir.0);
        cache.store(hash, &plans).expect("store");
        let path = cache.entry_path(hash);
        let full = fs::read(&path).unwrap();

        // Truncated write (e.g. a crashed process): silent miss.
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(cache.load(hash).is_none());

        // Flipped payload byte: checksum catches it, silent miss.
        let mut corrupt = full.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x10;
        fs::write(&path, &corrupt).unwrap();
        assert!(cache.load(hash).is_none());

        // Stale format version: silent miss (recompile territory).
        let mut stale = full.clone();
        stale[8] = PlanCache::FORMAT_VERSION as u8 + 1;
        fs::write(&path, &stale).unwrap();
        assert!(cache.load(hash).is_none());

        // Restoring the original bytes restores the hit.
        fs::write(&path, &full).unwrap();
        assert_eq!(cache.load(hash).expect("hit"), plans);
    }

    #[test]
    fn fault_plan_torn_write_recovers_silently() {
        let (c, plans) = sample();
        let hash = c.structural_hash();
        let dir = TempCacheDir::new("fault-torn");
        let faults = Arc::new(FaultPlan::new([Some(StoreFault::Torn { keep: 13 }), None]));
        let cache = PlanCache::new(&dir.0).with_fault_plan(Arc::clone(&faults));

        // The torn store "succeeds" (the rename landed) but the entry
        // on disk is garbage: the next load is a silent miss.
        cache.store(hash, &plans).expect("torn store still renames");
        assert!(fs::read(cache.entry_path(hash)).unwrap().len() < HEADER_LEN);
        assert!(cache.load(hash).is_none());
        assert_eq!(faults.injected(), 1);

        // Recompile-and-store overwrites the torn entry; hits resume.
        cache.store(hash, &plans).expect("healthy store");
        assert_eq!(cache.load(hash).expect("hit"), plans);
    }

    #[test]
    fn fault_plan_write_and_rename_failures_leave_no_entry() {
        let (c, plans) = sample();
        let hash = c.structural_hash();
        let dir = TempCacheDir::new("fault-write");
        let faults = Arc::new(FaultPlan::new([
            Some(StoreFault::WriteError),
            Some(StoreFault::RenameError),
        ]));
        let cache = PlanCache::new(&dir.0).with_fault_plan(Arc::clone(&faults));

        for expect in ["mid-write", "rename"] {
            let err = cache.store(hash, &plans).expect_err(expect);
            assert!(err.to_string().contains("injected"), "{expect}: {err}");
            // No entry, no stray temp file: the directory stays clean.
            assert!(cache.load(hash).is_none());
            assert_eq!(fs::read_dir(&dir.0).unwrap().count(), 0, "{expect}");
        }
        assert_eq!(faults.injected(), 2);

        // Schedule exhausted: stores are healthy again.
        cache.store(hash, &plans).expect("healthy store");
        assert_eq!(cache.load(hash).expect("hit"), plans);
    }

    /// A NOT-chain circuit of the given depth — each depth has a
    /// distinct structural hash, giving eviction tests distinct keys.
    fn chain_sample(depth: usize) -> (u64, ConePlans) {
        let mut src = String::from("INPUT(a)\nOUTPUT(z)\n");
        let mut prev = "a".to_owned();
        for i in 0..depth {
            src.push_str(&format!("n{i} = NOT({prev})\n"));
            prev = format!("n{i}");
        }
        src.push_str(&format!("z = NOT({prev})\n"));
        let c = parse_bench(&src, &format!("chain{depth}")).unwrap();
        let topo = TopoArtifacts::compute(&c).unwrap();
        let plans = ConePlans::build(&c, &topo, usize::MAX, 1, None)
            .unwrap()
            .unwrap();
        (c.structural_hash(), plans)
    }

    fn set_mtime(path: &Path, t: std::time::SystemTime) {
        fs::File::options()
            .append(true)
            .open(path)
            .unwrap()
            .set_modified(t)
            .unwrap();
    }

    #[test]
    fn byte_cap_evicts_oldest_entries_at_store_time() {
        let dir = TempCacheDir::new("evict");
        let (h1, p1) = chain_sample(1);
        let (h2, p2) = chain_sample(2);
        let (h3, p3) = chain_sample(3);
        let sizes: Vec<u64> = [(h1, &p1), (h2, &p2), (h3, &p3)]
            .iter()
            .map(|&(h, p)| encode(h, p).len() as u64)
            .collect();

        let unbounded = PlanCache::new(&dir.0);
        assert_eq!(unbounded.store(h1, &p1).unwrap().evicted, 0);
        assert_eq!(unbounded.store(h2, &p2).unwrap().evicted, 0);
        // Age the entries deterministically: h1 oldest.
        let epoch = std::time::SystemTime::UNIX_EPOCH;
        set_mtime(
            &unbounded.entry_path(h1),
            epoch + std::time::Duration::from_secs(1_000),
        );
        set_mtime(
            &unbounded.entry_path(h2),
            epoch + std::time::Duration::from_secs(2_000),
        );

        // Cap sized so that evicting exactly the oldest entry fits.
        let bounded = PlanCache::new(&dir.0).with_max_bytes(Some(sizes[1] + sizes[2]));
        assert_eq!(bounded.max_bytes(), Some(sizes[1] + sizes[2]));
        let outcome = bounded.store(h3, &p3).unwrap();
        assert_eq!(outcome.evicted, 1, "exactly the oldest entry goes");
        assert!(bounded.load(h1).is_none(), "h1 was least recently used");
        assert_eq!(bounded.load(h2).expect("survives"), p2);
        assert_eq!(bounded.load(h3).expect("just stored"), p3);
        assert!(bounded.stats().unwrap().bytes <= sizes[1] + sizes[2]);
    }

    #[test]
    fn a_load_hit_re_dates_its_entry_under_a_cap() {
        let dir = TempCacheDir::new("redate");
        let (h1, p1) = chain_sample(4);
        let (h2, p2) = chain_sample(5);
        let (h3, p3) = chain_sample(6);
        let s1 = encode(h1, &p1).len() as u64;
        let s3 = encode(h3, &p3).len() as u64;

        let bounded = PlanCache::new(&dir.0).with_max_bytes(Some(s1 + s3));
        bounded.store(h1, &p1).unwrap();
        bounded.store(h2, &p2).unwrap();
        let epoch = std::time::SystemTime::UNIX_EPOCH;
        set_mtime(
            &bounded.entry_path(h1),
            epoch + std::time::Duration::from_secs(1_000),
        );
        set_mtime(
            &bounded.entry_path(h2),
            epoch + std::time::Duration::from_secs(2_000),
        );
        // h1 is older on disk, but this hit marks it as in active use…
        assert_eq!(bounded.load(h1).expect("hit"), p1);
        // …so the eviction triggered by storing h3 removes h2 instead.
        assert_eq!(bounded.store(h3, &p3).unwrap().evicted, 1);
        assert_eq!(bounded.load(h1).expect("recency protected"), p1);
        assert!(bounded.load(h2).is_none(), "h2 became the LRU entry");
        assert_eq!(bounded.load(h3).expect("just stored"), p3);
    }

    #[test]
    fn an_unbounded_store_never_evicts() {
        let dir = TempCacheDir::new("unbounded");
        let cache = PlanCache::new(&dir.0);
        assert_eq!(cache.max_bytes(), None);
        for depth in 1..=4 {
            let (h, p) = chain_sample(depth);
            assert_eq!(cache.store(h, &p).unwrap().evicted, 0);
        }
        assert_eq!(cache.stats().unwrap().entries, 4);
    }

    #[test]
    fn gate_kind_tags_are_stable_and_total() {
        for (i, &kind) in GateKind::ALL.iter().enumerate() {
            assert_eq!(kind_to_u8(kind) as usize, i);
            assert_eq!(kind_from_u8(kind_to_u8(kind)), Some(kind));
        }
        assert_eq!(kind_from_u8(GateKind::ALL.len() as u8), None);
    }
}
