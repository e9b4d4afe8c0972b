//! Deterministic digests of a run's observable outcome.

use now_core::NowSystem;
use now_net::CostKind;

/// 64-bit FNV-1a: a fixed, platform-independent hash for digests that
/// must repeat byte for byte across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a `u64` (little-endian) into the hash.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of a string.
pub fn hash_str(s: &str) -> u64 {
    let mut h = Fnv::default();
    h.write(s.as_bytes());
    h.finish()
}

/// One line naming the system's deterministic state: population,
/// `op_counts`, ledger totals, the `randNum`/`randCl`/`exchange` span
/// counts, and `extra` (a hash of whatever else the workload produced:
/// sampled nodes, the campaign JSON).
pub fn system_digest(sys: &NowSystem, extra: u64) -> String {
    let (joins, leaves, splits, merges) = sys.op_counts();
    let total = sys.ledger().total();
    let count = |kind| sys.ledger().stats(kind).count;
    format!(
        "pop={} joins={joins} leaves={leaves} splits={splits} merges={merges} \
         msgs={} rounds={} rand_num={} rand_cl={} exchange={} clusters={} extra={extra:016x}",
        sys.population(),
        total.messages,
        total.rounds,
        count(CostKind::RandNum),
        count(CostKind::RandCl),
        count(CostKind::Exchange),
        sys.cluster_count(),
    )
}
