//! Golden stream pin for the serial `randCl` / `step_batch` kernels.
//!
//! Hashes everything a kernel rewrite could silently drift — walk
//! endpoints and diagnostics, ledger totals and per-kind statistics, and
//! the post-step membership — into one FNV-1a digest per scenario. The
//! expected values were produced by the pre-rewrite kernels, so a pass
//! proves the randomness stream, the draw order and the cost accounting
//! are byte-identical rather than assuming it. A failure here is a
//! behaviour change, never a reason to re-pin.

use now_core::{BatchInput, ExecConfig, Malice, NowParams, NowSystem, RandNumContext};
use now_net::{ClusterId, CostKind, DetRng, NodeId};
use rand::Rng;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

const CLUSTERS: usize = 256;

fn system(tau: f64, seed: u64) -> NowSystem {
    let params = NowParams::for_capacity(1 << 10).unwrap();
    let n0 = CLUSTERS * params.target_cluster_size();
    NowSystem::init_fast(params, n0, tau, seed)
}

/// Folds the ledger's global total and the walk-relevant per-kind
/// statistics into `h`.
fn hash_ledger(h: &mut Fnv, sys: &NowSystem) {
    let total = sys.ledger().total();
    h.word(total.messages);
    h.word(total.rounds);
    for kind in [CostKind::RandNum, CostKind::RandCl, CostKind::Exchange] {
        let s = sys.ledger().stats(kind);
        for x in [
            s.count,
            s.total_messages,
            s.total_rounds,
            s.max_messages,
            s.max_rounds,
        ] {
            h.word(x);
        }
    }
}

/// 500 walks from rotating starts, then the ledger; returns the digest
/// and the summed compromised-hop count.
fn walk_digest(sys: &mut NowSystem) -> (u64, u64) {
    let mut h = Fnv::new();
    let starts = sys.cluster_ids();
    let (mut hops, mut restarts, mut compromised) = (0u64, 0u64, 0u64);
    for i in 0..500 {
        let (end, trace) = sys.rand_cl_from(starts[(i * 37) % starts.len()]);
        h.word(end.raw());
        hops += trace.hops;
        restarts += trace.restarts;
        compromised += trace.compromised_hops;
    }
    h.word(hops);
    h.word(restarts);
    h.word(compromised);
    hash_ledger(&mut h, sys);
    (h.0, compromised)
}

/// 16 serial batch steps of two joins and two leaves each, hashing the
/// population, node ids and cluster ids after every step.
fn step_digest(sys: &mut NowSystem) -> u64 {
    let mut h = Fnv::new();
    for step in 0..16u64 {
        let live = sys.node_ids();
        let leaves: Vec<NodeId> = [step * 7919, step * 104_729 + 13]
            .iter()
            .map(|&k| live[(k as usize) % live.len()])
            .collect();
        let input = BatchInput::from_flags(&[true, step % 3 == 0], &leaves);
        let report = sys.step_batch(&input, &ExecConfig::serial());
        assert!(
            report.rejected.is_empty(),
            "step {step}: {:?}",
            report.rejected
        );
        h.word(sys.population());
        for n in sys.node_ids() {
            h.word(n.raw());
        }
        for c in sys.cluster_ids() {
            h.word(c.raw());
        }
    }
    hash_ledger(&mut h, sys);
    h.0
}

/// A deliberately steering adversary: skews compromised draws into the
/// bottom quarter of their range (long holding times, low-index hops,
/// eager acceptance: a trapping attack) and forces compromised hops to
/// the highest-id neighbour on every other call, so the compromised
/// branches of the walk consume the stream too.
struct Steer {
    calls: u64,
}

impl Malice for Steer {
    fn rand_num(&mut self, range: u64, _ctx: RandNumContext, rng: &mut DetRng) -> u64 {
        let range = range.max(1);
        rng.gen_range(0..range.div_ceil(4))
    }

    fn walk_hop(&mut self, neighbors: &[ClusterId], _rng: &mut DetRng) -> Option<ClusterId> {
        self.calls += 1;
        if self.calls % 2 == 0 {
            neighbors.last().copied()
        } else {
            None
        }
    }

    fn exchange_victim(&mut self, members: &[(NodeId, bool)], _rng: &mut DetRng) -> Option<NodeId> {
        members.iter().find(|(_, honest)| *honest).map(|&(n, _)| n)
    }
}

#[test]
fn neutral_walks_and_serial_steps_are_pinned() {
    let mut sys = system(0.2, 0x5eed_0256);
    assert_eq!(sys.cluster_count(), CLUSTERS);
    let (walks, _) = walk_digest(&mut sys);
    let steps = step_digest(&mut sys);
    sys.check_consistency().unwrap();
    assert_eq!(
        (walks, steps),
        (12_395_410_290_392_189_685, 16_720_882_933_066_494_788),
        "serial randCl / step_batch stream drifted"
    );
}

#[test]
fn steered_walks_and_serial_steps_are_pinned() {
    let mut sys = system(0.3, 0x5eed_0257);
    sys.set_malice(Box::new(Steer { calls: 0 }));
    let (walks, compromised) = walk_digest(&mut sys);
    assert!(compromised > 0, "scenario must exercise compromised hops");
    let steps = step_digest(&mut sys);
    sys.check_consistency().unwrap();
    assert_eq!(
        (walks, steps),
        (16_875_464_715_913_707_704, 9_241_038_530_401_708_638),
        "adversarial randCl / step_batch stream drifted"
    );
}
