//! Seeded input generation.
//!
//! Every input the program receives comes from here: leave picks,
//! join honesty and read origins are drawn from labelled forks of one
//! [`DetRng`] rooted at the workload seed, and the campaign text has
//! the same seed templated in. The same seed gives the same inputs;
//! the workloads call these outside their timed calls.

use now_net::{ClusterId, DetRng, NodeId};
use rand::Rng;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// The seeded input streams of one workload run.
#[derive(Debug)]
pub struct Generator {
    leaves: DetRng,
    joins: DetRng,
    reads: DetRng,
}

impl Generator {
    /// Streams derived from `seed`, one labelled fork per input kind,
    /// so adding draws to one kind never shifts another.
    pub fn new(seed: u64) -> Self {
        let mut root = DetRng::new(seed);
        Generator {
            leaves: root.fork("leaves"),
            joins: root.fork("joins"),
            reads: root.fork("reads"),
        }
    }

    /// `n` distinct departures drawn uniformly from `live` (all of
    /// `live` when it holds fewer).
    pub fn leaves(&mut self, live: &[NodeId], n: usize) -> Vec<NodeId> {
        let want = n.min(live.len());
        let mut taken = BTreeSet::new();
        let mut out = Vec::with_capacity(want);
        while out.len() < want {
            let idx = self.leaves.gen_range(0..live.len());
            if taken.insert(idx) {
                if let Some(&node) = live.get(idx) {
                    out.push(node);
                }
            }
        }
        out
    }

    /// Honesty flags of `n` arrivals, each honest with probability
    /// `honest_share`.
    pub fn join_honesty(&mut self, n: usize, honest_share: f64) -> Vec<bool> {
        (0..n).map(|_| self.joins.gen_bool(honest_share)).collect()
    }

    /// `n` read origins drawn uniformly from `clusters` (empty when
    /// there are none).
    pub fn origins(&mut self, clusters: &[ClusterId], n: usize) -> Vec<ClusterId> {
        if clusters.is_empty() {
            return Vec::new();
        }
        (0..n)
            .filter_map(|_| {
                clusters
                    .get(self.reads.gen_range(0..clusters.len()))
                    .copied()
            })
            .collect()
    }
}

/// Link model shared by every phase of the event campaign: delay is in
/// simulated ticks, so it costs no wall-clock time.
const LINKS: &str = "  exec event\n  latency 2\n  jitter 3\n";

/// The event-campaign phases: name, style lines, extra network lines,
/// and step count at full scale. The drain phase's sawtooth band is
/// set from the initial population (see [`campaign_text`]).
const PHASES: [(&str, &str, &str, u64); 6] = [
    ("calm", "  style balanced\n", "", 15),
    (
        "flood",
        "  style join-leave\n  target largest\n",
        "  drop 0.05\n",
        30,
    ),
    ("grow", "  style split-forcing\n  target largest\n", "", 40),
    (
        "partition",
        "  style balanced\n",
        "  partition 2 heal 20\n",
        25,
    ),
    ("squeeze", "  style merge-forcing\n  target first\n", "", 40),
    ("drain", "", "", 20),
];

/// The benchmark's event campaign with `seed` templated in. `scale`
/// divides every phase's step count (the benchmark workload uses 4;
/// tests use a larger divisor and a smaller `initial_population`).
pub fn campaign_text(seed: u64, initial_population: usize, scale: u64) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "campaign event-attack\ncapacity 1024\nk 3\ntau 0.10\n\
         initial-population {initial_population}\nseed {seed}\nwidth 6\n\
         trace 4096\nmetrics on\n"
    );
    let (low, high) = (initial_population * 3 / 4, initial_population * 13 / 12);
    let sawtooth = format!("  style sawtooth {low} {high}\n");
    for (name, style, net, steps) in PHASES {
        let style = if style.is_empty() { &sawtooth } else { style };
        let steps = (steps / scale.max(1)).max(1);
        let _ = write!(out, "\nphase {name}\n{style}{LINKS}{net}  steps {steps}\n");
    }
    out
}
