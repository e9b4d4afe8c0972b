//! Order statistics for timing samples.
//!
//! Timings are reported as a median plus the highest percentile the
//! sample supports: a percentile counts only when at least
//! [`TAIL_MIN_BEYOND`] samples lie beyond it, so a tail is never read
//! off one or two stragglers.

/// Samples that must lie strictly above a percentile before it is
/// reported as a tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The percentile ladder a tail is chosen from, lowest first.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Nearest-rank percentile of an ascending sample: the value at rank
/// `ceil(pct / 100 · n)`. `None` for an empty sample.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    let rank = nearest_rank(sorted.len(), pct)?;
    sorted.get(rank - 1).copied()
}

/// Samples strictly beyond the nearest-rank percentile `pct` of `n`.
fn beyond(n: usize, pct: f64) -> usize {
    nearest_rank(n, pct).map_or(0, |rank| n - rank)
}

fn nearest_rank(n: usize, pct: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // The epsilon keeps decimal percentiles such as 99.9 from rounding
    // one rank up through binary representation error.
    let rank = (pct * n as f64 / 100.0 - 1e-9).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// Median (mean of the two middle values for an even count). `None`
/// for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    let hi = sorted.get(n / 2).copied()?;
    if n % 2 == 1 {
        return Some(hi);
    }
    sorted.get(n / 2 - 1).map(|lo| (lo + hi) / 2.0)
}

/// The highest ladder percentile of a sample, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile (50, 75, 90, 95, 99 or 99.9).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples the percentile was read from.
    pub samples: usize,
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it. `None` when even the median lacks them (fewer
/// than 20 samples).
pub fn tail(values: &[f64]) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    let pct = LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)?;
    Some(Tail {
        pct,
        value: percentile(&sorted, pct)?,
        samples: n,
    })
}

/// A copy of `values` in ascending order (NaN-free input assumed; NaN
/// sorts last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(|a, b| a.total_cmp(b));
    out
}
