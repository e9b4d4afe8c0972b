//! `now-perfbench` — the repository's benchmark.
//!
//! One command runs one of three seeded closed-loop workloads against
//! the NOW simulator, checks the outputs, and prints the end-to-end
//! metrics (untraced run) or the per-layer metrics (traced run) by name
//! with their units. See `README.md` beside this crate for why each
//! workload exists and how the metric names map to the rest of the
//! repository.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod gen;
pub mod spans;
pub mod stats;
pub mod workloads;
