//! Tests of the benchmark's own logic: percentiles, span self time,
//! input generation, digest stability, and agreement with
//! `BENCHMARK.json`.

use now_campaign::Campaign;
use now_core::ExecConfig;
use now_net::{ClusterId, NodeId};
use now_perfbench::gen::{campaign_text, Generator};
use now_perfbench::spans::{self_times, Span, Tracer};
use now_perfbench::stats::{median, percentile, tail};
use now_perfbench::workloads::{
    self, CampaignSpec, ChurnSpec, Workload, END_TO_END, NAMES, PER_LAYER, SPAN_NAMES,
};

fn ramp(n: usize) -> Vec<f64> {
    // Descending input: the helpers must sort for themselves.
    (1..=n).rev().map(|i| i as f64).collect()
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail(&ramp(19)), None, "19 samples support no percentile");
    let t = tail(&ramp(20)).unwrap();
    assert_eq!((t.pct, t.value, t.samples), (50.0, 10.0, 20));
    let t = tail(&ramp(40)).unwrap();
    assert_eq!((t.pct, t.value, t.samples), (75.0, 30.0, 40));
    let t = tail(&ramp(999)).unwrap();
    assert_eq!(t.pct, 95.0, "p99 of 999 has only 9 samples beyond it");
    let t = tail(&ramp(1000)).unwrap();
    assert_eq!((t.pct, t.value, t.samples), (99.0, 990.0, 1000));
    let t = tail(&ramp(10_000)).unwrap();
    assert_eq!((t.pct, t.value), (99.9, 9990.0));
}

#[test]
fn median_and_percentile_use_nearest_rank() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&sorted, 99.0), Some(99.0));
    assert_eq!(percentile(&sorted, 0.0), Some(1.0));
    assert_eq!(percentile(&sorted, 100.0), Some(100.0));
    assert_eq!(percentile(&[], 50.0), None);
}

fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name,
        parent,
        request: 0,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_nested_children() {
    let spans = [
        span("workload", None, 0, 100),
        span("step", Some(0), 10, 40),
        span("core.step_batch", Some(1), 20, 30),
    ];
    assert_eq!(self_times(&spans), vec![70, 20, 10]);
}

#[test]
fn self_time_counts_overlapping_children_once() {
    let spans = [
        span("step", None, 0, 100),
        span("a", Some(0), 10, 50),
        span("b", Some(0), 30, 70),
        span("c", Some(0), 60, 65),
        // Reaches past the parent's end: only [90, 100] is covered.
        span("d", Some(0), 90, 120),
    ];
    assert_eq!(self_times(&spans), vec![30, 40, 40, 5, 30]);
}

#[test]
fn tracer_links_parents_and_records_nothing_when_disabled() {
    let mut tracer = Tracer::new(true);
    let outer = tracer.begin("step");
    let inner = tracer.begin("core.step_batch");
    tracer.end(inner);
    let sibling = tracer.begin("apps.sample_node");
    tracer.end(sibling);
    tracer.end(outer);
    let parents: Vec<Option<usize>> = tracer.spans().iter().map(|s| s.parent).collect();
    assert_eq!(parents, vec![None, Some(0), Some(0)]);
    assert!(tracer.spans().iter().all(|s| s.end_ns >= s.start_ns));

    let mut off = Tracer::new(false);
    let id = off.begin("step");
    off.end(id);
    assert!(off.spans().is_empty());
}

fn inputs(seed: u64) -> (Vec<NodeId>, Vec<bool>, Vec<ClusterId>) {
    let live: Vec<NodeId> = (0..500).map(NodeId::from_raw).collect();
    let clusters: Vec<ClusterId> = (0..40).map(ClusterId::from_raw).collect();
    let mut gen = Generator::new(seed);
    (
        gen.leaves(&live, 32),
        gen.join_honesty(32, 0.8),
        gen.origins(&clusters, 64),
    )
}

#[test]
fn generator_is_a_function_of_the_seed() {
    assert_eq!(inputs(7), inputs(7));
    let (a, b) = (inputs(7), inputs(8));
    assert_ne!(a.0, b.0);
    assert_ne!(a.1, b.1);
    assert_ne!(a.2, b.2);

    let (leaves, _, _) = inputs(7);
    let mut distinct = leaves.clone();
    distinct.sort();
    distinct.dedup();
    assert_eq!(distinct.len(), leaves.len(), "departures are distinct");

    assert_eq!(campaign_text(3, 600, 1), campaign_text(3, 600, 1));
    assert_ne!(campaign_text(3, 600, 1), campaign_text(4, 600, 1));
    let campaign = Campaign::parse(&campaign_text(3, 600, 1)).unwrap();
    assert_eq!(campaign.seed, 3);
    assert_eq!(campaign.phases.len(), 6);
}

fn tiny_churn(exec: ExecConfig<'static>) -> Workload {
    Workload::Churn(ChurnSpec {
        clusters: 16,
        joins: 3,
        leaves: 3,
        reads: 8,
        min_steps: 3,
        warmup: 1,
        setups: 2,
        exec,
    })
}

fn tiny_campaign() -> Workload {
    Workload::Campaign(CampaignSpec {
        initial_population: 120,
        scale: 10,
        reads: 16,
        campaigns: 2,
        setups: 2,
    })
}

#[test]
fn digest_repeats_at_smoke_size() {
    for workload in [
        tiny_churn(ExecConfig::serial()),
        tiny_churn(ExecConfig::threaded(2)),
        tiny_campaign(),
    ] {
        let first = workloads::run(&workload, 5, 0, false).unwrap();
        let again = workloads::run(&workload, 5, 0, false).unwrap();
        let traced = workloads::run(&workload, 5, 0, true).unwrap();
        let other = workloads::run(&workload, 6, 0, false).unwrap();
        assert!(first.failures.is_empty(), "{:?}", first.failures);
        assert!(traced.failures.is_empty(), "{:?}", traced.failures);
        assert!(!first.digest.is_empty());
        assert_eq!(first.digest, again.digest, "{workload:?}");
        assert_eq!(
            first.digest, traced.digest,
            "tracing must not change outcomes"
        );
        assert_ne!(first.digest, other.digest, "the seed reaches the program");
        assert!(first.spans.is_empty());
        assert!(traced.spans.iter().any(|s| s.name == "workload"));
        assert_eq!(first.end_to_end.len(), END_TO_END.len());
        assert_eq!(first.per_layer.len(), PER_LAYER.len() + SPAN_NAMES.len());
        assert!(first
            .end_to_end
            .iter()
            .all(|m| m.value.is_finite() && m.value > 0.0));
    }
}

#[test]
fn repeated_campaigns_agree() {
    let workload = Workload::Campaign(CampaignSpec {
        campaigns: 1,
        ..match tiny_campaign() {
            Workload::Campaign(spec) => spec,
            Workload::Churn(_) => unreachable!(),
        }
    });
    let one = workloads::run(&workload, 5, 0, false).unwrap();
    let repeated = workloads::run(&workload, 5, 50_000_000, false).unwrap();
    assert!(repeated.failures.is_empty(), "{:?}", repeated.failures);
    assert!(
        repeated.attempted > one.attempted,
        "the window adds repeats"
    );
    assert_eq!(one.digest, repeated.digest);
}

#[test]
fn workload_and_metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).unwrap();
    // Every workload BENCHMARK.json lists exists; `wave_churn_512` may
    // be left out of it (see README.md).
    let listed_workloads: Vec<&str> = NAMES
        .iter()
        .copied()
        .filter(|n| json.contains(&format!("\"name\": \"{n}\", \"why\"")))
        .collect();
    assert!(listed_workloads.len() >= 2);
    let mut expected: Vec<String> = listed_workloads.iter().map(|n| n.to_string()).collect();
    expected.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
    expected.extend(PER_LAYER.iter().map(|(n, _)| n.to_string()));
    expected.extend(SPAN_NAMES.iter().map(|n| format!("span.{n}.self_ms")));
    let listed: Vec<String> = json
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .map(str::to_string)
        .collect();
    assert_eq!(listed, expected);
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "{entry}");
    }
    for workload in NAMES {
        assert!(workloads::by_name(workload).is_some());
    }
    assert!(workloads::by_name("no_such_workload").is_none());
}
