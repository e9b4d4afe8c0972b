//! The benchmark's three closed-loop workloads (see `README.md` for why
//! each exists).
//!
//! Each loop sends its next batch only after the previous call
//! returned. Inputs come from [`crate::gen`] and are generated outside
//! the timed calls; only `step_batch`, `sample_node`, `init_fast`,
//! `Campaign::parse`/`build_system`/`run_on` and `to_json` are timed.
//! The work counters are read from what the program already exposes
//! (ledger, `op_counts`, `BatchReport`, the wave-engine totals and the
//! campaign's `PhaseReport`s).
//!
//! Deterministic counters and the digest cover a fixed prefix of each
//! run (the first `min_steps` steps, or the first pass over the
//! campaigns), so they repeat exactly whatever the machine's speed; the
//! wall-clock window only decides how many further steps are timed.

use crate::digest::{hash_str, system_digest, Fnv};
use crate::gen::{campaign_text, Generator};
use crate::spans::{Span, Tracer};
use crate::stats;
use now_apps::sample_node;
use now_campaign::{Campaign, CampaignReport};
use now_core::{BatchInput, ExecConfig, NowParams, NowSystem};
use now_net::{ClusterId, CostKind};
use now_trace::stopwatch;

/// Names of the workloads, as `--workload` takes them.
pub const NAMES: [&str; 3] = [
    "serial_churn_4096",
    "wave_churn_512",
    "event_attack_campaign",
];

/// End-to-end metrics, printed by the untraced run, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("step_ms_fast", "ms"),
    ("sample_us_fast", "us"),
    ("msgs_per_op", "count"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Span names recorded by the traced run; each gets a
/// `span.<name>.self_ms` per-layer metric.
pub const SPAN_NAMES: [&str; 10] = [
    "workload",
    "step",
    "core.step_batch",
    "apps.sample_node",
    "core.init_fast",
    "core.check_consistency",
    "campaign.parse",
    "campaign.build_system",
    "campaign.run_on",
    "campaign.to_json",
];

/// Per-layer metrics, printed by the traced run, with their units (the
/// `span.*.self_ms` metrics follow these).
pub const PER_LAYER: [(&str, &str); 44] = [
    ("core.draws_per_op", "count"),
    ("core.walks_per_op", "count"),
    ("core.exchanges_per_op", "count"),
    ("core.ns_per_draw", "ns"),
    ("core.step_busy_ms_per_op", "ms"),
    ("core.splits_per_op", "count"),
    ("core.merges_per_op", "count"),
    ("core.rejected_leaves", "count"),
    ("core.contact_redraws", "count"),
    ("core.init_s", "s"),
    ("core.step_samples", "count"),
    ("core.step_ms_p50", "ms"),
    ("core.step_ms_tail", "ms"),
    ("core.step_tail_pct", "%"),
    ("wave.plan_share", "ratio"),
    ("wave.plan_ms_per_op", "ms"),
    ("wave.apply_ms_per_op", "ms"),
    ("wave.worker_spawns_per_step", "count"),
    ("wave.ops_per_wave", "count"),
    ("wave.waves_per_step", "count"),
    ("apps.samples", "count"),
    ("apps.sample_us_p50", "us"),
    ("apps.walks_per_sample", "count"),
    ("apps.draws_per_sample", "count"),
    ("apps.ns_per_draw", "ns"),
    ("apps.sample_us_tail", "us"),
    ("apps.sample_tail_pct", "%"),
    ("net.sent", "count"),
    ("net.delivered", "count"),
    ("net.dropped", "count"),
    ("net.delivery_ratio", "ratio"),
    ("over.clusters", "count"),
    ("campaign.parse_ms", "ms"),
    ("campaign.build_s", "s"),
    ("campaign.run_s", "s"),
    ("campaign.report_json_ms", "ms"),
    ("campaign.rounds", "count"),
    ("adversary.peak_byz_fraction", "ratio"),
    ("adversary.binding_violations", "count"),
    ("trace.recorder_bytes", "bytes"),
    ("trace.metrics_bytes", "bytes"),
    ("bench.failed_op_ratio", "ratio"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.traced_steps", "count"),
];

/// A churn workload: `init_fast` at `clusters` clusters, then steps of
/// `joins` arrivals and `leaves` departures, each followed by `reads`
/// `sample_node` calls.
#[derive(Debug, Clone, Copy)]
pub struct ChurnSpec {
    /// Cluster count the system is initialised with.
    pub clusters: usize,
    /// Arrivals per step.
    pub joins: usize,
    /// Departures per step.
    pub leaves: usize,
    /// `sample_node` reads after each step.
    pub reads: usize,
    /// Steps always run (the deterministic prefix), whatever the window.
    pub min_steps: usize,
    /// Leading steps left out of the timings, so caches fill first.
    pub warmup: usize,
    /// `init_fast` repetitions; `setup_s` is their median.
    pub setups: usize,
    /// The engine: `ExecConfig::serial()` or `ExecConfig::threaded(2)`.
    pub exec: ExecConfig<'static>,
}

/// The event campaign workload: whole campaign rounds (parse, build,
/// `run_on`, `to_json`, then `reads` reads on the final system), cycling
/// through `campaigns` campaigns seeded from the workload seed, until the
/// window is spent.
#[derive(Debug, Clone, Copy)]
pub struct CampaignSpec {
    /// The campaign's `initial-population`.
    pub initial_population: usize,
    /// Divides every phase's step count (1 = the full-length phases).
    pub scale: u64,
    /// `sample_node` reads after each round.
    pub reads: usize,
    /// Distinct campaigns a run cycles through. The first pass over them
    /// is the deterministic prefix, run whatever the window; each later
    /// pass repeats the same inputs.
    pub campaigns: usize,
    /// Extra parse + build repetitions before the first round;
    /// `setup_s` is the median over these and every round's set-up.
    pub setups: usize,
}

/// A workload and its size.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// `serial_churn_4096` / `wave_churn_512` shape.
    Churn(ChurnSpec),
    /// `event_attack_campaign` shape.
    Campaign(CampaignSpec),
}

/// The named benchmark workload, at benchmark size.
pub fn by_name(name: &str) -> Option<Workload> {
    match name {
        "serial_churn_4096" => Some(Workload::Churn(ChurnSpec {
            clusters: 4096,
            joins: 2,
            leaves: 2,
            reads: 64,
            min_steps: 128,
            warmup: 16,
            setups: 9,
            exec: ExecConfig::serial(),
        })),
        // Runnable, but not listed in BENCHMARK.json: its two-thread
        // steps spread too widely between runs on a 2-vCPU host.
        "wave_churn_512" => Some(Workload::Churn(ChurnSpec {
            clusters: 512,
            joins: 32,
            leaves: 32,
            reads: 64,
            min_steps: 20,
            warmup: 4,
            setups: 5,
            exec: ExecConfig::threaded(THREADS),
        })),
        "event_attack_campaign" => Some(Workload::Campaign(CampaignSpec {
            initial_population: 150,
            scale: 4,
            reads: 512,
            campaigns: 10,
            setups: 25,
        })),
        _ => None,
    }
}

/// Share of arrivals that are honest.
const HONEST_SHARE: f64 = 0.8;
/// Corrupted share of the initial population.
const TAU: f64 = 0.1;
/// Worker threads for the wave engine and the campaign runner.
const THREADS: usize = 2;
/// The percentile of step and read times the churn workloads report.
/// Other tenants of the host slow the program in bursts of seconds to
/// minutes, which only ever add time: a low percentile follows the code,
/// where a median follows the host.
const FAST_PCT: f64 = 1.0;

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted: joins, leaves and reads submitted.
    pub attempted: u64,
    /// One line per failed operation (rejected leave, missing join,
    /// dead sampled node) or failed output check.
    pub failures: Vec<String>,
    /// Deterministic digest of the prefix (see module docs).
    pub digest: String,
    /// End-to-end metrics, in [`END_TO_END`] order.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics, in [`PER_LAYER`] order then span self times.
    pub per_layer: Vec<Metric>,
    /// Sample counts behind the timing metrics, for the log.
    pub notes: Vec<String>,
    /// Spans recorded by the traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    fn fail(&mut self, what: String) {
        self.failures.push(what);
    }
}

/// Runs `workload` with inputs from `seed` for at least `window_ns` of
/// measured loop time (and at least its deterministic prefix). With
/// `trace`, every other iteration records spans, and comparing the two
/// sets gives the tracer's own overhead.
///
/// # Errors
/// A message when the workload cannot be set up.
pub fn run(workload: &Workload, seed: u64, window_ns: u64, trace: bool) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(trace);
    let mut out = Outcome::default();
    let mut acc = Acc::default();
    match workload {
        Workload::Churn(spec) => run_churn(spec, seed, window_ns, &mut tracer, &mut out, &mut acc)?,
        Workload::Campaign(spec) => {
            run_campaign(spec, seed, window_ns, &mut tracer, &mut out, &mut acc)?
        }
    }
    acc.peak_rss_mb = peak_rss_mb()?;
    out.spans = tracer.spans().to_vec();
    finish(&mut out, &acc);
    Ok(out)
}

/// Work and wall-clock totals over a set of steps.
#[derive(Debug, Clone, Copy, Default)]
struct Work {
    steps: u64,
    ops: u64,
    busy_ns: u64,
    loop_ns: u64,
    draws: u64,
    walks: u64,
    exchanges: u64,
    msgs: u64,
    splits: u64,
    merges: u64,
    rejected: u64,
    redraws: u64,
    plan_ns: u64,
    spawns: u64,
    waves: u64,
    wave_ops: u64,
    samples: u64,
    sample_ns: u64,
    sample_draws: u64,
    sample_walks: u64,
    sent: u64,
    delivered: u64,
    dropped: u64,
    violations: u64,
}

impl Work {
    fn add(&mut self, o: &Work) {
        self.steps += o.steps;
        self.ops += o.ops;
        self.busy_ns += o.busy_ns;
        self.loop_ns += o.loop_ns;
        self.draws += o.draws;
        self.walks += o.walks;
        self.exchanges += o.exchanges;
        self.msgs += o.msgs;
        self.splits += o.splits;
        self.merges += o.merges;
        self.rejected += o.rejected;
        self.redraws += o.redraws;
        self.plan_ns += o.plan_ns;
        self.spawns += o.spawns;
        self.waves += o.waves;
        self.wave_ops += o.wave_ops;
        self.samples += o.samples;
        self.sample_ns += o.sample_ns;
        self.sample_draws += o.sample_draws;
        self.sample_walks += o.sample_walks;
        self.sent += o.sent;
        self.delivered += o.delivered;
        self.dropped += o.dropped;
        self.violations += o.violations;
    }
}

/// What a run accumulates on its way to the metrics.
#[derive(Debug, Default)]
struct Acc {
    /// The deterministic prefix.
    prefix: Work,
    /// Every step.
    all: Work,
    /// Iterations run untraced / traced (alternating in the traced run).
    untraced: Work,
    traced: Work,
    /// Whether the current iteration's timings count (it is past the
    /// warm-up).
    timing: bool,
    step_ms: Vec<f64>,
    ops_per_s: Vec<f64>,
    sample_us: Vec<f64>,
    /// Mean `sample_node` time of each iteration's reads.
    read_us: Vec<f64>,
    /// The end-to-end timings.
    fast: Fast,
    setup_ns: Vec<u64>,
    init_ns: Vec<u64>,
    parse_ns: Vec<u64>,
    build_ns: Vec<u64>,
    run_ns: Vec<u64>,
    json_ns: Vec<u64>,
    peak_byz: f64,
    clusters: usize,
    recorder_bytes: usize,
    metrics_bytes: usize,
    peak_rss_mb: f64,
}

/// The timings the end-to-end metrics report, as the workload took them
/// when the host did not slow it.
#[derive(Debug, Default)]
struct Fast {
    ops_per_s: f64,
    step_ms: f64,
    read_us: f64,
}

/// The program's cumulative work counters at one instant.
#[derive(Debug, Clone, Copy)]
struct Counters {
    draws: u64,
    walks: u64,
    exchanges: u64,
    msgs: u64,
    splits: u64,
    merges: u64,
    plan_ns: u64,
    spawns: u64,
}

impl Counters {
    fn read(sys: &NowSystem) -> Self {
        let ledger = sys.ledger();
        let (_, _, splits, merges) = sys.op_counts();
        Counters {
            draws: ledger.stats(CostKind::RandNum).count,
            walks: ledger.stats(CostKind::RandCl).count,
            exchanges: ledger.stats(CostKind::Exchange).count,
            msgs: ledger.total().messages,
            splits,
            merges,
            plan_ns: now_core::wave_plan_nanos_total(),
            spawns: now_core::wave_worker_spawn_total(),
        }
    }

    /// The work done between `self` and `later`.
    fn until(&self, later: &Counters) -> Work {
        Work {
            draws: later.draws - self.draws,
            walks: later.walks - self.walks,
            exchanges: later.exchanges - self.exchanges,
            msgs: later.msgs - self.msgs,
            splits: later.splits - self.splits,
            merges: later.merges - self.merges,
            plan_ns: later.plan_ns - self.plan_ns,
            spawns: later.spawns - self.spawns,
            ..Work::default()
        }
    }
}

/// Whether iteration `i` of a run records spans: the traced run traces
/// every other iteration, so the untraced ones between them give the
/// tracer's own overhead under the same host conditions.
fn traced_now(tracer: &mut Tracer, trace: bool, i: u64) -> bool {
    let traced = trace && i % 2 == 1;
    tracer.set_enabled(traced);
    traced
}

fn run_churn(
    spec: &ChurnSpec,
    seed: u64,
    window_ns: u64,
    tracer: &mut Tracer,
    out: &mut Outcome,
    acc: &mut Acc,
) -> Result<(), String> {
    let trace = tracer.enabled();
    let params = NowParams::for_capacity(1 << 10).map_err(|e| e.to_string())?;
    let n0 = spec.clusters * params.target_cluster_size();
    let init = |tracer: &mut Tracer, acc: &mut Acc| {
        let span = tracer.begin("core.init_fast");
        let sw = stopwatch();
        let sys = NowSystem::init_fast(params, n0, TAU, seed);
        acc.init_ns.push(sw.elapsed_nanos());
        tracer.end(span);
        sys
    };
    // Throwaway set-ups first, so only one system is ever alive.
    for _ in 1..spec.setups.max(1) {
        drop(init(tracer, acc));
    }
    let mut sys = init(tracer, acc);
    acc.setup_ns = acc.init_ns.clone();
    let mut gen = Generator::new(seed);
    let mut sampled = Fnv::default();
    let workload_span = tracer.begin("workload");
    let window = stopwatch();
    let mut step = 0u64;
    loop {
        let traced = traced_now(tracer, trace, step);
        let in_prefix = step < spec.min_steps as u64;
        acc.timing = step >= spec.warmup as u64;
        tracer.set_request(step);
        let iteration = stopwatch();
        let step_span = tracer.begin("step");

        let live = sys.node_ids();
        let leaves = gen.leaves(&live, spec.leaves);
        let honesty = gen.join_honesty(spec.joins, HONEST_SHARE);
        let input = BatchInput::from_flags(&honesty, &leaves);
        out.attempted += (honesty.len() + leaves.len()) as u64;

        let before = Counters::read(&sys);
        let span = tracer.begin("core.step_batch");
        let sw = stopwatch();
        let report = sys.step_batch(&input, &spec.exec);
        let busy = sw.elapsed_nanos();
        tracer.end(span);
        let mut work = before.until(&Counters::read(&sys));
        work.steps = 1;
        work.ops = (report.joined.len() + report.left.len()) as u64;
        work.busy_ns = busy;
        work.rejected = report.rejected.len() as u64;
        work.redraws = report.contact_redraws;
        work.waves = report.waves.len() as u64;
        work.wave_ops = report.waves.iter().map(|w| w.ops as u64).sum();
        if acc.timing {
            acc.step_ms.push(busy as f64 / 1e6);
            acc.ops_per_s
                .push(ratio(work.ops as f64 * 1e9, busy as f64));
        }
        for (node, err) in &report.rejected {
            out.fail(format!("step {step}: leave of {node} rejected: {err}"));
        }
        if report.joined.len() != honesty.len() {
            out.fail(format!(
                "step {step}: {} of {} joins admitted",
                report.joined.len(),
                honesty.len()
            ));
        }

        let origins = gen.origins(&sys.cluster_ids(), spec.reads);
        let read_hash = read_samples(
            &mut sys,
            &origins,
            &format!("step {step}"),
            tracer,
            acc,
            out,
            &mut work,
        );
        if in_prefix {
            sampled.write_u64(read_hash);
        }
        tracer.end(step_span);
        work.loop_ns = iteration.elapsed_nanos();

        if in_prefix {
            let audit = sys.audit();
            acc.peak_byz = acc.peak_byz.max(audit.worst_byz_fraction);
            work.violations = u64::from(!audit.invariant_ok());
            acc.prefix.add(&work);
            if step + 1 == spec.min_steps as u64 {
                out.digest = system_digest(&sys, sampled.finish());
                acc.clusters = sys.cluster_count();
            }
        }
        acc.all.add(&work);
        if traced {
            acc.traced.add(&work);
        } else {
            acc.untraced.add(&work);
        }
        step += 1;
        let spent = window.elapsed_nanos() >= window_ns;
        if step >= spec.min_steps as u64 && spent && (!trace || step >= 2) {
            break;
        }
    }
    tracer.set_enabled(trace);
    tracer.end(workload_span);
    check_system(&sys, tracer, out);
    let fast =
        |values: &[f64], pct: f64| stats::percentile(&stats::sorted(values), pct).unwrap_or(0.0);
    acc.fast = Fast {
        ops_per_s: fast(&acc.ops_per_s, 100.0 - FAST_PCT),
        step_ms: fast(&acc.step_ms, FAST_PCT),
        read_us: fast(&acc.read_us, FAST_PCT),
    };
    Ok(())
}

fn run_campaign(
    spec: &CampaignSpec,
    seed: u64,
    window_ns: u64,
    tracer: &mut Tracer,
    out: &mut Outcome,
    acc: &mut Acc,
) -> Result<(), String> {
    let trace = tracer.enabled();
    let distinct = spec.campaigns.max(1) as u64;
    let text = |round: u64| {
        campaign_text(
            campaign_seed(seed, round % distinct),
            spec.initial_population,
            spec.scale,
        )
    };
    let setup =
        |text: &str, tracer: &mut Tracer, acc: &mut Acc| -> Result<(Campaign, NowSystem), String> {
            let span = tracer.begin("campaign.parse");
            let sw = stopwatch();
            let campaign = Campaign::parse(text).map_err(|e| e.to_string())?;
            let parse = sw.elapsed_nanos();
            tracer.end(span);
            let span = tracer.begin("campaign.build_system");
            let sw = stopwatch();
            let sys = campaign.build_system().map_err(|e| e.to_string())?;
            let build = sw.elapsed_nanos();
            tracer.end(span);
            acc.parse_ns.push(parse);
            acc.build_ns.push(build);
            acc.init_ns.push(build);
            acc.setup_ns.push(parse + build);
            Ok((campaign, sys))
        };
    let first = text(0);
    for _ in 0..spec.setups {
        drop(setup(&first, tracer, acc)?);
    }
    let workload_span = tracer.begin("workload");
    let mut campaigns = Fnv::default();
    // The first pass pushes one entry per campaign, in order. Every
    // round is timed: the fastest repeat leaves the cold first run out.
    let mut best: Vec<Repeat> = Vec::with_capacity(distinct as usize);
    acc.timing = true;
    let window = stopwatch();
    let mut round = 0u64;
    loop {
        let traced = traced_now(tracer, trace, round);
        let in_prefix = round < distinct;
        tracer.set_request(round);
        let iteration = stopwatch();
        let round_span = tracer.begin("step");
        let (campaign, mut sys) = setup(&text(round), tracer, acc)?;

        let before = Counters::read(&sys);
        let span = tracer.begin("campaign.run_on");
        let sw = stopwatch();
        let report = campaign.run_on(&mut sys, THREADS);
        let run = sw.elapsed_nanos();
        tracer.end(span);
        let report = report.map_err(|e| e.to_string())?;
        let mut work = before.until(&Counters::read(&sys));
        let span = tracer.begin("campaign.to_json");
        let sw = stopwatch();
        let json = report.to_json();
        let to_json = sw.elapsed_nanos();
        tracer.end(span);
        acc.run_ns.push(run);
        acc.json_ns.push(to_json);
        absorb_phases(&report, &mut work);
        work.busy_ns = run + to_json;
        out.attempted += work.ops + work.rejected + work.dropped;
        acc.step_ms.push(ratio(run as f64 / 1e6, work.steps as f64));
        acc.ops_per_s
            .push(ratio(work.ops as f64 * 1e9, work.busy_ns as f64));
        for p in &report.phases {
            if p.rejected > 0 {
                out.fail(format!(
                    "round {round}: phase {} rejected {} leaves",
                    p.name, p.rejected
                ));
            }
            if p.sent != p.delivered + p.dropped {
                out.fail(format!(
                    "round {round}: phase {} sent {} != delivered {} + dropped {}",
                    p.name, p.sent, p.delivered, p.dropped
                ));
            }
        }

        // Reads on the campaign's final overlay.
        let origins = Generator::new(campaign_seed(seed, round % distinct))
            .origins(&sys.cluster_ids(), spec.reads);
        let read_hash = read_samples(
            &mut sys,
            &origins,
            &format!("round {round}"),
            tracer,
            acc,
            out,
            &mut work,
        );
        check_system(&sys, tracer, out);
        tracer.end(round_span);
        work.loop_ns = iteration.elapsed_nanos();

        let this = Repeat {
            outcome: hash_str(&json) ^ read_hash.rotate_left(1),
            ops: work.ops,
            steps: work.steps,
            reads: work.samples,
            busy_ns: work.busy_ns,
            run_ns: run,
            read_ns: work.sample_ns,
        };
        match best.get_mut((round % distinct) as usize) {
            None => best.push(this),
            Some(first) if first.outcome != this.outcome => out.fail(format!(
                "round {round}: repeated campaign {} gave another outcome than its first run",
                round % distinct
            )),
            Some(first) => first.keep_fastest(&this),
        }

        if in_prefix {
            campaigns.write_u64(hash_str(&json));
            campaigns.write_u64(read_hash);
            acc.prefix.add(&work);
            acc.peak_byz = report
                .phases
                .iter()
                .map(|p| p.peak_byz_fraction)
                .fold(acc.peak_byz, f64::max);
            if round + 1 == distinct {
                out.digest = system_digest(&sys, campaigns.finish());
                acc.clusters = sys.cluster_count();
                acc.recorder_bytes = report.trace.as_ref().map_or(0, String::len);
                acc.metrics_bytes = report.metrics.as_ref().map_or(0, String::len);
            }
        }
        acc.all.add(&work);
        if traced {
            acc.traced.add(&work);
        } else {
            acc.untraced.add(&work);
        }
        round += 1;
        let spent = window.elapsed_nanos() >= window_ns;
        if round >= distinct && spent && (!trace || round >= 2) {
            break;
        }
    }
    tracer.set_enabled(trace);
    tracer.end(workload_span);
    let mut sum = Repeat::default();
    for r in &best {
        sum.ops += r.ops;
        sum.steps += r.steps;
        sum.reads += r.reads;
        sum.busy_ns += r.busy_ns;
        sum.run_ns += r.run_ns;
        sum.read_ns += r.read_ns;
    }
    acc.fast = Fast {
        ops_per_s: ratio(sum.ops as f64 * 1e9, sum.busy_ns as f64),
        step_ms: ratio(sum.run_ns as f64 / 1e6, sum.steps as f64),
        read_us: ratio(sum.read_ns as f64 / 1e3, sum.reads as f64),
    };
    Ok(())
}

/// One campaign's work and the fastest of its repeats' timings. Each
/// campaign of a run is repeated with the same inputs, so the fastest
/// repeat is the program's time when the host did not slow it.
#[derive(Debug, Clone, Copy, Default)]
struct Repeat {
    /// Hash of the report JSON and the sampled nodes; repeats must agree.
    outcome: u64,
    ops: u64,
    steps: u64,
    reads: u64,
    /// `run_on` + `to_json`.
    busy_ns: u64,
    run_ns: u64,
    read_ns: u64,
}

impl Repeat {
    fn keep_fastest(&mut self, other: &Repeat) {
        self.busy_ns = self.busy_ns.min(other.busy_ns);
        self.run_ns = self.run_ns.min(other.run_ns);
        self.read_ns = self.read_ns.min(other.read_ns);
    }
}

/// The seed of campaign `index` of a run: a run cycles through several
/// campaigns, so it averages over them.
fn campaign_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(1 << 20).wrapping_add(index)
}

/// Times one `sample_node` read per origin, checks that each returns a
/// live node, and adds the reads to `work`. Returns a hash of the
/// sampled nodes.
fn read_samples(
    sys: &mut NowSystem,
    origins: &[ClusterId],
    at: &str,
    tracer: &mut Tracer,
    acc: &mut Acc,
    out: &mut Outcome,
    work: &mut Work,
) -> u64 {
    out.attempted += origins.len() as u64;
    let mut sampled = Fnv::default();
    let before = Counters::read(sys);
    let mut batch_ns = 0;
    for &origin in origins {
        let span = tracer.begin("apps.sample_node");
        let sw = stopwatch();
        let sample = sample_node(sys, origin);
        let ns = sw.elapsed_nanos();
        tracer.end(span);
        batch_ns += ns;
        if acc.timing {
            acc.sample_us.push(ns as f64 / 1e3);
        }
        if !sys.registry().contains(sample.node) {
            out.fail(format!(
                "{at}: sample_node returned dead node {}",
                sample.node
            ));
        }
        sampled.write_u64(sample.node.raw());
    }
    if acc.timing && !origins.is_empty() {
        acc.read_us
            .push(batch_ns as f64 / 1e3 / origins.len() as f64);
    }
    let reads = before.until(&Counters::read(sys));
    work.sample_ns += batch_ns;
    work.samples += origins.len() as u64;
    work.sample_draws += reads.draws;
    work.sample_walks += reads.walks;
    sampled.finish()
}

/// Folds a campaign's per-phase outcome into `work`.
fn absorb_phases(report: &CampaignReport, work: &mut Work) {
    for p in &report.phases {
        work.steps += p.steps;
        work.ops += p.joins + p.leaves;
        work.rejected += p.rejected;
        work.waves += p.waves;
        work.sent += p.sent;
        work.delivered += p.delivered;
        work.dropped += p.dropped;
        work.violations += p.binding_violations as u64;
    }
    work.wave_ops = work.ops;
}

/// The output checks every workload ends with.
fn check_system(sys: &NowSystem, tracer: &mut Tracer, out: &mut Outcome) {
    let span = tracer.begin("core.check_consistency");
    let consistent = sys.check_consistency();
    tracer.end(span);
    if let Err(e) = consistent {
        out.fail(format!("check_consistency: {e}"));
    }
    if let Err(e) = sys.registry().check_invariants() {
        out.fail(format!("registry invariants: {e}"));
    }
    if !sys.ledger().is_balanced() {
        out.fail("ledger has open spans".to_string());
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median_u64(values: &[u64]) -> f64 {
    let v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
    stats::median(&v).unwrap_or(0.0)
}

fn finish(out: &mut Outcome, acc: &Acc) {
    let (p, a) = (&acc.prefix, &acc.all);
    let sorted_samples = stats::sorted(&acc.sample_us);
    let step_tail = stats::tail(&acc.step_ms);
    let sample_tail = stats::tail(&acc.sample_us);
    let loop_ops_per_s = |w: &Work| ratio(w.ops as f64 * 1e9, w.loop_ns as f64);
    let e2e = [
        acc.fast.ops_per_s,
        acc.fast.step_ms,
        acc.fast.read_us,
        ratio(p.msgs as f64, p.ops as f64),
        acc.peak_rss_mb,
        median_u64(&acc.setup_ns) / 1e9,
    ];
    out.end_to_end = END_TO_END
        .iter()
        .zip(e2e)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            value,
            unit,
        })
        .collect();

    let per_op = |x: u64| ratio(x as f64, p.ops as f64);
    let untraced = loop_ops_per_s(&acc.untraced);
    let traced = loop_ops_per_s(&acc.traced);
    let layer = [
        per_op(p.draws),
        per_op(p.walks),
        per_op(p.exchanges),
        ratio(a.busy_ns as f64, a.draws as f64),
        ratio(a.busy_ns as f64 / 1e6, a.ops as f64),
        per_op(p.splits),
        per_op(p.merges),
        p.rejected as f64,
        p.redraws as f64,
        median_u64(&acc.init_ns) / 1e9,
        acc.step_ms.len() as f64,
        stats::median(&acc.step_ms).unwrap_or(0.0),
        step_tail.map_or(0.0, |t| t.value),
        step_tail.map_or(0.0, |t| t.pct),
        ratio(a.plan_ns as f64, a.busy_ns as f64),
        ratio(a.plan_ns as f64 / 1e6, a.ops as f64),
        ratio(
            a.busy_ns.saturating_sub(a.plan_ns) as f64 / 1e6,
            a.ops as f64,
        ),
        ratio(a.spawns as f64, a.steps as f64),
        ratio(p.wave_ops as f64, p.waves as f64),
        ratio(p.waves as f64, p.steps as f64),
        acc.sample_us.len() as f64,
        stats::percentile(&sorted_samples, 50.0).unwrap_or(0.0),
        ratio(p.sample_walks as f64, p.samples as f64),
        ratio(p.sample_draws as f64, p.samples as f64),
        ratio(a.sample_ns as f64, a.sample_draws as f64),
        sample_tail.map_or(0.0, |t| t.value),
        sample_tail.map_or(0.0, |t| t.pct),
        p.sent as f64,
        p.delivered as f64,
        p.dropped as f64,
        ratio(p.delivered as f64, p.sent as f64),
        acc.clusters as f64,
        median_u64(&acc.parse_ns) / 1e6,
        median_u64(&acc.build_ns) / 1e9,
        median_u64(&acc.run_ns) / 1e9,
        median_u64(&acc.json_ns) / 1e6,
        acc.run_ns.len() as f64,
        acc.peak_byz,
        p.violations as f64,
        acc.recorder_bytes as f64,
        acc.metrics_bytes as f64,
        ratio(out.failures.len() as f64, out.attempted as f64),
        ratio((untraced - traced) * 100.0, untraced),
        out.spans.iter().filter(|s| s.name == "step").count() as f64,
    ];
    out.per_layer = PER_LAYER
        .iter()
        .zip(layer)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            value,
            unit,
        })
        .collect();
    let by_name = crate::spans::self_time_by_name(&out.spans);
    for name in SPAN_NAMES {
        let (count, total) = by_name.get(name).copied().unwrap_or((0, 0));
        out.per_layer.push(Metric {
            name: format!("span.{name}.self_ms"),
            value: ratio(total as f64 / 1e6, count as f64),
            unit: "ms",
        });
    }

    out.notes.push(format!(
        "steps: n={} fast={:.3} p50={:.3} ms tail p{}={:.3} ms; read batches: n={}; \
         reads: n={} p50={:.3} us tail p{}={:.3} us; \
         set-ups: n={}; prefix: {} steps, {} ops; timed: {} ops",
        acc.step_ms.len(),
        acc.fast.step_ms,
        stats::median(&acc.step_ms).unwrap_or(0.0),
        step_tail.map_or(0.0, |t| t.pct),
        step_tail.map_or(0.0, |t| t.value),
        acc.read_us.len(),
        acc.sample_us.len(),
        stats::percentile(&sorted_samples, 50.0).unwrap_or(0.0),
        sample_tail.map_or(0.0, |t| t.pct),
        sample_tail.map_or(0.0, |t| t.value),
        acc.setup_ns.len(),
        p.steps,
        p.ops,
        a.ops,
    ));
}
