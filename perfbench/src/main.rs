//! The benchmark's command line:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints sample counts, the run's deterministic digest and every
//! metric as `name value unit` lines, then, as its last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. The traced
//! run also writes its spans to `.perfbench/spans-<workload>-<seed>.json`.
//! Exits 1 when an output check failed and 2 on a usage or set-up
//! error.

use now_perfbench::spans;
use now_perfbench::workloads::{self, Metric};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds {value} outside (0, 3600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workloads::by_name(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let window_ns = (args.seconds * 1e9) as u64;
    let out = match workloads::run(&workload, args.seed, window_ns, args.trace) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    if args.trace {
        let path = format!(".perfbench/spans-{}-{}.json", args.workload, args.seed);
        let written = std::fs::create_dir_all(".perfbench")
            .and_then(|()| std::fs::write(&path, spans::to_json(&out.spans)));
        match written {
            Ok(()) => println!("spans: {} written to {path}", out.spans.len()),
            Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
        }
    }

    println!("workload {} seed {}", args.workload, args.seed);
    for note in &out.notes {
        println!("{note}");
    }
    println!("digest {}", out.digest);
    for failure in &out.failures {
        println!("FAILED {failure}");
    }
    let metrics = if args.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    for m in metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = out.failures.is_empty() && metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failures.len(),
        metrics
            .iter()
            .map(json_metric)
            .collect::<Vec<_>>()
            .join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn json_metric(m: &Metric) -> String {
    let value = if m.value.is_finite() { m.value } else { 0.0 };
    format!(
        "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
        m.name, m.unit
    )
}
