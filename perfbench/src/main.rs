//! End-to-end and per-layer benchmark of the ROADS discovery service,
//! emulation off.
//!
//! ```text
//! roads-perfbench --workload <live_narrow|live_hot|publish_churn>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload untraced and reports the end-to-end
//! metrics; `--trace 1` runs the separate traced pass and reports the
//! per-layer metrics. Either way the last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `spec.json` beside this crate for what each workload and metric is.

mod inputs;
mod loadgen;
mod stats;
mod timed;
mod traced;

use inputs::{Inputs, Workload};
use std::process::ExitCode;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }

    /// Percentile `p` of ascending latency samples in ms. A percentile
    /// without ten samples beyond it is reported as NaN, which fails the
    /// run.
    pub fn pct(name: &'static str, sorted_ms: &[f64], p: f64) -> Metric {
        let v = stats::percentile(sorted_ms, p).unwrap_or(f64::NAN);
        Metric::new(name, v, "ms", sorted_ms.len())
    }
}

/// What one run measured and checked.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs::generate(args.workload, args.seed);
    let report = match (args.trace, args.workload) {
        (true, _) => traced::run(&inputs, args.seconds),
        (false, Workload::PublishChurn) => timed::publish_churn(&inputs, args.seconds),
        (false, _) => timed::live(&inputs, args.seconds),
    };
    for note in &report.notes {
        println!("# {note}");
    }
    println!(
        "# {:<34} {:>16} {:<6} {:>9}",
        "metric", "value", "unit", "samples"
    );
    for m in &report.metrics {
        println!(
            "# {:<34} {:>16.6} {:<6} {:>9}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    let correct = finite && report.failed == 0 && report.attempted > 0;
    println!("{}", result_json(correct, &report));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: run failed its checks ({} of {} operations failed)",
            report.failed, report.attempted
        );
        ExitCode::FAILURE
    }
}

fn result_json(correct: bool, report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            // Non-finite values are not JSON; the run is already marked
            // incorrect when one appears.
            let v = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}
