//! Command-line entry point:
//!
//! ```text
//! tep-perfbench --workload <ingest|fetch|audit> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable summary, a `context` line describing the run,
//! and as its last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits non-zero when an operation or an output
//! check failed, or when the run could not complete.

use std::path::PathBuf;
use std::process::ExitCode;
use tep_perfbench::{context_json, run, Config, Workload};

fn usage() -> String {
    "usage: tep-perfbench --workload <ingest|fetch|audit> --seed <n> --seconds <s> --trace <0|1>"
        .into()
}

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload {value:?}\n{}", usage()))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1\n{}", usage())),
                })
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let missing = |name: &str| format!("missing {name}\n{}", usage());
    let workload = workload.ok_or_else(|| missing("--workload"))?;
    // Run files go under the build directory of the checkout.
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    Ok(Config::new(
        workload,
        seed.ok_or_else(|| missing("--seed"))?,
        seconds.ok_or_else(|| missing("--seconds"))?,
        trace.ok_or_else(|| missing("--trace"))?,
        base.join(format!("perfbench-run-{}", std::process::id())),
    ))
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{} failed: {e}", cfg.workload.name());
            return ExitCode::from(1);
        }
    };
    for m in &outcome.metrics {
        println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("context {}", context_json(&outcome.context));
    let mut metrics = Vec::with_capacity(outcome.metrics.len());
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            eprintln!("metric {} is not finite: {}", m.name, m.value);
            return ExitCode::from(1);
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if outcome.correct && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
