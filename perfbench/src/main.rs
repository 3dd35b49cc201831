//! The repository's benchmark: a single-process, closed-loop harness with
//! one client that calls `trienum::enumerate_triangles_on` or
//! `trienum::enumerate_triangles_sharded` back to back on one named
//! workload, verifies every result against `graphgen::naive`, and prints
//! metrics.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --list-metrics     # every metric, its layer and what it moves
//! perfbench --benchmark-json   # the BENCHMARK.json this table generates
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! loop with spans on every other iteration, adds the per-layer probes,
//! writes the spans to `perfbench/out/`, and prints the per-layer metrics.
//! The last line of standard output is one JSON object.

mod bench;
mod catalogue;
mod probes;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench::{Outcome, Settings};
use probes::ProbeSizes;

struct Args {
    workload: &'static workload::Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn usage() -> String {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed N (default {})] [--seconds S (default {})] [--trace 0|1]\n       perfbench --list-metrics | --benchmark-json",
        names.join("|"),
        workload::DEFAULT_SEED,
        catalogue::RUN_SECONDS
    )
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = workload::DEFAULT_SEED;
    let mut seconds = catalogue::RUN_SECONDS as f64;
    let mut traced = false;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(workload::find(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err("--seconds must be within 0..=3600".into());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        traced,
    })
}

/// The last stdout line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(o: &Outcome, traced: bool) -> String {
    let metrics: Vec<String> = catalogue::metrics(traced)
        .iter()
        .map(|m| {
            let v = o.metrics.get(m.name);
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    match argv.peek().map(String::as_str) {
        Some("--list-metrics") => {
            print!("{}", catalogue::describe());
            return ExitCode::SUCCESS;
        }
        Some("--benchmark-json") => {
            print!("{}", catalogue::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some("--help" | "-h") => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    // Disk-plane machines put their backing files in the temp directory;
    // point it at a private directory inside the benchmark's own tree.
    let scratch = out_dir().join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    std::env::set_var("TMPDIR", &scratch);

    let settings = Settings {
        seconds: args.seconds,
        traced: args.traced,
        probes: ProbeSizes::FULL,
        trace_out: args.traced.then(|| {
            out_dir().join(format!(
                "trace-{}-seed{}.json",
                args.workload.name, args.seed
            ))
        }),
        scratch: scratch.clone(),
    };
    let outcome = bench::run(args.workload, args.seed, &settings);
    let _ = std::fs::remove_dir_all(&scratch);

    for line in &outcome.lines {
        println!("{line}");
    }
    for m in catalogue::metrics(args.traced) {
        println!(
            "{:<46} {:>20} {}",
            m.name,
            outcome.metrics.get(m.name),
            m.unit
        );
    }
    println!("{}", result_json(&outcome, args.traced));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const TINY: ProbeSizes = ProbeSizes {
        words: 1 << 14,
        gets: 256,
        blocks: 64,
        reps: 1,
    };

    #[test]
    fn arguments_parse_with_defaults_and_reject_junk() {
        let args = |v: &[&str]| parse(v.iter().map(|s| (*s).to_string()));
        let a = args(&["--workload", "derand-er-p2"]).expect("valid");
        assert_eq!(a.workload.name, "derand-er-p2");
        assert_eq!(a.seed, workload::DEFAULT_SEED);
        assert!(!a.traced);
        let a = args(&[
            "--workload",
            "aware-er-mem",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!((a.seed, a.seconds, a.traced), (9, 3.0, true));
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "aware-er-mem", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "aware-er-mem", "--bogus"]).is_err());
    }

    /// Every workload, scaled down, through both modes: the run is correct
    /// and emits exactly the catalogue's metric names, which are the names
    /// in BENCHMARK.json.
    #[test]
    fn every_workload_emits_exactly_the_catalogued_metrics() {
        let scratch = out_dir().join(format!("test-tmp-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).expect("create scratch dir");
        std::env::set_var("TMPDIR", &scratch);
        for w in &workload::WORKLOADS {
            let small = w.scaled(w.edges / 64);
            for traced in [false, true] {
                let settings = Settings {
                    seconds: 0.0,
                    traced,
                    probes: TINY,
                    scratch: scratch.clone(),
                    trace_out: None,
                };
                let o = bench::run(&small, 3, &settings);
                assert!(o.correct, "{} traced={traced}: {:?}", w.name, o.lines);
                assert_eq!(o.failed, 0);
                assert!(o.attempted >= 3);
                let emitted: BTreeSet<&str> = o.metrics.names().collect();
                let expected: BTreeSet<&str> =
                    catalogue::metrics(traced).iter().map(|m| m.name).collect();
                assert_eq!(emitted, expected, "{} traced={traced}", w.name);
                let json = result_json(&o, traced);
                assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
                if !traced {
                    for m in &catalogue::END_TO_END {
                        assert!(o.metrics.get(m.name) > 0.0, "{} is 0 on {}", m.name, w.name);
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
