//! Regenerates every experiment table recorded in EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p trienum-bench --bin reproduce            # all experiments
//! cargo run --release -p trienum-bench --bin reproduce -- --exp e2 --quick
//! cargo run --release -p trienum-bench --bin reproduce -- --json bench-records
//! ```
//!
//! The binary walks the library's `EXPERIMENTS` table and knows nothing of
//! any one experiment: for each selected entry it prints the outcome's
//! tables, prints every gate as `NAME measured/limit (headroom %)` and,
//! with `--json <dir>`, writes the outcome's records (`BENCH_E<k>.json`,
//! plus `E9_FAULT_TRACE.json`) into `dir` — CI uploads these and diffs the
//! quick ones against the committed baseline. `--quick` shrinks the
//! instance sizes (CI smoke runs); the default sizes are the ones
//! EXPERIMENTS.md records. Gate failures and record-write failures are
//! all reported after every selected experiment has run, then the process
//! exits 1. An unknown argument or experiment name, or a flag missing its
//! value, exits 2 with a usage line.

use std::path::PathBuf;
use trienum_bench::{render_phase_peaks, render_table, write_records, EXPERIMENTS};

/// What the command line asked for.
#[derive(Debug, Default, PartialEq)]
struct Args {
    quick: bool,
    /// The one experiment `--exp` selected; all of them when `None`.
    only: Option<String>,
    json_dir: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
    format!(
        "usage: reproduce [--quick] [--exp {}] [--json <dir>]",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--exp" => {
                let name = value()?.to_lowercase();
                if !EXPERIMENTS.iter().any(|&(known, _)| known == name) {
                    return Err(format!("unknown experiment '{name}'"));
                }
                parsed.only = Some(name);
            }
            "--json" => parsed.json_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args).unwrap_or_else(|err| {
        eprintln!("reproduce: {err}\n{}", usage());
        std::process::exit(2);
    });

    println!("trienum experiment harness — reproducing the claims of");
    println!(
        "Pagh & Silvestri, \"The Input/Output Complexity of Triangle Enumeration\" (PODS 2014)"
    );
    println!("(simulated external-memory machine; every I/O is an exact block-transfer count)");

    let mut failures: Vec<String> = Vec::new();
    let selected = EXPERIMENTS
        .into_iter()
        .filter(|&(name, _)| args.only.as_deref().is_none_or(|only| only == name));
    for (name, run) in selected {
        let outcome = run(args.quick);
        println!("{}", render_table(&outcome.title, &outcome.rows));
        let heading = name.to_uppercase();
        if !outcome.phase_peaks.is_empty() {
            let title = format!("{heading}: per-phase gauge peaks");
            println!("{}", render_phase_peaks(&title, &outcome.phase_peaks));
        }
        if !outcome.timing.is_empty() {
            let title = format!("{heading}: wall-clock (the record's timing section)");
            println!("{}", render_table(&title, &outcome.timing));
        }
        for gate in &outcome.gates {
            let verdict = if gate.passed { "pass" } else { "FAIL" };
            println!("{verdict} {gate}: {}", gate.detail);
            if !gate.passed {
                failures.push(format!("{name} {gate}: {}", gate.detail));
            }
        }
        if let Some(dir) = &args.json_dir {
            match write_records(dir, name, &outcome) {
                Ok(paths) => {
                    for path in paths {
                        println!("wrote {}", path.display());
                    }
                }
                // Collected, not fatal: the remaining experiments (and their
                // gate verdicts) must still run and be reported.
                Err(err) => failures.push(format!("writing the {name} records: {err}")),
            }
        }
    }

    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("FAILED: {failure}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn valid_arguments_parse_in_any_order() {
        assert_eq!(
            parse(&["--json", "records", "--exp", "E3", "--quick"]),
            Ok(Args {
                quick: true,
                only: Some("e3".to_string()),
                json_dir: Some(PathBuf::from("records")),
            })
        );
        assert_eq!(parse(&[]), Ok(Args::default()));
    }

    #[test]
    fn unknown_experiment_names_are_rejected() {
        let err = parse(&["--exp", "e99"]).unwrap_err();
        assert!(err.contains("unknown experiment 'e99'"), "{err}");
        assert!(usage().contains("e1|e2|e3|e4|e5|e6|e7|e8|e9|e10|e11"));
    }

    #[test]
    fn flags_missing_their_value_are_rejected() {
        for args in [
            &["--quick", "--json"][..],
            &["--json", "--quick"],
            &["--exp"],
            &["--exp", "--quick"],
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("needs a value"), "{args:?}: {err}");
        }
    }

    #[test]
    fn unknown_flags_and_stray_arguments_are_rejected() {
        for args in [&["--quik"][..], &["--quick", "e3"], &["-q"]] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("unknown argument"), "{args:?}: {err}");
        }
    }
}
