//! Regenerates every experiment table recorded in EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p trienum-bench --bin reproduce            # all experiments
//! cargo run --release -p trienum-bench --bin reproduce -- --exp e2 --quick
//! cargo run --release -p trienum-bench --bin reproduce -- --json bench-records
//! ```
//!
//! `--quick` shrinks the instance sizes (useful for CI smoke runs); the
//! default sizes are the ones EXPERIMENTS.md records. `--json <dir>` writes
//! one machine-readable `BENCH_E<k>.json` record per executed experiment
//! (rows plus gate verdicts) into `dir` — CI uploads these as artifacts so
//! the performance trajectory is tracked run over run. Gate failures and
//! record-write failures are all reported after every selected experiment
//! has run (and its record been attempted), then the process exits
//! non-zero.

use trienum_bench::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let selected: Option<String> = args
        .iter()
        .position(|a| a == "--exp")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.to_lowercase());
    let json_dir: Option<std::path::PathBuf> = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    let want = |name: &str| selected.as_deref().is_none_or(|s| s == name);

    let mut failures: Vec<String> = Vec::new();
    fn write_record(
        json_dir: &Option<std::path::PathBuf>,
        experiment: &str,
        title: &str,
        rows: &[Row],
        phase_peaks: &[PhasePeakRow],
        gates: &[GateOutcome],
        failures: &mut Vec<String>,
    ) {
        if let Some(dir) = json_dir {
            match write_experiment_record(dir, experiment, title, rows, phase_peaks, gates) {
                Ok(path) => println!("wrote {}", path.display()),
                // Collected, not fatal: the remaining experiments (and their
                // gate verdicts) must still run and be reported.
                Err(err) => failures.push(format!("writing the {experiment} record: {err}")),
            }
        }
    }

    println!("trienum experiment harness — reproducing the claims of");
    println!(
        "Pagh & Silvestri, \"The Input/Output Complexity of Triangle Enumeration\" (PODS 2014)"
    );
    println!("(simulated external-memory machine; every I/O is an exact block-transfer count)");

    if want("e1") {
        let sizes: &[usize] = if quick {
            &[2_000, 4_000]
        } else {
            &[4_000, 8_000, 16_000, 32_000]
        };
        let rows = experiment_e1(sizes, true);
        let title = "E1: I/O scaling in E (ER graphs, M=4096, B=64)";
        println!("{}", render_table(title, &rows));
        write_record(&json_dir, "e1", title, &rows, &[], &[], &mut failures);
    }
    if want("e2") {
        // Quick mode includes E/M = 8 so the crossover gate (which starts
        // there) is exercised by the CI smoke run too.
        let ratios: &[usize] = if quick {
            &[4, 8, 16]
        } else {
            &[4, 8, 16, 32, 64]
        };
        let (rows, peaks) = experiment_e2(ratios);
        let title = "E2: measured vs predicted improvement over Hu-Tao-Chung (M=512, B=32)";
        println!("{}", render_table(title, &rows));
        println!(
            "{}",
            render_phase_peaks("E2: per-phase gauge peaks", &peaks)
        );
        // I/O-budget gate (wired into CI through the --quick smoke run and
        // the full-size --exp e2 step): fail loudly if the cache-aware path
        // regresses toward its old per-triple step-3 constant or loses the
        // crossover against Hu-Tao-Chung.
        let verdict = check_e2_io_budget(&rows);
        let peak_verdict = check_phase_peak_budgets(&peaks);
        write_record(
            &json_dir,
            "e2",
            title,
            &rows,
            &peaks,
            &[
                GateOutcome::of("CACHE_AWARE_IO_CEILING", &verdict),
                GateOutcome::of("PHASE_PEAK_BUDGET", &peak_verdict),
            ],
            &mut failures,
        );
        match verdict {
            Ok(()) => println!(
                "io-budget gate: cache-aware io/bound within ceiling \
                 {CACHE_AWARE_IO_CEILING}, crossover >= 1.0 from E/M = \
                 {CACHE_AWARE_CROSSOVER_FROM}"
            ),
            Err(msg) => failures.push(format!("E2 io-budget gate: {msg}")),
        }
        match peak_verdict {
            Ok(()) => println!("phase-peak gate: every cache-aware phase within 2M words"),
            Err(msg) => failures.push(format!("E2 phase-peak gate: {msg}")),
        }
    }
    if want("e3") {
        let configs: &[(usize, usize)] = if quick {
            &[(1 << 10, 32), (1 << 13, 32)]
        } else {
            &[
                (1 << 9, 32),
                (1 << 10, 32),
                (1 << 12, 32),
                (1 << 14, 32),
                (1 << 12, 64),
                (1 << 12, 128),
                (1 << 14, 128),
            ]
        };
        let e = if quick { 4_000 } else { 12_000 };
        let (rows, peaks) = experiment_e3(e, configs);
        let title = format!("E3: cache-obliviousness — one binary, E={e}, varying (M, B)");
        println!("{}", render_table(&title, &rows));
        println!(
            "{}",
            render_phase_peaks("E3: per-phase gauge peaks", &peaks)
        );
        // I/O-budget gate (wired into CI through the --quick smoke run and
        // the full-size --exp e3 step): fail loudly if the cache-oblivious
        // path regresses toward its pre-rewrite normalised-I/O band.
        let verdict = check_e3_io_budget(&rows);
        let peak_verdict = check_phase_peak_budgets(&peaks);
        write_record(
            &json_dir,
            "e3",
            &title,
            &rows,
            &peaks,
            &[
                GateOutcome::of("CACHE_OBLIVIOUS_IO_CEILING", &verdict),
                GateOutcome::of("PHASE_PEAK_BUDGET", &peak_verdict),
            ],
            &mut failures,
        );
        match verdict {
            Ok(()) => println!(
                "io-budget gate: cache-oblivious io/bound within ceiling \
                 {CACHE_OBLIVIOUS_IO_CEILING}"
            ),
            Err(msg) => failures.push(format!("E3 io-budget gate: {msg}")),
        }
        match peak_verdict {
            Ok(()) => println!(
                "phase-peak gate: every cache-oblivious phase within \
                 {CACHE_OBLIVIOUS_WORDS_PER_LEVEL} words per tree level plus one leaf"
            ),
            Err(msg) => failures.push(format!("E3 phase-peak gate: {msg}")),
        }
    }
    if want("e4") {
        let sizes: &[usize] = if quick { &[40, 60] } else { &[40, 60, 80, 100] };
        let rows = experiment_e4(sizes);
        let title = "E4: optimality vs the Theorem 3 lower bound (cliques, M=512, B=32)";
        println!("{}", render_table(title, &rows));
        write_record(&json_dir, "e4", title, &rows, &[], &[], &mut failures);
    }
    if want("e5") {
        let sizes: &[usize] = if quick { &[4_000] } else { &[8_000, 16_000] };
        let rows = experiment_e5(sizes);
        let title = "E5: derandomization — colour balance and I/O cost";
        println!("{}", render_table(title, &rows));
        write_record(&json_dir, "e5", title, &rows, &[], &[], &mut failures);
    }
    if want("e6") {
        let groups: &[usize] = if quick { &[40] } else { &[40, 120] };
        let rows = experiment_e6(groups);
        let title = "E6: the 5NF Sells join as triangle enumeration";
        println!("{}", render_table(title, &rows));
        write_record(&json_dir, "e6", title, &rows, &[], &[], &mut failures);
    }
    if want("e7") {
        let sizes: &[usize] = if quick { &[4_000] } else { &[8_000, 16_000] };
        let (rows, peaks) = experiment_e7(sizes);
        let title = "E7: work optimality (operations vs E^1.5)";
        println!("{}", render_table(title, &rows));
        println!(
            "{}",
            render_phase_peaks("E7: per-phase gauge peaks", &peaks)
        );
        // Work-budget gate (wired into CI through the --quick smoke run):
        // fail loudly if the cache-oblivious path regresses toward its old
        // per-level constants.
        let verdict = check_e7_work_budget(&rows);
        let peak_verdict = check_phase_peak_budgets(&peaks);
        write_record(
            &json_dir,
            "e7",
            title,
            &rows,
            &peaks,
            &[
                GateOutcome::of("CACHE_OBLIVIOUS_WORK_CEILING", &verdict),
                GateOutcome::of("PHASE_PEAK_BUDGET", &peak_verdict),
            ],
            &mut failures,
        );
        match verdict {
            Ok(()) => println!(
                "work-budget gate: cache-oblivious work/E^1.5 within ceiling \
                 {CACHE_OBLIVIOUS_WORK_CEILING}"
            ),
            Err(msg) => failures.push(format!("E7 work-budget gate: {msg}")),
        }
        match peak_verdict {
            Ok(()) => println!("phase-peak gate: every phase within its declared budget"),
            Err(msg) => failures.push(format!("E7 phase-peak gate: {msg}")),
        }
    }
    if want("e8") {
        let (e, trials) = if quick { (4_000, 10) } else { (16_000, 30) };
        let rows = experiment_e8(e, trials);
        let title = "E8: Lemma 3 — E[X_xi] <= E*M over random 4-wise colourings";
        println!("{}", render_table(title, &rows));
        write_record(&json_dir, "e8", title, &rows, &[], &[], &mut failures);
    }

    if want("e9") {
        let outcome = experiment_e9(quick);
        let title = "E9: chaos — crash sweep, retry/backoff, checkpoint/resume (M=1024, B=32)";
        // The control row and the sweep rows have different columns, so they
        // render as separate tables (the JSON record keeps them together).
        println!("{}", render_table(title, &outcome.rows[..1]));
        println!(
            "{}",
            render_table(
                "E9: crash sweep (one row per injected crash point)",
                &outcome.rows[1..]
            )
        );
        // The chaos gates (wired into CI through the dedicated chaos job):
        // every injected crash point must resume to the reference run's
        // exact triangle multiset with exactly-once delivery, bounded
        // retries, no leaked leases, and recovery I/O within the budget —
        // and the fault layer must cost nothing when unused.
        for gate in &outcome.gates {
            match gate.passed {
                true => println!("{} gate: {}", gate.name, gate.detail),
                false => failures.push(format!("E9 {} gate: {}", gate.name, gate.detail)),
            }
        }
        write_record(
            &json_dir,
            "e9",
            title,
            &outcome.rows,
            &[],
            &outcome.gates,
            &mut failures,
        );
        if let Some(dir) = &json_dir {
            match write_fault_trace_record(dir, &outcome.fault_trace) {
                Ok(path) => println!("wrote {}", path.display()),
                Err(err) => failures.push(format!("writing the e9 fault trace: {err}")),
            }
        }
    }

    if want("e10") {
        let outcome = experiment_e10(quick);
        let title = "E10: multi-worker PEM sweep — P in {1,2,4,8}, per-worker machines";
        println!("{}", render_table(title, &outcome.rows));
        println!(
            "{}",
            render_table(
                "E10: per-worker I/O (sorted by worker index)",
                &outcome.worker_rows
            )
        );
        // Wall-clock is printed but deliberately kept out of the JSON
        // record: timing is machine-dependent, the record is byte-stable.
        println!(
            "{}",
            render_table(
                "E10: wall-clock (stdout only, not recorded)",
                &outcome.timing
            )
        );
        for gate in &outcome.gates {
            match gate.passed {
                true => println!("{} gate: {}", gate.name, gate.detail),
                false => failures.push(format!("E10 {} gate: {}", gate.name, gate.detail)),
            }
        }
        let mut recorded = outcome.rows.clone();
        recorded.extend(outcome.worker_rows.iter().cloned());
        write_record(
            &json_dir,
            "e10",
            title,
            &recorded,
            &[],
            &outcome.gates,
            &mut failures,
        );
    }

    if want("e11") {
        let outcome = experiment_e11(quick);
        let title = "E11: sim-vs-disk — in-memory spec vs file-backed witness (M=4096, B=64)";
        println!("{}", render_table(title, &outcome.rows));
        // E11's timings ARE part of the JSON record (measured wall-clock
        // next to simulated I/O is the point of the experiment), so this
        // record is reproducible in its counts but not byte-stable.
        println!(
            "{}",
            render_table("E11: wall-clock (recorded)", &outcome.timing)
        );
        for gate in &outcome.gates {
            match gate.passed {
                true => println!("{} gate: {}", gate.name, gate.detail),
                false => failures.push(format!("E11 {} gate: {}", gate.name, gate.detail)),
            }
        }
        let mut recorded = outcome.rows.clone();
        recorded.extend(outcome.timing.iter().cloned());
        write_record(
            &json_dir,
            "e11",
            title,
            &recorded,
            &[],
            &outcome.gates,
            &mut failures,
        );
    }

    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("gate FAILED: {failure}");
        }
        std::process::exit(1);
    }
}
