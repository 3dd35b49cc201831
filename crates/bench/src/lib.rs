//! # trienum-bench — the experiment harness
//!
//! The paper is a theory paper with no measured tables or figures; the
//! "evaluation" this crate reproduces is therefore the set of quantitative
//! claims made by its theorems (see EXPERIMENTS.md). Every experiment has
//! one shape: `experiment_eK` returns an [`Outcome`] (title, count rows,
//! per-phase gauge peaks, gate verdicts, wall-clock timing, fault trace),
//! and every gate verdict is one numeric [`Gate`] — a measured value held
//! against a ceiling, a floor, or (for exactness gates) a violation count
//! of 0. [`EXPERIMENTS`] names each experiment with its quick and full
//! sizes; the `reproduce` binary
//! (`cargo run --release -p trienum-bench --bin reproduce`) walks that
//! table to regenerate every table in EXPERIMENTS.md and, with `--json`,
//! writes one record per experiment through [`write_records`]. Everything
//! in a record except its `timing` section is byte-stable, and CI diffs
//! the quick records against the committed `baseline/quick/` copies.
//! Wall-clock measurement of the paper drivers and of each layer of the
//! machine stack lives in the standalone `perfbench/` package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use emsim::{
    silence_simulated_crash_panics, BackendKind, CrashPoint, EmConfig, FaultEvent, FaultPlan,
    Machine, PhaseSnapshot, RetryPolicy,
};
use graphgen::{generators, naive, Graph};
use std::path::{Path, PathBuf};
use trienum::checkpoint::atomic_write;
use trienum::lower_bound::LowerBound;
use trienum::{
    cache_oblivious_phase_budget, count_triangles, enumerate_triangles, enumerate_triangles_on,
    enumerate_triangles_sharded, enumerate_triangles_with_recovery,
    measure_random_coloring_balance, Algorithm, Checkpoint, CheckpointSpec, CollectingSink,
    ExtGraph, RunReport, ShardPlan,
};

/// One row of an experiment table: a label plus named numeric columns.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (e.g. the parameter value it corresponds to).
    pub label: String,
    /// `(column name, value)` pairs, in display order.
    pub values: Vec<(String, f64)>,
}

impl Row {
    /// Creates a row.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            values: Vec::new(),
        }
    }

    /// Adds a column.
    pub fn col(mut self, name: &str, value: f64) -> Self {
        self.values.push((name.to_string(), value));
        self
    }

    /// The value of column `name`, or NaN when the row lacks it (a NaN
    /// fails every gate that reads it).
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |&(_, v)| v)
    }
}

/// Per-phase peak gauge usage of one run — the dynamic half of the charge
/// accounting. Serialised into the `BENCH_E<k>.json` records (E2, E3, E7)
/// so CI can diff how many working-buffer words each phase had resident at
/// its worst, not just the run-wide maximum.
#[derive(Debug, Clone)]
pub struct PhasePeakRow {
    /// Which run the peaks belong to (same label style as [`Row`]).
    pub case: String,
    /// Declared per-phase budget in words; `None` for ungated baseline runs.
    pub budget_words: Option<u64>,
    /// The gauge snapshots, in phase execution order.
    pub phases: Vec<PhaseSnapshot>,
}

impl PhasePeakRow {
    /// Captures `report`'s phase peaks under `case`, gated by `budget_words`.
    pub fn of(case: impl Into<String>, report: &RunReport, budget_words: Option<u64>) -> Self {
        Self {
            case: case.into(),
            budget_words,
            phases: report.phase_peaks.clone(),
        }
    }
}

/// Per-phase gauge budget for the cache-aware algorithms: the same `2M`
/// slack the whole-run peak assertions in the test-suite allow (the paper's
/// `O(M)` with a small constant).
pub fn cache_aware_phase_budget(cfg: EmConfig) -> u64 {
    2 * cfg.mem_words as u64
}

// The cache-oblivious per-phase budget (`cache_oblivious_phase_budget`,
// imported above) is derived next to the tree it bounds:
// `CACHE_OBLIVIOUS_WORDS_PER_LEVEL` words for each of the `⌈log₄ E⌉ + 1`
// tree levels, plus one in-core leaf's edge list. Like the algorithm, it
// never reads `M` or `B`.

/// Which side of its limit a gate's measured value must stay on.
#[derive(Debug, Clone, Copy)]
pub enum Bound {
    /// Passes when the largest sample is ≤ the limit.
    Ceiling,
    /// Passes when the smallest sample is ≥ the limit.
    Floor,
}

/// One gate verdict: the worst measured value against its limit. Exactness
/// gates measure their violation count against a ceiling of 0.
#[derive(Debug, Clone)]
pub struct Gate {
    /// Gate name, as records and CI show it.
    pub name: String,
    /// The worst sample the gate read; NaN when a sample was missing or
    /// there was none.
    pub measured: f64,
    /// The ceiling or floor.
    pub limit: f64,
    /// The share of the limit left unused (negative on failure); not finite
    /// when the limit is 0.
    pub headroom: f64,
    /// Whether the gate passed.
    pub passed: bool,
    /// Which sample was the worst, or the first violation.
    pub detail: String,
}

/// Formats a gate number: integers without decimals, the rest to three.
fn gate_number(v: f64) -> String {
    if v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

impl Gate {
    /// The one check every gate goes through: the worst of the labelled
    /// `samples` (largest for a ceiling, smallest for a floor; a NaN sample
    /// is the worst of all) against `limit`. A gate that reads no sample
    /// fails, since it measured nothing.
    pub fn check(
        name: &str,
        bound: Bound,
        limit: f64,
        samples: impl IntoIterator<Item = (String, f64)>,
    ) -> Self {
        let badness = |v: f64| match (v.is_nan(), bound) {
            (true, _) => f64::INFINITY,
            (false, Bound::Ceiling) => v,
            (false, Bound::Floor) => -v,
        };
        let worst = samples
            .into_iter()
            .max_by(|a, b| badness(a.1).total_cmp(&badness(b.1)));
        let measured = worst.as_ref().map_or(f64::NAN, |w| w.1);
        let (passed, headroom, verb) = match bound {
            Bound::Ceiling => (
                measured <= limit,
                (limit - measured) / limit,
                "exceeds the ceiling",
            ),
            Bound::Floor => (
                measured >= limit,
                (measured - limit) / limit,
                "is below the floor",
            ),
        };
        let detail = match worst {
            None => "no sample to gate".to_string(),
            Some((case, _)) if passed => format!("worst: {case}"),
            Some((case, v)) if v.is_nan() => format!("{case} is missing"),
            Some((case, v)) => format!("{case} = {} {verb} {}", gate_number(v), gate_number(limit)),
        };
        Self {
            name: name.to_string(),
            measured,
            limit,
            headroom,
            passed,
            detail,
        }
    }

    /// An exactness gate: the number of `violations` against a ceiling of
    /// 0, with the first violation as the detail.
    pub fn exact(name: &str, violations: &[String]) -> Self {
        let count = (String::new(), violations.len() as f64);
        Self {
            detail: violations
                .first()
                .cloned()
                .unwrap_or_else(|| "no violations".to_string()),
            ..Self::check(name, Bound::Ceiling, 0.0, [count])
        }
    }
}

impl std::fmt::Display for Gate {
    /// `NAME measured/limit (headroom %)`, the headroom only where the limit
    /// is not 0.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (measured, limit) = (gate_number(self.measured), gate_number(self.limit));
        write!(f, "{} {measured}/{limit}", self.name)?;
        if self.headroom.is_finite() {
            write!(f, " (headroom {:.0}%)", 100.0 * self.headroom)?;
        }
        Ok(())
    }
}

/// A ceiling or floor on one column of an experiment's rows: the
/// declaration every row-level gate is built from.
pub struct ColumnGate {
    /// Gate name, as records and CI show it.
    pub name: &'static str,
    /// The column the gate reads.
    pub column: &'static str,
    /// Which side of `limit` the column must stay on.
    pub bound: Bound,
    /// The recorded limit.
    pub limit: f64,
    /// Which rows the gate reads; the others are not gated.
    pub reads: fn(&Row) -> bool,
}

impl ColumnGate {
    /// Checks the column of every row the gate reads (a read row lacking the
    /// column fails).
    pub fn check(&self, rows: &[Row]) -> Gate {
        let samples = rows.iter().filter(|row| (self.reads)(row)).map(|row| {
            (
                format!("row '{}' {}", row.label, self.column),
                row.get(self.column),
            )
        });
        Gate::check(self.name, self.bound, self.limit, samples)
    }
}

/// The `PHASE_PEAK_BUDGET` gate: every gated phase's peak words over its
/// declared budget, worst ratio against a ceiling of 1.0. Ungated rows
/// (`budget_words: None`) are skipped.
pub fn phase_peak_gate(peaks: &[PhasePeakRow]) -> Gate {
    let samples = peaks.iter().flat_map(|row| {
        row.budget_words.into_iter().flat_map(move |budget| {
            row.phases.iter().map(move |p| {
                (
                    format!(
                        "run '{}' phase '{}' ({} of {budget} words)",
                        row.case, p.name, p.peak_words
                    ),
                    p.peak_words as f64 / budget as f64,
                )
            })
        })
    });
    Gate::check("PHASE_PEAK_BUDGET", Bound::Ceiling, 1.0, samples)
}

/// Everything one experiment produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Table title.
    pub title: String,
    /// The deterministic count rows.
    pub rows: Vec<Row>,
    /// Per-phase gauge peaks (E2, E3, E7).
    pub phase_peaks: Vec<PhasePeakRow>,
    /// Gate verdicts.
    pub gates: Vec<Gate>,
    /// Wall-clock rows: machine-dependent, so the record keeps them in their
    /// own `timing` section, the only one that is not byte-stable.
    pub timing: Vec<Row>,
    /// A representative fault trace (E9), written as its own record.
    pub fault_trace: Option<Vec<FaultEvent>>,
}

impl Outcome {
    /// An outcome holding only a table.
    pub fn new(title: impl Into<String>, rows: Vec<Row>) -> Self {
        Self {
            title: title.into(),
            rows,
            ..Self::default()
        }
    }
}

/// Runs one experiment at its quick (CI smoke, `true`) or full
/// (EXPERIMENTS.md) sizes.
pub type Run = fn(quick: bool) -> Outcome;

/// Every experiment `reproduce` runs, in order, under its `--exp` name (also
/// the record file stem). E2's quick sweep includes `E/M = 8` so the
/// crossover gate, which starts there, runs in CI too.
pub const EXPERIMENTS: [(&str, Run); 11] = [
    ("e1", |q| {
        experiment_e1(if q {
            &[2_000, 4_000]
        } else {
            &[4_000, 8_000, 16_000, 32_000]
        })
    }),
    ("e2", |q| {
        experiment_e2(if q { &[4, 8, 16] } else { &[4, 8, 16, 32, 64] })
    }),
    ("e3", |q| match q {
        true => experiment_e3(4_000, &[(1 << 10, 32), (1 << 12, 64), (1 << 13, 32)]),
        false => experiment_e3(
            12_000,
            &[
                (1 << 9, 32),
                (1 << 10, 32),
                (1 << 12, 32),
                (1 << 14, 32),
                (1 << 12, 64),
                (1 << 12, 128),
                (1 << 14, 128),
            ],
        ),
    }),
    ("e4", |q| {
        experiment_e4(if q { &[40, 60] } else { &[40, 60, 80, 100] })
    }),
    ("e5", |q| {
        experiment_e5(if q { &[4_000] } else { &[8_000, 16_000] })
    }),
    ("e6", |q| experiment_e6(if q { &[40] } else { &[40, 120] })),
    ("e7", |q| {
        experiment_e7(if q { &[4_000] } else { &[8_000, 16_000] })
    }),
    ("e8", |q| {
        if q {
            experiment_e8(4_000, 10)
        } else {
            experiment_e8(16_000, 30)
        }
    }),
    ("e9", |q| {
        if q {
            experiment_e9(2_000, 8)
        } else {
            experiment_e9(4_000, 16)
        }
    }),
    ("e10", |q| match q {
        true => experiment_e10(500, 4_000, EmConfig::new(256, 32)),
        false => experiment_e10(1_000, 12_000, EmConfig::new(512, 32)),
    }),
    ("e11", |q| {
        experiment_e11(if q {
            &[1_000, 2_000, 4_000]
        } else {
            &[2_000, 4_000, 8_000, 16_000]
        })
    }),
];

/// Renders per-phase peak rows as an aligned text table.
pub fn render_phase_peaks(title: &str, peaks: &[PhasePeakRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    out.push_str(&format!(
        "{:<28} {:>24} {:>12} {:>12} {:>12}\n",
        "case", "phase", "peak_w", "live_w", "budget_w"
    ));
    for row in peaks {
        let budget = row
            .budget_words
            .map_or_else(|| "-".to_string(), |b| b.to_string());
        for p in &row.phases {
            out.push_str(&format!(
                "{:<28} {:>24} {:>12} {:>12} {:>12}\n",
                row.case, p.name, p.peak_words, p.live_words, budget
            ));
        }
    }
    out
}

/// Renders rows as an aligned text table, starting a new header wherever a
/// row's columns differ from the row above it.
pub fn render_table(title: &str, rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    if rows.is_empty() {
        out.push_str("(no rows)\n");
        return out;
    }
    fn columns(row: &Row) -> impl Iterator<Item = &String> {
        row.values.iter().map(|(name, _)| name)
    }
    for (i, row) in rows.iter().enumerate() {
        if i == 0 || columns(row).ne(columns(&rows[i - 1])) {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&format!("{:<28}", "case"));
            for name in columns(row) {
                out.push_str(&format!(" {name:>16}"));
            }
            out.push('\n');
        }
        let mut line = format!("{:<28}", row.label);
        for (_, v) in &row.values {
            if v.abs() >= 1000.0 || (*v != 0.0 && v.abs() < 0.01) {
                line.push_str(&format!(" {v:>16.3e}"));
            } else {
                line.push_str(&format!(" {v:>16.2}"));
            }
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_number(v: f64) -> String {
    // JSON has no NaN/Infinity; record them as null rather than emitting an
    // unparseable file.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `  "key": [` one item per line `  ]`, as every record section is laid out.
fn json_array(key: &str, items: impl IntoIterator<Item = String>) -> String {
    let items: Vec<String> = items
        .into_iter()
        .map(|item| format!("    {item}"))
        .collect();
    let body = if items.is_empty() {
        String::new()
    } else {
        items.join(",\n") + "\n"
    };
    format!("  \"{key}\": [\n{body}  ]")
}

fn row_json(row: &Row) -> String {
    let values: Vec<String> = row
        .values
        .iter()
        .map(|(name, v)| format!("\"{}\": {}", json_escape(name), json_number(*v)))
        .collect();
    format!(
        "{{\"case\": \"{}\", \"values\": {{{}}}}}",
        json_escape(&row.label),
        values.join(", ")
    )
}

/// Renders one experiment's outcome as the `BENCH_E<k>.json` record
/// `reproduce --json <dir>` writes and CI uploads: title, rows, phase
/// peaks, gates (numeric `measured`, `limit` and `headroom`), then the
/// wall-clock `timing` section. No external serialisation crate is
/// available offline, so the (flat, escape-safe) document is written by
/// hand.
fn experiment_record_json(experiment: &str, outcome: &Outcome) -> String {
    let peaks = outcome.phase_peaks.iter().map(|row| {
        let phases: Vec<String> = row
            .phases
            .iter()
            .map(|p| {
                format!(
                    "{{\"name\": \"{}\", \"peak_words\": {}, \"live_words\": {}, \
                     \"live_leases\": {}}}",
                    json_escape(&p.name),
                    p.peak_words,
                    p.live_words,
                    p.live_leases.len()
                )
            })
            .collect();
        format!(
            "{{\"case\": \"{}\", \"budget_words\": {}, \"phases\": [{}]}}",
            json_escape(&row.case),
            row.budget_words
                .map_or_else(|| "null".to_string(), |b| b.to_string()),
            phases.join(", ")
        )
    });
    let gates = outcome.gates.iter().map(|gate| {
        format!(
            "{{\"name\": \"{}\", \"measured\": {}, \"limit\": {}, \"headroom\": {}, \
             \"passed\": {}, \"detail\": \"{}\"}}",
            json_escape(&gate.name),
            json_number(gate.measured),
            json_number(gate.limit),
            json_number(gate.headroom),
            gate.passed,
            json_escape(&gate.detail)
        )
    });
    let sections = [
        format!("  \"experiment\": \"{}\"", json_escape(experiment)),
        format!("  \"title\": \"{}\"", json_escape(&outcome.title)),
        json_array("rows", outcome.rows.iter().map(row_json)),
        json_array("phase_peaks", peaks),
        json_array("gates", gates),
        json_array("timing", outcome.timing.iter().map(row_json)),
    ];
    format!("{{\n{}\n}}\n", sections.join(",\n"))
}

/// Renders a fault trace as the `<EXPERIMENT>_FAULT_TRACE.json` record.
fn fault_trace_json(experiment: &str, events: &[FaultEvent]) -> String {
    let events = events.iter().map(|ev| {
        format!(
            "{{\"io\": {}, \"kind\": \"{}\", \"failed_attempts\": {}}}",
            ev.io,
            ev.kind.label(),
            ev.failed_attempts
        )
    });
    format!(
        "{{\n  \"experiment\": \"{}\",\n{}\n}}\n",
        json_escape(experiment),
        json_array("events", events)
    )
}

/// Writes `BENCH_<EXPERIMENT>.json`, plus `<EXPERIMENT>_FAULT_TRACE.json`
/// when the outcome carries a fault trace, into `dir` (creating it);
/// returns the paths written.
pub fn write_records(
    dir: &Path,
    experiment: &str,
    outcome: &Outcome,
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let stem = experiment.to_uppercase();
    let mut records = vec![(
        format!("BENCH_{stem}.json"),
        experiment_record_json(experiment, outcome),
    )];
    if let Some(trace) = &outcome.fault_trace {
        records.push((
            format!("{stem}_FAULT_TRACE.json"),
            fault_trace_json(experiment, trace),
        ));
    }
    records
        .into_iter()
        .map(|(file, json)| {
            let path = dir.join(file);
            // Atomic (temp + rename): a crashed or killed `reproduce` run
            // must never leave a truncated half-record for CI to upload as
            // if it were real.
            atomic_write(&path, json.as_bytes())?;
            Ok(path)
        })
        .collect()
}

/// The default machine configuration used by the experiments
/// (`M = 2^12` words, `B = 64` words — a deliberately memory-starved machine
/// so `E/M` reaches interesting values at laptop scale).
pub fn default_config() -> EmConfig {
    EmConfig::new(1 << 12, 64)
}

/// The three paper algorithms with fixed seeds (experiments are reproducible).
pub fn paper_algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::CacheAwareRandomized { seed: 0xA11CE },
        Algorithm::CacheObliviousRandomized { seed: 0xA11CE },
        Algorithm::DeterministicCacheAware {
            family_seed: 0xA11CE,
            candidates: Some(32),
        },
    ]
}

fn run(graph: &Graph, alg: Algorithm, cfg: EmConfig) -> RunReport {
    let (_, report) = count_triangles(graph, alg, cfg);
    report
}

/// **E1 — I/O scaling in `E`.** All algorithms on Erdős–Rényi graphs of
/// growing size at a fixed machine; reports raw I/Os and the I/O count
/// normalised by each algorithm's own analytic bound (flat ⇔ the bound's
/// shape is right). The cubic block-nested-loop baseline runs up to
/// `E = 4000`.
pub fn experiment_e1(sizes: &[usize]) -> Outcome {
    let cfg = default_config();
    let mut rows = Vec::new();
    for &e in sizes {
        let g = generators::erdos_renyi(e / 8, e, 1);
        let mut algs = paper_algorithms();
        algs.push(Algorithm::HuTaoChung);
        algs.push(Algorithm::SortBased);
        if e <= 4_000 {
            algs.push(Algorithm::BlockNestedLoop);
        }
        for alg in algs {
            let r = run(&g, alg, cfg);
            rows.push(
                Row::new(format!("E={e} {}", alg.name()))
                    .col("io", r.io.total() as f64)
                    .col(
                        "io/own_bound",
                        r.io.total() as f64 / alg.analytic_bound(cfg, e).max(1.0),
                    )
                    .col("io/paper_bound", r.normalized_to_triangle_bound())
                    .col("triangles", r.triangles as f64),
            );
        }
    }
    Outcome::new("E1: I/O scaling in E (ER graphs, M=4096, B=64)", rows)
}

/// I/O-budget ceiling for the cache-aware randomized algorithm on the E2
/// sweep: `reproduce` fails (and CI with it) if any E2 row reports
/// `aware_io / (E^{3/2}/(√M·B))` above this limit.
///
/// Re-recorded after Lemma 2's chunks were sized by the forward-degree
/// `Γ_v` reserve and a larger-endpoint index and cut from the top of each
/// pivot class down: the normalised I/O sits at 5.28–5.48 across
/// `E/M ∈ {4, …, 64}` (quick sweep worst 5.48; the runs are fully
/// deterministic). The `|Γ_mem|` reserve with a full endpoint index before
/// it sat at 7.3–9.4, step 1's old sort of the `2E` endpoints at
/// 12.1–14.7, the pivot-grouped-but-fixed-divisor step 3 at 21.2–23.6 and
/// the per-triple loop before it at 36.7, so the ceiling catches a
/// regression toward any of them with ~25% headroom over the worst row.
pub const CACHE_AWARE_IO_CEILING: ColumnGate = ColumnGate {
    name: "CACHE_AWARE_IO_CEILING",
    column: "aware_io/bound",
    bound: Bound::Ceiling,
    limit: 6.9,
    reads: |_| true,
};

/// The `E/M` ratio from which the measured gain over Hu–Tao–Chung must stay
/// ≥ 1.0. The adaptive-chunking sweep crosses over already at `E/M = 4`
/// (measured 1.12), but 4 leaves no noise margin, so the gate starts at 8
/// (measured 1.56).
pub const CACHE_AWARE_CROSSOVER_FROM: usize = 8;

/// Crossover floor: from `E/M =` [`CACHE_AWARE_CROSSOVER_FROM`] on, the
/// cache-aware algorithm must beat Hu–Tao–Chung (measured gain ≥ 1.0).
/// Rows whose label carries no `E/M=` ratio are read too.
pub const CACHE_AWARE_CROSSOVER: ColumnGate = ColumnGate {
    name: "CACHE_AWARE_CROSSOVER",
    column: "measured_gain",
    bound: Bound::Floor,
    limit: 1.0,
    reads: |row| {
        row.label
            .strip_prefix("E/M=")
            .and_then(|ratio| ratio.parse::<usize>().ok())
            .is_none_or(|ratio| ratio >= CACHE_AWARE_CROSSOVER_FROM)
    },
};

/// **E2 — improvement factor over Hu–Tao–Chung.** Sweeps `E/M` and reports
/// the measured I/O ratio (Hu et al. / cache-aware) against the paper's
/// predicted `min(√(E/M), √M)` improvement, plus the cache-aware I/O
/// normalised by the paper's `E^{3/2}/(√M·B)` bound (the column the
/// [`CACHE_AWARE_IO_CEILING`] gate watches).
pub fn experiment_e2(e_over_m: &[usize]) -> Outcome {
    let mem = 512usize;
    let cfg = EmConfig::new(mem, 32);
    let mut rows = Vec::new();
    let mut peaks = Vec::new();
    for &ratio in e_over_m {
        let e = mem * ratio;
        let g = generators::erdos_renyi((e / 8).max(64), e, 2);
        let aware = run(&g, Algorithm::CacheAwareRandomized { seed: 3 }, cfg);
        let hu = run(&g, Algorithm::HuTaoChung, cfg);
        peaks.push(PhasePeakRow::of(
            format!("E/M={ratio} {}", aware.algorithm),
            &aware,
            Some(cache_aware_phase_budget(cfg)),
        ));
        peaks.push(PhasePeakRow::of(
            format!("E/M={ratio} {}", hu.algorithm),
            &hu,
            None,
        ));
        let predicted = (ratio as f64).sqrt().min((mem as f64).sqrt());
        rows.push(
            Row::new(format!("E/M={ratio}"))
                .col("aware_io", aware.io.total() as f64)
                .col(
                    "aware_io/bound",
                    aware.io.total() as f64 / cfg.triangle_bound(e).max(1.0),
                )
                .col("hu_io", hu.io.total() as f64)
                .col(
                    "measured_gain",
                    hu.io.total() as f64 / aware.io.total() as f64,
                )
                .col("predicted_gain", predicted),
        );
    }
    Outcome {
        gates: vec![
            CACHE_AWARE_IO_CEILING.check(&rows),
            CACHE_AWARE_CROSSOVER.check(&rows),
            phase_peak_gate(&peaks),
        ],
        phase_peaks: peaks,
        ..Outcome::new(
            "E2: measured vs predicted improvement over Hu-Tao-Chung (M=512, B=32)",
            rows,
        )
    }
}

/// I/O-budget ceiling for the cache-oblivious algorithm on the E3 sweep:
/// `reproduce` fails (and CI with it) if any E3 row reports `io/bound`
/// (measured I/O over the paper's `E^{3/2}/(√M·B)`) above this limit.
///
/// Recorded after the refinement tree moved to colour-multiset targets,
/// which copy every edge twice per level where the ordered `(c0, c1, c2)`
/// vectors copied it 4, 2.5 and ~2.2 times at depths 0–2: the normalised
/// I/O sits at 13.32–18.41 across the full `(M, B)` sweep at `E = 12000`
/// (worst row `M = 4096, B = 128`) and its worst `--quick` row at
/// `E = 4000` is 18.14. Ordered targets with the same 288-edge base case
/// sat at 19.70–35.41 (quick 28.71), the 96-edge base case's worst rows
/// were 39.97 (full) and 36.52 (quick), the 24-edge one's 58.13 and the
/// incidence-list implementation sat at 79.8–146.0. The ceiling keeps ~14%
/// headroom above the worst recorded row; the runs are deterministic.
pub const CACHE_OBLIVIOUS_IO_CEILING: ColumnGate = ColumnGate {
    name: "CACHE_OBLIVIOUS_IO_CEILING",
    column: "io/bound",
    bound: Bound::Ceiling,
    limit: 21.0,
    reads: |row| row.label.starts_with("M="),
};

/// The machine whose E3 run also reports the per-depth profile of the
/// refinement tree.
const E3_PROFILED: (usize, usize) = (1 << 12, 64);

/// **E3 — cache-obliviousness.** One fixed graph and one fixed algorithm
/// (which never reads `M`/`B`), swept across machine configurations; the
/// normalised I/O stays in a narrow band.
pub fn experiment_e3(e: usize, configs: &[(usize, usize)]) -> Outcome {
    let g = generators::erdos_renyi(e / 8, e, 7);
    let alg = Algorithm::CacheObliviousRandomized { seed: 11 };
    let mut rows = Vec::new();
    let mut peaks = Vec::new();
    let mut profile = Vec::new();
    for &(m, b) in configs {
        let cfg = EmConfig::new(m, b);
        let r = run(&g, alg, cfg);
        peaks.push(PhasePeakRow::of(
            format!("M={m} B={b}"),
            &r,
            Some(cache_oblivious_phase_budget(e)),
        ));
        rows.push(
            Row::new(format!("M={m} B={b}"))
                .col("io", r.io.total() as f64)
                .col("bound", cfg.triangle_bound(e))
                .col("io/bound", r.normalized_to_triangle_bound())
                .col("subproblems", r.extra("subproblems").unwrap_or(0.0)),
        );
        if (m, b) == E3_PROFILED {
            profile = depth_rows(&r, &format!("M={m} B={b}"));
        }
    }
    rows.extend(profile);
    Outcome {
        gates: vec![
            CACHE_OBLIVIOUS_IO_CEILING.check(&rows),
            phase_peak_gate(&peaks),
        ],
        phase_peaks: peaks,
        ..Outcome::new(
            format!("E3: cache-obliviousness — one binary, E={e}, varying (M, B)"),
            rows,
        )
    }
}

/// The per-depth rows of a cache-oblivious run's report (its `depth<d>.*`
/// extras): nodes, edges in, edges routed, own I/O, and the copy factor —
/// edges in over the edges the depth above routed (at the root, over E).
pub fn depth_rows(report: &RunReport, case: &str) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut routed_above = report.edges as f64;
    for d in 0.. {
        let col = |name: &str| report.extra(&format!("depth{d}.{name}"));
        let (Some(nodes), Some(edges_in)) = (col("nodes"), col("edges_in")) else {
            break;
        };
        let routed = col("routed").unwrap_or(f64::NAN);
        rows.push(
            Row::new(format!("depth {d} ({case})"))
                .col("nodes", nodes)
                .col("edges_in", edges_in)
                .col("routed", routed)
                .col("io", col("io").unwrap_or(f64::NAN))
                .col("copy", edges_in / routed_above),
        );
        routed_above = routed;
    }
    rows
}

/// **E4 — optimality against Theorem 3.** Cliques (the lower-bound witness,
/// `t = Θ(E^{3/2})`): measured I/Os versus the lower bound. A small memory
/// (`M = 512`) is used so that the graphs genuinely exceed the internal
/// memory and the witness term `t/(√M·B)` of the bound is the binding one.
pub fn experiment_e4(clique_sizes: &[usize]) -> Outcome {
    let cfg = EmConfig::new(512, 32);
    let mut rows = Vec::new();
    for &n in clique_sizes {
        let g = generators::clique(n);
        for alg in paper_algorithms() {
            let r = run(&g, alg, cfg);
            let lb = LowerBound::for_triangles(cfg, r.triangles);
            rows.push(
                Row::new(format!("K{n} {}", alg.name()))
                    .col("triangles", r.triangles as f64)
                    .col("io", r.io.total() as f64)
                    .col("lower_bound", lb.sum())
                    .col("io/LB", r.io.total() as f64 / lb.sum().max(1.0)),
            );
        }
    }
    Outcome::new(
        "E4: optimality vs the Theorem 3 lower bound (cliques, M=512, B=32)",
        rows,
    )
}

/// Ceiling on the deterministic driver's I/O over the randomized one's on
/// E5 (`io_derand/io_random`).
///
/// The two drivers share steps 1–3 and their colourings are equally
/// balanced, so the ratio is the price of the greedy levels (step 0). With
/// one sort of the reversed half of the incidence list, then a scan per
/// level and a 4-way split between levels, the full sizes measure 2.06
/// (`E = 8000`) and 1.87 (`E = 16000`); a sort of the two-word incidence
/// list at every level measured 4.16 and 3.34 and trips the gate. The
/// quick size has no greedy level (one colour), so it reads 1.0: the gate
/// bites only at full size.
pub const E5_DERAND_IO_RATIO: ColumnGate = ColumnGate {
    name: "E5_DERAND_IO_RATIO",
    column: "io_derand/io_random",
    bound: Bound::Ceiling,
    limit: 2.5,
    reads: |_| true,
};

/// **E5 — derandomization.** Colour-balance statistic `X_ξ` of the random
/// colouring (Lemma 3: `E[X_ξ] ≤ E·M`) versus the greedily derandomized
/// colouring (`X_ξ ≤ e·E·M`), and the I/O cost of the deterministic
/// algorithm versus the randomized one (the column
/// [`E5_DERAND_IO_RATIO`] watches).
pub fn experiment_e5(sizes: &[usize]) -> Outcome {
    let cfg = default_config();
    let mut rows = Vec::new();
    for &e in sizes {
        let g = generators::erdos_renyi(e / 8, e, 4);
        // Average the random colouring balance over a few seeds.
        let machine = emsim::Machine::new(cfg);
        let ext = ExtGraph::load(&machine, &g);
        let mut x_random = 0f64;
        let seeds = 5;
        for s in 0..seeds {
            let (_, x) = measure_random_coloring_balance(&ext, cfg, s);
            x_random += x as f64 / seeds as f64;
        }
        let rand_run = run(&g, Algorithm::CacheAwareRandomized { seed: 5 }, cfg);
        let det_run = run(
            &g,
            Algorithm::DeterministicCacheAware {
                family_seed: 5,
                candidates: Some(32),
            },
            cfg,
        );
        let em = e as f64 * cfg.mem_words as f64;
        rows.push(
            Row::new(format!("E={e}"))
                .col("X_random(avg)", x_random)
                .col("X_derand", det_run.extra("x_statistic").unwrap_or(0.0))
                .col("E*M (Lemma3)", em)
                .col("e*E*M (Thm2)", std::f64::consts::E * em)
                .col("io_random", rand_run.io.total() as f64)
                .col("io_derand", det_run.io.total() as f64)
                .col(
                    "io_derand/io_random",
                    det_run.io.total() as f64 / rand_run.io.total() as f64,
                ),
        );
    }
    Outcome {
        gates: vec![E5_DERAND_IO_RATIO.check(&rows)],
        ..Outcome::new("E5: derandomization — colour balance and I/O cost", rows)
    }
}

/// **E6 — the database join scenario.** Triangle enumeration of the
/// decomposed `Sells` relation is the three-way join; all algorithms produce
/// the same row count, and the winner ordering matches E1.
pub fn experiment_e6(groups: &[usize]) -> Outcome {
    let cfg = default_config();
    let mut rows = Vec::new();
    for &k in groups {
        let (g, _, _) = generators::sells_join(600, 80, 160, k, 6, 9);
        let expected = naive::count_triangles(&g);
        for alg in [
            Algorithm::CacheAwareRandomized { seed: 2 },
            Algorithm::CacheObliviousRandomized { seed: 2 },
            Algorithm::HuTaoChung,
            Algorithm::SortBased,
        ] {
            let r = run(&g, alg, cfg);
            assert_eq!(
                r.triangles,
                expected,
                "join disagreement for {}",
                alg.name()
            );
            rows.push(
                Row::new(format!("groups={k} {}", alg.name()))
                    .col("edges", r.edges as f64)
                    .col("rows", r.triangles as f64)
                    .col("io", r.io.total() as f64)
                    .col("writes", r.io.writes as f64),
            );
        }
    }
    Outcome::new("E6: the 5NF Sells join as triangle enumeration", rows)
}

/// Work-budget ceiling for the cache-oblivious algorithm: `reproduce` fails
/// (and CI with it) if any E7 cache-oblivious row reports `work/E^{1.5}`
/// above this limit.
///
/// Recorded after the refinement tree moved to colour-multiset targets
/// (each level copies every edge twice): measured ratios are 1.36 at
/// `E = 4000` (the `--quick` size), 1.11 at `E = 8000` and 0.93 at
/// `E = 16000` — the ratio falls with `E`. Ordered `(c0, c1, c2)` targets
/// with the same 288-edge base case sat at 2.96, 2.46 and 1.92, the 96-edge
/// base case at 3.50, 3.04 and 2.50, the 24-edge one at 6.10, 5.92 and
/// 4.55, the incidence-list implementation at 9.75–10.3 and the one before
/// it at ≈ 52.7, so a regression to any of them (ordered targets, a smaller
/// base case, re-materialised reverse orientations, per-leaf wedge sorts,
/// per-child filter scans) trips the gate at the `--quick` size while the
/// worst current row keeps ~12% headroom.
pub const CACHE_OBLIVIOUS_WORK_CEILING: ColumnGate = ColumnGate {
    name: "CACHE_OBLIVIOUS_WORK_CEILING",
    column: "work/E^1.5",
    bound: Bound::Ceiling,
    limit: 1.55,
    reads: |row| row.label.contains("cache-oblivious"),
};

/// **E7 — work optimality.** RAM-operation counts versus `E^{3/2}`.
pub fn experiment_e7(sizes: &[usize]) -> Outcome {
    let cfg = default_config();
    let mut rows = Vec::new();
    let mut peaks = Vec::new();
    for &e in sizes {
        let g = generators::erdos_renyi(e / 8, e, 6);
        for alg in paper_algorithms() {
            let r = run(&g, alg, cfg);
            let budget = if matches!(alg, Algorithm::CacheObliviousRandomized { .. }) {
                cache_oblivious_phase_budget(e)
            } else {
                cache_aware_phase_budget(cfg)
            };
            peaks.push(PhasePeakRow::of(
                format!("E={e} {}", alg.name()),
                &r,
                Some(budget),
            ));
            rows.push(
                Row::new(format!("E={e} {}", alg.name()))
                    .col("work_ops", r.work_ops as f64)
                    .col("E^1.5", (e as f64).powf(1.5))
                    .col("work/E^1.5", r.work_ratio()),
            );
        }
    }
    Outcome {
        gates: vec![
            CACHE_OBLIVIOUS_WORK_CEILING.check(&rows),
            phase_peak_gate(&peaks),
        ],
        phase_peaks: peaks,
        ..Outcome::new("E7: work optimality (operations vs E^1.5)", rows)
    }
}

/// **E8 — concentration of the colouring.** Monte-Carlo check of Lemma 3
/// (`E[X_ξ] ≤ E·M`) over many random 4-wise colourings.
pub fn experiment_e8(e: usize, trials: u64) -> Outcome {
    let cfg = default_config();
    let g = generators::erdos_renyi(e / 8, e, 12);
    let machine = emsim::Machine::new(cfg);
    let ext = ExtGraph::load(&machine, &g);
    let mut xs = Vec::new();
    for s in 0..trials {
        let (_, x) = measure_random_coloring_balance(&ext, cfg, s);
        xs.push(x as f64);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let max = xs.iter().cloned().fold(0f64, f64::max);
    let bound = e as f64 * cfg.mem_words as f64;
    let rows = vec![Row::new(format!("E={e}, {trials} colourings"))
        .col("mean X", mean)
        .col("max X", max)
        .col("E*M bound", bound)
        .col("mean/bound", mean / bound)];
    Outcome::new(
        "E8: Lemma 3 — E[X_xi] <= E*M over random 4-wise colourings",
        rows,
    )
}

/// Transient-fault rates injected by the E9 chaos sweep, in ‰ per attempt.
///
/// High enough that every chaos run exercises the bounded-retry loop dozens
/// of times, low enough that exhausting the retry budget (the point where a
/// transient fault escalates to a permanent [`emsim::StorageError`] and
/// aborts the run) is effectively impossible: at 25‰ per attempt and six
/// attempts, `0.025^6 ≈ 2.4·10⁻¹⁰` per transfer.
pub const E9_READ_FAULT_PER_MILLE: u32 = 25;

/// Torn-write rate of the E9 sweep; see [`E9_READ_FAULT_PER_MILLE`].
pub const E9_TORN_WRITE_PER_MILLE: u32 = 20;

/// Retry policy of the E9 sweep: up to six attempts per transfer, simulated
/// exponential backoff starting at 8 work units.
pub fn e9_retry_policy() -> RetryPolicy {
    RetryPolicy::new(6, 8)
}

/// Ceiling on `retry_io / io` for every E9 crash run: the fraction of all
/// charged block transfers that were retry re-attempts. At the injected
/// rates ([`E9_READ_FAULT_PER_MILLE`], [`E9_TORN_WRITE_PER_MILLE`]) the
/// expected fraction is ≈ 2.3%, so 10% gives ~4× headroom while still
/// catching a retry storm (a storage layer that re-reads whole segments
/// instead of the single failed block, or a backoff loop that stops
/// converging).
pub const E9_RETRY_FRACTION_CEILING: ColumnGate = ColumnGate {
    name: "E9_RETRY_FRACTION_CEILING",
    column: "retry_frac",
    bound: Bound::Ceiling,
    limit: 0.10,
    reads: |row| row.label.starts_with("crash@"),
};

/// Ceiling on the E9 recovery I/O overhead: for each injected crash point,
/// `(crashed run transfers + resumed run transfers) / fault-free transfers`.
///
/// Recorded 2026-08-08 when the checkpoint/resume machinery landed: the
/// sweep's worst point measures 1.73 at the `--quick` size and 1.57 at the
/// full size (a crash shortly after a checkpoint: the crashed run has paid
/// for work the checkpoint does not capture, and the resume replays the
/// graph-load preamble, the frontier-rebuild filter scans and everything
/// past the last checkpoint), with sweep means near 1.5 and 1.4. The
/// worst point rose to 1.76 / 1.61 when the in-core base case grew to 96
/// edges and to 1.77 / 1.71 at 288: the fault-free denominator fell, and
/// larger leaves leave fewer subproblem boundaries for checkpoints. A
/// regression that loses the checkpoint frontier — forcing a late crash to
/// restart from scratch — costs ~2× at the worst point and trips the gate;
/// honest noise is zero, the runs are fully deterministic.
pub const E9_RECOVERY_IO_OVERHEAD: ColumnGate = ColumnGate {
    name: "E9_RECOVERY_IO_OVERHEAD",
    column: "overhead",
    bound: Bound::Ceiling,
    limit: 2.0,
    reads: |row| row.label.starts_with("crash@"),
};

/// A unique scratch directory for one sweep's checkpoint files.
fn e9_scratch_dir() -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("trienum-e9-{}-{n}", std::process::id()))
}

/// **E9 — chaos: fault injection, crash sweep, checkpoint/resume.** Runs the
/// cache-oblivious algorithm once fault-free as the reference, then sweeps a
/// `CrashAt` kill switch over `points` crash points across the reference
/// run's whole I/O range (on an `E`-edge graph) with transient read faults
/// and torn writes injected throughout; each crashed run is resumed from its
/// surviving checkpoint (or rerun from scratch if it died before the first
/// one) and held to the reference's exact triangle multiset, bounded retry
/// counts, no permanent escalation, a leak-free gauge and the
/// [`E9_RECOVERY_IO_OVERHEAD`] recovery budget. The fault trace of the
/// mid-sweep crash and its resume rides along in the outcome.
pub fn experiment_e9(e: usize, points: u64) -> Outcome {
    silence_simulated_crash_panics();
    let cfg = EmConfig::new(1 << 10, 32);
    let seed = 0xA11CE;
    let g = generators::erdos_renyi(e / 8, e, 9);
    let scratch = e9_scratch_dir();
    std::fs::create_dir_all(&scratch).expect("creating the E9 scratch directory");

    // Reference run: fault-free, no checkpointing. Its multiset is the
    // oracle every chaos run must reproduce bit-identically, and its
    // transfer count is the denominator of the recovery-overhead metric.
    let reference = Machine::new(cfg);
    let mut oracle_sink = CollectingSink::new();
    let ref_report =
        enumerate_triangles_with_recovery(&g, &reference, seed, &mut oracle_sink, None, None);
    let ref_transfers = reference.transfers();
    let run_io = ref_report.io.total();
    // `CrashAt` counts charged transfers from machine creation, so crash
    // coordinates must be offset past the graph-load preamble.
    let preamble = ref_transfers - run_io;
    let mut oracle = oracle_sink.into_triangles();
    oracle.sort_unstable();
    assert_eq!(
        oracle.len() as u64,
        naive::count_triangles(&g),
        "the E9 reference run disagrees with the in-memory oracle"
    );

    // Zero-fault control: the recovery entry point on a default machine must
    // cost exactly what the plain driver costs — the fault/checkpoint layer
    // is pay-for-what-you-use.
    let plain = run(&g, Algorithm::CacheObliviousRandomized { seed }, cfg);
    let ref_retry_io = ref_report.extra("retry_io").unwrap_or(f64::NAN);
    let mut zero_fault = Vec::new();
    if plain.io.total() != ref_report.io.total() {
        zero_fault.push(format!(
            "zero-fault recovery run cost {} I/Os, the plain driver {} — the fault layer \
             must be free when unused",
            ref_report.io.total(),
            plain.io.total()
        ));
    }
    if plain.triangles != ref_report.triangles {
        zero_fault.push(format!(
            "zero-fault recovery run found {} triangles, the plain driver {}",
            ref_report.triangles, plain.triangles
        ));
    }
    if ref_retry_io != 0.0 {
        zero_fault.push(format!(
            "zero-fault recovery run charged retry_io = {ref_retry_io}, expected 0"
        ));
    }

    let mut rows = vec![Row::new("zero-fault control")
        .col("io", ref_report.io.total() as f64)
        .col("plain_io", plain.io.total() as f64)
        .col("triangles", ref_report.triangles as f64)
        .col("retry_io", ref_retry_io)];

    let interval_io = (run_io / 6).max(1);
    let mut exactness = Vec::new();
    let mut gauges = Vec::new();
    let mut permanents = Vec::new();
    let mut fault_trace = Vec::new();

    for k in 0..points {
        let crash_at = preamble + run_io * (k + 1) / (points + 1);
        let ckpt_path = scratch.join(format!("crash-{k}.ckpt"));
        let spec = CheckpointSpec {
            path: ckpt_path.clone(),
            interval_io,
        };
        let plan = FaultPlan::new(0xE9_0000 + k)
            .with_read_faults(E9_READ_FAULT_PER_MILLE)
            .with_torn_writes(E9_TORN_WRITE_PER_MILLE)
            .with_retry(e9_retry_policy())
            .with_crash_at(crash_at);
        let crashed_machine = Machine::with_faults(cfg, plan, BackendKind::InMemory);
        let mut collected = CollectingSink::new();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            enumerate_triangles_with_recovery(
                &g,
                &crashed_machine,
                seed,
                &mut collected,
                Some(&spec),
                None,
            )
        }));
        let payload = match outcome {
            Ok(_) => {
                exactness.push(format!("crash@{crash_at}: the kill switch never fired"));
                continue;
            }
            Err(payload) => payload,
        };
        if payload.downcast_ref::<CrashPoint>().is_none() {
            // Not a simulated crash: a real bug escaped the run. Re-raise.
            std::panic::resume_unwind(payload);
        }
        let crashed_stats = crashed_machine.stats();
        let crashed_transfers = crashed_machine.transfers();
        if crashed_machine.gauge().in_use() != 0 {
            gauges.push(format!(
                "crash@{crash_at}: {} words still leased after unwinding the crashed run",
                crashed_machine.gauge().in_use()
            ));
        }

        let resume_plan = FaultPlan::new(0x5EED_0000 + k)
            .with_read_faults(E9_READ_FAULT_PER_MILLE)
            .with_torn_writes(E9_TORN_WRITE_PER_MILLE)
            .with_retry(e9_retry_policy());
        let resume_machine = Machine::with_faults(cfg, resume_plan, BackendKind::InMemory);
        let resumed = ckpt_path.exists();
        let committed = collected.len() as u64;
        let ck = resumed
            .then(|| Checkpoint::load(&ckpt_path).expect("loading the surviving checkpoint"));
        match &ck {
            Some(ck) if ck.hwm != committed => exactness.push(format!(
                "crash@{crash_at}: checkpoint high-water mark {} disagrees with the \
                     {committed} triangles actually committed",
                ck.hwm
            )),
            None if committed != 0 => exactness.push(format!(
                "crash@{crash_at}: {committed} triangles committed although no \
                     checkpoint was ever written"
            )),
            _ => {}
        }
        // Without a checkpoint nothing durable exists, so recovery is a
        // plain fresh run.
        enumerate_triangles_with_recovery(
            &g,
            &resume_machine,
            seed,
            &mut collected,
            None,
            ck.as_ref(),
        );
        let resume_stats = resume_machine.stats();
        let resume_transfers = resume_machine.transfers();
        if resume_machine.gauge().in_use() != 0 {
            gauges.push(format!(
                "crash@{crash_at}: {} words still leased after the resumed run",
                resume_machine.gauge().in_use()
            ));
        }

        let mut got = collected.into_triangles();
        got.sort_unstable();
        if got != oracle {
            exactness.push(format!(
                "crash@{crash_at}: the resumed multiset ({} triangles) differs from the \
                     reference ({})",
                got.len(),
                oracle.len()
            ));
        }
        for trace in [crashed_machine.fault_trace(), resume_machine.fault_trace()] {
            if let Some(p) = trace
                .iter()
                .find(|ev| ev.kind == emsim::FaultKind::Permanent)
            {
                permanents.push(format!(
                    "crash@{crash_at}: a transient fault at io {} escalated to permanent \
                         ({} failed attempts) — the retry budget is mis-sized",
                    p.io, p.failed_attempts
                ));
            }
        }
        if k == points / 2 {
            fault_trace = crashed_machine.fault_trace();
            fault_trace.extend(resume_machine.fault_trace());
        }

        let total_io = crashed_stats.io.total() + resume_stats.io.total();
        let retry_io = crashed_stats.retry_io + resume_stats.retry_io;
        rows.push(
            Row::new(format!("crash@{crash_at}"))
                .col("resumed", if resumed { 1.0 } else { 0.0 })
                .col("committed", committed as f64)
                .col("crashed_io", crashed_transfers as f64)
                .col("resume_io", resume_transfers as f64)
                .col(
                    "overhead",
                    (crashed_transfers + resume_transfers) as f64 / ref_transfers as f64,
                )
                .col("retry_frac", retry_io as f64 / total_io.max(1) as f64),
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);

    Outcome {
        gates: vec![
            Gate::exact("E9_EXACTLY_ONCE", &exactness),
            Gate::exact("E9_ZERO_FAULT_EXACTNESS", &zero_fault),
            E9_RETRY_FRACTION_CEILING.check(&rows),
            Gate::exact("E9_PERMANENT_ESCALATIONS", &permanents),
            E9_RECOVERY_IO_OVERHEAD.check(&rows),
            Gate::exact("E9_GAUGE_LEASES", &gauges),
        ],
        fault_trace: Some(fault_trace),
        ..Outcome::new(
            "E9: chaos — crash sweep, retry/backoff, checkpoint/resume (M=1024, B=32)",
            rows,
        )
    }
}

/// Worker counts swept by the E10 multi-worker (PEM) experiment.
pub const E10_WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Ceiling on `max_worker_io / sum_io` at the `P = 4` sweep point, for both
/// randomized drivers E10 sweeps. Perfect balance is `1/P = 0.25`; the
/// replicated preamble (the cache-aware step-1 scan and step-2 partition,
/// the cache-oblivious levels above the spawn depth) is charged to every
/// worker and keeps the ratio pinned near `1/P` even when the owned units
/// are skewed, so 0.35 gives ~40% headroom while still catching a sharding
/// regression that lets one worker own a constant fraction of the unit
/// stream (that costs ≥ 0.5 and trips the gate immediately). The
/// derandomized greedy levels, which E10 does not sweep, are sharded rather
/// than replicated.
pub const E10_WORKER_BALANCE: ColumnGate = ColumnGate {
    name: "E10_WORKER_BALANCE",
    column: "max_io/sum",
    bound: Bound::Ceiling,
    limit: 0.35,
    reads: |row| row.label.ends_with(" P=4"),
};

/// **E10 — multi-worker PEM enumeration.** Runs both randomized drivers
/// under the work-unit scheduler ([`enumerate_triangles_sharded`]) for
/// `P ∈ {1, 2, 4, 8}` workers, each worker on its own simulated machine
/// (an ER graph with `v` vertices and `e` edges on `cfg`), and holds the
/// sweep to three gates:
///
/// * **balance** — at `P = 4` the PEM cost (the *maximum* per-worker I/O,
///   which is what the PEM model charges) stays within
///   [`E10_WORKER_BALANCE`] of the total;
/// * **multiset invariance** — every worker count delivers the bit-identical
///   sorted triangle multiset of the sequential driver;
/// * **single-worker parity** — at `P = 1` the workers' summed I/O equals
///   the sequential driver's exactly (the sharding layer is free when
///   unused).
///
/// The rows hold one row per `(driver, P)` sweep point followed by one row
/// per worker (sorted by worker index); wall-clock seconds and the speedup
/// over the sequential driver go into the timing section.
pub fn experiment_e10(v: usize, e: usize, cfg: EmConfig) -> Outcome {
    let g = generators::erdos_renyi(v, e, 6);
    let drivers = [
        ("aware", Algorithm::CacheAwareRandomized { seed: 0xA11CE }),
        (
            "oblivious",
            Algorithm::CacheObliviousRandomized { seed: 0xA11CE },
        ),
    ];

    let mut rows = Vec::new();
    let mut worker_rows = Vec::new();
    let mut timing = Vec::new();
    let mut multiset = Vec::new();
    let mut parity = Vec::new();

    for (label, alg) in drivers {
        // Sequential reference: the multiset oracle and the P = 1 parity
        // denominator.
        let mut seq_sink = CollectingSink::new();
        let seq_start = std::time::Instant::now();
        let seq = enumerate_triangles(&g, alg, cfg, &mut seq_sink);
        let seq_secs = seq_start.elapsed().as_secs_f64();
        let mut reference = seq_sink.into_triangles();
        reference.sort_unstable();

        for p in E10_WORKER_SWEEP {
            let mut sink = CollectingSink::new();
            let start = std::time::Instant::now();
            let sharded = enumerate_triangles_sharded(&g, alg, cfg, ShardPlan::new(p), &mut sink)
                .expect("the paper drivers support sharded execution");
            let secs = start.elapsed().as_secs_f64();
            let w = &sharded.workers;

            // The sharded sink receives the k-way-merged stream, which is
            // already globally sorted — compare it to the sorted reference
            // without re-sorting, so an out-of-order merge also fails here.
            let got = sink.into_triangles();
            if got != reference {
                multiset.push(format!(
                    "{label} P={p}: sharded multiset ({} triangles) differs from the \
                         sequential driver's ({})",
                    got.len(),
                    reference.len()
                ));
            }
            if p == 1 && w.sum_io != seq.io.total() {
                parity.push(format!(
                    "{label} P=1: single-worker I/O {} != sequential driver's {} — the \
                         sharding layer must be free when unused",
                    w.sum_io,
                    seq.io.total()
                ));
            }
            rows.push(
                Row::new(format!("{label} P={p}"))
                    .col("triangles", sharded.report.triangles as f64)
                    .col("max_io", w.max_io as f64)
                    .col("sum_io", w.sum_io as f64)
                    .col("balance", w.balance)
                    .col("max_io/sum", w.max_io as f64 / w.sum_io.max(1) as f64)
                    .col("merge_io", sharded.merge_io.total() as f64),
            );
            timing.push(
                Row::new(format!("{label} P={p}"))
                    .col("wall_s", secs)
                    .col("speedup", seq_secs / secs.max(1e-9)),
            );
            // `per_worker` is indexed by worker id (the pool sorts by worker
            // index before reporting), so these rows are deterministic.
            for (i, io) in w.per_worker.iter().enumerate() {
                worker_rows.push(
                    Row::new(format!("{label} P={p} w{i}"))
                        .col("reads", io.reads as f64)
                        .col("writes", io.writes as f64)
                        .col("io", io.total() as f64),
                );
            }
        }
    }

    let gates = vec![
        E10_WORKER_BALANCE.check(&rows),
        Gate::exact("E10_MULTISET_INVARIANCE", &multiset),
        Gate::exact("E10_SINGLE_WORKER_PARITY", &parity),
    ];
    rows.extend(worker_rows);
    Outcome {
        gates,
        timing,
        ..Outcome::new(
            "E10: multi-worker PEM sweep — P in {1,2,4,8}, per-worker machines",
            rows,
        )
    }
}

/// Minimum Pearson correlation the E11 gate demands between simulated
/// charged transfers and measured real disk block I/O across the sweep. The
/// buffer pool replays the simulator's LRU policy decision for decision, so
/// the measured value should be ≈ 1.0; 0.9 is the gate's floor.
pub const E11_MIN_CORRELATION: f64 = 0.9;

/// Pearson correlation coefficient of the paired samples `(xs[i], ys[i])`.
/// Returns 1.0 for degenerate inputs (fewer than two points, or a
/// zero-variance side) *only* when the two sides are exactly equal —
/// otherwise 0.0 — so a constant-but-matching sweep cannot fake a pass.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return if xs == ys { 1.0 } else { 0.0 };
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return if xs == ys { 1.0 } else { 0.0 };
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// **E11 — sim-vs-disk correlation.** Runs an E1-style size sweep of all
/// three paper algorithms twice — once on the pure in-memory simulator, once
/// genuinely out-of-core on the file-backed [`BackendKind::Disk`] plane —
/// plus sharded runs at `P ∈ {1, 4}`, and holds the pair to two gates:
///
/// * **`DISK_PARITY`** — the simulator is the spec, the disk is the witness:
///   any divergence in the triangle multiset, the charged read/write
///   counts, or the logical transfer count between the two backends is a
///   hard failure;
/// * **`E11_CORRELATION`** — Pearson r between simulated charged transfers
///   and measured real device block I/O across the sweep must be at least
///   [`E11_MIN_CORRELATION`]. (By construction the pool performs exactly
///   one real read per charged read and one real write per charged write,
///   so r should come out ≈ 1.0; the gate guards the construction.)
///
/// Wall-clock per backend and the disk/memory slowdown go into the timing
/// section, next to the simulated counts but out of the byte-stable rows.
pub fn experiment_e11(sizes: &[usize]) -> Outcome {
    let cfg = default_config();

    let mut rows = Vec::new();
    let mut timing = Vec::new();
    let mut parity = Vec::new();
    let mut sim_points = Vec::new();
    let mut real_points = Vec::new();

    for &e in sizes {
        let g = generators::erdos_renyi(e / 8, e, 1);
        for alg in paper_algorithms() {
            let label = format!("E={e} {}", alg.name());

            let mem = Machine::new(cfg);
            let mut mem_sink = CollectingSink::new();
            let mem_start = std::time::Instant::now();
            let mem_report = enumerate_triangles_on(&mem, &g, alg, &mut mem_sink);
            let mem_ms = mem_start.elapsed().as_secs_f64() * 1e3;

            let disk = Machine::with_backend(cfg, BackendKind::Disk);
            let mut disk_sink = CollectingSink::new();
            let disk_start = std::time::Instant::now();
            let disk_report = enumerate_triangles_on(&disk, &g, alg, &mut disk_sink);
            let disk_ms = disk_start.elapsed().as_secs_f64() * 1e3;
            // Snapshot the real counters before the fsync below, then
            // exercise the durability barrier (uncharged, so it cannot
            // perturb the parity comparison).
            let real = disk.disk_counters().expect("disk plane has real counters");
            disk.sync();

            // --- DISK_PARITY: the simulator is the spec. ---
            let mut mem_triangles = mem_sink.into_triangles();
            let mut disk_triangles = disk_sink.into_triangles();
            mem_triangles.sort_unstable();
            disk_triangles.sort_unstable();
            if mem_triangles != disk_triangles {
                parity.push(format!(
                    "{label}: disk multiset ({} triangles) differs from the simulator's ({})",
                    disk_triangles.len(),
                    mem_triangles.len()
                ));
            }
            if mem_report.io != disk_report.io {
                parity.push(format!(
                    "{label}: charged transfers diverge — sim {}r/{}w vs disk {}r/{}w",
                    mem_report.io.reads,
                    mem_report.io.writes,
                    disk_report.io.reads,
                    disk_report.io.writes
                ));
            }
            if mem.transfers() != disk.transfers() {
                parity.push(format!(
                    "{label}: logical transfer streams diverge — sim {} vs disk {}",
                    mem.transfers(),
                    disk.transfers()
                ));
            }

            // --- Correlation points: whole-machine charged transfers vs
            // whole-run real device ops (both include the load phase, so
            // they are the same coverage). ---
            let sim_total = disk.io().total() as f64;
            let real_total = real.total() as f64;
            sim_points.push(sim_total);
            real_points.push(real_total);

            rows.push(
                Row::new(label.clone())
                    .col("triangles", disk_report.triangles as f64)
                    .col("sim_io", mem_report.io.total() as f64)
                    .col("disk_io", disk_report.io.total() as f64)
                    .col("real_reads", real.block_reads as f64)
                    .col("real_writes", real.block_writes as f64)
                    .col("real_total", real_total)
                    .col("real/sim", real_total / sim_total.max(1.0)),
            );
            timing.push(
                Row::new(label)
                    .col("mem_ms", mem_ms)
                    .col("disk_ms", disk_ms)
                    .col("slowdown", disk_ms / mem_ms.max(1e-9)),
            );
        }
    }

    // Sharded runs: every worker machine on the disk plane, P ∈ {1, 4}, at
    // the largest sweep size — the out-of-core path must also hold under
    // the work-unit scheduler.
    let e = *sizes.last().expect("the sweep is non-empty");
    let g = generators::erdos_renyi(e / 8, e, 1);
    let alg = Algorithm::CacheAwareRandomized { seed: 0xA11CE };
    for p in [1usize, 4] {
        let label = format!("sharded E={e} aware P={p}");
        let mut mem_sink = CollectingSink::new();
        let mem_sharded =
            enumerate_triangles_sharded(&g, alg, cfg, ShardPlan::new(p), &mut mem_sink)
                .expect("the paper drivers support sharded execution");
        let mut disk_sink = CollectingSink::new();
        let disk_start = std::time::Instant::now();
        let disk_sharded = enumerate_triangles_sharded(
            &g,
            alg,
            cfg,
            ShardPlan::new(p).with_backend(BackendKind::Disk),
            &mut disk_sink,
        )
        .expect("the paper drivers support sharded execution");
        let disk_ms = disk_start.elapsed().as_secs_f64() * 1e3;
        // Both sinks receive the k-way-merged (already sorted) stream.
        if mem_sink.into_triangles() != disk_sink.into_triangles() {
            parity.push(format!(
                "{label}: disk-plane sharded multiset differs from the simulator's"
            ));
        }
        if mem_sharded.workers.per_worker != disk_sharded.workers.per_worker {
            parity.push(format!(
                "{label}: per-worker charged I/O diverges — sim sum {} vs disk sum {}",
                mem_sharded.workers.sum_io, disk_sharded.workers.sum_io
            ));
        }
        rows.push(
            Row::new(label.clone())
                .col("triangles", disk_sharded.report.triangles as f64)
                .col("sim_io", mem_sharded.workers.sum_io as f64)
                .col("disk_io", disk_sharded.workers.sum_io as f64)
                .col("max_io", disk_sharded.workers.max_io as f64),
        );
        timing.push(Row::new(label).col("disk_ms", disk_ms));
    }

    let correlation = (
        "Pearson r of simulated transfers vs real disk I/O".to_string(),
        pearson(&sim_points, &real_points),
    );
    Outcome {
        gates: vec![
            Gate::exact("DISK_PARITY", &parity),
            Gate::check(
                "E11_CORRELATION",
                Bound::Floor,
                E11_MIN_CORRELATION,
                [correlation],
            ),
        ],
        timing,
        ..Outcome::new(
            "E11: sim-vs-disk — in-memory spec vs file-backed witness (M=4096, B=64)",
            rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_all_pass(outcome: &Outcome) {
        for gate in &outcome.gates {
            assert!(gate.passed, "{gate}: {}", gate.detail);
        }
    }

    /// Asserts that `gate` failed and reports `measured` as its worst sample.
    fn assert_trips(gate: Gate, measured: f64) {
        assert!(!gate.passed, "{gate}: {}", gate.detail);
        assert_eq!(gate.measured, measured, "{gate}: {}", gate.detail);
    }

    #[test]
    fn tables_render_and_rows_are_consistent() {
        let outcome = experiment_e1(&[1000]);
        assert!(!outcome.rows.is_empty());
        let table = render_table("E1 smoke", &outcome.rows);
        assert!(table.contains("io/paper_bound"));
        assert!(table.contains("cache-oblivious"));

        // A row whose columns differ from the row above starts a new header,
        // as E9's control row and E10's per-worker rows need.
        let mixed = [
            Row::new("zero-fault control").col("io", 1.0),
            Row::new("crash@1").col("overhead", 1.5),
            Row::new("crash@2").col("overhead", 1.2),
        ];
        let table = render_table("mixed", &mixed);
        assert_eq!(table.matches("case").count(), 2, "{table}");
        assert_eq!(table.matches("overhead").count(), 1, "{table}");
    }

    #[test]
    fn e2_reports_predicted_and_measured_gain() {
        let outcome = experiment_e2(&[4]);
        assert_eq!(outcome.rows.len(), 1);
        let aware = outcome
            .phase_peaks
            .iter()
            .find(|p| p.case.contains("cache-aware"))
            .expect("cache-aware phase peaks recorded");
        assert_eq!(aware.budget_words, Some(2 * 512));
        let names: Vec<&str> = aware.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "step1_high_degree",
                "step2_partition",
                "step3_color_triples"
            ]
        );
        assert!(aware.phases.iter().any(|p| p.peak_words > 0));
        let peaks = phase_peak_gate(&outcome.phase_peaks);
        assert!(peaks.passed, "{peaks}: {}", peaks.detail);
        assert!((outcome.rows[0].get("predicted_gain") - 2.0).abs() < 1e-9);
    }

    #[test]
    fn e2_io_gate_passes_current_code_and_catches_regressions() {
        let outcome = experiment_e2(&[4, 8, 16]);
        assert_all_pass(&outcome);
        let names: Vec<&str> = outcome.gates.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "CACHE_AWARE_IO_CEILING",
                "CACHE_AWARE_CROSSOVER",
                "PHASE_PEAK_BUDGET"
            ]
        );

        // A return to the |Γ_mem| reserve with a full endpoint index (the
        // worst row of the full sweep before the forward-degree reserve), to
        // sorting the 2E endpoints in step 1, all the way back to the
        // per-triple step-3 loop, and back to the fixed α = 1/8 chunk
        // divisor (the pre-adaptive normalised 21.6) must all trip the
        // ceiling.
        for (label, aware_io, normalised, gain) in [
            ("E/M=64", 7.670e4, 9.36, 6.85),
            ("E/M=8", 5.313e3, 14.68, 1.56),
            ("E/M=32", 1.063e5, 36.7, 1.24),
            ("E/M=32", 6.262e4, 21.62, 2.10),
        ] {
            let rows = [Row::new(label)
                .col("aware_io", aware_io)
                .col("aware_io/bound", normalised)
                .col("measured_gain", gain)];
            assert_trips(CACHE_AWARE_IO_CEILING.check(&rows), normalised);
            assert!(CACHE_AWARE_CROSSOVER.check(&rows).passed);
        }

        let lost_crossover = [Row::new("E/M=8")
            .col("aware_io", 2.0e3)
            .col("aware_io/bound", 5.5)
            .col("measured_gain", 0.97)];
        assert_trips(CACHE_AWARE_CROSSOVER.check(&lost_crossover), 0.97);
        assert!(CACHE_AWARE_IO_CEILING.check(&lost_crossover).passed);

        // The crossover requirement only applies from E/M =
        // CACHE_AWARE_CROSSOVER_FROM on.
        let below_crossover_threshold = [
            Row::new("E/M=4").col("measured_gain", 0.95),
            Row::new("E/M=8").col("measured_gain", 1.56),
        ];
        let gate = CACHE_AWARE_CROSSOVER.check(&below_crossover_threshold);
        assert!(gate.passed, "{gate}: {}", gate.detail);
        assert_eq!(gate.measured, 1.56);
    }

    #[test]
    fn work_budget_gate_passes_current_code_and_catches_regressions() {
        let outcome = experiment_e7(&[4000]);
        assert_all_pass(&outcome);

        // The implementation before the incidence lists (≈ 52.7), the
        // incidence-list constant (9.75–10.3), the 24-edge in-core base
        // case (6.10 quick), the 96-edge one (3.50 quick) and ordered
        // colour-vector targets (2.96 quick) must all trip the ceiling.
        for (label, work_ops, e_1_5, ratio) in [
            ("E=4000 cache-oblivious", 1e9, 2.53e5, 52.66),
            ("E=8000 cache-oblivious", 6.973e6, 7.155e5, 9.75),
            ("E=4000 cache-oblivious", 1.542e6, 2.530e5, 6.10),
            ("E=4000 cache-oblivious", 8.851e5, 2.530e5, 3.50),
            ("E=4000 cache-oblivious", 7.480e5, 2.530e5, 2.96),
        ] {
            let rows = [Row::new(label)
                .col("work_ops", work_ops)
                .col("E^1.5", e_1_5)
                .col("work/E^1.5", ratio)];
            assert_trips(CACHE_OBLIVIOUS_WORK_CEILING.check(&rows), ratio);
        }

        let unrelated = [
            Row::new("E=4000 hu-tao-chung").col("work/E^1.5", 1e9),
            Row::new("E=4000 cache-oblivious").col("work/E^1.5", 1.36),
        ];
        let gate = CACHE_OBLIVIOUS_WORK_CEILING.check(&unrelated);
        assert!(gate.passed, "gate only watches the cache-oblivious rows");
        assert_eq!(gate.measured, 1.36);
        // With no cache-oblivious row the gate measured nothing.
        let gate = CACHE_OBLIVIOUS_WORK_CEILING.check(&unrelated[..1]);
        assert!(!gate.passed && gate.measured.is_nan(), "{gate}");
    }

    #[test]
    fn e3_io_gate_passes_current_code_and_catches_regressions() {
        let outcome = experiment_e3(4_000, &[(1 << 10, 32), (1 << 13, 32), E3_PROFILED]);
        assert_all_pass(&outcome);
        // The profiled run's depth rows follow the machine rows, which the
        // gate alone reads: every routing depth copies each edge twice.
        let depths: Vec<&Row> = outcome
            .rows
            .iter()
            .filter(|row| row.label.starts_with("depth "))
            .collect();
        assert_eq!(outcome.rows.len(), 3 + depths.len());
        assert!(depths.len() >= 4, "the tree routes at depths 0-3");
        assert_eq!(depths[0].get("edges_in"), 4000.0);
        assert!(depths[1..].iter().all(|row| row.get("copy") == 2.0));
        assert!(
            outcome.phase_peaks.iter().all(|p| p
                .phases
                .iter()
                .map(|s| s.name.as_str())
                .collect::<Vec<_>>()
                == ["root_sort", "recursion"]),
            "cache-oblivious runs must record their two phases"
        );

        // The incidence-list implementation's worst (145.97 at M=512 B=32)
        // and best (79.75 at M=16384 B=32) rows, the 24-edge in-core base
        // case (58.13 at M=512 B=32) and ordered colour-vector targets
        // (35.41 at M=4096 B=128, quick 28.71 at M=1024 B=32) must all trip
        // the ceiling.
        for (label, io, normalised) in [
            ("M=512 B=32", 2.650e5, 145.97),
            ("M=16384 B=32", 2.559e4, 79.75),
            ("M=512 B=32", 1.055e5, 58.13),
            ("M=4096 B=128", 5.682e3, 35.41),
            ("M=1024 B=32", 7.093e3, 28.71),
        ] {
            let rows = [Row::new(label).col("io", io).col("io/bound", normalised)];
            assert_trips(CACHE_OBLIVIOUS_IO_CEILING.check(&rows), normalised);
        }

        let missing_column = [Row::new("M=512 B=32").col("io", 1.0)];
        let gate = CACHE_OBLIVIOUS_IO_CEILING.check(&missing_column);
        assert!(!gate.passed && gate.measured.is_nan(), "{gate}");
    }

    #[test]
    fn e5_derand_io_gate_passes_current_code_and_catches_a_per_level_sort() {
        let outcome = experiment_e5(&[4_000]);
        assert_all_pass(&outcome);
        // The quick size runs no greedy level, so both drivers charge alike.
        assert_eq!(outcome.rows[0].get("io_derand/io_random"), 1.0);

        // A sort of the two-word incidence list at every level (4.16 at
        // E = 8000, 3.34 at E = 16000) must trip the ceiling.
        for (label, ratio) in [("E=8000", 4.16), ("E=16000", 3.34)] {
            let rows = [Row::new(label).col("io_derand/io_random", ratio)];
            assert_trips(E5_DERAND_IO_RATIO.check(&rows), ratio);
        }
    }

    #[test]
    fn phase_peak_gate_flags_over_budget_phases_and_skips_ungated_rows() {
        let snapshot = |name: &str, peak_words: u64| PhaseSnapshot {
            name: name.into(),
            peak_words,
            live_words: 0,
            live_leases: Vec::new(),
        };
        let over = PhasePeakRow {
            case: "E=4000 cache-oblivious".into(),
            budget_words: Some(1000),
            phases: vec![snapshot("root_sort", 900), snapshot("recursion", 4096)],
        };
        let gate = phase_peak_gate(&[over]);
        assert_trips(gate.clone(), 4.096);
        assert!(gate.detail.contains("recursion"), "{}", gate.detail);
        assert!(gate.detail.contains("4096"), "{}", gate.detail);

        let ungated = PhasePeakRow {
            case: "E=4000 hu-tao-chung".into(),
            budget_words: None,
            phases: vec![snapshot("pivot_join", u64::MAX)],
        };
        let gated = PhasePeakRow {
            case: "E=4000 cache-aware-randomized".into(),
            budget_words: Some(1000),
            phases: vec![snapshot("step1_high_degree", 500)],
        };
        let gate = phase_peak_gate(&[ungated, gated]);
        assert!(gate.passed, "ungated baselines are never flagged");
        assert_eq!(gate.measured, 0.5);
    }

    #[test]
    fn exactness_and_balance_gates_report_numeric_verdicts() {
        let clean = Gate::exact("E10_MULTISET_INVARIANCE", &[]);
        assert!(clean.passed);
        assert_eq!(clean.to_string(), "E10_MULTISET_INVARIANCE 0/0");
        let broken = Gate::exact(
            "E10_SINGLE_WORKER_PARITY",
            &["first".into(), "second".into()],
        );
        assert_trips(broken.clone(), 2.0);
        assert_eq!(broken.detail, "first");

        // One worker owning most of the unit stream at P = 4; the per-worker
        // rows carry no balance column and are not read.
        let skewed = [
            Row::new("aware P=4").col("max_io/sum", 0.6),
            Row::new("aware P=4 w0").col("io", 1.0),
        ];
        let gate = E10_WORKER_BALANCE.check(&skewed);
        assert_eq!(
            gate.to_string(),
            "E10_WORKER_BALANCE 0.600/0.350 (headroom -71%)"
        );
        assert_trips(gate, 0.6);
    }

    #[test]
    fn experiment_records_render_valid_flat_json() {
        let rows = vec![
            Row::new("M=512 B=32")
                .col("io", 1.055e5)
                .col("io/bound", 58.13),
            Row::new("quote\"case")
                .col("weird", f64::NAN)
                .col("neg", -1.5),
        ];
        let gates = vec![
            Gate::check(
                "CACHE_OBLIVIOUS_IO_CEILING",
                Bound::Ceiling,
                45.0,
                [("row 'M=1024 B=32' io/bound".to_string(), 36.0)],
            ),
            Gate::exact("E9_EXACTLY_ONCE", &["row 'x': broke\nbadly".to_string()]),
            CACHE_OBLIVIOUS_IO_CEILING.check(&rows[1..]),
        ];
        let peaks = vec![
            PhasePeakRow {
                case: "M=512 B=32".into(),
                budget_words: Some(2000),
                phases: vec![PhaseSnapshot {
                    name: "root_sort".into(),
                    peak_words: 512,
                    live_words: 0,
                    live_leases: Vec::new(),
                }],
            },
            PhasePeakRow {
                case: "baseline".into(),
                budget_words: None,
                phases: Vec::new(),
            },
        ];
        let outcome = Outcome {
            title: "E3: cache-obliviousness".into(),
            rows,
            phase_peaks: peaks,
            gates,
            timing: vec![Row::new("M=512 B=32").col("wall_ms", 1.25)],
            fault_trace: Some(Vec::new()),
        };
        let json = experiment_record_json("e3", &outcome);
        // Structure and escaping: balanced braces, escaped quote and newline,
        // NaN downgraded to null, booleans verbatim.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert!(json.contains("\"experiment\": \"e3\""));
        assert!(json.contains("\"io/bound\": 58.13"));
        assert!(json.contains("quote\\\"case"));
        assert!(json.contains("\"weird\": null"));
        assert!(!json.contains("NaN"));
        assert!(json.contains("\"phase_peaks\""));
        assert!(json.contains(
            "{\"name\": \"root_sort\", \"peak_words\": 512, \"live_words\": 0, \
             \"live_leases\": 0}"
        ));
        assert!(json.contains("\"budget_words\": 2000"));
        assert!(json.contains("\"budget_words\": null"));
        // Numeric gate fields: a ceiling with its headroom, an exactness
        // gate's violation count against 0 (no finite headroom), and a
        // missing column's NaN measurement as null.
        assert!(
            json.contains("\"measured\": 36, \"limit\": 45, \"headroom\": 0.2, \"passed\": true")
        );
        assert!(json.contains(
            "\"measured\": 1, \"limit\": 0, \"headroom\": null, \"passed\": false, \
             \"detail\": \"row 'x': broke\\nbadly\""
        ));
        assert!(json.contains(&format!(
            "\"measured\": null, \"limit\": {}, \"headroom\": null",
            CACHE_OBLIVIOUS_IO_CEILING.limit
        )));
        // Wall-clock sits in its own last section, never among the rows.
        let (counts, timing) = json.split_once("\"timing\"").expect("a timing section");
        assert!(!counts.contains("wall_ms"));
        assert_eq!(
            timing,
            ": [\n    {\"case\": \"M=512 B=32\", \"values\": {\"wall_ms\": 1.25}}\n  ]\n}\n"
        );

        let dir =
            std::env::temp_dir().join(format!("trienum-bench-json-test-{}", std::process::id()));
        let paths = write_records(&dir, "e3", &outcome).unwrap();
        assert_eq!(
            paths,
            [dir.join("BENCH_E3.json"), dir.join("E3_FAULT_TRACE.json")]
        );
        assert_eq!(std::fs::read_to_string(&paths[0]).unwrap(), json);
        assert_eq!(
            std::fs::read_to_string(&paths[1]).unwrap(),
            "{\n  \"experiment\": \"e3\",\n  \"events\": [\n  ]\n}\n"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn e9_gates_catch_regressions_and_skip_unrelated_rows() {
        // The zero-fault control row has neither column and is not read.
        let control = Row::new("zero-fault control").col("io", 1.0);
        let slow_recovery = [
            control.clone(),
            Row::new("crash@500")
                .col("overhead", E9_RECOVERY_IO_OVERHEAD.limit + 0.5)
                .col("retry_frac", 0.01),
        ];
        assert_trips(E9_RECOVERY_IO_OVERHEAD.check(&slow_recovery), 2.5);
        assert!(E9_RETRY_FRACTION_CEILING.check(&slow_recovery).passed);

        let retry_storm = [
            control,
            Row::new("crash@500")
                .col("overhead", 1.2)
                .col("retry_frac", E9_RETRY_FRACTION_CEILING.limit * 5.0),
        ];
        assert_trips(E9_RETRY_FRACTION_CEILING.check(&retry_storm), 0.5);
        let overhead = E9_RECOVERY_IO_OVERHEAD.check(&retry_storm);
        assert!(overhead.passed);
        assert_eq!(overhead.measured, 1.2);
    }

    #[test]
    fn e9_chaos_sweep_is_exact_and_within_budgets() {
        // A reduced sweep (the full --quick sweep runs in CI): three crash
        // points over a smaller instance, all gates still enforced.
        let outcome = experiment_e9(1_200, 3);
        assert_all_pass(&outcome);
        // One control row plus one row per crash point, and the injected
        // rates are high enough that the representative trace is non-empty.
        assert_eq!(outcome.rows.len(), 4);
        let trace = outcome.fault_trace.expect("E9 records a fault trace");
        assert!(!trace.is_empty());
        let json = fault_trace_json("e9", &trace);
        assert!(json.contains("\"experiment\": \"e9\""));
        assert!(json.contains("\"kind\": \""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn e8_mean_is_below_bound() {
        let outcome = experiment_e8(3000, 4);
        assert!(outcome.rows[0].get("mean/bound") < 3.0);
    }
}
