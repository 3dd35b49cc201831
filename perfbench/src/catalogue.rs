//! Every metric the benchmark emits: its unit, better direction, layer, and
//! (for layer metrics) the end-to-end metric and workloads it should move.
//!
//! `BENCHMARK.json` at the repository root is generated from this table by
//! `--benchmark-json`; a test keeps the two identical.

use crate::workload::WORKLOADS;

/// How long one run measures, in seconds, unless `--seconds` says otherwise.
pub const RUN_SECONDS: u64 = 25;

/// The untraced command; the traced run appends `--trace 1` instead of 0.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--quiet",
    "--release",
    "--offline",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// The directory holding the benchmark (the `paths` of `BENCHMARK.json`).
pub const PATHS: [&str; 1] = ["perfbench"];

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Module (or boundary) the metric measures.
    pub layer: &'static str,
    /// The end-to-end metric and workloads it should move (layer metrics).
    pub moves: &'static str,
    /// Share of the parent's median by which it may worsen (end-to-end).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        layer: "end-to-end",
        moves: "",
        bound,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        layer,
        moves,
        bound: 0.0,
    }
}

/// Reported with `--trace 0`.
pub const END_TO_END: [Metric; 7] = [
    e2e("edges_per_s", "edges/s", "higher", 0.2),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("charged_io", "blocks", "lower", 0.15),
    e2e("work_ops", "ops", "lower", 0.1),
    e2e("peak_mem_words", "words", "lower", 0.15),
    e2e("peak_disk_words", "words", "lower", 0.1),
    e2e("host_rss_peak_mb", "MB", "lower", 0.2),
];

const ALL: &str = "edges_per_s on all four workloads";
const DISK: &str = "edges_per_s on aware-er-disk only";
const AWARE_SORT: &str = "edges_per_s and charged_io on aware-er-mem, aware-er-disk, derand-er-p2";
const OBLIVIOUS: &str = "edges_per_s and charged_io on oblivious-cl-mem";
const AWARE_IO: &str = "charged_io on aware-er-mem, aware-er-disk, derand-er-p2";
const AWARE_PEAK: &str = "peak_mem_words on aware-er-mem, aware-er-disk, derand-er-p2";
const DERAND_IO: &str = "charged_io on derand-er-p2";
const DERAND_PEAK: &str = "peak_mem_words on derand-er-p2";
const OBLIVIOUS_PEAK: &str = "peak_mem_words on oblivious-cl-mem";
const SHARDED: &str = "edges_per_s and charged_io on derand-er-p2";
const TRACE: &str = "none: the benchmark's own cost";

/// Reported with `--trace 1`. Exact counts of a layer a workload bypasses
/// read 0 on that workload.
#[rustfmt::skip]
pub const PER_LAYER: [Metric; 64] = [
    // host speed and the uncalibrated end-to-end timings
    layer("host.calibration_ms", "ms", "lower", "host", "none: host speed, divides every calibrated timing"),
    layer("wall.edges_per_s", "edges/s", "higher", "end-to-end", "edges_per_s, uncalibrated"),
    layer("wall.setup_s", "s", "lower", "end-to-end", "setup_s, uncalibrated"),
    // emsim machine stack, ns per word at the workloads' M and B.
    layer("host.vec_scan_ns", "ns/word", "lower", "host", "baseline"),
    layer("extvec.scan_ns.mem", "ns/word", "lower", "emsim.extvec", ALL),
    layer("extvec.scan_ns.mem_resident", "ns/word", "lower", "emsim.extvec", ALL),
    layer("extvec.push_ns.mem", "ns/word", "lower", "emsim.extvec", ALL),
    layer("extvec.get_ns.mem", "ns/word", "lower", "emsim.extvec", ALL),
    layer("extvec.scan_ns.disk", "ns/word", "lower", "emsim.extvec", DISK),
    layer("extvec.push_ns.disk", "ns/word", "lower", "emsim.extvec", DISK),
    layer("extvec.get_ns.disk", "ns/word", "lower", "emsim.extvec", DISK),
    // storage and pool
    layer("storage.read_block_ns", "ns/block", "lower", "emsim.storage", DISK),
    layer("storage.write_block_ns", "ns/block", "lower", "emsim.storage", DISK),
    layer("pool.overhead_ns", "ns/word", "lower", "emsim.pool", DISK),
    layer("storage.real_reads", "blocks", "lower", "emsim.storage", DISK),
    layer("storage.real_writes", "blocks", "lower", "emsim.storage", DISK),
    layer("storage.real_per_charged", "ratio", "lower", "emsim.storage", DISK),
    // emalgo on an ExtVec<Edge> of the workload's E
    layer("emalgo.external_sort.ns_per_word", "ns/word", "lower", "emalgo.sort", AWARE_SORT),
    layer("emalgo.external_sort.io", "blocks", "lower", "emalgo.sort", AWARE_SORT),
    layer("emalgo.oblivious_sort.ns_per_word", "ns/word", "lower", "emalgo.oblivious", OBLIVIOUS),
    layer("emalgo.oblivious_sort.io", "blocks", "lower", "emalgo.oblivious", OBLIVIOUS),
    layer("emalgo.scan_partition.ns_per_word", "ns/word", "lower", "emalgo.partition", OBLIVIOUS),
    layer("emalgo.scan_partition.io", "blocks", "lower", "emalgo.partition", OBLIVIOUS),
    layer("emalgo.kway_merge.ns_per_word", "ns/word", "lower", "emalgo.merge", OBLIVIOUS),
    layer("emalgo.kway_merge.io", "blocks", "lower", "emalgo.merge", OBLIVIOUS),
    // kwise
    layer("kwise.random_coloring_ns", "ns/call", "lower", "kwise.coloring", AWARE_SORT),
    layer("kwise.refined_coloring_ns", "ns/call", "lower", "kwise.coloring", OBLIVIOUS),
    // input
    layer("input.load_s", "s", "lower", "trienum.input", ALL),
    // cache_aware, derandomized, lemma2 (exact, from RunReport)
    layer("cache_aware.step1_high_degree.io", "blocks", "lower", "trienum.cache_aware", AWARE_IO),
    layer("cache_aware.step1_high_degree.peak_words", "words", "lower", "trienum.cache_aware", AWARE_PEAK),
    layer("cache_aware.step2_partition.io", "blocks", "lower", "trienum.cache_aware", AWARE_IO),
    layer("cache_aware.step2_partition.peak_words", "words", "lower", "trienum.cache_aware", AWARE_PEAK),
    layer("cache_aware.step3_color_triples.io", "blocks", "lower", "trienum.lemma2", AWARE_IO),
    layer("cache_aware.step3_color_triples.peak_words", "words", "lower", "trienum.lemma2", AWARE_PEAK),
    layer("derandomized.step0_greedy_coloring.io", "blocks", "lower", "trienum.derandomized", DERAND_IO),
    layer("derandomized.step0_greedy_coloring.peak_words", "words", "lower", "trienum.derandomized", DERAND_PEAK),
    layer("lemma2.chunk_passes", "count", "lower", "trienum.lemma2", AWARE_IO),
    layer("kwise.x_statistic", "count", "lower", "trienum.cache_aware", AWARE_IO),
    layer("derandomized.greedy_levels", "count", "lower", "trienum.derandomized", DERAND_IO),
    // cache_oblivious (exact, from RunReport)
    layer("cache_oblivious.root_sort.io", "blocks", "lower", "trienum.cache_oblivious", OBLIVIOUS),
    layer("cache_oblivious.root_sort.peak_words", "words", "lower", "trienum.cache_oblivious", OBLIVIOUS_PEAK),
    layer("cache_oblivious.recursion.io", "blocks", "lower", "trienum.cache_oblivious", OBLIVIOUS),
    layer("cache_oblivious.recursion.peak_words", "words", "lower", "trienum.cache_oblivious", OBLIVIOUS_PEAK),
    layer("cache_oblivious.leaf_batch.io", "blocks", "lower", "trienum.cache_oblivious", OBLIVIOUS),
    layer("cache_oblivious.leaf_batch.peak_words", "words", "lower", "trienum.cache_oblivious", OBLIVIOUS_PEAK),
    layer("cache_oblivious.subproblems", "count", "lower", "trienum.cache_oblivious", OBLIVIOUS),
    layer("cache_oblivious.max_depth", "count", "lower", "trienum.cache_oblivious", OBLIVIOUS),
    layer("cache_oblivious.partition_sweeps", "count", "lower", "trienum.cache_oblivious", OBLIVIOUS),
    layer("cache_oblivious.high_degree_truncations", "count", "lower", "trienum.cache_oblivious", OBLIVIOUS),
    // workunit (derand-er-p2)
    layer("workunit.max_worker_io", "blocks", "lower", "trienum.workunit", SHARDED),
    layer("workunit.sum_worker_io", "blocks", "lower", "trienum.workunit", SHARDED),
    layer("workunit.balance", "ratio", "lower", "trienum.workunit", SHARDED),
    layer("workunit.merge_io", "blocks", "lower", "trienum.workunit", SHARDED),
    layer("workunit.owned_fraction", "ratio", "higher", "trienum.workunit", SHARDED),
    layer("workunit.speedup", "ratio", "higher", "trienum.workunit", SHARDED),
    // the traced run itself
    layer("trace.edges_per_s.traced", "edges/s", "higher", "bench", TRACE),
    layer("trace.edges_per_s.untraced", "edges/s", "higher", "bench", TRACE),
    layer("trace.overhead_frac", "ratio", "lower", "bench", TRACE),
    layer("self_ms.graphgen.generate", "ms", "lower", "graphgen", "setup_s on all four workloads"),
    layer("self_ms.emsim.machine_new", "ms", "lower", "emsim.machine", "setup_s on all four workloads"),
    layer("self_ms.enumerate", "ms", "lower", "trienum", ALL),
    layer("self_ms.verify.oracle", "ms", "lower", "graphgen.naive", TRACE),
    layer("self_ms.bench.iteration", "ms", "lower", "bench", TRACE),
    layer("self_ms.probes", "ms", "lower", "bench", TRACE),
];

/// The metrics of one mode: `--trace 0` gives the end-to-end ones,
/// `--trace 1` the per-layer ones.
pub fn metrics(traced: bool) -> &'static [Metric] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn quoted(items: &[&str]) -> String {
    let q: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    q.join(", ")
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s += &format!("  \"command\": [{}],\n", quoted(&COMMAND));
    s += &format!("  \"paths\": [{}],\n", quoted(&PATHS));
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    s += "  \"workloads\": [\n";
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s += &workloads.join(",\n");
    s += "\n  ],\n  \"end_to_end\": [\n";
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    s += &e2e.join(",\n");
    s += "\n  ],\n  \"per_layer\": [\n";
    let per: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    s += &per.join(",\n");
    s += "\n  ]\n}\n";
    s
}

/// A table of every metric with its layer and what it should move.
pub fn describe() -> String {
    let mut s = String::new();
    s += &format!(
        "untraced: {} --workload <name> --seed <n> --seconds {RUN_SECONDS} --trace 0\n",
        COMMAND.join(" ")
    );
    s += &format!(
        "traced:   {} --workload <name> --seed <n> --seconds {RUN_SECONDS} --trace 1\n\n",
        COMMAND.join(" ")
    );
    for w in &WORKLOADS {
        s += &format!("workload {:<18} {}\n", w.name, w.why);
    }
    s += "\n";
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let detail = if m.layer == "end-to-end" {
            format!("bound {}", m.bound)
        } else {
            format!("moves {}", m.moves)
        };
        s += &format!(
            "{:<46} {:<8} {:<7} {:<24} {}\n",
            m.name, m.unit, m.better, m.layer, detail
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.better == "higher" || m.better == "lower");
            assert!(m.unit.len() <= 16);
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('"'));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is reported");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_generated_from_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json exists");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `--benchmark-json > BENCHMARK.json`"
        );
    }
}
