//! # trienum — I/O-efficient triangle enumeration
//!
//! A from-scratch Rust reproduction of
//! **Pagh & Silvestri, "The Input/Output Complexity of Triangle Enumeration"
//! (PODS 2014)**: the cache-aware randomized algorithm, the cache-oblivious
//! randomized algorithm, the deterministic (derandomized) cache-aware
//! algorithm — all achieving `O(E^{3/2}/(√M·B))` I/Os — together with the
//! matching lower bound of Theorem 3 and the baselines the paper compares
//! against (block-nested-loop join, Dementiev's sort-based algorithm,
//! Hu–Tao–Chung).
//!
//! Everything runs on the external-memory simulator of the [`emsim`] crate,
//! so every block transfer is counted exactly and the paper's bounds can be
//! validated empirically (see the `trienum-bench` crate and EXPERIMENTS.md).
//!
//! ## Quick start
//!
//! ```
//! use emsim::EmConfig;
//! use graphgen::generators;
//! use trienum::{enumerate_triangles, Algorithm, CountingSink};
//!
//! let graph = generators::erdos_renyi(500, 3_000, 42);
//! let cfg = EmConfig::new(1 << 12, 128); // M = 4096 words, B = 128 words
//! let mut sink = CountingSink::new();
//! let report = enumerate_triangles(
//!     &graph,
//!     Algorithm::CacheObliviousRandomized { seed: 7 },
//!     cfg,
//!     &mut sink,
//! );
//! assert_eq!(report.triangles, sink.count());
//! println!("{} triangles using {}", report.triangles, report.io);
//! ```
//!
//! ## Entry points
//!
//! * [`enumerate_triangles`] — any [`Algorithm`] on a fresh in-memory
//!   machine; [`count_triangles`] wraps it with a [`CountingSink`].
//! * [`enumerate_triangles_on`] — the same on a caller-built [`Machine`]
//!   (backend selection, fault plans).
//! * [`enumerate_triangles_with_recovery`] — the cache-oblivious driver with
//!   checkpointing armed, started fresh or resumed from a [`Checkpoint`].
//! * [`enumerate_triangles_sharded`] — the paper's three drivers across `P`
//!   worker machines (see [`workunit`]).
//!
//! All of them run through one private pipeline: load the graph, make the
//! cache cold, dispatch on the algorithm, and build the [`RunReport`]. The
//! sequential entry points hand it a solo shard cursor that owns every work
//! unit; each sharded worker hands it its own cursor. Every report carries
//! `retry_io` and `retry_work` rows, which read 0 without a fault plan.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baselines;
mod cache_aware;
mod cache_oblivious;
pub mod checkpoint;
mod derandomized;
mod input;
mod lemma1;
mod lemma2;
pub mod lower_bound;
mod partition;
mod potential;
mod sink;
mod stats;
mod util;
pub mod workunit;

pub use cache_aware::measure_random_coloring_balance;
pub use cache_oblivious::{cache_oblivious_phase_budget, CACHE_OBLIVIOUS_WORDS_PER_LEVEL};
pub use checkpoint::{Checkpoint, CheckpointSpec};
pub use input::ExtGraph;
pub use sink::{CollectingSink, CountingSink, DurableSink, FnSink, StrictSink, TriangleSink};
pub use stats::RunReport;
pub use workunit::{
    enumerate_triangles_sharded, ShardConfigError, ShardPlan, ShardedReport, WorkUnit, WorkUnitKind,
};

// Re-export the configuration and machine types so downstream users need
// only this crate (the machine is part of the public API of the crash-safe
// entry points, which accept a caller-built — possibly fault-injected —
// machine).
pub use emsim::{BackendKind, EmConfig, Machine};

use checkpoint::Recovery;
use graphgen::{Graph, Triangle};
use stats::PhaseRecorder;
use workunit::ShardCursor;

/// The triangle-enumeration algorithms available in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Section 2 / Theorem 4: cache-aware randomized colouring algorithm,
    /// `O(E^{3/2}/(√M·B))` expected I/Os.
    CacheAwareRandomized {
        /// Seed of the 4-wise independent colouring.
        seed: u64,
    },
    /// Section 3 / Theorem 1: cache-oblivious randomized algorithm,
    /// `O(E^{3/2}/(√M·B))` expected I/Os without knowing `M` or `B`.
    CacheObliviousRandomized {
        /// Seed of the per-level refinement bits.
        seed: u64,
    },
    /// Section 4 / Theorem 2: deterministic cache-aware algorithm,
    /// `O(E^{3/2}/(√M·B))` worst-case I/Os assuming `M ≥ E^ε`.
    DeterministicCacheAware {
        /// Seed used to generate the candidate family (the run is fully
        /// deterministic given the seed).
        family_seed: u64,
        /// Optional override of the per-level candidate-family size.
        candidates: Option<usize>,
    },
    /// Baseline: Hu–Tao–Chung (SIGMOD 2013), `O(E²/(M·B))` I/Os.
    HuTaoChung,
    /// Baseline: Dementiev's sort-based algorithm, `O(sort(E^{3/2}))` I/Os.
    SortBased,
    /// Baseline: pipelined block-nested-loop join, `O(E³/(M²·B))` I/Os.
    BlockNestedLoop,
}

impl Algorithm {
    /// A short human-readable name (used in reports and experiment tables).
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::CacheAwareRandomized { .. } => "cache-aware-randomized",
            Algorithm::CacheObliviousRandomized { .. } => "cache-oblivious",
            Algorithm::DeterministicCacheAware { .. } => "deterministic-cache-aware",
            Algorithm::HuTaoChung => "hu-tao-chung",
            Algorithm::SortBased => "sort-based (Dementiev)",
            Algorithm::BlockNestedLoop => "block-nested-loop",
        }
    }

    /// Whether this is one of the paper's own algorithms (as opposed to a
    /// baseline).
    pub fn is_paper_algorithm(&self) -> bool {
        matches!(
            self,
            Algorithm::CacheAwareRandomized { .. }
                | Algorithm::CacheObliviousRandomized { .. }
                | Algorithm::DeterministicCacheAware { .. }
        )
    }

    /// The analytic I/O bound of this algorithm for `e` edges under `cfg`
    /// (the reference curve the experiments normalise against).
    pub fn analytic_bound(&self, cfg: EmConfig, e: usize) -> f64 {
        match self {
            Algorithm::CacheAwareRandomized { .. }
            | Algorithm::CacheObliviousRandomized { .. }
            | Algorithm::DeterministicCacheAware { .. } => cfg.triangle_bound(e),
            Algorithm::HuTaoChung => cfg.hu_tao_chung_bound(e),
            Algorithm::SortBased => cfg.sort_cost(((e as f64).powf(1.5)) as usize) as f64,
            Algorithm::BlockNestedLoop => {
                let e = e as f64;
                e * e * e / (cfg.mem_words as f64 * cfg.mem_words as f64 * cfg.block_words as f64)
            }
        }
    }
}

/// All algorithms, in the order the experiment tables list them.
pub const ALL_ALGORITHMS: [Algorithm; 6] = [
    Algorithm::CacheAwareRandomized { seed: 0xC0FFEE },
    Algorithm::CacheObliviousRandomized { seed: 0xC0FFEE },
    Algorithm::DeterministicCacheAware {
        family_seed: 0xC0FFEE,
        candidates: None,
    },
    Algorithm::HuTaoChung,
    Algorithm::SortBased,
    Algorithm::BlockNestedLoop,
];

/// A sink adapter translating triangles from the canonical (degree-ordered)
/// vertex ids back to the caller's original ids before forwarding them.
struct TranslatingSink<'a> {
    graph: &'a ExtGraph,
    inner: &'a mut dyn TriangleSink,
}

impl TriangleSink for TranslatingSink<'_> {
    fn emit(&mut self, t: Triangle) {
        self.inner.emit(self.graph.translate(t));
    }

    fn on_checkpoint(&mut self) {
        // Checkpoint boundaries must reach the wrapped sink — a DurableSink
        // behind the translation commits its buffer on this signal.
        self.inner.on_checkpoint();
    }
}

/// Enumerates every triangle of `graph` with the chosen `algorithm` on a
/// simulated external-memory machine configured by `cfg`, forwarding each
/// triangle (in the caller's original vertex ids) to `sink` exactly once.
///
/// Returns a [`RunReport`] with the exact I/O count, per-phase attribution,
/// peak memory and disk usage, and work counter for the run. Loading the
/// input onto the simulated disk is *not* charged to the algorithm (the
/// model assumes the input already resides in external memory), but all
/// I/Os from the first block read onwards are.
pub fn enumerate_triangles(
    graph: &Graph,
    algorithm: Algorithm,
    cfg: EmConfig,
    sink: &mut dyn TriangleSink,
) -> RunReport {
    enumerate_triangles_on(&Machine::new(cfg), graph, algorithm, sink)
}

/// Enumerates every triangle of `graph` on a *caller-built* machine — the
/// entry point for backend selection: pass a machine from
/// [`Machine::with_backend`]`(cfg, `[`BackendKind::Disk`]`)` to run the
/// identical algorithm genuinely out-of-core (payloads in a real temp file
/// behind a buffer pool), with the gauge API and charge accounting
/// unchanged. The report counts the same charged transfers on either
/// backend; `machine.disk_counters()` afterwards exposes the *real* block
/// I/O the run performed.
pub fn enumerate_triangles_on(
    machine: &Machine,
    graph: &Graph,
    algorithm: Algorithm,
    sink: &mut dyn TriangleSink,
) -> RunReport {
    run_pipeline(
        machine,
        graph,
        algorithm,
        sink,
        &mut ShardCursor::solo(),
        Recovery::default(),
    )
}

/// Convenience wrapper: enumerate and return only the triangle count and the
/// run report (using an internal [`CountingSink`]).
pub fn count_triangles(graph: &Graph, algorithm: Algorithm, cfg: EmConfig) -> (u64, RunReport) {
    let mut sink = CountingSink::new();
    let report = enumerate_triangles(graph, algorithm, cfg, &mut sink);
    (sink.count(), report)
}

/// Crash-safe cache-oblivious enumeration on a caller-built machine, fresh
/// or resumed.
///
/// Unlike [`enumerate_triangles`], the machine is supplied by the caller —
/// typically [`Machine::with_faults`] under a chaos harness — and emissions
/// reach `sink` only at checkpoint boundaries (and at successful
/// completion), buffered through a [`DurableSink`]. When `spec` is `Some`,
/// the run writes an atomic checkpoint to `spec.path` at each subproblem
/// boundary that crosses `spec.interval_io` simulated I/Os.
///
/// When `resume` is `Some`, the run continues from that checkpoint on a
/// fresh `machine` instead of starting at the root. `sink` must then be the
/// same sink (or one holding the same state) the crashed run committed
/// into: the checkpoint's high-water mark says how many triangles it already
/// holds, and the resumed run delivers exactly the remainder, so the
/// triangle multiset is bit-identical to an uninterrupted run. `graph` and
/// `seed` must be the crashed run's; a checkpoint describing another run
/// panics. Passing `spec` keeps checkpointing armed across the resume, so
/// repeated crashes stay recoverable.
///
/// A `CrashAt` fault surfaces as a panic carrying [`emsim::CrashPoint`];
/// the harness catches it, discards the dead machine (uncommitted buffered
/// emissions die with this call's stack), and resumes.
pub fn enumerate_triangles_with_recovery(
    graph: &Graph,
    machine: &Machine,
    seed: u64,
    sink: &mut dyn TriangleSink,
    spec: Option<&CheckpointSpec>,
    resume: Option<&Checkpoint>,
) -> RunReport {
    let mut durable = DurableSink::resume_from(sink, resume.map_or(0, |c| c.hwm));
    let report = run_pipeline(
        machine,
        graph,
        Algorithm::CacheObliviousRandomized { seed },
        &mut durable,
        &mut ShardCursor::solo(),
        Recovery { spec, resume },
    );
    // The run completed: deliver the tail buffered since the last
    // checkpoint. (On a crash this line is never reached and the tail dies
    // with the buffer — exactly what resume replays.)
    durable.commit();
    debug_assert_eq!(durable.committed(), report.triangles);
    report
}

/// The one load → dispatch → report body under every run entry point:
/// [`enumerate_triangles_on`] (solo cursor), the recovery entry point (solo
/// cursor, durable sink, checkpoint arguments) and each sharded worker (its
/// own cursor and machine).
///
/// Loading the input is not charged: the cache is made cold and the gauge
/// peak reset after the load, and the report covers everything from there
/// on. `recovery` reaches only the cache-oblivious driver, the one that
/// checkpoints; `shard` reaches only the paper's three drivers (the
/// baselines have no work-unit decomposition and are never sharded).
pub(crate) fn run_pipeline(
    machine: &Machine,
    graph: &Graph,
    algorithm: Algorithm,
    sink: &mut dyn TriangleSink,
    shard: &mut ShardCursor,
    recovery: Recovery<'_>,
) -> RunReport {
    let cfg = machine.config();
    let ext = ExtGraph::load(machine, graph);
    // Start from a cold cache and a clean slate of counters for the run
    // itself (the load cost is excluded, as in the model).
    machine.cold_cache();
    machine.gauge().reset_peak();
    let before = machine.stats();

    let mut recorder = PhaseRecorder::new(machine.gauge());
    let mut translating = TranslatingSink {
        graph: &ext,
        inner: sink,
    };
    // emlint: allow(unleased, reason = "run-report bookkeeping outside the measured region, not algorithm memory")
    let mut extra: Vec<(String, f64)> = Vec::new();
    let triangles = match algorithm {
        Algorithm::CacheAwareRandomized { seed } => {
            let out = cache_aware::run_cache_aware_randomized(
                &ext,
                cfg,
                seed,
                &mut translating,
                &mut recorder,
                shard,
            );
            extra.extend([
                ("colors".into(), out.colors as f64),
                ("x_statistic".into(), out.x_statistic as f64),
                (
                    "high_degree_vertices".into(),
                    out.high_degree_vertices as f64,
                ),
                ("step3_chunk_passes".into(), out.step3_chunk_passes as f64),
            ]);
            out.triangles
        }
        Algorithm::DeterministicCacheAware {
            family_seed,
            candidates,
        } => {
            let (out, info) = derandomized::run_derandomized(
                &ext,
                cfg,
                family_seed,
                candidates,
                &mut translating,
                &mut recorder,
                shard,
            );
            extra.extend([
                ("colors".into(), info.colors as f64),
                ("x_statistic".into(), out.x_statistic as f64),
                ("greedy_levels".into(), info.levels as f64),
                ("candidates_per_level".into(), info.candidates as f64),
                ("step3_chunk_passes".into(), out.step3_chunk_passes as f64),
            ]);
            out.triangles
        }
        Algorithm::CacheObliviousRandomized { seed } => {
            let (n, stats) = cache_oblivious::run_cache_oblivious(
                &ext,
                seed,
                &mut translating,
                &mut recorder,
                shard,
                recovery,
            );
            extra.extend([
                ("subproblems".into(), stats.subproblems() as f64),
                ("max_recursion_depth".into(), stats.max_depth() as f64),
                ("partition_sweeps".into(), stats.partition_sweeps as f64),
            ]);
            for (d, row) in stats.depths.iter().enumerate() {
                extra.extend([
                    (format!("depth{d}.nodes"), row.nodes as f64),
                    (format!("depth{d}.edges_in"), row.edges_in as f64),
                    (format!("depth{d}.routed"), row.routed as f64),
                    (format!("depth{d}.io"), row.io as f64),
                ]);
            }
            n
        }
        Algorithm::HuTaoChung => {
            let io0 = machine.io();
            let n = baselines::hu_tao_chung::run_hu_tao_chung(&ext, cfg, &mut translating);
            recorder.record("pivot_join", io0, machine.io());
            n
        }
        Algorithm::SortBased => {
            let io0 = machine.io();
            let n = baselines::dementiev::sort_based_enumeration(
                ext.edges(),
                util::SortKind::Aware,
                |_| true,
                &mut translating,
            );
            recorder.record("wedge_sort_join", io0, machine.io());
            n
        }
        Algorithm::BlockNestedLoop => {
            let io0 = machine.io();
            let n = baselines::nested_loop::run_block_nested_loop(&ext, cfg, &mut translating);
            recorder.record("nested_loops", io0, machine.io());
            n
        }
    };

    let after = machine.stats();
    let delta = after.since(&before);
    extra.push(("retry_io".into(), delta.retry_io as f64));
    extra.push(("retry_work".into(), delta.retry_work as f64));
    let (phases, phase_peaks) = recorder.into_parts();
    RunReport {
        algorithm: algorithm.name().to_string(),
        config: cfg,
        edges: ext.edge_count(),
        vertices: ext.vertex_count(),
        triangles,
        io: delta.io,
        phases,
        phase_peaks,
        peak_mem_words: after.peak_mem_words,
        peak_disk_words: after.peak_disk_words,
        work_ops: delta.work_ops,
        extra,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen::{generators, naive};

    #[test]
    fn every_algorithm_agrees_with_the_oracle() {
        let g = generators::erdos_renyi(100, 700, 99);
        let expected = naive::count_triangles(&g);
        let cfg = EmConfig::new(512, 32);
        for alg in ALL_ALGORITHMS {
            let (n, report) = count_triangles(&g, alg, cfg);
            assert_eq!(n, expected, "{}", alg.name());
            assert_eq!(report.triangles, expected, "{}", alg.name());
            assert!(report.io.total() > 0, "{} did no I/O?", alg.name());
        }
    }

    #[test]
    fn emitted_triangles_are_the_oracle_set_in_original_ids() {
        let g = generators::chung_lu_power_law(200, 900, 2.4, 17);
        let expected: std::collections::HashSet<_> =
            naive::enumerate_triangles(&g).into_iter().collect();
        let cfg = EmConfig::new(512, 32);
        for alg in [
            Algorithm::CacheAwareRandomized { seed: 5 },
            Algorithm::CacheObliviousRandomized { seed: 5 },
            Algorithm::DeterministicCacheAware {
                family_seed: 5,
                candidates: Some(16),
            },
        ] {
            let mut sink = CollectingSink::new();
            enumerate_triangles(&g, alg, cfg, &mut sink);
            let got: std::collections::HashSet<_> = sink.triangles().iter().copied().collect();
            assert_eq!(got.len(), sink.len(), "{}: duplicate emissions", alg.name());
            assert_eq!(got, expected, "{}", alg.name());
        }
    }

    #[test]
    fn report_contains_phases_and_extras() {
        let g = generators::erdos_renyi(200, 1500, 1);
        let cfg = EmConfig::new(512, 32);
        let (_, report) = count_triangles(&g, Algorithm::CacheAwareRandomized { seed: 1 }, cfg);
        assert!(report.phase_io("step3_color_triples").is_some());
        assert!(report.extra("x_statistic").is_some());
        assert!(
            report.extra("step3_chunk_passes").unwrap_or(0.0) >= 1.0,
            "the adaptive Lemma 2 pass counter must be surfaced"
        );
        assert!(report.peak_disk_words >= report.edges as u64);
        assert!(report.work_ops > 0);
    }

    #[test]
    fn analytic_bounds_order_matches_theory_when_memory_is_scarce() {
        let cfg = EmConfig::new(1 << 10, 64);
        let e = 1 << 18;
        let paper = Algorithm::CacheAwareRandomized { seed: 0 }.analytic_bound(cfg, e);
        let hu = Algorithm::HuTaoChung.analytic_bound(cfg, e);
        let bnl = Algorithm::BlockNestedLoop.analytic_bound(cfg, e);
        assert!(paper < hu);
        assert!(hu < bnl);
    }

    #[test]
    fn recovery_entry_point_on_a_healthy_machine_matches_the_plain_run_exactly() {
        // The fault/checkpoint layer is pay-for-what-you-use: with no fault
        // plan and no checkpoint spec, the crash-safe entry point must
        // reproduce the ordinary run's triangles, I/O and work to the digit.
        let g = generators::erdos_renyi(150, 1100, 12);
        let cfg = EmConfig::new(512, 32);
        let mut plain_sink = CollectingSink::new();
        let plain = enumerate_triangles(
            &g,
            Algorithm::CacheObliviousRandomized { seed: 6 },
            cfg,
            &mut plain_sink,
        );
        let machine = Machine::new(cfg);
        let mut safe_sink = CollectingSink::new();
        let safe = enumerate_triangles_with_recovery(&g, &machine, 6, &mut safe_sink, None, None);
        assert_eq!(plain.triangles, safe.triangles);
        assert_eq!(plain.io, safe.io);
        assert_eq!(plain.phases, safe.phases);
        assert_eq!(plain.work_ops, safe.work_ops);
        assert_eq!(plain.peak_disk_words, safe.peak_disk_words);
        assert_eq!(plain_sink.triangles(), safe_sink.triangles());
        assert_eq!(safe.extra("retry_io"), Some(0.0));
        assert_eq!(safe.extra("retry_work"), Some(0.0));
    }

    #[test]
    fn algorithm_names_are_distinct() {
        let names: std::collections::HashSet<_> = ALL_ALGORITHMS.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), ALL_ALGORITHMS.len());
        assert!(Algorithm::CacheObliviousRandomized { seed: 1 }.is_paper_algorithm());
        assert!(!Algorithm::HuTaoChung.is_paper_algorithm());
    }
}
