//! One closed-loop run of one workload: set up, verify every call against
//! the oracle, time calls for the requested seconds, and collect metrics.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use emsim::{DiskCounters, IoStats, WorkerReport};
use graphgen::{naive, Graph};
use trienum::{
    enumerate_triangles_on, enumerate_triangles_sharded, Algorithm, BackendKind, CountingSink,
    EmConfig, Machine, RunReport, ShardPlan,
};

use crate::probes::{self, ProbeInput, ProbeSizes};
use crate::stats::{median, quartiles};
use crate::trace::{Span, Tracer};
use crate::workload::{self, Seeds, Workload};

/// Metric values by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    #[cfg(test)]
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }
}

pub struct Settings {
    pub seconds: f64,
    pub traced: bool,
    pub probes: ProbeSizes,
    /// Private directory for disk-plane backing files (the process's
    /// `TMPDIR`); checked empty of this process's files at the end.
    pub scratch: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

/// The exact counts of one call; every call of a run must repeat them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    io: IoStats,
    /// The PEM cost: `max_io` when sharded, else `io.total()`.
    charged_io: u64,
    work_ops: u64,
    peak_mem_words: u64,
    peak_disk_words: u64,
    triangles: u64,
}

struct Call {
    wall: f64,
    checksum: (u64, u64),
    counts: Counts,
    report: RunReport,
    /// Worker accounting and merge io of a sharded call.
    sharded: Option<(WorkerReport, IoStats)>,
    /// Real device counters and the machine's lifetime charged io, on the
    /// disk plane.
    disk: Option<(DiskCounters, u64)>,
}

/// What a call runs on: a caller-built machine (`enumerate_triangles_on`)
/// or `P` workers that build their own (`enumerate_triangles_sharded`).
enum Target {
    Machine(Machine),
    Sharded(usize),
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// One timed enumeration call. Panics and `Err` come back as `Err`.
fn call(
    graph: &Graph,
    algorithm: Algorithm,
    cfg: EmConfig,
    target: Target,
    tracer: &mut Tracer,
) -> Result<Call, String> {
    let mut sink = CountingSink::new();
    match target {
        Target::Machine(machine) => {
            let (report, wall) = tracer.span("trienum.enumerate", None, |_| {
                let start = Instant::now();
                let report = catch_unwind(AssertUnwindSafe(|| {
                    enumerate_triangles_on(&machine, graph, algorithm, &mut sink)
                }));
                (report, start.elapsed().as_secs_f64())
            });
            let report = report.map_err(panic_message)?;
            let disk = machine.disk_counters().map(|c| (c, machine.io().total()));
            Ok(Call {
                wall,
                checksum: sink.checksum(),
                counts: Counts {
                    io: report.io,
                    charged_io: report.io.total(),
                    work_ops: report.work_ops,
                    peak_mem_words: report.peak_mem_words,
                    peak_disk_words: report.peak_disk_words,
                    triangles: report.triangles,
                },
                report,
                sharded: None,
                disk,
            })
        }
        Target::Sharded(workers) => {
            let (result, wall) = tracer.span("workunit.enumerate_sharded", None, |_| {
                let start = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| {
                    enumerate_triangles_sharded(
                        graph,
                        algorithm,
                        cfg,
                        ShardPlan::new(workers),
                        &mut sink,
                    )
                }));
                (result, start.elapsed().as_secs_f64())
            });
            let sharded = result.map_err(panic_message)?.map_err(|e| e.to_string())?;
            let report = sharded.report;
            Ok(Call {
                wall,
                checksum: sink.checksum(),
                counts: Counts {
                    io: report.io,
                    charged_io: sharded.workers.max_io,
                    work_ops: report.work_ops,
                    peak_mem_words: report.peak_mem_words,
                    peak_disk_words: report.peak_disk_words,
                    triangles: report.triangles,
                },
                report,
                sharded: Some((sharded.workers, sharded.merge_io)),
                disk: None,
            })
        }
    }
}

/// Checks a call's sink `(count, digest)` against the oracle's and its
/// exact counts against the run's first call.
fn verify(
    checksum: (u64, u64),
    counts: &Counts,
    oracle: (u64, u64),
    reference: Option<&Counts>,
) -> Result<(), String> {
    if checksum != oracle {
        return Err(format!(
            "sink (count, digest) {checksum:?} differs from the oracle's {oracle:?}"
        ));
    }
    if counts.triangles != oracle.0 {
        return Err(format!(
            "report counts {} triangles, the oracle {}",
            counts.triangles, oracle.0
        ));
    }
    match reference {
        Some(r) if r != counts => Err(format!(
            "exact counts {counts:?} differ from the first call's {r:?}"
        )),
        _ => Ok(()),
    }
}

/// Attempted and failed enumeration calls. A call fails if it panics,
/// returns `Err`, or fails verification; a failed cross-check marks one of
/// the calls it compared as failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    /// A verified call, or `None` after recording its failure.
    fn call(
        &mut self,
        what: &str,
        result: Result<Call, String>,
        oracle: (u64, u64),
        reference: Option<&Counts>,
    ) -> Option<Call> {
        self.attempted += 1;
        let verified =
            result.and_then(|c| verify(c.checksum, &c.counts, oracle, reference).map(|()| c));
        verified.map_err(|e| self.fail(what, e)).ok()
    }

    fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.fail(what, e);
        }
    }

    fn fail(&mut self, what: &str, e: String) {
        self.failed = (self.failed + 1).min(self.attempted);
        self.failures.push(format!("{what}: {e}"));
    }
}

/// This process's disk-plane backing files left in `dir`.
fn leftover_backing_files(dir: &Path) -> Vec<String> {
    let prefix = format!("emsim-disk-{}-", std::process::id());
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.starts_with(&prefix))
                .collect()
        })
        .unwrap_or_default()
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn host_rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets `VmHWM` to the current resident set, so that the next reading
/// covers only what runs after this call (not the calibration kernel). A
/// no-op where the kernel does not support it.
fn reset_rss_peak() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn same<T: PartialEq + std::fmt::Debug>(left: T, right: T) -> Result<(), String> {
    if left == right {
        Ok(())
    } else {
        Err(format!("{left:?} != {right:?}"))
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Seconds the calibration kernel takes on the reference host (a 2-core
/// 2.1 GHz Xeon VM in a quiet minute).
const REF_CAL_S: f64 = 0.012;

/// A fixed host-only workload (sorts and hash-map inserts, the profile of
/// the simulator's hot paths) whose time says how fast the host runs right
/// now. Shared hosts drift: the same call measured 1.2 s to 2.3 s within
/// minutes. Each timing is therefore also reported scaled by
/// `REF_CAL_S / kernel time` from just before it, in reference-host
/// seconds, which cancels most of the drift. The kernel runs on as many
/// threads as the workload's calls use, so that it also feels contention
/// for the second core. Its buffers are small (under 1 MB a thread) and
/// live as long as the run, so it leaves no garbage for a later
/// resident-set peak to count.
struct Calibrator {
    kernels: Vec<Kernel>,
}

impl Calibrator {
    fn new(threads: usize) -> Self {
        Self {
            kernels: (0..threads.max(1)).map(|_| Kernel::default()).collect(),
        }
    }

    /// Wall seconds of one kernel on every thread at once.
    fn seconds(&mut self) -> f64 {
        let start = Instant::now();
        let (first, rest) = self.kernels.split_first_mut().expect("at least one kernel");
        std::thread::scope(|scope| {
            for kernel in rest {
                scope.spawn(|| kernel.run());
            }
            first.run();
        });
        start.elapsed().as_secs_f64()
    }
}

#[derive(Default)]
struct Kernel {
    words: Vec<u64>,
    map: std::collections::HashMap<u64, usize>,
}

impl Kernel {
    fn run(&mut self) {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..8 {
            self.words.clear();
            self.words.extend((0..1 << 16).map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            }));
            self.words.sort_unstable();
            self.map.clear();
            for (i, k) in self.words.iter().enumerate().take(1 << 14) {
                self.map.insert(*k, i);
            }
            std::hint::black_box((&self.words, self.map.len()));
        }
    }
}

/// Set-up as a user pays it before each run: generate the graph and build
/// the machine (on the disk plane, create its backing file). Returns the
/// graph, the machine and the seconds it took.
fn set_up(w: &Workload, seeds: Seeds, cfg: EmConfig, tracer: &mut Tracer) -> (Graph, Machine, f64) {
    tracer.span("bench.setup", None, |t| {
        let start = Instant::now();
        let graph = t.span("graphgen.generate", None, |_| w.generate(seeds));
        let machine = t.span("emsim.machine_new", None, |_| {
            Machine::with_backend(cfg, w.plane)
        });
        (graph, machine, start.elapsed().as_secs_f64())
    })
}

fn fresh_machine(cfg: EmConfig, tracer: &mut Tracer) -> Target {
    Target::Machine(tracer.span("emsim.machine_new", None, |_| Machine::new(cfg)))
}

pub fn run(w: &Workload, seed: u64, s: &Settings) -> Outcome {
    let cfg = workload::config();
    let seeds = Seeds::derive(seed);
    let algorithm = w.algorithm(seeds);
    let mut tracer = Tracer::new(s.traced);
    let mut tally = Tally::default();
    let mut lines = Vec::new();

    // The input the oracle, the cross-checks and the probes see; every
    // iteration below sets up its own identical copy.
    let graph = tracer.span("graphgen.generate", None, |_| w.generate(seeds));
    let edges = graph.edge_count();
    let oracle = tracer.span("verify.oracle", None, |_| naive::triangle_checksum(&graph));
    lines.push(format!(
        "workload {} seed {seed}: V={} E={edges} t={} M={} B={} algorithm={} graph_seed={:#x} algorithm_seed={:#x}",
        w.name,
        graph.vertex_count(),
        oracle.0,
        cfg.mem_words,
        cfg.block_words,
        algorithm.name(),
        seeds.graph,
        seeds.algorithm,
    ));

    // One iteration: set up, then call. Iteration 0 is an untimed warm-up
    // whose counts every later call must repeat exactly.
    let iteration = |id: u64, tracer: &mut Tracer| {
        tracer.span("bench.iteration", Some(id), |t| {
            let (graph, machine, setup) = set_up(w, seeds, cfg, t);
            let target = match w.workers {
                Some(p) => Target::Sharded(p),
                None => Target::Machine(machine),
            };
            (setup, call(&graph, algorithm, cfg, target, t))
        })
    };
    let mut calibrator = Calibrator::new(w.workers.unwrap_or(1));
    let mut kernel =
        |tracer: &mut Tracer| tracer.span("bench.calibrate", None, |_| calibrator.seconds());
    let (_, first) = iteration(0, &mut tracer);
    let reference = tally.call("iteration 0", first, oracle, None);
    let counts = reference.as_ref().map(|c| c.counts);

    // Cross-checks of the exact counts, outside the timed loop.
    let mut sequential: Option<Call> = None;
    let mut sequential_walls = Vec::new();
    if let (BackendKind::Disk, Some(r)) = (w.plane, &reference) {
        let mem = tracer.span("bench.check", None, |t| {
            let target = fresh_machine(cfg, t);
            call(&graph, algorithm, cfg, target, t)
        });
        if let Some(mem) = tally.call("in-memory parity call", mem, oracle, None) {
            tally.check("in-memory vs disk counts", same(mem.counts, r.counts));
        }
    }
    if w.workers.is_some() {
        let reps = if s.traced { 3 } else { 1 };
        for rep in 0..reps {
            let scale = REF_CAL_S / kernel(&mut tracer);
            let seq = tracer.span("bench.check", None, |t| {
                let target = fresh_machine(cfg, t);
                call(&graph, algorithm, cfg, target, t)
            });
            let reference = sequential.as_ref().map(|c| c.counts);
            if let Some(c) = tally.call("sequential reference", seq, oracle, reference.as_ref()) {
                sequential_walls.push(c.wall * scale);
                if rep == 0 {
                    sequential = Some(c);
                }
            }
        }
        let one = tracer.span("bench.check", None, |t| {
            call(&graph, algorithm, cfg, Target::Sharded(1), t)
        });
        let one = tally.call("P=1 sharded call", one, oracle, None);
        if let (Some(seq), Some(one)) = (&sequential, &one) {
            let sum_io = one.sharded.as_ref().map_or(0, |(wr, _)| wr.sum_io);
            tally.check(
                "sequential io vs P=1 sum_io",
                same(seq.counts.io.total(), sum_io),
            );
        }
    }

    // The timed closed loop: one client, next call after the previous one.
    // A traced run alternates traced and untraced iterations. Walls and
    // set-up times are kept raw and calibrated.
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut raw_walls = Vec::new();
    let (mut setup, mut raw_setup, mut cal, mut rss) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut id = 1u64;
    while id <= 2 || start.elapsed().as_secs_f64() < s.seconds {
        let traced = s.traced && id % 2 == 1;
        tracer.set_enabled(traced);
        let kernel_s = kernel(&mut tracer);
        let scale = REF_CAL_S / kernel_s;
        reset_rss_peak();
        let (setup_s, result) = iteration(id, &mut tracer);
        rss.push(host_rss_peak_mb());
        cal.push(kernel_s);
        setup.push(setup_s * scale);
        raw_setup.push(setup_s);
        if let Some(c) = tally.call(&format!("iteration {id}"), result, oracle, counts.as_ref()) {
            walls[usize::from(traced)].push(c.wall * scale);
            if !traced {
                raw_walls.push(c.wall);
            }
        }
        id += 1;
    }
    tracer.set_enabled(s.traced);

    let mut metrics = Metrics::default();
    let untraced_eps = ratio(edges as f64, median(&walls[0]));
    if s.traced {
        let input = ProbeInput {
            cfg,
            graph: &graph,
            plane: w.plane,
            seed: seeds.probe,
            scratch: &s.scratch,
            sizes: s.probes,
        };
        tracer.span("bench.probes", None, |t| {
            probes::run(&input, t, &mut metrics)
        });
        if let Some(r) = &reference {
            layer_metrics(r, sequential.as_ref(), &mut metrics);
        }
        let p2_wall = median(
            &walls[0]
                .iter()
                .chain(&walls[1])
                .copied()
                .collect::<Vec<_>>(),
        );
        metrics.set(
            "workunit.speedup",
            if w.workers.is_some() {
                ratio(median(&sequential_walls), p2_wall)
            } else {
                0.0
            },
        );
        metrics.set("host.calibration_ms", median(&cal) * 1e3);
        metrics.set("wall.edges_per_s", ratio(edges as f64, median(&raw_walls)));
        metrics.set("wall.setup_s", median(&raw_setup));
        let traced_eps = ratio(edges as f64, median(&walls[1]));
        metrics.set("trace.edges_per_s.traced", traced_eps);
        metrics.set("trace.edges_per_s.untraced", untraced_eps);
        metrics.set("trace.overhead_frac", 1.0 - ratio(traced_eps, untraced_eps));
        self_time_metrics(&tracer, &mut metrics);
        lines.push(format!(
            "tracing overhead: untraced {untraced_eps:.1} edges/s (n={}) vs traced {traced_eps:.1} edges/s (n={})",
            walls[0].len(),
            walls[1].len()
        ));
    } else {
        metrics.set("edges_per_s", untraced_eps);
        metrics.set("setup_s", median(&setup));
        if let Some(c) = &counts {
            metrics.set("charged_io", c.charged_io as f64);
            metrics.set("work_ops", c.work_ops as f64);
            metrics.set("peak_mem_words", c.peak_mem_words as f64);
            metrics.set("peak_disk_words", c.peak_disk_words as f64);
        }
        metrics.set("host_rss_peak_mb", median(&rss));
        let [q1, med, q3] = quartiles(&walls[0]);
        lines.push(format!(
            "edges_per_s: {untraced_eps:.1} edges/s from n={} calls; calibrated wall q1/median/q3 = {q1:.4}/{med:.4}/{q3:.4} s",
            walls[0].len(),
        ));
        lines.push(format!(
            "uncalibrated: {:.1} edges/s, median wall {:.4} s, setup {:.6} s; calibration kernel median {:.2} ms (reference {} ms)",
            ratio(edges as f64, median(&raw_walls)),
            median(&raw_walls),
            median(&raw_setup),
            median(&cal) * 1e3,
            REF_CAL_S * 1e3,
        ));
    }

    tally.check(
        "backing files left behind",
        same(leftover_backing_files(&s.scratch), Vec::new()),
    );

    if let Some(path) = &s.trace_out {
        match tracer.write_json(path) {
            Ok(()) => lines.push(format!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => lines.push(format!("spans: could not write {}: {e}", path.display())),
        }
    }
    lines.push(format!(
        "failed_frac = {} ({} failed of {} attempted calls)",
        ratio(tally.failed as f64, tally.attempted as f64),
        tally.failed,
        tally.attempted
    ));
    lines.extend(tally.failures.iter().map(|f| format!("FAILED {f}")));
    Outcome {
        correct: tally.failed == 0 && reference.is_some(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        lines,
    }
}

/// Exact per-layer counts from the first call's reports. A layer the
/// workload bypasses reads 0.
fn layer_metrics(call: &Call, sequential: Option<&Call>, m: &mut Metrics) {
    let r = &call.report;
    let phase_io = |name: &str| r.phase_io(name).map_or(0.0, |io| io.total() as f64);
    let phase_peak = |name: &str| r.phase_peak(name).unwrap_or(0) as f64;
    let extra = |name: &str| r.extra(name).unwrap_or(0.0);
    for phase in [
        "step1_high_degree",
        "step2_partition",
        "step3_color_triples",
    ] {
        m.set(format!("cache_aware.{phase}.io"), phase_io(phase));
        m.set(format!("cache_aware.{phase}.peak_words"), phase_peak(phase));
    }
    m.set(
        "derandomized.step0_greedy_coloring.io",
        phase_io("step0_greedy_coloring"),
    );
    m.set(
        "derandomized.step0_greedy_coloring.peak_words",
        phase_peak("step0_greedy_coloring"),
    );
    m.set("lemma2.chunk_passes", extra("step3_chunk_passes"));
    m.set("kwise.x_statistic", extra("x_statistic"));
    m.set("derandomized.greedy_levels", extra("greedy_levels"));
    for phase in ["root_sort", "recursion", "leaf_batch"] {
        m.set(format!("cache_oblivious.{phase}.io"), phase_io(phase));
        m.set(
            format!("cache_oblivious.{phase}.peak_words"),
            phase_peak(phase),
        );
    }
    m.set("cache_oblivious.subproblems", extra("subproblems"));
    m.set("cache_oblivious.max_depth", extra("max_recursion_depth"));
    m.set(
        "cache_oblivious.partition_sweeps",
        extra("partition_sweeps"),
    );
    m.set(
        "cache_oblivious.high_degree_truncations",
        extra("high_degree_truncations"),
    );

    let (counters, charged) = call.disk.unwrap_or_default();
    m.set("storage.real_reads", counters.block_reads as f64);
    m.set("storage.real_writes", counters.block_writes as f64);
    m.set(
        "storage.real_per_charged",
        ratio(counters.total() as f64, charged as f64),
    );

    let (max_io, sum_io, balance, merge_io) =
        call.sharded.as_ref().map_or((0, 0, 0.0, 0), |(w, merge)| {
            (w.max_io, w.sum_io, w.balance, merge.total())
        });
    m.set("workunit.max_worker_io", max_io as f64);
    m.set("workunit.sum_worker_io", sum_io as f64);
    m.set("workunit.balance", balance);
    m.set("workunit.merge_io", merge_io as f64);
    let seq_io = sequential.map_or(0.0, |c| c.counts.io.total() as f64);
    m.set("workunit.owned_fraction", ratio(seq_io, sum_io as f64));
}

/// Median self time per span of the layers the loop calls, in ms, over the
/// timed iterations (set-up spans for the generator); probes as a total.
fn self_time_metrics(tracer: &Tracer, m: &mut Metrics) {
    let timed = |s: &Span| s.iteration.is_some_and(|i| i >= 1);
    let selfs = tracer.self_times(|_| true);
    let timed_selfs = tracer.self_times(timed);
    let ms = |xs: Option<&Vec<f64>>| xs.map_or(0.0, |v| median(v) * 1e3);
    m.set(
        "self_ms.graphgen.generate",
        ms(selfs.get("graphgen.generate")),
    );
    m.set(
        "self_ms.emsim.machine_new",
        ms(selfs.get("emsim.machine_new")),
    );
    m.set("self_ms.verify.oracle", ms(selfs.get("verify.oracle")));
    m.set(
        "self_ms.enumerate",
        ms(timed_selfs
            .get("trienum.enumerate")
            .or_else(|| timed_selfs.get("workunit.enumerate_sharded"))),
    );
    m.set(
        "self_ms.bench.iteration",
        ms(timed_selfs.get("bench.iteration")),
    );
    let probes: f64 = selfs
        .iter()
        .filter(|(name, _)| name.starts_with("probe."))
        .flat_map(|(_, v)| v.iter())
        .sum();
    m.set("self_ms.probes", probes * 1e3);
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen::{generators, Triangle};
    use trienum::TriangleSink;

    fn counts(triangles: u64) -> Counts {
        Counts {
            io: IoStats {
                reads: 10,
                writes: 5,
            },
            charged_io: 15,
            work_ops: 100,
            peak_mem_words: 64,
            peak_disk_words: 256,
            triangles,
        }
    }

    #[test]
    fn digest_verification_flags_a_corrupted_triangle() {
        let g = generators::clique(6);
        let oracle = naive::triangle_checksum(&g);
        let triangles = naive::enumerate_triangles(&g);
        let emit_all = |corrupt: bool| {
            let mut sink = CountingSink::new();
            for (i, t) in triangles.iter().enumerate() {
                if corrupt && i == 3 {
                    sink.emit(Triangle::new(t.a, t.b, t.c + 100));
                } else {
                    sink.emit(*t);
                }
            }
            sink.checksum()
        };
        let n = oracle.0;
        assert!(verify(emit_all(false), &counts(n), oracle, None).is_ok());
        let err = verify(emit_all(true), &counts(n), oracle, None).unwrap_err();
        assert!(err.contains("digest"), "{err}");
    }

    #[test]
    fn verification_flags_count_drift_between_calls() {
        let oracle = (4, 99);
        let first = counts(4);
        let mut drifted = first;
        drifted.work_ops += 1;
        assert!(verify(oracle, &first, oracle, Some(&first)).is_ok());
        assert!(verify(oracle, &drifted, oracle, Some(&first)).is_err());
        assert!(verify(oracle, &counts(5), oracle, None).is_err());
    }

    #[test]
    fn tally_counts_failed_calls_and_checks_against_attempted_calls() {
        let mut t = Tally::default();
        assert!(t
            .call("panicked", Err("panic".into()), (0, 0), None)
            .is_none());
        assert_eq!((t.attempted, t.failed), (1, 1));
        t.check("parity", Ok(()));
        assert_eq!(t.failed, 1);
        t.check("parity", Err("mismatch".into()));
        assert_eq!(
            (t.attempted, t.failed),
            (1, 1),
            "never more failures than calls"
        );
        assert_eq!(t.failures.len(), 2);
    }
}
