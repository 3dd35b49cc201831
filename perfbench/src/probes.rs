//! Per-layer probes: each times calls into one layer's public API, from
//! outside, at the workload's `M`, `B` and `E`.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use emalgo::{external_sort_by_key, kway_merge, oblivious_sort_by_key, scan_partition};
use emsim::{BlockDevice, DiskStorage, ExtVec};
use graphgen::{Edge, Graph};
use kwise::{FourWise, RandomColoring, RefinedColoring};
use trienum::{BackendKind, EmConfig, ExtGraph, Machine};

use crate::bench::Metrics;
use crate::stats::median;
use crate::trace::Tracer;

/// How much work each probe does.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSizes {
    /// Words per scan/append probe (and evaluations per colouring probe).
    pub words: usize,
    /// Random `get`s per probe.
    pub gets: usize,
    /// Blocks per device probe.
    pub blocks: usize,
    /// Repetitions; each probe reports the median.
    pub reps: usize,
}

impl ProbeSizes {
    pub const FULL: ProbeSizes = ProbeSizes {
        words: 1 << 20,
        gets: 1 << 16,
        blocks: 4096,
        reps: 5,
    };
}

/// What the probes need to know about the workload.
pub struct ProbeInput<'a> {
    pub cfg: EmConfig,
    pub graph: &'a Graph,
    pub plane: BackendKind,
    pub seed: u64,
    /// Directory for the device probe's backing files.
    pub scratch: &'a Path,
    pub sizes: ProbeSizes,
}

fn seconds(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Median over `reps` of `f()`'s seconds, divided by `units`, in ns.
fn ns_per(reps: usize, units: usize, mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| f()).collect();
    median(&samples) * 1e9 / units.max(1) as f64
}

/// xorshift64: the probes' index stream, independent of any library RNG.
struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

fn filled(machine: &Machine, words: usize) -> ExtVec<u64> {
    let mut v = ExtVec::new(machine);
    for i in 0..words as u64 {
        v.push(i);
    }
    v
}

fn sum_scan(v: &ExtVec<u64>) -> u64 {
    v.iter().fold(0u64, u64::wrapping_add)
}

pub fn run(input: &ProbeInput<'_>, tracer: &mut Tracer, out: &mut Metrics) {
    let ProbeInput {
        cfg, sizes, seed, ..
    } = *input;
    let words = sizes.words;

    let host = tracer.span("probe.host.vec_scan", None, |_| {
        let v: Vec<u64> = (0..words as u64).collect();
        ns_per(sizes.reps, words, || {
            seconds(|| {
                black_box(black_box(&v).iter().fold(0u64, |a, &x| a.wrapping_add(x)));
            })
        })
    });
    out.set("host.vec_scan_ns", host);

    let mut scan_reads = 0;
    for (plane, suffix) in [(BackendKind::InMemory, "mem"), (BackendKind::Disk, "disk")] {
        let push = tracer.span("probe.extvec.push", None, |_| {
            ns_per(sizes.reps, words, || {
                let machine = Machine::with_backend(cfg, plane);
                let mut v = None;
                let s = seconds(|| v = Some(filled(&machine, words)));
                drop(black_box(v));
                s
            })
        });
        let (scan, reads) = tracer.span("probe.extvec.scan", None, |_| {
            let machine = Machine::with_backend(cfg, plane);
            let v = filled(&machine, words);
            let mut reads = 0;
            let ns = ns_per(sizes.reps, words, || {
                machine.cold_cache();
                let before = machine.disk_counters().unwrap_or_default();
                let s = seconds(|| {
                    black_box(sum_scan(&v));
                });
                let after = machine.disk_counters().unwrap_or_default();
                reads = after.block_reads - before.block_reads;
                s
            });
            (ns, reads)
        });
        let gets = sizes.gets;
        let get = tracer.span("probe.extvec.get", None, |_| {
            let machine = Machine::with_backend(cfg, plane);
            let v = filled(&machine, words);
            ns_per(sizes.reps, gets, || {
                machine.cold_cache();
                let mut rng = XorShift(seed | 1);
                seconds(|| {
                    let mut acc = 0u64;
                    for _ in 0..gets {
                        acc = acc.wrapping_add(v.get(rng.below(words)));
                    }
                    black_box(acc);
                })
            })
        });
        out.set(format!("extvec.push_ns.{suffix}"), push);
        out.set(format!("extvec.scan_ns.{suffix}"), scan);
        out.set(format!("extvec.get_ns.{suffix}"), get);
        if plane == BackendKind::Disk {
            scan_reads = reads;
        }
    }

    let resident = tracer.span("probe.extvec.scan_resident", None, |_| {
        let machine = Machine::new(cfg);
        let len = cfg.mem_words / 2;
        let v = filled(&machine, len);
        black_box(sum_scan(&v));
        let passes = (words / len).max(1);
        ns_per(sizes.reps, passes * len, || {
            seconds(|| {
                for _ in 0..passes {
                    black_box(sum_scan(&v));
                }
            })
        })
    });
    out.set("extvec.scan_ns.mem_resident", resident);

    let (read_ns, write_ns) = tracer.span("probe.storage.blocks", None, |_| {
        device_probe(input.scratch, cfg.block_words, sizes, seed)
    });
    out.set("storage.read_block_ns", read_ns);
    out.set("storage.write_block_ns", write_ns);
    let device_share = scan_reads as f64 * read_ns / words as f64;
    out.set(
        "pool.overhead_ns",
        out.get("extvec.scan_ns.disk") - out.get("extvec.scan_ns.mem") - device_share,
    );

    emalgo_probes(input, tracer, out);
    kwise_probes(input, tracer, out);

    let load = tracer.span("probe.input.load", None, |_| {
        let samples: Vec<f64> = (0..sizes.reps.min(3))
            .map(|_| {
                let machine = Machine::with_backend(cfg, input.plane);
                let mut g = None;
                let s = seconds(|| g = Some(ExtGraph::load(&machine, input.graph)));
                drop(black_box(g));
                s
            })
            .collect();
        median(&samples)
    });
    out.set("input.load_s", load);
}

/// `(read, write)` ns per block through `BlockDevice` on a private
/// `DiskStorage`: sequential writes of fresh blocks, then random reads.
fn device_probe(dir: &Path, block_words: usize, sizes: ProbeSizes, seed: u64) -> (f64, f64) {
    let blocks = sizes.blocks;
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for _ in 0..sizes.reps {
        let mut dev =
            DiskStorage::create_in(dir, block_words).expect("create a probe backing file");
        let mut buf: Vec<u64> = (0..block_words as u64).collect();
        writes.push(seconds(|| {
            for key in 0..blocks as u64 {
                dev.write_block(key, &buf);
            }
        }));
        let mut rng = XorShift(seed | 1);
        reads.push(seconds(|| {
            for _ in 0..blocks {
                dev.read_block(rng.below(blocks) as u64, &mut buf);
            }
        }));
        black_box(&buf);
    }
    let per_block = |xs: &[f64]| median(xs) * 1e9 / blocks as f64;
    (per_block(&reads), per_block(&writes))
}

/// Times `op` on a cold cache `reps` times over an `ExtVec<Edge>` of the
/// workload's edges, after an untimed `prep` of that input; returns (median
/// ns per input word, charged io of one call).
fn emalgo_probe<P, R>(
    cfg: EmConfig,
    graph: &Graph,
    reps: usize,
    prep: impl FnOnce(&ExtVec<Edge>) -> P,
    op: impl Fn(&Machine, &ExtVec<Edge>, &P) -> R,
) -> (f64, f64) {
    let machine = Machine::new(cfg);
    let input = ExtVec::from_slice(&machine, graph.edges());
    let prepared = prep(&input);
    let mut io = 0;
    let ns = ns_per(reps, input.words(), || {
        machine.cold_cache();
        let before = machine.io().total();
        let mut result = None;
        let s = seconds(|| result = Some(op(&machine, &input, &prepared)));
        io = machine.io().total() - before;
        drop(black_box(result));
        s
    });
    (ns, io as f64)
}

fn bucket_mask(e: &Edge) -> u32 {
    let h = (u64::from(e.u) << 32 | u64::from(e.v)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    1 << (h >> 61)
}

fn emalgo_probes(input: &ProbeInput<'_>, tracer: &mut Tracer, out: &mut Metrics) {
    let (cfg, graph, reps) = (input.cfg, input.graph, input.sizes.reps);
    let key = |e: &Edge| *e;
    let (ns, io) = tracer.span("probe.emalgo.external_sort", None, |_| {
        emalgo_probe(
            cfg,
            graph,
            reps,
            |_| (),
            |_, v, ()| external_sort_by_key(v, key),
        )
    });
    out.set("emalgo.external_sort.ns_per_word", ns);
    out.set("emalgo.external_sort.io", io);
    let (ns, io) = tracer.span("probe.emalgo.oblivious_sort", None, |_| {
        emalgo_probe(
            cfg,
            graph,
            reps,
            |_| (),
            |_, v, ()| oblivious_sort_by_key(v, key),
        )
    });
    out.set("emalgo.oblivious_sort.ns_per_word", ns);
    out.set("emalgo.oblivious_sort.io", io);
    let (ns, io) = tracer.span("probe.emalgo.scan_partition", None, |_| {
        emalgo_probe(
            cfg,
            graph,
            reps,
            |_| (),
            |_, v, ()| scan_partition(v, 8, bucket_mask),
        )
    });
    out.set("emalgo.scan_partition.ns_per_word", ns);
    out.set("emalgo.scan_partition.io", io);
    // Eight sorted runs (a partition of sorted input stays sorted), merged.
    let (ns, io) = tracer.span("probe.emalgo.kway_merge", None, |_| {
        emalgo_probe(
            cfg,
            graph,
            reps,
            |v| scan_partition(&external_sort_by_key(v, key), 8, bucket_mask),
            |machine, _, runs| {
                kway_merge(machine, runs.iter().map(ExtVec::iter).collect(), key).count()
            },
        )
    });
    out.set("emalgo.kway_merge.ns_per_word", ns);
    out.set("emalgo.kway_merge.io", io);
}

fn kwise_probes(input: &ProbeInput<'_>, tracer: &mut Tracer, out: &mut Metrics) {
    let ProbeInput {
        cfg,
        graph,
        sizes,
        seed,
        ..
    } = *input;
    let evals = sizes.words;
    let vertices = graph.vertex_count().max(1) as u32;
    let edges = graph.edge_count().max(1) as f64;
    let colors = (edges / cfg.mem_words as f64).sqrt().ceil().max(1.0) as u64;
    let random = tracer.span("probe.kwise.random_coloring", None, |_| {
        let coloring = RandomColoring::new(colors, seed);
        ns_per(sizes.reps, evals, || {
            seconds(|| {
                let mut acc = 0u64;
                for i in 0..evals as u32 {
                    acc = acc.wrapping_add(coloring.color(black_box(i % vertices)));
                }
                black_box(acc);
            })
        })
    });
    out.set("kwise.random_coloring_ns", random);
    let depth = edges.log(4.0).ceil() as usize;
    let refined = tracer.span("probe.kwise.refined_coloring", None, |_| {
        let mut coloring = RefinedColoring::identity();
        for level in 0..depth as u64 {
            coloring.push(FourWise::new(seed.wrapping_add(level)));
        }
        ns_per(sizes.reps, evals, || {
            seconds(|| {
                let mut acc = 0u64;
                for i in 0..evals as u32 {
                    acc = acc.wrapping_add(coloring.color_at(black_box(i % vertices), depth));
                }
                black_box(acc);
            })
        })
    });
    out.set("kwise.refined_coloring_ns", refined);
}
