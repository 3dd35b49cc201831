//! The cache-aware randomized algorithm (paper Section 2, Theorem 4).
//!
//! 1. Let `V_h = {v : deg(v) > √(E·M)}` (there are fewer than `2√(E/M)`
//!    such vertices). The input numbers vertices in degree order, so `V_h`
//!    is a suffix of the id range, read off in one counting scan of `E`
//!    over the top ids (`E/B` I/Os, no sort). Enumerate every triangle with
//!    at least one vertex in `V_h` by running Lemma 1 once per high-degree
//!    vertex.
//! 2. Colour the remaining vertices with `ξ` drawn from a 4-wise independent
//!    family with `c = √(E/M)` colours, and partition the low-degree edges
//!    `E_l` into the `c²` classes `E_{τ1,τ2}`.
//! 3. For every colour triple `(τ1, τ2, τ3)` enumerate the triangles with a
//!    cone vertex of colour `τ1` and a pivot edge in `E_{τ2,τ3}`, using
//!    Lemma 2 on the edge set `E_{τ1,τ2} ∪ E_{τ1,τ3} ∪ E_{τ2,τ3}`.
//!
//! Expected I/O cost: `O(E^{3/2}/(√M·B))` (Theorem 4); the colour-balance
//! statistic `X_ξ` that drives the analysis is exposed so the experiments can
//! validate Lemma 3 (`E[X_ξ] ≤ E·M`) directly.

use std::ops::{Deref, Range};

use emsim::{EmConfig, IoStats};
use graphgen::{Edge, Triangle, VertexId};
use kwise::{ColorMemo, RandomColoring};

use crate::input::ExtGraph;
use crate::lemma1::enumerate_through_vertex;
use crate::lemma2::{enumerate_multi_cone, ChunkPolicy, ConeClasses};
use crate::partition::ColorPartition;
use crate::sink::TriangleSink;
use crate::stats::PhaseRecorder;
use crate::util::{isqrt_u128, SortKind};
use crate::workunit::{ShardCursor, WorkUnitKind};

use emsim::ExtVec;

/// Result of a cache-aware (randomized or derandomized) run, before being
/// wrapped into the public [`crate::RunReport`].
pub(crate) struct ColoredRunOutcome {
    pub triangles: u64,
    pub colors: u64,
    pub x_statistic: u128,
    pub high_degree_vertices: usize,
    /// Pivot chunks loaded by step 3 (each costs one pass of the cone
    /// streams): the observable the adaptive Lemma 2 sizing shrinks.
    pub step3_chunk_passes: u64,
}

/// Runs the cache-aware randomized algorithm under `shard`: the worker
/// executes only the step-1 vertices and step-3 pivot pairs it owns (a solo
/// cursor owns them all). The colouring depends on `seed` alone — never on
/// the worker — so every worker agrees on the classes and the unit
/// numbering.
pub(crate) fn run_cache_aware_randomized(
    graph: &ExtGraph,
    cfg: EmConfig,
    seed: u64,
    sink: &mut dyn TriangleSink,
    recorder: &mut PhaseRecorder,
    shard: &mut ShardCursor,
) -> ColoredRunOutcome {
    let e = graph.edge_count();
    let c = number_of_colors(e, cfg.mem_words);
    let coloring = RandomColoring::new(c, seed);
    run_colored(graph, cfg, c, &|v| coloring.color(v), sink, recorder, shard)
}

/// The number of colours `c = ⌈√(E/M)⌉` (at least 1), computed exactly in
/// integers: the smallest `c` with `c²·M ≥ E`. (`f64::sqrt` on the rational
/// `E/M` mis-rounds near perfect squares once `E` is large; the exact value
/// matters because `c` sizes the `c³` colour-triple loop.)
pub(crate) fn number_of_colors(edges: usize, mem_words: usize) -> u64 {
    let e = edges as u128;
    let m = (mem_words as u128).max(1);
    let mut c = isqrt_u128(e.div_ceil(m)).max(1);
    while c * c * m < e {
        c += 1;
    }
    while c > 1 && (c - 1) * (c - 1) * m >= e {
        c -= 1;
    }
    c as u64
}

/// The high-degree threshold `⌊√(E·M)⌋`, exact in integers (`E·M` exceeds
/// the 2⁵³ precision of `f64` long before it exceeds a word).
pub(crate) fn high_degree_threshold(edges: usize, mem_words: usize) -> u32 {
    let prod = edges as u128 * mem_words as u128;
    isqrt_u128(prod).min(u128::from(u32::MAX)) as u32
}

/// The low-degree edge set `E_l` of step 1: the graph's own edge array when
/// `V_h = ∅` (no copy), otherwise a filtered copy.
pub(crate) enum LowDegreeEdges<'a> {
    All(&'a ExtVec<Edge>),
    Filtered(ExtVec<Edge>),
}

impl Deref for LowDegreeEdges<'_> {
    type Target = ExtVec<Edge>;

    fn deref(&self) -> &ExtVec<Edge> {
        match self {
            Self::All(edges) => edges,
            Self::Filtered(edges) => edges,
        }
    }
}

/// The shared Step-1/Step-2 scaffolding of the cache-aware algorithms:
/// the high-degree vertex set `V_h = {v : deg(v) > T}` with
/// `T = ⌊√(E·M)⌋`, and the low-degree edge set `E_l = E \ E(V_h)`. Used by
/// [`run_colored`], the derandomized greedy selection and
/// [`measure_random_coloring_balance`], so the three can never drift apart
/// on which edges count as low-degree.
///
/// The canonical input numbers the vertices in non-decreasing degree order,
/// so `V_h` is a suffix of the id range; and since the degrees sum to `2E`,
/// at most `⌊2E/(T+1)⌋` vertices exceed `T`. One scan of `E` counts the
/// degrees of the top `⌊2E/(T+1)⌋ + 1` ids in a leased in-core window, and
/// `V_h` is the window's suffix whose count exceeds `T` — `E/B` I/Os and no
/// sort. `E_l` is one more filter scan keeping the edges with
/// `e.v < min V_h`, skipped (no copy) when `V_h = ∅`.
///
/// The third value is `E_l`'s maximum forward degree, the longest run of
/// one smaller endpoint in the `(u, v)`-sorted list, which bounds step 3's
/// `Γ_v` buffers. Whichever scan produces `E_l` measures it on the way.
pub(crate) fn split_high_low_degree(
    graph: &ExtGraph,
    mem_words: usize,
) -> (Range<VertexId>, LowDegreeEdges<'_>, usize) {
    let machine = graph.machine();
    let edges = graph.edges();
    let threshold = high_degree_threshold(edges.len(), mem_words);
    let vertices = graph.vertex_count() as VertexId;
    let window = (2 * edges.len() as u64 / (u64::from(threshold) + 1) + 1).min(u64::from(vertices));
    let lo = vertices - window as VertexId;
    let mut all_runs = LongestRun::default();
    let first_high = {
        let _window_lease = machine.gauge().lease(window);
        let mut degree = vec![0u32; window as usize];
        for e in edges.iter() {
            machine.work(1);
            all_runs.push(e);
            // u < v, so only v can be in the window when u is not.
            if e.v >= lo {
                degree[(e.v - lo) as usize] += 1;
            }
            if e.u >= lo {
                degree[(e.u - lo) as usize] += 1;
            }
        }
        debug_assert!(
            degree.windows(2).all(|w| w[0] <= w[1]),
            "the canonical input must number vertices in degree order"
        );
        lo + degree.partition_point(|&d| d <= threshold) as VertexId
    };
    if first_high == vertices {
        return (
            first_high..vertices,
            LowDegreeEdges::All(edges),
            all_runs.longest,
        );
    }
    let mut el = ExtVec::new(machine);
    let mut low_runs = LongestRun::default();
    for e in edges.iter() {
        machine.work(1);
        if e.v < first_high {
            low_runs.push(e);
            el.push(e);
        }
    }
    (
        first_high..vertices,
        LowDegreeEdges::Filtered(el),
        low_runs.longest,
    )
}

/// The longest run of one smaller endpoint in a `(u, v)`-sorted edge
/// stream: the stream's maximum forward degree.
#[derive(Default)]
struct LongestRun {
    u: Option<VertexId>,
    run: usize,
    longest: usize,
}

impl LongestRun {
    fn push(&mut self, e: Edge) {
        self.run = if self.u == Some(e.u) { self.run + 1 } else { 1 };
        self.u = Some(e.u);
        self.longest = self.longest.max(self.run);
    }
}

/// Shared driver for the randomized (Section 2) and derandomized (Section 4)
/// cache-aware algorithms: everything except how the colouring is chosen.
///
/// Step 3 groups the `c³` colour triples by pivot colour pair `(τ2, τ3)`:
/// each pivot chunk's Lemma 2 indexes are built once and all `c` cone
/// colours' class views stream against them.
///
/// Work units (sharded runs): each step-1 high-degree vertex is one unit, in
/// ascending vertex order; each *non-empty* step-3 pivot pair `(τ2, τ3)` is
/// one unit, in loop order. Both streams are determined by the colouring
/// (hence the seed) alone, so the numbering is identical on every worker.
/// Step 2 — building the partition — is replicated on every worker: all
/// workers need the class index. With a solo cursor every claim succeeds and
/// this is exactly the sequential driver.
pub(crate) fn run_colored(
    graph: &ExtGraph,
    cfg: EmConfig,
    c: u64,
    color: &dyn Fn(VertexId) -> u64,
    sink: &mut dyn TriangleSink,
    recorder: &mut PhaseRecorder,
    shard: &mut ShardCursor,
) -> ColoredRunOutcome {
    let machine = graph.machine().clone();
    let edges = graph.edges();
    let mut triangles = 0u64;

    // ---- Step 1: triangles with a high-degree vertex (Lemma 1 per vertex). ----
    let before: IoStats = machine.io();
    let (high, el, forward_degree) = split_high_low_degree(graph, cfg.mem_words);
    // Emit a triangle through high-degree vertex v only if v is the first
    // high-degree vertex of that triangle, so that triangles with several
    // high-degree vertices are emitted exactly once.
    for v in high.clone() {
        if !shard.claim(WorkUnitKind::HighDegreeVertex { v }) {
            continue;
        }
        triangles += enumerate_through_vertex(
            edges,
            v,
            SortKind::Aware,
            |t: Triangle| [t.a, t.b, t.c].into_iter().find(|x| high.contains(x)) == Some(v),
            sink,
        );
    }
    recorder.record("step1_high_degree", before, machine.io());

    // ---- Step 2: colour and partition the low-degree edges. ----
    let before: IoStats = machine.io();
    let partition = {
        // Memoise the colouring in an in-core table for the partition sort's
        // key evaluations (for the derandomized colouring each raw evaluation
        // walks a whole chain of degree-3 polynomials). Capacity is M/8
        // entries — at two words per entry the table is leased at ≤ M/4 for
        // every M, so the memo can never act as hidden extra memory. Step 3
        // never reads a colour, so the memo and its lease end with the build.
        let memo = ColorMemo::new(color, (cfg.mem_words / 8).max(1));
        let _memo_lease = machine
            .gauge()
            .lease(memo.capacity() as u64 * ColorMemo::WORDS_PER_ENTRY);
        ColorPartition::build(&el, c, &|v| memo.color(v))
    };
    drop(el);
    let _index_lease = machine.gauge().lease(partition.index_words());
    let x_statistic = partition.x_statistic();
    recorder.record("step2_partition", before, machine.io());

    // ---- Step 3: enumerate the colour triples against Lemma 2. ----
    let before: IoStats = machine.io();
    let mut step3_chunk_passes = 0u64;
    // Group the `c³` triples by their pivot colour pair `(τ2, τ3)`: the pivot
    // class is handed to Lemma 2 as a zero-copy view and each of its chunks
    // is loaded and indexed once for all `c` cone colours, instead of once
    // per `(τ1, τ2, τ3)`.
    for t2 in 0..c {
        for t3 in 0..c {
            // Skip-fast: an empty pivot class is rejected on the in-core
            // offset table before any allocation. The skip precedes the unit
            // claim — the class index is replicated, so every worker skips
            // the same pairs and the unit stream stays aligned.
            if partition.class_len(t2, t3) == 0 {
                continue;
            }
            if !shard.claim(WorkUnitKind::PivotPair { t2, t3 }) {
                continue;
            }
            let pivots = partition.class_slice(t2, t3);
            let mut cones: Vec<ConeClasses> = Vec::new();
            for t1 in 0..c {
                let mut ranges = Vec::new();
                if partition.class_len(t1, t2) > 0 {
                    ranges.push(partition.class_slice(t1, t2));
                }
                // E_{τ1,τ2} and E_{τ1,τ3} coincide when τ2 = τ3.
                if t3 != t2 && partition.class_len(t1, t3) > 0 {
                    ranges.push(partition.class_slice(t1, t3));
                }
                // Skip-fast: a cone colour with no candidate cone edges
                // cannot contribute a triangle. (Pivot-internal triangles
                // survive this guard: their cone colour is τ2, whose ranges
                // include the non-empty pivot class.)
                if ranges.is_empty() {
                    continue;
                }
                cones.push(ConeClasses { ranges });
            }
            // The cone table is O(c) in-core words of view metadata.
            let _cone_lease = machine.gauge().lease((cones.len() * 4) as u64);
            let stats = enumerate_multi_cone(
                pivots,
                &cones,
                cfg.mem_words,
                forward_degree,
                ChunkPolicy::default(),
                sink,
            );
            triangles += stats.emitted;
            step3_chunk_passes += stats.chunk_passes;
        }
    }
    recorder.record("step3_color_triples", before, machine.io());

    ColoredRunOutcome {
        triangles,
        colors: c,
        x_statistic,
        high_degree_vertices: high.len(),
        step3_chunk_passes,
    }
}

/// Convenience used by tests and experiments: the colour-balance statistic
/// `X_ξ` of a *random* colouring with `c` colours on the low-degree edges of
/// `graph` — the quantity Lemma 3 bounds by `E·M` in expectation.
pub fn measure_random_coloring_balance(graph: &ExtGraph, cfg: EmConfig, seed: u64) -> (u64, u128) {
    let e = graph.edge_count();
    let c = number_of_colors(e, cfg.mem_words);
    let coloring = RandomColoring::new(c, seed);
    let (_high, el, _) = split_high_low_degree(graph, cfg.mem_words);
    let partition = ColorPartition::build(&el, c, &|v| coloring.color(v));
    (c, partition.x_statistic())
}

#[allow(dead_code)]
fn _static_assert_edge_is_one_word() {
    // The analysis of step 3 charges one word per edge; keep the invariant
    // visible at compile time.
    const _: () = assert!(<Edge as emsim::Record>::WORDS == 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::StrictSink;
    use emsim::Machine;
    use graphgen::{generators, naive};

    fn run(g: &graphgen::Graph, cfg: EmConfig, seed: u64) -> (u64, u64, ColoredRunOutcome) {
        let machine = Machine::new(cfg);
        let eg = ExtGraph::load(&machine, g);
        machine.cold_cache();
        let before = machine.io().total();
        let mut sink = StrictSink::new();
        let mut rec = PhaseRecorder::new(machine.gauge());
        let out = run_cache_aware_randomized(
            &eg,
            cfg,
            seed,
            &mut sink,
            &mut rec,
            &mut ShardCursor::solo(),
        );
        (out.triangles, machine.io().total() - before, out)
    }

    #[test]
    fn counts_match_oracle_on_er_graphs() {
        for seed in [1u64, 5, 9] {
            let g = generators::erdos_renyi(150, 1200, seed);
            let expected = naive::count_triangles(&g);
            let (got, _, _) = run(&g, EmConfig::new(1 << 9, 32), seed);
            assert_eq!(got, expected, "seed {seed}");
        }
    }

    #[test]
    fn counts_match_oracle_on_clique_and_star() {
        let clique = generators::clique(24);
        let (got, _, out) = run(&clique, EmConfig::new(256, 32), 3);
        assert_eq!(got, 2024); // C(24,3)
        assert!(out.colors >= 1);

        let star = generators::star(300);
        let (got, _, out) = run(&star, EmConfig::new(256, 32), 3);
        assert_eq!(got, 0);
        // The centre of the star has degree 299 > sqrt(E*M) = sqrt(299*256) ≈ 276.
        assert_eq!(out.high_degree_vertices, 1);
    }

    #[test]
    fn power_law_graph_with_hubs_is_exact() {
        let g = generators::chung_lu_power_law(400, 2500, 2.2, 4);
        let expected = naive::count_triangles(&g);
        let (got, _, _) = run(&g, EmConfig::new(1 << 9, 32), 11);
        assert_eq!(got, expected);
    }

    #[test]
    fn number_of_colors_and_threshold_formulae() {
        assert_eq!(number_of_colors(1 << 20, 1 << 20), 1);
        assert_eq!(number_of_colors(1 << 20, 1 << 16), 4);
        assert_eq!(number_of_colors(100, 1_000_000), 1);
        assert_eq!(high_degree_threshold(1 << 16, 1 << 16), 1 << 16);
    }

    #[test]
    fn formulae_are_exact_at_perfect_square_boundaries() {
        // ⌈√(E/M)⌉ boundaries: E = c²·M is still c colours, one edge more
        // tips to c + 1.
        let m = 1usize << 40;
        assert_eq!(number_of_colors(9 * m, m), 3);
        assert_eq!(number_of_colors(9 * m + 1, m), 4);
        assert_eq!(number_of_colors(4 * m - 1, m), 2);
        assert_eq!(number_of_colors(0, 512), 1);
        // E = (2³²−1)², M = 1: E is not representable in f64 (it rounds to
        // 2⁶⁴, whose square root would give 2³² colours); the exact answer is
        // 2³² − 1.
        let k = (1u64 << 32) - 1;
        assert_eq!(number_of_colors((k * k) as usize, 1), k);
        assert_eq!(number_of_colors((k * k + 1) as usize, 1), k + 1);

        // ⌊√(E·M)⌋ boundaries. E·M = 2⁶² − 1 rounds to 2⁶² in f64 (whose
        // root is 2³¹); the exact floor root is 2³¹ − 1.
        assert_eq!(
            high_degree_threshold(2_147_483_647, 2_147_483_649),
            2_147_483_647
        );
        assert_eq!(high_degree_threshold(1 << 31, 1 << 31), 1 << 31);
        // Saturation at the u32 degree ceiling.
        assert_eq!(high_degree_threshold(1 << 40, 1 << 40), u32::MAX);
    }

    /// Checks the step-1 split of `g` at memory `mem` against degrees the
    /// test computes in memory from the canonical graph, and its forward
    /// degree against the longest run of one `u` in the expected `E_l`;
    /// returns `|V_h|`.
    fn assert_split_matches_in_memory_degrees(g: &graphgen::Graph, mem: usize) -> usize {
        let (canonical, _) = g.degree_ordered();
        let deg = canonical.degrees();
        let threshold = high_degree_threshold(canonical.edge_count(), mem);
        let expected_high: Vec<u32> = (0..deg.len() as u32)
            .filter(|&v| deg[v as usize] > threshold)
            .collect();
        let expected_low: Vec<Edge> = canonical
            .edges()
            .iter()
            .copied()
            .filter(|e| deg[e.u as usize] <= threshold && deg[e.v as usize] <= threshold)
            .collect();

        let longest_run = expected_low
            .chunk_by(|a, b| a.u == b.u)
            .map(<[Edge]>::len)
            .max()
            .unwrap_or(0);

        let machine = Machine::new(EmConfig::new(64, 16));
        let eg = ExtGraph::load(&machine, g);
        let (high, el, forward_degree) = split_high_low_degree(&eg, mem);
        assert_eq!(
            high.clone().collect::<Vec<_>>(),
            expected_high,
            "V_h at M = {mem}"
        );
        assert_eq!(el.load_all(), expected_low, "E_l at M = {mem}");
        assert_eq!(forward_degree, longest_run, "forward degree at M = {mem}");
        assert_eq!(
            matches!(el, LowDegreeEdges::All(_)),
            high.is_empty(),
            "E_l is the input itself exactly when V_h is empty"
        );
        high.len()
    }

    #[test]
    fn split_high_low_degree_is_the_step1_partition() {
        // A hub of degree 300 over ~600 edges: with M = 64 the threshold is
        // ⌊√(600·64)⌋ ≈ 196, so exactly the hub is high-degree.
        let mut g = graphgen::Graph::empty(301);
        for v in 1..=300u32 {
            g.add_edge(0, v);
        }
        for v in 1..300u32 {
            g.add_edge(v, v + 1);
        }
        assert_eq!(assert_split_matches_in_memory_degrees(&g, 64), 1);
    }

    #[test]
    fn split_finds_the_hubs_of_skewed_graphs() {
        // Power-law hubs, swept over M so the cut lands at many places in
        // the degree sequence.
        let g = generators::chung_lu_power_law(400, 2500, 2.2, 4);
        let mut saw_hubs = false;
        for mem in [1, 2, 4, 8, 16, 64, 512] {
            saw_hubs |= assert_split_matches_in_memory_degrees(&g, mem) > 0;
        }
        assert!(saw_hubs, "some M must cut the power-law hubs");

        // A star with a pendant clique: the centre is the only hub.
        let mut g = generators::star(300);
        for a in 1..=12u32 {
            for b in a + 1..=12 {
                g.add_edge(a, b);
            }
        }
        assert_eq!(assert_split_matches_in_memory_degrees(&g, 64), 1);
    }

    #[test]
    fn split_measures_the_forward_degree_of_the_low_degree_edges() {
        // With and without a hub cut: each graph at a memory size that keeps
        // every vertex low and at one that cuts its top degrees.
        // A dense ER graph (mean degree 40): T = ⌊√1200⌋ = 34 at M = 1.
        let er = generators::erdos_renyi(60, 1200, 4);
        assert_eq!(assert_split_matches_in_memory_degrees(&er, 512), 0);
        let cut = assert_split_matches_in_memory_degrees(&er, 1);
        assert!(cut > 0 && cut < 60, "a partial cut, got {cut}");
        let cl = generators::chung_lu_power_law(400, 2500, 2.2, 4);
        assert_eq!(assert_split_matches_in_memory_degrees(&cl, 1 << 12), 0);
        assert!(assert_split_matches_in_memory_degrees(&cl, 8) > 0);
        // The star's centre has the top id, so every low edge is a leaf's
        // one forward edge; cut, the centre takes all of them with it.
        let star = generators::star(300);
        assert_eq!(assert_split_matches_in_memory_degrees(&star, 1 << 12), 0);
        assert_eq!(assert_split_matches_in_memory_degrees(&star, 64), 1);
        // K24: vertex 0 reaches all 23 others; at M = 1 every vertex is cut.
        let clique = generators::clique(24);
        assert_eq!(assert_split_matches_in_memory_degrees(&clique, 64), 0);
        assert_eq!(assert_split_matches_in_memory_degrees(&clique, 1), 24);
    }

    #[test]
    fn split_is_exact_when_the_window_is_tight_or_clipped() {
        // K5 at M = 1: E = 10, T = ⌊√10⌋ = 3, and all five vertices have
        // degree 4 > T — exactly ⌊2E/(T+1)⌋ = 5 high-degree vertices, the
        // most the window bound allows. With 15 isolated vertices the window
        // of 6 ids holds one degree-0 vertex below them…
        let mut g = graphgen::Graph::empty(20);
        for a in 15..20u32 {
            for b in a + 1..20 {
                g.add_edge(a, b);
            }
        }
        assert_eq!(high_degree_threshold(10, 1), 3);
        assert_eq!(assert_split_matches_in_memory_degrees(&g, 1), 5);
        // …and without them V = 5 is smaller than the window.
        assert_eq!(
            assert_split_matches_in_memory_degrees(&generators::clique(5), 1),
            5
        );
        // A perfect matching at M = 0 (T = 0): every vertex is high and the
        // window covers all 2E of them plus the one isolated vertex.
        let mut g = graphgen::Graph::empty(21);
        for v in (1..21u32).step_by(2) {
            g.add_edge(v, v + 1);
        }
        assert_eq!(assert_split_matches_in_memory_degrees(&g, 0), 20);
    }

    #[test]
    fn split_of_an_edgeless_graph_is_empty() {
        assert_eq!(
            assert_split_matches_in_memory_degrees(&graphgen::Graph::empty(7), 64),
            0
        );
        assert_eq!(
            assert_split_matches_in_memory_degrees(&graphgen::Graph::empty(0), 64),
            0
        );
    }

    #[test]
    fn step1_without_high_degree_vertices_costs_one_read_of_the_input() {
        // T = ⌊√(2000·512)⌋ = 1011 exceeds every degree: step 1 is the one
        // counting scan — ⌈E/B⌉ reads, no writes, no disk words.
        let g = generators::erdos_renyi(300, 2000, 4);
        let cfg = EmConfig::new(512, 32);
        let machine = Machine::new(cfg);
        let eg = ExtGraph::load(&machine, &g);
        machine.cold_cache();
        let (io0, disk0) = (machine.io(), machine.stats());
        let (high, el, _) = split_high_low_degree(&eg, cfg.mem_words);
        let (io1, disk1) = (machine.io(), machine.stats());
        assert!(high.is_empty());
        assert!(matches!(el, LowDegreeEdges::All(_)));
        assert_eq!(io1.reads - io0.reads, 2000u64.div_ceil(32));
        assert_eq!(io1.writes, io0.writes);
        assert_eq!(disk1.disk_words, disk0.disk_words);
        assert_eq!(disk1.peak_disk_words, disk0.peak_disk_words);
        drop(el);

        // The driver's recorded step-1 phase is exactly that scan.
        machine.cold_cache();
        let mut rec = PhaseRecorder::new(machine.gauge());
        let mut sink = StrictSink::new();
        run_cache_aware_randomized(&eg, cfg, 1, &mut sink, &mut rec, &mut ShardCursor::solo());
        let (phases, _) = rec.into_parts();
        let step1 = phases
            .iter()
            .find(|(name, _)| name == "step1_high_degree")
            .expect("step 1 recorded")
            .1;
        assert_eq!((step1.reads, step1.writes), (2000u64.div_ceil(32), 0));
    }

    #[test]
    fn high_degree_cut_is_strict_at_the_exact_sqrt_em_boundary() {
        // The paper defines V_h = {v : deg(v) > √(E·M)} with a *strict*
        // inequality; with the threshold computed exactly (integer isqrt), a
        // vertex of degree exactly ⌊√(E·M)⌋ must stay low-degree, and one
        // more incident edge must tip it over. Pin both sides.
        //
        // Hub of degree 40 + a 61-vertex path: E = 100, M = 16, so
        // E·M = 1600 = 40² exactly and the hub sits *on* the boundary.
        let mut g = graphgen::Graph::empty(102);
        for v in 1..=40u32 {
            g.add_edge(0, v);
        }
        for v in 41..101u32 {
            g.add_edge(v, v + 1);
        }
        let mem = 16usize;
        assert_eq!(high_degree_threshold(100, mem), 40);
        let machine = Machine::new(EmConfig::new(mem, 16));
        let eg = ExtGraph::load(&machine, &g);
        assert_eq!(eg.edge_count(), 100);
        let (high, el, _) = split_high_low_degree(&eg, mem);
        assert!(
            high.is_empty(),
            "degree == ⌊√(E·M)⌋ exactly must NOT be high-degree (strict >)"
        );
        assert_eq!(el.len(), 100, "no edges may be removed at the boundary");

        // One more spoke: hub degree 41, E = 101, threshold ⌊√1616⌋ = 40.
        g.add_edge(0, 101);
        assert_eq!(high_degree_threshold(101, mem), 40);
        let machine = Machine::new(EmConfig::new(mem, 16));
        let eg = ExtGraph::load(&machine, &g);
        let (high, el, _) = split_high_low_degree(&eg, mem);
        assert_eq!(
            high.len(),
            1,
            "degree ⌊√(E·M)⌋ + 1 must be cut as high-degree"
        );
        assert_eq!(el.len(), 101 - 41, "all 41 hub edges must be removed");

        // The split is an analysis device, not a correctness requirement —
        // but the boundary input must still enumerate exactly (0 triangles:
        // a star plus a path is triangle-free).
        let cfg = EmConfig::new(mem, 16);
        let machine = Machine::new(cfg);
        let eg = ExtGraph::load(&machine, &g);
        let mut sink = StrictSink::new();
        let mut rec = PhaseRecorder::new(machine.gauge());
        let out =
            run_cache_aware_randomized(&eg, cfg, 1, &mut sink, &mut rec, &mut ShardCursor::solo());
        assert_eq!(out.triangles, 0);
    }

    #[test]
    fn io_is_within_constant_of_the_paper_bound_when_memory_is_scarce() {
        // The unit test only guards the constant factor at small scale; the
        // crossover against Hu et al. (the √(E/M) improvement) is exercised
        // at larger E/M by experiment E2 and the integration tests.
        let g = generators::erdos_renyi(600, 12_000, 2);
        let cfg = EmConfig::new(512, 32);
        let (_, ios, _) = run(&g, cfg, 7);
        let paper_bound = cfg.triangle_bound(12_000);
        let ratio = ios as f64 / paper_bound;
        assert!(
            ratio < 60.0,
            "cache-aware used {ios} I/Os = {ratio:.1}x the E^1.5/(sqrt(M)B) bound"
        );
    }

    #[test]
    fn all_one_color_coloring_enumerates_pivot_internal_triangles_exactly_once() {
        // Regression for the skip-fast cone guard: with every vertex coloured
        // 0 (but c = 3 declared colours), only the (0,0) pivot class is
        // non-empty, cone colours 1 and 2 must be skipped, and the
        // pivot-internal triangles of class (0,0) must be emitted exactly
        // once.
        let g = generators::erdos_renyi(120, 900, 8);
        let expected = naive::count_triangles(&g);
        let cfg = EmConfig::new(256, 32);
        let machine = Machine::new(cfg);
        let eg = ExtGraph::load(&machine, &g);
        let mut sink = StrictSink::new(); // panics on duplicate emission
        let mut rec = PhaseRecorder::new(machine.gauge());
        let out = run_colored(
            &eg,
            cfg,
            3,
            &|_| 0,
            &mut sink,
            &mut rec,
            &mut ShardCursor::solo(),
        );
        assert_eq!(out.triangles, expected);
        assert_eq!(sink.len() as u64, expected);
    }

    #[test]
    fn run_peak_memory_stays_within_budget_even_at_tiny_m() {
        // The colour memo, partition index, merge heads and Lemma 2 chunk
        // leases must jointly respect the budget at small M too (the memo
        // capacity scales with M — a fixed floor would swallow the whole
        // budget here).
        let g = generators::erdos_renyi(300, 2000, 5);
        let cfg = EmConfig::new(128, 16);
        let machine = Machine::new(cfg);
        let eg = ExtGraph::load(&machine, &g);
        machine.gauge().reset_peak();
        let mut sink = StrictSink::new();
        let mut rec = PhaseRecorder::new(machine.gauge());
        let out =
            run_cache_aware_randomized(&eg, cfg, 2, &mut sink, &mut rec, &mut ShardCursor::solo());
        assert_eq!(out.triangles, naive::count_triangles(&g));
        assert!(
            machine.gauge().peak() <= 2 * cfg.mem_words as u64,
            "peak in-core usage {} exceeds 2M = {}",
            machine.gauge().peak(),
            2 * cfg.mem_words
        );
    }

    #[test]
    fn random_coloring_balance_close_to_lemma3_bound() {
        let g = generators::erdos_renyi(500, 8000, 6);
        let cfg = EmConfig::new(512, 32);
        let machine = Machine::new(cfg);
        let eg = ExtGraph::load(&machine, &g);
        let mut total = 0f64;
        let runs = 5;
        for seed in 0..runs {
            let (_, x) = measure_random_coloring_balance(&eg, cfg, seed);
            total += x as f64;
        }
        let avg = total / runs as f64;
        let bound = 8000.0 * 512.0; // E·M
        assert!(
            avg <= 3.0 * bound,
            "average X_xi {avg} should be within a small factor of E*M = {bound}"
        );
    }
}
