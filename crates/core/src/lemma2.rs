//! Lemma 2 (Hu–Tao–Chung, SIGMOD 2013): enumerating all triangles whose
//! pivot edge lies in a subset `E' ⊆ E`, in `O(E/B + E'·E/(M·B))` I/Os.
//!
//! The subroutine proceeds in iterations. Each iteration loads a chunk of
//! new pivot edges into internal memory, together with an index of their
//! endpoints (`Γ_mem`); it then scans the relevant edge set once, and for
//! every vertex `v` computes `Γ_v = {u | (v,u) ∈ E, u > v, u ∈ Γ_mem}` —
//! possible in one scan because the canonical edge list stores each vertex's
//! higher-ordered neighbours consecutively. Every memory-resident pivot edge
//! `{u, w}` with `u, w ∈ Γ_v` closes the triangle `{v, u, w}` (cone `v`,
//! pivot `{u, w}`), which is emitted while all three edges are in memory.
//!
//! ## Chunk sizing ([`ChunkPolicy`])
//!
//! The published subroutine loads a *fixed* `αM` pivot edges per iteration
//! (here `α = 1/8`, [`CHUNK_DIVISOR`]), a constant chosen so that the chunk,
//! its endpoint index and the per-vertex `Γ_v` buffer fit in memory even in
//! the worst case. [`ChunkPolicy::Adaptive`] (the production policy) sizes
//! each chunk by its measured cost instead:
//!
//! * **Cost rule.** A chunk costs `edges + |V⁺| + min(D, |Γ_mem|)` words:
//!   the pivot edges, the sorted index `V⁺` of their distinct *larger*
//!   endpoints, and the `Γ_v` reserve. The smaller endpoints need no index:
//!   the chunk is `(u, v)`-sorted, so `u ∈ Γ_mem` is a binary search over
//!   the edges themselves. `|Γ_mem|` is kept as an exact count. The chunk
//!   grows in `M/16`-edge increments while its cost stays within `M`.
//! * **Reserve.** `Γ_v ⊆ N⁺(v) ∩ Γ_mem`, so no `Γ_v` outgrows
//!   `min(D, |Γ_mem|)`, where `D` bounds the forward degree of every
//!   streamed edge's smaller endpoint (step 1's counting scan measures the
//!   exact maximum, the longest run of one `u` in the canonical list, at no
//!   extra I/O). The buffer is allocated at exactly that reserve and never
//!   reallocates (debug-asserted on every push).
//! * **Probe bound.** An increment is probed before it is committed: its
//!   larger endpoints are sorted and deduplicated, the ones already indexed
//!   are dropped in place, and its contribution to `|Γ_mem|` is counted by
//!   binary search without building the union. Only a committed increment
//!   is merged into the index, in place. The probe holds the committed
//!   chunk (at most `M` words less the reserve), the increment and its
//!   endpoints: at most `M + M/8` words, within the `1.5·M` envelope the
//!   gauge tests assert. The all-distinct worst case still packs `M/4`
//!   pivots per chunk, twice the fixed `M/8`.
//! * **Top-down loading.** With endpoint-range pruning (below) a pass costs
//!   the cone prefix below the chunk's largest smaller endpoint. Chunks are
//!   therefore cut from the top of each pivot class downward: the full
//!   chunks take the high `u`-bands, and the remainder chunk, whatever its
//!   size, lands at the low end, where its pass is cheapest.
//!
//! [`ChunkPolicy::Fixed`] keeps the published behaviour (`M/8`-edge chunks
//! from the bottom up, full scans). It is what the Hu–Tao–Chung baseline
//! runs (its iteration structure is part of the algorithm being compared
//! against) and what the equivalence tests pin the adaptive policy to.
//!
//! ## Endpoint-range pruning
//!
//! Every triangle `{v, u, w}` (`v < u < w`) closed against a chunk has its
//! pivot's *smaller* endpoint `u` inside the chunk, so `v < u ≤ U` where `U`
//! is the chunk's largest smaller-endpoint ([`PivotChunk::max_pivot_u`]).
//! Cone edges with smaller endpoint `≥ U` are therefore sterile for this
//! chunk. Because class views are sorted by `(u, v)`, the adaptive path
//! narrows every cone view to the prefix `u < U` by binary search
//! ([`emsim::ExtSlice::partition_point`], `O(log)` probes) before streaming
//! it — charging only the narrowed scan to the machine instead of whole
//! class views. Chunks are consecutive ranges of a `(u, v)`-sorted pivot
//! class, so the chunks of its low `u`-bands skip most of every cone view.
//!
//! Two entry points share the machinery:
//!
//! * [`enumerate_with_pivots`] — the literal lemma (one edge set, one pivot
//!   set). Applied with `E' = E` and the fixed policy it is the
//!   Hu–Tao–Chung baseline the paper improves upon.
//! * [`enumerate_multi_cone`] — the pivot-grouped form used by step 3 of the
//!   cache-aware algorithms: the pivot chunk and its indexes are built
//!   **once** per chunk and then every cone colour's (one or two) class
//!   views are streamed against it, instead of re-loading the chunk and
//!   re-merging edge sets once per colour triple. Cone dispatch is by
//!   construction (each cone scan only ever sees edges whose smaller
//!   endpoint has that cone colour), so no per-triangle colour filter runs.
//!
//! The in-memory chunk indexes are pure sorted-vec + binary-search
//! structures — no hashing anywhere in the per-vertex `Γ_v` loop.

use std::ops::Range;

use emsim::{ExtSlice, ExtVec, Machine, MemLease};
use graphgen::{Edge, Triangle, VertexId};

use crate::sink::TriangleSink;

/// Fraction of the memory budget devoted to one chunk of pivot edges under
/// the published fixed sizing (`α = 1/8`): the worst case of four words per
/// pivot edge (the edge, its larger endpoint and two words of `Γ_v`
/// reserve) then stays within `M/2`.
const CHUNK_DIVISOR: usize = 8;

/// How Lemma 2 sizes its pivot chunks (and whether it prunes cone scans).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum ChunkPolicy {
    /// Production policy: size each chunk by its measured cost (edges +
    /// larger-endpoint index + `Γ_v` reserve ≤ `M`), cut the chunks from
    /// the top of the pivot set down, and narrow every cone scan to the
    /// endpoint range the chunk can close triangles with. See the module
    /// docs.
    #[default]
    Adaptive,
    /// The iteration structure of the SIGMOD 2013 baseline as published:
    /// exactly `M/`[`CHUNK_DIVISOR`] pivot edges per chunk from the bottom
    /// up, full edge sets streamed against it, no pruning. The baseline
    /// must keep running this — its constants are part of the algorithm
    /// the paper's improvement factor is measured against.
    Fixed,
}

impl ChunkPolicy {
    /// Whether this policy narrows cone scans by the chunk endpoint range.
    fn prunes(&self) -> bool {
        matches!(self, ChunkPolicy::Adaptive)
    }
}

/// Counters reported by a Lemma 2 invocation (surfaced through the run
/// reports as `step3_chunk_passes` so experiments and tests can observe the
/// adaptive sizing directly).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Lemma2Stats {
    /// Triangles emitted.
    pub emitted: u64,
    /// Pivot chunks loaded (each one costs a pass of the relevant edge
    /// streams against it).
    pub chunk_passes: u64,
}

/// The (one or two) sorted colour-class views holding every potential cone
/// edge of one cone colour — the input [`enumerate_multi_cone`] streams
/// against each pivot chunk. The views must be sorted by `(u, v)` and
/// pairwise disjoint (colour classes are).
pub(crate) struct ConeClasses<'a> {
    /// The class views `E_{τ1,τ2}` and `E_{τ1,τ3}` (deduplicated when
    /// `τ2 = τ3`, empties omitted by the caller).
    pub ranges: Vec<ExtSlice<'a, Edge>>,
}

/// One in-memory chunk of pivot edges with its probe index, built once and
/// scanned against by every cone stream:
///
/// * `edges` — the chunk itself, sorted by `(u, v)`; the adjacency of an
///   endpoint `u` is the run `edges[lo..hi]` located by binary search, and
///   so is the membership of a smaller endpoint in `Γ_mem`.
/// * `larger` — the sorted, deduplicated larger endpoints, with membership
///   by binary search.
/// * `gamma_mem` — `|Γ_mem|`, the exact number of distinct endpoints.
#[derive(Default)]
struct PivotChunk {
    edges: Vec<Edge>,
    larger: Vec<VertexId>,
    gamma_mem: usize,
}

/// What committing an increment would add to a chunk, measured without
/// changing it: the increment's larger endpoints that the chunk does not
/// index yet (sorted), and the chunk's `|Γ_mem|` after the commit.
struct Probe {
    fresh: Vec<VertexId>,
    gamma_mem: usize,
}

/// Sorted, deduplicated larger endpoints of an edge slice.
fn larger_endpoints_of(machine: &Machine, edges: &[Edge]) -> Vec<VertexId> {
    let mut vs: Vec<VertexId> = Vec::with_capacity(edges.len());
    for e in edges {
        vs.push(e.v);
        machine.work(1);
    }
    machine.work(vs.len() as u64 * (usize::BITS - vs.len().leading_zeros()) as u64);
    // emlint: charge(work, vs.len() as u64 * (usize::BITS - vs.len().leading_zeros()) as u64)
    vs.sort_unstable();
    vs.dedup();
    vs
}

impl PivotChunk {
    /// Loads the next chunk of the pivots in `rest` under `policy` with
    /// memory budget `mem_words`, returning the chunk, its gauge lease
    /// (chunk words plus index words) and the pivot range still to load.
    /// `rest` must be non-empty (the chunk always takes at least one edge),
    /// and `pivots` must be sorted by `(u, v)`: the adjacency runs, the
    /// smaller-endpoint lookups and the pruning bound read the chunk in
    /// that order, and every caller hands over a sorted view.
    /// `forward_degree` bounds every `Γ_v` (see [`scan_against_chunk`]).
    fn load(
        machine: &Machine,
        pivots: &ExtSlice<'_, Edge>,
        rest: Range<usize>,
        mem_words: usize,
        forward_degree: usize,
        policy: ChunkPolicy,
    ) -> (Self, MemLease, Range<usize>) {
        let mut chunk = Self::default();
        let mut lease = machine.gauge().lease(0);
        let left = match policy {
            ChunkPolicy::Fixed => {
                let end = (rest.start + (mem_words / CHUNK_DIVISOR).max(1)).min(rest.end);
                let (inc, probe) = chunk.probe(machine, pivots, rest.start..end, &mut lease);
                chunk.commit(machine, inc, probe);
                end..rest.end
            }
            ChunkPolicy::Adaptive => {
                chunk.fill_from_top(machine, pivots, rest, mem_words, forward_degree, &mut lease)
            }
        };
        lease.resize(chunk.words() as u64);
        debug_assert!(
            chunk.edges.is_sorted(),
            "pivot chunks must be (u, v)-sorted"
        );
        (chunk, lease, left)
    }

    /// Grows the (empty) chunk from the top of `rest` down by as many
    /// pivot edges as the measured cost allows, and returns the range still
    /// to load. The chunk grows in `M/16`-edge increments while
    /// `edges + |larger| + min(forward_degree, |Γ_mem|) ≤ M`: the chunk
    /// words, the larger-endpoint index and the reserve for the peak `Γ_v`
    /// buffer stay within the budget. A first increment over budget is
    /// still taken (the chunk must make progress) and ends the chunk.
    fn fill_from_top(
        &mut self,
        machine: &Machine,
        pivots: &ExtSlice<'_, Edge>,
        rest: Range<usize>,
        mem_words: usize,
        forward_degree: usize,
        lease: &mut MemLease,
    ) -> Range<usize> {
        let budget = mem_words.max(1);
        let step = (mem_words / 16).max(1);
        let mut start = rest.end;
        while start > rest.start {
            let take = step.min(start - rest.start);
            let (inc, probe) = self.probe(machine, pivots, start - take..start, lease);
            let cost =
                self.words() + inc.len() + probe.fresh.len() + forward_degree.min(probe.gamma_mem);
            if cost > budget && !self.edges.is_empty() {
                break;
            }
            self.commit(machine, inc, probe);
            start -= take;
            if cost > budget {
                break;
            }
        }
        rest.start..start
    }

    /// In-core words of the chunk: its edges and its larger-endpoint index.
    fn words(&self) -> usize {
        self.edges.len() + self.larger.len()
    }

    /// Loads the pivot edges `range` as an increment and measures what
    /// committing it would add, without changing the chunk. `lease` is
    /// resized to cover the chunk, the increment and its endpoint buffer
    /// before the increment is materialised.
    fn probe(
        &self,
        machine: &Machine,
        pivots: &ExtSlice<'_, Edge>,
        range: Range<usize>,
        lease: &mut MemLease,
    ) -> (Vec<Edge>, Probe) {
        lease.resize((self.words() + 2 * range.len()) as u64);
        let inc: Vec<Edge> = pivots.slice(range.start, range.end).load();
        machine.work(inc.len() as u64);
        // |Γ_mem| grows by the increment's endpoints outside Γ_mem: fresh
        // larger endpoints that are no smaller endpoint of the chunk, and
        // smaller endpoints that are neither in Γ_mem nor fresh.
        let mut gamma_mem = self.gamma_mem;
        let mut fresh = larger_endpoints_of(machine, &inc);
        fresh.retain(|&v| {
            machine.work(1);
            let is_fresh = self.larger.binary_search(&v).is_err();
            if is_fresh && !self.has_smaller(v) {
                gamma_mem += 1;
            }
            is_fresh
        });
        let mut previous = None;
        for e in &inc {
            machine.work(1);
            if previous != Some(e.u) {
                previous = Some(e.u);
                if !self.contains(e.u) && fresh.binary_search(&e.u).is_err() {
                    gamma_mem += 1;
                }
            }
        }
        (inc, Probe { fresh, gamma_mem })
    }

    /// Commits a probed increment, whose edges sort below the chunk's:
    /// splices them in front and merges the fresh larger endpoints into
    /// the index in place, from the back.
    fn commit(&mut self, machine: &Machine, inc: Vec<Edge>, probe: Probe) {
        self.edges.splice(0..0, inc);
        let (mut i, mut j) = (self.larger.len(), probe.fresh.len());
        self.larger.resize(i + j, 0);
        while j > 0 {
            machine.work(1);
            if i > 0 && self.larger[i - 1] > probe.fresh[j - 1] {
                self.larger[i + j - 1] = self.larger[i - 1];
                i -= 1;
            } else {
                self.larger[i + j - 1] = probe.fresh[j - 1];
                j -= 1;
            }
        }
        self.gamma_mem = probe.gamma_mem;
    }

    /// Whether `x` is the smaller endpoint of some pivot edge in the chunk.
    fn has_smaller(&self, x: VertexId) -> bool {
        let i = self.edges.partition_point(|e| e.u < x);
        self.edges.get(i).is_some_and(|e| e.u == x)
    }

    /// Whether `x` is an endpoint of some pivot edge in the chunk (`Γ_mem`).
    fn contains(&self, x: VertexId) -> bool {
        self.larger.binary_search(&x).is_ok() || self.has_smaller(x)
    }

    /// The largest *smaller* endpoint of any pivot edge in the chunk: every
    /// triangle closed against this chunk has its cone vertex strictly below
    /// this bound, which is what the endpoint-range pruning narrows cone
    /// scans with. The chunk is never empty (the loaders take ≥ 1 edge).
    fn max_pivot_u(&self) -> VertexId {
        self.edges.last().expect("chunks are non-empty").u
    }

    /// The chunk pivot edges whose smaller endpoint is `u`, as the sorted
    /// run of their larger endpoints.
    fn neighbors_of(&self, u: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        let lo = self.edges.partition_point(|e| e.u < u);
        let hi = self.edges.partition_point(|e| e.u <= u);
        self.edges[lo..hi].iter().map(|e| e.v)
    }
}

/// Closes every triangle `{v} ∪ {u, w}` with `{u, w}` a chunk pivot and
/// `u, w ∈ Γ_v`, forwarding them to `sink`. `gamma_v` is
/// sorted ascending (the scan produces it in `(u, v)` order), so the inner
/// membership probe is a binary search.
fn close_group(
    machine: &Machine,
    chunk: &PivotChunk,
    v: VertexId,
    gamma_v: &[VertexId],
    sink: &mut dyn TriangleSink,
) -> u64 {
    if gamma_v.len() < 2 {
        return 0;
    }
    let mut emitted = 0u64;
    for &u in gamma_v {
        for w in chunk.neighbors_of(u) {
            machine.work(1);
            if w != v && gamma_v.binary_search(&w).is_ok() {
                // All three edges are memory-resident at this point: {u,w}
                // is in the pivot chunk, and {v,u}, {v,w} were just read
                // while building Γ_v.
                sink.emit(Triangle::new(v, u, w));
                emitted += 1;
            }
        }
    }
    emitted
}

/// Scans one sorted edge stream against a pivot chunk: groups the stream by
/// its smaller endpoint `v`, collects `Γ_v`, and closes the groups'
/// triangles. `forward_degree` must bound the number of stream edges that
/// share one smaller endpoint, so `Γ_v ⊆ N⁺(v) ∩ Γ_mem` never exceeds
/// `min(forward_degree, |Γ_mem|)` entries: the buffer is allocated and
/// leased at exactly that reserve, which the adaptive loader budgets for.
/// A cleared `Vec` keeps its allocation, so the lease covers the retained
/// capacity, and a debug assertion on every push checks that the buffer
/// never reallocated past it.
fn scan_against_chunk(
    machine: &Machine,
    chunk: &PivotChunk,
    forward_degree: usize,
    edges: impl Iterator<Item = Edge>,
    sink: &mut dyn TriangleSink,
) -> u64 {
    let mut emitted = 0u64;
    let mut gamma_v: Vec<VertexId> = Vec::with_capacity(forward_degree.min(chunk.gamma_mem));
    let gamma_lease = machine.gauge().lease(gamma_v.capacity() as u64);
    let mut current_v: Option<VertexId> = None;

    for e in edges {
        machine.work(1);
        if current_v != Some(e.u) {
            if let Some(v) = current_v {
                emitted += close_group(machine, chunk, v, &gamma_v, sink);
            }
            // `clear` keeps the capacity; the lease keeps covering it.
            gamma_v.clear();
            current_v = Some(e.u);
        }
        if chunk.contains(e.v) {
            gamma_v.push(e.v);
            debug_assert_eq!(
                gamma_lease.words(),
                gamma_v.capacity() as u64,
                "the Γ_v lease must cover the buffer's retained allocation"
            );
        }
    }
    if let Some(v) = current_v {
        emitted += close_group(machine, chunk, v, &gamma_v, sink);
    }
    emitted
}

/// Enumerates every triangle of `edge_set` whose pivot edge belongs to
/// `pivots`, and returns the number emitted.
///
/// Requirements (all established by the callers):
/// * `edge_set` is canonical and sorted lexicographically;
/// * `pivots ⊆ edge_set`, sorted lexicographically too;
/// * `mem_words` is the internal-memory budget `M` in words;
/// * no vertex has more than `forward_degree` edges in `edge_set` with it
///   as the smaller endpoint (`usize::MAX` when no bound is known).
pub(crate) fn enumerate_with_pivots(
    edge_set: &ExtVec<Edge>,
    pivots: &ExtVec<Edge>,
    mem_words: usize,
    forward_degree: usize,
    policy: ChunkPolicy,
    sink: &mut dyn TriangleSink,
) -> u64 {
    let machine: Machine = edge_set.machine().clone();
    let pview = pivots.as_slice();
    let mut emitted = 0u64;

    let mut rest = 0..pivots.len();
    while !rest.is_empty() {
        let (chunk, _lease, left) =
            PivotChunk::load(&machine, &pview, rest, mem_words, forward_degree, policy);
        let scan = if policy.prunes() {
            // Endpoint-range pruning: no triangle closed against this chunk
            // has a cone vertex at or above the chunk's largest smaller
            // pivot endpoint, so the (u, v)-sorted edge set is narrowed to
            // the prefix below it by binary search.
            let bound = chunk.max_pivot_u();
            let view = edge_set.as_slice();
            let cut = view.partition_point(|e| e.u < bound);
            view.slice(0, cut)
        } else {
            edge_set.as_slice()
        };
        emitted += scan_against_chunk(&machine, &chunk, forward_degree, scan.iter(), sink);
        rest = left;
    }
    emitted
}

/// The pivot-grouped form of Lemma 2 used by step 3 of the cache-aware
/// algorithms: enumerates, for every cone input, every triangle whose pivot
/// edge lies in `pivots` and whose cone edges lie in that input's class
/// views, and returns the emission and chunk-pass counters.
///
/// Each pivot chunk is loaded and indexed **once** (sized by `policy`), then
/// all cone inputs are streamed against it — narrowed to the chunk's
/// prunable endpoint range when the policy prunes, and merged on the fly by
/// the streaming k-way merge; nothing is materialised. Because a cone
/// input's views hold exactly the candidate cone edges of one cone colour,
/// every emitted triangle's cone vertex has that colour by construction and
/// no filter is evaluated.
///
/// Requirements: `pivots` and every view in `cones` are sorted by `(u, v)`;
/// the views of one cone input are pairwise disjoint; `mem_words` is the
/// memory budget `M` in words; no vertex is the smaller endpoint of more
/// than `forward_degree` edges of one cone input.
pub(crate) fn enumerate_multi_cone(
    pivots: ExtSlice<'_, Edge>,
    cones: &[ConeClasses<'_>],
    mem_words: usize,
    forward_degree: usize,
    policy: ChunkPolicy,
    sink: &mut dyn TriangleSink,
) -> Lemma2Stats {
    let machine: Machine = pivots.machine().clone();
    let mut stats = Lemma2Stats::default();

    let mut rest = 0..pivots.len();
    while !rest.is_empty() {
        let (chunk, _lease, left) =
            PivotChunk::load(&machine, &pivots, rest, mem_words, forward_degree, policy);
        stats.chunk_passes += 1;
        let bound = policy.prunes().then(|| chunk.max_pivot_u());
        for cone in cones {
            let cursors = cone
                .ranges
                .iter()
                .map(|r| match bound {
                    // Narrow each sorted view to the sub-range that can
                    // touch the chunk (see the module docs) — the part at or
                    // above the bound is never read, let alone streamed.
                    Some(b) => {
                        let cut = r.partition_point(|e| e.u < b);
                        r.slice(0, cut).iter()
                    }
                    None => r.iter(),
                })
                .collect();
            let merged = emalgo::kway_merge(&machine, cursors, |e: &Edge| (e.u, e.v));
            stats.emitted += scan_against_chunk(&machine, &chunk, forward_degree, merged, sink);
        }
        rest = left;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CollectingSink, StrictSink};
    use emsim::{EmConfig, Machine};
    use graphgen::{generators, naive, Graph};
    use proptest::prelude::*;

    fn canonical_ext(g: &Graph, machine: &Machine) -> ExtVec<Edge> {
        let mut edges: Vec<Edge> = g.edges().to_vec();
        edges.sort_unstable();
        ExtVec::from_slice(machine, &edges)
    }

    /// The longest run of one smaller endpoint in `g`'s sorted edge list:
    /// the forward-degree bound Lemma 2's callers hand over.
    fn forward_degree(g: &Graph) -> usize {
        let mut edges: Vec<Edge> = g.edges().to_vec();
        edges.sort_unstable();
        edges
            .chunk_by(|a, b| a.u == b.u)
            .map(<[Edge]>::len)
            .max()
            .unwrap_or(0)
    }

    const BOTH_POLICIES: [ChunkPolicy; 2] = [ChunkPolicy::Adaptive, ChunkPolicy::Fixed];

    #[test]
    fn with_all_edges_as_pivots_enumerates_every_triangle_exactly_once() {
        for policy in BOTH_POLICIES {
            for seed in [1u64, 2, 3] {
                let g = generators::erdos_renyi(80, 600, seed);
                let machine = Machine::new(EmConfig::new(1 << 10, 64));
                let edges = canonical_ext(&g, &machine);
                let mut sink = StrictSink::new();
                let n = enumerate_with_pivots(
                    &edges,
                    &edges,
                    1 << 10,
                    forward_degree(&g),
                    policy,
                    &mut sink,
                );
                assert_eq!(n, naive::count_triangles(&g), "seed {seed} {policy:?}");
                assert_eq!(sink.len() as u64, n);
            }
        }
    }

    #[test]
    fn pivot_subset_restricts_to_matching_triangles() {
        for policy in BOTH_POLICIES {
            let g = generators::clique(8);
            let machine = Machine::new(EmConfig::new(1 << 10, 64));
            let edges = canonical_ext(&g, &machine);
            // Use only pivot edges incident to vertex 7 (the largest): the
            // pivot of a triangle is the edge between its two largest
            // vertices, so we must get exactly the triangles containing
            // vertex 7: C(7,2) = 21.
            let pivots_vec: Vec<Edge> = g.edges().iter().copied().filter(|e| e.v == 7).collect();
            let pivots = ExtVec::from_slice(&machine, &pivots_vec);
            let mut sink = CollectingSink::new();
            let n = enumerate_with_pivots(
                &edges,
                &pivots,
                1 << 10,
                forward_degree(&g),
                policy,
                &mut sink,
            );
            assert_eq!(n, 21, "{policy:?}");
            assert!(sink.triangles().iter().all(|t| t.c == 7));
        }
    }

    #[test]
    fn tiny_memory_still_correct_via_many_chunks() {
        for policy in BOTH_POLICIES {
            let g = generators::erdos_renyi(60, 500, 11);
            let machine = Machine::new(EmConfig::new(64, 16)); // M = 64 words!
            let edges = canonical_ext(&g, &machine);
            let mut sink = StrictSink::new();
            let n =
                enumerate_with_pivots(&edges, &edges, 64, forward_degree(&g), policy, &mut sink);
            assert_eq!(n, naive::count_triangles(&g), "{policy:?}");
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "the Γ_v lease must cover the buffer's retained allocation")]
    fn a_reserve_below_the_forward_degree_trips_the_gamma_lease_check() {
        // K12 in one chunk: Γ_mem holds all 12 vertices and vertex 0's Γ_v
        // all 11 of its forward neighbours. A bound one below the true
        // forward degree reserves 10 entries, so the 11th push reallocates.
        let g = generators::clique(12);
        let machine = Machine::new(EmConfig::new(1 << 10, 64));
        let edges = canonical_ext(&g, &machine);
        let mut sink = CollectingSink::new();
        let d = forward_degree(&g);
        assert_eq!(d, 11);
        enumerate_with_pivots(
            &edges,
            &edges,
            1 << 10,
            d - 1,
            ChunkPolicy::Adaptive,
            &mut sink,
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "pivot chunks must be (u, v)-sorted")]
    fn unsorted_pivot_sets_violate_the_sorted_precondition() {
        // Every caller hands over a (u, v)-sorted pivot view; a reversed one
        // trips the precondition instead of being re-sorted in core.
        let g = generators::erdos_renyi(50, 350, 9);
        let machine = Machine::new(EmConfig::new(1 << 10, 64));
        let edges = canonical_ext(&g, &machine);
        let mut reversed = edges.load_all();
        reversed.reverse();
        let pivots = ExtVec::from_slice(&machine, &reversed);
        let mut sink = CollectingSink::new();
        enumerate_with_pivots(
            &edges,
            &pivots,
            1 << 10,
            forward_degree(&g),
            ChunkPolicy::Adaptive,
            &mut sink,
        );
    }

    #[test]
    fn io_scales_with_number_of_chunks() {
        // Doubling memory should roughly halve the number of chunk passes
        // over the edge set: the E'·E/(MB) term of Lemma 2.
        for policy in BOTH_POLICIES {
            let g = generators::erdos_renyi(400, 6000, 4);
            let run = |mem: usize| -> u64 {
                let machine = Machine::new(EmConfig::new(mem, 64));
                let edges = canonical_ext(&g, &machine);
                machine.cold_cache();
                let before = machine.io().total();
                let mut sink = CollectingSink::new();
                enumerate_with_pivots(&edges, &edges, mem, forward_degree(&g), policy, &mut sink);
                machine.io().total() - before
            };
            let small = run(1 << 9);
            let large = run(1 << 13);
            assert!(
                small as f64 > 3.0 * large as f64,
                "16x memory should cut Lemma 2 I/Os by well over 3x \
                 (small={small}, large={large}, {policy:?})"
            );
        }
    }

    #[test]
    fn memory_gauge_respects_budget() {
        for policy in BOTH_POLICIES {
            let g = generators::erdos_renyi(200, 3000, 8);
            let mem = 1 << 10;
            let machine = Machine::new(EmConfig::new(mem, 64));
            let edges = canonical_ext(&g, &machine);
            let mut sink = CollectingSink::new();
            enumerate_with_pivots(&edges, &edges, mem, forward_degree(&g), policy, &mut sink);
            // The invariant that the Γ_v lease tracks the buffer's retained
            // capacity (not just its live length) is debug-asserted inside
            // the scan on every edge this test streams; the peak below
            // therefore includes the cleared-but-retained allocation.
            assert!(
                machine.gauge().peak() <= (mem + mem / 2) as u64,
                "peak in-core usage {} exceeds 1.5·M = {} ({policy:?})",
                machine.gauge().peak(),
                mem + mem / 2
            );
            assert_eq!(
                machine.gauge().in_use(),
                0,
                "all leases (chunk, probe, Γ_v) must be released ({policy:?})"
            );
        }
    }

    #[test]
    fn triangle_free_graphs_emit_nothing() {
        for policy in BOTH_POLICIES {
            let g = generators::complete_bipartite(20, 20);
            let machine = Machine::new(EmConfig::new(512, 64));
            let edges = canonical_ext(&g, &machine);
            let mut sink = CollectingSink::new();
            assert_eq!(
                enumerate_with_pivots(&edges, &edges, 512, forward_degree(&g), policy, &mut sink),
                0,
                "{policy:?}"
            );
            assert!(sink.is_empty());
        }
    }

    #[test]
    fn multi_cone_with_whole_edge_set_matches_the_plain_lemma() {
        // One cone input holding the whole edge set and pivots = everything
        // must reproduce the Hu–Tao–Chung behaviour exactly.
        for policy in BOTH_POLICIES {
            for seed in [4u64, 6] {
                let g = generators::erdos_renyi(70, 520, seed);
                let machine = Machine::new(EmConfig::new(512, 32));
                let edges = canonical_ext(&g, &machine);
                let mut sink = StrictSink::new();
                let cones = [ConeClasses {
                    ranges: vec![edges.as_slice()],
                }];
                let stats = enumerate_multi_cone(
                    edges.as_slice(),
                    &cones,
                    512,
                    forward_degree(&g),
                    policy,
                    &mut sink,
                );
                assert_eq!(
                    stats.emitted,
                    naive::count_triangles(&g),
                    "seed {seed} {policy:?}"
                );
                assert!(stats.chunk_passes >= 1);
            }
        }
    }

    #[test]
    fn multi_cone_merges_split_views_and_respects_budget() {
        // Split the edge set into two interleaved sorted halves handed over
        // as one cone's two views: the on-the-fly merge must reconstruct
        // the full cone-edge stream, within the memory budget.
        for policy in BOTH_POLICIES {
            let g = generators::erdos_renyi(90, 700, 12);
            let mem = 512usize;
            let machine = Machine::new(EmConfig::new(mem, 32));
            let edges = canonical_ext(&g, &machine);
            let all: Vec<Edge> = edges.load_all();
            let half_a: Vec<Edge> = all.iter().copied().step_by(2).collect();
            let half_b: Vec<Edge> = all.iter().copied().skip(1).step_by(2).collect();
            let a = ExtVec::from_slice(&machine, &half_a);
            let b = ExtVec::from_slice(&machine, &half_b);
            machine.gauge().reset_peak();
            let mut sink = StrictSink::new();
            let cones = [ConeClasses {
                ranges: vec![a.as_slice(), b.as_slice()],
            }];
            let stats = enumerate_multi_cone(
                edges.as_slice(),
                &cones,
                mem,
                forward_degree(&g),
                policy,
                &mut sink,
            );
            assert_eq!(stats.emitted, naive::count_triangles(&g), "{policy:?}");
            assert!(
                machine.gauge().peak() <= (mem + mem / 2) as u64,
                "peak in-core usage {} exceeds 1.5·M = {} ({policy:?})",
                machine.gauge().peak(),
                mem + mem / 2
            );
        }
    }

    #[test]
    fn multi_cone_loads_each_pivot_chunk_once_for_all_cones() {
        // The point of pivot grouping: with k cone inputs the pivot chunk is
        // read once, not k times. Compare pivot-side read volume against
        // running the plain lemma k times.
        let g = generators::erdos_renyi(150, 2500, 3);
        let mem = 256usize;
        let machine = Machine::new(EmConfig::new(mem, 32));
        let edges = canonical_ext(&g, &machine);
        let k = 6usize;

        machine.cold_cache();
        let before = machine.io().total();
        let cones: Vec<ConeClasses> = (0..k)
            .map(|_| ConeClasses {
                ranges: vec![edges.as_slice()],
            })
            .collect();
        let mut sink = CollectingSink::new();
        let grouped = enumerate_multi_cone(
            edges.as_slice(),
            &cones,
            mem,
            forward_degree(&g),
            ChunkPolicy::Fixed,
            &mut sink,
        );
        let grouped_io = machine.io().total() - before;

        machine.cold_cache();
        let before = machine.io().total();
        let mut sink2 = CollectingSink::new();
        let mut repeated = 0;
        for _ in 0..k {
            repeated += enumerate_with_pivots(
                &edges,
                &edges,
                mem,
                forward_degree(&g),
                ChunkPolicy::Fixed,
                &mut sink2,
            );
        }
        let repeated_io = machine.io().total() - before;

        assert_eq!(grouped.emitted, repeated);
        assert!(
            grouped_io < repeated_io,
            "pivot grouping must not cost more I/O ({grouped_io} vs {repeated_io})"
        );
    }

    #[test]
    fn adaptive_chunking_cuts_passes_on_endpoint_light_families() {
        // The tentpole claim: on a dense (endpoint-deduplicating) pivot
        // class the measured chunk cost is far below the worst case, so the
        // adaptive policy packs several fixed-divisor chunks into each pass.
        // K64's 2016 edges touch only 64 vertices: the fixed policy loads
        // M/8 = 64 edges per chunk, the adaptive one packs ~(M - 128)
        // edges, cutting passes by more than 3x — with identical output.
        let g = generators::clique(64);
        let mem = 512usize;
        let run = |policy: ChunkPolicy| -> (Lemma2Stats, Vec<graphgen::Triangle>, u64) {
            let machine = Machine::new(EmConfig::new(mem, 32));
            let edges = canonical_ext(&g, &machine);
            machine.cold_cache();
            let before = machine.io().total();
            let cones = [ConeClasses {
                ranges: vec![edges.as_slice()],
            }];
            let mut sink = CollectingSink::new();
            let stats = enumerate_multi_cone(
                edges.as_slice(),
                &cones,
                mem,
                forward_degree(&g),
                policy,
                &mut sink,
            );
            (stats, sink.into_triangles(), machine.io().total() - before)
        };
        let (fixed, mut t_fixed, io_fixed) = run(ChunkPolicy::Fixed);
        let (adaptive, mut t_adaptive, io_adaptive) = run(ChunkPolicy::Adaptive);
        assert_eq!(adaptive.emitted, naive::count_triangles(&g));
        assert_eq!(adaptive.emitted, fixed.emitted);
        t_fixed.sort_unstable();
        t_adaptive.sort_unstable();
        assert_eq!(t_adaptive, t_fixed, "output must be bit-identical");
        assert!(
            adaptive.chunk_passes * 3 <= fixed.chunk_passes,
            "adaptive sizing should cut chunk passes at least 3x on K64 \
             (adaptive={}, fixed={})",
            adaptive.chunk_passes,
            fixed.chunk_passes
        );
        assert!(
            io_adaptive < io_fixed,
            "fewer passes must translate into less I/O ({io_adaptive} vs {io_fixed})"
        );
    }

    #[test]
    fn endpoint_range_pruning_skips_sterile_view_tails() {
        // A graph whose cone views extend far beyond the early chunks'
        // pivot bands: the adaptive path must narrow the per-chunk cone
        // scans instead of streaming every view in full. Verified two ways:
        // the narrowed scan reads strictly less than the full-view policy at
        // the same chunk size, and the output is still exactly right.
        let g = generators::erdos_renyi(300, 5000, 21);
        let mem = 256usize;
        let machine = Machine::new(EmConfig::new(mem, 32));
        let edges = canonical_ext(&g, &machine);
        let cones = [ConeClasses {
            ranges: vec![edges.as_slice()],
        }];

        machine.cold_cache();
        let before = machine.io().total();
        let mut sink = StrictSink::new();
        let pruned = enumerate_multi_cone(
            edges.as_slice(),
            &cones,
            mem,
            forward_degree(&g),
            ChunkPolicy::Adaptive,
            &mut sink,
        );
        let pruned_io = machine.io().total() - before;
        assert_eq!(pruned.emitted, naive::count_triangles(&g));

        // Re-run with the *same* adaptive chunking but pruning disabled by
        // handing the scan pre-narrowed... not expressible; instead compare
        // against the fixed policy normalised per pass: pruning makes the
        // average per-pass scan cost strictly smaller than a full-view pass.
        machine.cold_cache();
        let before = machine.io().total();
        let mut sink2 = StrictSink::new();
        let fixed = enumerate_multi_cone(
            edges.as_slice(),
            &cones,
            mem,
            forward_degree(&g),
            ChunkPolicy::Fixed,
            &mut sink2,
        );
        let fixed_io = machine.io().total() - before;
        assert_eq!(fixed.emitted, pruned.emitted);
        let pruned_per_pass = pruned_io as f64 / pruned.chunk_passes as f64;
        let fixed_per_pass = fixed_io as f64 / fixed.chunk_passes as f64;
        assert!(
            pruned_per_pass < 0.9 * fixed_per_pass,
            "pruned passes should be >10% cheaper than full-view passes \
             (pruned {pruned_per_pass:.1} vs full {fixed_per_pass:.1} I/Os per pass)"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn chunk_index_agrees_with_the_full_endpoint_set(
            pairs in prop::collection::vec((0u32..61, 1u32..61), 1..400),
            mem_exp in 4u32..10,
            forward_degree in 0usize..40,
        ) {
            // The adaptive loader cuts random pivot sets into chunks from
            // the top down. Each chunk's larger-endpoint index plus its
            // smaller-endpoint lookups must answer exactly the deduplicated
            // endpoint set, its tracked |Γ_mem| must be that set's size,
            // and a chunk over the cost rule must be a lone increment.
            let mut pivots: Vec<Edge> =
                pairs.iter().map(|&(a, b)| Edge::new(a, (a + b) % 61)).collect();
            pivots.sort_unstable();
            pivots.dedup();
            let mem = 1usize << mem_exp;
            let machine = Machine::new(EmConfig::new(mem, 16));
            let ext = ExtVec::from_slice(&machine, &pivots);
            let view = ext.as_slice();
            let mut rest = 0..pivots.len();
            while !rest.is_empty() {
                let end = rest.end;
                let (chunk, lease, left) = PivotChunk::load(
                    &machine, &view, rest, mem, forward_degree, ChunkPolicy::Adaptive,
                );
                prop_assert_eq!(left.end + chunk.edges.len(), end, "chunks are cut from the top");
                prop_assert_eq!(&chunk.edges[..], &pivots[left.end..end]);
                let mut endpoints: Vec<VertexId> =
                    chunk.edges.iter().flat_map(|e| [e.u, e.v]).collect();
                endpoints.sort_unstable();
                endpoints.dedup();
                prop_assert_eq!(chunk.gamma_mem, endpoints.len());
                for x in 0..61 {
                    prop_assert_eq!(chunk.contains(x), endpoints.binary_search(&x).is_ok(), "x = {}", x);
                }
                prop_assert!(chunk.larger.is_sorted());
                prop_assert_eq!(lease.words(), chunk.words() as u64);
                let cost = chunk.words() + forward_degree.min(chunk.gamma_mem);
                prop_assert!(cost <= mem || chunk.edges.len() <= (mem / 16).max(1));
                rest = left;
            }
        }

        #[test]
        fn adaptive_and_fixed_divisor_policies_are_bit_identical(
            n in 20usize..90,
            m in 40usize..500,
            seed in 0u64..1_000_000,
            mem_exp in 6u32..11,
        ) {
            // The pinning property of the tentpole: adaptive sizing and
            // endpoint-range pruning change *which* blocks are read and how
            // pivots are batched, never what is emitted — same triangle
            // multiset, same count, at every memory size, for the plain and
            // the multi-cone entry points.
            let g = generators::erdos_renyi(n, m, seed);
            let mem = 1usize << mem_exp;
            let run = |policy: ChunkPolicy| {
                let machine = Machine::new(EmConfig::new(mem, 32));
                let edges = canonical_ext(&g, &machine);
                let mut sink = CollectingSink::new();
                let plain =
                    enumerate_with_pivots(&edges, &edges, mem, forward_degree(&g), policy, &mut sink);
                let cones = [ConeClasses { ranges: vec![edges.as_slice()] }];
                let mut msink = CollectingSink::new();
                let multi =
                    enumerate_multi_cone(edges.as_slice(), &cones, mem, forward_degree(&g), policy, &mut msink);
                let mut t = sink.into_triangles();
                t.sort_unstable();
                let mut tm = msink.into_triangles();
                tm.sort_unstable();
                (plain, t, multi.emitted, tm)
            };
            let (pa, ta, ma, tma) = run(ChunkPolicy::Adaptive);
            let (pf, tf, mf, tmf) = run(ChunkPolicy::Fixed);
            prop_assert_eq!(pa, pf);
            prop_assert_eq!(ta, tf, "plain-lemma emission multiset diverged");
            prop_assert_eq!(ma, mf);
            prop_assert_eq!(tma, tmf, "multi-cone emission multiset diverged");
            prop_assert_eq!(pa, naive::count_triangles(&g));
        }
    }
}
