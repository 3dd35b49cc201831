//! The cache-oblivious randomized algorithm (paper Section 3, Theorem 1).
//!
//! The algorithm solves the more general `{c0, c1, c2}`-enumeration problem:
//! given a colouring `ξ` of the vertices, enumerate the triangles
//! `{u, v, w}` whose colour multiset `{ξ(u), ξ(v), ξ(w)}` is the target
//! `{c0, c1, c2}` (stored sorted, `c0 ≤ c1 ≤ c2`). Plain triangle
//! enumeration is the `{1, 1, 1}` problem under the constant colouring.
//!
//! Each subproblem of the colour-refinement tree:
//!
//! 1. enumerates the *proper* triangles through every **local high-degree
//!    vertex** (degree ≥ E/8 within the current subproblem; at most 16 of
//!    them, see [`MAX_LOCAL_HIGH_DEGREE`]) with Lemma 1, removing each such
//!    vertex's edges afterwards;
//! 2. refines the colouring with one fresh random bit per vertex,
//!    `ξ'(v) = 2ξ(v) − b(v)`, `b` drawn from a 4-wise independent family —
//!    one bit function **per tree level**, installed up front as a batch
//!    (see [`RefinedColoring::push_batch`]), so sibling subproblems share
//!    the same refinement and the whole tree is a function of the seed and
//!    the level alone (which is what lets sharded workers and resumed runs
//!    rebuild the identical tree);
//! 3. splits into the distinct sorted refinements of the target — the
//!    multisets `{z0, z1, z2}` with each `zi ∈ {2ci−1, 2ci}`: 4 children for
//!    `{a, a, a}`, 6 for `{a, a, b}` or `{a, b, b}`, 8 for three distinct
//!    colours ([`Split`]) — each holding the edges whose child-colour pair it
//!    contains. Every edge of the node lands in **exactly two** children at
//!    every depth, the copy factor 2 Theorem 1's bound assumes, and every
//!    triangle's refined multiset names exactly one child.
//!
//! The recursion bottoms out on constant-size inputs or at depth `log₄ E` —
//! neither involves the machine parameters. The **code below never reads
//! the machine configuration**; every I/O the run is charged comes from LRU
//! misses in the simulator, which is exactly how a cache-oblivious algorithm
//! is supposed to be evaluated.
//!
//! ## Subproblem representation: canonical edge lists
//!
//! A subproblem is its **canonical edge list**: every edge `(u, v)`, `u < v`,
//! one word each, sorted lexicographically — half the volume of the
//! incidence-list (both-orientations) representation this module previously
//! used. The list is "sorted" exactly once, at the root, through the
//! defensive [`emalgo::oblivious_sort_by_key`], whose sorted-input detection
//! turns the already-sorted input into a plain copy scan. Partitioning is
//! **order-preserving** (colour refinement splits classes without reordering
//! within them), so every child inherits the parent's `(u, v)` sort and *no
//! subproblem below the root ever sorts its input* — a one-scan
//! `debug_assert` checks the inherited sortedness during each routing scan
//! at zero extra I/O.
//!
//! The price of dropping the reverse orientations is that a vertex's local
//! degree is no longer a run length (a high-id hub appears only as a
//! *destination*, scattered across the sorted list). Step 1 instead keeps a
//! [`HeavyHitters`] summary (Misra–Gries, 16 counters) **per child, fed by
//! the parent's routing scan**: every vertex with degree ≥ E_child/8 — a
//! frequency above `1/17` of the child's endpoint stream — is guaranteed to
//! be tracked, with counter error bounded by the decrement count. A child
//! whose summary proves no vertex *can* clear the bar (the common case)
//! skips degree work entirely; otherwise one exact counting scan over the
//! ≤ 16 candidates settles the set. The result is provably the exact
//! high-degree set, at the cost of one extra scan only when a plausible
//! candidate exists.
//!
//! ## Colour resolution
//!
//! The colouring is the paper's `O(depth)`-word function: `⌈log₄ E⌉` bit
//! functions and nothing per vertex. Every edge inside the node of target
//! `{c0, c1, c2}` has its colour pair inside the target, so each endpoint's
//! colour is one of the ≤ 3 sorted candidates, and
//! [`RefinedColoring::resolve`] picks it with at most two bit evaluations.
//! The routing scan computes each child colour as `2·resolve(…) − b_d(v)`
//! ([`RefinedColoring::resolve_child`]), at most three evaluations per
//! endpoint from one shared computation of the endpoint's powers instead of
//! `d + 1`, resolves the smaller endpoint once per run of the
//! `(u, v)`-sorted list, and reads the edge's child mask from the node's
//! 6 × 6 [`Split`] table indexed by the two child colours. The properness
//! filter resolves triangle vertices the same way. Only the checkpoint's
//! rebuild scan, whose root edges are not yet known to be compatible, pays
//! the full [`RefinedColoring::color_at`] — once per endpoint, at the
//! deepest frontier depth.
//!
//! ## Base cases
//!
//! * `E ≤ `[`BASE_CASE_EDGES`] (288): the subproblem is **constant-sized**,
//!   so it is joined entirely in core (the edge list is leased on the
//!   memory gauge, wedges are probed against it by binary search) — no
//!   wedge file, no sort, no extra I/O beyond the one segment read. This
//!   matches the paper's O(1)-size base case, which assumes constant
//!   working storage. The constant only sets where the tree stops: a
//!   subproblem this small is finished in one read, where routing it would
//!   pay a summary check, possibly a degree-counting scan and Lemma 1
//!   passes, and up to eight child lists.
//! * **oversized depth-limit leaves** (`E > `[`BASE_CASE_EDGES`] at depth
//!   `⌈log₄ E⌉`, rare): closed in place by Dementiev's wedge join
//!   ([`sort_based_enumeration`]) — the leaf's wedges are sorted by their
//!   missing edge and merged against its (already sorted) edge list, the
//!   `sort(E^{3/2})` baseline applied to one leaf. The leaf is finished
//!   before the next subproblem boundary, so no leaf state outlives it.
//!
//! ## Tree-evaluation order
//!
//! The tree is evaluated depth-first over an **explicit stack of pending
//! subproblems** and nothing else: each pending child owns its edge list and,
//! if it will route, its [`HeavyHitters`] summary, whose gauge lease ends
//! when the child has been processed. The explicit stack is what makes the
//! run *checkpointable*: at any subproblem boundary the whole frontier can be
//! serialised as `O(1)`-word descriptors (depth, colour multiset, removed
//! vertices) and the edge lists recovered later by order-preserving routed
//! scans of the root, up to 32 nodes per scan — see [`crate::checkpoint`].
//! Depth-first order is what makes the run cache-adaptive: a subtree whose
//! working set fits internal memory is created, consumed and freed before
//! the LRU cache ever evicts it, so deep levels cost no I/O at all and the
//! charged I/O concentrates on the above-memory part of the tree — exactly
//! the structure Theorem 1's `O(E^{3/2}/(√M·B))` bound needs. A
//! level-synchronous order (one partition sweep per depth) keeps whole
//! levels live, so the deep levels stream cold at every machine size: it
//! measured 12–77× the depth-first I/O on E3 (see EXPERIMENTS.md).

use std::rc::Rc;

use emsim::{ExtVec, Machine, MemLease};
use graphgen::{Edge, Triangle, VertexId};
use kwise::{FourWise, RefinedColoring};

use crate::baselines::dementiev::sort_based_enumeration;
use crate::checkpoint::{Checkpoint, CheckpointSpec, NodeDescriptor, Recovery, CHECKPOINT_VERSION};
use crate::input::ExtGraph;
use crate::lemma1::enumerate_through_vertex;
use crate::sink::TriangleSink;
use crate::stats::PhaseRecorder;
use crate::util::{remove_incident_edges, SortKind};
use crate::workunit::{ShardCursor, WorkUnitKind, DEFAULT_SPAWN_DEPTH};

/// Subproblems of at most this many edges are joined in core directly. A
/// fixed constant — the cache-oblivious model forbids dependence on `M`/`B`,
/// not on constants (and the paper's base case likewise assumes constant
/// working storage). Chosen by a sweep over {96, 192, 288, 384}
/// (EXPERIMENTS.md "Base-case sweep"; an earlier sweep over {24, 48, 96,
/// 192} chose 96): 288 halves the work against 96 and lowers the peak, the
/// charged I/O and every E3 row. 384 is within noise of it in wall-clock
/// and within 3% in work and I/O, for a leaf a third larger. Being at least
/// 120 = C(16, 2), the constant also keeps a routing node's high-degree set
/// below [`MAX_LOCAL_HIGH_DEGREE`].
const BASE_CASE_EDGES: usize = 288;

/// The paper's bound on the number of local high-degree vertices: since each
/// has degree ≥ E/8 and the degrees sum to 2E, there can be at most 16.
///
/// No node that reaches step 1 has 16 of them. Sixteen vertices of degree
/// ≥ E/8 have degrees summing to at least 2E, the sum over *all* vertices.
/// An edge adds 2 to the sixteen's sum only if both its endpoints are among
/// them, so every edge would lie inside the sixteen and E ≤ C(16, 2) = 120.
/// Step 1 runs only on nodes with E > [`BASE_CASE_EDGES`] ≥ 120, so at most
/// 15 vertices are ever high-degree there. (K16, the densest graph meeting
/// the bound, is a single in-core leaf.)
///
/// The bound is enforced by the summary's size: [`HeavyHitters`] has this
/// many slots, and step 1's candidates are drawn from them, so no node can
/// hand Lemma 1 more than 16 vertices.
const MAX_LOCAL_HIGH_DEGREE: usize = 16;

/// Largest fan-out of the colour refinement: a target of three distinct
/// colours has 2³ = 8 children (see [`Split`]).
const CHILDREN: usize = 8;

/// Gauge words one level of the refinement tree may hold, derived from the
/// named constants: a routing node's child summaries (`CHILDREN` ×
/// `HeavyHitters::WORDS` = 264) and one bit function ([`FourWise::WORDS`] =
/// 4). At most `⌈log₄ E⌉` nodes on a root-to-leaf path route (and only
/// nodes above [`BASE_CASE_EDGES`] edges route at all), so the spare level
/// covers the transient leases (root summary 33, high-degree counts ≤ 32,
/// routing state 8, sort base case ≤ 64).
///
/// This is an upper bound, and a loose one: each child summary's lease ends
/// when that child has been processed, so below a routing ancestor only its
/// still-pending children (at most 7 once the path has descended into one)
/// hold summaries, and of those only the ones that will route themselves.
pub const CACHE_OBLIVIOUS_WORDS_PER_LEVEL: u64 =
    CHILDREN as u64 * HeavyHitters::WORDS + FourWise::WORDS;

/// The recursion depth limit `⌈log₄ E⌉`, a function of the input size only.
fn depth_limit(e: usize) -> usize {
    let limit = ((e as f64).ln() / 4f64.ln()).ceil() as usize;
    #[cfg(test)]
    let limit = DEPTH_CAP
        .with(|cap| cap.get())
        .map_or(limit, |cap| limit.min(cap));
    limit
}

#[cfg(test)]
thread_local! {
    /// A unit-test cap on [`depth_limit`], so that runs reach oversized
    /// depth-limit leaves, which no natural input does. Thread-local, so
    /// parallel tests cannot see each other's cap; see [`with_depth_cap`].
    static DEPTH_CAP: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Runs `f` with the depth limit capped at `cap` on this thread (`None`: the
/// natural `⌈log₄ E⌉`), restoring the previous cap even if `f` unwinds.
#[cfg(test)]
fn with_depth_cap<R>(cap: Option<usize>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            DEPTH_CAP.with(|cap| cap.set(self.0));
        }
    }
    let _restore = Restore(DEPTH_CAP.with(|c| c.replace(cap)));
    f()
}

/// The gauge budget of one cache-oblivious run phase on `e` edges:
/// [`CACHE_OBLIVIOUS_WORDS_PER_LEVEL`] for each of the `⌈log₄ E⌉ + 1` levels,
/// plus one in-core leaf's edge list ([`BASE_CASE_EDGES`] = 288 words),
/// counted once because only one leaf is ever live. The leaf term grew by
/// 192 words when the base case went from 96 to 288 edges, while the
/// measured peaks fell (quick E3: 1 172 → 1 103 of 2 164 words; full E3:
/// 1 423 → 1 305 of 2 432); per-child summary leases then took quick E3 to
/// 953.
pub fn cache_oblivious_phase_budget(e: usize) -> u64 {
    CACHE_OBLIVIOUS_WORDS_PER_LEVEL * (depth_limit(e) as u64 + 1) + BASE_CASE_EDGES as u64
}

/// The target of a subproblem: a colour multiset `{c0, c1, c2}`, stored
/// sorted (`c0 ≤ c1 ≤ c2`).
type ColorMultiset = [u64; 3];

/// `[a, b, c]` sorted, by three compare-exchanges.
fn sorted3([a, b, c]: [u64; 3]) -> [u64; 3] {
    let (a, b) = (a.min(b), a.max(b));
    let (b, c) = (b.min(c), b.max(c));
    [a.min(b), a.max(b), c]
}

/// How one node splits: its children, which are the distinct sorted
/// refinements of its target in lexicographic order, and the routing table
/// that sends an edge to every child whose multiset contains the edge's
/// child-colour pair.
///
/// Each colour `c` of the target refines to `2c − 1` or `2c`, so `{a, a, a}`
/// has 4 children, `{a, a, b}` and `{a, b, b}` have 6, and three distinct
/// colours have 8. An edge of the node has a colour pair inside the target,
/// so its child pair `{x, y}` lies in a child exactly when the child's third
/// colour refines the target colour the pair leaves over: 2 children, at
/// every depth. A triangle of the node, whose colour multiset is the
/// target, has exactly one child multiset.
struct Split {
    target: ColorMultiset,
    children: [ColorMultiset; CHILDREN],
    len: usize,
    /// `masks[slot(x)][slot(y)]`: the children containing the pair `{x, y}`.
    masks: [[u8; 6]; 6],
}

impl Split {
    fn new(target: ColorMultiset) -> Split {
        let [c0, c1, c2] = target;
        let mut split = Split {
            target,
            children: [[0; 3]; CHILDREN],
            len: 0,
            masks: [[0; 6]; 6],
        };
        // Choice k refines colour i by bit 2 − i of k. Since the target is
        // sorted, the first occurrence of each distinct sorted refinement
        // comes in lexicographic order.
        for k in 0..CHILDREN {
            let refine = |c: u64, bit: usize| 2 * c - 1 + (k >> bit & 1) as u64;
            let child = sorted3([refine(c0, 2), refine(c1, 1), refine(c2, 0)]);
            if split.children().contains(&child) {
                continue;
            }
            let bit = 1u8 << split.len;
            for (a, b) in [(0, 1), (0, 2), (1, 2)] {
                let (x, y) = (split.slot(child[a]), split.slot(child[b]));
                split.masks[x][y] |= bit;
                split.masks[y][x] |= bit;
            }
            split.children[split.len] = child;
            split.len += 1;
        }
        split
    }

    /// The table slot of child colour `x`: two slots per distinct target
    /// colour, for its two refinements.
    fn slot(&self, x: u64) -> usize {
        let parent = x.div_ceil(2);
        let [c0, c1, _] = self.target;
        2 * (usize::from(parent > c0) + usize::from(parent > c1)) + usize::from(x.is_multiple_of(2))
    }

    /// The children the edge of child colours `(x, y)` is routed to.
    fn mask(&self, x: u64, y: u64) -> u32 {
        u32::from(self.masks[self.slot(x)][self.slot(y)])
    }

    fn children(&self) -> &[ColorMultiset] {
        &self.children[..self.len]
    }
}

/// A Misra–Gries heavy-hitter summary of a subproblem's endpoint stream
/// (each edge contributes both endpoints, so a vertex's frequency is its
/// local degree).
///
/// With [`MAX_LOCAL_HIGH_DEGREE`] counters, every vertex whose degree
/// exceeds `1/17` of the stream is guaranteed a counter, and a local
/// high-degree vertex has degree ≥ E/8 = `1/16` of the stream — so the
/// summary provably contains every vertex step 1 must process. Counters are
/// lower bounds; `decrements` bounds the error (`count ≤ degree ≤ count +
/// decrements`), and since `decrements ≤ stream/17 < E/8`, a vertex *not*
/// in the summary can never be high-degree.
#[derive(Default)]
struct HeavyHitters {
    keys: [VertexId; MAX_LOCAL_HIGH_DEGREE],
    counts: [u64; MAX_LOCAL_HIGH_DEGREE],
    /// Bit `i` set: slot `i` holds a key with a non-zero counter.
    occupied: u32,
    decrements: u64,
}

impl HeavyHitters {
    /// In-core footprint in words (for gauge accounting).
    const WORDS: u64 = 2 * MAX_LOCAL_HIGH_DEGREE as u64 + 1;

    /// One Misra–Gries update. The lookup compares `v` with all 16 keys
    /// into one bit mask, and the decrement pass rebuilds the occupied mask
    /// from all 16 counters, so neither loop branches per slot. A counter
    /// that reaches zero frees its slot in place, so the summary defines the
    /// multiset of `(vertex, counter)` pairs, not their order.
    fn feed(&mut self, v: VertexId) {
        let mut equal = 0u32;
        for (i, &key) in self.keys.iter().enumerate() {
            equal |= u32::from(key == v) << i;
        }
        let hit = equal & self.occupied;
        let free = self.occupied.trailing_ones() as usize;
        if hit != 0 {
            self.counts[hit.trailing_zeros() as usize] += 1;
        } else if free < MAX_LOCAL_HIGH_DEGREE {
            self.keys[free] = v;
            self.counts[free] = 1;
            self.occupied |= 1 << free;
        } else {
            // Every slot is occupied: decrement every counter.
            self.decrements += 1;
            let mut occupied = 0u32;
            for (i, n) in self.counts.iter_mut().enumerate() {
                *n -= 1;
                occupied |= u32::from(*n != 0) << i;
            }
            self.occupied = occupied;
        }
    }

    /// The tracked `(vertex, counter)` pairs.
    fn counters(&self) -> impl Iterator<Item = (VertexId, u64)> + '_ {
        self.keys
            .iter()
            .copied()
            .zip(self.counts.iter().copied())
            .filter(|&(_, n)| n != 0)
    }

    fn feed_edge(&mut self, e: &Edge) {
        self.feed(e.u);
        self.feed(e.v);
    }

    /// Summary of a whole edge stream (used at the root, which has no parent
    /// sweep to piggyback on). One charged scan.
    fn of_stream(machine: &Machine, edges: impl Iterator<Item = Edge>) -> Self {
        let _lease = machine.gauge().lease(Self::WORDS);
        let mut hh = Self::default();
        for e in edges {
            machine.work(1);
            hh.feed_edge(&e);
        }
        hh
    }

    /// The candidates that *could* have degree ≥ `e_here`/8 given the
    /// counter error — every true high-degree vertex is among them, and an
    /// empty result proves the high-degree set empty without any further
    /// scan.
    fn possible_high(&self, e_here: usize) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = self
            .counters()
            .filter(|&(_, n)| 8 * (n + self.decrements) >= e_here as u64)
            .map(|(v, _)| v)
            .collect();
        out.sort_unstable(); // emlint: allow(uncharged-std, reason = "O(1)-bounded candidate list; negligible next to the charged scan that fed the summary")
        out
    }
}

struct CoContext<'a> {
    sink: &'a mut dyn TriangleSink,
    emitted: u64,
    depth_limit: usize,
    stats: CacheObliviousStats,
    /// The unit→worker assignment of a sharded run; a solo cursor (every
    /// claim succeeds, pure counter ticks) on sequential runs.
    shard: &'a mut ShardCursor,
}

/// Statistics of a cache-oblivious run (besides the emitted count).
#[derive(Debug, Clone, Default)]
pub(crate) struct CacheObliviousStats {
    /// Number of multi-way partition sweeps performed: one per internal node.
    pub partition_sweeps: u64,
    /// One row per tree depth, root first.
    pub depths: Vec<DepthRow>,
}

/// The count profile of one depth of the refinement tree. Reading it costs
/// nothing: the rows are host-side tallies, and `io` is read off the
/// machine's counters around each node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct DepthRow {
    /// Nodes popped at this depth (dead and unowned ones included).
    pub nodes: u64,
    /// Edges those nodes received.
    pub edges_in: u64,
    /// Edges this depth's routing scans read, after high-degree removal.
    /// Each is copied into exactly two children, so the next depth's
    /// `edges_in` is twice this.
    pub routed: u64,
    /// Blocks the nodes charged themselves, children excluded.
    pub io: u64,
}

impl CacheObliviousStats {
    /// Number of subproblems of the refinement tree solved.
    pub fn subproblems(&self) -> u64 {
        self.depths.iter().map(|row| row.nodes).sum()
    }

    /// Deepest tree level reached.
    pub fn max_depth(&self) -> usize {
        self.depths.len().saturating_sub(1)
    }

    /// The row of `depth`, grown on first use.
    fn depth_row(&mut self, depth: usize) -> &mut DepthRow {
        if self.depths.len() <= depth {
            self.depths.resize(depth + 1, DepthRow::default());
        }
        &mut self.depths[depth]
    }
}

/// Runs the cache-oblivious randomized algorithm on `graph` with the given
/// random seed under `shard`; returns the number of triangles emitted and
/// recursion statistics.
///
/// Every worker replicates the top of the refinement tree (strictly above
/// [`DEFAULT_SPAWN_DEPTH`]) — the per-level bits are a function of `seed`
/// and the level alone, so all workers expand the identical tree — and each
/// node *at* the spawn depth is one whole subtree unit processed only by its
/// owner. Leaf and high-degree emissions of the replicated top are
/// individually sharded so their triangles are emitted exactly once across
/// the pool. A solo cursor owns every unit and its claims charge nothing, so
/// the sequential run is this same code.
///
/// When `recovery.spec` is given the depth-first driver writes an atomic
/// checkpoint at each subproblem boundary that crosses the I/O interval
/// (committing the sink via [`TriangleSink::on_checkpoint`] right after each
/// write); when `recovery.resume` is given the run starts from that
/// checkpoint instead of the root — rebuilding the stack frontier by routed
/// scans of the re-sorted root and continuing the exactly-once emission
/// numbering at the checkpoint's high-water mark. With both `None` the
/// checkpoint plumbing costs nothing.
/// Sharded runs never checkpoint.
pub(crate) fn run_cache_oblivious(
    graph: &ExtGraph,
    seed: u64,
    sink: &mut dyn TriangleSink,
    recorder: &mut PhaseRecorder,
    shard: &mut ShardCursor,
    recovery: Recovery<'_>,
) -> (u64, CacheObliviousStats) {
    let Recovery { spec, resume } = recovery;
    let machine = graph.machine().clone();
    let e = graph.edge_count();
    if e < 3 {
        return (
            resume.map_or(0, |c| c.hwm),
            CacheObliviousStats {
                depths: vec![DepthRow {
                    nodes: 1,
                    edges_in: e as u64,
                    ..DepthRow::default()
                }],
                ..CacheObliviousStats::default()
            },
        );
    }
    let depth_limit = depth_limit(e);
    if let Some(ck) = resume {
        assert_eq!(
            (ck.seed, ck.edges, ck.depth_limit),
            (seed, e, depth_limit),
            "checkpoint does not describe this run (seed / edge count / depth limit mismatch)"
        );
    }

    // Root canonical edge list. The input is already sorted, which the
    // defensive sort detects in one charged scan and answers with a copy —
    // this is exactly the call site the sorted-input early exit exists for.
    let io0 = machine.io();
    let root = emalgo::oblivious_sort_by_key(graph.edges(), |e| (e.u, e.v));
    recorder.record("root_sort", io0, machine.io());

    // The per-level refinement bits: one 4-wise independent function per tree
    // depth, derived from the seed by a fixed splitmix sequence. These
    // `depth_limit` functions are the colouring's whole in-core state, leased
    // for the rest of the run.
    let _coloring_lease = machine.gauge().lease(FourWise::WORDS * depth_limit as u64);
    let mut bit_seed = seed;
    let mut coloring = RefinedColoring::identity();
    coloring.push_batch((0..depth_limit).map(|_| FourWise::new(splitmix(&mut bit_seed))));

    let mut ctx = CoContext {
        sink,
        emitted: resume.map_or(0, |c| c.hwm),
        depth_limit,
        stats: CacheObliviousStats::default(),
        shard,
    };
    let stack = match resume {
        None => vec![PendingNode {
            edges: root,
            summary: None,
            target: [1, 1, 1],
            depth: 0,
            removed: None,
        }],
        Some(ck) => {
            let io0 = machine.io();
            let stack = rebuild_stack_from_checkpoint(&coloring, &root, ck);
            drop(root);
            recorder.record("resume_rebuild", io0, machine.io());
            stack
        }
    };
    let ckpt = spec.map(|s| CheckpointCtl {
        spec: s,
        seed,
        root_edges: e,
        last_io: machine.io().total(),
    });
    let io0 = machine.io();
    drive_depth_first(&mut ctx, &machine, &coloring, stack, ckpt);
    recorder.record("recursion", io0, machine.io());
    (ctx.emitted, ctx.stats)
}

/// Whether the colour pair `{cu, cv}` of an edge's endpoints is a
/// sub-multiset of `target`: the edges a node of that target holds.
fn pair_in(cu: u64, cv: u64, target: ColorMultiset) -> bool {
    let [c0, c1, c2] = target;
    let rest = if cu == c0 {
        [c1, c2]
    } else if cu == c1 {
        [c0, c2]
    } else if cu == c2 {
        [c0, c1]
    } else {
        return false;
    };
    rest.contains(&cv)
}

/// Whether triangle `t` is proper for `target` under the depth-`depth`
/// prefix of `coloring`: its vertices' colours, as a multiset, are the
/// target. `t`'s edges lie in the node of `target`, so each vertex's colour
/// is one of the target's.
fn proper_at(
    t: &Triangle,
    coloring: &RefinedColoring,
    depth: usize,
    target: ColorMultiset,
) -> bool {
    sorted3([t.a, t.b, t.c].map(|v| coloring.resolve(v, depth, target))) == target
}

/// Resolves the exact local high-degree set from a [`HeavyHitters`] summary,
/// in ascending vertex order.
///
/// If no tracked vertex can clear the bar even with the counter error added
/// (the common case), the set is provably empty and no scan happens at all.
/// Otherwise one charged counting scan over `edges()` measures the ≤ 16
/// candidates' exact degrees.
fn resolve_high_degree<I: Iterator<Item = Edge>>(
    machine: &Machine,
    summary: &HeavyHitters,
    e_here: usize,
    edges: impl Fn() -> I,
) -> Vec<VertexId> {
    let possible = summary.possible_high(e_here);
    if possible.is_empty() {
        return Vec::new();
    }
    let _lease = machine.gauge().lease(2 * possible.len() as u64);
    let mut degrees = vec![0usize; possible.len()];
    for e in edges() {
        machine.work(1);
        if let Ok(i) = possible.binary_search(&e.u) {
            degrees[i] += 1;
        }
        if let Ok(i) = possible.binary_search(&e.v) {
            degrees[i] += 1;
        }
    }
    let high: Vec<VertexId> = possible
        .into_iter()
        .zip(degrees)
        .filter(|&(_, d)| 8 * d >= e_here)
        .map(|(v, _)| v)
        .collect();
    debug_assert!(high.len() <= MAX_LOCAL_HIGH_DEGREE);
    high
}

/// Step 1 of one subproblem: Lemma 1 over the local high-degree vertices,
/// emitting the proper triangles through each and removing its edges before
/// the next. Returns the list with every `high` vertex's edges removed.
fn enumerate_high_degree(
    ctx: &mut CoContext<'_>,
    mut edges: ExtVec<Edge>,
    high: &[VertexId],
    coloring: &RefinedColoring,
    depth: usize,
    target: ColorMultiset,
) -> ExtVec<Edge> {
    let mut enumerated_all = true;
    for &v in high {
        let emitted = enumerate_through_vertex(
            &edges,
            v,
            SortKind::Oblivious,
            |t| proper_at(&t, coloring, depth, target),
            ctx.sink,
        );
        ctx.emitted += emitted;
        // Remove the vertex's edges so no later step sees them again.
        edges = remove_incident_edges(&edges, &[v]);
        if edges.len() < 3 {
            enumerated_all = false;
            break;
        }
    }
    if !enumerated_all {
        // The loop stopped early; the remaining high vertices cannot close
        // any more proper triangles among < 3 edges, but their edges must
        // still be excluded from the children.
        edges = remove_incident_edges(&edges, high);
    }
    edges
}

/// Whether a node of `edges` edges at `depth` routes (runs step 1 and
/// splits) rather than closing as a leaf: in core at most
/// [`BASE_CASE_EDGES`] edges, or oversized at the depth limit.
fn routes(edges: usize, depth: usize, depth_limit: usize) -> bool {
    edges > BASE_CASE_EDGES && depth < depth_limit
}

/// Constant-size base case, entirely in core: the sorted edge list is leased
/// onto the memory gauge, every vertex's out-neighbour run yields its
/// wedges, and each wedge is closed by binary search in the list itself. No
/// wedge file, no sort — the only I/O is the one charged read of the
/// segment.
fn solve_leaf_in_core(
    segment: &ExtVec<Edge>,
    mut filter: impl FnMut(Triangle) -> bool,
    sink: &mut dyn TriangleSink,
) -> u64 {
    let machine = segment.machine();
    let _lease = machine.gauge().lease(segment.len() as u64);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(segment.len());
    for e in segment.iter() {
        machine.work(1);
        edges.push((e.u, e.v));
    }
    debug_assert!(edges.windows(2).all(|w| w[0] <= w[1]));
    let probe_cost = 1 + edges.len().max(2).ilog2() as u64;
    let mut emitted = 0u64;
    let mut i = 0;
    while i < edges.len() {
        let u = edges[i].0;
        let mut j = i;
        while j < edges.len() && edges[j].0 == u {
            j += 1;
        }
        for x in i..j {
            for y in (x + 1)..j {
                // A wedge v–u–w closes a triangle iff {v, w} is an edge.
                machine.work(probe_cost);
                let (v, w) = (edges[x].1.min(edges[y].1), edges[x].1.max(edges[y].1));
                if edges.binary_search(&(v, w)).is_ok() {
                    let t = Triangle::new(u, v, w);
                    if filter(t) {
                        sink.emit(t);
                        emitted += 1;
                    }
                }
            }
        }
        i = j;
    }
    emitted
}

// ---------------------------------------------------------------------------
// The depth-first driver: an explicit subproblem stack.
// ---------------------------------------------------------------------------

/// The set of vertices removed by high-degree enumeration at one node, linked
/// to the ancestor sets above it. Shared (`Rc`) by all the children so the
/// per-frame cost stays `O(1)` words; removal sets at different levels are
/// disjoint (a removed vertex has no edges left below its removal level), so
/// the flattened union needs no dedup.
struct RemovedSet {
    /// Ascending vertex ids removed at this node.
    vertices: Vec<VertexId>,
    parent: Option<Rc<RemovedSet>>,
}

/// Flattens a node's ancestor chain of removal sets into one sorted list —
/// the form [`NodeDescriptor`] persists and the resume filter scans against.
fn flatten_removed(removed: &Option<Rc<RemovedSet>>) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::new();
    let mut cur = removed.as_ref();
    while let Some(set) = cur {
        out.extend_from_slice(&set.vertices);
        cur = set.parent.as_ref();
    }
    out.sort_unstable(); // emlint: allow(uncharged-std, reason = "O(16·depth)-bounded checkpoint descriptor scratch")
    out
}

/// A pending subproblem of the explicit depth-first stack: its edge list,
/// colour multiset and depth, the heavy-hitter summary step 1 starts from,
/// and the removal chain a checkpoint descriptor needs.
struct PendingNode {
    edges: ExtVec<Edge>,
    /// Heavy-hitter summary fed by the scan that built the edge list (the
    /// parent's routing scan, or the rebuild scan of a resumed run), with
    /// its own [`HeavyHitters::WORDS`]-word gauge lease, which ends when
    /// [`process_node`] returns for this node. `None` for a leaf-bound node
    /// (it never reaches step 1) and at the root, which pays one summary
    /// scan instead.
    summary: Option<(HeavyHitters, MemLease)>,
    target: ColorMultiset,
    depth: usize,
    removed: Option<Rc<RemovedSet>>,
}

/// Live checkpointing state of a run with a [`CheckpointSpec`] armed.
struct CheckpointCtl<'a> {
    spec: &'a CheckpointSpec,
    seed: u64,
    root_edges: usize,
    /// Simulated I/O total at the last checkpoint.
    last_io: u64,
}

/// Writes a checkpoint if the I/O interval has elapsed (the driver calls it
/// between nodes, so checkpoints land on subproblem boundaries). The sink is
/// committed via [`TriangleSink::on_checkpoint`] only *after* the atomic
/// file replace succeeds, so the persisted high-water mark never runs ahead
/// of the durably delivered triangles.
fn maybe_checkpoint(
    ctx: &mut CoContext<'_>,
    machine: &Machine,
    stack: &[PendingNode],
    ctl: &mut CheckpointCtl<'_>,
) {
    if machine.io().total().saturating_sub(ctl.last_io) < ctl.spec.interval_io {
        return;
    }
    let checkpoint = Checkpoint {
        version: CHECKPOINT_VERSION,
        seed: ctl.seed,
        edges: ctl.root_edges,
        depth_limit: ctx.depth_limit,
        hwm: ctx.emitted,
        frontier: stack
            .iter()
            .map(|node| NodeDescriptor {
                depth: node.depth,
                target: node.target,
                removed: flatten_removed(&node.removed),
            })
            .collect(),
    };
    checkpoint.write_atomic(&ctl.spec.path).unwrap_or_else(|e| {
        panic!(
            "failed to write checkpoint {}: {e}",
            ctl.spec.path.display()
        )
    });
    ctx.sink.on_checkpoint();
    ctl.last_io = machine.io().total();
}

/// Rebuilds the driver stack persisted in `checkpoint` by routed scans of
/// the re-sorted root, one bucket per frontier descriptor and up to
/// [`emalgo::MAX_PARTITION_BUCKETS`] descriptors per scan. Compatibility is
/// hereditary and both removal and routing preserve the root's `(u, v)`
/// order, so each bucket is the exact list the crashed run held. Each
/// bucket's heavy-hitter summary is fed en passant, as routing does, so a
/// rebuilt node that routes pays no summary scan of its own.
fn rebuild_stack_from_checkpoint(
    coloring: &RefinedColoring,
    root: &ExtVec<Edge>,
    checkpoint: &Checkpoint,
) -> Vec<PendingNode> {
    let machine = root.machine();
    let mut stack = Vec::with_capacity(checkpoint.frontier.len());
    for group in checkpoint.frontier.chunks(emalgo::MAX_PARTITION_BUCKETS) {
        let scan_lease = machine
            .gauge()
            .lease(group.len() as u64 * HeavyHitters::WORDS);
        let mut summaries: [HeavyHitters; emalgo::MAX_PARTITION_BUCKETS] =
            std::array::from_fn(|_| HeavyHitters::default());
        let buckets = route_frontier(coloring, root, group, |i, e| summaries[i].feed_edge(e));
        drop(scan_lease);
        for ((edges, desc), summary) in buckets.into_iter().zip(group).zip(summaries) {
            let removed = (!desc.removed.is_empty()).then(|| {
                Rc::new(RemovedSet {
                    vertices: desc.removed.clone(),
                    parent: None,
                })
            });
            let will_route = routes(edges.len(), desc.depth, checkpoint.depth_limit);
            stack.push(PendingNode {
                edges,
                summary: will_route.then(|| (summary, machine.gauge().lease(HeavyHitters::WORDS))),
                target: desc.target,
                depth: desc.depth,
                removed,
            });
        }
    }
    stack
}

/// One order-preserving routed scan of the root into one bucket per
/// descriptor of `group` (at most [`emalgo::MAX_PARTITION_BUCKETS`]): an
/// edge goes to each descriptor whose target holds its colour pair at the
/// descriptor's depth and none of whose removed vertices it touches, and
/// `feed(i, e)` sees every edge bucket `i` keeps. One
/// [`RefinedColoring::color_at`] per endpoint at the group's deepest depth
/// gives every shallower prefix colour: `ξ_d − 1` is `ξ_D − 1` shifted right
/// by `D − d` bits.
fn route_frontier(
    coloring: &RefinedColoring,
    root: &ExtVec<Edge>,
    group: &[NodeDescriptor],
    mut feed: impl FnMut(usize, &Edge),
) -> Vec<ExtVec<Edge>> {
    let deepest = group.iter().map(|d| d.depth).max().unwrap_or(0);
    let prefix = |c: u64, depth: usize| ((c - 1) >> (deepest - depth)) + 1;
    let mut prev_u = None;
    let mut cu = 0;
    emalgo::scan_partition(root, group.len(), |e: &Edge| {
        if prev_u != Some(e.u) {
            cu = coloring.color_at(e.u, deepest);
            prev_u = Some(e.u);
        }
        let cv = coloring.color_at(e.v, deepest);
        let mut mask = 0u32;
        for (i, desc) in group.iter().enumerate() {
            if pair_in(prefix(cu, desc.depth), prefix(cv, desc.depth), desc.target)
                && desc.removed.binary_search(&e.u).is_err()
                && desc.removed.binary_search(&e.v).is_err()
            {
                mask |= 1 << i;
                feed(i, e);
            }
        }
        mask
    })
}

/// The driver loop: offer a checkpoint, pop the top node, process it (which
/// pushes its children last-child-first, so child 0 runs next). The stack
/// holds pending nodes only; every gauge lease a node carries ends inside
/// its own [`process_node`] call.
fn drive_depth_first(
    ctx: &mut CoContext<'_>,
    machine: &Machine,
    coloring: &RefinedColoring,
    mut stack: Vec<PendingNode>,
    mut ckpt: Option<CheckpointCtl<'_>>,
) {
    while !stack.is_empty() {
        if let Some(ctl) = ckpt.as_mut() {
            maybe_checkpoint(ctx, machine, &stack, ctl);
        }
        let node = stack.pop().expect("loop guard: stack is non-empty");
        let (depth, edges_in) = (node.depth, node.edges.len() as u64);
        let io0 = machine.io().total();
        process_node(ctx, machine, coloring, node, &mut stack);
        let row = ctx.stats.depth_row(depth);
        row.nodes += 1;
        row.edges_in += edges_in;
        row.io += machine.io().total() - io0;
    }
}

/// Processes one pending subproblem: a leaf is closed in place; an internal
/// node runs step 1, then routes its edges into its children and
/// pushes them. The inherited summary's lease ends when this returns.
fn process_node(
    ctx: &mut CoContext<'_>,
    machine: &Machine,
    coloring: &RefinedColoring,
    node: PendingNode,
    stack: &mut Vec<PendingNode>,
) {
    let PendingNode {
        edges,
        summary,
        target,
        depth,
        removed,
    } = node;
    let (inherited, _summary_lease) = summary.unzip();
    let e_here = edges.len();
    if e_here < 3 {
        return;
    }
    // A node *at* the spawn depth is one whole subtree work unit: its owner
    // processes it and everything below (descendants sit beyond the spawn
    // depth and are never gated — they exist only on the owner's stack);
    // every other worker drops it here, before any charged access. Dead
    // nodes (< 3 edges) return above on every worker alike, so the claim
    // stream stays aligned across the pool. On sequential runs the solo
    // cursor owns every claim.
    if depth == DEFAULT_SPAWN_DEPTH
        && !ctx
            .shard
            .claim(WorkUnitKind::RefinementSubtree { depth, target })
    {
        return;
    }
    // Strictly above the spawn depth the tree is replicated on every worker,
    // and the *emissions* (leaves, oversized leaves, high-degree Lemma 1
    // passes) are individually sharded so each triangle is emitted exactly
    // once across the pool.
    let gated = depth < DEFAULT_SPAWN_DEPTH;
    // A leaf — in-core (constant-size) or an oversized one at the depth
    // limit — is one emission unit, closed in place.
    if !routes(e_here, depth, ctx.depth_limit) {
        if gated
            && !ctx
                .shard
                .claim(WorkUnitKind::RefinementLeaf { depth, target })
        {
            return;
        }
        let proper = |t: Triangle| proper_at(&t, coloring, depth, target);
        ctx.emitted += if e_here <= BASE_CASE_EDGES {
            solve_leaf_in_core(&edges, proper, ctx.sink)
        } else {
            sort_based_enumeration(&edges, SortKind::Oblivious, proper, ctx.sink)
        };
        return;
    }

    // ---- Step 1: local high-degree vertices. ----
    // Below the root the scan that built this node's list already built its
    // heavy-hitter summary; only the root pays for its own summary scan.
    let summary = inherited.unwrap_or_else(|| HeavyHitters::of_stream(machine, edges.iter()));
    let high = resolve_high_degree(machine, &summary, e_here, || edges.iter());

    let mut current = edges;
    let mut removed = removed;
    if !high.is_empty() {
        // On a replicated node the Lemma 1 enumeration is one work unit; the
        // other workers must still strip the high-degree vertices' edges —
        // [`enumerate_high_degree`] returns exactly the incident-removal of
        // its input, so every worker descends with the identical edge list.
        if !gated
            || ctx
                .shard
                .claim(WorkUnitKind::RefinementHighDegree { depth, target })
        {
            current = enumerate_high_degree(ctx, current, &high, coloring, depth, target);
        } else {
            current = remove_incident_edges(&current, &high);
        }
        removed = Some(Rc::new(RemovedSet {
            vertices: high,
            parent: removed,
        }));
        if current.len() < 3 {
            return;
        }
    }

    // ---- Steps 2–3: all children in one routing scan (this node's own
    // partition sweep), child degree summaries fed en passant. ----
    ctx.stats.partition_sweeps += 1;
    ctx.stats.depth_row(depth).routed += current.len() as u64;
    let split = Split::new(target);
    let children = split.children();
    // The scan fills every child's summary at once; afterwards each child
    // that routes carries its own summary and lease.
    let scan_lease = machine
        .gauge()
        .lease(children.len() as u64 * HeavyHitters::WORDS);
    let mut summaries: [HeavyHitters; CHILDREN] = Default::default();
    let buckets = {
        let summaries = &mut summaries;
        let split = &split;
        let mut prev: Option<Edge> = None;
        let mut cu = 0;
        emalgo::scan_partition(&current, children.len(), move |e: &Edge| {
            // The one-scan sortedness debug-assert: children must inherit
            // the parent's (u, v) order, checked inline at zero extra I/O.
            debug_assert!(
                prev.is_none_or(|p| p <= *e),
                "edge segment lost its inherited sort order"
            );
            // See "Colour resolution" in the module docs. The smaller
            // endpoint's colour is resolved once per (u, v)-sorted run.
            if prev.is_none_or(|p| p.u != e.u) {
                cu = coloring.resolve_child(e.u, depth, target);
            }
            prev = Some(*e);
            let cv = coloring.resolve_child(e.v, depth, target);
            let mask = split.mask(cu, cv);
            debug_assert_eq!(mask.count_ones(), 2, "{e:?} under {target:?}");
            let mut rest = mask;
            while rest != 0 {
                summaries[rest.trailing_zeros() as usize].feed_edge(e);
                rest &= rest - 1;
            }
            mask
        })
    };
    drop(current);
    drop(scan_lease);

    for ((bucket, &child_target), summary) in buckets
        .into_iter()
        .zip(children.iter())
        .zip(summaries)
        .rev()
    {
        // A leaf-bound child never reads its summary, so it holds no lease
        // while it is pending.
        let will_route = routes(bucket.len(), depth + 1, ctx.depth_limit);
        stack.push(PendingNode {
            edges: bucket,
            summary: will_route.then(|| (summary, machine.gauge().lease(HeavyHitters::WORDS))),
            target: child_target,
            depth: depth + 1,
            removed: removed.clone(),
        });
    }
}

/// A small deterministic seed sequence (splitmix64) so one user-supplied seed
/// drives the whole per-level bit schedule reproducibly.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::StrictSink;
    use emsim::{EmConfig, Machine};
    use graphgen::{generators, naive};
    use kwise::BitFunctionFamily;

    /// The depth caps the oracle and resume tests run under: the natural
    /// limit, then limits that stop the tree at depth 1 (above
    /// [`DEFAULT_SPAWN_DEPTH`]) and at depth 2 (at it). Each depth copies
    /// every edge twice, so a depth-1 node holds about 2E/4 = E/2 edges and
    /// a depth-2 node about 4E/20 = E/5; on the inputs below (E ≥ 1 400)
    /// both capped runs close leaves above [`BASE_CASE_EDGES`].
    const CAPS: [Option<usize>; 3] = [None, Some(1), Some(2)];

    fn run(g: &graphgen::Graph, cfg: EmConfig, seed: u64) -> (u64, u64, CacheObliviousStats) {
        let machine = Machine::new(cfg);
        let eg = ExtGraph::load(&machine, g);
        machine.cold_cache();
        let before = machine.io().total();
        let mut sink = StrictSink::new();
        let mut rec = PhaseRecorder::new(machine.gauge());
        let (n, stats) = run_cache_oblivious(
            &eg,
            seed,
            &mut sink,
            &mut rec,
            &mut ShardCursor::solo(),
            Recovery::default(),
        );
        assert_eq!(machine.gauge().in_use(), 0, "no lease survives the run");
        (n, machine.io().total() - before, stats)
    }

    #[test]
    fn counts_match_oracle_on_er_graphs() {
        for seed in [3u64, 12] {
            let g = generators::erdos_renyi(160, 1400, seed);
            let expected = naive::count_triangles(&g);
            for cap in CAPS {
                let (got, _, stats) =
                    with_depth_cap(cap, || run(&g, EmConfig::new(1 << 9, 32), seed));
                assert_eq!(got, expected, "seed {seed}, cap {cap:?}");
                assert!(stats.subproblems() > 1);
                assert!(stats.max_depth() <= cap.unwrap_or(usize::MAX));
            }
        }
    }

    #[test]
    fn counts_match_oracle_on_structured_graphs() {
        // A skewed graph with hubs, large enough (E ≥ 1 000) for the capped
        // runs to close oversized leaves.
        let power_law = generators::chung_lu_power_law(600, 2400, 2.3, 4);
        assert!(power_law.edge_count() >= 1_000, "grow the power-law graph");
        let power_law_triangles = naive::count_triangles(&power_law);
        assert!(power_law_triangles > 0);
        let cases = [
            ("K20", generators::clique(20), 1140, 1),
            ("star", generators::star(200), 0, 1),
            // K10 plus a 260-edge path: 305 edges, above BASE_CASE_EDGES,
            // so the root routes instead of being one in-core leaf.
            ("lollipop", generators::lollipop(10, 260), 120, 2),
            ("power law", power_law, power_law_triangles, 5),
        ];
        for (name, g, expected, seed) in &cases {
            for cap in CAPS {
                let (got, _, stats) = with_depth_cap(cap, || run(g, EmConfig::new(256, 32), *seed));
                assert_eq!(got, *expected, "{name}, cap {cap:?}");
                if *name == "lollipop" {
                    assert!(stats.partition_sweeps >= 1, "the lollipop must route");
                }
            }
        }
    }

    #[test]
    fn sharded_workers_close_capped_oversized_leaves_exactly_once() {
        // Cap 1 stops the tree above the spawn depth, where each oversized
        // leaf is its own claimed unit; cap 2 stops it at the spawn depth,
        // where the leaf belongs to the owner of its subtree unit. The cap
        // is thread-local, so the workers run one after another here.
        use crate::sink::CollectingSink;
        let g = generators::erdos_renyi(160, 1400, 8);
        let expected: std::collections::HashSet<Triangle> =
            naive::enumerate_triangles(&g).into_iter().collect();
        for cap in [1, 2] {
            for workers in [2, 3] {
                let mut all: Vec<Triangle> = Vec::new();
                for worker in 0..workers {
                    let emitted = with_depth_cap(Some(cap), || {
                        let machine = Machine::new(EmConfig::new(1 << 9, 32));
                        let eg = ExtGraph::load(&machine, &g);
                        let mut sink = CollectingSink::new();
                        let mut rec = PhaseRecorder::new(machine.gauge());
                        let (n, _) = run_cache_oblivious(
                            &eg,
                            5,
                            &mut sink,
                            &mut rec,
                            &mut ShardCursor::new(worker, workers, false),
                            Recovery::default(),
                        );
                        assert_eq!(machine.gauge().in_use(), 0);
                        assert_eq!(n, sink.len() as u64);
                        sink.into_triangles()
                            .into_iter()
                            .map(|t| eg.translate(t))
                            .collect::<Vec<_>>()
                    });
                    assert!(
                        !emitted.is_empty(),
                        "cap {cap}, P = {workers}: worker {worker} owns no emitting unit"
                    );
                    all.extend(emitted);
                }
                let got: std::collections::HashSet<Triangle> = all.iter().copied().collect();
                assert_eq!(got.len(), all.len(), "cap {cap}, P = {workers}: duplicates");
                assert_eq!(got, expected, "cap {cap}, P = {workers}");
            }
        }
    }

    #[test]
    fn different_seeds_agree_on_the_count() {
        let g = generators::erdos_renyi(100, 800, 5);
        let expected = naive::count_triangles(&g);
        for seed in 0..4u64 {
            let (got, _, _) = run(&g, EmConfig::new(512, 32), seed);
            assert_eq!(got, expected, "seed {seed}");
        }
    }

    #[test]
    fn more_memory_reduces_ios_without_any_code_awareness() {
        // The defining property of cache-obliviousness: the same run on a
        // machine with more internal memory performs fewer block transfers,
        // even though the algorithm never inspects M.
        let g = generators::erdos_renyi(300, 3000, 9);
        let (_, io_small, _) = run(&g, EmConfig::new(256, 32), 7);
        let (_, io_large, _) = run(&g, EmConfig::new(1 << 13, 32), 7);
        assert!(
            io_large * 2 < io_small,
            "expected fewer I/Os with 32x memory (small={io_small}, large={io_large})"
        );
    }

    #[test]
    fn recursion_depth_is_bounded_by_log4_e() {
        let g = generators::erdos_renyi(200, 1600, 3);
        let (_, _, stats) = run(&g, EmConfig::new(512, 32), 11);
        let limit = ((1600f64).ln() / 4f64.ln()).ceil() as usize;
        assert!(stats.max_depth() <= limit);
    }

    #[test]
    fn heavy_hitter_summary_is_exact_for_high_degree_detection() {
        // A planted hub among noise: the summary must surface the hub, the
        // verification scan must measure it exactly, and a hubless stream
        // must prove emptiness without any candidates.
        let machine = Machine::new(EmConfig::new(1 << 12, 64));
        let mut edges: Vec<Edge> = Vec::new();
        for i in 0..40u32 {
            edges.push(Edge::new(1000, 2000 + i)); // hub of degree 40
        }
        for i in 0..160u32 {
            edges.push(Edge::new(2 * i, 10_000 + i)); // 160 degree-1 pairs
        }
        edges.sort_unstable();
        let e_here = edges.len(); // 200 edges; threshold deg >= 25
        let v = ExtVec::from_slice(&machine, &edges);
        let summary = HeavyHitters::of_stream(&machine, v.iter());
        assert!(
            summary.possible_high(e_here).contains(&1000),
            "the hub must be tracked"
        );
        let high = resolve_high_degree(&machine, &summary, e_here, || v.iter());
        assert_eq!(high, vec![1000]);

        // Remove the hub: no candidate survives the error-adjusted bar, so
        // the set resolves empty (and in the common case without any scan).
        let quiet: Vec<Edge> = edges.iter().copied().filter(|e| e.u != 1000).collect();
        let vq = ExtVec::from_slice(&machine, &quiet);
        let sq = HeavyHitters::of_stream(&machine, vq.iter());
        let high = resolve_high_degree(&machine, &sq, quiet.len(), || vq.iter());
        assert!(high.is_empty());
    }

    /// The reference compatibility filter: whether `e`'s colour pair under
    /// the full depth of `coloring` lies in `target`.
    fn compatible(e: &Edge, coloring: &RefinedColoring, target: ColorMultiset) -> bool {
        pair_in(coloring.color(e.u), coloring.color(e.v), target)
    }

    /// The reference frontier rebuild: one filter scan of `root` per
    /// descriptor, with every colour from [`RefinedColoring::color_at`] at
    /// the descriptor's own depth.
    fn reconstruct_edges(
        coloring: &RefinedColoring,
        root: &ExtVec<Edge>,
        desc: &NodeDescriptor,
    ) -> ExtVec<Edge> {
        let removed = &desc.removed;
        emalgo::scan_filter(root, |e| {
            pair_in(
                coloring.color_at(e.u, desc.depth),
                coloring.color_at(e.v, desc.depth),
                desc.target,
            ) && removed.binary_search(&e.u).is_err()
                && removed.binary_search(&e.v).is_err()
        })
    }

    #[test]
    fn partition_routing_agrees_with_per_child_compatibility_filters() {
        // The single-pass router must produce, for every child multiset,
        // exactly the edges a per-child compatibility filter keeps.
        let g = generators::erdos_renyi(80, 400, 4);
        let machine = Machine::new(EmConfig::new(1 << 12, 64));
        let eg = ExtGraph::load(&machine, &g);
        let edges = emalgo::oblivious_sort_by_key(eg.edges(), |e| (e.u, e.v));

        let fam = BitFunctionFamily::new(1, 99);
        let mut coloring = RefinedColoring::identity();
        coloring.push(fam.function(0));

        let split = Split::new([1, 1, 1]);
        assert_eq!(
            split.children(),
            [[1, 1, 1], [1, 1, 2], [1, 2, 2], [2, 2, 2]]
        );
        let coloring_ref = &coloring;
        let buckets = emalgo::scan_partition(&edges, split.len, |e: &Edge| {
            let mask = split.mask(coloring_ref.color(e.u), coloring_ref.color(e.v));
            assert_eq!(mask.count_ones(), 2);
            mask
        });
        for (i, bucket) in buckets.iter().enumerate() {
            let child = split.children()[i];
            let expected = emalgo::scan_filter(&edges, |e| compatible(e, coloring_ref, child));
            assert_eq!(bucket.load_all(), expected.load_all(), "child {i}");
            // Sortedness is inherited by every bucket.
            assert!(emalgo::is_sorted_by_key(bucket, |e| (e.u, e.v)));
        }
    }

    #[test]
    fn splits_have_four_six_or_eight_children_in_lexicographic_order() {
        // Every sorted target over the depth-3 colours 1..=8.
        for target in
            (1..=8u64).flat_map(|a| (a..=8).flat_map(move |b| (b..=8).map(move |c| [a, b, c])))
        {
            let split = Split::new(target);
            let children = match (target[0] == target[1], target[1] == target[2]) {
                (true, true) => 4,
                (false, false) => 8,
                _ => 6,
            };
            assert_eq!(split.children().len(), children, "{target:?}");
            assert!(
                split.children().windows(2).all(|w| w[0] < w[1]),
                "{target:?}"
            );
            for child in split.children() {
                assert!(child.is_sorted());
                assert_eq!(sorted3(child.map(|z| z.div_ceil(2))), target);
            }
        }
        assert_eq!(
            Split::new([1, 2, 2]).children(),
            [
                [1, 3, 3],
                [1, 3, 4],
                [1, 4, 4],
                [2, 3, 3],
                [2, 3, 4],
                [2, 4, 4]
            ]
        );
    }

    proptest::proptest! {
        #[test]
        fn every_edge_routes_to_two_children_and_every_triangle_to_one(
            colours in (1u64..9, 1u64..9, 1u64..9),
            refine in (0u64..2, 0u64..2, 0u64..2),
        ) {
            // A target over the depth-3 colours 1..=8, and a triangle whose
            // vertices take its colours and refine them by `refine`.
            let target = sorted3([colours.0, colours.1, colours.2]);
            let refine = [refine.0, refine.1, refine.2];
            let split = Split::new(target);
            let child_colours: [u64; 3] =
                std::array::from_fn(|i| 2 * target[i] - 1 + refine[i]);
            // The triangle's child multiset names exactly one child.
            let mine = sorted3(child_colours);
            let named: Vec<usize> = (0..split.len)
                .filter(|&i| split.children()[i] == mine)
                .collect();
            proptest::prop_assert_eq!(named.len(), 1);
            // Each of its edges routes to exactly two children, one of them
            // the triangle's own.
            for (a, b) in [(0, 1), (0, 2), (1, 2)] {
                let (x, y) = (child_colours[a], child_colours[b]);
                for mask in [split.mask(x, y), split.mask(y, x)] {
                    proptest::prop_assert_eq!(mask.count_ones(), 2);
                    proptest::prop_assert!(mask & 1 << named[0] != 0);
                    for i in 0..split.len {
                        let held = pair_in(x, y, split.children()[i]);
                        proptest::prop_assert_eq!(mask & 1 << i != 0, held);
                    }
                }
            }
        }
    }

    #[test]
    fn frontier_routing_matches_one_filter_scan_per_descriptor() {
        // A frontier at mixed depths, some with removed vertices, more than
        // one scan's worth of descriptors: every bucket of the routed
        // rebuild must be byte-identical to the filter scan it replaces,
        // and its summary must be the one a scan of the bucket builds.
        let g = generators::erdos_renyi(120, 900, 6);
        let machine = Machine::new(EmConfig::new(1 << 10, 32));
        let eg = ExtGraph::load(&machine, &g);
        let root = emalgo::oblivious_sort_by_key(eg.edges(), |e| (e.u, e.v));
        let fam = BitFunctionFamily::new(3, 5);
        let mut coloring = RefinedColoring::identity();
        coloring.push_batch((0..3).map(|i| fam.function(i)));
        let mut frontier = Vec::new();
        for depth in 0..=3usize {
            let top = 1u64 << depth;
            for c0 in 1..=top {
                for c1 in c0..=top {
                    for c2 in c1..=top {
                        let removed = if (c0 + c1 + c2) % 3 == 0 {
                            vec![1, 7, 40]
                        } else {
                            vec![]
                        };
                        frontier.push(NodeDescriptor {
                            depth,
                            target: [c0, c1, c2],
                            removed,
                        });
                    }
                }
            }
        }
        assert!(frontier.len() > emalgo::MAX_PARTITION_BUCKETS);
        let checkpoint = Checkpoint {
            version: CHECKPOINT_VERSION,
            seed: 0,
            edges: root.len(),
            depth_limit: 3,
            hwm: 0,
            frontier: frontier.clone(),
        };
        let stack = rebuild_stack_from_checkpoint(&coloring, &root, &checkpoint);
        assert_eq!(stack.len(), frontier.len());
        for (node, desc) in stack.iter().zip(&frontier) {
            let expected = reconstruct_edges(&coloring, &root, desc);
            assert_eq!(node.edges.load_all(), expected.load_all(), "{desc:?}");
            assert_eq!((node.depth, node.target), (desc.depth, desc.target));
            let will_route = routes(node.edges.len(), desc.depth, 3);
            assert_eq!(node.summary.is_some(), will_route, "{desc:?}");
            if let Some((summary, _)) = &node.summary {
                let rescanned = HeavyHitters::of_stream(&machine, expected.iter());
                let mut got: Vec<_> = summary.counters().collect();
                let mut want: Vec<_> = rescanned.counters().collect();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "{desc:?}");
            }
        }
        assert!(
            stack.iter().any(|n| n.summary.is_some()),
            "some node routes"
        );
    }

    #[test]
    fn clique16_sits_exactly_on_the_high_degree_boundary() {
        // K16: E = 120, every vertex has degree 15 and 8·15 = 120 ≥ E, so all
        // 16 vertices are local high-degree — the maximum the invariant
        // allows, and only reachable at E ≤ C(16, 2) = 120 (see
        // MAX_LOCAL_HIGH_DEGREE). A whole run therefore never reaches step 1
        // on it: K16 is one in-core leaf.
        let g = generators::clique(16);
        assert!(g.edge_count() <= BASE_CASE_EDGES);
        let (got, _, stats) = run(&g, EmConfig::new(256, 32), 5);
        assert_eq!(got, 560); // C(16, 3)
        assert_eq!((stats.subproblems(), stats.partition_sweeps), (1, 0));

        // Step 1 itself, driven directly on the K16 edge list: all 16
        // vertices resolve as high-degree — the full summary — and the
        // Lemma 1 passes in ascending vertex order emit every triangle, each
        // through its smallest vertex i, C(15 − i, 2) of them.
        let machine = Machine::new(EmConfig::new(256, 32));
        let edges = ExtVec::from_slice(&machine, g.edges());
        let summary = HeavyHitters::of_stream(&machine, edges.iter());
        let high = resolve_high_degree(&machine, &summary, edges.len(), || edges.iter());
        assert_eq!(high, (0..16).collect::<Vec<VertexId>>());
        let mut sink = crate::sink::CollectingSink::new();
        let mut shard = ShardCursor::solo();
        let mut ctx = CoContext {
            sink: &mut sink,
            emitted: 0,
            depth_limit: 0,
            stats: CacheObliviousStats::default(),
            shard: &mut shard,
        };
        let coloring = RefinedColoring::identity();
        let rest = enumerate_high_degree(&mut ctx, edges, &high, &coloring, 0, [1, 1, 1]);
        assert_eq!(ctx.emitted, 560);
        assert!(rest.is_empty(), "step 1 consumes every edge");
        let mut through = [0u64; 16];
        for t in sink.triangles() {
            through[t.a as usize] += 1;
        }
        let want: Vec<u64> = (0..16u64)
            .map(|i| (15 - i) * (15 - i).saturating_sub(1) / 2)
            .collect();
        assert_eq!(through.to_vec(), want);
        assert_eq!(machine.gauge().in_use(), 0);
    }

    #[test]
    fn base_case_boundary_is_one_leaf_at_the_constant_and_routes_above_it() {
        use crate::sink::CollectingSink;
        use crate::{enumerate_triangles, Algorithm};
        let n = 40;
        let dense = generators::erdos_renyi(n, 400, 8);
        assert!(
            dense.edge_count() > BASE_CASE_EDGES,
            "grow the source graph"
        );
        for (e, leaf) in [(BASE_CASE_EDGES, true), (BASE_CASE_EDGES + 1, false)] {
            let mut g = graphgen::Graph::empty(n);
            for edge in &dense.edges()[..e] {
                g.add_edge(edge.u, edge.v);
            }
            assert_eq!(g.edge_count(), e);
            let mut sink = CollectingSink::new();
            let report = enumerate_triangles(
                &g,
                Algorithm::CacheObliviousRandomized { seed: 1 },
                EmConfig::new(256, 32),
                &mut sink,
            );
            let mut got = sink.into_triangles();
            got.sort_unstable();
            let mut expected = naive::enumerate_triangles(&g);
            expected.sort_unstable();
            assert!(!expected.is_empty(), "E = {e}");
            assert_eq!(got, expected, "E = {e}");
            let stat = |name: &str| report.extra(name).expect("reported");
            if leaf {
                assert_eq!((stat("subproblems"), stat("partition_sweeps")), (1.0, 0.0));
            } else {
                assert!(stat("partition_sweeps") >= 1.0, "E = {e} must route");
            }
        }
    }

    #[test]
    fn depth_rows_account_for_every_node_and_every_recursion_block() {
        use crate::sink::CountingSink;
        use crate::{enumerate_triangles, Algorithm};
        let g = generators::erdos_renyi(500, 4000, 7);
        let cfg = EmConfig::new(1 << 10, 32);
        let report = enumerate_triangles(
            &g,
            Algorithm::CacheObliviousRandomized { seed: 11 },
            cfg,
            &mut CountingSink::default(),
        );
        let (_, stats) = {
            let machine = Machine::new(cfg);
            let eg = ExtGraph::load(&machine, &g);
            let mut rec = PhaseRecorder::new(machine.gauge());
            run_cache_oblivious(
                &eg,
                11,
                &mut CountingSink::default(),
                &mut rec,
                &mut ShardCursor::solo(),
                Recovery::default(),
            )
        };
        let recursion = report
            .phases
            .iter()
            .find(|(name, _)| name == "recursion")
            .expect("a recursion phase")
            .1;
        let rows = &stats.depths;
        assert_eq!(rows[0].nodes, 1);
        assert_eq!(rows[0].edges_in, 4000);
        assert_eq!(rows.iter().map(|r| r.io).sum::<u64>(), recursion.total());
        assert_eq!(
            rows.iter().map(|r| r.nodes).sum::<u64>() as f64,
            report.extra("subproblems").unwrap()
        );
        for (d, row) in rows.iter().enumerate() {
            assert_eq!(
                report.extra(&format!("depth{d}.nodes")),
                Some(row.nodes as f64)
            );
            assert_eq!(report.extra(&format!("depth{d}.io")), Some(row.io as f64));
        }
        assert_eq!(
            rows.last().unwrap().routed,
            0,
            "the deepest level only closes leaves"
        );
        // Every routing depth copies each surviving edge exactly twice.
        for d in 1..rows.len() {
            assert_eq!(rows[d].edges_in, 2 * rows[d - 1].routed, "depth {d}");
        }
    }

    #[test]
    fn checkpointed_run_is_bit_identical_to_a_plain_run() {
        // Arming checkpoints must not change the emission sequence, the I/O
        // count or the work count — the periodic snapshot is pure
        // observation of the driver state.
        use crate::sink::CollectingSink;
        let g = generators::erdos_renyi(200, 1600, 21);
        let cfg = EmConfig::new(512, 32);

        let run = |spec: Option<&CheckpointSpec>| {
            let machine = Machine::new(cfg);
            let eg = ExtGraph::load(&machine, &g);
            machine.cold_cache();
            let mut sink = CollectingSink::new();
            let mut rec = PhaseRecorder::new(machine.gauge());
            let recovery = Recovery { spec, resume: None };
            let (n, _) = run_cache_oblivious(
                &eg,
                9,
                &mut sink,
                &mut rec,
                &mut ShardCursor::solo(),
                recovery,
            );
            let stats = machine.stats();
            (n, sink.into_triangles(), stats.io, stats.work_ops)
        };

        let dir =
            std::env::temp_dir().join(format!("trienum-ckpt-bitident-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = CheckpointSpec {
            path: dir.join("ckpt.json"),
            interval_io: 40,
        };
        let plain = run(None);
        let armed = run(Some(&spec));
        assert_eq!(plain, armed);
        // The interval was small enough that at least one checkpoint landed.
        let ck = Checkpoint::load(&spec.path).expect("a checkpoint was written");
        assert_eq!(ck.seed, 9);
        assert_eq!(ck.edges, 1600);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_checkpoint_lists_only_pending_nodes_and_round_trips() {
        let g = generators::erdos_renyi(200, 1600, 21);
        let machine = Machine::new(EmConfig::new(512, 32));
        let eg = ExtGraph::load(&machine, &g);
        let dir = std::env::temp_dir().join(format!("trienum-ckpt-live-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = CheckpointSpec {
            path: dir.join("ckpt.json"),
            interval_io: 40,
        };
        let mut sink = StrictSink::new();
        let mut rec = PhaseRecorder::new(machine.gauge());
        let recovery = Recovery {
            spec: Some(&spec),
            resume: None,
        };
        let _ = run_cache_oblivious(
            &eg,
            9,
            &mut sink,
            &mut rec,
            &mut ShardCursor::solo(),
            recovery,
        );
        let text = std::fs::read_to_string(&spec.path).expect("a checkpoint was written");
        let ck = Checkpoint::parse(&text).unwrap();
        assert_eq!(ck.version, CHECKPOINT_VERSION);
        assert!(!ck.frontier.is_empty(), "a checkpoint lands between nodes");
        // Depth-first: deeper pending nodes sit above shallower ones.
        assert!(ck.frontier.windows(2).all(|w| w[0].depth <= w[1].depth));
        assert!(ck.frontier.iter().all(|n| n.depth <= ck.depth_limit));
        assert!(!text.contains("release"), "only node entries: {text}");
        assert_eq!(ck.to_json(), text);
        assert_eq!(Checkpoint::parse(&ck.to_json()).unwrap(), ck);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_from_a_mid_run_checkpoint_completes_the_exact_multiset() {
        for cap in CAPS {
            with_depth_cap(cap, || resume_round_trip(cap));
        }
    }

    /// Crashes the run at an arbitrary I/O ordinal, resumes from the last
    /// checkpoint on a fresh machine, and requires the union of committed
    /// triangles to be the oracle set, each exactly once.
    fn resume_round_trip(cap: Option<usize>) {
        use crate::sink::{CollectingSink, DurableSink};
        use emsim::{BackendKind, CrashPoint, FaultPlan};

        let g = generators::erdos_renyi(160, 1400, 33);
        let machine_probe = Machine::new(EmConfig::new(512, 32));
        let eg = ExtGraph::load(&machine_probe, &g);
        machine_probe.cold_cache();
        let preamble = machine_probe.transfers();
        let expected = {
            let mut sink = StrictSink::new();
            let mut rec = PhaseRecorder::new(machine_probe.gauge());
            let (n, _) = run_cache_oblivious(
                &eg,
                4,
                &mut sink,
                &mut rec,
                &mut ShardCursor::solo(),
                Recovery::default(),
            );
            assert_eq!(n, naive::count_triangles(&g), "cap {cap:?}");
            assert_eq!(machine_probe.gauge().in_use(), 0);
            (n, sink.seen().clone())
        };
        let total_transfers = machine_probe.transfers();

        let dir = std::env::temp_dir().join(format!(
            "trienum-ckpt-resume-{}-{cap:?}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = CheckpointSpec {
            path: dir.join("ckpt.json"),
            interval_io: 30,
        };

        // CrashAt counts logical transfers from machine creation, so aim the
        // kill switch past the (excluded-from-measurement) load preamble, at
        // the midpoint of the run proper.
        let crash_at = preamble + (total_transfers - preamble) / 2;

        let mut collected = CollectingSink::new();
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let machine = Machine::with_faults(
                EmConfig::new(512, 32),
                FaultPlan::new(1).with_crash_at(crash_at),
                BackendKind::InMemory,
            );
            let eg = ExtGraph::load(&machine, &g);
            machine.cold_cache();
            let mut durable = DurableSink::new(&mut collected);
            let mut rec = PhaseRecorder::new(machine.gauge());
            let recovery = Recovery {
                spec: Some(&spec),
                resume: None,
            };
            let _ = run_cache_oblivious(
                &eg,
                4,
                &mut durable,
                &mut rec,
                &mut ShardCursor::solo(),
                recovery,
            );
        }));
        let payload = crashed.expect_err("the fault plan kills this run");
        assert!(payload.downcast_ref::<CrashPoint>().is_some());
        let hwm = collected.len() as u64;
        let ck = Checkpoint::load(&spec.path).expect("a checkpoint survived the crash");
        assert_eq!(
            ck.hwm, hwm,
            "high-water mark must equal the committed count"
        );
        assert!(
            hwm < expected.0,
            "cap {cap:?}: the crash must interrupt mid-run"
        );

        // Resume on a fresh, healthy machine.
        let machine = Machine::new(EmConfig::new(512, 32));
        let eg = ExtGraph::load(&machine, &g);
        machine.cold_cache();
        let mut durable = DurableSink::resume_from(&mut collected, hwm);
        let mut rec = PhaseRecorder::new(machine.gauge());
        let recovery = Recovery {
            spec: None,
            resume: Some(&ck),
        };
        let (total, _) = run_cache_oblivious(
            &eg,
            4,
            &mut durable,
            &mut rec,
            &mut ShardCursor::solo(),
            recovery,
        );
        durable.commit();
        assert_eq!(total, expected.0, "cap {cap:?}");
        let got: std::collections::HashSet<Triangle> =
            collected.triangles().iter().copied().collect();
        assert_eq!(
            got.len(),
            collected.len(),
            "no triangle may be delivered twice across the crash boundary"
        );
        assert_eq!(got, expected.1, "cap {cap:?}");
        assert_eq!(machine.gauge().in_use(), 0, "no leaked leases after resume");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gauge_peak_stays_within_the_depth_budget_and_no_lease_survives() {
        let g = generators::erdos_renyi(150, 1200, 2);
        let machine = Machine::new(EmConfig::new(1 << 10, 32));
        let eg = ExtGraph::load(&machine, &g);
        let mut sink = StrictSink::new();
        let mut rec = PhaseRecorder::new(machine.gauge());
        let _ = run_cache_oblivious(
            &eg,
            3,
            &mut sink,
            &mut rec,
            &mut ShardCursor::solo(),
            Recovery::default(),
        );
        assert_eq!(machine.gauge().in_use(), 0);
        // One in-core leaf on top of the per-level words: the quick and
        // full E3 budgets.
        let leaf = BASE_CASE_EDGES as u64;
        assert_eq!(cache_oblivious_phase_budget(4_000), 268 * 7 + leaf);
        assert_eq!(cache_oblivious_phase_budget(12_000), 268 * 8 + leaf);
        let peak = machine.gauge().peak();
        assert!(peak > 0, "the stacked summaries were accounted");
        assert!(
            peak <= cache_oblivious_phase_budget(1200),
            "peak {peak} exceeds the depth budget {}",
            cache_oblivious_phase_budget(1200)
        );
    }

    /// The `Vec`-backed Misra–Gries summary the fixed-array one replaced,
    /// kept as the reference it must agree with.
    #[derive(Default)]
    struct VecHeavyHitters {
        counters: Vec<(VertexId, u64)>,
        decrements: u64,
    }

    impl VecHeavyHitters {
        fn feed(&mut self, v: VertexId) {
            if let Some(c) = self.counters.iter_mut().find(|(x, _)| *x == v) {
                c.1 += 1;
                return;
            }
            if self.counters.len() < MAX_LOCAL_HIGH_DEGREE {
                self.counters.push((v, 1));
                return;
            }
            self.decrements += 1;
            for c in &mut self.counters {
                c.1 -= 1;
            }
            self.counters.retain(|&(_, n)| n > 0);
        }
    }

    #[test]
    fn fixed_array_summary_tracks_the_vec_reference_after_every_feed() {
        // Random streams over key ranges from just above the counter count
        // (frequent decrements) to far above it (mostly empty summaries).
        let mut state = 17u64;
        let random: Vec<Vec<VertexId>> = [17u64, 20, 64, 1000]
            .into_iter()
            .map(|keys| {
                (0..4000)
                    .map(|_| (splitmix(&mut state) % keys) as VertexId)
                    .collect()
            })
            .collect();
        // All 16 counters filled to 50, then 40 fresh keys: every one of
        // them decrements all 16 counters and none reaches zero.
        let full: Vec<VertexId> = (0..16u32)
            .flat_map(|k| std::iter::repeat_n(k, 50))
            .chain(100..140)
            .collect();
        // More than 16 distinct keys in a row: every feed past the 16th
        // decrements and empties the summary.
        let distinct: Vec<VertexId> = (0..200).collect();
        let hub: Vec<VertexId> = std::iter::repeat_n(7, 300).collect();
        // A hub alternating with fresh keys, edge by edge and in blocks.
        let alternating: Vec<VertexId> = (0..2000u32)
            .map(|i| if i % 3 == 0 { 7 } else { 1000 + i })
            .collect();
        let blocks: Vec<VertexId> = (0..10u32)
            .flat_map(|b| {
                if b % 2 == 0 {
                    (0..40).map(|_| 3).collect::<Vec<_>>()
                } else {
                    (0..40).map(|i| 500 + 40 * b + i).collect()
                }
            })
            .collect();
        let streams = random
            .into_iter()
            .chain([full.clone(), distinct, hub, alternating, blocks]);
        for stream in streams {
            let mut fixed = HeavyHitters::default();
            let mut reference = VecHeavyHitters::default();
            for (i, &v) in stream.iter().enumerate() {
                fixed.feed(v);
                reference.feed(v);
                let mut got: Vec<(VertexId, u64)> = fixed.counters().collect();
                let mut want = reference.counters.clone();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "feed {i}");
                assert_eq!(fixed.decrements, reference.decrements, "feed {i}");
            }
        }
        // The fill-then-decrement stream ends with every counter at 10.
        let mut fixed = HeavyHitters::default();
        for &v in &full {
            fixed.feed(v);
        }
        assert_eq!(fixed.decrements, 40);
        assert!(fixed.counters().all(|(_, n)| n == 10));
        assert_eq!(fixed.counters().count(), 16);
    }
}
