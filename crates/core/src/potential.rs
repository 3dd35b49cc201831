//! The colour-balance potential driving the derandomization (Section 4).
//!
//! The derandomized algorithm builds its colouring one bit at a time. At
//! level `i` it must pick, from a candidate family of two-colourings
//! `b : V → {0,1}`, one that keeps inequality (4) satisfied:
//!
//! ```text
//! 4^i · X^nonadj_{ξ_i} / c²  +  2^i · X^adj_{ξ_i} / c  ≤  (1 + α)^i · E·M
//! ```
//!
//! where `X^adj` / `X^nonadj` are the contributions to `X_ξ` (equation (1))
//! from pairs of edges that do / do not share a vertex. This module evaluates
//! the two statistics **exactly for every candidate simultaneously** from
//! one scan of the incidence list (each edge listed under both endpoints)
//! laid out so that every parent class is one contiguous run sorted by
//! `(vertex, other)` — an [`Incidence`]:
//!
//! * each `(class, vertex)` run counts, per candidate, how many incident
//!   edges land in each ordered child class — yielding `X^adj` (two edges
//!   that share a vertex are in the same child class iff their ordered
//!   bit-pairs agree);
//! * the entries under an edge's smaller endpoint list each edge of a class
//!   run once, so counters flushed at class boundaries count how every
//!   candidate splits the class into its four child classes — `X_total`.
//!
//! All candidates' bits are computed at once ([`BitFunctionFamily::eval_all`])
//! once per run for its vertex and once per entry for the neighbour. The
//! scan keeps `O(candidates)` words of counters and bits in memory.
//!
//! The layout costs one sort, of half the list: the entries under each
//! edge's smaller endpoint are `E_l` itself, already `(u, v)`-sorted, so
//! only the reversed copy is written and sorted, and level 1 reads the
//! two-cursor merge. Once a level's function `b` is chosen, one
//! order-preserving split by `(b(min), b(max))` writes four outputs that,
//! read in sequence, keep every next-level class contiguous and sorted. In
//! all, `sort(E_l)` once, one scan per level and one split per level except
//! the last — the `O(E·log(E/M)/B)` preprocessing charge of Theorem 2.
//!
//! Sharded across `P` workers, each worker lays out, scans and splits only
//! the entries under the vertices it owns, about `2E/P` of them. Both
//! statistics are sums of per-run terms whose runs never straddle workers,
//! so each worker posts its `X^adj` partials and, for every class run it
//! saw, the run's four child counts per candidate; after the level's one
//! exchange every worker sums the posts class by class and takes the pairs
//! of the global counts. The result is the sequential evaluation exactly.

use emalgo::{external_sort_by_key, kway_merge};
use emsim::{ExtVec, Machine};
use graphgen::{Edge, VertexId};
use kwise::{BitFunctionFamily, FourWise, RefinedColoring};

use crate::cache_aware::LowDegreeEdges;
use crate::workunit::ExchangePort;

/// Exact per-candidate statistics at one refinement level.
#[derive(Debug, Clone)]
pub(crate) struct LevelEvaluation {
    /// `X_ξ` (all same-class pairs) per candidate.
    pub x_total: Vec<u128>,
    /// `X^adj_ξ` (same-class pairs sharing a vertex) per candidate.
    pub x_adj: Vec<u128>,
}

impl LevelEvaluation {
    /// `X^nonadj` for candidate `j`.
    pub(crate) fn x_nonadj(&self, j: usize) -> u128 {
        self.x_total[j] - self.x_adj[j]
    }

    /// The potential of inequality (4) for candidate `j` at level `i` with
    /// `c` final colours.
    pub(crate) fn potential(&self, j: usize, level: u32, c: u64) -> f64 {
        let four_i = 4f64.powi(level as i32);
        let two_i = 2f64.powi(level as i32);
        four_i * self.x_nonadj(j) as f64 / (c as f64 * c as f64)
            + two_i * self.x_adj[j] as f64 / c as f64
    }
}

fn pairs(n: u64) -> u128 {
    let n = n as u128;
    n * n.saturating_sub(1) / 2
}

fn flush(counts: &mut [[u64; 4]], x: &mut [u128]) {
    for (cs, xj) in counts.iter_mut().zip(x) {
        for c in cs.iter_mut() {
            *xj += pairs(*c);
            *c = 0;
        }
    }
}

/// The incidence list of `E_l`: every edge once under each endpoint, as a
/// one-word `Edge { u: vertex, v: other }`. Read in sequence, every class
/// `(ξ(min), ξ(max))` of the colouring it was last split by is one
/// contiguous run sorted by `(vertex, other)`; the classes themselves come
/// in ascending [`class_rank`], which is not numeric order.
///
/// On a worker of a sharded run the list holds only the entries under the
/// vertices the worker owns. Each `(class, vertex)` run then lies on one
/// worker, and so does the entry that counts an edge towards its class
/// (the one under its smaller endpoint), so every worker's statistics are
/// exact partials; [`Incidence::evaluate`] sums them through one exchange
/// per level.
pub(crate) struct Incidence<'a> {
    machine: Machine,
    /// Set on a worker of a sharded run.
    exchange: Option<&'a ExchangePort>,
    layout: Layout<'a>,
}

enum Layout<'a> {
    /// Before the first split: the forward half merged with the sorted
    /// reversed half (one class under the identity colouring).
    Merged {
        forward: LowDegreeEdges<'a>,
        reversed: ExtVec<Edge>,
    },
    /// After a split: its four outputs, read in sequence.
    Split(Vec<ExtVec<Edge>>),
}

/// Where the child counts of a finished class run go.
enum ClassTotals<'a> {
    /// Sequentially: straight into `X_total`, per candidate.
    Summed(Vec<u128>),
    /// On a sharded worker: out to the exchange, one record per class run —
    /// its rank, then the four counts of every candidate.
    Posted(&'a ExchangePort, Vec<u64>),
}

impl ClassTotals<'_> {
    /// Ends the run of class `rank`, zeroing `counts` for the next one.
    fn end_class(&mut self, rank: u64, counts: &mut [[u64; 4]]) {
        match self {
            ClassTotals::Summed(x_total) => flush(counts, x_total),
            ClassTotals::Posted(_, post) => {
                post.push(rank);
                for c in counts.iter_mut() {
                    post.extend_from_slice(c);
                    *c = [0; 4];
                }
            }
        }
    }
}

/// The position of class `(a, b)` in a layout split `splits` times. A split
/// by `b_j` keeps its input order within each of its four outputs, so the
/// layout orders classes by the last split's bit pair first, then by the
/// previous one's. `ξ − 1` holds the inverted bits of the splits, the first
/// split's highest. Distinct classes get distinct ranks.
fn class_rank((a, b): (u64, u64), splits: usize) -> u64 {
    let (a, b) = (!(a - 1), !(b - 1));
    (0..splits).fold(0, |rank, q| rank << 2 | (a >> q & 1) << 1 | (b >> q & 1))
}

impl<'a> Incidence<'a> {
    /// Writes the reversed half of `el` and sorts it, the layout's one
    /// sort; the forward half is `el` itself. On a sharded worker one scan
    /// of `el` writes the worker's own entries of both halves — the edges
    /// whose smaller endpoint it owns, and reversed, those whose larger
    /// endpoint it owns — and only its reversed part is sorted.
    pub(crate) fn new(el: &'a ExtVec<Edge>, exchange: Option<&'a ExchangePort>) -> Self {
        let machine = el.machine().clone();
        let owns = |v: VertexId| exchange.is_none_or(|x| x.owns_vertex(v));
        let mut forward = exchange.map(|_| ExtVec::new(&machine));
        let mut reversed = ExtVec::new(&machine);
        for e in el.iter() {
            machine.work(1);
            if let Some(forward) = forward.as_mut().filter(|_| owns(e.u)) {
                forward.push(e);
            }
            if owns(e.v) {
                reversed.push(Edge { u: e.v, v: e.u });
            }
        }
        let reversed = external_sort_by_key(&reversed, |e| *e);
        Self {
            machine,
            exchange,
            layout: Layout::Merged {
                forward: forward.map_or(LowDegreeEdges::All(el), LowDegreeEdges::Filtered),
                reversed,
            },
        }
    }

    /// Streams every entry in layout order. The two halves never tie:
    /// `u < v` on one side and `u > v` on the other.
    fn for_each(&self, f: impl FnMut(Edge)) {
        match &self.layout {
            Layout::Merged { forward, reversed } => {
                let _cursors = self.machine.gauge().lease(2);
                kway_merge(&self.machine, vec![forward.iter(), reversed.iter()], |e| *e).for_each(f)
            }
            Layout::Split(parts) => parts.iter().flat_map(ExtVec::iter).for_each(f),
        }
    }

    /// Evaluates every candidate of `family` against `parent`, the
    /// colouring this layout was last split by, in one scan.
    pub(crate) fn evaluate(
        &self,
        parent: &RefinedColoring,
        family: &BitFunctionFamily,
    ) -> LevelEvaluation {
        let machine = &self.machine;
        let t = family.len();
        // Per candidate: four child-class counters for the parent class, four
        // for the (class, vertex) run, and the bits of the run's vertex and of
        // the current neighbour.
        let _lease = machine.gauge().lease((10 * t) as u64);
        let mut class_counts = vec![[0u64; 4]; t];
        let mut vertex_counts = vec![[0u64; 4]; t];
        let mut vertex_bits = vec![false; t];
        let mut other_bits = vec![false; t];
        let mut totals = match self.exchange {
            None => ClassTotals::Summed(vec![0u128; t]),
            // The post is written to the shared area, charged per block by
            // the exchange.
            Some(exchange) => ClassTotals::Posted(exchange, Vec::new()),
        };
        let mut x_adj = vec![0u128; t];
        let splits = parent.depth();
        // The current (class, vertex) run, and the parent colour of its vertex.
        let mut current: Option<((u64, u64), u32)> = None;
        let mut vertex_color = 0;
        self.for_each(
            |Edge {
                 u: vertex,
                 v: other,
             }| {
                machine.work(t as u64);
                if current.is_none_or(|(_, v)| v != vertex) {
                    vertex_color = parent.color(vertex);
                }
                let other_color = parent.color(other);
                // The class is the (smaller endpoint, larger endpoint) colour pair.
                let owner = vertex < other;
                let cls = if owner {
                    (vertex_color, other_color)
                } else {
                    (other_color, vertex_color)
                };
                if current != Some((cls, vertex)) {
                    if let Some((prev_cls, _)) = current {
                        flush(&mut vertex_counts, &mut x_adj);
                        if prev_cls != cls {
                            totals.end_class(class_rank(prev_cls, splits), &mut class_counts);
                        }
                    }
                    current = Some((cls, vertex));
                    family.eval_all(vertex as u64, &mut vertex_bits);
                }
                family.eval_all(other as u64, &mut other_bits);
                // The entry under the edge's smaller endpoint also counts the edge
                // once towards its class.
                let bits = vertex_bits.iter().zip(&other_bits);
                for ((vc, cc), (&bx, &bo)) in
                    vertex_counts.iter_mut().zip(&mut class_counts).zip(bits)
                {
                    // Ordered (smaller endpoint, larger endpoint) bit pair.
                    let (lo, hi) = if owner { (bx, bo) } else { (bo, bx) };
                    let idx = usize::from(lo) * 2 + usize::from(hi);
                    vc[idx] += 1;
                    cc[idx] += u64::from(owner);
                }
            },
        );
        flush(&mut vertex_counts, &mut x_adj);
        if let Some((cls, _)) = current {
            totals.end_class(class_rank(cls, splits), &mut class_counts);
        }
        match totals {
            ClassTotals::Summed(x_total) => LevelEvaluation { x_total, x_adj },
            ClassTotals::Posted(exchange, post) => {
                self.gather(exchange, post, &x_adj, &mut class_counts)
            }
        }
    }

    /// Completes a sharded level. Posts this worker's class records
    /// followed by its `X^adj` partials (two words per candidate), and sums
    /// every worker's posts into the level's statistics: `X^adj` per
    /// candidate, and the class records merged by rank, so each class's
    /// counts are summed in `counts` before their pairs are taken.
    fn gather(
        &self,
        exchange: &ExchangePort,
        mut post: Vec<u64>,
        x_adj: &[u128],
        counts: &mut [[u64; 4]],
    ) -> LevelEvaluation {
        let machine = &self.machine;
        let t = x_adj.len();
        for &x in x_adj {
            post.extend([x as u64, (x >> 64) as u64]);
        }
        let posts = exchange
            .all_gather(machine, post)
            .unwrap_or_else(|aborted| std::panic::panic_any(aborted));
        let mut x_adj = vec![0u128; t];
        let mut x_total = vec![0u128; t];
        // One read cursor per post.
        let _cursors = machine.gauge().lease(posts.len() as u64);
        let mut records: Vec<&[u64]> = Vec::with_capacity(posts.len());
        for post in posts.iter() {
            let (body, tail) = post.split_at(post.len() - 2 * t);
            machine.work(2 * t as u64);
            for (x, w) in x_adj.iter_mut().zip(tail.chunks_exact(2)) {
                *x += u128::from(w[0]) | u128::from(w[1]) << 64;
            }
            records.push(body);
        }
        let record = 1 + 4 * t;
        while let Some(rank) = records.iter().filter_map(|r| r.first()).min().copied() {
            for r in records.iter_mut().filter(|r| r.first() == Some(&rank)) {
                let (head, rest) = r.split_at(record);
                debug_assert!(rest.first().is_none_or(|&next| next > rank), "ranks ascend");
                machine.work(4 * t as u64);
                for (c, four) in counts.iter_mut().zip(head[1..].chunks_exact(4)) {
                    for (ci, w) in c.iter_mut().zip(four) {
                        *ci += w;
                    }
                }
                *r = rest;
            }
            flush(counts, &mut x_total);
        }
        LevelEvaluation { x_total, x_adj }
    }

    /// Refines the layout by the chosen function `b`: one order-preserving
    /// split by `(b(min), b(max))` into four outputs. Read in sequence they
    /// keep every refined class contiguous, since each parent class was.
    pub(crate) fn split(self, b: FourWise) -> Self {
        let machine = self.machine.clone();
        let _lease = machine.gauge().lease(4);
        let mut parts: Vec<ExtVec<Edge>> = (0..4).map(|_| ExtVec::new(&machine)).collect();
        self.for_each(|e| {
            machine.work(1);
            let (lo, hi) = (e.u.min(e.v), e.u.max(e.v));
            let idx = usize::from(b.eval_bit(lo as u64)) * 2 + usize::from(b.eval_bit(hi as u64));
            parts[idx].push(e);
        });
        Self {
            machine,
            exchange: self.exchange,
            layout: Layout::Split(parts),
        }
    }
}

/// Reference (in-core) computation of the same statistics for one concrete
/// refinement — used by the unit tests to validate [`Incidence::evaluate`].
#[cfg(test)]
pub(crate) fn reference_statistics(edges: &[Edge], color: impl Fn(u32) -> u64) -> (u128, u128) {
    use std::collections::HashMap;
    let mut class_sizes: HashMap<(u64, u64), u64> = HashMap::new();
    let mut vertex_class: HashMap<(u32, (u64, u64)), u64> = HashMap::new();
    for e in edges {
        let cls = (color(e.u), color(e.v));
        *class_sizes.entry(cls).or_default() += 1;
        *vertex_class.entry((e.u, cls)).or_default() += 1;
        *vertex_class.entry((e.v, cls)).or_default() += 1;
    }
    let x_total: u128 = class_sizes.values().map(|&n| pairs(n)).sum();
    let x_adj: u128 = vertex_class.values().map(|&n| pairs(n)).sum();
    (x_total, x_adj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache_aware::split_high_low_degree;
    use crate::input::ExtGraph;
    use crate::workunit::{on_workers, ShardPlan};
    use emsim::EmConfig;
    use graphgen::generators;

    /// The layout read in sequence.
    fn entries(incidence: &Incidence) -> Vec<Edge> {
        let mut out = Vec::new();
        incidence.for_each(|e| out.push(e));
        out
    }

    #[test]
    fn pairs_formula() {
        assert_eq!(pairs(0), 0);
        assert_eq!(pairs(1), 0);
        assert_eq!(pairs(2), 1);
        assert_eq!(pairs(10), 45);
    }

    /// `(X_total, X^adj)` of every candidate of `fam` on the merged layout of
    /// the sorted `edges` under the identity colouring, then after each split
    /// by the next function of `chain`; sharded when `exchange` is set.
    fn evaluations(
        edges: &[Edge],
        chain: &[FourWise],
        fam: &BitFunctionFamily,
        exchange: Option<&ExchangePort>,
    ) -> Vec<(Vec<u128>, Vec<u128>)> {
        let machine = Machine::new(EmConfig::new(1 << 11, 64));
        let el = ExtVec::from_slice(&machine, edges);
        let mut incidence = Incidence::new(&el, exchange);
        let mut parent = RefinedColoring::identity();
        let mut out = Vec::new();
        for depth in 0..=chain.len() {
            if depth > 0 {
                incidence = incidence.split(chain[depth - 1]);
                parent.push(chain[depth - 1]);
            }
            let eval = incidence.evaluate(&parent, fam);
            out.push((eval.x_total, eval.x_adj));
        }
        out
    }

    #[test]
    fn candidate_statistics_match_reference() {
        // Checks every depth's statistics against the in-core reference,
        // and every worker's of a sharded evaluation against them.
        let check = |mut edges: Vec<Edge>, chain: &[FourWise], fam: &BitFunctionFamily| {
            edges.sort_unstable();
            let sequential = evaluations(&edges, chain, fam, None);
            let mut parent = RefinedColoring::identity();
            for (depth, (x_total, x_adj)) in sequential.iter().enumerate() {
                if depth > 0 {
                    parent.push(chain[depth - 1]);
                }
                for j in 0..fam.len() {
                    let refined_color = |v: u32| -> u64 {
                        2 * parent.color(v) - u64::from(fam.function(j).eval_bit(v as u64))
                    };
                    let reference = reference_statistics(&edges, refined_color);
                    assert_eq!(
                        x_total[j], reference.0,
                        "depth {depth} candidate {j} x_total"
                    );
                    assert_eq!(x_adj[j], reference.1, "depth {depth} candidate {j} x_adj");
                    assert!(x_adj[j] <= x_total[j]);
                }
            }
            for workers in [2, 3] {
                let sharded = on_workers(ShardPlan::new(workers), |cursor| {
                    evaluations(&edges, chain, fam, cursor.exchange())
                });
                for (w, evals) in sharded.iter().enumerate() {
                    assert_eq!(evals, &sequential, "worker {w} of {workers}");
                }
            }
        };
        let er = generators::erdos_renyi(100, 600, 21).edges().to_vec();
        let fam = BitFunctionFamily::new(6, 42);

        // Depth 1 splits the one identity class, so parent classes are
        // non-trivial; depth 2 has sixteen parent classes, so class runs
        // end, and their counters flush, all through the scan.
        let chain = [fam.function(5), BitFunctionFamily::new(3, 8).function(1)];
        check(er.clone(), &chain, &fam);

        // A hub adjacent to every other vertex: its incidences span every
        // class its colour takes part in, so one vertex's runs cross class
        // boundaries.
        let mut hub = generators::star(100).edges().to_vec();
        hub.extend(&er);
        hub.sort_unstable();
        hub.dedup();
        check(hub, &chain, &fam);

        // A one-candidate family.
        check(er, &chain[..1], &BitFunctionFamily::new(1, 5));
    }

    #[test]
    fn splits_keep_every_refined_class_contiguous_and_sorted() {
        // Reads the layout at each of `levels` levels — the merge, then the
        // outputs of each split but the last level's, which is skipped.
        let check = |el: &ExtVec<Edge>, levels: usize| {
            let mut expected: Vec<Edge> = el
                .load_all()
                .iter()
                .flat_map(|e| [*e, Edge { u: e.v, v: e.u }])
                .collect();
            expected.sort_unstable();
            let chain = BitFunctionFamily::new(levels, 17);
            let mut coloring = RefinedColoring::identity();
            let mut incidence = Incidence::new(el, None);
            for depth in 0..levels {
                if depth > 0 {
                    incidence = incidence.split(chain.function(depth - 1));
                    coloring.push(chain.function(depth - 1));
                }
                let got = entries(&incidence);
                let mut multiset = got.clone();
                multiset.sort_unstable();
                assert_eq!(multiset, expected, "depth {depth}: not the incidence list");
                let class = |e: &Edge| (coloring.color(e.u.min(e.v)), coloring.color(e.u.max(e.v)));
                let mut ranks = Vec::new();
                for run in got.chunk_by(|a, b| class(a) == class(b)) {
                    let cls = class(&run[0]);
                    ranks.push(class_rank(cls, depth));
                    assert!(
                        run.windows(2).all(|w| w[0] < w[1]),
                        "depth {depth}: class {cls:?} not (vertex, other)-sorted"
                    );
                }
                // Ascending ranks: no class is in two runs, and the exchange
                // can merge the workers' class records by rank.
                assert!(
                    ranks.windows(2).all(|w| w[0] < w[1]),
                    "depth {depth}: class runs out of rank order"
                );
                assert_eq!(
                    ranks.len() > 1,
                    depth > 0,
                    "depth {depth}: {} classes",
                    ranks.len()
                );
            }
        };
        let machine = Machine::new(EmConfig::new(64, 16));
        // No vertex above the degree threshold: E_l is the input itself.
        let er = ExtGraph::load(&machine, &generators::erdos_renyi(120, 700, 3));
        let (_, el, _) = split_high_low_degree(&er, 1 << 12);
        assert!(matches!(el, LowDegreeEdges::All(_)));
        check(&el, 4);
        // Power-law hubs above the threshold: E_l is a filtered copy.
        let cl = ExtGraph::load(&machine, &generators::chung_lu_power_law(300, 1500, 2.1, 5));
        let (high, el, _) = split_high_low_degree(&cl, 16);
        assert!(!high.is_empty() && matches!(el, LowDegreeEdges::Filtered(_)));
        check(&el, 4);
        // One level reads the merged layout only and never splits.
        let (_, el, _) = split_high_low_degree(&er, 1 << 12);
        check(&el, 1);
    }

    #[test]
    fn class_ranks_are_distinct_and_below_four_to_the_splits() {
        for splits in 0..4usize {
            let colors = 1u64 << splits;
            let mut ranks: Vec<u64> = (1..=colors)
                .flat_map(|a| (1..=colors).map(move |b| class_rank((a, b), splits)))
                .collect();
            ranks.sort_unstable();
            assert_eq!(ranks, (0..colors * colors).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_sharded_worker_holds_exactly_its_own_entries_in_layout_order() {
        // At every depth a worker's layout is the sequential layout filtered
        // to the entries under the vertices it owns.
        let mut edges = generators::erdos_renyi(120, 700, 3).edges().to_vec();
        edges.sort_unstable();
        let chain = BitFunctionFamily::new(3, 17);
        let layouts = |exchange: Option<&ExchangePort>| {
            let machine = Machine::new(EmConfig::new(256, 16));
            let el = ExtVec::from_slice(&machine, &edges);
            let mut incidence = Incidence::new(&el, exchange);
            let mut out = vec![entries(&incidence)];
            for depth in 0..chain.len() {
                incidence = incidence.split(chain.function(depth));
                out.push(entries(&incidence));
            }
            out
        };
        let sequential = layouts(None);
        for workers in [2u32, 3] {
            let sharded = on_workers(ShardPlan::new(workers as usize), |cursor| {
                layouts(cursor.exchange())
            });
            for (w, worker_layouts) in (0u32..).zip(&sharded) {
                for (depth, got) in worker_layouts.iter().enumerate() {
                    let owned: Vec<Edge> = sequential[depth]
                        .iter()
                        .copied()
                        .filter(|e| e.u % workers == w)
                        .collect();
                    assert_eq!(got, &owned, "worker {w} of {workers}, depth {depth}");
                }
            }
        }
    }

    #[test]
    fn potential_prefers_balanced_candidates() {
        // On a sizable graph, the minimum potential across candidates should
        // not exceed the average — trivially true, but it guards against sign
        // or scaling errors in the potential formula.
        let g = generators::erdos_renyi(200, 2000, 5);
        let machine = Machine::new(EmConfig::new(1 << 11, 64));
        let mut edges: Vec<Edge> = g.edges().to_vec();
        edges.sort_unstable();
        let el = ExtVec::from_slice(&machine, &edges);
        let fam = BitFunctionFamily::new(8, 7);
        let parent = RefinedColoring::identity();
        let eval = Incidence::new(&el, None).evaluate(&parent, &fam);
        let potentials: Vec<f64> = (0..fam.len()).map(|j| eval.potential(j, 1, 4)).collect();
        let min = potentials.iter().cloned().fold(f64::INFINITY, f64::min);
        let avg = potentials.iter().sum::<f64>() / potentials.len() as f64;
        assert!(min <= avg);
        assert!(min > 0.0);
    }
}
