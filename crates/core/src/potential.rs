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

use emalgo::{external_sort_by_key, kway_merge};
use emsim::{ExtVec, Machine};
use graphgen::Edge;
use kwise::{BitFunctionFamily, FourWise, RefinedColoring};

use crate::cache_aware::LowDegreeEdges;

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
/// contiguous run sorted by `(vertex, other)`; the order of the classes
/// themselves is not numeric.
pub(crate) struct Incidence<'a> {
    machine: Machine,
    layout: Layout<'a>,
}

enum Layout<'a> {
    /// Before the first split: `E_l` merged with its sorted reversal (one
    /// class under the identity colouring).
    Merged {
        forward: LowDegreeEdges<'a>,
        reversed: ExtVec<Edge>,
    },
    /// After a split: its four outputs, read in sequence.
    Split(Vec<ExtVec<Edge>>),
}

impl<'a> Incidence<'a> {
    /// Writes the reversed half of `el` and sorts it, the layout's one sort.
    pub(crate) fn new(el: LowDegreeEdges<'a>) -> Self {
        let machine = el.machine().clone();
        let mut reversed = ExtVec::new(&machine);
        for e in el.iter() {
            machine.work(1);
            reversed.push(Edge { u: e.v, v: e.u });
        }
        let reversed = external_sort_by_key(&reversed, |e| *e);
        Self {
            machine,
            layout: Layout::Merged {
                forward: el,
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
        let mut x_total = vec![0u128; t];
        let mut x_adj = vec![0u128; t];
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
                            flush(&mut class_counts, &mut x_total);
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
        flush(&mut class_counts, &mut x_total);

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
    use emsim::EmConfig;
    use graphgen::generators;
    use std::collections::HashSet;

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

    #[test]
    fn candidate_statistics_match_reference() {
        // Evaluates `fam` on the merged layout under the identity colouring,
        // then after each split by the next function of `chain`.
        let check = |mut edges: Vec<Edge>, chain: &[FourWise], fam: &BitFunctionFamily| {
            let machine = Machine::new(EmConfig::new(1 << 11, 64));
            edges.sort_unstable();
            let el = ExtVec::from_slice(&machine, &edges);
            let mut incidence = Incidence::new(LowDegreeEdges::Filtered(el));
            let mut parent = RefinedColoring::identity();
            for depth in 0..=chain.len() {
                if depth > 0 {
                    incidence = incidence.split(chain[depth - 1]);
                    parent.push(chain[depth - 1]);
                }
                let eval = incidence.evaluate(&parent, fam);
                for j in 0..fam.len() {
                    let refined_color = |v: u32| -> u64 {
                        2 * parent.color(v) - u64::from(fam.function(j).eval_bit(v as u64))
                    };
                    let (x_total, x_adj) = reference_statistics(&edges, refined_color);
                    assert_eq!(
                        eval.x_total[j], x_total,
                        "depth {depth} candidate {j} x_total"
                    );
                    assert_eq!(eval.x_adj[j], x_adj, "depth {depth} candidate {j} x_adj");
                    assert!(eval.x_nonadj(j) <= eval.x_total[j]);
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
        let check = |el: LowDegreeEdges, levels: usize| {
            let mut expected: Vec<Edge> = el
                .load_all()
                .iter()
                .flat_map(|e| [*e, Edge { u: e.v, v: e.u }])
                .collect();
            expected.sort_unstable();
            let chain = BitFunctionFamily::new(levels, 17);
            let mut coloring = RefinedColoring::identity();
            let mut incidence = Incidence::new(el);
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
                let mut seen = HashSet::new();
                for run in got.chunk_by(|a, b| class(a) == class(b)) {
                    let cls = class(&run[0]);
                    assert!(seen.insert(cls), "depth {depth}: class {cls:?} in two runs");
                    assert!(
                        run.windows(2).all(|w| w[0] < w[1]),
                        "depth {depth}: class {cls:?} not (vertex, other)-sorted"
                    );
                }
                assert_eq!(
                    seen.len() > 1,
                    depth > 0,
                    "depth {depth}: {} classes",
                    seen.len()
                );
            }
        };
        let machine = Machine::new(EmConfig::new(64, 16));
        // No vertex above the degree threshold: E_l is the input itself.
        let er = ExtGraph::load(&machine, &generators::erdos_renyi(120, 700, 3));
        let (_, el) = split_high_low_degree(&er, 1 << 12);
        assert!(matches!(el, LowDegreeEdges::All(_)));
        check(el, 4);
        // Power-law hubs above the threshold: E_l is a filtered copy.
        let cl = ExtGraph::load(&machine, &generators::chung_lu_power_law(300, 1500, 2.1, 5));
        let (high, el) = split_high_low_degree(&cl, 16);
        assert!(!high.is_empty() && matches!(el, LowDegreeEdges::Filtered(_)));
        check(el, 4);
        // One level reads the merged layout only and never splits.
        let (_, el) = split_high_low_degree(&er, 1 << 12);
        check(el, 1);
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
        let eval = Incidence::new(LowDegreeEdges::All(&el)).evaluate(&parent, &fam);
        let potentials: Vec<f64> = (0..fam.len()).map(|j| eval.potential(j, 1, 4)).collect();
        let min = potentials.iter().cloned().fold(f64::INFINITY, f64::min);
        let avg = potentials.iter().sum::<f64>() / potentials.len() as f64;
        assert!(min <= avg);
        assert!(min > 0.0);
    }
}
