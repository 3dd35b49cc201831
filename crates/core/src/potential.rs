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
//! sorted by `(parent class, vertex)`:
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
//! scan keeps `O(candidates)` words of counters and bits in memory; the I/O
//! cost is `sort(2E)` plus one scan per level, matching the
//! `O(E·log(E/M)/B)` preprocessing charge of Theorem 2.

use emalgo::external_sort_by_key;
use emsim::ExtVec;
use graphgen::Edge;
use kwise::{BitFunctionFamily, RefinedColoring};

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

/// Evaluates every candidate of `family` against the current colouring
/// `parent` on edge set `el`.
pub(crate) fn evaluate_candidates(
    el: &ExtVec<Edge>,
    parent: &RefinedColoring,
    family: &BitFunctionFamily,
) -> LevelEvaluation {
    let machine = el.machine().clone();
    let t = family.len();
    let parent_colors = 1u64 << parent.depth();
    // Parent colours are in [1, 2^depth]; class id of edge (u,v) is
    // (ξ(u)-1)·2^depth + (ξ(v)-1).
    let class_of =
        |e: &Edge| -> u64 { (parent.color(e.u) - 1) * parent_colors + (parent.color(e.v) - 1) };

    // Entry: word0 = parent class, word1 = (vertex << 32) | other.
    let mut incidence: ExtVec<(u64, u64)> = ExtVec::new(&machine);
    for e in el.iter() {
        machine.work(1);
        let cls = class_of(&e);
        incidence.push((cls, ((e.u as u64) << 32) | e.v as u64));
        incidence.push((cls, ((e.v as u64) << 32) | e.u as u64));
    }
    let sorted = external_sort_by_key(&incidence, |&(cls, vo)| (cls, vo));
    drop(incidence);

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
    let flush = |counts: &mut [[u64; 4]], x: &mut [u128]| {
        for (cs, xj) in counts.iter_mut().zip(x) {
            for c in cs.iter_mut() {
                *xj += pairs(*c);
                *c = 0;
            }
        }
    };
    let mut current: Option<(u64, u32)> = None;
    for (cls, vo) in sorted.iter() {
        machine.work(t as u64);
        let vertex = (vo >> 32) as u32;
        let other = (vo & 0xffff_ffff) as u32;
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
        let owner = vertex < other;
        let bits = vertex_bits.iter().zip(&other_bits);
        for ((vc, cc), (&bx, &bo)) in vertex_counts.iter_mut().zip(&mut class_counts).zip(bits) {
            // Ordered (smaller endpoint, larger endpoint) bit pair.
            let (lo, hi) = if owner { (bx, bo) } else { (bo, bx) };
            let idx = usize::from(lo) * 2 + usize::from(hi);
            vc[idx] += 1;
            cc[idx] += u64::from(owner);
        }
    }
    flush(&mut vertex_counts, &mut x_adj);
    flush(&mut class_counts, &mut x_total);

    LevelEvaluation { x_total, x_adj }
}

/// Reference (in-core) computation of the same statistics for one concrete
/// refinement — used by the unit tests to validate `evaluate_candidates`.
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
    use emsim::{EmConfig, Machine};
    use graphgen::generators;

    #[test]
    fn pairs_formula() {
        assert_eq!(pairs(0), 0);
        assert_eq!(pairs(1), 0);
        assert_eq!(pairs(2), 1);
        assert_eq!(pairs(10), 45);
    }

    #[test]
    fn candidate_statistics_match_reference() {
        let check = |mut edges: Vec<Edge>, parent: &RefinedColoring, fam: &BitFunctionFamily| {
            let machine = Machine::new(EmConfig::new(1 << 11, 64));
            edges.sort_unstable();
            let el = ExtVec::from_slice(&machine, &edges);
            let eval = evaluate_candidates(&el, parent, fam);
            for j in 0..fam.len() {
                let refined_color = |v: u32| -> u64 {
                    2 * parent.color(v) - u64::from(fam.function(j).eval_bit(v as u64))
                };
                let (x_total, x_adj) = reference_statistics(&edges, refined_color);
                assert_eq!(eval.x_total[j], x_total, "candidate {j} x_total");
                assert_eq!(eval.x_adj[j], x_adj, "candidate {j} x_adj");
                assert!(eval.x_nonadj(j) <= eval.x_total[j]);
            }
        };
        let er = generators::erdos_renyi(100, 600, 21).edges().to_vec();
        let fam = BitFunctionFamily::new(6, 42);

        // One refinement level already applied, so parent classes are
        // non-trivial.
        let mut depth1 = RefinedColoring::identity();
        depth1.push(fam.function(5));
        check(er.clone(), &depth1, &fam);

        // Sixteen parent classes: class runs end, and their counters flush,
        // all through the scan.
        let mut depth2 = depth1.clone();
        depth2.push(BitFunctionFamily::new(3, 8).function(1));
        check(er.clone(), &depth2, &fam);

        // A hub adjacent to every other vertex: its incidences span every
        // class its colour takes part in, so one vertex's runs cross class
        // boundaries.
        let mut hub = generators::star(100).edges().to_vec();
        hub.extend(&er);
        hub.sort_unstable();
        hub.dedup();
        check(hub, &depth2, &fam);

        // A one-candidate family.
        check(er, &depth1, &BitFunctionFamily::new(1, 5));
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
        let eval = evaluate_candidates(&el, &parent, &fam);
        let potentials: Vec<f64> = (0..fam.len()).map(|j| eval.potential(j, 1, 4)).collect();
        let min = potentials.iter().cloned().fold(f64::INFINITY, f64::min);
        let avg = potentials.iter().sum::<f64>() / potentials.len() as f64;
        assert!(min <= avg);
        assert!(min > 0.0);
    }
}
