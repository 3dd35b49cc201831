//! Lemma 1: enumerating all triangles through a given vertex in
//! `O(sort(E))` I/Os.
//!
//! The paper's subroutine (used by the high-degree steps of every algorithm):
//!
//! 1. scan `E` to collect `Γ_v`, the neighbours of `v`, and sort it;
//! 2. scan `E` (already sorted by smaller endpoint) against `Γ_v` to keep the
//!    edges whose smaller endpoint is a neighbour of `v` (`E_v`);
//! 3. sort `E_v` by larger endpoint and scan it against `Γ_v` to keep the
//!    edges with **both** endpoints in `Γ_v` (`E'_v`);
//! 4. every `{u, w} ∈ E'_v` closes the triangle `{v, u, w}`.
//!
//! Each step is a sort or a simultaneous scan, so the total is `O(sort(E))`.

use emsim::ExtVec;
use graphgen::{Edge, Triangle, VertexId};

use crate::sink::TriangleSink;
use crate::util::{sort_by_key, SortKind};

/// Enumerates every triangle of `edges` that contains `v`, passing each
/// candidate through `filter` before emitting it to `sink`.
///
/// `edges` must be in canonical form (each edge `(u, w)` with `u < w`, sorted
/// lexicographically). Returns the number of triangles emitted.
///
/// The `filter` hook is how callers implement the paper's variations: the
/// cache-aware step 1 uses it to avoid double-emitting triangles with several
/// high-degree vertices, and the cache-oblivious step 1 uses it to keep only
/// triangles that are *proper* for the current colour multiset.
pub(crate) fn enumerate_through_vertex(
    edges: &ExtVec<Edge>,
    v: VertexId,
    kind: SortKind,
    mut filter: impl FnMut(Triangle) -> bool,
    sink: &mut dyn TriangleSink,
) -> u64 {
    let machine = edges.machine().clone();

    // Step 1: Γ_v by one scan, then sort.
    let mut gamma_raw: ExtVec<u32> = ExtVec::new(&machine);
    for e in edges.iter() {
        machine.work(1);
        if e.u == v {
            gamma_raw.push(e.v);
        } else if e.v == v {
            gamma_raw.push(e.u);
        }
    }
    if gamma_raw.is_empty() {
        return 0;
    }
    let gamma = sort_by_key(&gamma_raw, kind, |v| *v);
    drop(gamma_raw);

    // Step 2: E_v = edges whose smaller endpoint is in Γ_v
    // (simultaneous scan of the lexicographically sorted edge list and Γ_v).
    let mut e_v: ExtVec<Edge> = ExtVec::new(&machine);
    {
        let mut gi = gamma.iter().peekable();
        for e in edges.iter() {
            machine.work(1);
            while let Some(&g) = gi.peek() {
                if g < e.u {
                    gi.next();
                } else {
                    break;
                }
            }
            if gi.peek() == Some(&e.u) {
                e_v.push(e);
            }
        }
    }

    // Step 3: sort E_v by larger endpoint and keep edges whose larger
    // endpoint is also in Γ_v.
    let e_v_by_larger = sort_by_key(&e_v, kind, |e| e.v);
    drop(e_v);
    let mut emitted = 0u64;
    {
        let mut gi = gamma.iter().peekable();
        for e in e_v_by_larger.iter() {
            machine.work(1);
            while let Some(&g) = gi.peek() {
                if g < e.v {
                    gi.next();
                } else {
                    break;
                }
            }
            if gi.peek() == Some(&e.v) {
                // Step 4: {v, e.u, e.v} is a triangle (e.u, e.v ∈ Γ_v and
                // {e.u, e.v} ∈ E). Edges incident to v itself can never reach
                // this point because v ∉ Γ_v in a simple graph.
                debug_assert!(e.u != v && e.v != v);
                let t = Triangle::new(v, e.u, e.v);
                if filter(t) {
                    sink.emit(t);
                    emitted += 1;
                }
            }
        }
    }
    emitted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::ExtGraph;
    use crate::sink::CollectingSink;
    use emsim::{EmConfig, Machine};
    use graphgen::{generators, naive, Graph};

    fn run_for_vertex(g: &Graph, v: VertexId, kind: SortKind) -> Vec<Triangle> {
        // Use the graph's own ids (no degree reordering) to keep the test
        // easy to reason about: build the canonical sorted edge list manually.
        let machine = Machine::new(EmConfig::new(1 << 12, 64));
        let mut edges: Vec<Edge> = g.edges().to_vec();
        edges.sort_unstable();
        let ext = ExtVec::from_slice(&machine, &edges);
        let mut sink = CollectingSink::new();
        enumerate_through_vertex(&ext, v, kind, |_| true, &mut sink);
        sink.into_triangles()
    }

    #[test]
    fn finds_all_triangles_through_a_clique_vertex() {
        let g = generators::clique(7);
        for kind in [SortKind::Aware, SortKind::Oblivious] {
            let tris = run_for_vertex(&g, 3, kind);
            // Triangles through one vertex of K7: C(6,2) = 15.
            assert_eq!(tris.len(), 15);
            assert!(tris.iter().all(|t| t.a == 3 || t.b == 3 || t.c == 3));
            let distinct: std::collections::HashSet<_> = tris.iter().collect();
            assert_eq!(distinct.len(), 15);
        }
    }

    #[test]
    fn vertex_not_in_any_triangle_emits_nothing() {
        let g = generators::path(10);
        assert!(run_for_vertex(&g, 4, SortKind::Aware).is_empty());
        let g2 = generators::star(10);
        assert!(run_for_vertex(&g2, 0, SortKind::Aware).is_empty());
    }

    #[test]
    fn matches_oracle_restricted_to_vertex() {
        let g = generators::erdos_renyi(60, 500, 77);
        let all = naive::enumerate_triangles(&g);
        for v in [0u32, 7, 31] {
            let expected: std::collections::HashSet<Triangle> = all
                .iter()
                .copied()
                .filter(|t| t.a == v || t.b == v || t.c == v)
                .collect();
            let got: std::collections::HashSet<Triangle> =
                run_for_vertex(&g, v, SortKind::Aware).into_iter().collect();
            assert_eq!(got, expected, "vertex {v}");
        }
    }

    #[test]
    fn filter_can_suppress_emissions() {
        let g = generators::clique(5);
        let machine = Machine::new(EmConfig::new(1 << 12, 64));
        let eg = ExtGraph::load(&machine, &g);
        let mut sink = CollectingSink::new();
        let n = enumerate_through_vertex(eg.edges(), 0, SortKind::Aware, |t| t.c != 4, &mut sink);
        // Triangles through vertex 0 avoiding vertex 4: choose 2 from {1,2,3} = 3.
        assert_eq!(n, 3);
        assert_eq!(sink.len(), 3);
    }

    #[test]
    fn io_cost_is_within_constant_of_sort_bound() {
        let g = generators::erdos_renyi(300, 3000, 9);
        let machine = Machine::new(EmConfig::new(1 << 11, 64));
        let eg = ExtGraph::load(&machine, &g);
        machine.cold_cache();
        let before = machine.io().total();
        let mut sink = CollectingSink::new();
        enumerate_through_vertex(eg.edges(), 5, SortKind::Aware, |_| true, &mut sink);
        let cost = machine.io().total() - before;
        let bound = machine.config().sort_cost(eg.edge_count());
        assert!(
            cost <= 8 * bound,
            "Lemma 1 cost {cost} should be O(sort(E)) = O({bound})"
        );
    }
}
