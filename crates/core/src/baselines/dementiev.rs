//! Dementiev's sort-based triangle algorithm.
//!
//! The classic external node-iterator: orient every edge from its
//! lower-ordered to its higher-ordered endpoint, generate every *wedge*
//! (a path `u – v – w` with `u` preceding both `v` and `w`), sort the wedges
//! by their missing edge `{v, w}`, and merge them against the sorted edge
//! list; wedges whose missing edge exists are triangles.
//!
//! The wedge file has `Σ_u C(deg⁺(u), 2) = O(E^{3/2})` entries, so the
//! total cost is `O(sort(E^{3/2}))` I/Os — the bound the paper quotes for
//! Dementiev's algorithm. The same routine (with the cache-oblivious sort and
//! a colour filter) closes the cache-oblivious recursion's oversized
//! depth-limit leaves, in `cache_oblivious::process_node`.

use emsim::ExtVec;
use graphgen::{Edge, Triangle};

use crate::sink::TriangleSink;
use crate::util::{sort_by_key, SortKind};

/// Enumerates every triangle of `edges` (canonical edge list) that passes
/// `filter`, using only sorts and scans. Returns the number emitted.
pub(crate) fn sort_based_enumeration(
    edges: &ExtVec<Edge>,
    kind: SortKind,
    mut filter: impl FnMut(Triangle) -> bool,
    sink: &mut dyn TriangleSink,
) -> u64 {
    let machine = edges.machine().clone();
    if edges.len() < 3 {
        return 0;
    }

    // The orientation "smaller id → larger id" is the degree orientation,
    // because the canonical graphs renumber vertices in degree order. Most
    // callers (the canonical edge list of a loaded graph, the cache-oblivious
    // base case) already hand over a lexicographically sorted list, so check
    // with one scan before paying for a sort.
    let sorted_owned;
    let sorted = if emalgo::is_sorted_by_key(edges, |e| (e.u, e.v)) {
        edges
    } else {
        sorted_owned = sort_by_key(edges, kind, |e| (e.u, e.v));
        &sorted_owned
    };

    // ---- Wedge generation: one scan grouped by the smaller endpoint. ----
    let mut wedges: ExtVec<(u32, u32, u32)> = ExtVec::new(&machine);
    {
        let mut lease = machine.gauge().lease(0);
        let mut current: Option<u32> = None;
        let mut out_neighbours: Vec<u32> = Vec::new();
        let flush = |u: u32, outn: &mut Vec<u32>, wedges: &mut ExtVec<(u32, u32, u32)>| {
            for i in 0..outn.len() {
                for j in (i + 1)..outn.len() {
                    machine.work(1);
                    let (v, w) = (outn[i].min(outn[j]), outn[i].max(outn[j]));
                    wedges.push((v, w, u));
                }
            }
            outn.clear();
        };
        for e in sorted.iter() {
            machine.work(1);
            if current != Some(e.u) {
                if let Some(u) = current {
                    flush(u, &mut out_neighbours, &mut wedges);
                }
                current = Some(e.u);
                lease.shrink(lease.words());
            }
            out_neighbours.push(e.v);
            lease.grow(1);
        }
        if let Some(u) = current {
            flush(u, &mut out_neighbours, &mut wedges);
        }
    }

    // ---- Sort wedges by missing edge and merge against the edge list. ----
    let wedges_sorted = sort_by_key(&wedges, kind, |&(v, w, _)| (v, w));
    drop(wedges);

    let mut emitted = 0u64;
    let mut edge_iter = sorted.iter().peekable();
    for (v, w, u) in wedges_sorted.iter() {
        machine.work(1);
        let target = Edge::new(v, w);
        while let Some(&e) = edge_iter.peek() {
            if e < target {
                edge_iter.next();
            } else {
                break;
            }
        }
        if edge_iter.peek() == Some(&target) {
            let t = Triangle::new(u, v, w);
            if filter(t) {
                sink.emit(t);
                emitted += 1;
            }
        }
    }
    emitted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CollectingSink, StrictSink};
    use emsim::{EmConfig, Machine};
    use graphgen::{generators, naive, Graph};

    fn canonical_ext(g: &Graph, machine: &Machine) -> ExtVec<Edge> {
        let mut edges: Vec<Edge> = g.edges().to_vec();
        edges.sort_unstable();
        ExtVec::from_slice(machine, &edges)
    }

    #[test]
    fn matches_oracle_for_both_sort_kinds() {
        let g = generators::erdos_renyi(90, 700, 13);
        let expected = naive::count_triangles(&g);
        for kind in [SortKind::Aware, SortKind::Oblivious] {
            let machine = Machine::new(EmConfig::new(1 << 10, 64));
            let edges = canonical_ext(&g, &machine);
            let mut sink = StrictSink::new();
            let n = sort_based_enumeration(&edges, kind, |_| true, &mut sink);
            assert_eq!(n, expected);
        }
    }

    #[test]
    fn unsorted_input_is_sorted_before_enumeration() {
        // The sorted fast path must not make unsorted inputs incorrect.
        let g = generators::erdos_renyi(70, 500, 3);
        let expected = naive::count_triangles(&g);
        let machine = Machine::new(EmConfig::new(1 << 10, 64));
        let mut edges: Vec<Edge> = g.edges().to_vec();
        edges.reverse();
        let ext = ExtVec::from_slice(&machine, &edges);
        let mut sink = StrictSink::new();
        let n = sort_based_enumeration(&ext, SortKind::Aware, |_| true, &mut sink);
        assert_eq!(n, expected);
    }

    #[test]
    fn presorted_input_skips_the_sort() {
        let machine = Machine::new(EmConfig::new(512, 32));
        let edges = canonical_ext(&generators::erdos_renyi(80, 600, 9), &machine);
        machine.cold_cache();
        let w0 = machine.stats().work_ops;
        let mut sink = StrictSink::new();
        sort_based_enumeration(&edges, SortKind::Oblivious, |_| true, &mut sink);
        let sorted_work = machine.stats().work_ops - w0;

        let mut reversed: Vec<Edge> = edges.load_all();
        reversed.reverse();
        let ext = ExtVec::from_slice(&machine, &reversed);
        machine.cold_cache();
        let w0 = machine.stats().work_ops;
        let mut sink = StrictSink::new();
        sort_based_enumeration(&ext, SortKind::Oblivious, |_| true, &mut sink);
        let unsorted_work = machine.stats().work_ops - w0;
        assert!(
            sorted_work < unsorted_work,
            "presorted input must do strictly less work ({sorted_work} vs {unsorted_work})"
        );
    }

    #[test]
    fn clique_and_triangle_free_edge_cases() {
        let machine = Machine::new(EmConfig::new(1 << 10, 64));
        let clique = canonical_ext(&generators::clique(10), &machine);
        let mut sink = CollectingSink::new();
        assert_eq!(
            sort_based_enumeration(&clique, SortKind::Aware, |_| true, &mut sink),
            120
        );

        let bip = canonical_ext(&generators::complete_bipartite(12, 12), &machine);
        let mut sink = CollectingSink::new();
        assert_eq!(
            sort_based_enumeration(&bip, SortKind::Aware, |_| true, &mut sink),
            0
        );

        let tiny = canonical_ext(&generators::path(3), &machine);
        let mut sink = CollectingSink::new();
        assert_eq!(
            sort_based_enumeration(&tiny, SortKind::Aware, |_| true, &mut sink),
            0
        );
    }

    #[test]
    fn filter_restricts_emissions() {
        let machine = Machine::new(EmConfig::new(1 << 10, 64));
        let edges = canonical_ext(&generators::clique(8), &machine);
        let mut sink = CollectingSink::new();
        let n = sort_based_enumeration(&edges, SortKind::Aware, |t| t.a == 0, &mut sink);
        assert_eq!(n, 21); // C(7,2) triangles have cone vertex 0
    }

    #[test]
    fn io_grows_superlinearly_in_edges_as_expected() {
        // The wedge volume grows like E^{3/2} on cliques, so doubling the
        // clique size should much more than double the I/Os.
        let cost = |n: usize| -> u64 {
            let machine = Machine::new(EmConfig::new(512, 32));
            let edges = canonical_ext(&generators::clique(n), &machine);
            machine.cold_cache();
            let before = machine.io().total();
            let mut sink = CollectingSink::new();
            sort_based_enumeration(&edges, SortKind::Aware, |_| true, &mut sink);
            machine.io().total() - before
        };
        let small = cost(16);
        let large = cost(32);
        assert!(
            large > 4 * small,
            "expected superlinear growth: {small} -> {large}"
        );
    }
}
