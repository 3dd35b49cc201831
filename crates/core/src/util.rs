//! Shared external-memory helpers for the enumeration algorithms.

use emalgo::{external_sort_by_key, oblivious_sort_by_key};
use emsim::{ExtVec, Record};
use graphgen::{Edge, VertexId};

/// Which sorting primitive a (sub)algorithm is allowed to use.
///
/// The cache-aware algorithms use the multiway mergesort; the cache-oblivious
/// algorithm must not look at `M`/`B` and therefore uses the cache-oblivious
/// mergesort everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SortKind {
    /// Cache-aware multiway mergesort (`sort(n)` I/Os).
    Aware,
    /// Cache-oblivious recursive mergesort.
    Oblivious,
}

/// Sorts an external array by an arbitrary key with the chosen sort kind.
pub(crate) fn sort_by_key<T, K, F>(items: &ExtVec<T>, kind: SortKind, key: F) -> ExtVec<T>
where
    T: Record,
    K: Ord + Copy,
    F: Fn(&T) -> K,
{
    match kind {
        SortKind::Aware => external_sort_by_key(items, key),
        SortKind::Oblivious => oblivious_sort_by_key(items, key),
    }
}

/// Exact floor integer square root of a `u128` (Newton's method).
///
/// The paper's thresholds `⌊√(E·M)⌋` and `⌈√(E/M)⌉` must be exact: routing
/// them through `f64::sqrt` mis-rounds near perfect squares once the product
/// exceeds 2⁵³ (a degree-2¹⁶-off-by-one at `E·M ≈ 2⁶²` flips which vertices
/// count as high-degree).
pub(crate) fn isqrt_u128(n: u128) -> u128 {
    if n < 2 {
        return n;
    }
    // Initial guess ≥ √n, then monotone Newton descent to the floor root.
    let mut x0 = 1u128 << (n.ilog2() / 2 + 1);
    let mut x1 = (x0 + n / x0) / 2;
    while x1 < x0 {
        x0 = x1;
        x1 = (x0 + n / x0) / 2;
    }
    x0
}

/// Removes from `edges` every edge incident to a vertex in `forbidden`
/// (given as a sorted slice), returning the filtered array. One scan.
pub(crate) fn remove_incident_edges(edges: &ExtVec<Edge>, forbidden: &[VertexId]) -> ExtVec<Edge> {
    let machine = edges.machine().clone();
    let mut out: ExtVec<Edge> = ExtVec::new(&machine);
    for e in edges.iter() {
        machine.work(1);
        if forbidden.binary_search(&e.u).is_err() && forbidden.binary_search(&e.v).is_err() {
            out.push(e);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use emsim::{EmConfig, Machine};

    fn load(edges: &[(u32, u32)]) -> (Machine, ExtVec<Edge>) {
        let machine = Machine::new(EmConfig::new(1 << 10, 64));
        let v = ExtVec::from_slice(
            &machine,
            &edges
                .iter()
                .map(|&(a, b)| Edge::new(a, b))
                .collect::<Vec<_>>(),
        );
        (machine, v)
    }

    #[test]
    fn isqrt_is_exact_on_and_around_perfect_squares() {
        assert_eq!(isqrt_u128(0), 0);
        assert_eq!(isqrt_u128(1), 1);
        assert_eq!(isqrt_u128(2), 1);
        assert_eq!(isqrt_u128(3), 1);
        assert_eq!(isqrt_u128(4), 2);
        for k in [
            7u128,
            1 << 26,
            (1 << 26) + 1,
            (1 << 31) - 1,
            1 << 31,
            3_037_000_499,    // isqrt(2^63) territory
            u64::MAX as u128, // k² just below 2^128
        ] {
            assert_eq!(isqrt_u128(k * k), k, "k={k}");
            assert_eq!(isqrt_u128(k * k - 1), k - 1, "k={k}");
            assert_eq!(isqrt_u128(k * k + 2 * k), k, "k={k}");
            if let Some(next_square) = (k * k).checked_add(2 * k + 1) {
                assert_eq!(isqrt_u128(next_square), k + 1, "k={k}");
            }
        }
    }

    #[test]
    fn removal_keeps_the_surviving_edges_in_input_order() {
        let (_m, edges) = load(&[(0, 1), (0, 2), (0, 3), (2, 3), (1, 4)]);
        let rest = remove_incident_edges(&edges, &[0]).load_all();
        assert_eq!(rest, vec![Edge::new(2, 3), Edge::new(1, 4)]);
    }

    #[test]
    fn remove_with_empty_forbidden_is_identity() {
        let (_m, edges) = load(&[(0, 1), (1, 2)]);
        assert_eq!(
            remove_incident_edges(&edges, &[]).load_all(),
            edges.load_all()
        );
    }
}
