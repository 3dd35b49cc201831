//! Colour-class partitioning of the edge set (paper Section 2, step 2).
//!
//! Given a colouring `ξ : V → {0, …, c−1}`, the low-degree edge set `E_l` is
//! partitioned into the `c²` classes
//! `E_{τ1,τ2} = {(v1,v2) ∈ E_l | v1 < v2, ξ(v1) = τ1, ξ(v2) = τ2}`.
//! The partition is materialised as **one** edge array sorted by
//! `(class, v1, v2)` plus an in-core offset table of `c² + 1` entries
//! (`c² ≤ E/M ≤ M` under the paper's assumptions, so the table respects the
//! memory budget and is accounted on the gauge by the caller).

use emalgo::external_sort_by_key;
use emsim::{ExtSlice, ExtVec};
use graphgen::{Edge, VertexId};

/// The partition of an edge set into colour classes.
pub(crate) struct ColorPartition {
    edges: ExtVec<Edge>,
    offsets: Vec<usize>,
    c: u64,
}

impl ColorPartition {
    /// Builds the partition of `el` under `color` with `c` colours, using the
    /// cache-aware sort (`O(sort(E))` I/Os).
    pub(crate) fn build(el: &ExtVec<Edge>, c: u64, color: &dyn Fn(VertexId) -> u64) -> Self {
        assert!(c >= 1);
        let class_of = |e: &Edge| -> u64 { color(e.u) * c + color(e.v) };
        // Sort by (class, edge) so that every class is a contiguous,
        // lexicographically sorted range.
        let sorted = external_sort_by_key(el, |e| (class_of(e), e.u, e.v));

        // Derive the class boundaries from the sorted run structure: each
        // boundary is a partition point located by binary search on a view
        // narrowed by the previous boundary ([`ExtSlice::partition_point`]),
        // so finding all of them costs `O(c² log E)` colour probes against
        // cached blocks instead of re-evaluating `class_of` — two hash
        // chains — on every edge in a full second scan of the array. An
        // empty edge set (every class empty) skips the searches entirely.
        let classes = (c * c) as usize;
        let n = sorted.len();
        // emlint: allow(unleased, reason = "the c²+1 offset table is leased by the caller via index_words() — see cache_aware.rs _index_lease")
        let mut offsets = vec![0usize; classes + 1];
        offsets[classes] = n;
        if n > 0 {
            for k in 1..classes {
                // First index whose class is ≥ k; classes are sorted, so the
                // search space starts at the previous boundary.
                let tail = sorted.as_slice().slice(offsets[k - 1], n);
                offsets[k] = offsets[k - 1] + tail.partition_point(|e| class_of(e) < k as u64);
            }
        }

        Self {
            edges: sorted,
            offsets,
            c,
        }
    }

    /// Number of edges in class `(τ1, τ2)`.
    pub(crate) fn class_len(&self, t1: u64, t2: u64) -> usize {
        let k = (t1 * self.c + t2) as usize;
        self.offsets[k + 1] - self.offsets[k]
    }

    /// Total number of partitioned edges. The offset table always holds
    /// `c² + 1 ≥ 2` entries (`build` asserts `c ≥ 1`), so this is total even
    /// for an empty partition of an empty edge set.
    #[cfg(test)]
    pub(crate) fn total_edges(&self) -> usize {
        self.offsets.last().copied().unwrap_or(0)
    }

    /// The number of words the in-core offset table occupies (for gauge
    /// accounting by the caller).
    pub(crate) fn index_words(&self) -> u64 {
        self.offsets.len() as u64
    }

    /// Zero-copy view of class `(τ1, τ2)`: the class's contiguous,
    /// lexicographically sorted range of the partition array. Creating the
    /// view moves no blocks and registers nothing on the gauge — this is
    /// what step 3 hands to the multi-cone Lemma 2 instead of copies.
    pub(crate) fn class_slice(&self, t1: u64, t2: u64) -> ExtSlice<'_, Edge> {
        let k = (t1 * self.c + t2) as usize;
        self.edges.slice(self.offsets[k], self.offsets[k + 1])
    }

    /// The colour-balance statistic
    /// `X_ξ = Σ_{τ1,τ2} C(|E_{τ1,τ2}|, 2)` of equation (1) — the quantity
    /// Lemma 3 bounds by `E·M` in expectation and the derandomization keeps
    /// below `e·E·M`.
    pub(crate) fn x_statistic(&self) -> u128 {
        let mut x = 0u128;
        for k in 0..(self.c * self.c) as usize {
            let n = (self.offsets[k + 1] - self.offsets[k]) as u128;
            x += n * n.saturating_sub(1) / 2;
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emsim::{EmConfig, Machine};
    use graphgen::generators;
    use kwise::RandomColoring;

    fn setup(c: u64, seed: u64) -> (Machine, ExtVec<Edge>, ColorPartition, RandomColoring) {
        let g = generators::erdos_renyi(120, 700, seed);
        let machine = Machine::new(EmConfig::new(1 << 12, 64));
        let mut edges: Vec<Edge> = g.edges().to_vec();
        edges.sort_unstable();
        let el = ExtVec::from_slice(&machine, &edges);
        let coloring = RandomColoring::new(c, seed + 1);
        let part = ColorPartition::build(&el, c, &|v| coloring.color(v));
        (machine, el, part, coloring)
    }

    #[test]
    fn partition_covers_every_edge_exactly_once() {
        let (_m, el, part, coloring) = setup(4, 3);
        assert_eq!(part.total_edges(), el.len());
        let mut reassembled: Vec<Edge> = Vec::new();
        for t1 in 0..4 {
            for t2 in 0..4 {
                let class = part.class_slice(t1, t2).load();
                assert_eq!(class.len(), part.class_len(t1, t2));
                for e in &class {
                    assert_eq!(coloring.color(e.u), t1, "wrong colour of smaller endpoint");
                    assert_eq!(coloring.color(e.v), t2, "wrong colour of larger endpoint");
                }
                reassembled.extend(class);
            }
        }
        reassembled.sort_unstable();
        assert_eq!(reassembled, el.load_all());
    }

    #[test]
    fn class_slices_are_zero_copy_and_agree_with_extraction() {
        let (m, el, part, coloring) = setup(4, 7);
        m.cold_cache();
        let before = m.io().total();
        let mut covered = 0usize;
        for t1 in 0..4 {
            for t2 in 0..4 {
                let s = part.class_slice(t1, t2);
                assert_eq!(s.len(), part.class_len(t1, t2));
                covered += s.len();
            }
        }
        assert_eq!(m.io().total(), before, "creating views must move no blocks");
        assert_eq!(covered, part.total_edges());
        let all = el.load_all();
        for t1 in 0..4 {
            for t2 in 0..4 {
                let expected: Vec<Edge> = all
                    .iter()
                    .copied()
                    .filter(|e| coloring.color(e.u) == t1 && coloring.color(e.v) == t2)
                    .collect();
                assert_eq!(
                    part.class_slice(t1, t2).load(),
                    expected,
                    "class ({t1},{t2})"
                );
            }
        }
    }

    #[test]
    fn x_statistic_matches_direct_computation() {
        let (_m, el, part, coloring) = setup(4, 9);
        let mut counts = std::collections::HashMap::new();
        for e in el.load_all() {
            *counts
                .entry((coloring.color(e.u), coloring.color(e.v)))
                .or_insert(0u128) += 1;
        }
        let expected: u128 = counts.values().map(|&n| n * (n - 1) / 2).sum();
        assert_eq!(part.x_statistic(), expected);
    }

    #[test]
    fn empty_edge_set_partitions_into_all_empty_classes() {
        let machine = Machine::new(EmConfig::new(256, 32));
        let el: ExtVec<Edge> = ExtVec::new(&machine);
        for c in [1u64, 3] {
            let part = ColorPartition::build(&el, c, &|v| v as u64 % c);
            assert_eq!(part.total_edges(), 0);
            assert_eq!(part.x_statistic(), 0);
            for t1 in 0..c {
                for t2 in 0..c {
                    assert_eq!(part.class_len(t1, t2), 0);
                    assert!(part.class_slice(t1, t2).is_empty());
                }
            }
            assert_eq!(part.index_words(), c * c + 1);
        }
    }

    #[test]
    fn single_color_partition_is_the_whole_edge_set() {
        let (_m, el, part, _col) = setup(1, 2);
        assert_eq!(part.class_len(0, 0), el.len());
        let n = el.len() as u128;
        assert_eq!(part.x_statistic(), n * (n - 1) / 2);
    }
}
