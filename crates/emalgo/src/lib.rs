//! # emalgo — external-memory algorithmic primitives
//!
//! The building blocks every algorithm in the paper assumes:
//!
//! * [`external_sort_by_key`] — the classic **cache-aware multiway
//!   mergesort**: run formation over `Θ(M)`-word chunks followed by
//!   `(M/B − 1)`-way merge passes, achieving the textbook
//!   `sort(n) = O((n/B)·log_{M/B}(n/B))` I/O bound. This is the `sort`
//!   primitive used by the cache-aware algorithms (Sections 2 and 4 of the
//!   paper) and by the Hu–Tao–Chung and Dementiev baselines.
//! * [`oblivious_sort_by_key`] — a **cache-oblivious recursive mergesort**
//!   whose code never consults `M` or `B`; under the simulator's LRU cache it
//!   costs `O((n/B)·log_2(n/M))` I/Os, which is what Theorem 1's proof needs
//!   from "any efficient cache-oblivious sorting algorithm" (funnelsort would
//!   shave the base of the logarithm; the experiment harness reports the
//!   sort share so the difference is visible and immaterial at our scales).
//! * [`kway_merge`] — a **buffered streaming k-way merge**: one in-core head
//!   element per sorted cursor (gauge-accounted), everything else streamed
//!   through the block cache, yielding the merged order as an iterator
//!   without materialising it. It is the merge pass of the cache-aware sort
//!   and the on-the-fly colour-class union of the cache-aware triangle
//!   algorithms' step 3.
//! * [`scan_filter`], [`is_sorted_by_key`] — scanning utilities with the
//!   obvious `O(n/B)` costs.
//! * [`scan_partition`] — a **multi-way single-pass partition**: every
//!   element is classified once and routed to any subset of up to
//!   [`MAX_PARTITION_BUCKETS`] output buckets in one scan.
//! * [`kway_merge_tagged`] — the merge with **source tags**: each yielded
//!   element names the cursor it came from. It drives [`KWayMerge`] and the
//!   sharded runs' epilogue, which merges the per-worker triangle runs.
//!
//! All primitives operate on [`emsim::ExtVec`] arrays so that every block
//! transfer is accounted for by the simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod merge;
mod oblivious;
mod partition;
mod sort;

pub use merge::{
    is_sorted_by_key, kway_merge, kway_merge_tagged, scan_filter, KWayMerge, KWayMergeTagged,
};
pub use oblivious::oblivious_sort_by_key;
pub use partition::{scan_partition, MAX_PARTITION_BUCKETS};
pub use sort::{external_sort_by_key, external_sort_by_key_with_stats, SortStats};

#[cfg(test)]
mod tests {
    use super::*;
    use emsim::{EmConfig, ExtVec, Machine};
    use rand::prelude::*;

    #[test]
    fn both_sorts_agree_with_std_sort() {
        let mut rng = StdRng::seed_from_u64(1);
        let machine = Machine::new(EmConfig::new(512, 64));
        let data: Vec<u64> = (0..5000).map(|_| rng.random_range(0..100_000)).collect();
        let v = ExtVec::from_slice(&machine, &data);

        let aware = external_sort_by_key(&v, |x| *x);
        let oblivious = oblivious_sort_by_key(&v, |x| *x);

        let mut expected = data.clone();
        expected.sort_unstable();
        assert_eq!(aware.load_all(), expected);
        assert_eq!(oblivious.load_all(), expected);
    }

    #[test]
    fn aware_sort_uses_fewer_ios_than_oblivious_binary_mergesort() {
        // With a decent fanout the multiway sort does ~2 passes while the
        // binary mergesort does ~log2(n/M) passes; just confirm both are in a
        // sane range and the aware sort does not lose.
        let machine = Machine::new(EmConfig::new(1 << 12, 64));
        let n = 200_000usize;
        let data: Vec<u64> = (0..n as u64).rev().collect();
        let v = ExtVec::from_slice(&machine, &data);
        machine.cold_cache();

        let before = machine.io().total();
        let a = external_sort_by_key(&v, |x| *x);
        let aware_io = machine.io().total() - before;
        drop(a);

        machine.cold_cache();
        let before = machine.io().total();
        let b = oblivious_sort_by_key(&v, |x| *x);
        let obl_io = machine.io().total() - before;
        drop(b);

        assert!(
            aware_io <= obl_io,
            "multiway ({aware_io}) should not exceed binary mergesort ({obl_io})"
        );
        // Both are within a small factor of the analytic sort bound.
        let bound = machine.config().sort_cost(n) as f64;
        assert!((aware_io as f64) < 8.0 * bound);
        assert!((obl_io as f64) < 40.0 * bound);
    }
}
