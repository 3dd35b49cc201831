//! Multi-way single-pass partitioning.
//!
//! The cache-oblivious recursion of the paper (Section 3) splits a subproblem
//! into up to eight children, each child keeping the edges compatible with
//! one refined colour multiset. Implemented naively that is one independent
//! filtering scan per child over the same input — up to eight times the
//! read volume and as many evaluations of the colouring per element. The
//! [`scan_partition`] primitive below does the same routing in **one** scan:
//! the caller classifies each element once and returns a bitmask naming every
//! bucket that should receive a copy.
//!
//! Cost model: one read scan of the input (`⌈n·w/B⌉` I/Os on a cold cache)
//! plus the sequential write volume of the buckets. Keeping `k` output
//! buckets open requires one active block per bucket, so the primitive
//! assumes `M ≥ (k + 1)·B` — the standard tall-cache-style requirement of
//! any k-way distribution step; `k` itself is a constant, so the primitive
//! remains legal in the cache-oblivious model (which forbids consulting `M`
//! and `B`, not constants). The `O(k)` words of in-core routing state are
//! registered on the machine's [`emsim::MemGauge`] for the duration of the
//! scan.

use emsim::{ExtVec, Record};

/// Maximum number of output buckets of [`scan_partition`] (the routing mask
/// is a `u32`).
pub const MAX_PARTITION_BUCKETS: usize = 32;

/// Routes every element of `input` into up to `buckets` output arrays in a
/// single scan.
///
/// `route` is called exactly once per element and returns a bitmask: bit `i`
/// set means "append a copy to bucket `i`". An element may be sent to
/// several buckets or (mask `0`) to none. Bits at positions `≥ buckets` are
/// ignored. Relative input order is preserved within every bucket, so sorted
/// inputs produce sorted buckets. One unit of work per element; the `O(k)`
/// words of routing state are leased on the gauge for the scan.
///
/// # Panics
///
/// Panics if `buckets` is `0` or exceeds [`MAX_PARTITION_BUCKETS`].
pub fn scan_partition<T, F>(input: &ExtVec<T>, buckets: usize, mut route: F) -> Vec<ExtVec<T>>
where
    T: Record,
    F: FnMut(&T) -> u32,
{
    assert!(
        (1..=MAX_PARTITION_BUCKETS).contains(&buckets),
        "bucket count {buckets} outside 1..={MAX_PARTITION_BUCKETS}"
    );
    let machine = input.machine();
    let _lease = machine.gauge().lease(buckets as u64);
    let live = if buckets == MAX_PARTITION_BUCKETS {
        u32::MAX
    } else {
        (1u32 << buckets) - 1
    };
    let mut out: Vec<ExtVec<T>> = (0..buckets).map(|_| ExtVec::new(machine)).collect();
    for x in input.iter() {
        let mut mask = route(&x) & live;
        machine.work(1);
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            out[i].push(x);
            mask &= mask - 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan_filter;
    use emsim::{EmConfig, Machine};

    fn m() -> Machine {
        Machine::new(EmConfig::new(1 << 10, 64))
    }

    #[test]
    fn routes_every_element_and_preserves_order() {
        let machine = m();
        let v = ExtVec::from_slice(&machine, &(0..100u64).collect::<Vec<_>>());
        let parts = scan_partition(&v, 4, |x| 1 << (x % 4));
        assert_eq!(parts.len(), 4);
        for (i, p) in parts.iter().enumerate() {
            let got = p.load_all();
            assert_eq!(got.len(), 25);
            assert!(got.iter().all(|x| x % 4 == i as u64));
            assert!(got.windows(2).all(|w| w[0] < w[1]), "order preserved");
        }
    }

    #[test]
    fn multi_bucket_masks_duplicate_and_zero_masks_drop() {
        let machine = m();
        let v = ExtVec::from_slice(&machine, &[1u64, 2, 3, 4]);
        // Odd values to buckets 0 and 2, the value 2 nowhere, 4 to bucket 1.
        let parts = scan_partition(&v, 3, |x| match x {
            x if x % 2 == 1 => 0b101,
            4 => 0b010,
            _ => 0,
        });
        assert_eq!(parts[0].load_all(), vec![1, 3]);
        assert_eq!(parts[1].load_all(), vec![4]);
        assert_eq!(parts[2].load_all(), vec![1, 3]);
    }

    #[test]
    fn bits_beyond_bucket_count_are_ignored() {
        let machine = m();
        let v = ExtVec::from_slice(&machine, &[7u64]);
        let parts = scan_partition(&v, 2, |_| u32::MAX);
        assert_eq!(parts[0].load_all(), vec![7]);
        assert_eq!(parts[1].load_all(), vec![7]);
    }

    #[test]
    fn agrees_with_per_bucket_filter_scans() {
        let machine = m();
        let data: Vec<u64> = (0..500).map(|i| i * 2654435761 % 1000).collect();
        let v = ExtVec::from_slice(&machine, &data);
        let classify = |x: &u64| -> u32 {
            let mut mask = 0;
            if *x < 500 {
                mask |= 1;
            }
            if x.is_multiple_of(3) {
                mask |= 2;
            }
            if x % 5 == 1 {
                mask |= 4;
            }
            mask
        };
        let parts = scan_partition(&v, 3, classify);
        for (i, p) in parts.iter().enumerate() {
            let filtered = scan_filter(&v, |x| classify(x) & (1 << i) != 0);
            assert_eq!(p.load_all(), filtered.load_all(), "bucket {i}");
        }
    }

    #[test]
    fn single_scan_reads_input_once() {
        // 8 buckets + the input stream fit the cache, so the read side must
        // cost exactly one scan of the input — that is the whole point of the
        // primitive versus 8 filter passes.
        let machine = Machine::new(EmConfig::new(1 << 10, 64)); // 16 frames
        let n = 64 * 40usize;
        let v = ExtVec::from_slice(&machine, &(0..n as u64).collect::<Vec<_>>());
        machine.cold_cache();
        let before = machine.io();
        let parts = scan_partition(&v, 8, |x| 1 << (x % 8));
        assert_eq!(parts.iter().map(ExtVec::len).sum::<usize>(), n);
        let reads = machine.io().reads - before.reads;
        assert_eq!(reads, 40, "one sequential scan of 40 blocks");
    }

    #[test]
    fn work_counter_charges_one_op_per_element() {
        let machine = m();
        let v = ExtVec::from_slice(&machine, &(0..77u64).collect::<Vec<_>>());
        let before = machine.stats().work_ops;
        let _ = scan_partition(&v, 2, |_| 0b11);
        assert_eq!(machine.stats().work_ops - before, 77);
    }

    #[test]
    fn routing_state_is_gauge_accounted() {
        let machine = m();
        let v = ExtVec::from_slice(&machine, &[1u64]);
        machine.gauge().reset_peak();
        let _ = scan_partition(&v, 8, |_| 0);
        assert!(machine.gauge().peak() >= 8);
        assert_eq!(machine.gauge().in_use(), 0, "lease released after the scan");
    }

    #[test]
    #[should_panic]
    fn zero_buckets_rejected() {
        let machine = m();
        let v = ExtVec::from_slice(&machine, &[1u64]);
        let _ = scan_partition(&v, 0, |_| 0);
    }
}
