//! Cache-oblivious recursive mergesort.
//!
//! The cache-oblivious algorithm of the paper (Section 3) must not consult
//! `M` or `B`; in particular its sorting subroutine must be cache-oblivious.
//! This module provides a recursive two-way mergesort over [`emsim::ExtVec`]
//! arrays:
//!
//! * the recursion splits the range in half until a small **constant** base
//!   size (constants are allowed in the cache-oblivious model — what is
//!   forbidden is dependence on the machine parameters),
//! * merging is a simultaneous sequential scan of the two sorted halves.
//!
//! Under an (ideal or LRU) cache, every recursion subtree whose data fits in
//! internal memory incurs no further misses after it is first loaded, so the
//! cost is `O((n/B)·log_2(n/M))` I/Os without the code ever knowing `M` or
//! `B`. (Funnelsort improves the log base to `M/B`; it is not implemented
//! because the sorting term is a lower-order contribution to the
//! triangle-enumeration totals.)

use emsim::{ExtVec, Record};

/// Elements at or below this count are sorted directly; a fixed constant,
/// independent of the machine parameters.
const BASE: usize = 32;

/// Sorts `input` by `key` cache-obliviously and returns a new sorted array.
///
/// Already-sorted input is detected by a single fully charged scan (one unit
/// of work per element, the usual `O(n/B)` sequential read cost) and copied
/// out directly — `O(n/B)` I/Os instead of the `log` merge passes. This is
/// what lets call sites keep a defensive sort in front of data that an
/// order-preserving partition already delivers sorted: the defence costs a
/// scan, not a sort.
pub fn oblivious_sort_by_key<T, K, F>(input: &ExtVec<T>, key: F) -> ExtVec<T>
where
    T: Record,
    K: Ord + Copy,
    F: Fn(&T) -> K,
{
    let machine = input.machine().clone();
    if input.is_empty() {
        return ExtVec::new(&machine);
    }
    if crate::is_sorted_by_key(input, &key) {
        let mut out: ExtVec<T> = ExtVec::new(&machine);
        for x in input.iter() {
            machine.work(1);
            out.push(x);
        }
        return out;
    }
    sort_range(input, 0, input.len(), &key)
}

fn sort_range<T, K, F>(input: &ExtVec<T>, lo: usize, hi: usize, key: &F) -> ExtVec<T>
where
    T: Record,
    K: Ord + Copy,
    F: Fn(&T) -> K,
{
    let machine = input.machine().clone();
    let n = hi - lo;
    if n <= BASE {
        // Constant-size base case: read, sort, write.
        let _lease = machine.gauge().lease((n * T::WORDS) as u64);
        let mut buf = input.load_range(lo, hi);
        // emlint: charge(work, n as u64 * 6)
        buf.sort_by_key(|t| key(t));
        machine.work(n as u64 * 6);
        return ExtVec::from_slice(&machine, &buf);
    }
    let mid = lo + n / 2;
    let left = sort_range(input, lo, mid, key);
    let right = sort_range(input, mid, hi, key);
    merge_two(&left, &right, key)
}

fn merge_two<T, K, F>(a: &ExtVec<T>, b: &ExtVec<T>, key: &F) -> ExtVec<T>
where
    T: Record,
    K: Ord + Copy,
    F: Fn(&T) -> K,
{
    let machine = a.machine().clone();
    let mut out: ExtVec<T> = ExtVec::new(&machine);
    let (mut i, mut j) = (0usize, 0usize);
    let (na, nb) = (a.len(), b.len());
    while i < na && j < nb {
        machine.work(1);
        let x = a.get(i);
        let y = b.get(j);
        if key(&x) <= key(&y) {
            out.push(x);
            i += 1;
        } else {
            out.push(y);
            j += 1;
        }
    }
    while i < na {
        out.push(a.get(i));
        i += 1;
    }
    while j < nb {
        out.push(b.get(j));
        j += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use emsim::{EmConfig, Machine};
    use rand::prelude::*;

    #[test]
    fn sorts_small_and_edge_cases() {
        let m = Machine::new(EmConfig::new(256, 64));
        let empty: ExtVec<u64> = ExtVec::new(&m);
        assert!(oblivious_sort_by_key(&empty, |x| *x).is_empty());
        let one = ExtVec::from_slice(&m, &[9u64]);
        assert_eq!(oblivious_sort_by_key(&one, |x| *x).load_all(), vec![9]);
        let dup = ExtVec::from_slice(&m, &[3u64, 3, 3, 1, 1]);
        assert_eq!(
            oblivious_sort_by_key(&dup, |x| *x).load_all(),
            vec![1, 1, 3, 3, 3]
        );
    }

    #[test]
    fn sorts_random_input() {
        let m = Machine::new(EmConfig::new(512, 64));
        let mut rng = StdRng::seed_from_u64(11);
        let data: Vec<u64> = (0..7777).map(|_| rng.random_range(0..10_000)).collect();
        let v = ExtVec::from_slice(&m, &data);
        let out = oblivious_sort_by_key(&v, |x| *x).load_all();
        let mut expected = data;
        expected.sort_unstable();
        assert_eq!(out, expected);
    }

    #[test]
    fn more_memory_means_fewer_misses_without_code_changes() {
        // The essence of cache-obliviousness: the same code, run on machines
        // that differ only in M, automatically benefits from the larger
        // memory. (The algorithm itself never reads M.)
        let n = 50_000usize;
        let data: Vec<u64> = (0..n as u64).rev().collect();

        let run = |mem: usize| -> u64 {
            let m = Machine::new(EmConfig::new(mem, 64));
            let v = ExtVec::from_slice(&m, &data);
            m.cold_cache();
            let before = m.io().total();
            let s = oblivious_sort_by_key(&v, |x| *x);
            assert_eq!(s.len(), n);
            m.io().total() - before
        };

        let small = run(1 << 9);
        let large = run(1 << 15);
        assert!(
            large * 2 < small,
            "larger memory should cut misses substantially: small={small}, large={large}"
        );
    }

    #[test]
    fn already_sorted_input_early_exits_at_scan_cost() {
        let m = Machine::new(EmConfig::new(512, 64));
        let n = 64 * 200usize;
        let sorted = ExtVec::from_slice(&m, &(0..n as u64).collect::<Vec<_>>());

        m.cold_cache();
        let io_before = m.io().total();
        let work_before = m.stats().work_ops;
        let out = oblivious_sort_by_key(&sorted, |x| *x);
        m.cold_cache(); // flush the output's dirty tail so writes are counted
        let io = m.io().total() - io_before;
        let work = m.stats().work_ops - work_before;
        assert_eq!(out.load_all(), (0..n as u64).collect::<Vec<_>>());
        // Detection scan + copy-out: ~3 block passes, nowhere near the
        // log(n/M) ≈ 6 read+write passes of the full mergesort.
        let blocks = (n / 64) as u64;
        assert!(
            io <= 3 * blocks + 4,
            "sorted input should cost ~3 scans, got {io} I/Os over {blocks} blocks"
        );
        assert!(work >= 2 * n as u64, "the detection scan must be charged");

        // An almost-sorted input (violation at the very end) still sorts.
        let mut data: Vec<u64> = (0..1000).collect();
        data.swap(998, 999);
        let v = ExtVec::from_slice(&m, &data);
        let out = oblivious_sort_by_key(&v, |x| *x);
        assert_eq!(out.load_all(), (0..1000u64).collect::<Vec<_>>());
    }

    #[test]
    fn stable_for_equal_keys_projection() {
        let m = Machine::new(EmConfig::new(512, 64));
        let data: Vec<(u32, u32)> = vec![(2, 0), (1, 1), (2, 2), (1, 3), (1, 4)];
        let v = ExtVec::from_slice(&m, &data);
        let out = oblivious_sort_by_key(&v, |e| e.0).load_all();
        // Keys sorted; payloads of equal keys keep their relative order
        // (two-way merge with <= is stable).
        assert_eq!(out, vec![(1, 1), (1, 3), (1, 4), (2, 0), (2, 2)]);
    }
}
