//! Scanning utilities: merging and filtering.

use emsim::{ExtVec, Machine, MemLease, Record, ScanReader};

/// A streaming `k`-way merge over sorted sequential cursors.
///
/// Holds exactly one in-core head element per cursor (the `O(k)`-word state is
/// registered on the machine's [`emsim::MemGauge`] for the merger's lifetime);
/// everything else streams through the block cache, so with `k ≤ M/B − 1` each
/// cursor keeps its current block resident and a full merge of `n` elements
/// costs `O(n/B)` read I/Os. Produced elements are yielded in `key` order
/// (ties broken by cursor index, making the merge stable across cursors)
/// without ever being materialised — callers that want an array push the
/// iterator into an [`ExtVec`], callers that want a pure stream (e.g. the
/// cone-edge scans of the triangle algorithms) consume it element by element.
pub struct KWayMerge<'a, T, K, F>
where
    T: Record,
    K: Ord + Copy,
    F: Fn(&T) -> K,
{
    inner: KWayMergeTagged<'a, T, K, F>,
}

/// A streaming `k`-way merge that additionally reports, for every yielded
/// element, **which cursor it came from** (its *tag*).
///
/// Same machinery and cost model as [`KWayMerge`] (one in-core head per
/// cursor, gauge-accounted, `O(n/B)` read I/Os for sequential cursors); ties
/// go to the lower cursor index. [`KWayMerge`] is this merge with the tags
/// dropped; the sharded runs' epilogue merges the per-worker triangle runs
/// with it directly.
pub struct KWayMergeTagged<'a, T, K, F>
where
    T: Record,
    K: Ord + Copy,
    F: Fn(&T) -> K,
{
    machine: Machine,
    cursors: Vec<ScanReader<'a, T>>,
    heads: Vec<Option<(K, T)>>,
    live: usize,
    key: F,
    _lease: MemLease,
}

/// Starts a streaming merge of the sorted `inputs` (see [`KWayMerge`]).
/// Each input cursor must be sorted (non-decreasing) by `key`.
pub fn kway_merge<'a, T, K, F>(
    machine: &Machine,
    inputs: Vec<ScanReader<'a, T>>,
    key: F,
) -> KWayMerge<'a, T, K, F>
where
    T: Record,
    K: Ord + Copy,
    F: Fn(&T) -> K,
{
    KWayMerge {
        inner: kway_merge_tagged(machine, inputs, key),
    }
}

/// Starts a streaming *tagged* merge of the sorted `inputs` (see
/// [`KWayMergeTagged`]). Each input cursor must be sorted (non-decreasing)
/// by `key`; the merge yields `(cursor index, element)` pairs in `key` order,
/// ties broken toward the lower cursor index.
pub fn kway_merge_tagged<'a, T, K, F>(
    machine: &Machine,
    inputs: Vec<ScanReader<'a, T>>,
    key: F,
) -> KWayMergeTagged<'a, T, K, F>
where
    T: Record,
    K: Ord + Copy,
    F: Fn(&T) -> K,
{
    let lease = machine
        .gauge()
        .lease((inputs.len() * (T::WORDS + 2)) as u64);
    let mut merge = KWayMergeTagged {
        machine: machine.clone(),
        cursors: inputs,
        heads: Vec::new(),
        live: 0,
        key,
        _lease: lease,
    };
    for i in 0..merge.cursors.len() {
        let head = merge.cursors[i].next().map(|t| ((merge.key)(&t), t));
        if head.is_some() {
            merge.live += 1;
        }
        merge.heads.push(head);
    }
    merge
}

impl<T, K, F> Iterator for KWayMergeTagged<'_, T, K, F>
where
    T: Record,
    K: Ord + Copy,
    F: Fn(&T) -> K,
{
    type Item = (usize, T);

    fn next(&mut self) -> Option<(usize, T)> {
        if self.live == 0 {
            return None;
        }
        // Select the cursor with the smallest head key (first wins on ties).
        let mut best: Option<usize> = None;
        for (i, h) in self.heads.iter().enumerate() {
            if let Some((k, _)) = h {
                if best.is_none_or(|b| {
                    let (bk, _) = self.heads[b].as_ref().expect("best head present");
                    k < bk
                }) {
                    best = Some(i);
                }
            }
        }
        let i = best.expect("live > 0 implies a head exists");
        let (_, t) = self.heads[i].take().expect("selected head present");
        // The linear selection really compares every live head, so charge
        // O(live) work per yielded element (the work counter backs the E7
        // tables — it must track what the code executes).
        self.machine.work(self.live as u64);
        match self.cursors[i].next() {
            Some(nt) => self.heads[i] = Some(((self.key)(&nt), nt)),
            None => self.live -= 1,
        }
        Some((i, t))
    }
}

impl<T, K, F> Iterator for KWayMerge<'_, T, K, F>
where
    T: Record,
    K: Ord + Copy,
    F: Fn(&T) -> K,
{
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.inner.next().map(|(_, t)| t)
    }
}

/// Scans `input` and writes the elements satisfying `keep` to a new array
/// (`O(n/B)` I/Os plus the output volume).
pub fn scan_filter<T, F>(input: &ExtVec<T>, mut keep: F) -> ExtVec<T>
where
    T: Record,
    F: FnMut(&T) -> bool,
{
    let machine = input.machine().clone();
    let mut out: ExtVec<T> = ExtVec::new(&machine);
    for x in input.iter() {
        machine.work(1);
        if keep(&x) {
            out.push(x);
        }
    }
    out
}

/// Checks in one scan whether `input` is sorted (non-decreasing) by `key`.
pub fn is_sorted_by_key<T, K, F>(input: &ExtVec<T>, key: F) -> bool
where
    T: Record,
    K: Ord + Copy,
    F: Fn(&T) -> K,
{
    let machine = input.machine().clone();
    let mut prev: Option<K> = None;
    for x in input.iter() {
        machine.work(1);
        let k = key(&x);
        if let Some(p) = prev {
            if k < p {
                return false;
            }
        }
        prev = Some(k);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use emsim::{EmConfig, Machine};

    fn m() -> Machine {
        Machine::new(EmConfig::new(256, 64))
    }

    /// A two-cursor merge, collected.
    fn merge2(a: &ExtVec<u64>, b: &ExtVec<u64>) -> Vec<u64> {
        kway_merge(a.machine(), vec![a.iter(), b.iter()], |x| *x).collect()
    }

    #[test]
    fn merge_interleaves_correctly() {
        let machine = m();
        let a = ExtVec::from_slice(&machine, &[1u64, 3, 5, 7]);
        let b = ExtVec::from_slice(&machine, &[2u64, 2, 6, 8, 10]);
        assert_eq!(merge2(&a, &b), vec![1, 2, 2, 3, 5, 6, 7, 8, 10]);
    }

    #[test]
    fn merge_with_empty_side() {
        let machine = m();
        let a = ExtVec::from_slice(&machine, &[1u64, 2]);
        let b: ExtVec<u64> = ExtVec::new(&machine);
        assert_eq!(merge2(&a, &b), vec![1, 2]);
        assert_eq!(merge2(&b, &a), vec![1, 2]);
    }

    #[test]
    fn filter_keeps_matching_elements_in_order() {
        let machine = m();
        let v = ExtVec::from_slice(&machine, &(0..100u64).collect::<Vec<_>>());
        let evens = scan_filter(&v, |x| x % 2 == 0).load_all();
        assert_eq!(evens.len(), 50);
        assert!(evens.iter().all(|x| x % 2 == 0));
        assert!(evens.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sortedness_check() {
        let machine = m();
        let sorted = ExtVec::from_slice(&machine, &[1u64, 1, 2, 9]);
        let unsorted = ExtVec::from_slice(&machine, &[1u64, 3, 2]);
        assert!(is_sorted_by_key(&sorted, |x| *x));
        assert!(!is_sorted_by_key(&unsorted, |x| *x));
        let empty: ExtVec<u64> = ExtVec::new(&machine);
        assert!(is_sorted_by_key(&empty, |x| *x));
    }

    #[test]
    fn kway_merge_streams_many_cursors_in_order() {
        let machine = m();
        let a = ExtVec::from_slice(&machine, &[0u64, 3, 6, 9]);
        let b = ExtVec::from_slice(&machine, &[1u64, 4, 7]);
        let c = ExtVec::from_slice(&machine, &[2u64, 5, 8, 10, 11]);
        let merged: Vec<u64> =
            kway_merge(&machine, vec![a.iter(), b.iter(), c.iter()], |x| *x).collect();
        assert_eq!(merged, (0..12u64).collect::<Vec<_>>());
    }

    #[test]
    fn kway_merge_over_slices_and_empty_cursors() {
        let machine = m();
        let v = ExtVec::from_slice(&machine, &[1u64, 5, 9, 2, 6, 7]);
        // Two sorted sub-ranges of the same array plus an empty one.
        let merged: Vec<u64> = kway_merge(
            &machine,
            vec![
                v.slice(0, 3).iter(),
                v.slice(3, 6).iter(),
                v.slice(6, 6).iter(),
            ],
            |x| *x,
        )
        .collect();
        assert_eq!(merged, vec![1, 2, 5, 6, 7, 9]);
        let none: Vec<u64> = kway_merge(&machine, Vec::new(), |x: &u64| *x).collect();
        assert!(none.is_empty());
    }

    #[test]
    fn kway_merge_is_stable_across_cursors_and_gauge_accounted() {
        let machine = m();
        let a = ExtVec::from_slice(&machine, &[(1u32, 10u32), (2, 10)]);
        let b = ExtVec::from_slice(&machine, &[(1u32, 20u32), (3, 20)]);
        let mut it = kway_merge(&machine, vec![a.iter(), b.iter()], |x| x.0);
        // The merger's O(k) head state is leased while it is alive.
        assert!(machine.gauge().in_use() > 0);
        // Equal keys: the earlier cursor's element comes first.
        assert_eq!(it.next(), Some((1, 10)));
        assert_eq!(it.next(), Some((1, 20)));
        assert_eq!(it.next(), Some((2, 10)));
        assert_eq!(it.next(), Some((3, 20)));
        assert_eq!(it.next(), None);
        drop(it);
        assert_eq!(machine.gauge().in_use(), 0);
    }

    #[test]
    fn tagged_merge_reports_source_cursors_and_breaks_ties_low_first() {
        let machine = m();
        // Two key-aligned files: "edges" (cursor 0) and "wedges" (cursor 1)
        // sharing keys; the tag stream drives a merge join.
        let edges = ExtVec::from_slice(&machine, &[(1u32, 10u32), (3, 30)]);
        let wedges = ExtVec::from_slice(&machine, &[(1u32, 77u32), (1, 78), (2, 79), (3, 80)]);
        let tagged: Vec<(usize, (u32, u32))> =
            kway_merge_tagged(&machine, vec![edges.iter(), wedges.iter()], |x| x.0).collect();
        assert_eq!(
            tagged,
            vec![
                (0, (1, 10)), // the edge arrives before its equal-key wedges
                (1, (1, 77)),
                (1, (1, 78)),
                (1, (2, 79)),
                (0, (3, 30)),
                (1, (3, 80)),
            ]
        );
        // The classic join pattern over the tags: a wedge matches iff the
        // last edge seen had the same key.
        let mut last_edge = None;
        let mut matched = Vec::new();
        for (tag, (k, payload)) in tagged {
            if tag == 0 {
                last_edge = Some(k);
            } else if last_edge == Some(k) {
                matched.push(payload);
            }
        }
        assert_eq!(matched, vec![77, 78, 80]);
    }

    #[test]
    fn kway_merge_of_sequential_cursors_costs_one_scan() {
        // The point of the streaming merge: k sequential cursors with one
        // in-core head each read every block exactly once.
        let machine = Machine::new(emsim::EmConfig::new(64 * 8, 64));
        let per_run = 64 * 10u64;
        let runs: Vec<ExtVec<u64>> = (0..3)
            .map(|r| {
                ExtVec::from_slice(
                    &machine,
                    &(0..per_run).map(|i| 3 * i + r).collect::<Vec<_>>(),
                )
            })
            .collect();
        machine.cold_cache();
        let before = machine.io();
        let merged: Vec<u64> =
            kway_merge(&machine, runs.iter().map(|r| r.iter()).collect(), |x| *x).collect();
        assert_eq!(merged, (0..3 * per_run).collect::<Vec<_>>());
        let reads = machine.io().reads - before.reads;
        assert_eq!(reads, 30, "3-way merge of 30 blocks must read 30 blocks");
    }
}
