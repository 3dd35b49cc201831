//! Typed arrays stored on the simulated disk.

use std::cell::Cell;
use std::marker::PhantomData;

use crate::cache::BlockHandle;
use crate::machine::Machine;
use crate::record::Record;
use crate::storage::StorageError;

/// A growable, typed array living in simulated external memory.
///
/// Every element access goes through the machine's LRU block cache, so
/// sequential scans cost `⌈n·w/B⌉` I/Os, random probes cost up to one I/O per
/// element, and data that fits in the cache is free to re-access — exactly
/// the cost model the paper's analyses use.
///
/// The array owns one disk *segment*; dropping the `ExtVec` frees the segment
/// (the model's disk is unbounded, but the simulator tracks live and peak
/// disk usage so the paper's `O(E)` space claims can be validated).
///
/// Each record costs one machine call. The append tail and every
/// [`ScanReader`] hold a block handle, so a stream re-touches its current
/// block by slot instead of looking it up; the touches, and therefore the
/// charges, are exactly those of word-by-word access.
pub struct ExtVec<T: Record> {
    machine: Machine,
    segment: u32,
    len: usize,
    freed: bool,
    /// The append cursor's handle.
    tail: BlockHandle,
    /// The handle of `get`/`set` probes.
    probe: Cell<BlockHandle>,
    _marker: PhantomData<T>,
}

impl<T: Record> ExtVec<T> {
    /// Creates an empty array on `machine`'s disk.
    pub fn new(machine: &Machine) -> Self {
        Self {
            machine: machine.clone(),
            segment: machine.new_segment(),
            len: 0,
            freed: false,
            tail: BlockHandle::default(),
            probe: Cell::new(BlockHandle::default()),
            _marker: PhantomData,
        }
    }

    /// Creates an array holding the elements of `items`, writing them out
    /// sequentially (and therefore charging `⌈|items|·w/B⌉` write-side I/Os
    /// as the blocks are eventually evicted or flushed).
    pub fn from_slice(machine: &Machine, items: &[T]) -> Self {
        let mut v = Self::new(machine);
        for it in items {
            v.push(*it);
        }
        v
    }

    /// The machine this array lives on.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of disk words occupied.
    pub fn words(&self) -> usize {
        self.len * T::WORDS
    }

    /// Appends an element.
    ///
    /// # Panics
    ///
    /// Panics on permanent storage faults (retry exhaustion, disk-full);
    /// see [`ExtVec::try_push`] for the fallible variant.
    #[track_caller]
    pub fn push(&mut self, value: T) {
        if let Err(e) = self.write_at(self.len, value) {
            panic!("unrecoverable storage fault on write: {e}");
        }
        self.len += 1;
    }

    /// Fallible variant of [`ExtVec::push`]: permanent storage faults
    /// (torn-write retry exhaustion, [`StorageError::NoSpace`]) surface as
    /// errors instead of panics. On error the element is not appended (a
    /// partially torn append is truncated away).
    pub fn try_push(&mut self, value: T) -> Result<(), StorageError> {
        if let Err(e) = self.write_at(self.len, value) {
            // Roll back any words of the torn element already written.
            self.machine
                .truncate_segment(self.segment, self.len * T::WORDS);
            return Err(e);
        }
        self.len += 1;
        Ok(())
    }

    /// Writes `value` as element `idx` (`idx == len` appends) in one machine
    /// call, through the append tail's handle or the probe handle.
    fn write_at(&mut self, idx: usize, value: T) -> Result<(), StorageError> {
        let mut buf = [0u64; 4];
        value.encode(&mut buf[..T::WORDS]);
        let hint = if idx == self.len {
            &mut self.tail
        } else {
            self.probe.get_mut()
        };
        self.machine
            .write_record(self.segment, idx * T::WORDS, &buf[..T::WORDS], hint)
    }

    /// Reads the element at `idx`.
    ///
    /// # Panics
    ///
    /// Panics at the caller's location if `idx >= len()`, naming the method,
    /// the index and the length; also panics on permanent storage faults
    /// (see [`ExtVec::try_get`]).
    #[track_caller]
    pub fn get(&self, idx: usize) -> T {
        assert!(
            idx < self.len,
            "ExtVec::get: index {idx} out of bounds (len {})",
            self.len
        );
        match self.read_at(idx) {
            Ok(v) => v,
            Err(e) => panic!("unrecoverable storage fault on read: {e}"),
        }
    }

    /// Fallible variant of [`ExtVec::get`]: permanent storage faults (read
    /// retry exhaustion) surface as errors instead of panics. Bounds
    /// violations still panic — they are caller bugs, not storage faults.
    #[track_caller]
    pub fn try_get(&self, idx: usize) -> Result<T, StorageError> {
        assert!(
            idx < self.len,
            "ExtVec::try_get: index {idx} out of bounds (len {})",
            self.len
        );
        self.read_at(idx)
    }

    /// Reads element `idx` in one machine call through the probe handle.
    fn read_at(&self, idx: usize) -> Result<T, StorageError> {
        let mut hint = self.probe.get();
        let v = self
            .machine
            .read_record(self.segment, idx * T::WORDS, &mut hint);
        self.probe.set(hint);
        v
    }

    /// Overwrites the element at `idx`.
    ///
    /// # Panics
    ///
    /// Panics at the caller's location if `idx >= len()`, naming the method,
    /// the index and the length; also panics on permanent storage faults
    /// (see [`ExtVec::try_set`]).
    #[track_caller]
    pub fn set(&mut self, idx: usize, value: T) {
        assert!(
            idx < self.len,
            "ExtVec::set: index {idx} out of bounds (len {})",
            self.len
        );
        if let Err(e) = self.write_at(idx, value) {
            panic!("unrecoverable storage fault on write: {e}");
        }
    }

    /// Fallible variant of [`ExtVec::set`]: permanent storage faults surface
    /// as errors instead of panics. Bounds violations still panic.
    #[track_caller]
    pub fn try_set(&mut self, idx: usize, value: T) -> Result<(), StorageError> {
        assert!(
            idx < self.len,
            "ExtVec::try_set: index {idx} out of bounds (len {})",
            self.len
        );
        self.write_at(idx, value)
    }

    /// Swaps the elements at `i` and `j` (a convenience for in-place
    /// partitioning steps).
    pub fn swap(&mut self, i: usize, j: usize) {
        if i == j {
            return;
        }
        let a = self.get(i);
        let b = self.get(j);
        self.set(i, b);
        self.set(j, a);
    }

    /// Shortens the array to `new_len` elements (no-op if already shorter).
    pub fn truncate(&mut self, new_len: usize) {
        if new_len < self.len {
            self.machine
                .truncate_segment(self.segment, new_len * T::WORDS);
            self.len = new_len;
        }
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.truncate(0);
    }

    /// A sequential reader over the whole array.
    pub fn iter(&self) -> ScanReader<'_, T> {
        self.range(0, self.len)
    }

    /// A sequential reader over elements `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics at the caller's location if `start > end` or `end > len()`,
    /// naming the method, the requested range and the length.
    #[track_caller]
    pub fn range(&self, start: usize, end: usize) -> ScanReader<'_, T> {
        assert!(
            start <= end && end <= self.len,
            "ExtVec::range: invalid range {start}..{end} (len {})",
            self.len
        );
        ScanReader {
            vec: self,
            pos: start,
            end,
            handle: BlockHandle::default(),
        }
    }

    /// Materialises elements `[start, end)` into an in-core `Vec`, charging
    /// the read I/Os. The caller is responsible for registering the returned
    /// buffer with the machine's [`crate::MemGauge`] if it is kept around.
    ///
    /// # Panics
    ///
    /// Panics at the caller's location if `start > end` or `end > len()`,
    /// naming the method, the requested range and the length.
    #[track_caller]
    pub fn load_range(&self, start: usize, end: usize) -> Vec<T> {
        assert!(
            start <= end && end <= self.len,
            "ExtVec::load_range: invalid range {start}..{end} (len {})",
            self.len
        );
        self.range(start, end).collect()
    }

    /// Fallible variant of [`ExtVec::load_range`]: permanent storage faults
    /// surface as errors instead of panics (the partially materialised
    /// buffer is dropped). Bounds violations still panic.
    #[track_caller]
    pub fn try_load_range(&self, start: usize, end: usize) -> Result<Vec<T>, StorageError> {
        assert!(
            start <= end && end <= self.len,
            "ExtVec::try_load_range: invalid range {start}..{end} (len {})",
            self.len
        );
        let mut reader = self.range(start, end);
        // emlint: allow(unleased, reason = "mirrors load_range: the caller owns the gauge obligation for kept buffers")
        let mut out = Vec::with_capacity(end - start);
        while let Some(v) = reader.try_next()? {
            out.push(v);
        }
        Ok(out)
    }

    /// Materialises the entire array into an in-core `Vec` (see
    /// [`ExtVec::load_range`]).
    pub fn load_all(&self) -> Vec<T> {
        self.load_range(0, self.len)
    }

    /// Appends every element produced by `iter`.
    pub fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }

    /// A zero-copy view of elements `[start, end)` — no blocks are touched
    /// until the view is read.
    ///
    /// # Panics
    ///
    /// Panics at the caller's location if `start > end` or `end > len()`,
    /// naming the method, the requested range and the length.
    #[track_caller]
    pub fn slice(&self, start: usize, end: usize) -> ExtSlice<'_, T> {
        assert!(
            start <= end && end <= self.len,
            "ExtVec::slice: invalid slice {start}..{end} (len {})",
            self.len
        );
        ExtSlice {
            vec: self,
            start,
            end,
        }
    }

    /// The whole array as a zero-copy view.
    pub fn as_slice(&self) -> ExtSlice<'_, T> {
        self.slice(0, self.len)
    }
}

/// A borrowed, zero-copy range view over an [`ExtVec`].
///
/// Creating a view costs nothing — no copy, no I/O, no gauge footprint; it is
/// just `(array, start, end)`. Reading through [`ExtSlice::iter`] charges the
/// usual sequential-scan I/Os, and [`ExtSlice::get`] the usual random-probe
/// cost. Views are how algorithms hand around already-sorted runs (e.g. the
/// colour classes of a partition) without re-materialising them.
#[derive(Clone, Copy)]
pub struct ExtSlice<'a, T: Record> {
    vec: &'a ExtVec<T>,
    start: usize,
    end: usize,
}

impl<'a, T: Record> ExtSlice<'a, T> {
    /// Number of elements in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Number of disk words covered by the view.
    pub fn words(&self) -> usize {
        self.len() * T::WORDS
    }

    /// The machine the underlying array lives on.
    pub fn machine(&self) -> &'a Machine {
        self.vec.machine()
    }

    /// Reads the element at `idx` (relative to the view's start).
    ///
    /// # Panics
    ///
    /// Panics at the caller's location if `idx >= len()`, naming the method,
    /// the index and the view length.
    #[track_caller]
    pub fn get(&self, idx: usize) -> T {
        assert!(
            idx < self.len(),
            "ExtSlice::get: index {idx} out of bounds (len {})",
            self.len()
        );
        self.vec.get(self.start + idx)
    }

    /// Fallible variant of [`ExtSlice::get`]: permanent storage faults
    /// surface as errors instead of panics. Bounds violations still panic.
    #[track_caller]
    pub fn try_get(&self, idx: usize) -> Result<T, StorageError> {
        assert!(
            idx < self.len(),
            "ExtSlice::try_get: index {idx} out of bounds (len {})",
            self.len()
        );
        self.vec.try_get(self.start + idx)
    }

    /// A sequential reader over the whole view.
    pub fn iter(&self) -> ScanReader<'a, T> {
        self.vec.range(self.start, self.end)
    }

    /// A sub-view of elements `[from, to)` relative to the view's start.
    ///
    /// # Panics
    ///
    /// Panics at the caller's location if `from > to` or `to > len()`,
    /// naming the method, the requested range and the view length.
    #[track_caller]
    pub fn slice(&self, from: usize, to: usize) -> ExtSlice<'a, T> {
        assert!(
            from <= to && to <= self.len(),
            "ExtSlice::slice: invalid sub-slice {from}..{to} (len {})",
            self.len()
        );
        ExtSlice {
            vec: self.vec,
            start: self.start + from,
            end: self.start + to,
        }
    }

    /// Materialises the view into an in-core `Vec`, charging the read I/Os
    /// (see [`ExtVec::load_range`] for the gauge obligation).
    pub fn load(&self) -> Vec<T> {
        self.vec.load_range(self.start, self.end)
    }

    /// Fallible variant of [`ExtSlice::load`]: permanent storage faults
    /// surface as errors instead of panics.
    pub fn try_load(&self) -> Result<Vec<T>, StorageError> {
        self.vec.try_load_range(self.start, self.end)
    }

    /// The index of the partition point of `pred` (the first element for
    /// which `pred` is false), assuming the view is partitioned — i.e. every
    /// element satisfying `pred` precedes every element that does not.
    ///
    /// Binary search: `O(log n)` random probes through the block cache (each
    /// probe charges one unit of work and at most one read I/O), against the
    /// `O(n/B)` cost of locating the boundary by a scan. This is how callers
    /// narrow an already-sorted view to the sub-range that can participate in
    /// a computation — e.g. Lemma 2's endpoint-range pruning of cone-class
    /// views — without streaming the part that cannot.
    pub fn partition_point(&self, mut pred: impl FnMut(&T) -> bool) -> usize {
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            self.machine().work(1);
            if pred(&self.get(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

impl<T: Record + std::fmt::Debug> std::fmt::Debug for ExtSlice<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ExtSlice({}..{} of {:?})",
            self.start, self.end, self.vec
        )
    }
}

impl<T: Record> Drop for ExtVec<T> {
    fn drop(&mut self) {
        if !self.freed {
            self.machine.free_segment(self.segment);
            self.freed = true;
        }
    }
}

impl<T: Record + std::fmt::Debug> std::fmt::Debug for ExtVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ExtVec(len={}, segment={})", self.len, self.segment)
    }
}

/// A sequential, buffer-free reader over an [`ExtVec`] range.
///
/// Because consecutive elements share blocks, iterating costs `⌈n·w/B⌉` read
/// I/Os on a cold cache and nothing on a warm one. The reader holds a handle
/// on its current block, so readers interleaved over one array (e.g. two
/// views of the same segment) each re-touch their own block by slot.
pub struct ScanReader<'a, T: Record> {
    vec: &'a ExtVec<T>,
    pos: usize,
    end: usize,
    handle: BlockHandle,
}

impl<T: Record> ScanReader<'_, T> {
    /// Fallible variant of [`Iterator::next`]: permanent storage faults
    /// surface as errors instead of panics, and the reader does not advance
    /// past the failing element.
    pub fn try_next(&mut self) -> Result<Option<T>, StorageError> {
        if self.pos >= self.end {
            return Ok(None);
        }
        let v = self.vec.machine.read_record(
            self.vec.segment,
            self.pos * T::WORDS,
            &mut self.handle,
        )?;
        self.pos += 1;
        Ok(Some(v))
    }
}

impl<T: Record> Iterator for ScanReader<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self.try_next() {
            Ok(v) => v,
            Err(e) => panic!("unrecoverable storage fault on read: {e}"),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.end - self.pos;
        (rem, Some(rem))
    }
}

impl<T: Record> ExactSizeIterator for ScanReader<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackendKind, EmConfig};

    fn machine() -> Machine {
        Machine::new(EmConfig::new(512, 64))
    }

    #[test]
    fn push_get_set_roundtrip() {
        let m = machine();
        let mut v: ExtVec<(u32, u32)> = ExtVec::new(&m);
        for i in 0..100u32 {
            v.push((i, i * 2));
        }
        assert_eq!(v.len(), 100);
        assert_eq!(v.get(7), (7, 14));
        v.set(7, (99, 1));
        assert_eq!(v.get(7), (99, 1));
        assert_eq!(v.iter().count(), 100);
    }

    #[test]
    fn from_slice_and_load_all() {
        let m = machine();
        let data: Vec<u64> = (0..300).collect();
        let v = ExtVec::from_slice(&m, &data);
        assert_eq!(v.load_all(), data);
        assert_eq!(v.load_range(10, 20), (10u64..20).collect::<Vec<_>>());
    }

    #[test]
    fn two_word_records_cost_two_words_each() {
        let m = machine();
        let mut v: ExtVec<(u32, u32, u32)> = ExtVec::new(&m);
        for i in 0..32u32 {
            v.push((i, i, i));
        }
        assert_eq!(v.words(), 64);
        assert_eq!(m.stats().disk_words, 64);
        assert_eq!(v.get(31), (31, 31, 31));
    }

    #[test]
    fn truncate_and_clear_release_disk_words() {
        let m = machine();
        let mut v = ExtVec::from_slice(&m, &(0..128u64).collect::<Vec<_>>());
        v.truncate(64);
        assert_eq!(v.len(), 64);
        assert_eq!(m.stats().disk_words, 64);
        v.clear();
        assert!(v.is_empty());
        assert_eq!(m.stats().disk_words, 0);
        assert_eq!(m.stats().peak_disk_words, 128);
    }

    #[test]
    fn drop_frees_segment() {
        let m = machine();
        {
            let _v = ExtVec::from_slice(&m, &(0..1000u64).collect::<Vec<_>>());
            assert_eq!(m.stats().disk_words, 1000);
        }
        assert_eq!(m.stats().disk_words, 0);
    }

    #[test]
    fn swap_exchanges_elements() {
        let m = machine();
        let mut v = ExtVec::from_slice(&m, &[1u64, 2, 3]);
        v.swap(0, 2);
        assert_eq!(v.load_all(), vec![3, 2, 1]);
    }

    #[test]
    fn scan_reader_is_exact_size() {
        let m = machine();
        let v = ExtVec::from_slice(&m, &(0..10u64).collect::<Vec<_>>());
        let it = v.range(2, 9);
        assert_eq!(it.len(), 7);
    }

    #[test]
    fn sequential_scan_io_close_to_n_over_b() {
        let m = Machine::new(EmConfig::new(256, 64)); // 4 frames
        let n = 64 * 100usize;
        let v = ExtVec::from_slice(&m, &(0..n as u64).collect::<Vec<_>>());
        m.cold_cache();
        let before = m.io();
        let sum: u64 = v.iter().sum();
        assert_eq!(sum, (n as u64 - 1) * n as u64 / 2);
        let reads = m.io().reads - before.reads;
        assert_eq!(
            reads, 100,
            "scan of 100 blocks must read exactly 100 blocks"
        );
    }

    #[test]
    fn random_access_thrashes_small_cache() {
        let m = Machine::new(EmConfig::new(128, 64)); // 2 frames
        let n = 64 * 32usize;
        let v = ExtVec::from_slice(&m, &(0..n as u64).collect::<Vec<_>>());
        m.cold_cache();
        let before = m.io();
        // Strided access touching a different block every time.
        let mut acc = 0u64;
        for i in 0..32 {
            acc += v.get(i * 64);
        }
        assert!(acc > 0);
        assert_eq!(m.io().reads - before.reads, 32);
    }

    #[test]
    fn interleaved_appends_to_many_segments_stay_write_only() {
        // The access pattern of a k-way distribution scan: one input stream
        // read sequentially while k output arrays grow in round-robin. As
        // long as every open segment keeps its tail block cached (frames >
        // k + 1), the appends must never trigger read-modify-write I/Os.
        let m = Machine::new(EmConfig::new(64 * 12, 64)); // 12 frames
        let input = ExtVec::from_slice(&m, &(0..64u64 * 20).collect::<Vec<_>>());
        m.cold_cache();
        let before = m.io();
        let mut outs: Vec<ExtVec<u64>> = (0..8).map(|_| ExtVec::new(&m)).collect();
        for x in input.iter() {
            outs[(x % 8) as usize].push(x);
        }
        let reads = m.io().reads - before.reads;
        assert_eq!(reads, 20, "only the input scan may read blocks");
        for (i, o) in outs.iter().enumerate() {
            assert_eq!(o.len(), 160, "bucket {i}");
        }
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_get_panics() {
        let m = machine();
        let v = ExtVec::from_slice(&m, &[1u64]);
        let _ = v.get(1);
    }

    #[test]
    fn slices_are_zero_copy_views() {
        let m = machine();
        let v = ExtVec::from_slice(&m, &(0..100u64).collect::<Vec<_>>());
        m.cold_cache();
        let before = m.io();
        let s = v.slice(10, 60);
        assert_eq!(s.len(), 50);
        assert!(!s.is_empty());
        assert_eq!(s.words(), 50);
        // Creating a view moves no blocks.
        assert_eq!(m.io().total(), before.total());
        assert_eq!(s.get(0), 10);
        assert_eq!(s.iter().last(), Some(59));
        assert_eq!(s.load(), (10u64..60).collect::<Vec<_>>());
        // Sub-slicing is relative to the view.
        let sub = s.slice(5, 8);
        assert_eq!(sub.load(), vec![15, 16, 17]);
        let whole = v.as_slice();
        assert_eq!(whole.len(), v.len());
        let empty = v.slice(7, 7);
        assert!(empty.is_empty());
        assert_eq!(empty.iter().next(), None);
    }

    #[test]
    fn partition_point_locates_boundaries_with_log_probes() {
        let m = Machine::new(EmConfig::new(256, 64));
        let v = ExtVec::from_slice(&m, &(0..640u64).collect::<Vec<_>>());
        let s = v.as_slice();
        assert_eq!(s.partition_point(|_| false), 0);
        assert_eq!(s.partition_point(|&x| x < 123), 123);
        assert_eq!(s.partition_point(|_| true), 640);
        // Sub-views search relative to their own start.
        let sub = v.slice(100, 200);
        assert_eq!(sub.partition_point(|&x| x < 150), 50);
        let empty = v.slice(7, 7);
        assert_eq!(empty.partition_point(|&x| x < 3), 0);
        // The probe count is logarithmic, not linear: searching 640 elements
        // (10 blocks) must touch at most ⌈log2 640⌉ = 10 blocks, far fewer on
        // a warm cache — never a full scan.
        m.cold_cache();
        let before = m.io();
        let _ = s.partition_point(|&x| x < 321);
        assert!(
            m.io().reads - before.reads <= 10,
            "binary search must not degenerate into a scan"
        );
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_slice_panics() {
        let m = machine();
        let v = ExtVec::from_slice(&m, &[1u64, 2]);
        let _ = v.slice(1, 3);
    }

    #[test]
    #[should_panic(expected = "ExtVec::get: index 1 out of bounds (len 1)")]
    fn bounds_panics_name_method_index_and_len() {
        let m = machine();
        let v = ExtVec::from_slice(&m, &[1u64]);
        let _ = v.get(1);
    }

    #[test]
    #[should_panic(expected = "ExtVec::load_range: invalid range 3..9 (len 4)")]
    fn load_range_panics_name_the_requested_range() {
        let m = machine();
        let v = ExtVec::from_slice(&m, &[1u64, 2, 3, 4]);
        let _ = v.load_range(3, 9);
    }

    #[test]
    fn try_push_surfaces_no_space_and_rolls_back() {
        let m = Machine::new(EmConfig::new(512, 64).with_disk_capacity(10));
        let mut v: ExtVec<u64> = ExtVec::new(&m);
        for i in 0..10u64 {
            assert_eq!(v.try_push(i), Ok(()));
        }
        let err = v.try_push(10).unwrap_err();
        assert_eq!(
            err,
            crate::StorageError::NoSpace {
                capacity_words: 10,
                requested_words: 11
            }
        );
        assert_eq!(v.len(), 10, "the failed append must not grow the array");
        assert_eq!(m.stats().disk_words, 10);
        // Overwrites of existing words still work at capacity.
        assert_eq!(v.try_set(0, 99), Ok(()));
        assert_eq!(v.get(0), 99);
    }

    #[test]
    fn try_push_rolls_back_partially_torn_multiword_records() {
        // Capacity 5 words, 2-word records: the third push tears after its
        // first word and must be truncated away entirely.
        let m = Machine::new(EmConfig::new(512, 64).with_disk_capacity(5));
        let mut v: ExtVec<(u32, u32, u32)> = ExtVec::new(&m);
        assert!(v.try_push((1, 1, 1)).is_ok());
        assert!(v.try_push((2, 2, 2)).is_ok());
        assert!(v.try_push((3, 3, 3)).is_err());
        assert_eq!(v.len(), 2);
        assert_eq!(m.stats().disk_words, 4, "the torn word was rolled back");
        assert_eq!(v.load_all(), vec![(1, 1, 1), (2, 2, 2)]);
    }

    #[test]
    fn failed_append_leaves_no_dirty_block_behind() {
        // One frame: the 65th append evicts the full first block, every
        // write tears, so the victim's write-back fails permanently. The
        // fresh block that append admitted must not stay resident and
        // dirty, or the flush after the vec is gone writes it back.
        let plan = crate::FaultPlan::new(1)
            .with_torn_writes(1000)
            .with_retry(crate::RetryPolicy::new(2, 1));
        let m = Machine::with_faults(EmConfig::new(64, 64), plan, BackendKind::InMemory);
        let mut v: ExtVec<u64> = ExtVec::new(&m);
        for i in 0..64u64 {
            assert_eq!(v.try_push(i), Ok(()));
        }
        assert!(v.try_push(64).is_err());
        assert_eq!(v.len(), 64);
        drop(v);
        assert_eq!(m.stats().disk_words, 0);
        assert_eq!(m.flush(), 0, "no dirty block outlives its vec");
    }

    #[test]
    fn try_get_propagates_permanent_read_faults_without_panicking() {
        // A 100% read-fault schedule exhausts every retry on the first
        // uncached read.
        let plan = crate::FaultPlan::new(4).with_read_faults(1000);
        let m = Machine::with_faults(EmConfig::new(128, 64), plan, BackendKind::InMemory);
        let mut v: ExtVec<u64> = ExtVec::new(&m);
        for i in 0..64 * 4u64 {
            v.push(i);
        }
        m.cold_cache();
        let err = v.try_get(0).unwrap_err();
        assert!(matches!(err, crate::StorageError::ReadFailed { .. }));
        // The infallible reader and scan reader agree via try_next.
        let mut r = v.iter();
        assert!(r.try_next().is_err());
    }

    #[test]
    fn try_load_matches_load_on_healthy_storage() {
        let m = machine();
        let v = ExtVec::from_slice(&m, &(0..50u64).collect::<Vec<_>>());
        assert_eq!(v.try_load_range(5, 15).unwrap(), v.load_range(5, 15));
        let s = v.slice(10, 20);
        assert_eq!(s.try_load().unwrap(), s.load());
        assert_eq!(s.try_get(3), Ok(13));
        let mut r = v.range(0, 3);
        assert_eq!(r.try_next(), Ok(Some(0)));
        assert_eq!(r.try_next(), Ok(Some(1)));
        assert_eq!(r.try_next(), Ok(Some(2)));
        assert_eq!(r.try_next(), Ok(None));
    }
}
