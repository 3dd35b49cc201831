//! The explicit block buffer pool fronting a real [`BlockDevice`].
//!
//! In the pure simulator the [`crate::cache::LruCache`] tracks *which*
//! blocks are resident — there is no payload to hold, because the data lives
//! in host RAM. On the disk backend ([`crate::BackendKind::Disk`]) the data
//! lives in a real file, so residency comes with an actual frame of `B`
//! words: the `BufferPool` owns `M/B` such frames, fills a missed frame from
//! the device, and writes a dirty frame back on eviction (exactly once).
//!
//! **Policy parity holds by construction.** The pool does not implement a
//! replacement policy of its own: it runs the simulator's `LruCache` and
//! keeps frame `s` for the block in the cache's slot `s`. Misses, victims and
//! dirty write-backs are therefore the simulator's, decision for decision,
//! which is what makes the E11 `DISK_PARITY` gate — identical charged
//! transfer counts on both backends — hold; the `tests/disk_backend_parity.rs`
//! suite and the CI gate are the witnesses.
//!
//! **Block handles.** Because frames are indexed by cache slot, a cursor's
//! [`crate::cache::BlockHandle`] names a frame as well as an LRU node. The
//! machine reads and writes words by slot, never by key. A handle stays
//! valid while its slot holds its key; eviction, [`BufferPool::discard`]
//! (a freed segment, or a failed read charge dropping the just-admitted
//! frame) and [`BufferPool::clear`] (a cold cache) end that, and the next
//! touch through the handle takes the keyed path. A slot re-touch is the
//! same touch as a keyed one, so handles never change which frame is
//! evicted or written.

use crate::cache::{BlockHandle, LruCache, Touch};
use crate::storage::BlockDevice;

/// Outcome of one [`BufferPool::access`]: what the pool had to do, so the
/// machine can charge the matching simulated transfers.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolTouch {
    /// The access missed: a frame was admitted (and, unless the block was
    /// fresh, filled from the device with one real read).
    pub miss: bool,
    /// A dirty victim frame was written back to the device to make room
    /// (one real write).
    pub writeback: bool,
}

/// A fixed-capacity pool of block frames with strict-LRU eviction and dirty
/// write-back. See the module docs for the policy-parity contract with the
/// simulator's LRU cache.
pub struct BufferPool {
    lru: LruCache,
    block_words: usize,
    /// Frame `s` is `frames[s·B .. (s+1)·B]`, grown as slots come into use.
    frames: Vec<u64>,
}

impl BufferPool {
    /// A pool of `capacity` frames (at least one) of `block_words` words.
    pub fn new(capacity: usize, block_words: usize) -> Self {
        assert!(block_words > 0, "a frame holds at least one word");
        Self {
            lru: LruCache::new(capacity),
            block_words,
            // emlint: allow(unleased, reason = "the pool's M/B frames ARE the modelled internal memory, below the charge boundary; grown one frame per slot up to the fixed frame count, not by input")
            frames: Vec::new(),
        }
    }

    /// Number of frames (the `M/B` of the machine that built the pool).
    pub fn capacity(&self) -> usize {
        self.lru.capacity()
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether no block is resident.
    pub fn is_empty(&self) -> bool {
        self.lru.len() == 0
    }

    /// Whether `key` is resident.
    pub fn resident(&self, key: u64) -> bool {
        self.lru.contains(key)
    }

    /// Whether handle `h` is valid: its frame still holds its block.
    #[cfg(test)]
    pub(crate) fn holds(&self, h: &BlockHandle) -> bool {
        self.lru.holds(h)
    }

    /// Re-touches the frame a valid handle `h` holds (see
    /// [`LruCache::retouch`]); returns whether `h` was valid.
    #[inline]
    pub(crate) fn retouch(&mut self, h: &BlockHandle, write: bool) -> bool {
        self.lru.retouch(h, write)
    }

    /// Touches block `key`, admitting it on a miss (evicting the
    /// least-recently-used frame if the pool is full, writing it to `dev`
    /// first when dirty). A missed frame is filled from `dev` unless `fresh`
    /// is set (a fresh append materialises a zeroed frame with no device
    /// read — mirroring the simulator, which charges no read for appends to
    /// a fresh block). `write` marks the frame dirty.
    ///
    /// # Panics
    ///
    /// Panics if a non-fresh miss names a block the device has never seen (a
    /// resident block is either in the pool or on the device — anything else
    /// is a caller bug).
    pub fn access(
        &mut self,
        key: u64,
        write: bool,
        fresh: bool,
        dev: &mut dyn BlockDevice,
    ) -> PoolTouch {
        let touch = self.touch_with(&mut BlockHandle::default(), key, write, fresh, dev);
        PoolTouch {
            miss: touch.miss,
            writeback: touch.writeback,
        }
    }

    /// [`BufferPool::access`] through a cursor's handle: a valid `hint`
    /// finds the frame without a lookup. The returned slot indexes
    /// [`BufferPool::frame`].
    pub(crate) fn touch_with(
        &mut self,
        hint: &mut BlockHandle,
        key: u64,
        write: bool,
        fresh: bool,
        dev: &mut dyn BlockDevice,
    ) -> Touch {
        let touch = self.lru.touch_with(hint, key, write);
        if touch.miss {
            let range = self.frame_range(touch.slot);
            if self.frames.len() < range.end {
                self.frames.resize(range.end, 0);
            }
            // The admitted block took over the victim's slot: its frame
            // still holds the victim's words until they reach the device.
            if touch.writeback {
                dev.write_block(touch.victim, &self.frames[range.clone()]);
            }
            if fresh {
                self.frames[range].fill(0);
            } else {
                assert!(
                    dev.contains(key),
                    "block {key:#x} is neither resident nor on the device"
                );
                dev.read_block(key, &mut self.frames[range]);
            }
        }
        touch
    }

    fn frame_range(&self, slot: u32) -> std::ops::Range<usize> {
        let start = slot as usize * self.block_words;
        start..start + self.block_words
    }

    /// The words of resident slot `slot`.
    pub(crate) fn frame(&self, slot: u32) -> &[u64] {
        &self.frames[self.frame_range(slot)]
    }

    /// The words of resident slot `slot`, for writing. (The touch that
    /// found the slot already marked it dirty.)
    pub(crate) fn frame_mut(&mut self, slot: u32) -> &mut [u64] {
        let range = self.frame_range(slot);
        &mut self.frames[range]
    }

    /// Drops a just-admitted (or any resident) frame without a write-back:
    /// the machine calls this when the simulated read charge for a miss
    /// fails permanently, so a retry faces a real miss again.
    pub fn discard(&mut self, key: u64) {
        self.lru.discard(key);
    }

    /// The dirty resident slots, least-recently-used first (a deterministic
    /// order, so charge/write interleavings are reproducible).
    pub(crate) fn dirty_slots(&self) -> Vec<u32> {
        self.lru.dirty_slots()
    }

    /// The dirty resident block keys, least-recently-used first.
    pub fn dirty_keys(&self) -> Vec<u64> {
        let slots = self.dirty_slots();
        // emlint: allow(unleased, reason = "at most M/B keys of flush bookkeeping, below the charge boundary")
        slots.into_iter().map(|slot| self.lru.key(slot)).collect()
    }

    /// Writes resident slot `slot` to `dev` and marks it clean.
    pub(crate) fn write_back(&mut self, slot: u32, dev: &mut dyn BlockDevice) {
        dev.write_block(self.lru.key(slot), self.frame(slot));
        self.lru.mark_clean(slot);
    }

    /// Writes every dirty frame to `dev` and marks it clean (frames stay
    /// resident). Returns the number of blocks written.
    pub fn flush_to(&mut self, dev: &mut dyn BlockDevice) -> u64 {
        let dirty = self.dirty_slots();
        for &slot in &dirty {
            self.write_back(slot, dev);
        }
        dirty.len() as u64
    }

    /// Drops every frame *without* write-backs — the caller flushes first
    /// (the machine's `cold_cache` charges those writes one by one).
    pub fn clear(&mut self) {
        self.lru.clear();
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity())
            .field("block_words", &self.block_words)
            .field("resident", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::DiskCounters;
    use std::collections::HashMap;

    /// In-memory mock device recording every executed transfer.
    struct MockDevice {
        block_words: usize,
        blocks: HashMap<u64, Vec<u64>>,
        counters: DiskCounters,
        write_log: Vec<u64>,
    }

    impl MockDevice {
        fn new(block_words: usize) -> Self {
            Self {
                block_words,
                blocks: HashMap::new(),
                counters: DiskCounters::default(),
                write_log: Vec::new(),
            }
        }
    }

    impl BlockDevice for MockDevice {
        fn block_words(&self) -> usize {
            self.block_words
        }
        fn contains(&self, key: u64) -> bool {
            self.blocks.contains_key(&key)
        }
        fn read_block(&mut self, key: u64, buf: &mut [u64]) {
            buf.copy_from_slice(&self.blocks[&key]);
            self.counters.block_reads += 1;
        }
        fn write_block(&mut self, key: u64, data: &[u64]) {
            self.blocks.insert(key, data.to_vec());
            self.counters.block_writes += 1;
            self.write_log.push(key);
        }
        fn free_block(&mut self, key: u64) {
            self.blocks.remove(&key);
        }
        fn sync(&mut self) {
            self.counters.syncs += 1;
        }
        fn counters(&self) -> DiskCounters {
            self.counters
        }
    }

    #[test]
    fn lru_eviction_order_is_strict() {
        let mut dev = MockDevice::new(2);
        let mut pool = BufferPool::new(3, 2);
        for key in [10, 11, 12] {
            assert!(pool.access(key, true, true, &mut dev).miss);
        }
        // Refresh 10; admitting 13 must evict 11 (the least recently used).
        assert!(!pool.access(10, false, false, &mut dev).miss);
        assert!(pool.access(13, true, true, &mut dev).miss);
        assert!(pool.resident(10) && pool.resident(12) && pool.resident(13));
        assert!(!pool.resident(11));
        assert_eq!(dev.write_log, vec![11], "only the victim was written back");
    }

    #[test]
    fn dirty_frames_are_written_back_exactly_once() {
        let mut dev = MockDevice::new(2);
        let mut pool = BufferPool::new(1, 2);
        let t = pool.touch_with(&mut BlockHandle::default(), 1, true, true, &mut dev);
        pool.frame_mut(t.slot)[0] = 99;
        // Eviction by 2: block 1 written back once.
        let t = pool.access(2, false, true, &mut dev);
        assert!(t.miss && t.writeback);
        assert_eq!(dev.write_log, vec![1]);
        // Re-admitting 1 reads it back; evicting it again while *clean*
        // writes nothing.
        let t = pool.touch_with(&mut BlockHandle::default(), 1, false, false, &mut dev);
        assert!(t.miss && !t.writeback, "block 2 was clean");
        assert_eq!(pool.frame(t.slot)[0], 99);
        let t = pool.access(3, false, true, &mut dev);
        assert!(t.miss && !t.writeback, "block 1 is clean after write-back");
        assert_eq!(dev.write_log, vec![1], "no second write-back");
    }

    #[test]
    fn flush_writes_each_dirty_frame_once_and_clear_drops_all() {
        let mut dev = MockDevice::new(2);
        let mut pool = BufferPool::new(4, 2);
        pool.access(1, true, true, &mut dev);
        pool.access(2, true, true, &mut dev);
        pool.access(3, false, true, &mut dev);
        assert_eq!(pool.dirty_keys(), vec![1, 2], "LRU-first order");
        assert_eq!(pool.flush_to(&mut dev), 2);
        assert_eq!(pool.flush_to(&mut dev), 0, "flushed frames are clean");
        pool.clear();
        assert!(pool.is_empty());
        assert_eq!(dev.counters().block_writes, 2);
    }

    /// The policy-parity property: on any pin-free access sequence the pool
    /// makes exactly the decisions of the simulator's `LruCache` — same
    /// misses, same dirty write-backs. (This is what makes disk-backend
    /// charged counts identical to the simulator's, the E11 `DISK_PARITY`
    /// gate.)
    #[test]
    fn discard_drops_without_writeback() {
        let mut dev = MockDevice::new(2);
        let mut pool = BufferPool::new(2, 2);
        pool.access(1, true, true, &mut dev);
        pool.discard(1);
        assert!(!pool.resident(1));
        assert_eq!(dev.counters().block_writes, 0);
    }
}
