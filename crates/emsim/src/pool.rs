//! The buffer pool: the `M/B` frames of the machine's internal memory, over
//! its [`BlockDevice`].
//!
//! Every machine runs this one pool, whichever device is beneath it. The pool
//! fills a missed frame from the device, and writes a dirty frame back on
//! eviction (exactly once).
//!
//! **The pool is the simulator's policy.** It does not implement a
//! replacement policy of its own: it runs [`LruCache`] and keeps frame `s`
//! for the block in the cache's slot `s`. Misses, victims and dirty
//! write-backs are the cache's, decision for decision, and the machine
//! charges exactly those, so charged counts do not depend on the device (the
//! E11 `DISK_PARITY` gate and `tests/disk_backend_parity.rs` are the
//! witnesses).
//!
//! **Block handles.** Because frames are indexed by cache slot, a cursor's
//! [`crate::cache::BlockHandle`] names a frame as well as an LRU node. The
//! machine reads and writes words by slot, never by key. A handle stays
//! valid while its slot holds its key; eviction, [`BufferPool::discard`]
//! (a freed or truncated segment, or a failed read charge dropping the
//! just-admitted frame) and [`BufferPool::clear`] (a cold cache) end that,
//! and the next touch through the handle takes the keyed path. A slot
//! re-touch is the same touch as a keyed one, so handles never change which
//! frame is evicted or written.

use crate::cache::{BlockHandle, LruCache, Touch};
use crate::storage::BlockDevice;

/// A fixed-capacity pool of block frames with strict-LRU eviction and dirty
/// write-back. See the module docs.
pub(crate) struct BufferPool {
    lru: LruCache,
    block_words: usize,
    /// Frame `s` is `frames[s·B .. (s+1)·B]`, grown as slots come into use.
    frames: Vec<u64>,
}

impl BufferPool {
    /// A pool of `capacity` frames (at least one) of `block_words` words.
    pub(crate) fn new(capacity: usize, block_words: usize) -> Self {
        assert!(block_words > 0, "a frame holds at least one word");
        Self {
            lru: LruCache::new(capacity),
            block_words,
            // emlint: allow(unleased, reason = "the pool's M/B frames ARE the modelled internal memory, below the charge boundary; grown one frame per slot up to the fixed frame count, not by input")
            frames: Vec::new(),
        }
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

    /// Touches block `key` — through a cursor's handle: a valid `hint`
    /// finds the frame without a lookup — and admits it on a miss, evicting
    /// the least-recently-used frame if the pool is full (writing it to `dev`
    /// first when dirty). A missed frame is filled from `dev` unless `fresh`
    /// is set: a fresh append materialises a zeroed frame with no device
    /// read, as the machine charges no read for appends to a fresh block.
    /// `write` marks the frame dirty. The returned slot indexes
    /// [`BufferPool::frame`].
    ///
    /// # Panics
    ///
    /// Panics if a non-fresh miss names a block the device does not hold (a
    /// live block is either in the pool or on the device — anything else is
    /// a caller bug).
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

    /// Drops a resident frame without a write-back: a dead block of a freed
    /// or truncated segment, or a just-admitted frame whose read charge
    /// failed permanently, so a retry faces a real miss again.
    pub(crate) fn discard(&mut self, key: u64) {
        self.lru.discard(key);
    }

    /// The dirty resident slots, least-recently-used first (a deterministic
    /// order, so charge/write interleavings are reproducible).
    pub(crate) fn dirty_slots(&self) -> Vec<u32> {
        self.lru.dirty_slots()
    }

    /// Writes resident slot `slot` to `dev` and marks it clean.
    pub(crate) fn write_back(&mut self, slot: u32, dev: &mut dyn BlockDevice) {
        dev.write_block(self.lru.key(slot), self.frame(slot));
        self.lru.mark_clean(slot);
    }

    /// Drops every frame *without* write-backs — the caller flushes first
    /// (the machine's `cold_cache` charges those writes one by one).
    pub(crate) fn clear(&mut self) {
        self.lru.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemDevice;

    fn touch(pool: &mut BufferPool, dev: &mut MemDevice, key: u64, write: bool) -> Touch {
        // A block the device does not hold is a fresh append; one it holds
        // is filled from it.
        let fresh = !dev.contains(key);
        pool.touch_with(&mut BlockHandle::default(), key, write, fresh, dev)
    }

    #[test]
    fn lru_eviction_order_is_strict() {
        let mut dev = MemDevice::new(2);
        let mut pool = BufferPool::new(3, 2);
        for key in [10, 11, 12] {
            assert!(touch(&mut pool, &mut dev, key, true).miss);
        }
        // Refresh 10; admitting 13 must evict 11 (the least recently used).
        assert!(!touch(&mut pool, &mut dev, 10, false).miss);
        let t = touch(&mut pool, &mut dev, 13, true);
        assert!(t.miss && t.writeback && t.victim == 11);
        assert!(pool.lru.contains(10) && pool.lru.contains(12) && pool.lru.contains(13));
        assert!(!pool.lru.contains(11));
        assert_eq!(
            dev.counters().block_writes,
            1,
            "only the victim was written"
        );
        assert!(dev.contains(11));
    }

    #[test]
    fn dirty_frames_are_written_back_exactly_once() {
        let mut dev = MemDevice::new(2);
        let mut pool = BufferPool::new(1, 2);
        let t = touch(&mut pool, &mut dev, 1, true);
        pool.frame_mut(t.slot)[0] = 99;
        // Eviction by 2: block 1 written back once.
        let t = touch(&mut pool, &mut dev, 2, false);
        assert!(t.miss && t.writeback);
        assert_eq!(dev.counters().block_writes, 1);
        // Re-admitting 1 reads it back; evicting it again while *clean*
        // writes nothing.
        let t = touch(&mut pool, &mut dev, 1, false);
        assert!(t.miss && !t.writeback, "block 2 was clean");
        assert_eq!(pool.frame(t.slot)[0], 99);
        assert_eq!(dev.counters().block_reads, 1);
        let t = touch(&mut pool, &mut dev, 3, false);
        assert!(t.miss && !t.writeback, "block 1 is clean after write-back");
        assert_eq!(dev.counters().block_writes, 1, "no second write-back");
    }

    #[test]
    fn flush_writes_each_dirty_frame_once_and_clear_drops_all() {
        let mut dev = MemDevice::new(2);
        let mut pool = BufferPool::new(4, 2);
        touch(&mut pool, &mut dev, 1, true);
        touch(&mut pool, &mut dev, 2, true);
        touch(&mut pool, &mut dev, 3, false);
        let dirty = pool.dirty_slots();
        assert_eq!(dirty.len(), 2);
        for slot in dirty {
            pool.write_back(slot, &mut dev);
        }
        assert!(pool.dirty_slots().is_empty(), "flushed frames are clean");
        pool.clear();
        assert_eq!(pool.lru.len(), 0);
        assert_eq!(dev.counters().block_writes, 2);
        assert!(dev.contains(1) && dev.contains(2) && !dev.contains(3));
    }

    #[test]
    fn discard_drops_without_writeback() {
        let mut dev = MemDevice::new(2);
        let mut pool = BufferPool::new(2, 2);
        touch(&mut pool, &mut dev, 1, true);
        pool.discard(1);
        assert!(!pool.lru.contains(1));
        assert_eq!(dev.counters().block_writes, 0);
    }
}
