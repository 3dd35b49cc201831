//! The LRU block cache that models the internal memory.
//!
//! The cache does **not** hold block payloads: it tracks *which* blocks are
//! resident and *which are dirty*, so that cache misses and dirty evictions
//! can be charged as read and write I/Os — precisely the quantities the
//! external-memory model counts. The payloads are the machine's buffer
//! pool's: it keeps one `B`-word frame per slot of its `LruCache`, over
//! whichever block device the machine runs. Charged transfer counts are
//! therefore the same on every device (the E11 `DISK_PARITY` gate is the
//! end-to-end witness).
//!
//! # Slots and block handles
//!
//! Every resident block occupies a *slot* (an index into the node array,
//! which is also the pool's frame index). The invariant the rest
//! of the crate relies on is: **slot `s` holds key `k` exactly when the map
//! sends `k` to `s`**. Eviction and [`LruCache::discard`] erase the key from
//! the slot, and [`LruCache::clear`] drops every slot.
//!
//! A [`BlockHandle`] is a cursor's hold on one block: its key plus the slot
//! that held it when the handle was taken. It is *valid* while that slot
//! still holds that key. What invalidates it is exactly what changes the
//! slot's key: the block's eviction by other traffic, a `discard` (a freed
//! or truncated segment, or a failed read charge dropping the just-admitted block), and
//! `clear` (a cold cache). A valid handle re-touches its block by slot — no
//! hash lookup, and no list splice when the block is already the MRU. That
//! is the *same* touch a keyed access makes: by the invariant the map lookup
//! would have returned that very slot, and the rest of the touch (dirty
//! bit, move to MRU) depends only on the slot. An invalid handle simply takes
//! the keyed path. So handles change only how a slot is found, never which
//! block is touched or in what order, and misses, victims and write-backs
//! are unchanged.

use std::collections::HashMap;

/// Key identifying a block: `(segment id, block index within the segment)`.
pub(crate) type BlockKey = u64;

pub(crate) fn block_key(segment: u32, block: u64) -> BlockKey {
    (u64::from(segment) << 40) | block
}

/// The segment a block key belongs to.
pub(crate) fn key_segment(key: BlockKey) -> u64 {
    key >> 40
}

/// The block index of a block key within its segment.
pub(crate) fn key_block(key: BlockKey) -> u64 {
    key & ((1 << 40) - 1)
}

/// A key no block ever has: empty slots and empty handles carry it.
const NO_KEY: BlockKey = u64::MAX;

const NIL: u32 = u32::MAX;

/// A cursor's hold on one block: the block key and the slot that held it.
/// See the module docs for when a handle is valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockHandle {
    pub key: BlockKey,
    pub slot: u32,
    /// The block's first word within its segment, so the machine can tell
    /// whether a word lies in the handle's block without dividing by `B`.
    pub first: usize,
}

impl Default for BlockHandle {
    /// A handle holding no block; its first use takes the keyed path.
    fn default() -> Self {
        Self {
            key: NO_KEY,
            slot: NIL,
            first: 0,
        }
    }
}

#[derive(Clone, Copy)]
struct Node {
    key: BlockKey,
    dirty: bool,
    prev: u32,
    next: u32,
}

/// Outcome of touching a block through the cache.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Touch {
    /// The access missed and a block had to be fetched (1 read I/O).
    pub miss: bool,
    /// A dirty block had to be written back to make room (1 write I/O).
    pub writeback: bool,
    /// The slot now holding the touched block.
    pub slot: u32,
    /// The key of the dirty victim when `writeback` is set. The touched
    /// block took over the victim's slot.
    pub victim: BlockKey,
}

/// A fixed-capacity LRU set of block keys with dirty tracking.
pub(crate) struct LruCache {
    capacity: usize,
    map: HashMap<BlockKey, u32>,
    nodes: Vec<Node>,
    free: Vec<u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
}

impl LruCache {
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            map: HashMap::with_capacity(capacity * 2),
            nodes: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    #[cfg(test)]
    pub(crate) fn contains(&self, key: BlockKey) -> bool {
        self.map.contains_key(&key)
    }

    /// The key held by resident slot `slot`.
    pub(crate) fn key(&self, slot: u32) -> BlockKey {
        self.nodes[slot as usize].key
    }

    /// Whether handle `h` is valid: its slot still holds its key.
    #[inline]
    pub(crate) fn holds(&self, h: &BlockHandle) -> bool {
        self.nodes
            .get(h.slot as usize)
            .is_some_and(|n| n.key == h.key)
    }

    /// Touch `key`, marking it dirty if `write`. Returns whether this was a
    /// miss and whether a dirty block was evicted to make room.
    #[cfg(test)]
    pub(crate) fn touch(&mut self, key: BlockKey, write: bool) -> Touch {
        self.touch_with(&mut BlockHandle::default(), key, write)
    }

    /// [`LruCache::touch`] through a cursor's handle: a valid `hint` for
    /// `key` finds the slot without a lookup. On return `hint` holds `key`
    /// in the slot it now occupies.
    pub(crate) fn touch_with(
        &mut self,
        hint: &mut BlockHandle,
        key: BlockKey,
        write: bool,
    ) -> Touch {
        let resident = if hint.key == key && self.holds(hint) {
            Some(hint.slot)
        } else {
            self.map.get(&key).copied()
        };
        let touch = match resident {
            Some(slot) => {
                self.retouch_slot(slot, write);
                Touch {
                    slot,
                    ..Touch::default()
                }
            }
            None => self.admit(key, write),
        };
        hint.key = key;
        hint.slot = touch.slot;
        touch
    }

    /// Re-touches the block a valid handle `h` holds, by slot, and returns
    /// `true`; returns `false` (touching nothing) when `h` is not valid. A
    /// hit charges nothing, so this is the whole touch.
    #[inline]
    pub(crate) fn retouch(&mut self, h: &BlockHandle, write: bool) -> bool {
        if self.holds(h) {
            self.retouch_slot(h.slot, write);
            true
        } else {
            false
        }
    }

    /// The hit path: mark dirty on a write and make `slot` the MRU (no
    /// splice when it already is).
    #[inline]
    fn retouch_slot(&mut self, slot: u32, write: bool) {
        if write {
            self.nodes[slot as usize].dirty = true;
        }
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }

    /// The miss path: evict the LRU block if full (its slot is reused), then
    /// insert `key` as the MRU.
    fn admit(&mut self, key: BlockKey, write: bool) -> Touch {
        let mut touch = Touch {
            miss: true,
            ..Touch::default()
        };
        let slot = if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            let vnode = self.nodes[victim as usize];
            if vnode.dirty {
                touch.writeback = true;
                touch.victim = vnode.key;
            }
            self.unlink(victim);
            self.map.remove(&vnode.key);
            victim
        } else if let Some(slot) = self.free.pop() {
            slot
        } else {
            self.nodes.push(Node {
                key: NO_KEY,
                dirty: false,
                prev: NIL,
                next: NIL,
            });
            u32::try_from(self.nodes.len() - 1).expect("frame count exceeds u32")
        };
        self.nodes[slot as usize] = Node {
            key,
            dirty: write,
            prev: NIL,
            next: NIL,
        };
        self.map.insert(key, slot);
        self.push_front(slot);
        touch.slot = slot;
        touch
    }

    /// Drop a block from the cache without charging I/O. Used when the
    /// segment owning the block is freed (its contents are dead, so writing
    /// them back would be meaningless work the model does not require), and
    /// when a miss's read charge fails.
    pub(crate) fn discard(&mut self, key: BlockKey) {
        if let Some(slot) = self.map.remove(&key) {
            self.unlink(slot);
            let node = &mut self.nodes[slot as usize];
            node.key = NO_KEY;
            node.dirty = false;
            self.free.push(slot);
        }
    }

    /// The dirty resident slots, least-recently-used first (a deterministic
    /// order, so charge/write interleavings are reproducible).
    pub(crate) fn dirty_slots(&self) -> Vec<u32> {
        let mut slots = Vec::new();
        let mut slot = self.tail;
        while slot != NIL {
            let node = &self.nodes[slot as usize];
            if node.dirty {
                slots.push(slot);
            }
            slot = node.prev;
        }
        slots
    }

    /// Marks resident slot `slot` clean.
    pub(crate) fn mark_clean(&mut self, slot: u32) {
        self.nodes[slot as usize].dirty = false;
    }

    /// Evict everything without write-backs (the caller flushes first) —
    /// used when a run wants to start from a cold cache. Every handle becomes
    /// invalid.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = NIL;
    }

    fn push_front(&mut self, idx: u32) {
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_misses() {
        let mut c = LruCache::new(2);
        assert!(c.touch(block_key(0, 0), false).miss);
        assert!(c.touch(block_key(0, 1), false).miss);
        assert!(!c.touch(block_key(0, 0), false).miss);
        // Capacity 2: touching a third block evicts the LRU (block 1).
        let t = c.touch(block_key(0, 2), false);
        assert!(t.miss);
        assert!(!t.writeback);
        assert!(c.touch(block_key(0, 1), false).miss);
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = LruCache::new(1);
        c.touch(block_key(0, 0), true);
        let t = c.touch(block_key(0, 1), false);
        assert!(t.miss && t.writeback);
        assert_eq!(t.victim, block_key(0, 0));
        // A clean block evicts silently.
        let t2 = c.touch(block_key(0, 2), false);
        assert!(t2.miss && !t2.writeback);
    }

    #[test]
    fn lru_order_is_respected() {
        let mut c = LruCache::new(3);
        for b in 0..3 {
            c.touch(block_key(0, b), false);
        }
        // Touch 0 to refresh it; inserting 3 must evict 1 (the oldest).
        c.touch(block_key(0, 0), false);
        c.touch(block_key(0, 3), false);
        assert!(!c.touch(block_key(0, 0), false).miss);
        assert!(!c.touch(block_key(0, 2), false).miss);
        assert!(c.touch(block_key(0, 1), false).miss);
    }

    #[test]
    fn discard_forgets_without_io() {
        let mut c = LruCache::new(2);
        c.touch(block_key(1, 0), true);
        c.discard(block_key(1, 0));
        assert_eq!(c.len(), 1.min(c.capacity()) - 1);
        // Re-touching it is a miss again but no writeback ever happened.
        assert!(c.touch(block_key(1, 0), false).miss);
    }

    #[test]
    fn flush_writes_each_dirty_block_once() {
        // The machine's flush: write back each dirty slot, then mark it clean.
        let mut c = LruCache::new(4);
        c.touch(block_key(0, 0), true);
        c.touch(block_key(0, 1), true);
        c.touch(block_key(0, 2), false);
        let dirty = c.dirty_slots();
        let keys: Vec<_> = dirty.iter().map(|&s| c.key(s)).collect();
        assert_eq!(keys, [block_key(0, 0), block_key(0, 1)], "LRU-first order");
        for slot in dirty {
            c.mark_clean(slot);
        }
        assert!(c.dirty_slots().is_empty(), "flushed blocks are clean");
    }

    #[test]
    fn clear_reports_dirty_blocks() {
        let mut c = LruCache::new(4);
        c.touch(block_key(0, 0), true);
        c.touch(block_key(0, 1), false);
        assert_eq!(c.dirty_slots().len(), 1);
        c.clear();
        assert_eq!(c.len(), 0);
        assert!(c.dirty_slots().is_empty());
    }

    #[test]
    fn same_block_fast_path_marks_dirty() {
        let mut c = LruCache::new(2);
        let mut h = BlockHandle::default();
        c.touch_with(&mut h, block_key(0, 7), false);
        // A re-touch through the handle must still mark the block dirty.
        c.touch_with(&mut h, block_key(0, 7), true);
        let t = c.touch(block_key(0, 8), false);
        assert!(t.miss);
        let t = c.touch(block_key(0, 9), false);
        // Eviction of block 7 must be a writeback.
        assert!(t.miss && t.writeback);
    }

    /// Every way a slot can lose its key invalidates the handles on it: the
    /// next touch through such a handle behaves exactly like a keyed touch.
    #[test]
    fn handles_go_stale_exactly_when_their_slot_changes_key() {
        let (a, b, c3) = (block_key(0, 0), block_key(0, 1), block_key(0, 2));
        // Eviction by other traffic: `a`'s slot now holds `c3`.
        let mut c = LruCache::new(2);
        let mut h = BlockHandle::default();
        c.touch_with(&mut h, a, false);
        c.touch(b, false);
        c.touch(c3, false);
        assert!(c.touch_with(&mut h, a, false).miss, "evicted block misses");
        // Discard, then reuse of the freed slot by another key.
        let mut c = LruCache::new(2);
        let mut h = BlockHandle::default();
        c.touch_with(&mut h, a, true);
        c.discard(a);
        let t = c.touch(b, false);
        assert_eq!(t.slot, h.slot, "the freed slot is reused");
        let t = c.touch_with(&mut h, a, false);
        assert!(t.miss && !t.writeback, "discarded data is never written");
        // Clear.
        let mut c = LruCache::new(2);
        let mut h = BlockHandle::default();
        c.touch_with(&mut h, a, false);
        c.clear();
        assert!(c.touch_with(&mut h, a, false).miss);
    }
}
