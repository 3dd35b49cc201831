//! Memoised vertex-colour tables.

use std::cell::RefCell;

/// An in-core memo over an arbitrary vertex colouring `ξ : V → u64`.
///
/// The cache-aware algorithms evaluate the colouring many times per vertex —
/// the partition sort alone asks for both endpoint colours on every key
/// comparison — and for the derandomized colouring each evaluation walks a
/// chain of degree-3 polynomials. The memo caches `vertex → colour` so
/// repeated queries cost a table lookup: it is a transparent cache over a
/// pure function, so a miss (or a collision eviction) never changes any
/// colour.
///
/// The table is **direct-mapped**: `capacity` slots, vertex `v` hashes to
/// slot `v % capacity`, a collision simply overwrites the slot. Unlike a
/// fill-and-clear policy, a working set larger than the table degrades
/// gracefully (vertices that share a slot evict each other; everything else
/// keeps hitting) instead of collapsing to a ~0% hit rate the moment the
/// distinct-vertex count exceeds the capacity.
///
/// The memo is real in-core state. `kwise` has no notion of a simulated
/// machine, so a caller on one must register the footprint on its memory
/// gauge — `capacity * `[`ColorMemo::WORDS_PER_ENTRY`] words covers the
/// table (it is allocated at full size up front) — and choose `capacity`
/// within its memory budget.
pub struct ColorMemo<'a> {
    color: &'a dyn Fn(u32) -> u64,
    slots: RefCell<Vec<Option<(u32, u64)>>>,
    capacity: usize,
}

impl<'a> ColorMemo<'a> {
    /// Gauge words per memoised entry (a vertex id plus a colour value).
    pub const WORDS_PER_ENTRY: u64 = 2;

    /// Wraps `color` with a direct-mapped memo of `capacity` slots
    /// (at least one).
    pub fn new(color: &'a dyn Fn(u32) -> u64, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            color,
            slots: RefCell::new(vec![None; capacity]),
            capacity,
        }
    }

    /// The colour of vertex `v`, from the memo when present.
    pub fn color(&self, v: u32) -> u64 {
        let idx = v as usize % self.capacity;
        let mut slots = self.slots.borrow_mut();
        if let Some((cached_v, c)) = slots[idx] {
            if cached_v == v {
                return c;
            }
        }
        let c = (self.color)(v);
        slots[idx] = Some((v, c));
        c
    }

    /// Number of currently occupied slots (≤ the configured capacity) —
    /// what a simulator-side caller multiplies by
    /// [`ColorMemo::WORDS_PER_ENTRY`] when accounting the footprint.
    pub fn cached_entries(&self) -> usize {
        self.slots.borrow().iter().filter(|s| s.is_some()).count()
    }

    /// The configured slot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl std::fmt::Debug for ColorMemo<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ColorMemo(cached={}, capacity={})",
            self.cached_entries(),
            self.capacity
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn memo_agrees_with_the_wrapped_coloring_and_caches() {
        let evals = Cell::new(0usize);
        let color = |v: u32| {
            evals.set(evals.get() + 1);
            u64::from(v) % 7
        };
        let memo = ColorMemo::new(&color, 1000);
        for v in 0..100u32 {
            assert_eq!(memo.color(v), u64::from(v) % 7);
        }
        assert_eq!(evals.get(), 100);
        assert_eq!(memo.cached_entries(), 100);
        // Second round hits the memo: no new evaluations.
        for v in 0..100u32 {
            assert_eq!(memo.color(v), u64::from(v) % 7);
        }
        assert_eq!(evals.get(), 100);
    }

    #[test]
    fn collisions_evict_per_slot_and_stay_correct() {
        let color = |v: u32| u64::from(v) * 3;
        let memo = ColorMemo::new(&color, 10);
        for v in 0..35u32 {
            assert_eq!(memo.color(v), u64::from(v) * 3);
            assert!(memo.cached_entries() <= 10, "capacity must bound the memo");
        }
        // Re-querying after collision evictions still returns the right
        // colours.
        for v in (0..35u32).rev() {
            assert_eq!(memo.color(v), u64::from(v) * 3);
        }
    }

    #[test]
    fn oversized_working_sets_degrade_gracefully_not_to_zero_hits() {
        // The regression the direct-mapped table fixes: a repeated sweep
        // over capacity + 1 distinct vertices must keep most of its hits
        // (with fill-and-clear eviction the second sweep misses everything).
        let evals = Cell::new(0usize);
        let color = |v: u32| {
            evals.set(evals.get() + 1);
            u64::from(v)
        };
        let memo = ColorMemo::new(&color, 16);
        for _round in 0..10 {
            for v in 0..17u32 {
                assert_eq!(memo.color(v), u64::from(v));
            }
        }
        // Only the two vertices sharing slot 0 (0 and 16) evict each other;
        // the other 15 hit on every round after the first: ≤ 17 + 9·2 + 15
        // evaluations out of 170 queries.
        assert!(
            evals.get() <= 17 + 9 * 2 + 15,
            "steady-state hit rate collapsed: {} evaluations for 170 queries",
            evals.get()
        );
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let color = |_: u32| 4u64;
        let memo = ColorMemo::new(&color, 0);
        assert_eq!(memo.capacity(), 1);
        assert_eq!(memo.color(9), 4);
        assert_eq!(memo.color(10), 4);
        assert!(memo.cached_entries() <= 1);
    }
}
