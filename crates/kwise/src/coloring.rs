//! Vertex colourings built from limited-independence hash functions.

use crate::fourwise::{bit_of, powers, FourWise};

/// A random colouring `ξ : V → {0, …, c−1}` drawn from a 4-wise independent
/// family, as used by the cache-aware randomized algorithm (paper Section 2,
/// step 2) with `c = √(E/M)` colours.
#[derive(Debug, Clone, Copy)]
pub struct RandomColoring {
    hash: FourWise,
    colors: u64,
}

impl RandomColoring {
    /// Creates a colouring with `colors ≥ 1` colours from `seed`.
    pub fn new(colors: u64, seed: u64) -> Self {
        assert!(colors >= 1, "need at least one colour");
        Self {
            hash: FourWise::new(seed),
            colors,
        }
    }

    /// Number of colours `c`.
    pub fn colors(&self) -> u64 {
        self.colors
    }

    /// The colour of vertex `v`, in `[0, c)`.
    pub fn color(&self, v: u32) -> u64 {
        self.hash.eval_range(v as u64, self.colors)
    }
}

/// A colouring produced by iterated refinement
/// `ξ_i(v) = 2·ξ_{i−1}(v) − b_{i−1}(v)`, exactly as in Section 3 (step 2 of
/// the cache-oblivious recursion) and Section 4 (the greedy derandomization).
///
/// The refinement starts from the constant colouring `ξ_0 ≡ 1`; after `i`
/// refinements the colour of a vertex lies in `[2^i·base − (2^i − 1), 2^i·base]`.
/// Only the chosen bit functions are stored (`O(i)` words) and every colour
/// is recomputed from them, so the colouring keeps no per-vertex state.
///
/// A caller that already knows a vertex's colour is one of up to three
/// candidates asks [`RefinedColoring::resolve`], which costs at most two bit
/// evaluations instead of the `depth` that [`RefinedColoring::color_at`]
/// pays.
#[derive(Debug, Clone, Default)]
pub struct RefinedColoring {
    levels: Vec<FourWise>,
}

impl RefinedColoring {
    /// The identity (depth-0) refinement: every vertex keeps its base colour.
    pub fn identity() -> Self {
        Self::default()
    }

    /// Number of refinement levels applied.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Appends one refinement level using bit function `b`.
    pub fn push(&mut self, b: FourWise) {
        self.levels.push(b);
    }

    /// Appends a whole batch of refinement levels at once — how a consumer
    /// installs its per-level bit schedule up front (one shared bit function
    /// per tree depth) instead of pushing/popping per node. Prefix queries
    /// then go through [`RefinedColoring::color_at`].
    pub fn push_batch(&mut self, bits: impl IntoIterator<Item = FourWise>) {
        self.levels.extend(bits);
    }

    /// Removes the most recent refinement level (used when backtracking out
    /// of a recursion level).
    pub fn pop(&mut self) {
        self.levels.pop();
    }

    /// The colour of vertex `v` when the base colouring assigns `base`.
    ///
    /// With `ξ_0(v) = base` and `ξ_i(v) = 2ξ_{i−1}(v) − b_{i−1}(v)` this is
    /// the value after applying every stored refinement level in order.
    pub fn color_of(&self, base: u64, v: u32) -> u64 {
        refine(base, &self.levels, v)
    }

    /// The colour of vertex `v` starting from the paper's constant base
    /// colouring `ξ_0 ≡ 1`.
    pub fn color(&self, v: u32) -> u64 {
        self.color_of(1, v)
    }

    /// The colour of vertex `v` after only the first `depth ≤ depth()`
    /// refinement levels, from the constant base colouring `ξ_0 ≡ 1`.
    ///
    /// Tree level `d` of a refinement tree whose bit functions are installed
    /// once asks for this prefix colour; it costs `depth` bit evaluations.
    ///
    /// # Panics
    ///
    /// Panics if `depth` exceeds the number of stored levels.
    pub fn color_at(&self, v: u32, depth: usize) -> u64 {
        refine(1, &self.levels[..depth], v)
    }

    /// The depth-`depth` prefix colour of `v` (as [`RefinedColoring::color_at`]),
    /// given that it is one of the sorted candidates `c0 ≤ c1 ≤ c2` (repeats
    /// allowed, so one to three distinct colours), at the cost of at most
    /// two bit evaluations.
    ///
    /// From `ξ_0 ≡ 1`, `ξ_d(v) − 1` is the complement of the bit string
    /// `b_0(v) … b_{d−1}(v)` read with `b_0` most significant. Two candidates
    /// `x < y` therefore first differ at level `d − 1 − ⌊log₂((x−1) ⊕ (y−1))⌋`,
    /// and `v`'s bit at that level picks one. Three distinct candidates take
    /// one such bit to split `c0` from `c2`; `c1` falls on one side of it,
    /// and only if `v` does too does a second bit split the pair. Equal
    /// candidates need no evaluation. Callers that cannot guarantee the
    /// candidates use [`RefinedColoring::color_at`].
    ///
    /// # Panics
    ///
    /// Debug builds check that the candidates are sorted and the result
    /// against [`RefinedColoring::color_at`], and panic if `v`'s colour is not
    /// among them (release builds return one of them). Panics if the
    /// candidates differ and `depth` exceeds the number of stored levels or
    /// is too shallow for them to occur.
    pub fn resolve(&self, v: u32, depth: usize, candidates: [u64; 3]) -> u64 {
        self.resolve_from(powers(u64::from(v)), v, depth, candidates)
    }

    /// The depth-`depth + 1` colour of `v`, `2·resolve(v, depth, candidates)
    /// − b_depth(v)`, given that its depth-`depth` colour is one of the
    /// sorted `candidates`: the colour `v` takes in the child node it is
    /// routed to. Every bit evaluation shares one computation of `v`'s
    /// powers, as [`crate::BitFunctionFamily::eval_all`] shares them across
    /// candidates.
    ///
    /// # Panics
    ///
    /// As [`RefinedColoring::resolve`], and if `depth` is not below the
    /// number of stored levels.
    pub fn resolve_child(&self, v: u32, depth: usize, candidates: [u64; 3]) -> u64 {
        let p = powers(u64::from(v));
        let c = self.resolve_from(p, v, depth, candidates);
        2 * c - u64::from(bit_of(self.levels[depth].eval_at(p)))
    }

    /// [`RefinedColoring::resolve`] with `v`'s powers already computed.
    fn resolve_from(&self, p: [u64; 3], v: u32, depth: usize, [lo, mid, hi]: [u64; 3]) -> u64 {
        debug_assert!(
            lo <= mid && mid <= hi,
            "unsorted candidates {lo}, {mid}, {hi}"
        );
        // Of two candidates x ≤ y, the one v's bit picks. Bit k of y − 1 is
        // set, and v's colour − 1 has it set iff v's bit at that level is 0.
        let pick = |x: u64, y: u64| {
            if x == y {
                return x;
            }
            let k = ((x - 1) ^ (y - 1)).ilog2() as usize;
            if bit_of(self.levels[depth - 1 - k].eval_at(p)) {
                x
            } else {
                y
            }
        };
        let c = if mid == lo || mid == hi {
            pick(lo, hi)
        } else {
            let k = ((lo - 1) ^ (hi - 1)).ilog2();
            let mid_high = (mid - 1) >> k & 1 == 1;
            match (pick(lo, hi) == hi, mid_high) {
                (true, true) => pick(mid, hi),
                (false, false) => pick(lo, mid),
                (true, false) => hi,
                (false, true) => lo,
            }
        };
        debug_assert_eq!(
            c,
            self.color_at(v, depth),
            "{v}: not among {lo}, {mid}, {hi}"
        );
        c
    }
}

/// `ξ` after applying `levels` in order to the base colour `base`.
fn refine(base: u64, levels: &[FourWise], v: u32) -> u64 {
    levels
        .iter()
        .fold(base, |c, f| 2 * c - u64::from(f.eval_bit(u64::from(v))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_coloring_range_and_determinism() {
        let c = RandomColoring::new(6, 11);
        for v in 0..500u32 {
            assert!(c.color(v) < 6);
            assert_eq!(c.color(v), RandomColoring::new(6, 11).color(v));
        }
    }

    #[test]
    fn single_color_coloring_is_constant() {
        let c = RandomColoring::new(1, 5);
        assert!((0..100u32).all(|v| c.color(v) == 0));
    }

    #[test]
    fn refinement_produces_children_of_parent_color() {
        // After one refinement, colour values must be in {2c-1, 2c} where c
        // is the parent colour — that is the branching structure the
        // cache-oblivious recursion relies on.
        let fam = crate::BitFunctionFamily::new(4, 3);
        let mut r = RefinedColoring::identity();
        assert_eq!(r.color(42), 1);
        r.push(fam.function(0));
        for v in 0..200u32 {
            let c = r.color(v);
            assert!(c == 1 || c == 2, "colour {c} not a child of 1");
        }
        r.push(fam.function(1));
        for v in 0..200u32 {
            let parent = {
                let mut r1 = RefinedColoring::identity();
                r1.push(fam.function(0));
                r1.color(v)
            };
            let child = r.color(v);
            assert!(child == 2 * parent || child == 2 * parent - 1);
        }
    }

    #[test]
    fn pop_undoes_refinement() {
        let fam = crate::BitFunctionFamily::new(2, 9);
        let mut r = RefinedColoring::identity();
        r.push(fam.function(0));
        let with_one = r.color(7);
        r.push(fam.function(1));
        r.pop();
        assert_eq!(r.color(7), with_one);
        assert_eq!(r.depth(), 1);
    }

    #[test]
    fn prefix_colors_agree_with_incremental_refinement() {
        let fam = crate::BitFunctionFamily::new(4, 77);
        let mut full = RefinedColoring::identity();
        full.push_batch((0..4).map(|i| fam.function(i)));
        assert_eq!(full.depth(), 4);

        let mut incremental = RefinedColoring::identity();
        for depth in 0..=4usize {
            for v in 0..64u32 {
                assert_eq!(
                    full.color_at(v, depth),
                    incremental.color(v),
                    "vertex {v} at depth {depth}"
                );
            }
            if depth < 4 {
                incremental.push(fam.function(depth));
            }
        }
        // The full-depth prefix is the ordinary colour.
        for v in 0..64u32 {
            assert_eq!(full.color_at(v, 4), full.color(v));
            assert_eq!(full.color_at(v, 0), 1);
        }
    }

    /// Sorted candidate triples over the depth-`depth` colours `1..=2^depth`
    /// that contain `c`, repeats included. Up to depth 5 this is every such
    /// triple. Deeper, it is every two-colour form `{c, c, x}` and `{c, x, x}`
    /// plus 64 random triples `{c, x, y}`, since listing them all would take
    /// `Θ(4^depth)` sets per vertex.
    fn candidate_sets(depth: usize, c: u64, rng: &mut impl rand::Rng) -> Vec<[u64; 3]> {
        let top = 1u64 << depth;
        let mut sets = Vec::new();
        if depth <= 5 {
            for x in 1..=top {
                for y in x..=top {
                    for z in y..=top {
                        if [x, y, z].contains(&c) {
                            sets.push([x, y, z]);
                        }
                    }
                }
            }
            return sets;
        }
        for x in 1..=top {
            for mut set in [[c, c, x], [c, x, x]] {
                set.sort_unstable();
                sets.push(set);
            }
        }
        for _ in 0..64 {
            let mut set = [
                c,
                rng.random_range(1..top + 1),
                rng.random_range(1..top + 1),
            ];
            set.sort_unstable();
            sets.push(set);
        }
        sets
    }

    #[test]
    fn resolve_agrees_with_the_prefix_colour_for_every_candidate_set() {
        // Random bit schedules, every depth up to 8, and sorted sets of up
        // to three candidates that contain the vertex's true depth-d colour:
        // all of them up to depth 5, a sample of them deeper.
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for _ in 0..4 {
            let mut r = RefinedColoring::identity();
            r.push_batch((0..8).map(|_| FourWise::new(rng.random_range(0..u64::MAX))));
            for depth in 0..=8usize {
                for _ in 0..32 {
                    let v: u32 = rng.random_range(0..u32::MAX);
                    let c = r.color_at(v, depth);
                    for set in candidate_sets(depth, c, &mut rng) {
                        assert_eq!(r.resolve(v, depth, set), c, "v={v} d={depth} {set:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn resolve_child_is_twice_resolve_minus_the_next_bit() {
        // As above, with one more level stored so that every depth up to 8
        // has a next bit.
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0xc41d);
        for _ in 0..4 {
            let mut r = RefinedColoring::identity();
            r.push_batch((0..9).map(|_| FourWise::new(rng.random_range(0..u64::MAX))));
            for depth in 0..=8usize {
                for _ in 0..32 {
                    let v: u32 = rng.random_range(0..u32::MAX);
                    let c = r.color_at(v, depth);
                    let bit = u64::from(r.levels[depth].eval_bit(u64::from(v)));
                    assert_eq!(2 * c - bit, r.color_at(v, depth + 1), "v={v} d={depth}");
                    for set in candidate_sets(depth, c, &mut rng) {
                        let want = 2 * r.resolve(v, depth, set) - bit;
                        assert_eq!(r.resolve_child(v, depth, set), want, "v={v} d={depth}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn prefix_depth_beyond_stored_levels_panics() {
        let fam = crate::BitFunctionFamily::new(1, 3);
        let mut r = RefinedColoring::identity();
        r.push(fam.function(0));
        let _ = r.color_at(0, 2);
    }

    #[test]
    fn depth_matches_number_of_levels() {
        let fam = crate::BitFunctionFamily::new(3, 1);
        let mut r = RefinedColoring::identity();
        for i in 0..3 {
            r.push(fam.function(i));
        }
        assert_eq!(r.depth(), 3);
        // With base colour 1 and depth d, colours lie in [2^d - (2^d - 1), 2^d] = [1, 8].
        for v in 0..100u32 {
            let c = r.color(v);
            assert!((1..=8).contains(&c));
        }
    }
}
