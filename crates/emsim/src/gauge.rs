//! Tracking of in-core working-buffer usage by cache-aware algorithms.
//!
//! The paper's cache-aware algorithms explicitly load data into internal
//! memory (for example, Lemma 2 keeps `αM` pivot edges plus an index over
//! their endpoints in memory). In a simulator those buffers are ordinary Rust
//! `Vec`s, so nothing would stop an implementation from cheating and keeping
//! the whole input in core. The [`MemGauge`] closes that loophole: every
//! in-core buffer an algorithm materialises is registered with the gauge via
//! an RAII [`MemLease`], and a run report exposes the peak usage, which the
//! test-suite asserts to be within the configured memory budget `M` (up to
//! the small constant slack the paper itself allows).
//!
//! ## The `gauge-audit` feature
//!
//! With the `gauge-audit` feature enabled the gauge additionally keeps a
//! **live-lease registry**: every lease records a creation-site tag (the
//! `#[track_caller]` location of the [`MemGauge::lease`] call, or an explicit
//! name given to [`MemGauge::lease_tagged`]) and stays registered until it is
//! dropped. The registry powers three checks that turn silent accounting bugs
//! into panics:
//!
//! * **Leaked leases** — dropping the last gauge handle while leases are
//!   still registered (possible only if a lease was `mem::forget`-ten or
//!   parked in a leaked allocation) panics with the offending creation
//!   sites. [`MemGauge::assert_quiescent`] exposes the same check at
//!   explicit points, e.g. the end of an algorithm run.
//! * **Release underflow** — releasing more words than are registered
//!   (impossible through the public API today, but exactly the bug a future
//!   refactor of lease bookkeeping would introduce) panics instead of
//!   wrapping `in_use` around to ~2⁶⁴.
//! * **Live-lease inspection** — [`MemGauge::live_leases`] returns the
//!   `(tag, words)` pairs currently registered, so a failing budget test can
//!   name the buffers that are resident instead of reporting a bare number.
//!
//! Without the feature the registry compiles away entirely; the underflow
//! check degrades to a `debug_assert!` plus saturating arithmetic, so release
//! builds can never wrap the gauge around.

use std::cell::RefCell;
use std::rc::{Rc, Weak};

#[cfg(feature = "gauge-audit")]
use std::collections::BTreeMap;

/// Creation-site tag of a lease: either an explicit name from
/// [`MemGauge::lease_tagged`] or the `file:line` of the [`MemGauge::lease`]
/// call.
#[cfg(feature = "gauge-audit")]
#[derive(Debug, Clone)]
struct LiveLease {
    tag: String,
    words: u64,
}

#[derive(Debug, Default)]
struct GaugeInner {
    in_use: u64,
    peak: u64,
    /// Peak since the last [`MemGauge::snapshot_phase`] (or gauge creation);
    /// the run-wide `peak` is never reset by phase snapshots.
    phase_peak: u64,
    #[cfg(feature = "gauge-audit")]
    next_lease_id: u64,
    #[cfg(feature = "gauge-audit")]
    live: BTreeMap<u64, LiveLease>,
}

/// Gauge state captured at a phase boundary by [`MemGauge::snapshot_phase`]:
/// the peak usage attributable to the phase just ended, plus what was still
/// resident when the phase ended. The experiment harness serialises these
/// into the per-phase peak tables of the `BENCH_E*.json` records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// Name of the phase that just ended.
    pub name: String,
    /// Peak registered words between the previous snapshot (or gauge
    /// creation) and this one.
    pub peak_words: u64,
    /// Words still registered when the snapshot was taken — buffers that
    /// outlive the phase, e.g. a summary carried into the next phase.
    pub live_words: u64,
    /// Leases still registered at snapshot time as `(tag, words)` pairs.
    /// Populated only under the `gauge-audit` feature; empty otherwise.
    pub live_leases: Vec<(String, u64)>,
}

impl GaugeInner {
    /// Releases `words` from `in_use`, catching underflow: a release larger
    /// than the registered total means double-release or corrupted lease
    /// bookkeeping. Panics under `gauge-audit`, debug-asserts otherwise, and
    /// saturates in release builds so the gauge never wraps.
    fn release(&mut self, words: u64) {
        if let Some(rest) = self.in_use.checked_sub(words) {
            self.in_use = rest;
        } else {
            #[cfg(feature = "gauge-audit")]
            panic!(
                "gauge-audit: releasing {words} words underflows the gauge \
                 (in_use = {}); live leases: {:?}",
                self.in_use, self.live
            );
            #[cfg(not(feature = "gauge-audit"))]
            {
                debug_assert!(
                    false,
                    "releasing {words} words underflows the gauge (in_use = {})",
                    self.in_use
                );
                self.in_use = 0;
            }
        }
    }
}

#[cfg(feature = "gauge-audit")]
impl Drop for GaugeInner {
    fn drop(&mut self) {
        // Leases hold a gauge handle, so reaching this drop with registered
        // leases means a lease was leaked (`mem::forget`, `Box::leak`, a
        // reference cycle) and its words can never be released. Don't panic
        // while already unwinding: the original failure is the better error.
        if !self.live.is_empty() && !std::thread::panicking() {
            let sites: Vec<String> = self
                .live
                .values()
                .map(|l| format!("{} ({} words)", l.tag, l.words))
                .collect();
            panic!(
                "gauge-audit: gauge dropped with {} leaked lease(s): {}",
                self.live.len(),
                sites.join(", ")
            );
        }
    }
}

/// Shared gauge of in-core working-memory usage, in words.
#[derive(Debug, Default, Clone)]
pub struct MemGauge {
    inner: Rc<RefCell<GaugeInner>>,
}

impl MemGauge {
    /// Creates a gauge with zero usage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an in-core buffer of `words` words and returns an RAII lease
    /// that releases the words when dropped. Under `gauge-audit` the lease is
    /// tagged with the caller's `file:line`.
    #[track_caller]
    pub fn lease(&self, words: u64) -> MemLease {
        let caller = std::panic::Location::caller();
        self.lease_at(words, || format!("{}:{}", caller.file(), caller.line()))
    }

    /// Like [`MemGauge::lease`], but with an explicit creation-site tag
    /// (e.g. `"lemma2: pivot chunk"`) that `gauge-audit` diagnostics report
    /// instead of the call location.
    pub fn lease_tagged(&self, words: u64, tag: &str) -> MemLease {
        self.lease_at(words, || tag.to_string())
    }

    fn lease_at(&self, words: u64, tag: impl FnOnce() -> String) -> MemLease {
        let _ = &tag;
        #[cfg(feature = "gauge-audit")]
        let id;
        {
            let mut g = self.inner.borrow_mut();
            g.in_use += words;
            g.peak = g.peak.max(g.in_use);
            g.phase_peak = g.phase_peak.max(g.in_use);
            #[cfg(feature = "gauge-audit")]
            {
                id = g.next_lease_id;
                g.next_lease_id += 1;
                g.live.insert(id, LiveLease { tag: tag(), words });
            }
        }
        // Leases hold the gauge weakly: a leaked lease (`mem::forget`,
        // `Box::leak`) must not keep the gauge alive, or the leak check at
        // gauge drop could never fire.
        MemLease {
            gauge: Rc::downgrade(&self.inner),
            words,
            #[cfg(feature = "gauge-audit")]
            id,
        }
    }

    /// Current registered usage, in words.
    pub fn in_use(&self) -> u64 {
        self.inner.borrow().in_use
    }

    /// Peak registered usage, in words.
    pub fn peak(&self) -> u64 {
        self.inner.borrow().peak
    }

    /// Resets the peak to the current usage (used between experiment phases).
    pub fn reset_peak(&self) {
        let mut g = self.inner.borrow_mut();
        g.peak = g.in_use;
        g.phase_peak = g.in_use;
    }

    /// Closes the current accounting phase: returns a [`PhaseSnapshot`] with
    /// the peak usage since the previous snapshot (or gauge creation) and the
    /// still-registered leases, then restarts the phase window at the current
    /// usage. The run-wide [`MemGauge::peak`] is unaffected.
    pub fn snapshot_phase(&self, name: &str) -> PhaseSnapshot {
        let mut g = self.inner.borrow_mut();
        let snap = PhaseSnapshot {
            name: name.to_string(),
            peak_words: g.phase_peak.max(g.in_use),
            live_words: g.in_use,
            #[cfg(feature = "gauge-audit")]
            live_leases: g.live.values().map(|l| (l.tag.clone(), l.words)).collect(),
            #[cfg(not(feature = "gauge-audit"))]
            live_leases: Vec::new(),
        };
        g.phase_peak = g.in_use;
        snap
    }

    /// The `(creation-site tag, words)` of every lease currently registered,
    /// in creation order.
    #[cfg(feature = "gauge-audit")]
    pub fn live_leases(&self) -> Vec<(String, u64)> {
        self.inner
            .borrow()
            .live
            .values()
            .map(|l| (l.tag.clone(), l.words))
            .collect()
    }

    /// Asserts that no lease is live and no words are registered — the state
    /// every algorithm must return the gauge to. Panics with the registered
    /// creation sites otherwise.
    #[cfg(feature = "gauge-audit")]
    pub fn assert_quiescent(&self) {
        let g = self.inner.borrow();
        assert!(
            g.live.is_empty() && g.in_use == 0,
            "gauge-audit: gauge not quiescent — in_use = {}, live leases: {:?}",
            g.in_use,
            g.live
        );
    }
}

/// RAII lease over in-core working memory; see [`MemGauge::lease`].
#[derive(Debug)]
pub struct MemLease {
    gauge: Weak<RefCell<GaugeInner>>,
    words: u64,
    #[cfg(feature = "gauge-audit")]
    id: u64,
}

impl MemLease {
    /// Number of words held by this lease.
    pub fn words(&self) -> u64 {
        self.words
    }

    /// Grows the lease by `extra` words (e.g. when a buffer is extended).
    pub fn grow(&mut self, extra: u64) {
        if let Some(inner) = self.gauge.upgrade() {
            let mut g = inner.borrow_mut();
            g.in_use += extra;
            g.peak = g.peak.max(g.in_use);
            g.phase_peak = g.phase_peak.max(g.in_use);
        }
        self.words += extra;
        self.sync_registry();
    }

    /// Shrinks the lease by `fewer` words, saturating at zero.
    pub fn shrink(&mut self, fewer: u64) {
        let fewer = fewer.min(self.words);
        if let Some(inner) = self.gauge.upgrade() {
            inner.borrow_mut().release(fewer);
        }
        self.words -= fewer;
        self.sync_registry();
    }

    /// Grows or shrinks the lease to exactly `words` — convenient for
    /// tracking a buffer whose size is re-measured periodically (e.g. the
    /// edge and endpoint buffers of the Lemma 2 join).
    pub fn resize(&mut self, words: u64) {
        if words > self.words {
            self.grow(words - self.words);
        } else {
            self.shrink(self.words - words);
        }
    }

    #[cfg(feature = "gauge-audit")]
    fn sync_registry(&self) {
        if let Some(inner) = self.gauge.upgrade() {
            if let Some(l) = inner.borrow_mut().live.get_mut(&self.id) {
                l.words = self.words;
            }
        }
    }

    #[cfg(not(feature = "gauge-audit"))]
    fn sync_registry(&self) {}
}

impl Drop for MemLease {
    fn drop(&mut self) {
        if let Some(inner) = self.gauge.upgrade() {
            let mut g = inner.borrow_mut();
            g.release(self.words);
            #[cfg(feature = "gauge-audit")]
            g.live.remove(&self.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_lifecycle_updates_usage_and_peak() {
        let g = MemGauge::new();
        assert_eq!(g.in_use(), 0);
        {
            let _a = g.lease(100);
            assert_eq!(g.in_use(), 100);
            {
                let _b = g.lease(50);
                assert_eq!(g.in_use(), 150);
                assert_eq!(g.peak(), 150);
            }
            assert_eq!(g.in_use(), 100);
        }
        assert_eq!(g.in_use(), 0);
        assert_eq!(g.peak(), 150);
    }

    #[test]
    fn grow_and_shrink() {
        let g = MemGauge::new();
        let mut l = g.lease(10);
        l.grow(5);
        assert_eq!(g.in_use(), 15);
        l.shrink(12);
        assert_eq!(g.in_use(), 3);
        l.shrink(100); // saturates
        assert_eq!(g.in_use(), 0);
        drop(l);
        assert_eq!(g.in_use(), 0);
        assert_eq!(g.peak(), 15);
    }

    #[test]
    fn resize_moves_to_exact_target_in_both_directions() {
        let g = MemGauge::new();
        let mut l = g.lease(10);
        l.resize(25);
        assert_eq!(g.in_use(), 25);
        assert_eq!(l.words(), 25);
        l.resize(4);
        assert_eq!(g.in_use(), 4);
        l.resize(4);
        assert_eq!(g.in_use(), 4);
        assert_eq!(g.peak(), 25);
    }

    #[test]
    fn reset_peak_keeps_current_usage() {
        let g = MemGauge::new();
        let _l = g.lease(40);
        {
            let _big = g.lease(1000);
        }
        assert_eq!(g.peak(), 1040);
        g.reset_peak();
        assert_eq!(g.peak(), 40);
    }

    #[test]
    fn phase_snapshots_window_the_peak_without_touching_the_run_peak() {
        let g = MemGauge::new();
        let keep = g.lease(40);
        {
            let _spike = g.lease(1000);
        }
        let p1 = g.snapshot_phase("build");
        assert_eq!(p1.name, "build");
        assert_eq!(p1.peak_words, 1040);
        assert_eq!(p1.live_words, 40);

        // The next phase's window starts at the current usage, so a smaller
        // spike is visible instead of being shadowed by the first phase.
        {
            let _small = g.lease(10);
        }
        let p2 = g.snapshot_phase("enumerate");
        assert_eq!(p2.peak_words, 50);
        assert_eq!(p2.live_words, 40);

        // A phase that allocates nothing still reports the carried words.
        let p3 = g.snapshot_phase("drain");
        assert_eq!(p3.peak_words, 40);

        assert_eq!(g.peak(), 1040, "run-wide peak must survive snapshots");
        drop(keep);
    }

    #[cfg(feature = "gauge-audit")]
    #[test]
    fn phase_snapshots_name_the_surviving_leases() {
        let g = MemGauge::new();
        let _held = g.lease_tagged(25, "carried summary");
        {
            let _tmp = g.lease_tagged(100, "scratch");
        }
        let p = g.snapshot_phase("build");
        assert_eq!(p.live_leases, vec![("carried summary".to_string(), 25)]);
    }

    #[test]
    fn tagged_leases_account_like_plain_ones() {
        let g = MemGauge::new();
        let mut l = g.lease_tagged(30, "test: scratch buffer");
        assert_eq!(g.in_use(), 30);
        l.resize(12);
        assert_eq!(g.in_use(), 12);
        drop(l);
        assert_eq!(g.in_use(), 0);
        assert_eq!(g.peak(), 30);
    }

    // A release larger than the registered total cannot be produced through
    // the public lease API (shrink clamps, drop releases exactly the held
    // words); corrupt `in_use` directly to stand in for the future
    // refactoring bug the hardening exists for.
    #[test]
    #[cfg(any(debug_assertions, feature = "gauge-audit"))]
    #[should_panic(expected = "underflow")]
    fn release_underflow_panics_instead_of_wrapping() {
        let g = MemGauge::new();
        let l = g.lease(10);
        g.inner.borrow_mut().in_use = 5;
        drop(l); // releases 10 from an in_use of 5
    }

    #[test]
    fn release_underflow_saturates_when_unchecked() {
        // The release-build contract: even if the panic paths above are
        // compiled out, `release` must never wrap `in_use` around.
        // Not struct-literal syntax: GaugeInner implements Drop under
        // gauge-audit, which forbids functional-update construction.
        #[allow(clippy::field_reassign_with_default)]
        let mut inner = {
            let mut inner = GaugeInner::default();
            inner.in_use = 5;
            inner
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inner.release(10);
        }));
        if result.is_ok() {
            assert_eq!(inner.in_use, 0, "underflowing release must saturate");
        }
    }

    #[cfg(feature = "gauge-audit")]
    mod audit {
        use super::*;

        #[test]
        fn registry_tracks_tags_and_resized_words() {
            let g = MemGauge::new();
            let _a = g.lease_tagged(100, "chunk");
            let mut b = g.lease_tagged(50, "probe");
            b.grow(25);
            let live = g.live_leases();
            assert_eq!(live.len(), 2);
            assert_eq!(live[0], ("chunk".to_string(), 100));
            assert_eq!(live[1], ("probe".to_string(), 75));
        }

        #[test]
        fn untagged_leases_carry_their_creation_site() {
            let g = MemGauge::new();
            let _l = g.lease(7);
            let live = g.live_leases();
            assert_eq!(live.len(), 1);
            assert!(
                live[0].0.contains("gauge.rs"),
                "expected a file:line tag, got {:?}",
                live[0].0
            );
        }

        #[test]
        fn quiescent_after_all_leases_drop() {
            let g = MemGauge::new();
            {
                let _a = g.lease_tagged(10, "a");
                let _b = g.lease_tagged(20, "b");
            }
            g.assert_quiescent();
            assert!(g.live_leases().is_empty());
        }

        #[test]
        #[should_panic(expected = "not quiescent")]
        fn assert_quiescent_names_live_leases() {
            let g = MemGauge::new();
            let _held = g.lease_tagged(10, "still-held buffer");
            g.assert_quiescent();
        }

        #[test]
        #[should_panic(expected = "leaked lease")]
        fn forgotten_lease_is_reported_at_gauge_drop() {
            let g = MemGauge::new();
            std::mem::forget(g.lease_tagged(10, "forgotten buffer"));
            drop(g); // last user-held handle; the forgotten lease leaks its own
        }
    }
}
