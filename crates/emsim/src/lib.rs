//! # emsim — an external-memory (I/O) model simulator
//!
//! This crate implements the machine model that Pagh & Silvestri's
//! *"The Input/Output Complexity of Triangle Enumeration"* (PODS 2014) — and
//! external-memory algorithmics in general, following Aggarwal & Vitter —
//! analyses algorithms in:
//!
//! * an **internal memory** of `M` words,
//! * an **external memory** (disk) of unbounded size,
//! * data moves between the two in **blocks of `B` consecutive words**, and
//! * the **I/O complexity** of an algorithm is the number of block transfers
//!   it performs.
//!
//! The simulator is deliberately *not* a wall-clock benchmark harness: it is a
//! discrete model in which every block transfer is counted exactly, so the
//! I/O bounds proved in the paper can be validated directly, free of OS page
//! caches, prefetchers, or device variance.
//!
//! ## Architecture
//!
//! * [`Machine`] — a cheap, clonable handle to the simulated machine. It owns
//!   the disk segments, the buffer pool, the [`IoStats`] counters, the
//!   [`MemGauge`] tracking in-core working-buffer usage of cache-aware
//!   algorithms, and a coarse work (RAM-operation) counter.
//! * [`ExtVec<T>`] — a typed, growable array stored on the simulated disk.
//!   Every element access is routed through the LRU cache and charged at
//!   block granularity.
//! * [`ScanReader`] / element pushes on [`ExtVec`] — sequential access
//!   patterns, which under the LRU cache cost `⌈n·w/B⌉` I/Os as the model
//!   prescribes for scanning. Each reader and each array's append tail holds
//!   a *block handle* on its current block and re-touches it by cache slot,
//!   one machine call per record; the touches and charges are exactly those
//!   of word-by-word access (see the `cache` module docs).
//! * [`Record`] — fixed-width encoding of elements into machine words
//!   (the paper assumes each vertex and each edge occupies one word).
//!
//! ## Fidelity notes
//!
//! The cache is an **LRU** approximation of the ideal (optimal replacement)
//! cache. Frigo et al. (cited as [11] in the paper) show LRU with a
//! constant-factor larger memory is within a constant factor of optimal for
//! any regular cache-oblivious algorithm, which is exactly the regime the
//! paper's Theorem 1 invokes, so measuring LRU misses is the standard way to
//! evaluate cache-oblivious algorithms empirically.
//!
//! Cache-aware algorithms additionally keep explicit in-core buffers (for
//! example the `αM` pivot edges of the paper's Lemma 2). Those buffers are
//! tracked by [`MemGauge`]; every algorithm in the `trienum` crate asserts
//! that its peak gauge usage stays within the configured memory budget, so a
//! run verifies both the I/O count *and* the memory discipline.
//!
//! ## The machine stack and the error taxonomy
//!
//! Every [`Machine`] is one stack, the model's internal memory over its disk:
//!
//! * a **charge lane** — the I/O counters and the machine's [`FaultPlan`].
//!   Every *charged* transfer runs past the plan, which injects
//!   deterministic, seeded faults: transient read errors, torn writes, and a
//!   `CrashAt(io)` kill switch, recording every injected fault in a
//!   queryable trace ([`Machine::fault_trace`]). [`Machine::new`] and
//!   [`Machine::with_backend`] run an empty plan, which returns before any
//!   roll, so fault-free runs account exactly as if there were no fault
//!   layer; [`Machine::with_faults`] takes any plan;
//! * a **buffer pool** of `M/B` frames of `B` words, which runs the
//!   simulator's LRU cache, one frame per cache slot;
//! * a [`BlockDevice`] holding every block that is not resident.
//!   [`BackendKind`] picks only the device: [`BackendKind::InMemory`] keeps
//!   each segment's blocks in one host vec; [`BackendKind::Disk`] stores
//!   them in a real temp file through [`DiskStorage`].
//!
//! The charged transfer counts are therefore identical on both devices (the
//! E11 `DISK_PARITY` gate), and each device performs exactly one block read
//! per charged read and one block write per charged write.
//!
//! Fault outcomes split into three severities:
//!
//! * **transient** — absorbed by the bounded [`RetryPolicy`]; each failed
//!   attempt charges one extra I/O (tracked in [`RunStats::retry_io`]) and
//!   exponential backoff work (tracked in [`RunStats::retry_work`]);
//! * **permanent** — retry exhaustion ([`StorageError::ReadFailed`],
//!   [`StorageError::TornWrite`]) or a full disk
//!   ([`StorageError::NoSpace`], armed via
//!   [`EmConfig::with_disk_capacity`]); surfaced as `Result`s by the
//!   `try_*` accessors of [`ExtVec`] / [`ExtSlice`] / [`ScanReader`], and
//!   as descriptive panics by the infallible accessors;
//! * **crash** — the kill switch; raised as a panic carrying a
//!   [`CrashPoint`] payload, to be caught by a chaos harness that resumes
//!   the computation from its last checkpoint.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The simulator is the accounting ground truth for every experiment, so its
// arithmetic must not silently truncate, wrap or lose precision: CI runs
// clippy with -D warnings, which turns these pedantic cast lints into errors.
#![warn(
    clippy::cast_lossless,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_precision_loss,
    clippy::cast_sign_loss,
    clippy::checked_conversions
)]

mod cache;
mod config;
mod extvec;
mod faults;
mod gauge;
#[cfg(test)]
mod handle_twin;
mod machine;
mod pool;
mod record;
mod stats;
pub mod storage;

pub use config::EmConfig;
pub use extvec::{ExtSlice, ExtVec, ScanReader};
pub use faults::{silence_simulated_crash_panics, CrashPoint, FaultEvent, FaultKind, FaultPlan};
pub use gauge::{MemGauge, MemLease, PhaseSnapshot};
pub use machine::{BackendKind, Machine};
pub use record::Record;
pub use stats::{IoStats, RunStats, WorkerReport};
pub use storage::{BlockDevice, DiskCounters, DiskStorage, RetryPolicy, StorageError, TransferDir};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_scan_costs_match_model() {
        // Writing then reading n words sequentially must cost about
        // 2 * ceil(n / B) block transfers (plus at most the cache size in
        // warm-up effects).
        let cfg = EmConfig::new(1 << 10, 64);
        let machine = Machine::new(cfg);
        let n = 10_000usize;
        let mut v: ExtVec<u64> = ExtVec::new(&machine);
        for i in 0..n {
            v.push(i as u64);
        }
        let expected_blocks = n.div_ceil(64) as u64;
        // Force all dirty blocks out: the write volume is exactly one I/O per
        // block of the array (appends never read).
        machine.cold_cache();
        let after_write = machine.stats().io;
        assert_eq!(after_write.reads, 0);
        assert_eq!(after_write.writes, expected_blocks);

        let mut sum = 0u64;
        for x in v.iter() {
            sum += x;
        }
        assert_eq!(sum, (n as u64 - 1) * n as u64 / 2);
        let after_read = machine.stats().io;
        assert_eq!(after_read.reads, expected_blocks);
        assert_eq!(after_read.writes, expected_blocks);
    }
}
