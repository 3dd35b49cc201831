//! The simulated external-memory machine.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use crate::cache::{block_key, key_segment, BlockHandle};
use crate::config::EmConfig;
use crate::faults::{CrashPoint, FaultEvent, FaultPlan, FaultyStorage};
use crate::gauge::MemGauge;
use crate::pool::BufferPool;
use crate::record::Record;
use crate::stats::{IoStats, RunStats};
use crate::storage::{
    BlockDevice, DiskCounters, DiskStorage, MemDevice, StorageError, TransferDir,
};

/// Which block device a machine's buffer pool runs over: where the blocks
/// that are not resident live.
///
/// Every machine is the same stack otherwise — a charge lane executing its
/// fault plan, then a buffer pool of `M/B` frames running the simulator's
/// LRU cache — so charged transfer counts are identical on both devices,
/// and each device sees exactly one block read per charged read and one
/// block write per charged write.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The pure simulator: each segment's blocks live in one host vec,
    /// dropped when the segment is freed; nothing touches a file.
    #[default]
    InMemory,
    /// Genuinely out-of-core: blocks live in a real temp file through
    /// [`DiskStorage`].
    Disk,
}

struct Segment {
    /// Logical length in words.
    len: usize,
    live: bool,
}

/// The charge-accounting lane: the counters plus the fault plan every
/// charged transfer runs past. Split from [`MachineInner`] so the machine
/// can charge transfers while holding borrows into the pool.
struct ChargeLane {
    io: IoStats,
    work: u64,
    faults: FaultyStorage,
    /// 0-based count of *logical* charged transfers (retries excluded):
    /// the ordinal stream fed to the fault plan, and the coordinate system
    /// of `CrashAt` kill switches.
    transfers: u64,
    retry_io: u64,
    retry_work: u64,
}

impl ChargeLane {
    /// Runs one charged block transfer past the fault plan, then bumps the
    /// direction counter plus any absorbed retry cost.
    ///
    /// A `Crashed` verdict becomes a panic carrying a [`CrashPoint`] — the
    /// simulation of the process dying mid-transfer. Other permanent faults
    /// (retry exhaustion, disk-full) return as errors without charging the
    /// doomed transfer: the run is being abandoned, not accounted.
    fn charge(&mut self, dir: TransferDir) -> Result<(), StorageError> {
        let ordinal = self.transfers;
        self.transfers += 1;
        let cost = match self.faults.transfer(dir, ordinal) {
            Ok(cost) => cost,
            Err(StorageError::Crashed { io }) => std::panic::panic_any(CrashPoint { io }),
            Err(permanent) => return Err(permanent),
        };
        let extra = u64::from(cost.failed_attempts);
        match dir {
            TransferDir::Read => self.io.reads += 1 + extra,
            TransferDir::Write => self.io.writes += 1 + extra,
        }
        if cost.failed_attempts > 0 {
            self.retry_io += extra;
            self.work += cost.backoff_work;
            self.retry_work += cost.backoff_work;
        }
        Ok(())
    }
}

struct MachineInner {
    config: EmConfig,
    segments: Vec<Segment>,
    free_segments: Vec<u32>,
    pool: BufferPool,
    dev: Box<dyn BlockDevice>,
    lane: ChargeLane,
    disk_words: u64,
    peak_disk_words: u64,
}

impl MachineInner {
    /// Touches the block holding word `idx` of segment `seg` — by slot when
    /// `hint` holds that block, by key otherwise — and charges what the
    /// touch cost. Returns the slot now holding the block and the block's
    /// first word; `hint` then holds the block.
    ///
    /// A write to the first word of a block at the segment's end is a fresh
    /// append: it needs no read of the block (the model writes whole blocks),
    /// while writing into the middle of an uncached block does
    /// (read-modify-write).
    #[inline]
    fn touch(
        &mut self,
        seg: u32,
        idx: usize,
        write: bool,
        hint: &mut BlockHandle,
    ) -> Result<(u32, usize), StorageError> {
        // A valid handle on the word's block: re-touch by slot. A hit
        // charges nothing, so that is the whole touch.
        if key_segment(hint.key) == u64::from(seg)
            && idx.wrapping_sub(hint.first) < self.config.block_words
            && self.pool.retouch(hint, write)
        {
            return Ok((hint.slot, hint.first));
        }
        self.touch_by_key(seg, idx, write, hint)
    }

    /// The rest of [`MachineInner::touch`]: find the block by key, admit it
    /// on a miss, and charge the transfers.
    fn touch_by_key(
        &mut self,
        seg: u32,
        idx: usize,
        write: bool,
        hint: &mut BlockHandle,
    ) -> Result<(u32, usize), StorageError> {
        let block_words = self.config.block_words;
        let block = idx / block_words;
        let (key, first) = (block_key(seg, block as u64), block * block_words);
        let fresh = write && idx == first && idx == self.segments[seg as usize].len;
        let touch = self
            .pool
            .touch_with(hint, key, write, fresh, self.dev.as_mut());
        hint.first = first;
        if touch.miss && !fresh {
            if let Err(e) = self.lane.charge(TransferDir::Read) {
                // The block never arrived: drop the just-admitted frame so a
                // retry faces, and is charged for, a real miss. The block is
                // still intact on the device.
                self.pool.discard(key);
                return Err(e);
            }
        }
        if touch.writeback {
            if let Err(e) = self.lane.charge(TransferDir::Write) {
                // A failed append leaves nothing behind: the fresh block it
                // admitted lies past the segment's end, so no later drop or
                // truncate would ever release it.
                if fresh {
                    self.pool.discard(key);
                }
                return Err(e);
            }
        }
        Ok((touch.slot, first))
    }

    /// Words `range` of the block starting at word `first`, which sits in
    /// slot `slot`.
    fn words(&self, slot: u32, first: usize, range: std::ops::Range<usize>) -> &[u64] {
        &self.pool.frame(slot)[range.start - first..range.end - first]
    }

    /// Forgets the blocks of segment `seg` that start at or after word
    /// `from_words` and below word `to_words`: they leave the pool without a
    /// write-back (dead data is never charged) and the device releases them.
    fn drop_blocks(&mut self, seg: u32, from_words: usize, to_words: usize) {
        let block_words = self.config.block_words;
        let blocks = from_words.div_ceil(block_words) as u64..to_words.div_ceil(block_words) as u64;
        for b in blocks.clone() {
            self.pool.discard(block_key(seg, b));
        }
        self.dev.free_blocks(seg, blocks);
    }
}

/// A cheap, clonable handle to a simulated external-memory machine.
///
/// The machine owns the disk (a set of independently growable *segments*, one
/// per [`crate::ExtVec`], whose blocks live in the pool or on the block
/// device), the buffer pool of `M/B` frames standing in for the internal
/// memory, the I/O counters and a [`MemGauge`] for in-core working buffers.
///
/// Cloning a `Machine` clones the handle, not the machine: all clones share
/// the same disk, cache and counters. The simulator is single-threaded by
/// design (the I/O model is sequential), so a `Rc<RefCell<…>>` is the
/// appropriate sharing primitive.
///
/// Parallel (PEM) runs do not clone a machine across threads — a handle is
/// deliberately `!Send`. Instead, each worker thread constructs its *own*
/// machine from the shared, `Copy` [`EmConfig`]: [`Machine::new`] allocates
/// only an empty cache and zeroed counters (frames grow as they come into
/// use), so per-worker machines are cheap to spawn, and each worker gets an
/// independent pool, device, [`IoStats`] and [`MemGauge`] (gauge-audit
/// included). On the disk device each worker's backing file is temp-dir
/// scoped and unlinked on drop. The per-worker counters are aggregated
/// afterwards with [`crate::IoStats::merge`] / [`crate::WorkerReport`].
#[derive(Clone)]
pub struct Machine {
    inner: Rc<RefCell<MachineInner>>,
    gauge: MemGauge,
    config: EmConfig,
}

impl Machine {
    /// Creates a fault-free machine on the in-memory device, with the given
    /// memory/block configuration and a cold cache.
    pub fn new(config: EmConfig) -> Self {
        Self::with_faults(config, FaultPlan::new(0), BackendKind::InMemory)
    }

    /// Creates a fault-free machine on the chosen block device.
    ///
    /// # Panics
    ///
    /// Panics if the disk device's backing file cannot be created.
    pub fn with_backend(config: EmConfig, backend: BackendKind) -> Self {
        Self::with_faults(config, FaultPlan::new(0), backend)
    }

    /// Creates a machine whose charge lane executes the given fault plan on
    /// the chosen block device: reads and writes fail per the plan's seeded
    /// schedule, retries are charged to the `retry_io`/`retry_work`
    /// counters, and the `CrashAt` kill switch (if armed) panics with a
    /// [`CrashPoint`] payload mid-run. The schedule is the same on either
    /// device, so faults over the real disk account like memory.
    ///
    /// # Panics
    ///
    /// Panics if the disk device's backing file cannot be created.
    pub fn with_faults(config: EmConfig, plan: FaultPlan, backend: BackendKind) -> Self {
        let dev: Box<dyn BlockDevice> = match backend {
            BackendKind::InMemory => Box::new(MemDevice::new(config.block_words)),
            BackendKind::Disk => Box::new(
                DiskStorage::create(config.block_words)
                    .unwrap_or_else(|e| panic!("failed to create the disk backend file: {e}")),
            ),
        };
        Self {
            inner: Rc::new(RefCell::new(MachineInner {
                config,
                segments: Vec::new(),
                free_segments: Vec::new(),
                pool: BufferPool::new(config.frames(), config.block_words),
                dev,
                lane: ChargeLane {
                    io: IoStats::default(),
                    work: 0,
                    faults: FaultyStorage::new(plan),
                    transfers: 0,
                    retry_io: 0,
                    retry_work: 0,
                },
                disk_words: 0,
                peak_disk_words: 0,
            })),
            gauge: MemGauge::new(),
            config,
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> EmConfig {
        self.config
    }

    /// Which block device this machine runs on.
    pub fn backend(&self) -> BackendKind {
        match self.inner.borrow().dev.file() {
            None => BackendKind::InMemory,
            Some(_) => BackendKind::Disk,
        }
    }

    /// The real-I/O counters of the disk device (`None` on the in-memory
    /// device): executed block reads/writes and fsyncs, as opposed to the
    /// *charged* transfers in [`Machine::io`]. On a fault-free machine the
    /// two agree exactly — real reads equal charged reads, real writes equal
    /// charged writes — which is what E11 verifies.
    pub fn disk_counters(&self) -> Option<DiskCounters> {
        let inner = self.inner.borrow();
        inner.dev.file().map(|_| inner.dev.counters())
    }

    /// The disk device's backing-file path (`None` on the in-memory device).
    /// The file is unlinked when the last machine handle drops.
    pub fn disk_file(&self) -> Option<PathBuf> {
        self.inner.borrow().dev.file().map(Path::to_path_buf)
    }

    /// Durability barrier on the disk device (`fsync` of the backing file);
    /// a no-op in memory. Not a charged transfer. Note this persists what
    /// the *device* has seen — call [`Machine::flush`] first to push dirty
    /// pool frames (as charged writes) if you want a full barrier.
    pub fn sync(&self) {
        self.inner.borrow_mut().dev.sync();
    }

    /// The block device's real-I/O counters, on either device.
    #[cfg(test)]
    pub(crate) fn device_counters(&self) -> DiskCounters {
        self.inner.borrow().dev.counters()
    }

    /// Words of block payload the block device holds.
    #[cfg(test)]
    pub(crate) fn device_payload_words(&self) -> usize {
        self.inner.borrow().dev.payload_words()
    }

    /// The gauge tracking in-core working-buffer usage.
    pub fn gauge(&self) -> &MemGauge {
        &self.gauge
    }

    /// Adds `n` units to the coarse RAM-operation counter.
    pub fn work(&self, n: u64) {
        self.inner.borrow_mut().lane.work += n;
    }

    /// Snapshot of every counter.
    pub fn stats(&self) -> RunStats {
        let inner = self.inner.borrow();
        RunStats {
            io: inner.lane.io,
            disk_words: inner.disk_words,
            peak_disk_words: inner.peak_disk_words,
            mem_words_in_use: self.gauge.in_use(),
            peak_mem_words: self.gauge.peak(),
            work_ops: inner.lane.work,
            retry_io: inner.lane.retry_io,
            retry_work: inner.lane.retry_work,
        }
    }

    /// Just the I/O counters.
    pub fn io(&self) -> IoStats {
        self.inner.borrow().lane.io
    }

    /// The number of logical charged transfers so far — the coordinate
    /// system of [`FaultPlan::with_crash_at`]. Equals `io().total()` when no
    /// retries have been absorbed (retries charge extra I/Os but share the
    /// ordinal of the transfer they retried).
    pub fn transfers(&self) -> u64 {
        self.inner.borrow().lane.transfers
    }

    /// The fault events the fault plan injected so far (always empty for a
    /// machine built without a plan).
    pub fn fault_trace(&self) -> Vec<FaultEvent> {
        self.inner.borrow().lane.faults.trace().to_vec()
    }

    /// Evicts the entire cache (charging one write I/O per dirty block, and
    /// writing each to the device), so that a subsequent measurement starts
    /// cold. Returns the number of write-backs charged.
    pub fn cold_cache(&self) -> u64 {
        let writes = self.flush();
        self.inner.borrow_mut().pool.clear();
        writes
    }

    /// Flushes dirty cached blocks to the device (charging one write I/O
    /// each) without evicting them. Returns the number of write-backs
    /// charged.
    pub fn flush(&self) -> u64 {
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        let dirty = inner.pool.dirty_slots();
        for &slot in &dirty {
            if let Err(e) = inner.lane.charge(TransferDir::Write) {
                panic!("unrecoverable storage fault while flushing the cache: {e}");
            }
            inner.pool.write_back(slot, inner.dev.as_mut());
        }
        dirty.len() as u64
    }

    /// Charges `blocks` transfers in direction `dir` against storage outside
    /// this machine: the shared area through which the workers of a sharded
    /// run exchange blocks. Each is an ordinary charged transfer (the fault
    /// plan sees it) that touches no frame of the pool.
    ///
    /// # Panics
    ///
    /// Panics on a permanent storage fault, as [`Machine::flush`] does.
    pub fn charge_shared(&self, dir: TransferDir, blocks: u64) {
        let mut inner = self.inner.borrow_mut();
        for _ in 0..blocks {
            if let Err(e) = inner.lane.charge(dir) {
                panic!("unrecoverable storage fault on a shared-area transfer: {e}");
            }
        }
    }

    /// Number of block frames in the simulated internal memory (`M / B`).
    pub fn frames(&self) -> usize {
        self.config.frames()
    }

    // ------------------------------------------------------------------
    // Segment management (used by ExtVec).
    // ------------------------------------------------------------------

    pub(crate) fn new_segment(&self) -> u32 {
        let mut inner = self.inner.borrow_mut();
        if let Some(id) = inner.free_segments.pop() {
            inner.segments[id as usize] = Segment { len: 0, live: true };
            id
        } else {
            inner.segments.push(Segment { len: 0, live: true });
            u32::try_from(inner.segments.len() - 1).expect("segment count exceeds u32")
        }
    }

    pub(crate) fn free_segment(&self, seg: u32) {
        let mut inner = self.inner.borrow_mut();
        let s = &mut inner.segments[seg as usize];
        if !s.live {
            return;
        }
        s.live = false;
        let len = std::mem::take(&mut s.len);
        inner.disk_words -= len as u64;
        // Forget the dead blocks so their eviction is never charged, and
        // release them on the device.
        inner.drop_blocks(seg, 0, len);
        inner.free_segments.push(seg);
    }

    /// Reads the record at word `idx` of segment `seg` through the cursor
    /// handle `hint`, charging a read I/O for every block of the record that
    /// is not cached. The record is decoded in place from the pool frame. Permanent storage faults (retry exhaustion) come back as
    /// errors; a `CrashAt` kill switch still panics — a crash is not
    /// handleable.
    pub(crate) fn read_record<T: Record>(
        &self,
        seg: u32,
        idx: usize,
        hint: &mut BlockHandle,
    ) -> Result<T, StorageError> {
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        let end = idx + T::WORDS;
        let seg_len = inner.segments[seg as usize].len;
        assert!(
            end <= seg_len,
            "read past end of segment: idx {}, len {seg_len}",
            end - 1
        );
        let block_words = inner.config.block_words;
        let (mut slot, mut first) = inner.touch(seg, idx, false, hint)?;
        if end <= first + block_words {
            return Ok(T::decode(inner.words(slot, first, idx..end)));
        }
        // The record straddles a block boundary: touch each block it spans,
        // in word order, exactly as word-by-word reads would.
        let mut buf = [0u64; 4];
        let mut at = idx;
        loop {
            let stop = end.min(first + block_words);
            buf[at - idx..stop - idx].copy_from_slice(inner.words(slot, first, at..stop));
            if stop == end {
                return Ok(T::decode(&buf[..T::WORDS]));
            }
            at = stop;
            (slot, first) = inner.touch(seg, at, false, hint)?;
        }
    }

    /// Writes `words` starting at word `idx` of segment `seg` (which must be
    /// `≤ len`, appending past the end) through the cursor handle `hint`,
    /// charging I/Os for cache misses and dirty evictions. Permanent storage
    /// faults (torn-write retry exhaustion, disk-full) come back as errors,
    /// leaving the words before the failing one written; a `CrashAt` kill
    /// switch still panics.
    pub(crate) fn write_record(
        &self,
        seg: u32,
        idx: usize,
        words: &[u64],
        hint: &mut BlockHandle,
    ) -> Result<(), StorageError> {
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        let block_words = inner.config.block_words;
        let (mut slot, mut first) = (0, 0);
        for (k, &value) in words.iter().enumerate() {
            let at = idx + k;
            let seg_len = inner.segments[seg as usize].len;
            assert!(
                at <= seg_len,
                "write past end of segment: idx {at}, len {seg_len}"
            );
            let append = at == seg_len;
            if let Some(capacity_words) = inner.config.disk_capacity_words {
                if append && inner.disk_words + 1 > capacity_words {
                    return Err(StorageError::NoSpace {
                        capacity_words,
                        requested_words: inner.disk_words + 1,
                    });
                }
            }
            // Later words of the same block need no touch of their own: the
            // block is the MRU and already dirty, so a touch would be a no-op.
            if k == 0 || at == first + block_words {
                (slot, first) = inner.touch(seg, at, true, hint)?;
            }
            inner.pool.frame_mut(slot)[at - first] = value;
            if append {
                inner.segments[seg as usize].len += 1;
                inner.disk_words += 1;
                inner.peak_disk_words = inner.peak_disk_words.max(inner.disk_words);
            }
        }
        Ok(())
    }

    /// Whether the cursor handle `h` is valid: its slot still holds its
    /// block, so the next touch through it skips the lookup.
    #[cfg(test)]
    pub(crate) fn holds(&self, h: &BlockHandle) -> bool {
        self.inner.borrow().pool.holds(h)
    }

    /// Reads one word with no cursor handle: the keyed path of
    /// [`Machine::read_record`]. Panics on permanent storage faults.
    #[cfg(test)]
    #[track_caller]
    pub(crate) fn read_word(&self, seg: u32, idx: usize) -> u64 {
        match self.read_record(seg, idx, &mut BlockHandle::default()) {
            Ok(word) => word,
            Err(e) => panic!("unrecoverable storage fault on read: {e}"),
        }
    }

    /// Writes one word with no cursor handle: the keyed path of
    /// [`Machine::write_record`]. Panics on permanent storage faults.
    #[cfg(test)]
    #[track_caller]
    pub(crate) fn write_word(&self, seg: u32, idx: usize, value: u64) {
        if let Err(e) = self.write_record(seg, idx, &[value], &mut BlockHandle::default()) {
            panic!("unrecoverable storage fault on write: {e}");
        }
    }

    /// Shortens segment `seg` to `new_words` words. The blocks wholly past
    /// the new end are dead: they leave the cache uncharged, as a freed
    /// segment's do.
    pub(crate) fn truncate_segment(&self, seg: u32, new_words: usize) {
        let mut inner = self.inner.borrow_mut();
        let old = inner.segments[seg as usize].len;
        if new_words < old {
            inner.segments[seg as usize].len = new_words;
            inner.disk_words -= (old - new_words) as u64;
            inner.drop_blocks(seg, new_words, old);
        }
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("Machine")
            .field("config", &self.config)
            .field("backend", &self.backend())
            .field("stats", &s)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_only_writes_do_not_charge_reads() {
        let m = Machine::new(EmConfig::new(1024, 64));
        let seg = m.new_segment();
        for i in 0..640usize {
            m.write_word(seg, i, i as u64);
        }
        let io = m.io();
        assert_eq!(io.reads, 0, "pure appends never read blocks");
        // 640 words = 10 blocks; with 16 frames nothing is evicted yet.
        assert_eq!(io.writes, 0);
        m.flush();
        assert_eq!(m.io().writes, 10);
    }

    #[test]
    fn shared_area_transfers_are_charged_without_touching_the_pool() {
        let m = Machine::new(EmConfig::new(128, 64)); // 2 frames
        let seg = m.new_segment();
        m.write_word(seg, 0, 7);
        m.charge_shared(TransferDir::Write, 3);
        m.charge_shared(TransferDir::Read, 5);
        assert_eq!((m.io().reads, m.io().writes), (5, 3));
        assert_eq!(m.transfers(), 8);
        // The dirty block is still resident: reading it is free, and it is
        // written back only when flushed.
        assert_eq!(m.read_word(seg, 0), 7);
        assert_eq!(m.io().reads, 5);
        assert_eq!(m.flush(), 1);
    }

    #[test]
    fn overwrites_of_cold_blocks_are_read_modify_write() {
        let m = Machine::new(EmConfig::new(128, 64)); // 2 frames only
        let seg = m.new_segment();
        for i in 0..64 * 4usize {
            m.write_word(seg, i, 0);
        }
        // The first blocks have been evicted (dirty) by now.
        let before = m.io();
        m.write_word(seg, 0, 7);
        let after = m.io();
        assert_eq!(after.reads - before.reads, 1);
        assert_eq!(m.read_word(seg, 0), 7);
    }

    #[test]
    fn eviction_of_dirty_blocks_counts_writes() {
        let m = Machine::new(EmConfig::new(128, 64)); // 2 frames
        let seg = m.new_segment();
        for i in 0..64 * 8usize {
            m.write_word(seg, i, i as u64);
        }
        // 8 blocks written with 2 frames: at least 6 dirty evictions.
        assert!(m.io().writes >= 6);
    }

    #[test]
    fn freeing_a_segment_releases_disk_words_without_io() {
        let m = Machine::new(EmConfig::new(1024, 64));
        let seg = m.new_segment();
        for i in 0..1000usize {
            m.write_word(seg, i, 1);
        }
        let io_before = m.io();
        assert_eq!(m.stats().disk_words, 1000);
        m.free_segment(seg);
        assert_eq!(m.stats().disk_words, 0);
        assert_eq!(m.stats().peak_disk_words, 1000);
        assert_eq!(m.io(), io_before, "freeing dead data is not an I/O");
        // Segment ids are recycled.
        let seg2 = m.new_segment();
        assert_eq!(seg2, seg);
    }

    #[test]
    fn work_counter_accumulates() {
        let m = Machine::new(EmConfig::default());
        m.work(10);
        m.work(5);
        assert_eq!(m.stats().work_ops, 15);
    }

    #[test]
    #[should_panic]
    fn write_past_end_panics() {
        let m = Machine::new(EmConfig::default());
        let seg = m.new_segment();
        m.write_word(seg, 5, 1);
    }

    fn thrash(m: &Machine) {
        let seg = m.new_segment();
        for i in 0..64 * 16usize {
            m.write_word(seg, i, i as u64);
        }
        m.cold_cache();
        for i in 0..64 * 16usize {
            let _ = m.read_word(seg, i);
        }
    }

    #[test]
    fn fault_free_machines_report_no_retries() {
        let m = Machine::new(EmConfig::new(256, 64));
        thrash(&m);
        let s = m.stats();
        assert_eq!(s.retry_io, 0);
        assert_eq!(s.retry_work, 0);
        assert!(m.fault_trace().is_empty());
        assert_eq!(
            m.transfers(),
            s.io.total(),
            "without retries, every charged I/O is one logical transfer"
        );
    }

    #[test]
    fn transient_faults_charge_retry_counters_deterministically() {
        let plan = crate::FaultPlan::new(77)
            .with_read_faults(150)
            .with_torn_writes(100);
        let run = || {
            let m = Machine::with_faults(EmConfig::new(256, 64), plan, BackendKind::InMemory);
            thrash(&m);
            (m.stats(), m.fault_trace())
        };
        let (a_stats, a_trace) = run();
        let (b_stats, b_trace) = run();
        assert_eq!(a_stats, b_stats, "same plan, same run → same accounting");
        assert_eq!(a_trace, b_trace, "same plan, same run → same fault trace");
        assert!(a_stats.retry_io > 0, "a 15%/10% schedule must fire");
        assert!(a_stats.retry_work > 0, "backoff must be charged as work");
        assert!(
            a_stats.io.total() > m_baseline_io(),
            "retried transfers cost extra I/Os"
        );
        assert!(a_stats.io.total() - m_baseline_io() == a_stats.retry_io);
    }

    fn m_baseline_io() -> u64 {
        let m = Machine::new(EmConfig::new(256, 64));
        thrash(&m);
        m.stats().io.total()
    }

    #[test]
    fn crash_at_panics_with_a_typed_payload() {
        let plan = crate::FaultPlan::new(0).with_crash_at(10);
        let m = Machine::with_faults(EmConfig::new(256, 64), plan, BackendKind::InMemory);
        let m2 = m.clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || thrash(&m2)));
        let payload = result.expect_err("the kill switch must fire");
        let crash = payload
            .downcast_ref::<crate::CrashPoint>()
            .expect("crash panics carry a CrashPoint");
        assert_eq!(crash.io, 10);
        assert_eq!(m.transfers(), 11, "the crash fired on the 11th transfer");
        assert_eq!(
            m.fault_trace().last().unwrap().kind,
            crate::FaultKind::Crash
        );
    }

    #[test]
    fn per_worker_machines_from_a_shared_config_account_independently() {
        // The PEM spawning pattern: one Copy config, one machine per worker
        // thread, independent counters and gauges.
        let cfg = EmConfig::new(256, 64);
        let counted: Vec<crate::IoStats> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0u64..3)
                .map(|w| {
                    scope.spawn(move || {
                        let m = Machine::new(cfg);
                        let mut v: crate::ExtVec<u64> = crate::ExtVec::new(&m);
                        // Worker w writes (w + 1) blocks' worth of words.
                        for i in 0..(w + 1) * 64 {
                            v.push(i);
                        }
                        m.cold_cache();
                        m.stats().io
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(counted[0].writes, 1);
        assert_eq!(counted[1].writes, 2);
        assert_eq!(counted[2].writes, 3);
        let report = crate::WorkerReport::from_per_worker(counted);
        assert_eq!(report.max_io, 3);
        assert_eq!(report.sum_io, 6);
        assert!((report.balance - 1.5).abs() < 1e-12);
    }

    #[test]
    fn machine_survives_to_be_inspected_after_a_crash() {
        // After catching the unwind, the machine handle still answers:
        // counters, trace, and further I/O all work (the "disk" survived).
        let plan = crate::FaultPlan::new(0).with_crash_at(5);
        let m = Machine::with_faults(EmConfig::new(256, 64), plan, BackendKind::InMemory);
        let m2 = m.clone();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || thrash(&m2)));
        assert!(m.stats().io.total() <= 5);
        assert!(!m.fault_trace().is_empty());
    }

    // ------------------------------------------------------------------
    // Disk-plane parity tests.
    // ------------------------------------------------------------------

    /// A workload covering every charge path: fresh appends, dirty
    /// evictions, cold reads, read-modify-write overwrites, truncation and
    /// re-growth, and segment free/recycle.
    fn exercise(m: &Machine) -> Vec<u64> {
        let seg = m.new_segment();
        for i in 0..64 * 8usize {
            m.write_word(seg, i, i as u64);
        }
        m.cold_cache();
        // Read-modify-write overwrites of cold blocks.
        for i in (0..64 * 8usize).step_by(97) {
            m.write_word(seg, i, (i as u64) * 3 + 1);
        }
        // Truncate to mid-block and grow back.
        m.truncate_segment(seg, 100);
        for i in 100..300usize {
            m.write_word(seg, i, 7_000 + i as u64);
        }
        // A short-lived scratch segment, freed again.
        let scratch = m.new_segment();
        for i in 0..130usize {
            m.write_word(scratch, i, 1);
        }
        m.free_segment(scratch);
        m.cold_cache();
        (0..300usize).map(|i| m.read_word(seg, i)).collect()
    }

    #[test]
    fn disk_plane_matches_memory_accounting_and_payloads() {
        let cfg = EmConfig::new(256, 64); // 4 frames: plenty of eviction
        let mem = Machine::new(cfg);
        let mem_words = exercise(&mem);
        let disk = Machine::with_backend(cfg, BackendKind::Disk);
        assert_eq!(disk.backend(), BackendKind::Disk);
        let disk_words = exercise(&disk);
        assert_eq!(mem_words, disk_words, "bit-identical payloads");
        assert_eq!(mem.stats(), disk.stats(), "identical charged accounting");
        assert_eq!(mem.transfers(), disk.transfers());
    }

    #[test]
    fn disk_plane_real_ops_equal_charged_ops() {
        for backend in [BackendKind::InMemory, BackendKind::Disk] {
            let m = Machine::with_backend(EmConfig::new(256, 64), backend);
            exercise(&m);
            let io = m.io();
            let real = m.device_counters();
            assert_eq!(real.block_reads, io.reads, "one real read per charged read");
            assert_eq!(
                real.block_writes, io.writes,
                "one real write per charged write"
            );
        }
        let mem = Machine::new(EmConfig::new(256, 64));
        exercise(&mem);
        assert_eq!(mem.disk_counters(), None, "only a file device reports");
        let disk = Machine::with_backend(EmConfig::new(256, 64), BackendKind::Disk);
        exercise(&disk);
        assert_eq!(disk.disk_counters(), Some(disk.device_counters()));
        disk.sync();
        assert_eq!(disk.disk_counters().unwrap().syncs, 1);
    }

    #[test]
    fn freed_segments_leave_no_payload_on_the_device() {
        for backend in [BackendKind::InMemory, BackendKind::Disk] {
            let m = Machine::with_backend(EmConfig::new(256, 64), backend);
            let vecs: Vec<crate::ExtVec<u64>> = (0..3u64)
                .map(|k| crate::ExtVec::from_slice(&m, &vec![k; 700]))
                .collect();
            m.cold_cache();
            assert!(m.device_payload_words() >= 3 * 700);
            drop(vecs);
            assert_eq!(m.device_payload_words(), 0, "{backend:?}");
        }
    }

    /// Blocks wholly past a truncated segment's end are dead: neither a cold
    /// cache nor a later free may charge their write-back.
    #[test]
    fn truncation_never_charges_dead_blocks() {
        for backend in [BackendKind::InMemory, BackendKind::Disk] {
            let m = Machine::with_backend(EmConfig::new(1024, 64), backend);
            let mut a = crate::ExtVec::from_slice(&m, &[1u64; 128]);
            a.truncate(64);
            m.cold_cache();
            assert_eq!(m.io().writes, 1, "one live block, one write");
            let mut b = crate::ExtVec::from_slice(&m, &[2u64; 128]);
            b.clear();
            drop((a, b));
            m.cold_cache();
            assert_eq!(m.io().writes, 1, "no live block, no further write");
            assert_eq!(m.device_payload_words(), 0);
        }
    }

    #[test]
    fn disk_plane_backing_file_is_unlinked_on_drop() {
        let path = {
            let m = Machine::with_backend(EmConfig::new(256, 64), BackendKind::Disk);
            let seg = m.new_segment();
            for i in 0..200usize {
                m.write_word(seg, i, i as u64);
            }
            m.flush();
            let path = m.disk_file().expect("disk plane has a backing file");
            assert!(path.exists(), "backing file exists while the machine lives");
            path
        };
        assert!(
            !path.exists(),
            "backing file unlinked when the machine drops"
        );
    }

    #[test]
    fn faults_over_the_disk_plane_match_memory_exactly() {
        let plan = crate::FaultPlan::new(4242)
            .with_read_faults(120)
            .with_torn_writes(80);
        let mem = Machine::with_faults(EmConfig::new(256, 64), plan, BackendKind::InMemory);
        let mem_words = exercise(&mem);
        let disk = Machine::with_faults(EmConfig::new(256, 64), plan, BackendKind::Disk);
        let disk_words = exercise(&disk);
        assert_eq!(mem_words, disk_words);
        assert_eq!(mem.stats(), disk.stats(), "same faults, same accounting");
        assert_eq!(mem.fault_trace(), disk.fault_trace(), "same fault schedule");
        assert!(mem.stats().retry_io > 0, "the schedule must actually fire");
    }

    #[test]
    fn crash_on_the_disk_plane_still_unlinks_the_file() {
        let plan = crate::FaultPlan::new(0).with_crash_at(6);
        let m = Machine::with_faults(EmConfig::new(256, 64), plan, BackendKind::Disk);
        let path = m.disk_file().unwrap();
        let m2 = m.clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || thrash(&m2)));
        assert!(result.is_err(), "the kill switch must fire");
        assert!(
            path.exists(),
            "file survives the caught crash for inspection"
        );
        drop(m);
        assert!(!path.exists(), "file unlinked once every handle is gone");
    }
}
