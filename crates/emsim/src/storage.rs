//! The block devices beneath the simulated disk, and the error taxonomy and
//! retry policy of the charge lane above them.
//!
//! Every [`crate::Machine`] is one stack:
//!
//! 1. **The charge lane** counts every charged block transfer — a cache-miss
//!    read, a read-modify-write fill, a dirty eviction, a flush — and runs it
//!    past the machine's [`crate::FaultPlan`] first. The plan decides whether
//!    the transfer succeeds and at what retry cost: transient read errors and
//!    torn writes are absorbed by a bounded [`RetryPolicy`] and charged to the
//!    `retry_io` / `retry_work` counters of [`crate::RunStats`], and a
//!    `CrashAt` kill switch aborts the run mid-transfer. A machine built
//!    without a plan runs an empty one, which returns before any roll.
//! 2. **The buffer pool** holds `M/B` frames of `B` words and runs the
//!    simulator's LRU cache over them, one frame per cache slot.
//! 3. **The [`BlockDevice`]** holds every block that is not resident:
//!    [`crate::BackendKind`] picks the in-memory device (each segment's blocks
//!    in one host vec) or [`DiskStorage`] (a real temp file).
//!
//! The pool executes one device read per charged read and one device write
//! per charged write on either device, which is what the E11 parity
//! experiment verifies on the file.
//!
//! Permanent failures — retry exhaustion and disk-full — surface as typed
//! [`StorageError`]s through the `try_*` accessors of [`crate::ExtVec`];
//! the infallible accessors panic with the error's message.

use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::cache::{block_key, key_block, key_segment};

/// Direction of a charged block transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferDir {
    /// Disk-to-memory: a cache miss or a read-modify-write fill.
    Read,
    /// Memory-to-disk: a dirty eviction or an explicit flush.
    Write,
}

/// Typed errors the storage layer can surface.
///
/// `Crashed` never reaches callers as a value: the machine converts it into
/// a panic carrying a [`crate::CrashPoint`] payload, because a crash is by
/// definition not handleable by the running algorithm — only by a harness
/// that catches the unwind and resumes from a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageError {
    /// A read kept failing after every allowed attempt.
    ReadFailed {
        /// Ordinal of the failing transfer (0-based count of charged transfers).
        io: u64,
        /// Number of attempts made, i.e. the policy's `max_attempts`.
        attempts: u32,
    },
    /// A write kept tearing mid-block after every allowed attempt.
    TornWrite {
        /// Ordinal of the failing transfer.
        io: u64,
        /// Number of attempts made.
        attempts: u32,
    },
    /// The disk is full: an append would exceed the configured capacity.
    NoSpace {
        /// The configured capacity, in words.
        capacity_words: u64,
        /// The disk usage the append would have required, in words.
        requested_words: u64,
    },
    /// The `CrashAt` kill switch fired at this transfer ordinal.
    Crashed {
        /// Ordinal of the transfer at which the crash fired.
        io: u64,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::ReadFailed { io, attempts } => {
                write!(
                    f,
                    "read failed permanently at I/O #{io} after {attempts} attempts"
                )
            }
            StorageError::TornWrite { io, attempts } => {
                write!(
                    f,
                    "write torn permanently at I/O #{io} after {attempts} attempts"
                )
            }
            StorageError::NoSpace {
                capacity_words,
                requested_words,
            } => write!(
                f,
                "disk full: append needs {requested_words} words, capacity is {capacity_words}"
            ),
            StorageError::Crashed { io } => write!(f, "storage crashed at I/O #{io}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Bounded-retry policy with simulated exponential backoff.
///
/// A transfer is attempted up to `max_attempts` times; each failed attempt
/// charges one extra I/O in the transfer's direction (accounted under
/// `retry_io`) and an exponentially growing backoff of
/// `backoff_work << k` work units for the `k`-th failure (accounted under
/// `retry_work`). If all attempts fail the fault is permanent and surfaces
/// as a [`StorageError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of attempts per transfer (at least 1).
    pub max_attempts: u32,
    /// Work units charged for the first backoff; doubles per further failure.
    pub backoff_work: u64,
}

impl RetryPolicy {
    /// Creates a policy.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero.
    pub fn new(max_attempts: u32, backoff_work: u64) -> Self {
        assert!(max_attempts >= 1, "a transfer needs at least one attempt");
        Self {
            max_attempts,
            backoff_work,
        }
    }

    /// Total simulated backoff work for `failures` consecutive failed
    /// attempts: `Σ_{k<failures} backoff_work · 2^k`.
    pub fn backoff_cost(&self, failures: u32) -> u64 {
        let mut total = 0u64;
        for k in 0..failures {
            total = total.saturating_add(self.backoff_work.saturating_mul(1u64 << k.min(62)));
        }
        total
    }
}

impl Default for RetryPolicy {
    /// Four attempts, first backoff 8 work units.
    fn default() -> Self {
        Self::new(4, 8)
    }
}

/// Real-I/O counters of a [`BlockDevice`]: the *measured* side of the E11
/// sim-vs-disk correlation experiment, kept apart from the simulated
/// [`crate::IoStats`] so the spec (charged transfers) and the witness
/// (executed transfers) can be compared.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DiskCounters {
    /// Blocks actually read from the device.
    pub block_reads: u64,
    /// Blocks actually written to the device.
    pub block_writes: u64,
    /// `sync` (fsync) barriers issued.
    pub syncs: u64,
}

impl DiskCounters {
    /// Total executed block transfers (reads + writes, syncs excluded).
    pub fn total(&self) -> u64 {
        self.block_reads + self.block_writes
    }
}

/// A data-carrying block store: the device the machine's buffer pool fills
/// missed frames from and writes evicted dirty frames to.
///
/// Keys are the machine's `(segment, block)` block keys — the segment id
/// above bit 40, the block index below it; a block is always transferred
/// whole (`B` words). Implementations panic on unrecoverable real I/O
/// errors: a failing *simulated* transfer is the charge lane's job, a
/// failing host filesystem is not recoverable by the algorithm under test.
pub trait BlockDevice {
    /// Whether `key` has been written to the device (and not freed since).
    fn contains(&self, key: u64) -> bool;
    /// Reads block `key` into `buf`. Panics if the block is absent.
    fn read_block(&mut self, key: u64, buf: &mut [u64]);
    /// Writes block `key` from `data`, allocating room on first write.
    fn write_block(&mut self, key: u64, data: &[u64]);
    /// Releases blocks `blocks` of segment `segment`: the blocks wholly past
    /// a truncated segment's new end, or every block of a freed segment.
    fn free_blocks(&mut self, segment: u32, blocks: Range<u64>);
    /// Durability barrier (`fsync` on a real device).
    fn sync(&mut self);
    /// The real-I/O counters so far.
    fn counters(&self) -> DiskCounters;
    /// The backing file (`None` for a device that keeps blocks in host RAM).
    fn file(&self) -> Option<&Path>;
    /// Words of block payload the device holds.
    #[cfg(test)]
    fn payload_words(&self) -> usize;
}

/// The in-memory block device: segment `s`'s block `b` lives at words
/// `b·B ..` of the segment's one host vec. The vec grows to the highest
/// block written and is dropped when its segment is freed, so the device
/// never holds a dead segment's payload.
pub(crate) struct MemDevice {
    block_words: usize,
    segments: Vec<MemSegment>,
    counters: DiskCounters,
}

#[derive(Default)]
struct MemSegment {
    words: Vec<u64>,
    /// Whether block `b` has been written: evictions reach the device in LRU
    /// order, so the vec can hold zeroed gaps for blocks not yet written.
    written: Vec<bool>,
}

impl MemDevice {
    pub(crate) fn new(block_words: usize) -> Self {
        Self {
            block_words,
            // emlint: allow(unleased, reason = "the in-memory device's per-segment table, below the charge boundary; one entry per segment id, not algorithm memory")
            segments: Vec::new(),
            counters: DiskCounters::default(),
        }
    }

    /// The segment index and block index of `key`.
    fn locate(key: u64) -> (usize, usize) {
        let index = |x: u64| usize::try_from(x).expect("block key fits in usize");
        (index(key_segment(key)), index(key_block(key)))
    }
}

impl BlockDevice for MemDevice {
    fn contains(&self, key: u64) -> bool {
        let (seg, block) = Self::locate(key);
        self.segments
            .get(seg)
            .and_then(|s| s.written.get(block))
            .is_some_and(|&written| written)
    }

    fn read_block(&mut self, key: u64, buf: &mut [u64]) {
        assert!(
            self.contains(key),
            "block {key:#x} was never written to the in-memory device"
        );
        let (seg, block) = Self::locate(key);
        let first = block * self.block_words;
        buf.copy_from_slice(&self.segments[seg].words[first..first + self.block_words]);
        self.counters.block_reads += 1;
    }

    fn write_block(&mut self, key: u64, data: &[u64]) {
        let (seg, block) = Self::locate(key);
        if self.segments.len() <= seg {
            self.segments.resize_with(seg + 1, MemSegment::default);
        }
        let s = &mut self.segments[seg];
        let end = (block + 1) * self.block_words;
        if s.words.len() < end {
            s.words.resize(end, 0);
            s.written.resize(block + 1, false);
        }
        s.words[end - self.block_words..end].copy_from_slice(data);
        s.written[block] = true;
        self.counters.block_writes += 1;
    }

    fn free_blocks(&mut self, segment: u32, blocks: Range<u64>) {
        let Some(s) = self.segments.get_mut(segment as usize) else {
            return;
        };
        // The machine frees a suffix: everything from `blocks.start` on.
        let keep = usize::try_from(blocks.start).expect("block index fits in usize");
        if keep == 0 {
            *s = MemSegment::default();
        } else if keep < s.written.len() {
            s.words.truncate(keep * self.block_words);
            s.written.truncate(keep);
        }
    }

    fn sync(&mut self) {}

    fn counters(&self) -> DiskCounters {
        self.counters
    }

    fn file(&self) -> Option<&Path> {
        None
    }

    #[cfg(test)]
    fn payload_words(&self) -> usize {
        self.segments.iter().map(|s| s.words.capacity()).sum()
    }
}

/// Process-unique suffix for backing-file names: several machines (one per
/// PEM worker) create their files in the same temp directory concurrently.
static DISK_FILE_SEQ: AtomicU64 = AtomicU64::new(0);

#[cfg(unix)]
fn read_block_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(unix)]
fn write_block_at(file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.write_all_at(buf, offset)
}

#[cfg(not(unix))]
fn read_block_at(mut file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

#[cfg(not(unix))]
fn write_block_at(mut file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    use std::io::{Seek, SeekFrom, Write};
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(buf)
}

/// The file-backed block device: blocks live in one real `std::fs::File` at
/// block-aligned offsets (pread/pwrite-style positional I/O — no append
/// cursor), `sync` is `fsync`, and the file is unlinked on drop.
///
/// The layout is a slot table: the first write of a block key claims the
/// lowest free `block_words · 8`-byte slot (slots of freed blocks are
/// recycled), so the file never grows past the peak live block count. Words
/// are stored little-endian, independent of the host.
///
/// `DiskStorage` holds no cache of its own — residency and eviction policy
/// belong to the machine's buffer pool in front of it — and it counts every
/// executed transfer in [`DiskCounters`], the measured side of E11.
pub struct DiskStorage {
    file: File,
    path: PathBuf,
    block_words: usize,
    /// block key → slot index in the file.
    // emlint: allow(uncharged-std, reason = "host-side slot table of the real device, below the charge boundary; one entry per live block, not algorithm memory")
    slots: HashMap<u64, u64>,
    free_slots: Vec<u64>,
    next_slot: u64,
    /// Reused little-endian staging buffer (one block of bytes).
    byte_buf: Vec<u8>,
    counters: DiskCounters,
}

impl DiskStorage {
    /// Creates a backing file in the system temp directory. The file name is
    /// process- and instance-unique, so per-worker machines never collide.
    pub fn create(block_words: usize) -> io::Result<Self> {
        Self::create_in(&std::env::temp_dir(), block_words)
    }

    /// Creates a backing file inside `dir` (which must exist).
    pub fn create_in(dir: &Path, block_words: usize) -> io::Result<Self> {
        assert!(block_words > 0, "a block holds at least one word");
        let seq = DISK_FILE_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("emsim-disk-{}-{seq}.blocks", std::process::id()));
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        Ok(Self {
            file,
            path,
            block_words,
            // emlint: allow(uncharged-std, reason = "slot table of the real device, grown one entry per live block, below the charge boundary")
            slots: HashMap::new(),
            // emlint: allow(unleased, reason = "device bookkeeping (free-slot list) plus one reused B-word staging buffer, below the charge boundary")
            free_slots: Vec::new(),
            next_slot: 0,
            byte_buf: vec![0u8; block_words * 8],
            counters: DiskCounters::default(),
        })
    }

    fn slot_offset(&self, slot: u64) -> u64 {
        slot * (self.block_words as u64) * 8
    }
}

impl BlockDevice for DiskStorage {
    fn contains(&self, key: u64) -> bool {
        self.slots.contains_key(&key)
    }

    fn read_block(&mut self, key: u64, buf: &mut [u64]) {
        assert_eq!(buf.len(), self.block_words, "whole-block transfers only");
        let slot = *self
            .slots
            .get(&key)
            .unwrap_or_else(|| panic!("block {key:#x} was never written to the disk backend"));
        let offset = self.slot_offset(slot);
        read_block_at(&self.file, &mut self.byte_buf, offset).unwrap_or_else(|e| {
            panic!(
                "disk backend read failed at {} (block {key:#x}): {e}",
                self.path.display()
            )
        });
        for (i, word) in buf.iter_mut().enumerate() {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(&self.byte_buf[i * 8..i * 8 + 8]);
            *word = u64::from_le_bytes(bytes);
        }
        self.counters.block_reads += 1;
    }

    fn write_block(&mut self, key: u64, data: &[u64]) {
        assert_eq!(data.len(), self.block_words, "whole-block transfers only");
        let next = &mut self.next_slot;
        let free = &mut self.free_slots;
        let slot = *self.slots.entry(key).or_insert_with(|| {
            free.pop().unwrap_or_else(|| {
                let s = *next;
                *next += 1;
                s
            })
        });
        for (i, word) in data.iter().enumerate() {
            self.byte_buf[i * 8..i * 8 + 8].copy_from_slice(&word.to_le_bytes());
        }
        let offset = self.slot_offset(slot);
        write_block_at(&self.file, &self.byte_buf, offset).unwrap_or_else(|e| {
            panic!(
                "disk backend write failed at {} (block {key:#x}): {e}",
                self.path.display()
            )
        });
        self.counters.block_writes += 1;
    }

    fn free_blocks(&mut self, segment: u32, blocks: Range<u64>) {
        for block in blocks {
            if let Some(slot) = self.slots.remove(&block_key(segment, block)) {
                self.free_slots.push(slot);
            }
        }
    }

    fn sync(&mut self) {
        self.file.sync_all().unwrap_or_else(|e| {
            panic!("disk backend fsync failed at {}: {e}", self.path.display())
        });
        self.counters.syncs += 1;
    }

    fn counters(&self) -> DiskCounters {
        self.counters
    }

    fn file(&self) -> Option<&Path> {
        Some(&self.path)
    }

    #[cfg(test)]
    fn payload_words(&self) -> usize {
        self.slots.len() * self.block_words
    }
}

impl fmt::Debug for DiskStorage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiskStorage")
            .field("path", &self.path)
            .field("block_words", &self.block_words)
            .field("live_blocks", &self.slots.len())
            .field("counters", &self.counters)
            .finish()
    }
}

impl Drop for DiskStorage {
    fn drop(&mut self) {
        // Best-effort cleanup: the temp file is scoped to this device's
        // lifetime. Ignoring the error is deliberate (the file may already
        // be gone if the temp dir was purged).
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_cost_is_exponential() {
        let p = RetryPolicy::new(5, 8);
        assert_eq!(p.backoff_cost(0), 0);
        assert_eq!(p.backoff_cost(1), 8);
        assert_eq!(p.backoff_cost(2), 8 + 16);
        assert_eq!(p.backoff_cost(3), 8 + 16 + 32);
    }

    #[test]
    #[should_panic]
    fn zero_attempts_rejected() {
        let _ = RetryPolicy::new(0, 1);
    }

    #[test]
    fn errors_display_their_parameters() {
        let e = StorageError::ReadFailed { io: 7, attempts: 4 };
        assert!(format!("{e}").contains("#7"));
        let e = StorageError::NoSpace {
            capacity_words: 100,
            requested_words: 101,
        };
        let s = format!("{e}");
        assert!(s.contains("101") && s.contains("100"));
        let e = StorageError::Crashed { io: 3 };
        assert!(format!("{e}").contains("#3"));
        let e = StorageError::TornWrite { io: 9, attempts: 2 };
        assert!(format!("{e}").contains("torn"));
    }

    #[test]
    fn disk_storage_round_trips_blocks() {
        let mut dev = DiskStorage::create(8).expect("temp file");
        assert!(!dev.contains(3));
        let data: Vec<u64> = (0..8).map(|i| i * 7 + 1).collect();
        dev.write_block(3, &data);
        assert!(dev.contains(3));
        let mut back = vec![0u64; 8];
        dev.read_block(3, &mut back);
        assert_eq!(back, data);
        dev.sync();
        let c = dev.counters();
        assert_eq!((c.block_reads, c.block_writes, c.syncs), (1, 1, 1));
        assert_eq!(c.total(), 2);
    }

    #[test]
    fn disk_storage_recycles_freed_slots() {
        let mut dev = DiskStorage::create(4).expect("temp file");
        dev.write_block(1, &[1; 4]);
        dev.write_block(2, &[2; 4]);
        let len_two = std::fs::metadata(dev.file().unwrap()).unwrap().len();
        dev.free_blocks(0, 1..2);
        assert!(!dev.contains(1));
        // The freed slot is reused: the file does not grow.
        dev.write_block(9, &[9; 4]);
        assert_eq!(
            std::fs::metadata(dev.file().unwrap()).unwrap().len(),
            len_two
        );
        let mut back = vec![0u64; 4];
        dev.read_block(9, &mut back);
        assert_eq!(back, [9; 4]);
        // Overwrites reuse the existing slot too.
        dev.write_block(2, &[7; 4]);
        assert_eq!(
            std::fs::metadata(dev.file().unwrap()).unwrap().len(),
            len_two
        );
        dev.read_block(2, &mut back);
        assert_eq!(back, [7; 4]);
    }

    #[test]
    fn disk_storage_unlinks_its_file_on_drop() {
        let dev = DiskStorage::create(4).expect("temp file");
        let path = dev.file().unwrap().to_path_buf();
        assert!(path.exists());
        drop(dev);
        assert!(!path.exists(), "the backing file is temp-scoped");
    }

    #[test]
    fn mem_device_round_trips_blocks_written_out_of_order() {
        let mut dev = MemDevice::new(4);
        dev.write_block(block_key(2, 3), &[3; 4]);
        assert!(dev.contains(block_key(2, 3)));
        assert!(
            !dev.contains(block_key(2, 1)),
            "a gap below a written block is not on the device"
        );
        dev.write_block(block_key(2, 1), &[1; 4]);
        let mut back = [0u64; 4];
        dev.read_block(block_key(2, 3), &mut back);
        assert_eq!(back, [3; 4]);
        dev.read_block(block_key(2, 1), &mut back);
        assert_eq!(back, [1; 4]);
        let c = dev.counters();
        assert_eq!((c.block_reads, c.block_writes), (2, 2));
        assert!(dev.file().is_none());
    }

    #[test]
    fn mem_device_frees_a_tail_and_drops_a_freed_segment() {
        let mut dev = MemDevice::new(4);
        for b in 0..4 {
            dev.write_block(block_key(0, b), &[b; 4]);
            dev.write_block(block_key(1, b), &[b; 4]);
        }
        dev.free_blocks(0, 2..4);
        assert!(dev.contains(block_key(0, 1)) && !dev.contains(block_key(0, 2)));
        dev.free_blocks(1, 0..4);
        assert!(!dev.contains(block_key(1, 0)));
        dev.free_blocks(0, 0..2);
        assert_eq!(dev.payload_words(), 0, "freed segments hold no words");
    }

    #[test]
    #[should_panic(expected = "never written")]
    fn reading_an_unwritten_block_panics() {
        let mut dev = DiskStorage::create(4).expect("temp file");
        let mut buf = vec![0u64; 4];
        dev.read_block(42, &mut buf);
    }
}
