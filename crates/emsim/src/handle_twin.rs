//! Twin tests of the block-handle access path.
//!
//! [`ExtVec`] and [`ScanReader`] reach their blocks through cursor-held
//! handles, one machine call per record. The same operations spelled out
//! word by word through [`Machine::read_word`] / [`Machine::write_word`]
//! take the keyed path on every word. The two must charge identically:
//! same counters, same transfer ordinals, same fault trace, same payloads
//! and, on the disk plane, the same real device operations.

// Script parameters are random `u64`s reduced modulo small lengths.
#![allow(clippy::cast_possible_truncation)]

use proptest::prelude::*;

use crate::cache::BlockHandle;
use crate::{BackendKind, EmConfig, ExtVec, FaultPlan, Machine, Record, RetryPolicy};

/// Everything a run is compared on.
fn observe(m: &Machine) -> impl PartialEq + std::fmt::Debug {
    (m.stats(), m.transfers(), m.fault_trace(), m.disk_counters())
}

/// The machine variants every script runs on: both planes, each with and
/// without a transient fault plan (retries generous enough never to run out).
fn machines(cfg: EmConfig, seed: u64) -> Vec<(Machine, Machine)> {
    let plan = FaultPlan::new(seed)
        .with_read_faults(150)
        .with_torn_writes(100)
        .with_retry(RetryPolicy::new(12, 3));
    let mut out = Vec::new();
    for backend in [BackendKind::InMemory, BackendKind::Disk] {
        out.push((
            Machine::with_backend(cfg, backend),
            Machine::with_backend(cfg, backend),
        ));
        out.push((
            Machine::with_faults(cfg, plan, backend),
            Machine::with_faults(cfg, plan, backend),
        ));
    }
    out
}

/// One array in the per-word mirror: its segment and its length in records.
struct WordVec {
    seg: u32,
    len: usize,
}

fn word_push<T: Record>(m: &Machine, v: &mut WordVec, x: T) {
    let mut buf = [0u64; 4];
    x.encode(&mut buf[..T::WORDS]);
    for (k, &w) in buf[..T::WORDS].iter().enumerate() {
        m.write_word(v.seg, v.len * T::WORDS + k, w);
    }
    v.len += 1;
}

fn word_get<T: Record>(m: &Machine, v: &WordVec, idx: usize) -> T {
    let mut buf = [0u64; 4];
    for (k, w) in buf[..T::WORDS].iter_mut().enumerate() {
        *w = m.read_word(v.seg, idx * T::WORDS + k);
    }
    T::decode(&buf[..T::WORDS])
}

fn word_set<T: Record>(m: &Machine, v: &WordVec, idx: usize, x: T) {
    let mut buf = [0u64; 4];
    x.encode(&mut buf[..T::WORDS]);
    for (k, &w) in buf[..T::WORDS].iter().enumerate() {
        m.write_word(v.seg, idx * T::WORDS + k, w);
    }
}

/// One scripted op: its selector and three random parameters.
type Op = (u8, u64, u64, u64);

/// A reader of one scan step: array index and `[pos, end)` in records.
type Cursor = (usize, usize, usize);

/// The cursors of an interleaved scan: two or three ranges over live
/// arrays, the first two on the *same* array when `shared` is set.
fn cursors(lens: &[usize], live: &[usize], pick: u64, span: u64, shared: bool) -> Vec<Cursor> {
    let n = 2 + (pick % 2) as usize;
    (0..n)
        .map(|r| {
            let salt = (pick >> (8 * r)) as usize;
            let a = if shared && r == 1 {
                live[pick as usize % live.len()]
            } else {
                live[salt % live.len()]
            };
            let len = lens[a];
            let s = (span >> (16 * r)) as usize % (len + 1);
            let e = s + (span >> (16 * r + 8)) as usize % (len - s + 1);
            (a, s, e)
        })
        .collect()
}

/// Runs one op script through both access paths and compares them after
/// every op.
fn run_script<T: Record + PartialEq + std::fmt::Debug>(
    handles: &Machine,
    words: &Machine,
    ops: &[Op],
    make: fn(u64) -> T,
) {
    let mut vecs: Vec<Option<ExtVec<T>>> = Vec::new();
    let mut mirror: Vec<Option<WordVec>> = Vec::new();
    let mut got_h: Vec<T> = Vec::new();
    let mut got_w: Vec<T> = Vec::new();
    for (step, &(op, a, b, c)) in ops.iter().enumerate() {
        let live: Vec<usize> = (0..vecs.len()).filter(|&i| vecs[i].is_some()).collect();
        let pick = live.get(a as usize % live.len().max(1)).copied();
        match (op % 9, pick) {
            (0, _) | (_, None) => {
                vecs.push(Some(ExtVec::new(handles)));
                mirror.push(Some(WordVec {
                    seg: words.new_segment(),
                    len: 0,
                }));
            }
            (1 | 2, Some(v)) => {
                for k in 0..(b % 40 + 1) {
                    let x = make(c.wrapping_add(k));
                    vecs[v].as_mut().unwrap().push(x);
                    word_push(words, mirror[v].as_mut().unwrap(), x);
                }
            }
            (3, Some(v)) => {
                let len = mirror[v].as_ref().unwrap().len;
                if len > 0 {
                    let i = b as usize % len;
                    got_h.push(vecs[v].as_ref().unwrap().get(i));
                    got_w.push(word_get(words, mirror[v].as_ref().unwrap(), i));
                }
            }
            (4, Some(v)) => {
                let len = mirror[v].as_ref().unwrap().len;
                if len > 0 {
                    let i = b as usize % len;
                    vecs[v].as_mut().unwrap().set(i, make(c));
                    word_set(words, mirror[v].as_ref().unwrap(), i, make(c));
                }
            }
            (5 | 6, Some(_)) => {
                let lens: Vec<usize> = mirror
                    .iter()
                    .map(|w| w.as_ref().map_or(0, |w| w.len))
                    .collect();
                let cs = cursors(&lens, &live, b, c, op % 9 == 5);
                let mut readers: Vec<_> = cs
                    .iter()
                    .map(|&(v, s, e)| vecs[v].as_ref().unwrap().range(s, e))
                    .collect();
                let mut pos: Vec<Cursor> = cs.clone();
                // Round-robin until every reader is exhausted.
                let mut any = true;
                while any {
                    any = false;
                    for (r, reader) in readers.iter_mut().enumerate() {
                        let (v, p, e) = pos[r];
                        if p < e {
                            any = true;
                            got_h.push(reader.next().expect("reader ends with its range"));
                            got_w.push(word_get(words, mirror[v].as_ref().unwrap(), p));
                            pos[r].1 += 1;
                        } else {
                            assert!(reader.next().is_none());
                        }
                    }
                }
            }
            (7, Some(v)) => {
                vecs[v] = None;
                let w = mirror[v].take().unwrap();
                words.free_segment(w.seg);
            }
            (_, Some(_)) => {
                if b % 2 == 0 {
                    assert_eq!(handles.cold_cache(), words.cold_cache());
                } else {
                    assert_eq!(handles.flush(), words.flush());
                }
            }
        }
        assert_eq!(observe(handles), observe(words), "step {step}, op {op}");
    }
    assert_eq!(got_h, got_w, "payloads");
    for (v, w) in vecs.iter().zip(&mirror) {
        if let (Some(v), Some(w)) = (v, w) {
            let all: Vec<T> = (0..w.len).map(|i| word_get(words, w, i)).collect();
            assert_eq!(v.load_all(), all);
        }
    }
    assert_eq!(observe(handles), observe(words), "after the final loads");
}

/// A script: frame count, block-size choice, fault seed and the ops.
fn arb_script() -> impl Strategy<Value = (u64, u64, u64, Vec<Op>)> {
    (
        1u64..5,
        0u64..5,
        any::<u64>(),
        prop::collection::vec(
            (any::<u8>(), any::<u64>(), any::<u64>(), any::<u64>()),
            1..60,
        ),
    )
}

fn config(frames: u64, b: u64) -> EmConfig {
    // Odd block sizes make two-word records straddle block boundaries.
    let block_words = [3usize, 4, 5, 7, 8][b as usize];
    EmConfig::new(frames as usize * block_words, block_words)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn one_word_records_charge_like_word_by_word_access(script in arb_script()) {
        let (frames, b, seed, ops) = script;
        for (handles, words) in machines(config(frames, b), seed) {
            run_script(&handles, &words, &ops, |x| x);
        }
    }

    #[test]
    fn two_word_records_charge_like_word_by_word_access(script in arb_script()) {
        let (frames, b, seed, ops) = script;
        for (handles, words) in machines(config(frames, b), seed) {
            run_script(&handles, &words, &ops, |x| (x, !x));
        }
    }
}

// ----------------------------------------------------------------------
// Stale handles: a cursor holding a handle across each event that ends its
// validity must fall back to the keyed path and charge what word-by-word
// access charges.
// ----------------------------------------------------------------------

/// Both planes, each as a (handle machine, word machine) pair.
fn plane_pairs(cfg: EmConfig) -> Vec<(Machine, Machine)> {
    [BackendKind::InMemory, BackendKind::Disk]
        .into_iter()
        .map(|b| (Machine::with_backend(cfg, b), Machine::with_backend(cfg, b)))
        .collect()
}

/// Appends `n` words `0..n` to a fresh segment.
fn filled(m: &Machine, n: usize) -> u32 {
    let seg = m.new_segment();
    for i in 0..n {
        m.write_word(seg, i, i as u64);
    }
    seg
}

fn read_with(m: &Machine, seg: u32, idx: usize, h: &mut BlockHandle) -> u64 {
    m.read_record::<u64>(seg, idx, h).expect("fault-free read")
}

#[test]
fn a_handle_whose_block_was_evicted_takes_the_keyed_path() {
    // Two frames of 4 words; three blocks in the segment.
    for (hm, wm) in plane_pairs(EmConfig::new(8, 4)) {
        let (hs, ws) = (filled(&hm, 12), filled(&wm, 12));
        let mut h = BlockHandle::default();
        assert_eq!(read_with(&hm, hs, 0, &mut h), wm.read_word(ws, 0));
        assert!(hm.holds(&h));
        // Other traffic evicts block 0.
        for i in [4, 8] {
            assert_eq!(hm.read_word(hs, i), wm.read_word(ws, i));
        }
        assert!(!hm.holds(&h), "eviction ends the handle");
        assert_eq!(read_with(&hm, hs, 1, &mut h), wm.read_word(ws, 1));
        assert!(hm.holds(&h));
        assert_eq!(observe(&hm), observe(&wm));
        assert!(hm.io().reads > 0, "the re-read was a charged miss");
    }
}

#[test]
fn a_handle_on_a_freed_segment_takes_the_keyed_path_after_slot_reuse() {
    for (hm, wm) in plane_pairs(EmConfig::new(8, 4)) {
        let (hs, ws) = (filled(&hm, 4), filled(&wm, 4));
        let (hx, wx) = (hm.new_segment(), wm.new_segment());
        let mut h = BlockHandle::default();
        assert_eq!(read_with(&hm, hs, 0, &mut h), wm.read_word(ws, 0));
        hm.free_segment(hs);
        wm.free_segment(ws);
        assert!(!hm.holds(&h), "freeing the segment ends the handle");
        // Another segment's block takes the freed slot.
        for i in 0..4 {
            hm.write_word(hx, i, 50 + i as u64);
            wm.write_word(wx, i, 50 + i as u64);
        }
        assert!(!hm.holds(&h));
        // The freed id is recycled, so the handle's key names a live block
        // again — in a different slot. The stale handle must find it by key.
        let (hy, wy) = (filled(&hm, 4), filled(&wm, 4));
        assert_eq!(hy, hs, "segment ids are recycled");
        assert_eq!(read_with(&hm, hy, 1, &mut h), wm.read_word(wy, 1));
        assert!(hm.holds(&h));
        assert_eq!(observe(&hm), observe(&wm));
    }
}

#[test]
fn a_handle_held_across_a_cold_cache_takes_the_keyed_path() {
    for (hm, wm) in plane_pairs(EmConfig::new(16, 4)) {
        let (hs, ws) = (filled(&hm, 8), filled(&wm, 8));
        let mut h = BlockHandle::default();
        assert_eq!(read_with(&hm, hs, 5, &mut h), wm.read_word(ws, 5));
        assert!(hm.holds(&h));
        assert_eq!(hm.cold_cache(), wm.cold_cache());
        assert!(!hm.holds(&h), "a cold cache ends every handle");
        let before = hm.io().reads;
        assert_eq!(read_with(&hm, hs, 6, &mut h), wm.read_word(ws, 6));
        assert_eq!(hm.io().reads, before + 1, "the re-read is a real miss");
        assert_eq!(observe(&hm), observe(&wm));
    }
}

#[test]
fn a_failed_read_charge_leaves_the_cursor_handle_stale() {
    // Every read attempt fails half the time, with no retries: some read
    // charges fail and discard the block they just admitted.
    let plan = FaultPlan::new(9)
        .with_read_faults(500)
        .with_retry(RetryPolicy::new(1, 1));
    for backend in [BackendKind::InMemory, BackendKind::Disk] {
        let cfg = EmConfig::new(8, 4);
        let hm = Machine::with_faults(cfg, plan, backend);
        let wm = Machine::with_faults(cfg, plan, backend);
        let (hs, ws) = (filled(&hm, 12), filled(&wm, 12));
        hm.cold_cache();
        wm.cold_cache();
        let mut h = BlockHandle::default();
        let mut failures = 0;
        for idx in 0..12 {
            // Retry each word until its read charge succeeds; the cursor
            // keeps its handle across the failed attempts.
            loop {
                let got = hm.read_record::<u64>(hs, idx, &mut h);
                let want = wm.read_record::<u64>(ws, idx, &mut BlockHandle::default());
                assert_eq!(got, want);
                assert_eq!(observe(&hm), observe(&wm));
                if got.is_ok() {
                    break;
                }
                failures += 1;
                assert!(!hm.holds(&h), "the failed miss discarded its block");
            }
        }
        assert!(failures > 0, "the plan must make some read charge fail");
    }
}

#[test]
fn stream_handles_skip_no_touch_and_add_none() {
    // Two cursors alternating over one segment (the cone-cursor pattern):
    // each keeps its own valid handle, and the charges equal the word path.
    for (hm, wm) in plane_pairs(EmConfig::new(8, 4)) {
        let (hs, ws) = (filled(&hm, 16), filled(&wm, 16));
        hm.cold_cache();
        wm.cold_cache();
        let (mut a, mut b) = (BlockHandle::default(), BlockHandle::default());
        for i in 0..8 {
            assert_eq!(read_with(&hm, hs, i, &mut a), wm.read_word(ws, i));
            assert_eq!(read_with(&hm, hs, 8 + i, &mut b), wm.read_word(ws, 8 + i));
            assert!(hm.holds(&a) && hm.holds(&b));
        }
        assert_eq!(observe(&hm), observe(&wm));
        assert_eq!(hm.io().reads, 4, "each block read exactly once");
    }
}
