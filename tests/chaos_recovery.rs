//! Chaos tests: deterministic fault schedules, and crash/resume exactness
//! at *every* possible crash point of a small fixed instance.
//!
//! These are the test-suite counterparts of experiment E9 (see
//! EXPERIMENTS.md): E9 samples crash points across a larger run inside the
//! `reproduce` harness; here the instance is small enough to kill the
//! machine at literally every charged block transfer — including the
//! graph-load preamble — and assert that recovery still delivers the
//! oracle's triangle multiset exactly once.

use emsim::{
    silence_simulated_crash_panics, BackendKind, CrashPoint, EmConfig, FaultPlan, Machine,
    RetryPolicy,
};
use graphgen::{generators, naive, Graph, Triangle};
use proptest::prelude::*;
use trienum::{enumerate_triangles_with_recovery, Checkpoint, CheckpointSpec, CollectingSink};

fn transient_plan(seed: u64, read_per_mille: u32, torn_per_mille: u32) -> FaultPlan {
    FaultPlan::new(seed)
        .with_read_faults(read_per_mille)
        .with_torn_writes(torn_per_mille)
        .with_retry(RetryPolicy::new(6, 4))
}

/// One full faulty (but crash-free) run; returns everything that must be
/// reproducible: the emissions, the cost counters and the fault trace.
fn faulty_run(
    g: &Graph,
    cfg: EmConfig,
    alg_seed: u64,
    plan: FaultPlan,
) -> (Vec<Triangle>, u64, u64, u64, Vec<emsim::FaultEvent>) {
    let machine = Machine::with_faults(cfg, plan, BackendKind::InMemory);
    let mut sink = CollectingSink::new();
    enumerate_triangles_with_recovery(g, &machine, alg_seed, &mut sink, None, None);
    let stats = machine.stats();
    (
        sink.into_triangles(),
        stats.io.total(),
        stats.retry_io,
        stats.retry_work,
        machine.fault_trace(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The fault schedule is a pure function of the plan: the same seed and
    // rates over the same run reproduce the identical fault trace, retry
    // counters and emissions — chaos tests never flake. (Plain comments:
    // the proptest shim's macro does not match doc attributes.)
    #[test]
    fn fault_schedules_are_deterministic(
        fault_seed in 0u64..10_000,
        read in 0u32..80,
        torn in 0u32..80,
    ) {
        let g = generators::erdos_renyi(40, 240, 5);
        let cfg = EmConfig::new(256, 16);
        let a = faulty_run(&g, cfg, 13, transient_plan(fault_seed, read, torn));
        let b = faulty_run(&g, cfg, 13, transient_plan(fault_seed, read, torn));
        prop_assert_eq!(&a.0, &b.0, "emission sequences diverged");
        prop_assert_eq!(a.1, b.1, "charged I/O diverged");
        prop_assert_eq!(a.2, b.2, "retry_io diverged");
        prop_assert_eq!(a.3, b.3, "retry_work diverged");
        prop_assert_eq!(&a.4, &b.4, "fault traces diverged");
        // And faults never change what is enumerated, only what it costs.
        prop_assert_eq!(a.0.len() as u64, naive::count_triangles(&g));
    }

    // A different fault seed at non-trivial rates yields a different
    // schedule (the trace is seed-sensitive, not rate-only).
    #[test]
    fn fault_schedules_are_seed_sensitive(fault_seed in 0u64..10_000) {
        let g = generators::erdos_renyi(40, 240, 5);
        let cfg = EmConfig::new(256, 16);
        let a = faulty_run(&g, cfg, 13, transient_plan(fault_seed, 60, 60));
        let b = faulty_run(&g, cfg, 13, transient_plan(fault_seed + 1, 60, 60));
        prop_assert_eq!(a.0.len(), b.0.len(), "faults must not change the output");
        prop_assert_ne!(&a.4, &b.4, "distinct seeds produced the identical fault trace");
    }
}

/// Kills the machine at every single charged block transfer of a small fixed
/// instance — graph-load preamble included — resumes each crash from its
/// surviving checkpoint (or from scratch when it died before the first one),
/// and asserts the exactly-once multiset and a leak-free gauge every time.
#[test]
fn kill_at_every_block_resumes_to_the_exact_multiset() {
    silence_simulated_crash_panics();
    // More edges than the cache-oblivious in-core base case, so the root
    // routes and checkpoints land at subproblem boundaries.
    let g = generators::erdos_renyi(40, 320, 3);
    let cfg = EmConfig::new(128, 16);
    let alg_seed = 21;

    // Reference: fault-free, same entry point.
    let reference = Machine::new(cfg);
    let mut oracle_sink = CollectingSink::new();
    enumerate_triangles_with_recovery(&g, &reference, alg_seed, &mut oracle_sink, None, None);
    let total_transfers = reference.transfers();
    let mut oracle = oracle_sink.into_triangles();
    oracle.sort_unstable();
    assert_eq!(oracle.len() as u64, naive::count_triangles(&g));
    assert!(total_transfers > 0);

    let scratch = std::env::temp_dir().join(format!("trienum-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("creating the chaos scratch directory");
    // Small enough that several checkpoints land inside the run.
    let interval_io = 16;
    let mut resumed_from_checkpoint = 0u64;

    for crash_at in 0..total_transfers {
        let ckpt_path = scratch.join(format!("kill-{crash_at}.ckpt"));
        let spec = CheckpointSpec {
            path: ckpt_path.clone(),
            interval_io,
        };
        let plan = FaultPlan::new(crash_at).with_crash_at(crash_at);
        let crashed = Machine::with_faults(cfg, plan, BackendKind::InMemory);
        let mut collected = CollectingSink::new();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            enumerate_triangles_with_recovery(
                &g,
                &crashed,
                alg_seed,
                &mut collected,
                Some(&spec),
                None,
            )
        }));
        let payload = outcome.expect_err("the kill switch must fire inside the run");
        if payload.downcast_ref::<CrashPoint>().is_none() {
            std::panic::resume_unwind(payload);
        }
        assert_eq!(
            crashed.gauge().in_use(),
            0,
            "kill@{crash_at}: leases leaked across the crash unwind"
        );

        let resume_machine = Machine::new(cfg);
        let ck = ckpt_path
            .exists()
            .then(|| Checkpoint::load(&ckpt_path).expect("loading the surviving checkpoint"));
        if let Some(ck) = &ck {
            assert_eq!(
                ck.hwm,
                collected.len() as u64,
                "kill@{crash_at}: checkpoint high-water mark disagrees with the committed count"
            );
            resumed_from_checkpoint += 1;
        } else {
            assert!(
                collected.is_empty(),
                "kill@{crash_at}: triangles committed although no checkpoint was written"
            );
        }
        enumerate_triangles_with_recovery(
            &g,
            &resume_machine,
            alg_seed,
            &mut collected,
            None,
            ck.as_ref(),
        );
        assert_eq!(
            resume_machine.gauge().in_use(),
            0,
            "kill@{crash_at}: leases leaked by the resumed run"
        );

        let mut got = collected.into_triangles();
        got.sort_unstable();
        assert_eq!(
            got, oracle,
            "kill@{crash_at}: the recovered multiset differs from the oracle"
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);

    // The sweep must actually exercise the resume path, not just reruns.
    assert!(
        resumed_from_checkpoint > 0,
        "no crash point ever found a checkpoint to resume from — interval too coarse?"
    );
}
