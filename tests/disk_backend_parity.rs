//! Disk-backend parity pins. Every machine runs the same stack — a charge
//! lane executing its fault plan, then a buffer pool running the
//! simulator's LRU cache — over one of two block devices: the in-memory
//! device is the spec, the file-backed [`BackendKind::Disk`] device is the
//! witness. Across the oracle graph-family matrix, sequentially and at
//! `P ∈ {1, 4}`, the two devices must yield bit-identical triangle
//! multisets and identical charged transfer counts; faults injected over
//! the real disk must account identically to faults over memory.
//! (Temp-file hygiene has its own test binary, `tests/disk_temp_hygiene.rs`.)

use emsim::{BackendKind, EmConfig, FaultPlan, Machine};
use graphgen::{generators, Graph};
use proptest::prelude::*;
use trienum::{
    enumerate_triangles_on, enumerate_triangles_sharded, enumerate_triangles_with_recovery,
    Algorithm, CollectingSink, ShardPlan,
};

/// The three paper algorithms, parameterised by a shared seed.
fn paper_algorithms(seed: u64) -> [Algorithm; 3] {
    [
        Algorithm::CacheAwareRandomized { seed },
        Algorithm::CacheObliviousRandomized { seed },
        Algorithm::DeterministicCacheAware {
            family_seed: seed,
            candidates: Some(12),
        },
    ]
}

/// Strategy: a graph drawn from one of three structurally different
/// families (same matrix as the cross-algorithm oracle).
fn arb_family_graph() -> impl Strategy<Value = Graph> {
    (0u8..3, 16u32..70, 30usize..350, 0u64..1_000_000).prop_map(|(family, n, m, seed)| match family
    {
        0 => generators::erdos_renyi(n as usize + 10, m, seed),
        1 => generators::chung_lu_power_law(
            n as usize + 30,
            m.max(40),
            2.0 + (seed % 8) as f64 * 0.15,
            seed,
        ),
        _ => generators::lollipop((n as usize / 6).max(4), (n as usize / 2).max(2)),
    })
}

proptest! {
    // Each case runs 3 drivers x 2 planes sequentially plus 2 x 2 x 2
    // sharded runs, every disk machine with a real backing file; 10 cases
    // keep the suite in line with the sharded oracle's runtime.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn disk_plane_is_bit_identical_to_the_simulator(
        g in arb_family_graph(),
        seed in 0u64..1000,
    ) {
        let cfg = EmConfig::new(256, 32);
        for alg in paper_algorithms(seed) {
            let mem = Machine::new(cfg);
            let mut mem_sink = CollectingSink::new();
            let mem_report = enumerate_triangles_on(&mem, &g, alg, &mut mem_sink);

            let disk = Machine::with_backend(cfg, BackendKind::Disk);
            let mut disk_sink = CollectingSink::new();
            let disk_report = enumerate_triangles_on(&disk, &g, alg, &mut disk_sink);

            let mut mem_triangles = mem_sink.into_triangles();
            let mut disk_triangles = disk_sink.into_triangles();
            mem_triangles.sort_unstable();
            disk_triangles.sort_unstable();
            prop_assert_eq!(mem_triangles, disk_triangles, "multiset for {}", alg.name());
            prop_assert_eq!(mem_report.io, disk_report.io, "charged I/O for {}", alg.name());
            prop_assert_eq!(
                mem.transfers(),
                disk.transfers(),
                "transfer stream for {}",
                alg.name()
            );
            // The witness half: the device really performed one block read
            // per charged read and one block write per charged write.
            let real = disk.disk_counters().expect("disk plane has real counters");
            prop_assert_eq!(real.block_reads, disk.io().reads, "{}", alg.name());
            prop_assert_eq!(real.block_writes, disk.io().writes, "{}", alg.name());
        }
    }

    #[test]
    fn sharded_disk_plane_matches_the_sharded_simulator(
        g in arb_family_graph(),
        seed in 0u64..1000,
    ) {
        let cfg = EmConfig::new(256, 32);
        let drivers = [
            Algorithm::CacheAwareRandomized { seed },
            Algorithm::CacheObliviousRandomized { seed },
        ];
        for alg in drivers {
            for p in [1usize, 4] {
                let mut mem_sink = CollectingSink::new();
                let mem = enumerate_triangles_sharded(
                    &g, alg, cfg, ShardPlan::new(p), &mut mem_sink,
                ).expect("paper drivers run sharded");
                let mut disk_sink = CollectingSink::new();
                let disk = enumerate_triangles_sharded(
                    &g,
                    alg,
                    cfg,
                    ShardPlan::new(p).with_backend(BackendKind::Disk),
                    &mut disk_sink,
                ).expect("paper drivers run sharded");
                // Both merged streams arrive globally sorted; compare as-is.
                prop_assert_eq!(
                    mem_sink.into_triangles(),
                    disk_sink.into_triangles(),
                    "multiset for {} at P={}",
                    alg.name(),
                    p
                );
                prop_assert_eq!(
                    mem.workers.per_worker,
                    disk.workers.per_worker,
                    "per-worker charged I/O for {} at P={}",
                    alg.name(),
                    p
                );
            }
        }
    }
}

/// The same transient-fault plan injected over the real
/// [`BackendKind::Disk`] device must produce the identical accounting, fault
/// trace, and triangle multiset as over memory — the fault schedule is a pure
/// function of the transfer ordinal stream, which is the same on every device.
#[test]
fn transient_faults_over_the_disk_backend_account_like_memory() {
    let g = generators::erdos_renyi(120, 900, 11);
    let cfg = EmConfig::new(512, 32);
    let plan = FaultPlan::new(2026)
        .with_read_faults(60)
        .with_torn_writes(40);
    let run = |backend: BackendKind| {
        let machine = Machine::with_faults(cfg, plan, backend);
        let mut sink = CollectingSink::new();
        let report =
            enumerate_triangles_with_recovery(&g, &machine, 0xA11CE, &mut sink, None, None);
        let mut triangles = sink.into_triangles();
        triangles.sort_unstable();
        (triangles, report.io, machine.stats(), machine.fault_trace())
    };
    let (mem_triangles, mem_io, mem_stats, mem_trace) = run(BackendKind::InMemory);
    let (disk_triangles, disk_io, disk_stats, disk_trace) = run(BackendKind::Disk);
    assert_eq!(mem_triangles, disk_triangles, "faulty multisets must agree");
    assert_eq!(mem_io, disk_io, "charged I/O under faults must agree");
    assert_eq!(mem_stats, disk_stats, "full accounting must agree");
    assert_eq!(
        mem_trace, disk_trace,
        "the injected fault schedule must agree"
    );
    assert!(
        mem_stats.retry_io > 0,
        "a 6%/4% schedule over this instance must fire (got a fault-free run)"
    );
}
