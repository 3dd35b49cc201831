//! Cross-algorithm oracle matrix: the three paper algorithms against the
//! in-memory oracle over randomly drawn graph *families* (Erdős–Rényi,
//! power-law, lollipop), a deterministic adversarial corpus, a regression
//! pin on the cache-oblivious recursion/work counters so the canonical-list
//! rewrite cannot silently regress, and worker-count invariance of the
//! sharded drivers.

use emsim::EmConfig;
use graphgen::{generators, naive, Graph, Triangle};
use proptest::prelude::*;
use trienum::{
    count_triangles, enumerate_triangles, enumerate_triangles_sharded, Algorithm, CollectingSink,
    ShardPlan,
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
/// families — sparse/dense ER, heavy-tailed power-law (hubs exercise the
/// Lemma 1 paths), and lollipop (a clique glued to a path: dense core,
/// trivial fringe).
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
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn paper_algorithms_match_oracle_across_graph_families(
        g in arb_family_graph(),
        seed in 0u64..1000,
    ) {
        // The full emitted multiset, not only the count, at a comfortable
        // memory size and under memory pressure (many colours, deep trees).
        let mut expected: Vec<Triangle> = naive::enumerate_triangles(&g);
        expected.sort_unstable();
        for cfg in [EmConfig::new(256, 32), EmConfig::new(128, 16)] {
            for alg in paper_algorithms(seed) {
                let mut sink = CollectingSink::new();
                let report = enumerate_triangles(&g, alg, cfg, &mut sink);
                let mut got = sink.into_triangles();
                got.sort_unstable();
                prop_assert_eq!(report.triangles, expected.len() as u64, "report of {}", alg.name());
                prop_assert_eq!(got, expected.clone(), "multiset of {}", alg.name());
            }
        }
    }

    #[test]
    fn oblivious_and_aware_agree_with_each_other_under_memory_pressure(
        g in arb_family_graph(),
        seed in 0u64..100,
    ) {
        // Tiny memory (8 frames) forces deep recursions and many colour
        // classes; the two randomized algorithms must still agree exactly.
        let cfg = EmConfig::new(128, 16);
        let (a, _) = count_triangles(&g, Algorithm::CacheAwareRandomized { seed }, cfg);
        let (b, _) = count_triangles(&g, Algorithm::CacheObliviousRandomized { seed }, cfg);
        prop_assert_eq!(a, b);
    }
}

proptest! {
    // 15 external-memory runs per case (3 drivers x [sequential + 4 worker
    // counts]) make this the most expensive property here; 10 cases keep
    // the suite's runtime in line with the other oracles.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn sharded_drivers_are_worker_count_invariant_and_free_at_one_worker(
        g in arb_family_graph(),
        seed in 0u64..1000,
    ) {
        // The multi-worker scheduler pin: for every paper driver and every
        // worker count, the sharded run must deliver the bit-identical
        // sorted triangle multiset of the sequential entry point, and at
        // P = 1 the (sole) worker's I/O must equal the sequential driver's
        // exactly — the work-unit claims are free when nothing is sharded.
        let cfg = EmConfig::new(256, 32);
        for alg in paper_algorithms(seed) {
            let mut seq_sink = CollectingSink::new();
            let seq = enumerate_triangles(&g, alg, cfg, &mut seq_sink);
            let mut reference = seq_sink.into_triangles();
            reference.sort_unstable();
            for workers in 1..=4usize {
                let mut sink = CollectingSink::new();
                let sharded =
                    enumerate_triangles_sharded(&g, alg, cfg, ShardPlan::new(workers), &mut sink)
                        .expect("paper drivers run sharded");
                // The merged stream arrives globally sorted; no re-sort, so
                // an out-of-order merge fails here too.
                prop_assert_eq!(
                    sink.into_triangles(),
                    reference.clone(),
                    "multiset for {} at P={}",
                    alg.name(),
                    workers
                );
                prop_assert_eq!(
                    sharded.report.triangles,
                    seq.triangles,
                    "count for {} at P={}",
                    alg.name(),
                    workers
                );
                if workers == 1 {
                    prop_assert_eq!(
                        sharded.workers.sum_io,
                        seq.io.total(),
                        "P=1 I/O parity for {}",
                        alg.name()
                    );
                }
            }
        }
    }
}

/// Adversarial seeds and structured instances: boundary cases that stress
/// specific invariants (the K16 high-degree boundary, hub-only graphs, a
/// clique union with many equal degrees, the RMAT skew).
///
/// The cache-oblivious run of every instance but K16 must route at the
/// root, so none of them degenerates into a single in-core leaf. K16 is
/// one: a node with 16 high-degree vertices has at most C(16, 2) = 120
/// edges, below the in-core base case, so its step 1 is driven directly by
/// the cache-oblivious unit test instead.
#[test]
fn adversarial_corpus_is_exact_for_every_paper_algorithm() {
    // (name, graph, whether the cache-oblivious root routes)
    let corpus: Vec<(&str, Graph, bool)> = vec![
        ("K16 boundary", generators::clique(16), false),
        ("K25, no high-degree vertex", generators::clique(25), true),
        (
            "clique union, tied degrees",
            generators::clique_union(4, 13),
            true,
        ),
        (
            "star plus pendant clique",
            {
                let mut g = Graph::empty(300);
                for v in 1..290u32 {
                    g.add_edge(0, v);
                }
                for a in 290..294u32 {
                    for b in (a + 1)..294 {
                        g.add_edge(a, b);
                    }
                }
                g
            },
            true,
        ),
        (
            "rmat skew",
            generators::rmat(8, 600, 0.55, 0.2, 0.15, 3),
            true,
        ),
        ("lollipop", generators::lollipop(12, 240), true),
    ];
    let adversarial_seeds = [0u64, 1, 0xA11CE, 0xDEAD_BEEF, u64::MAX];
    let cfg = EmConfig::new(256, 32);
    for (name, g, routes) in &corpus {
        let expected = naive::count_triangles(g);
        for &seed in &adversarial_seeds {
            for alg in paper_algorithms(seed) {
                let (got, report) = count_triangles(g, alg, cfg);
                assert_eq!(got, expected, "{name}, seed {seed}, {}", alg.name());
                if *routes && matches!(alg, Algorithm::CacheObliviousRandomized { .. }) {
                    let sweeps = report.extra("partition_sweeps").expect("sweeps reported");
                    assert!(sweeps >= 1.0, "{name}, seed {seed}: the root never routed");
                }
            }
        }
    }
}

/// Degenerate inputs: every algorithm (the three paper drivers and the three
/// baselines) must handle the empty graph, the edgeless graph, a single
/// edge and a single wedge without panicking — `E = 0` exercises the
/// empty-partition path of `ColorPartition`, empty pivot sets in Lemma 2 and
/// an empty greedy-colouring domain in the derandomized driver.
#[test]
fn degenerate_graphs_run_clean_on_every_algorithm() {
    let single_edge = {
        let mut g = Graph::empty(2);
        g.add_edge(0, 1);
        g
    };
    let wedge = {
        let mut g = Graph::empty(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g
    };
    let corpus: Vec<(&str, Graph)> = vec![
        ("empty graph", Graph::empty(0)),
        ("edgeless graph", Graph::empty(7)),
        ("single edge", single_edge),
        ("single wedge", wedge),
    ];
    let algorithms = [
        Algorithm::CacheAwareRandomized { seed: 3 },
        Algorithm::CacheObliviousRandomized { seed: 3 },
        Algorithm::DeterministicCacheAware {
            family_seed: 3,
            candidates: None, // the default family sizing must cope too
        },
        Algorithm::HuTaoChung,
        Algorithm::SortBased,
        Algorithm::BlockNestedLoop,
    ];
    for (name, g) in &corpus {
        for cfg in [EmConfig::new(256, 32), EmConfig::new(64, 16)] {
            for alg in algorithms {
                let (got, report) = count_triangles(g, alg, cfg);
                assert_eq!(got, 0, "{name}: {} found phantom triangles", alg.name());
                assert_eq!(report.triangles, 0, "{name}: {}", alg.name());
            }
        }
    }
}

/// Regression pin for the canonical-list rewrite (PR 5): the cache-oblivious
/// recursion on the E7-quick instance must not exceed its post-rewrite
/// counters. The run is fully deterministic (seeded generator, per-level
/// seeded colouring), so tight ceilings are safe.
///
/// Recorded on ER(500 vertices, 4000 edges, gen-seed 6) at
/// `M = 4096, B = 64`, colouring seed `0xA11CE`, with the 288-edge in-core
/// base case and colour-multiset targets: subproblems = 573,
/// work/E^1.5 = 1.36, I/O = 970, partition sweeps = 77 (depth-first).
/// The multiset tree copies each edge twice per level, so its nodes are
/// fewer but larger than the ordered tree's at the same depth: at depth 2,
/// 20 nodes of 800 edges on average against 64 of about 625, and at depth
/// 3 about 280 against 175, close to the base case. About half the depth-3
/// nodes still route, which adds the sweeps and the leaves of a fourth
/// level.
/// (Ordered `(c0, c1, c2)` targets with the same base case: subproblems =
/// 561, work/E^1.5 = 2.96, I/O = 1 606, partition sweeps = 70. The 96-edge
/// base case: subproblems = 4 521, work/E^1.5 = 3.50, I/O = 1 612,
/// partition sweeps = 565. The 24-edge base case: subproblems = 39 465,
/// work/E^1.5 = 6.10, I/O = 1 668, partition sweeps = 4 933. The PR 2–4
/// incidence-list implementation: work/E^1.5 = 10.25, I/O = 5 381; the
/// pre-PR 2 implementation ≈ 52.7× work at E = 16000.)
#[test]
fn cache_oblivious_counters_stay_within_post_rewrite_baseline() {
    let g = generators::erdos_renyi(500, 4_000, 6);
    let cfg = EmConfig::new(1 << 12, 64);
    let (got, report) = count_triangles(
        &g,
        Algorithm::CacheObliviousRandomized { seed: 0xA11CE },
        cfg,
    );
    assert_eq!(got, naive::count_triangles(&g));

    let subproblems = report.extra("subproblems").expect("subproblems reported");
    assert!(
        subproblems <= 573.0,
        "recursion tree grew: {subproblems} subproblems (baseline 573)"
    );
    assert!(
        report.work_ratio() <= 1.55,
        "work/E^1.5 = {:.2} exceeds the recorded baseline 1.36 (+margin)",
        report.work_ratio()
    );
    assert!(
        report.io.total() <= 970,
        "I/O count {} regressed past the recorded 970",
        report.io.total()
    );
    assert!(
        report.extra("partition_sweeps").expect("sweeps reported") <= 77.0,
        "the depth-first driver routed more nodes than the recorded tree has"
    );
}
