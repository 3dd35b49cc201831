//! Cross-crate validation of the paper's quantitative claims: I/O bounds,
//! scaling behaviour, space usage, memory discipline and work bounds.
//!
//! These are the test-suite counterparts of the experiments in
//! EXPERIMENTS.md, run at smaller scale so they stay fast.

use emsim::EmConfig;
use graphgen::generators;
use trienum::lower_bound::LowerBound;
use trienum::{count_triangles, Algorithm};

/// The paper's algorithms at a laptop-scale configuration.
fn paper_algorithms() -> [Algorithm; 3] {
    [
        Algorithm::CacheAwareRandomized { seed: 1 },
        Algorithm::CacheObliviousRandomized { seed: 1 },
        Algorithm::DeterministicCacheAware {
            family_seed: 1,
            candidates: Some(16),
        },
    ]
}

#[test]
fn io_stays_within_constant_of_upper_bound_across_scales() {
    // Normalised I/O (measured / E^{3/2}/(√M·B)) must stay within a fixed
    // band as E grows — that is what "O(E^{3/2}/(√M·B))" means operationally.
    let cfg = EmConfig::new(512, 32);
    for alg in paper_algorithms() {
        let mut ratios = Vec::new();
        for &e in &[2_000usize, 4_000, 8_000] {
            let g = generators::erdos_renyi(e / 8, e, 7);
            let (_, report) = count_triangles(&g, alg, cfg);
            ratios.push(report.normalized_to_triangle_bound());
        }
        // Measured constants (see EXPERIMENTS.md): ~37 for the cache-aware
        // algorithm, ~65 for the deterministic one, ~340 for the
        // cache-oblivious one (whose binary mergesort pays an extra log
        // factor); 500 is a comfortable ceiling for all three.
        for r in &ratios {
            assert!(
                *r < 500.0,
                "{}: normalised I/O {r} out of band (ratios: {ratios:?})",
                alg.name()
            );
        }
        // The band must not widen systematically with E (allow 2x drift).
        assert!(
            ratios.last().unwrap() < &(ratios.first().unwrap() * 2.0 + 10.0),
            "{}: normalised I/O grows with E: {ratios:?}",
            alg.name()
        );
    }
}

#[test]
fn improvement_over_hu_tao_chung_grows_with_e_over_m() {
    // Theorem 4 improves Hu et al. by min(√(E/M), √M). Measure both on a
    // memory-starved machine and check the measured advantage grows as E/M
    // grows (constants prevent a literal √(E/M) check at this scale).
    let cfg = EmConfig::new(256, 32);
    let ratio_at = |e: usize| -> f64 {
        let g = generators::erdos_renyi(e / 10, e, 3);
        let (_, aware) = count_triangles(&g, Algorithm::CacheAwareRandomized { seed: 5 }, cfg);
        let (_, hu) = count_triangles(&g, Algorithm::HuTaoChung, cfg);
        hu.io.total() as f64 / aware.io.total() as f64
    };
    let small = ratio_at(3_000);
    let large = ratio_at(12_000);
    assert!(
        large > small,
        "advantage over Hu et al. should grow with E/M (E=3k: {small:.2}x, E=12k: {large:.2}x)"
    );
    assert!(
        large > 1.0,
        "at E/M = 48 the paper's algorithm must win (got {large:.2}x)"
    );
}

#[test]
fn optimality_ratio_on_cliques_is_a_bounded_constant() {
    // On cliques t = Θ(E^{3/2}), so Theorem 3's lower bound is within a
    // constant of the measured cost — the upper and lower bounds meet. The
    // ratio must stay bounded (no asymptotic gap) as the clique grows, which
    // is measured between two cliques that exceed M = 512 words (K60 with
    // E = 1770, K120 with E = 7140). K30 (E = 435) fits in memory: the
    // cache-aware drivers read it once, so its ratio only checks that
    // nothing beats the lower bound.
    let cfg = EmConfig::new(512, 64);
    for alg in paper_algorithms() {
        let ratio_for = |n: usize| -> f64 {
            let g = generators::clique(n);
            let (t, report) = count_triangles(&g, alg, cfg);
            assert_eq!(t, (n * (n - 1) * (n - 2) / 6) as u64);
            // Use the sum form of Theorem 3 (t/(√M·B) + t^{2/3}/B), as stated
            // in the paper.
            let lb = LowerBound::for_triangles(cfg, t).sum();
            report.io.total() as f64 / lb
        };
        let in_core = ratio_for(30);
        assert!(
            in_core >= 1.0,
            "{}: beat the lower bound?! ratio {in_core}",
            alg.name()
        );
        if !matches!(alg, Algorithm::CacheObliviousRandomized { .. }) {
            assert!(
                in_core <= 1.5,
                "{}: an in-core clique should cost about one read, ratio {in_core:.2}",
                alg.name()
            );
        }
        let small = ratio_for(60);
        let large = ratio_for(120);
        assert!(
            large < 700.0,
            "{}: measured/lower-bound ratio {large:.1} unexpectedly large",
            alg.name()
        );
        assert!(
            large < 4.0 * small,
            "{}: optimality ratio diverges with t ({small:.1} -> {large:.1})",
            alg.name()
        );
    }
}

#[test]
fn cache_oblivious_adapts_to_memory_without_retuning() {
    let g = generators::erdos_renyi(500, 4_000, 13);
    let alg = Algorithm::CacheObliviousRandomized { seed: 9 };
    let io_at = |mem: usize| {
        let (_, r) = count_triangles(&g, alg, EmConfig::new(mem, 32));
        r.io.total()
    };
    let tiny = io_at(1 << 8);
    let small = io_at(1 << 10);
    let large = io_at(1 << 13);
    assert!(
        small < tiny,
        "more memory must not increase I/Os ({tiny} -> {small})"
    );
    assert!(
        large < small,
        "more memory must not increase I/Os ({small} -> {large})"
    );
    assert!(
        (large as f64) < 0.5 * tiny as f64,
        "32x memory should at least halve the I/Os ({tiny} -> {large})"
    );
}

#[test]
fn disk_space_stays_linear_in_e() {
    // Theorems 1/2/4 claim O(E) words on disk. Allow a generous constant
    // (intermediate sorted copies and the wedge-free partitions), but rule
    // out anything like E^{3/2} blow-up (the wedge file of the sort-based
    // baseline *is* allowed to blow up — that is exactly its weakness).
    let e = 8_000usize;
    let g = generators::erdos_renyi(1_000, e, 5);
    let cfg = EmConfig::new(512, 32);
    for alg in paper_algorithms() {
        let (_, report) = count_triangles(&g, alg, cfg);
        assert!(
            report.peak_disk_words < (25 * e) as u64,
            "{}: peak disk {} words is not O(E)",
            alg.name(),
            report.peak_disk_words
        );
    }
    let (_, dementiev) = count_triangles(&g, Algorithm::SortBased, cfg);
    assert!(
        dementiev.peak_disk_words > (25 * e) as u64,
        "the sort-based baseline should materialise a super-linear wedge file \
         (got {} words), otherwise the comparison is meaningless",
        dementiev.peak_disk_words
    );
}

#[test]
fn cache_aware_algorithms_respect_the_memory_budget() {
    let g = generators::erdos_renyi(800, 6_000, 21);
    let cfg = EmConfig::new(1 << 10, 32);
    for alg in [
        Algorithm::CacheAwareRandomized { seed: 3 },
        Algorithm::HuTaoChung,
        Algorithm::BlockNestedLoop,
    ] {
        let (_, report) = count_triangles(&g, alg, cfg);
        assert!(
            report.peak_mem_words <= 2 * cfg.mem_words as u64,
            "{}: peak in-core usage {} exceeds 2M = {}",
            alg.name(),
            report.peak_mem_words,
            2 * cfg.mem_words
        );
    }
}

#[test]
fn work_is_near_e_to_the_three_halves() {
    // The paper remarks all its algorithms perform O(E^{3/2}) operations.
    let g = generators::clique(40); // E = 780, E^{3/2} ≈ 21 800
    let cfg = EmConfig::new(512, 32);
    for alg in paper_algorithms() {
        let (_, report) = count_triangles(&g, alg, cfg);
        assert!(
            report.work_ratio() < 400.0,
            "{}: work ratio {} is far beyond O(E^{{3/2}})",
            alg.name(),
            report.work_ratio()
        );
    }
}

#[test]
fn derandomized_coloring_quality_meets_its_guarantee() {
    let g = generators::erdos_renyi(700, 9_000, 17);
    let cfg = EmConfig::new(512, 32);
    let (_, report) = count_triangles(
        &g,
        Algorithm::DeterministicCacheAware {
            family_seed: 5,
            candidates: Some(24),
        },
        cfg,
    );
    let x = report.extra("x_statistic").expect("x_statistic reported");
    let bound = std::f64::consts::E * 9_000.0 * cfg.mem_words as f64;
    assert!(
        x <= bound,
        "X_xi = {x} exceeds the derandomization guarantee e*E*M = {bound}"
    );
}

#[test]
fn writes_stay_bounded_for_enumeration_even_with_many_triangles() {
    // Enumeration (as opposed to listing) never writes the output: on a
    // clique with ~20x more triangles than edges, the write volume of the
    // cache-aware algorithms stays well below the t/B blocks that merely
    // listing the output would cost.
    let g = generators::clique(64); // E = 2016, t = 41664
    let cfg = EmConfig::new(1 << 12, 32);
    for alg in [
        Algorithm::CacheAwareRandomized { seed: 1 },
        Algorithm::DeterministicCacheAware {
            family_seed: 1,
            candidates: Some(16),
        },
    ] {
        let (t, report) = count_triangles(&g, alg, cfg);
        assert_eq!(t, 41_664);
        let t_over_b = t / cfg.block_words as u64;
        assert!(
            report.io.writes < t_over_b,
            "{}: {} writes — looks like the output is being listed (t/B = {})",
            alg.name(),
            report.io.writes,
            t_over_b
        );
    }
}
