//! The deterministic cache-aware algorithm (paper Section 4, Theorem 2).
//!
//! Identical to the cache-aware algorithm of Section 2 except that the vertex
//! colouring is not drawn at random: it is built greedily, one bit per level,
//! by choosing from a small candidate family the bit function minimising the
//! potential of inequality (4). After `log c` levels the resulting colouring
//! `ξ` provably satisfies `X_ξ ≤ e·E·M` (the derandomized analogue of
//! Lemma 3), which is what Theorem 4's analysis needs, so the deterministic
//! algorithm inherits the `O(E^{3/2}/(√M·B))` bound under `M ≥ E^ε`.
//!
//! See DESIGN.md §5 for the documented substitution in how the candidate
//! family is generated; the greedy selection and the per-level inequality are
//! implemented exactly as in the paper, and the final `X_ξ` is measured and
//! reported so the guarantee is verified on every run.

use emsim::{EmConfig, IoStats};
use kwise::{BitFunctionFamily, RefinedColoring};

use crate::cache_aware::{number_of_colors, run_colored, split_high_low_degree, ColoredRunOutcome};
use crate::input::ExtGraph;
use crate::potential::evaluate_candidates;
use crate::sink::TriangleSink;
use crate::stats::PhaseRecorder;
use crate::workunit::ShardCursor;

/// Extra information reported by a derandomized run.
#[derive(Debug, Clone)]
pub(crate) struct DerandInfo {
    /// Number of colours `c` (rounded up to a power of two, as in the paper).
    pub colors: u64,
    /// Number of greedy refinement levels (`log₂ c`).
    pub levels: u32,
    /// Size of the candidate family per level.
    pub candidates: usize,
    /// The potential value of the chosen candidate at every level.
    #[allow(dead_code)] // consumed by tests and kept for diagnostics
    pub chosen_potentials: Vec<f64>,
    /// The per-level bound `(1+α)^i · E·M` of inequality (4).
    #[allow(dead_code)] // consumed by tests and kept for diagnostics
    pub level_bounds: Vec<f64>,
}

/// Runs the deterministic cache-aware algorithm under `shard`.
/// `candidate_override`, when set, fixes the per-level candidate-family size
/// (otherwise the `O(log² V)`-style recommendation of Lemma 6 is used).
///
/// The greedy per-level bit selection (step 0) is **replicated** on every
/// worker rather than sharded: each refinement level consumes the colouring
/// chosen by all previous levels, so the levels form a sequential dependency
/// chain that a statically assigned worker pool cannot split without
/// cross-worker barriers. The selection is fully deterministic given
/// `family_seed` — no worker-dependent state enters it — so every worker
/// derives the identical colouring and then shares `run_colored`'s unit
/// stream (high-degree vertices + pivot pairs), which is where the actual
/// enumeration cost lives.
pub(crate) fn run_derandomized(
    graph: &ExtGraph,
    cfg: EmConfig,
    family_seed: u64,
    candidate_override: Option<usize>,
    sink: &mut dyn TriangleSink,
    recorder: &mut PhaseRecorder,
    shard: &mut ShardCursor,
) -> (ColoredRunOutcome, DerandInfo) {
    let machine = graph.machine().clone();
    let e = graph.edge_count();

    // As in the paper, round the number of colours up to a power of two so
    // the colouring can be built bit by bit (this can only decrease X_ξ).
    let c = number_of_colors(e, cfg.mem_words).next_power_of_two();
    let levels = c.trailing_zeros();
    let candidates = candidate_override
        .unwrap_or_else(|| BitFunctionFamily::recommended_size(graph.vertex_count(), c as usize));

    // The greedy selection operates on the low-degree edge set E_l, exactly
    // like the colouring it replaces.
    let before: IoStats = machine.io();
    let (_high, el) = split_high_low_degree(graph, cfg.mem_words);
    let el_len = el.len() as f64;

    let alpha = if levels == 0 {
        0.0
    } else {
        1.0 / levels as f64
    };
    let mut coloring = RefinedColoring::identity();
    let mut chosen_potentials = Vec::new();
    let mut level_bounds = Vec::new();
    for level in 1..=levels {
        let family = BitFunctionFamily::new(
            candidates,
            family_seed
                .wrapping_mul(0xA24B_AED4_963E_E407)
                .wrapping_add(level as u64),
        );
        let _family_lease = machine.gauge().lease((4 * family.len()) as u64);
        let eval = evaluate_candidates(&el, &coloring, &family);
        let mut best = 0usize;
        let mut best_potential = f64::INFINITY;
        for j in 0..family.len() {
            let p = eval.potential(j, level, c);
            if p < best_potential {
                best_potential = p;
                best = j;
            }
        }
        coloring.push(family.function(best));
        chosen_potentials.push(best_potential);
        level_bounds.push((1.0 + alpha).powi(level as i32) * el_len * cfg.mem_words as f64);
    }
    drop(el);
    recorder.record("step0_greedy_coloring", before, machine.io());

    // The refined colouring assigns values in [1, c]; the shared driver
    // expects colours in [0, c).
    let color = move |v: u32| coloring.color(v) - 1;
    let outcome = run_colored(graph, cfg, c, &color, sink, recorder, shard);

    (
        outcome,
        DerandInfo {
            colors: c,
            levels,
            candidates,
            chosen_potentials,
            level_bounds,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::StrictSink;
    use emsim::Machine;
    use graphgen::{generators, naive};

    fn run(g: &graphgen::Graph, cfg: EmConfig) -> (u64, ColoredRunOutcome, DerandInfo) {
        let machine = Machine::new(cfg);
        let eg = ExtGraph::load(&machine, g);
        let mut sink = StrictSink::new();
        let mut rec = PhaseRecorder::new(machine.gauge());
        let (out, info) = run_derandomized(
            &eg,
            cfg,
            1,
            Some(24),
            &mut sink,
            &mut rec,
            &mut ShardCursor::solo(),
        );
        (out.triangles, out, info)
    }

    #[test]
    fn counts_match_oracle() {
        for seed in [2u64, 8] {
            let g = generators::erdos_renyi(140, 1100, seed);
            let expected = naive::count_triangles(&g);
            let (got, _, _) = run(&g, EmConfig::new(1 << 9, 32));
            assert_eq!(got, expected, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_runs_are_identical() {
        let g = generators::erdos_renyi(120, 900, 4);
        let cfg = EmConfig::new(1 << 9, 32);
        let (a, outa, _) = run(&g, cfg);
        let (b, outb, _) = run(&g, cfg);
        assert_eq!(a, b);
        assert_eq!(outa.x_statistic, outb.x_statistic);
    }

    #[test]
    fn final_coloring_satisfies_the_e_em_bound() {
        // The derandomized guarantee: X_ξ ≤ e·E·M (with E the low-degree edge
        // count, bounded by the total edge count).
        let g = generators::erdos_renyi(500, 6000, 3);
        let cfg = EmConfig::new(512, 32);
        let (_, out, info) = run(&g, cfg);
        assert!(info.colors.is_power_of_two());
        let bound = std::f64::consts::E * 6000.0 * cfg.mem_words as f64;
        assert!(
            (out.x_statistic as f64) <= bound,
            "X_xi = {} exceeds e*E*M = {bound}",
            out.x_statistic
        );
        // Each chosen level's potential stays below its inequality-(4) bound.
        for (p, b) in info.chosen_potentials.iter().zip(&info.level_bounds) {
            assert!(p <= b, "level potential {p} exceeds bound {b}");
        }
    }

    #[test]
    fn shares_the_adaptive_step3_driver_with_the_randomized_algorithm() {
        // The derandomized driver funnels into the same `run_colored` step 3
        // as the randomized one, so the adaptive Lemma 2 sizing must show up
        // here too: the pass counter is reported, and a run at a doubled
        // memory budget needs (roughly half, but at least) fewer passes.
        let g = generators::erdos_renyi(400, 4000, 9);
        let passes_at = |mem: usize| -> u64 {
            let cfg = EmConfig::new(mem, 32);
            let machine = Machine::new(cfg);
            let eg = ExtGraph::load(&machine, &g);
            let mut sink = StrictSink::new();
            let mut rec = PhaseRecorder::new(machine.gauge());
            let (out, _) = run_derandomized(
                &eg,
                cfg,
                1,
                Some(16),
                &mut sink,
                &mut rec,
                &mut ShardCursor::solo(),
            );
            assert_eq!(out.triangles, naive::count_triangles(&g));
            out.step3_chunk_passes
        };
        let small = passes_at(256);
        let large = passes_at(1024);
        assert!(small >= 1 && large >= 1);
        assert!(
            large < small,
            "4x memory must cut step-3 chunk passes ({small} -> {large})"
        );
    }

    #[test]
    fn single_color_case_degenerates_gracefully() {
        // When E ≤ M the number of colours is 1 and no greedy level runs.
        let g = generators::clique(12);
        let cfg = EmConfig::new(1 << 12, 64);
        let (got, _, info) = run(&g, cfg);
        assert_eq!(got, 220);
        assert_eq!(info.levels, 0);
        assert!(info.chosen_potentials.is_empty());
    }

    #[test]
    fn triangle_free_input_yields_zero() {
        let g = generators::complete_bipartite(40, 40);
        let (got, _, _) = run(&g, EmConfig::new(256, 32));
        assert_eq!(got, 0);
    }
}
