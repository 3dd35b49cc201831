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
//! The candidate family is generated by a documented substitution (see
//! [`BitFunctionFamily`]); the greedy selection and the per-level inequality
//! are implemented exactly as in the paper, and the final `X_ξ` is measured
//! and reported so the guarantee is verified on every run.
//!
//! In a sharded run the greedy selection is sharded too: each worker scores
//! every candidate on its own vertices' share of the incidence list, and
//! one exchange per level sums the shares, so all workers choose the same
//! colouring the sequential run chooses. Step 2's partition stays
//! replicated: every owned pivot pair reads cone classes from all of `E_l`.

use emsim::{EmConfig, IoStats};
use kwise::{BitFunctionFamily, RefinedColoring};

use crate::cache_aware::{number_of_colors, run_colored, split_high_low_degree, ColoredRunOutcome};
use crate::input::ExtGraph;
use crate::potential::Incidence;
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

/// The candidate family greedy level `level` chooses from.
fn level_family(candidates: usize, family_seed: u64, level: u32) -> BitFunctionFamily {
    let seed = family_seed.wrapping_mul(0xA24B_AED4_963E_E407);
    BitFunctionFamily::new(candidates, seed.wrapping_add(level as u64))
}

/// Runs the deterministic cache-aware algorithm under `shard`.
/// `candidate_override`, when set, fixes the per-level candidate-family size
/// (otherwise the `O(log² V)`-style recommendation of Lemma 6 is used).
///
/// The greedy per-level bit selection (step 0) makes step 1's split, sorts
/// once — the reversed half of `E_l`'s incidence list — then costs one scan
/// per level and one 4-way split per level except the last (see
/// [`Incidence`]). Steps 1–3 reuse its split. Under a sharded cursor step 0
/// is **sharded**: each worker builds, scans and splits only the incidence
/// entries under the vertices it owns, and the workers sum their exact
/// partial statistics through one exchange per level. Every worker then
/// takes the same argmin, so the colouring — a deterministic function of
/// `family_seed` and the graph — is identical on every worker and for
/// every worker count, and the workers share `run_colored`'s unit stream
/// (high-degree vertices + pivot pairs), where the enumeration cost lives.
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
    let split = split_high_low_degree(graph, cfg.mem_words);
    let el_len = split.1.len() as f64;

    let alpha = if levels == 0 {
        0.0
    } else {
        1.0 / levels as f64
    };
    let mut coloring = RefinedColoring::identity();
    let mut chosen_potentials = Vec::new();
    let mut level_bounds = Vec::new();
    // No level, no incidence list: a one-colour run sorts nothing.
    let mut incidence = (levels > 0).then(|| Incidence::new(&split.1, shard.exchange()));
    for level in 1..=levels {
        let family = level_family(candidates, family_seed, level);
        let _family_lease = machine.gauge().lease((4 * family.len()) as u64);
        let layout = incidence.take().expect("built when levels > 0");
        let eval = layout.evaluate(&coloring, &family);
        let mut best = 0usize;
        let mut best_potential = f64::INFINITY;
        for j in 0..family.len() {
            let p = eval.potential(j, level, c);
            if p < best_potential {
                best_potential = p;
                best = j;
            }
        }
        let chosen = family.function(best);
        coloring.push(chosen);
        chosen_potentials.push(best_potential);
        level_bounds.push((1.0 + alpha).powi(level as i32) * el_len * cfg.mem_words as f64);
        // The last level's choice needs no next layout.
        if level < levels {
            incidence = Some(layout.split(chosen));
        }
    }
    recorder.record("step0_greedy_coloring", before, machine.io());

    // The refined colouring assigns values in [1, c]; the shared driver
    // expects colours in [0, c).
    let color = move |v: u32| coloring.color(v) - 1;
    let outcome = run_colored(graph, c, &color, Some(split), sink, recorder, shard);

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
    use crate::sink::{CollectingSink, StrictSink};
    use crate::workunit::{on_workers, ShardPlan};
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
    fn every_level_picks_the_argmin_of_the_reference_potentials() {
        use crate::potential::{reference_statistics, LevelEvaluation};
        let g = generators::erdos_renyi(300, 3000, 6);
        let cfg = EmConfig::new(128, 32);
        let candidates = 12;
        let machine = Machine::new(cfg);
        let eg = ExtGraph::load(&machine, &g);
        let el: Vec<graphgen::Edge> = split_high_low_degree(&eg, cfg.mem_words).1.iter().collect();
        let mut rec = PhaseRecorder::new(machine.gauge());
        let (out, info) = run_derandomized(
            &eg,
            cfg,
            1,
            Some(candidates),
            &mut StrictSink::new(),
            &mut rec,
            &mut ShardCursor::solo(),
        );
        assert!(info.levels >= 2, "{} greedy levels", info.levels);

        // Rebuild every level in core: each candidate's potential from the
        // reference statistics, the first minimum as the choice.
        let mut coloring = RefinedColoring::identity();
        for level in 1..=info.levels {
            let family = level_family(candidates, 1, level);
            let potentials: Vec<f64> = (0..family.len())
                .map(|j| {
                    let f = family.function(j);
                    let (x_total, x_adj) = reference_statistics(&el, |v| {
                        2 * coloring.color(v) - u64::from(f.eval_bit(v as u64))
                    });
                    let eval = LevelEvaluation {
                        x_total: vec![x_total],
                        x_adj: vec![x_adj],
                    };
                    eval.potential(0, level, info.colors)
                })
                .collect();
            let best =
                (0..potentials.len())
                    .fold(0, |b, j| if potentials[j] < potentials[b] { j } else { b });
            assert_eq!(
                info.chosen_potentials[level as usize - 1],
                potentials[best],
                "level {level}"
            );
            coloring.push(family.function(best));
        }
        // The run coloured E_l exactly as the rebuilt chain of choices does.
        assert_eq!(
            out.x_statistic,
            reference_statistics(&el, |v| coloring.color(v)).0
        );
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
    fn a_one_level_run_sorts_once_scans_once_and_never_splits() {
        // Two colours, one greedy level: step 0 is step 1's split, the one
        // sort of the reversed half and one merged scan. Replaying exactly
        // that on a fresh machine charges what the run charged, so no split
        // follows the last level.
        let g = generators::erdos_renyi(140, 1100, 2);
        let cfg = EmConfig::new(1 << 9, 32);
        let machine = Machine::new(cfg);
        let eg = ExtGraph::load(&machine, &g);
        let mut rec = PhaseRecorder::new(machine.gauge());
        let (_, info) = run_derandomized(
            &eg,
            cfg,
            1,
            Some(24),
            &mut StrictSink::new(),
            &mut rec,
            &mut ShardCursor::solo(),
        );
        assert_eq!(info.levels, 1);
        let (phases, _) = rec.into_parts();
        let (_, charged) = phases
            .into_iter()
            .find(|(name, _)| name == "step0_greedy_coloring")
            .expect("step 0 recorded");

        let machine = Machine::new(cfg);
        let eg = ExtGraph::load(&machine, &g);
        let before = machine.io();
        let (_, el, _) = split_high_low_degree(&eg, cfg.mem_words);
        Incidence::new(&el, None).evaluate(&RefinedColoring::identity(), &level_family(24, 1, 1));
        assert_eq!(charged, machine.io().since(before));
    }

    /// One run of the driver under `cursor`, on its own machine: the
    /// outcome, the greedy record and the emitted triangles.
    fn run_under(
        g: &graphgen::Graph,
        cfg: EmConfig,
        mut cursor: ShardCursor,
    ) -> (ColoredRunOutcome, DerandInfo, Vec<graphgen::Triangle>) {
        let machine = Machine::new(cfg);
        let eg = ExtGraph::load(&machine, g);
        let mut sink = CollectingSink::new();
        let mut rec = PhaseRecorder::new(machine.gauge());
        let (out, info) = run_derandomized(&eg, cfg, 1, Some(12), &mut sink, &mut rec, &mut cursor);
        (out, info, sink.into_triangles())
    }

    #[test]
    fn sharded_step0_chooses_the_sequential_colouring_for_every_worker_count() {
        // One, two and three greedy levels on an ER graph, and four on a
        // power-law graph whose hubs are cut from E_l.
        let er = generators::erdos_renyi(300, 2400, 7);
        let cl = generators::chung_lu_power_law(300, 1500, 2.1, 5);
        for (g, cfg, levels, hubs) in [
            (&er, EmConfig::new(1024, 32), 1, false),
            (&er, EmConfig::new(256, 32), 2, false),
            (&er, EmConfig::new(128, 16), 3, false),
            (&cl, EmConfig::new(16, 4), 4, true),
        ] {
            let (out, info, mut triangles) = run_under(g, cfg, ShardCursor::solo());
            assert_eq!((info.levels, out.high_degree_vertices > 0), (levels, hubs));
            triangles.sort_unstable();
            assert_eq!(triangles.len() as u64, naive::count_triangles(g));
            for workers in 1..=4 {
                let runs = on_workers(ShardPlan::new(workers), |cursor| run_under(g, cfg, cursor));
                let mut union = Vec::new();
                for (w, (w_out, w_info, w_triangles)) in runs.into_iter().enumerate() {
                    let at = format!("{levels} levels, worker {w} of {workers}");
                    assert_eq!(w_info.chosen_potentials, info.chosen_potentials, "{at}");
                    assert_eq!(w_out.x_statistic, out.x_statistic, "{at}");
                    assert_eq!(w_info.levels, info.levels, "{at}");
                    union.extend(w_triangles);
                }
                union.sort_unstable();
                assert_eq!(union, triangles, "{levels} levels, {workers} workers");
            }
        }
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
