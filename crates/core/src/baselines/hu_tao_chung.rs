//! The Hu–Tao–Chung (SIGMOD 2013) algorithm, used as the principal baseline.
//!
//! The paper's Lemma 2 *is* step 2 of Hu et al.'s algorithm; applying it with
//! the pivot set equal to the whole edge set enumerates every triangle in
//! `O(E/B + E²/(M·B))` I/Os — the bound the paper improves by a factor
//! `min(√(E/M), √M)`.

use emsim::EmConfig;

use crate::input::ExtGraph;
use crate::lemma2::{enumerate_with_pivots, ChunkPolicy};
use crate::sink::TriangleSink;

/// Runs the Hu–Tao–Chung baseline on `graph` and returns the number of
/// triangles emitted.
///
/// The baseline deliberately runs Lemma 2 under
/// [`ChunkPolicy::Fixed`] — fixed `αM` iterations, full edge
/// rescans — because its iteration structure is part of the SIGMOD 2013
/// algorithm the paper's `min(√(E/M), √M)` improvement factor is measured
/// against. The adaptive sizing and endpoint-range pruning are improvements
/// of *this repository's* implementation of the paper's algorithms, not of
/// the baseline being compared to.
pub(crate) fn run_hu_tao_chung(
    graph: &ExtGraph,
    cfg: EmConfig,
    sink: &mut dyn TriangleSink,
) -> u64 {
    enumerate_with_pivots(
        graph.edges(),
        graph.edges(),
        cfg.mem_words,
        // The baseline measures no forward degree: its Γ_v reserve is the
        // whole endpoint count, as published.
        usize::MAX,
        ChunkPolicy::Fixed,
        sink,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::StrictSink;
    use emsim::Machine;
    use graphgen::{generators, naive};

    #[test]
    fn matches_oracle() {
        let g = generators::erdos_renyi(120, 900, 17);
        let machine = Machine::new(EmConfig::new(512, 32));
        let eg = ExtGraph::load(&machine, &g);
        let mut sink = StrictSink::new();
        let n = run_hu_tao_chung(&eg, machine.config(), &mut sink);
        assert_eq!(n, naive::count_triangles(&g));
    }

    #[test]
    fn io_scales_inversely_with_memory() {
        // The E²/(MB) term: quadrupling M should cut the I/Os roughly 4x
        // (up to the E/B additive term).
        let g = generators::erdos_renyi(400, 8000, 23);
        let run = |mem: usize| -> u64 {
            let machine = Machine::new(EmConfig::new(mem, 32));
            let eg = ExtGraph::load(&machine, &g);
            machine.cold_cache();
            let before = machine.io().total();
            let mut sink = StrictSink::new();
            run_hu_tao_chung(&eg, machine.config(), &mut sink);
            machine.io().total() - before
        };
        let small = run(256);
        let large = run(1024);
        assert!(
            small as f64 > 2.5 * large as f64,
            "4x memory should cut Hu et al. I/Os well over 2.5x (small={small}, large={large})"
        );
    }
}
