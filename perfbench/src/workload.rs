//! The four named workloads and how their inputs derive from the seed.

use graphgen::{generators, Graph};
use trienum::{Algorithm, BackendKind, EmConfig};

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Internal memory `M` and block size `B` (in words) of every workload.
pub const MEM_WORDS: usize = 4096;
pub const BLOCK_WORDS: usize = 64;

pub fn config() -> EmConfig {
    EmConfig::new(MEM_WORDS, BLOCK_WORDS)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    CacheAware,
    CacheOblivious,
    Deterministic { candidates: usize },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphKind {
    /// `erdos_renyi(edges / 8, edges)`.
    ErdosRenyi,
    /// `chung_lu_power_law(vertices, edges, gamma)`.
    ChungLu { vertices: usize, gamma: f64 },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub driver: Driver,
    pub graph: GraphKind,
    pub edges: usize,
    pub plane: BackendKind,
    /// `Some(P)` runs `enumerate_triangles_sharded` with `P` workers;
    /// `None` runs `enumerate_triangles_on` sequentially.
    pub workers: Option<usize>,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "aware-er-mem",
        why: "the paper's main path (external sort, colour partition, Lemma 2) on a sparse random graph; bypasses pool, file, recursion and threads",
        driver: Driver::CacheAware,
        graph: GraphKind::ErdosRenyi,
        edges: 256_000,
        plane: BackendKind::InMemory,
        workers: None,
    },
    Workload {
        name: "aware-er-disk",
        why: "aware-er-mem on the disk plane: differs only by the buffer pool and DiskStorage, with identical charged counts",
        driver: Driver::CacheAware,
        graph: GraphKind::ErdosRenyi,
        edges: 256_000,
        plane: BackendKind::Disk,
        workers: None,
    },
    Workload {
        name: "oblivious-cl-mem",
        why: "cache-oblivious recursion, oblivious sort and high-degree truncation on a skewed, triangle-rich power-law graph",
        driver: Driver::CacheOblivious,
        graph: GraphKind::ChungLu {
            vertices: 4_000,
            gamma: 2.3,
        },
        edges: 16_000,
        plane: BackendKind::InMemory,
        workers: None,
    },
    Workload {
        name: "derand-er-p2",
        why: "the only workload with the work-unit scheduler, k-way merge epilogue and greedy colouring (replicated per worker), at P=2",
        driver: Driver::Deterministic { candidates: 32 },
        graph: GraphKind::ErdosRenyi,
        edges: 64_000,
        plane: BackendKind::InMemory,
        workers: Some(2),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The splitmix64 finaliser: spreads one benchmark seed into independent
/// per-purpose seeds.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seeds a run derives from the benchmark seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    pub graph: u64,
    pub algorithm: u64,
    pub probe: u64,
}

impl Seeds {
    pub fn derive(seed: u64) -> Seeds {
        Seeds {
            graph: mix(seed ^ 0x6772_6170_6800_0000),
            algorithm: mix(seed ^ 0x616c_676f_0000_0000),
            probe: mix(seed ^ 0x7072_6f62_6500_0000),
        }
    }
}

impl Workload {
    /// The same workload on a graph with `edges` edges (the tests run the
    /// whole pipeline on small copies).
    #[cfg(test)]
    pub fn scaled(&self, edges: usize) -> Workload {
        let graph = match self.graph {
            GraphKind::ErdosRenyi => GraphKind::ErdosRenyi,
            GraphKind::ChungLu { vertices, gamma } => GraphKind::ChungLu {
                vertices: vertices * edges / self.edges,
                gamma,
            },
        };
        Workload {
            graph,
            edges,
            ..*self
        }
    }

    pub fn generate(&self, seeds: Seeds) -> Graph {
        match self.graph {
            GraphKind::ErdosRenyi => {
                generators::erdos_renyi(self.edges / 8, self.edges, seeds.graph)
            }
            GraphKind::ChungLu { vertices, gamma } => {
                generators::chung_lu_power_law(vertices, self.edges, gamma, seeds.graph)
            }
        }
    }

    pub fn algorithm(&self, seeds: Seeds) -> Algorithm {
        let seed = seeds.algorithm;
        match self.driver {
            Driver::CacheAware => Algorithm::CacheAwareRandomized { seed },
            Driver::CacheOblivious => Algorithm::CacheObliviousRandomized { seed },
            Driver::Deterministic { candidates } => Algorithm::DeterministicCacheAware {
                family_seed: seed,
                candidates: Some(candidates),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        assert_eq!(Seeds::derive(1), Seeds::derive(1));
        assert_ne!(Seeds::derive(1), Seeds::derive(2));
        let s = Seeds::derive(DEFAULT_SEED);
        assert!(s.graph != s.algorithm && s.algorithm != s.probe);
    }

    #[test]
    fn workload_names_are_unique_and_findable() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("nope").is_none());
    }
}
