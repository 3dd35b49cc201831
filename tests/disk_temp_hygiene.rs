//! Temp-file hygiene of the disk plane: every worker machine of a sharded
//! disk run creates its own backing file, and none survive the run.
//!
//! The check counts this process's `emsim-disk-{pid}-*` files in the shared
//! temp directory before and after the run, so it must be the only test in
//! its process that creates such files. It therefore lives in a test binary
//! of its own: Cargo runs test binaries one after another, and no sibling
//! test in this binary creates or drops backing files concurrently.

use emsim::{BackendKind, EmConfig};
use graphgen::generators;
use trienum::{
    enumerate_triangles, enumerate_triangles_sharded, Algorithm, CollectingSink, ShardPlan,
};

/// Temp-file hygiene: every worker machine of a sharded disk run creates its
/// own backing file, and none survive the run.
#[test]
fn sharded_disk_runs_leave_no_backing_files_behind() {
    let count_files = || {
        std::fs::read_dir(std::env::temp_dir())
            .expect("temp dir is readable")
            .filter_map(Result::ok)
            .filter(|e| {
                e.file_name()
                    .to_string_lossy()
                    .starts_with(&format!("emsim-disk-{}-", std::process::id()))
            })
            .count()
    };
    let before = count_files();
    let g = generators::erdos_renyi(150, 1_200, 5);
    let mut sink = CollectingSink::new();
    let mut seq_sink = CollectingSink::new();
    let alg = Algorithm::CacheAwareRandomized { seed: 7 };
    let cfg = EmConfig::new(256, 32);
    enumerate_triangles_sharded(
        &g,
        alg,
        cfg,
        ShardPlan::new(4).with_backend(BackendKind::Disk),
        &mut sink,
    )
    .expect("paper drivers run sharded");
    enumerate_triangles(&g, alg, cfg, &mut seq_sink);
    assert_eq!(
        sink.into_triangles().len(),
        seq_sink.into_triangles().len(),
        "the disk run must still be correct"
    );
    assert_eq!(
        count_files(),
        before,
        "every worker's backing file must be unlinked when its machine drops"
    );
}
