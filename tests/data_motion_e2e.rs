//! The §IV-E data mover end-to-end on real files: find → batch (-X) →
//! parallel mini-rsync, plus the modeled DTN comparison.

use std::path::Path;
use std::sync::{Arc, Mutex};

use htpar_core::prelude::*;
use htpar_integration_tests::TestDir;
use htpar_transfer::dtn::{representative_population, MotionComparison};
use htpar_transfer::rsyncd::destination_path;
use htpar_transfer::{find_files, sync_tree, DtnConfig, SyncOptions};

fn build_tree(dir: &TestDir, files: usize) -> Vec<String> {
    let src = dir.path("gpfs/proj/data");
    for i in 0..files {
        let p = src.join(format!("sub{:02}/f{i:04}.dat", i % 7));
        std::fs::create_dir_all(p.parent().unwrap()).unwrap();
        std::fs::write(&p, format!("content-{i}").repeat(1 + i % 5)).unwrap();
    }
    find_files(&src)
        .unwrap()
        .into_iter()
        .map(|p| p.display().to_string())
        .collect()
}

fn parallel_rsync(files: &[String], dst: &Path, jobs: usize) -> (u64, u64) {
    let dst = dst.to_path_buf();
    let totals = Arc::new(Mutex::new((0, 0)));
    let t2 = Arc::clone(&totals);
    let report = Parallel::new("rsync -R -Ha {} /dst/")
        .jobs(jobs)
        .context_replace()
        .max_args(8)
        .executor(FnExecutor::new(move |cmd| {
            let opts = SyncOptions {
                relative: true,
                ..Default::default()
            };
            let stats = sync_tree(cmd.args.iter(), &dst, &opts).map_err(|e| e.to_string())?;
            Ok(TaskOutput::stdout(format!(
                "{} {}",
                stats.files_copied, stats.files_up_to_date
            )))
        }))
        .args(files.to_vec())
        .on_result(move |r| {
            let mut it = r.stdout.split_whitespace();
            let mut totals = t2.lock().unwrap();
            totals.0 += it.next().unwrap().parse::<u64>().unwrap();
            totals.1 += it.next().unwrap().parse::<u64>().unwrap();
        })
        .run()
        .unwrap();
    assert!(report.all_succeeded());
    let (copied, fresh) = *totals.lock().unwrap();
    (copied, fresh)
}

#[test]
fn find_batch_rsync_mirrors_and_is_idempotent() {
    let dir = TestDir::new("motion");
    let files = build_tree(&dir, 60);
    let dst = dir.path("lustre/proj");

    let (copied, skipped) = parallel_rsync(&files, &dst, 8);
    assert_eq!(copied, 60);
    assert_eq!(skipped, 0);

    // Byte-for-byte mirror with -R structure.
    for f in &files {
        let mirrored = destination_path(Path::new(f), &dst, true);
        assert_eq!(
            std::fs::read(f).unwrap(),
            std::fs::read(&mirrored).unwrap(),
            "{mirrored:?}"
        );
    }

    // Idempotent second pass.
    let (copied, skipped) = parallel_rsync(&files, &dst, 8);
    assert_eq!(copied, 0);
    assert_eq!(skipped, 60);
}

#[test]
fn incremental_transfer_moves_only_changes() {
    let dir = TestDir::new("delta");
    let files = build_tree(&dir, 30);
    let dst = dir.path("mirror");
    parallel_rsync(&files, &dst, 4);

    // Touch 5 files with different sizes.
    for f in files.iter().take(5) {
        std::fs::write(f, "MODIFIED".repeat(40)).unwrap(); // size differs from every original
    }
    let (copied, skipped) = parallel_rsync(&files, &dst, 4);
    assert_eq!(copied, 5, "only the changed files move");
    assert_eq!(skipped, 25);
    for f in files.iter().take(5) {
        let mirrored = destination_path(Path::new(f), &dst, true);
        assert_eq!(std::fs::read(f).unwrap(), std::fs::read(&mirrored).unwrap());
    }
}

#[test]
fn concurrent_rsync_streams_do_not_corrupt_disjoint_files() {
    // 8 jobs × batches over 200 files, all into one destination root:
    // directory creation races must be handled by create_dir_all.
    let dir = TestDir::new("concurrent");
    let files = build_tree(&dir, 200);
    let dst = dir.path("dst");
    let (copied, _) = parallel_rsync(&files, &dst, 8);
    assert_eq!(copied, 200);
    let mirrored = find_files(&dst).unwrap();
    assert_eq!(mirrored.len(), 200);
}

#[test]
fn modeled_dtn_comparison_holds_at_smaller_population() {
    // The full check lives in htpar-transfer's tests; here we assert the
    // cross-crate wiring end to end with a different population.
    let dataset = representative_population(31, 20_000, 256.0 * 1024.0 * 1024.0);
    let cmp = MotionComparison::run(&dataset, &DtnConfig::paper_calibrated());
    assert!(cmp.speedup_vs_sequential() > 100.0);
    assert!(cmp.speedup_vs_wms() > 8.0);
    assert!(cmp.parallel.per_node_mbps > 1_500.0);
    assert_eq!(cmp.parallel.streams_used, 256);
}
