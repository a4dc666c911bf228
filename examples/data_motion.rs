//! §IV-E — parallel data motion with the mini-rsync.
//!
//! The paper's idiom:
//!
//! ```text
//! find /gpfs/proj/data -type f | parallel -j32 -X rsync -R -Ha {} /lustre/proj/
//! ```
//!
//! Here the tree is real (a temp directory), `find` is
//! [`htpar_transfer::find_files`], `-X` batching comes from the engine,
//! and each job runs the real incremental mini-rsync. A second pass
//! shows the incremental property: everything is up to date, nothing
//! recopied.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use htpar_core::prelude::*;
use htpar_examples::Workspace;
use htpar_transfer::{find_files, sync_tree, SyncOptions, SyncStats};

fn run_transfer(files: &[String], dst: &Path) -> Result<(u64, u64)> {
    let dst = dst.to_path_buf();
    let copied = Arc::new(AtomicU64::new(0));
    let skipped = Arc::new(AtomicU64::new(0));
    let (copied_in, skipped_in) = (Arc::clone(&copied), Arc::clone(&skipped));
    let report = Parallel::new("rsync -R -Ha {} /lustre/proj/")
        .jobs(8)
        .context_replace() // -X: pack many files per rsync invocation
        .max_args(16)
        .executor(FnExecutor::new(move |cmd| {
            let opts = SyncOptions {
                relative: true, // -R
                ..Default::default()
            };
            let stats: SyncStats =
                sync_tree(cmd.args.iter(), &dst, &opts).map_err(|e| e.to_string())?;
            Ok(TaskOutput::stdout(format!(
                "{} {}\n",
                stats.files_copied, stats.files_up_to_date
            )))
        }))
        .args(files.to_vec())
        .on_result(move |r| {
            let mut parts = r.stdout.split_whitespace();
            let mut next = || parts.next().unwrap_or("0").parse::<u64>().unwrap_or(0);
            copied_in.fetch_add(next(), Ordering::Relaxed);
            skipped_in.fetch_add(next(), Ordering::Relaxed);
        })
        .run()?;
    let copied = copied.load(Ordering::Relaxed);
    let skipped = skipped.load(Ordering::Relaxed);
    println!(
        "  {} rsync batches over {} files: {copied} copied, {skipped} up-to-date",
        report.jobs_total,
        files.len()
    );
    Ok((copied, skipped))
}

fn main() -> Result<()> {
    let ws = Workspace::new("motion");
    let src = ws.path("gpfs/proj/data");
    for dir in ["raw/2023", "raw/2024", "derived"] {
        for i in 0..40 {
            let p = src.join(dir).join(format!("f{i:03}.dat"));
            std::fs::create_dir_all(p.parent().unwrap())?;
            std::fs::write(&p, format!("payload {dir}/{i}").repeat(64))?;
        }
    }
    let dst = ws.path("lustre/proj");

    // find /gpfs/proj/data -type f
    let files: Vec<String> = find_files(&src)?
        .into_iter()
        .map(|p| p.display().to_string())
        .collect();
    println!("find produced {} files", files.len());

    println!("first transfer (cold destination):");
    let (copied, _) = run_transfer(&files, &dst)?;
    assert_eq!(copied as usize, files.len());

    println!("second transfer (incremental no-op):");
    let (copied, skipped) = run_transfer(&files, &dst)?;
    assert_eq!(copied, 0);
    assert_eq!(skipped as usize, files.len());

    // Verify the mirrored tree byte-for-byte.
    let mut verified = 0;
    for f in &files {
        let mirrored = htpar_transfer::rsyncd::destination_path(Path::new(f), &dst, true);
        assert_eq!(std::fs::read(f)?, std::fs::read(&mirrored)?);
        verified += 1;
    }
    println!(
        "verified {verified} mirrored files byte-for-byte under {}",
        dst.display()
    );
    Ok(())
}
