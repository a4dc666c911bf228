//! The §IV-B staged prefetch pipeline executed for real on disk: small
//! Darshan datasets move between a "Lustre" directory and an "NVMe"
//! directory while processing runs, with the engine driving each stage's
//! concurrent operations — a working miniature of Fig. 7.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use htpar_core::prelude::*;
use htpar_integration_tests::TestDir;
use htpar_workloads::darshan::{
    generate_archive_slice, process_dir, write_slice_to_dir, IoSummary,
};

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

#[test]
fn five_stage_pipeline_on_real_files_matches_direct_processing() {
    let dir = TestDir::new("staged");
    let lustre = dir.path("lustre");
    let nvme = dir.path("nvme");

    // Five datasets of 40 logs each on "Lustre".
    let n_datasets = 5usize;
    let mut expected = Vec::new();
    for d in 0..n_datasets {
        let logs = generate_archive_slice(100 + d as u64, d as u32 + 1, "app", 40);
        write_slice_to_dir(&lustre.join(format!("D{d}")), &logs).unwrap();
        expected.push(IoSummary::of(&logs));
    }

    // Pipeline state: events record (stage op, dataset, start, end).
    type Event = (String, usize, Instant, Instant);
    let events: Arc<Mutex<Vec<Event>>> = Arc::new(Mutex::new(Vec::new()));
    let mut summaries: Vec<Option<IoSummary>> = vec![None; n_datasets];

    for stage in 0..n_datasets {
        // Each stage runs its concurrent ops through the engine (the
        // Fig. 6 synchronization barrier = the engine's run() boundary).
        let mut ops: Vec<String> = vec![format!("process:{stage}")];
        if stage + 1 < n_datasets {
            ops.push(format!("copy:{}", stage + 1));
        }
        if stage >= 2 {
            // Dataset stage-1 was staged on NVMe and is now processed;
            // dataset 0 was processed straight from Lustre and never
            // occupied NVMe.
            ops.push(format!("delete:{}", stage - 1));
        }
        let lustre2 = lustre.clone();
        let nvme2 = nvme.clone();
        let events2 = Arc::clone(&events);
        let out = Arc::new(Mutex::new(Vec::<(usize, IoSummary)>::new()));
        let out2 = Arc::clone(&out);
        let failures = Arc::new(Mutex::new(Vec::<JobResult>::new()));
        let failures2 = Arc::clone(&failures);
        let report = Parallel::new("stage-op {}")
            .jobs(3)
            .executor(FnExecutor::new(move |cmd| {
                let started = Instant::now();
                let (op, ds) = cmd.args[0].split_once(':').unwrap();
                let ds: usize = ds.parse().unwrap();
                match op {
                    "process" => {
                        // Stage 1 reads from Lustre; later stages from NVMe.
                        let src: PathBuf = if ds == 0 {
                            lustre2.join(format!("D{ds}"))
                        } else {
                            nvme2.join(format!("D{ds}"))
                        };
                        let summary = process_dir(&src).map_err(|e| e.to_string())?;
                        out2.lock().unwrap().push((ds, summary));
                    }
                    "copy" => {
                        copy_dir(
                            &lustre2.join(format!("D{ds}")),
                            &nvme2.join(format!("D{ds}")),
                        );
                    }
                    "delete" => {
                        std::fs::remove_dir_all(nvme2.join(format!("D{ds}")))
                            .map_err(|e| e.to_string())?;
                    }
                    other => return Err(format!("unknown op {other}")),
                }
                events2
                    .lock()
                    .unwrap()
                    .push((op.to_string(), ds, started, Instant::now()));
                Ok(TaskOutput::success())
            }))
            .args(ops)
            .on_result(move |r| {
                if r.status.is_failure() {
                    failures2.lock().unwrap().push(r.clone());
                }
            })
            .run()
            .unwrap();
        assert!(
            report.all_succeeded(),
            "stage {stage}: {:?}",
            failures.lock().unwrap()
        );
        for (ds, summary) in out.lock().unwrap().drain(..) {
            summaries[ds] = Some(summary);
        }
    }

    // Every dataset's pipelined result equals direct processing.
    for (ds, expect) in expected.iter().enumerate() {
        assert_eq!(summaries[ds].as_ref(), Some(expect), "dataset {ds}");
    }

    // Prefetch discipline held: dataset d (d ≥ 1) was copied to NVMe in
    // an earlier stage than it was processed.
    let events = events.lock().unwrap();
    for d in 1..n_datasets {
        let copied = events
            .iter()
            .find(|(op, ds, _, _)| op == "copy" && *ds == d)
            .expect("copy event");
        let processed = events
            .iter()
            .find(|(op, ds, _, _)| op == "process" && *ds == d)
            .expect("process event");
        assert!(
            copied.3 <= processed.2,
            "D{d} copy finished before its processing started"
        );
    }

    // NVMe holds only the final dataset afterwards: D0 was never staged,
    // D1..Dn-2 were staged then deleted, Dn-1 remains.
    assert!(!nvme.join("D0").exists());
    for d in 1..n_datasets - 1 {
        assert!(
            !nvme.join(format!("D{d}")).exists(),
            "D{d} deleted from NVMe"
        );
    }
    assert!(nvme.join(format!("D{}", n_datasets - 1)).exists());
}

#[test]
fn within_stage_ops_actually_overlap() {
    // The engine's 3 slots let process/copy/delete run concurrently: a
    // stage whose ops each sleep 40 ms completes in well under 120 ms.
    let report = Parallel::new("op {}")
        .jobs(3)
        .executor(FnExecutor::sleep(std::time::Duration::from_millis(40)))
        .args(["process:1", "copy:2", "delete:0"])
        .run()
        .unwrap();
    assert!(report.all_succeeded());
    assert!(
        report.wall < std::time::Duration::from_millis(110),
        "ops overlapped: {:?}",
        report.wall
    );
}
