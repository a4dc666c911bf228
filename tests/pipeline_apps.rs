//! Application pipelines end-to-end: the engine driving real workload
//! code (GOES fetch-process, the Darshan grid, FORGE curation).

use std::sync::{Arc, Mutex};
use std::time::Duration;

use htpar_core::prelude::*;
use htpar_workloads::darshan::{generate_archive_slice, DarshanLog, IoSummary};
use htpar_workloads::forge::{generate_corpus, CorpusStats};
use htpar_workloads::goes;

/// Attach a callback that collects each job's stdout in the order the
/// engine hands results on.
fn collecting(p: Parallel) -> (Parallel, Arc<Mutex<Vec<String>>>) {
    let out = Arc::new(Mutex::new(Vec::new()));
    let out2 = Arc::clone(&out);
    (
        p.on_result(move |r| out2.lock().unwrap().push(r.stdout.clone())),
        out,
    )
}

#[test]
fn fetch_process_pipeline_overlaps_stages() {
    // Fetcher pushes batch timestamps while the processor consumes them;
    // the first processing must complete before the last fetch when the
    // pipeline truly overlaps.
    let (writer, queue) = FollowQueue::channel();
    let first_processed = Arc::new(Mutex::new(None::<std::time::Instant>));
    let last_fetched = Arc::new(Mutex::new(None::<std::time::Instant>));

    let fetcher = {
        let last_fetched = Arc::clone(&last_fetched);
        std::thread::spawn(move || {
            for cycle in 0..4u64 {
                let ts = 1000 + cycle * 30;
                let _images = goes::fetch_all_regions(ts, 48, 48);
                writer.push(ts.to_string());
                std::thread::sleep(Duration::from_millis(25));
            }
            *last_fetched.lock().unwrap() = Some(std::time::Instant::now());
        })
    };

    let fp = Arc::clone(&first_processed);
    let (p, outputs) = collecting(
        Parallel::new("process {}")
            .jobs(8)
            .keep_order(true)
            .executor(FnExecutor::new(move |cmd| {
                let ts: u64 = cmd.args[0].parse().unwrap();
                let images = goes::fetch_all_regions(ts, 48, 48);
                let out = goes::process_batch(&images, 10.0);
                let mut first = fp.lock().unwrap();
                if first.is_none() {
                    *first = Some(std::time::Instant::now());
                }
                Ok(TaskOutput::stdout(out))
            })),
    );
    let report = p.run_stream(queue).unwrap();
    fetcher.join().unwrap();

    assert_eq!(report.jobs_total, 4);
    let first = first_processed
        .lock()
        .unwrap()
        .expect("processed something");
    let last = last_fetched.lock().unwrap().expect("fetched everything");
    assert!(
        first < last,
        "processing began before fetching finished (pipeline overlap)"
    );
    // Outputs carry eight region fractions each.
    let outputs = outputs.lock().unwrap();
    assert_eq!(outputs.len(), 4);
    for out in outputs.iter() {
        let nums = out.lines().last().unwrap().split_whitespace().count();
        assert_eq!(nums, 8);
    }
}

#[test]
fn darshan_grid_parallel_equals_sequential() {
    let apps = ["gromacs", "lammps", "vasp"];
    // Sequential reference.
    let mut expected = Vec::new();
    for month in 1..=12u32 {
        for app in apps {
            let logs = generate_archive_slice(99, month, app, 50);
            expected.push(IoSummary::of(&logs));
        }
    }

    // Parallel, through the engine (keep_order makes results comparable).
    let (p, outputs) = collecting(
        Parallel::new("darshan_arch {1} {2}")
            .jobs(12)
            .keep_order(true)
            .executor(FnExecutor::new(move |cmd| {
                let month: u32 = cmd.args[0].parse().unwrap();
                let app_idx: usize = cmd.args[1].parse().unwrap();
                let logs = generate_archive_slice(99, month, apps[app_idx], 50);
                let mut sum = IoSummary::default();
                for log in &logs {
                    sum.add(&DarshanLog::parse(&log.to_text()).unwrap());
                }
                Ok(TaskOutput::stdout(serde_stub::to_line(&sum)))
            }))
            .args((1..=12).map(|m| m.to_string()))
            .args((0..=2).map(|a| a.to_string())),
    );
    let report = p.run().unwrap();

    assert_eq!(report.jobs_total, 36);
    let expected: Vec<String> = expected.iter().map(serde_stub::to_line).collect();
    assert_eq!(*outputs.lock().unwrap(), expected);
}

/// Tiny stable serialization for comparing summaries through stdout.
mod serde_stub {
    use htpar_workloads::darshan::IoSummary;

    pub fn to_line(s: &IoSummary) -> String {
        format!(
            "{} {} {} {} {}",
            s.jobs, s.bytes_read, s.bytes_written, s.opens, s.files
        )
    }
}

#[test]
fn forge_curation_shards_merge_to_sequential_totals() {
    let corpus = generate_corpus(5, 3000);
    let whole = CorpusStats::process(&corpus);

    // Shard the corpus over 6 parallel curation tasks.
    let corpus = Arc::new(corpus);
    let c2 = Arc::clone(&corpus);
    let (p, outputs) = collecting(
        Parallel::new("curate shard {}")
            .jobs(3)
            .keep_order(true)
            .executor(FnExecutor::new(move |cmd| {
                let shard: usize = cmd.args[0].parse().unwrap();
                let chunk = 3000 / 6;
                let stats = CorpusStats::process(&c2[shard * chunk..(shard + 1) * chunk]);
                Ok(TaskOutput::stdout(serde_json_line(&stats)))
            }))
            .args((0..6).map(|i| i.to_string())),
    );
    p.run().unwrap();

    let outputs = outputs.lock().unwrap();
    assert_eq!(outputs.len(), 6);
    let merged = outputs
        .iter()
        .map(|out| parse_json_line(out))
        .fold(CorpusStats::default(), |acc, s| acc.merge(&s));
    assert_eq!(merged, whole, "parallel map + merge == sequential");
    assert!(merged.tokens > 0);
}

fn serde_json_line(s: &CorpusStats) -> String {
    format!(
        "{} {} {} {} {}",
        s.documents_in, s.documents_kept, s.rejected_non_english, s.rejected_too_short, s.tokens
    )
}

fn parse_json_line(line: &str) -> CorpusStats {
    let v: Vec<u64> = line
        .split_whitespace()
        .map(|x| x.parse().unwrap())
        .collect();
    CorpusStats {
        documents_in: v[0],
        documents_kept: v[1],
        rejected_non_english: v[2],
        rejected_too_short: v[3],
        tokens: v[4],
    }
}
