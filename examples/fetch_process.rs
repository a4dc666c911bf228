//! §IV-A — the data fetch-process workflow (listings 2 and 3).
//!
//! The paper's `getdata` script downloads eight GOES-16 sector images
//! every cycle and appends the batch timestamp to a queue file; the
//! `procdata` script follows the queue with `tail -f | parallel -k -j8`
//! and computes per-image cloud fractions with ImageMagick. Here the
//! fetch stage is a producer thread (mock CDN), the queue is a
//! [`FollowQueue`], and the process stage is `Parallel::run_stream` —
//! processing starts the moment a batch lands, while fetching continues.

use htpar_core::prelude::*;
use htpar_examples::Workspace;
use htpar_workloads::goes::{self, Image, REGIONS};

fn main() -> Result<()> {
    let cycles: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);

    let ws = Workspace::new("fetch");
    let data_dir = ws.path("data");
    std::fs::create_dir_all(&data_dir)?;
    println!(
        "fetch-process pipeline: {cycles} fetch cycles x {} regions",
        REGIONS.len()
    );

    // ---- getdata: fetch stage (listing 2) ----
    // Images land as real PGM files in ./data, then the batch timestamp
    // is appended to the queue — exactly the listing's curl + echo.
    let (queue_writer, queue) = FollowQueue::channel();
    let fetch_dir = data_dir.clone();
    let fetcher = std::thread::spawn(move || {
        for cycle in 0..cycles {
            let ts = 1_700_000_000 + cycle * 30; // "every 30 seconds"
                                                 // parallel -j8 curl ... ::: cgl ne nr se sp sr pr pnw
            let images = goes::fetch_all_regions(ts, 96, 96);
            for img in &images {
                std::fs::write(fetch_dir.join(img.file_name()), img.to_pgm()).expect("write image");
            }
            println!("[getdata] fetched {} images at ts={ts}", images.len());
            // echo $ts >> q.proc
            queue_writer.push(ts.to_string());
        }
        // dropping the writer closes the queue (the demo's stop signal)
    });

    // ---- procdata: process stage (listing 3) ----
    // tail -n+0 -f q.proc | parallel -k -j8 'convert ./data/*_{ts}.pgm ...'
    let proc_dir = data_dir.clone();
    let report = Parallel::new("convert ./data/*_{}.pgm -fuzz 10% ... info:")
        .jobs(8)
        .keep_order(true)
        .executor(FnExecutor::new(move |cmd| {
            let ts: u64 = cmd.args[0].parse().map_err(|e| format!("bad ts: {e}"))?;
            // Glob ./data/*_{ts}.pgm and analyze the real files.
            let mut images = Vec::new();
            for region in REGIONS {
                let path = proc_dir.join(format!("{region}_{ts}.pgm"));
                let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
                images.push(Image::from_pgm(&bytes, region, ts)?);
            }
            Ok(TaskOutput::stdout(goes::process_batch(&images, 10.0)))
        }))
        .on_result(|result| println!("[procdata]{}", result.stdout.trim_end()))
        .run_stream(queue)?;

    fetcher.join().expect("fetcher thread");
    println!(
        "\nprocessed {} batches, all succeeded: {}",
        report.jobs_total,
        report.all_succeeded()
    );
    Ok(())
}
