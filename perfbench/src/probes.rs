//! Measured ceilings for the layers, and the per-layer costs that are
//! timed directly over a run's own inputs and rows.

use std::hint::black_box;
use std::io::{Read, Seek, SeekFrom, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use htpar_core::crossbeam_channel;
use htpar_core::joblog::{JobLogWriter, LogEntry};
use htpar_core::template::{ExpandContext, Template};
use htpar_net::frame::{Decoder, Frame, TaskDoneRec, TaskSpec, SHARD_CHUNK};

use crate::stats::median;
use crate::util::Outcome;

/// Rows the engine's collector drains between joblog flushes.
const FLUSH_EVERY: usize = 64;

/// How hard the probes push: `tiny` keeps test runs short.
#[derive(Clone, Copy)]
pub struct ProbeSize {
    pub reps: usize,
    pub scale: usize,
}

impl ProbeSize {
    pub fn new(tiny: bool) -> ProbeSize {
        if tiny {
            ProbeSize { reps: 3, scale: 1 }
        } else {
            ProbeSize { reps: 5, scale: 20 }
        }
    }
}

fn reps(size: ProbeSize, mut f: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..size.reps).map(|_| f()).collect();
    median(&v)
}

/// `/bin/true` launches per second from a bare `std::process::Command`
/// loop on `threads` threads: the bound on `spawn.execute_us_*`.
pub fn spawn_per_s(size: ProbeSize, threads: usize) -> f64 {
    let per = 5 * size.scale;
    reps(size, || {
        let started = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..per {
                        let status = Command::new("/bin/true")
                            .stdin(Stdio::null())
                            .stdout(Stdio::null())
                            .stderr(Stdio::null())
                            .status()
                            .expect("/bin/true launches");
                        assert!(status.success());
                    }
                });
            }
        });
        (threads * per) as f64 / started.elapsed().as_secs_f64()
    })
}

/// One-way hop between two threads over a crossbeam channel, in ns:
/// the bound on `runner.collect_lag_us_*` and `dag.release_us_*`.
pub fn channel_hop_ns(size: ProbeSize) -> f64 {
    let trips = 1000 * size.scale;
    reps(size, || {
        let (ping_tx, ping_rx) = crossbeam_channel::unbounded::<u64>();
        let (pong_tx, pong_rx) = crossbeam_channel::unbounded::<u64>();
        std::thread::scope(|s| {
            s.spawn(move || {
                while let Ok(v) = ping_rx.recv() {
                    if pong_tx.send(v).is_err() {
                        break;
                    }
                }
            });
            let started = Instant::now();
            for i in 0..trips as u64 {
                ping_tx.send(i).expect("echo thread alive");
                black_box(pong_rx.recv().expect("echo thread alive"));
            }
            let ns = started.elapsed().as_nanos() as f64 / (2 * trips) as f64;
            drop(ping_tx);
            ns
        })
    })
}

/// Round trip of 8 bytes over a `UnixStream` pair, in µs: the bound on
/// `frame.*` and `serve.first_done_ms_*`.
pub fn socketpair_rtt_us(size: ProbeSize) -> f64 {
    let trips = 250 * size.scale;
    reps(size, || {
        let (mut a, mut b) = UnixStream::pair().expect("socketpair");
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut buf = [0u8; 8];
                while b.read_exact(&mut buf).is_ok() {
                    if b.write_all(&buf).is_err() {
                        break;
                    }
                }
            });
            let mut buf = [0u8; 8];
            let started = Instant::now();
            for i in 0..trips as u64 {
                a.write_all(&i.to_le_bytes()).expect("echo peer alive");
                a.read_exact(&mut buf).expect("echo peer alive");
            }
            let us = started.elapsed().as_secs_f64() * 1e6 / trips as f64;
            drop(a);
            us
        })
    })
}

/// A 4 KiB write plus `fsync` in `dir`, in ms: the bound on
/// `serve.admit_ms_*` (the journal fsyncs every admission).
pub fn fsync_ms(size: ProbeSize, dir: &Path) -> Result<f64, String> {
    let path = dir.join("fsync.probe");
    let mut f = std::fs::File::create(&path).map_err(|e| format!("fsync probe: {e}"))?;
    let block = [0x5au8; 4096];
    let mut v = Vec::new();
    for _ in 0..4 * size.scale {
        f.seek(SeekFrom::Start(0)).map_err(|e| e.to_string())?;
        f.write_all(&block).map_err(|e| e.to_string())?;
        let started = Instant::now();
        f.sync_all().map_err(|e| e.to_string())?;
        v.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let _ = std::fs::remove_file(&path);
    Ok(median(&v))
}

/// `Template::expand` over the run's own arguments, ns per expansion.
pub fn template_expand_ns(size: ProbeSize, template: &str, args: &[String]) -> f64 {
    let t = Template::parse(template).expect("benchmark templates parse");
    let args: Vec<[String; 1]> = args.iter().map(|a| [a.clone()]).collect();
    reps(size, || {
        let started = Instant::now();
        for (i, a) in args.iter().enumerate() {
            let ctx = ExpandContext {
                args: a,
                seq: i as u64 + 1,
                slot: 1,
            };
            black_box(t.expand(black_box(&ctx)));
        }
        started.elapsed().as_nanos() as f64 / args.len().max(1) as f64
    })
}

/// `JobLogWriter::record_entry` over the run's own rows with a flush
/// every [`FLUSH_EVERY`] rows, into a scratch file in `dir`: ns per
/// row, and bytes per row.
pub fn joblog_row(size: ProbeSize, dir: &Path, rows: &[LogEntry]) -> Result<(f64, f64), String> {
    let path = dir.join("joblog.probe");
    let mut bytes = 0.0;
    let mut v = Vec::new();
    for _ in 0..size.reps {
        let _ = std::fs::remove_file(&path);
        let mut log = JobLogWriter::open(&path).map_err(|e| format!("joblog probe: {e}"))?;
        let header = std::fs::metadata(&path).map_or(0, |m| m.len());
        let started = Instant::now();
        for chunk in rows.chunks(FLUSH_EVERY) {
            for row in chunk {
                log.record_entry(row).map_err(|e| e.to_string())?;
            }
            log.flush().map_err(|e| e.to_string())?;
        }
        v.push(started.elapsed().as_nanos() as f64 / rows.len().max(1) as f64);
        drop(log);
        let len = std::fs::metadata(&path).map_or(0, |m| m.len());
        bytes = len.saturating_sub(header) as f64 / rows.len().max(1) as f64;
    }
    let _ = std::fs::remove_file(&path);
    Ok((median(&v), bytes))
}

/// `Frame::encode` and `Decoder::next_frame` over `Shard` and
/// `DoneBatch` frames carrying the run's own tasks and rows: ns per
/// task for each direction.
pub fn frame_codec_ns(size: ProbeSize, args: &[String], rows: &[LogEntry]) -> (f64, f64) {
    let mut frames = Vec::new();
    for (c, chunk) in args.chunks(SHARD_CHUNK).enumerate() {
        let base = (c * SHARD_CHUNK) as u64;
        frames.push(Frame::Shard {
            tasks: chunk
                .iter()
                .enumerate()
                .map(|(i, a)| TaskSpec {
                    seq: base + i as u64 + 1,
                    args: vec![a.clone()],
                })
                .collect(),
        });
    }
    for chunk in rows.chunks(SHARD_CHUNK) {
        frames.push(Frame::DoneBatch {
            results: chunk
                .iter()
                .map(|r| TaskDoneRec {
                    seq: r.seq,
                    exitval: r.exitval,
                    signal: r.signal,
                    start_epoch_us: (r.start * 1e6) as u64,
                    runtime_us: (r.runtime * 1e6) as u64,
                    stdout: String::new(),
                    stderr: String::new(),
                })
                .collect(),
        });
    }
    let tasks = args.len().max(1) as f64;
    let mut wire = Vec::new();
    let enc = reps(size, || {
        wire.clear();
        let started = Instant::now();
        for f in &frames {
            wire.extend_from_slice(&black_box(f).encode());
        }
        started.elapsed().as_nanos() as f64 / tasks
    });
    let dec = reps(size, || {
        let mut d = Decoder::new();
        let started = Instant::now();
        d.extend(&wire);
        let mut n = 0;
        while let Ok(Some(f)) = d.next_frame() {
            black_box(f);
            n += 1;
        }
        assert_eq!(n, frames.len(), "every encoded frame decodes");
        started.elapsed().as_nanos() as f64 / tasks
    });
    (enc, dec)
}

/// Measure every ceiling into `out`.
pub fn ceilings(
    out: &mut Outcome,
    size: ProbeSize,
    threads: usize,
    dir: &Path,
) -> Result<(), String> {
    out.metric("ceil.spawn_per_s", spawn_per_s(size, threads), "1/s");
    out.metric("ceil.channel_hop_ns", channel_hop_ns(size), "ns");
    out.metric("ceil.socketpair_rtt_us", socketpair_rtt_us(size), "us");
    out.metric("ceil.fsync_ms", fsync_ms(size, dir)?, "ms");
    Ok(())
}

/// Measure the template, joblog and frame costs over the run's own
/// inputs and rows into `out`.
pub fn layer_costs(
    out: &mut Outcome,
    size: ProbeSize,
    dir: &Path,
    template: &str,
    args: &[String],
    rows: &[LogEntry],
) -> Result<(), String> {
    out.metric(
        "template.expand_ns",
        template_expand_ns(size, template, args),
        "ns",
    );
    let (row_ns, bytes) = joblog_row(size, dir, rows)?;
    out.metric("joblog.row_ns", row_ns, "ns");
    out.metric("joblog.bytes_per_task", bytes, "bytes");
    let (enc, dec) = frame_codec_ns(size, args, rows);
    out.metric("frame.encode_ns_per_task", enc, "ns");
    out.metric("frame.decode_ns_per_task", dec, "ns");
    Ok(())
}
