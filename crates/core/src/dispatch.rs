//! Sharded job hand-out for the engine's hot dispatch path.
//!
//! The old engine funnelled every worker through one mutex-guarded input
//! iterator: one lock round-trip per task, and at high `-j` exactly the
//! central-scheduler serialization the paper argues against. This module
//! replaces that cursor with chunked hand-out:
//!
//! - **Preloaded inputs** (the common case — argument lists, `--pipe`
//!   blocks, anything with a known length) are partitioned up front into
//!   contiguous chunks. A worker claims a chunk with a single
//!   `fetch_add` on the shared cursor and then works through it with no
//!   shared state at all, so the amortized per-task dispatch cost is
//!   1/chunk-len of an atomic increment.
//! - **Streaming inputs** (`--follow` queues and other unbounded
//!   iterators) are pumped by a feeder thread into a bounded channel the
//!   workers pull from, so a slow producer applies backpressure instead
//!   of a lock convoy.
//!
//! Chunks are contiguous seq ranges, so with `-j 1` jobs still run in
//! input order, and small inputs degrade to chunk size 1 — identical
//! hand-out granularity to the old cursor.

use crossbeam_channel::{Receiver, TryRecvError};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::runner::JobInput;

/// Upper bound on chunk length: large enough to amortize the cursor
/// `fetch_add` to noise, small enough that a 100k-task run still spreads
/// across every slot.
const MAX_CHUNK: usize = 128;

/// Chunk length for `n` preloaded inputs across `jobs` slots: aim for
/// ~8 chunks per slot so tail imbalance stays small, floor 1 so tiny
/// inputs keep per-task hand-out, cap [`MAX_CHUNK`].
pub fn chunk_size(n: usize, jobs: usize) -> usize {
    (n / (jobs.max(1) * 8)).clamp(1, MAX_CHUNK)
}

/// Pre-partitioned inputs claimed chunk-at-a-time via an atomic cursor.
pub struct ChunkQueue {
    chunks: Vec<Mutex<Vec<JobInput>>>,
    cursor: AtomicUsize,
    total: usize,
}

impl ChunkQueue {
    /// Partition `inputs` into contiguous chunks sized for `jobs` slots.
    pub fn new(inputs: Vec<JobInput>, jobs: usize) -> ChunkQueue {
        let total = inputs.len();
        Self::from_iter(inputs.into_iter(), total, jobs)
    }

    /// Partition straight off an iterator, skipping the intermediate
    /// `Vec` a `collect()`-then-partition would shuffle through.
    /// `total_hint` sizes the chunks (use the exact length when known);
    /// the recorded total is counted from what the iterator yields.
    pub fn from_iter<I>(mut it: I, total_hint: usize, jobs: usize) -> ChunkQueue
    where
        I: Iterator<Item = JobInput>,
    {
        let chunk = chunk_size(total_hint, jobs);
        let mut chunks = Vec::with_capacity(total_hint / chunk + 1);
        let mut total = 0;
        loop {
            let mut c: Vec<JobInput> = Vec::with_capacity(chunk);
            c.extend(it.by_ref().take(chunk));
            if c.is_empty() {
                break;
            }
            total += c.len();
            chunks.push(Mutex::new(c));
        }
        ChunkQueue {
            chunks,
            cursor: AtomicUsize::new(0),
            total,
        }
    }

    /// Claim the next unclaimed chunk. The `fetch_add` hands each index
    /// out exactly once, so the per-chunk mutex is uncontended — it only
    /// exists to move the `Vec` out safely.
    fn take_chunk(&self) -> Option<Vec<JobInput>> {
        loop {
            let idx = self.cursor.fetch_add(1, Ordering::Relaxed);
            let slot = self.chunks.get(idx)?;
            let chunk = std::mem::take(&mut *slot.lock());
            if !chunk.is_empty() {
                return Some(chunk);
            }
        }
    }

    /// Total chunks (for tests and introspection).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }
}

/// Where workers pull jobs from.
pub enum JobSource {
    /// Finite input, partitioned up front.
    Preloaded(ChunkQueue),
    /// Unbounded input, fed through a bounded channel by a feeder thread.
    Streaming(Receiver<JobInput>),
    /// Unbounded input whose producer already batches: workers pull a
    /// whole `Vec` per channel round-trip and then run it with no shared
    /// state, the streaming analogue of [`ChunkQueue`] chunks. Built for
    /// the network agent, where tasks arrive in multi-thousand-task
    /// shard frames and per-item channel hops would dominate dispatch;
    /// the DAG layer sends its releases here in [`chunk_size`] batches.
    Batched(Receiver<Vec<JobInput>>),
}

impl JobSource {
    /// Build the preloaded variant for a known input set.
    pub fn preloaded(inputs: Vec<JobInput>, jobs: usize) -> JobSource {
        JobSource::Preloaded(ChunkQueue::new(inputs, jobs))
    }

    /// Build the streaming variant over a channel receiver.
    pub fn streaming(rx: Receiver<JobInput>) -> JobSource {
        JobSource::Streaming(rx)
    }

    /// Build the batch-granular streaming variant.
    pub fn batched(rx: Receiver<Vec<JobInput>>) -> JobSource {
        JobSource::Batched(rx)
    }

    /// Total job count when known up front (preloaded sources), so
    /// consumers can pre-size result buffers.
    pub fn len_hint(&self) -> Option<usize> {
        match self {
            JobSource::Preloaded(q) => Some(q.total),
            JobSource::Streaming(_) | JobSource::Batched(_) => None,
        }
    }
}

/// Outcome of a non-blocking [`WorkerFeed::try_next`] poll.
pub enum Feed {
    /// A job is ready.
    Job(JobInput),
    /// Nothing ready right now, but the source may still produce
    /// (streaming source with a live feeder). The caller should finish
    /// any deferrable work, then block in [`WorkerFeed::next`].
    Pending,
    /// The source is drained.
    Done,
}

/// One worker's view of the source: a one-job continuation slot, a
/// claimed local chunk, and the shared refill path, read in that order.
/// `next()` is lock-free until the slot and the local chunk run dry.
pub struct WorkerFeed<'a> {
    source: &'a JobSource,
    /// A job this worker released for itself (a DAG successor of the
    /// task it just finished), run before anything else it holds.
    next_up: Option<JobInput>,
    local: std::vec::IntoIter<JobInput>,
}

impl<'a> WorkerFeed<'a> {
    pub fn new(source: &'a JobSource) -> WorkerFeed<'a> {
        WorkerFeed {
            source,
            next_up: None,
            local: Vec::new().into_iter(),
        }
    }

    /// Make `job` this worker's next job, ahead of its chunk and the
    /// shared source. The slot holds one job: a worker fills it at most
    /// once per job it runs.
    pub fn continue_with(&mut self, job: JobInput) {
        debug_assert!(self.next_up.is_none(), "continuation slot already full");
        self.next_up = Some(job);
    }

    /// The continuation slot, else the local chunk.
    fn held(&mut self) -> Option<JobInput> {
        self.next_up.take().or_else(|| self.local.next())
    }

    /// The next job, refilling from the shared source when the local
    /// chunk is exhausted. `None` means the input is drained (or, for
    /// streaming sources, the feeder hung up). Deliberately named like
    /// `Iterator::next` — same contract — but kept inherent because the
    /// blocking receive on streaming sources makes a `for` loop over a
    /// worker feed a footgun.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<JobInput> {
        if let Some(job) = self.held() {
            return Some(job);
        }
        match self.source {
            JobSource::Preloaded(q) => {
                self.local = q.take_chunk()?.into_iter();
                self.local.next()
            }
            JobSource::Streaming(rx) => rx.recv().ok(),
            JobSource::Batched(rx) => loop {
                self.local = rx.recv().ok()?.into_iter();
                if let Some(job) = self.local.next() {
                    return Some(job);
                }
            },
        }
    }

    /// Like [`WorkerFeed::next`] but never blocks: a streaming source
    /// with nothing queued yet reports [`Feed::Pending`] instead,
    /// letting the worker hand off buffered completions before it
    /// parks on the channel.
    pub fn try_next(&mut self) -> Feed {
        if let Some(job) = self.held() {
            return Feed::Job(job);
        }
        match self.source {
            JobSource::Preloaded(q) => match q.take_chunk() {
                Some(chunk) => {
                    self.local = chunk.into_iter();
                    match self.local.next() {
                        Some(job) => Feed::Job(job),
                        None => Feed::Done,
                    }
                }
                None => Feed::Done,
            },
            JobSource::Streaming(rx) => match rx.try_recv() {
                Ok(job) => Feed::Job(job),
                Err(TryRecvError::Empty) => Feed::Pending,
                Err(TryRecvError::Disconnected) => Feed::Done,
            },
            JobSource::Batched(rx) => loop {
                match rx.try_recv() {
                    Ok(batch) => {
                        self.local = batch.into_iter();
                        if let Some(job) = self.local.next() {
                            return Feed::Job(job);
                        }
                    }
                    Err(TryRecvError::Empty) => return Feed::Pending,
                    Err(TryRecvError::Disconnected) => return Feed::Done,
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(n: u64) -> Vec<JobInput> {
        (1..=n)
            .map(|seq| JobInput::new(seq, vec![seq.to_string()]))
            .collect()
    }

    #[test]
    fn chunk_size_scales_with_input_and_caps() {
        assert_eq!(chunk_size(0, 4), 1);
        assert_eq!(chunk_size(10, 4), 1, "small inputs keep per-task grain");
        assert_eq!(chunk_size(320, 4), 10);
        assert_eq!(chunk_size(1_000_000, 64), MAX_CHUNK);
        assert_eq!(chunk_size(100, 0), 12, "jobs=0 treated as 1");
    }

    #[test]
    fn preloaded_hand_out_is_complete_and_disjoint() {
        let source = JobSource::preloaded(inputs(1000), 4);
        let mut feeds: Vec<WorkerFeed> = (0..4).map(|_| WorkerFeed::new(&source)).collect();
        let mut seen = Vec::new();
        // Round-robin across feeds to interleave chunk claims.
        loop {
            let mut any = false;
            for feed in &mut feeds {
                if let Some(job) = feed.next() {
                    seen.push(job.seq);
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (1..=1000).collect::<Vec<_>>());
    }

    #[test]
    fn single_feed_preserves_input_order() {
        let source = JobSource::preloaded(inputs(500), 1);
        let mut feed = WorkerFeed::new(&source);
        let mut seqs = Vec::new();
        while let Some(job) = feed.next() {
            seqs.push(job.seq);
        }
        assert_eq!(seqs, (1..=500).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_hand_out_never_duplicates() {
        let source = std::sync::Arc::new(JobSource::preloaded(inputs(10_000), 8));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let source = std::sync::Arc::clone(&source);
            handles.push(std::thread::spawn(move || {
                let mut feed = WorkerFeed::new(&source);
                let mut got = Vec::new();
                while let Some(job) = feed.next() {
                    got.push(job.seq);
                }
                got
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all.len(), 10_000);
        all.dedup();
        assert_eq!(all.len(), 10_000, "no seq handed out twice");
    }

    #[test]
    fn streaming_feed_pulls_from_channel() {
        let (tx, rx) = crossbeam_channel::bounded(4);
        let source = JobSource::streaming(rx);
        let producer = std::thread::spawn(move || {
            for job in inputs(100) {
                tx.send(job).unwrap();
            }
        });
        let mut feed = WorkerFeed::new(&source);
        let mut got = Vec::new();
        while let Some(job) = feed.next() {
            got.push(job.seq);
        }
        producer.join().unwrap();
        assert_eq!(got, (1..=100).collect::<Vec<_>>());
    }

    #[test]
    fn batched_feed_flattens_batches_in_order() {
        let (tx, rx) = crossbeam_channel::unbounded::<Vec<JobInput>>();
        let source = JobSource::batched(rx);
        assert_eq!(source.len_hint(), None);
        let producer = std::thread::spawn(move || {
            let all = inputs(100);
            for chunk in all.chunks(7) {
                tx.send(chunk.to_vec()).unwrap();
            }
        });
        let mut feed = WorkerFeed::new(&source);
        let mut got = Vec::new();
        while let Some(job) = feed.next() {
            got.push(job.seq);
        }
        producer.join().unwrap();
        assert_eq!(got, (1..=100).collect::<Vec<_>>());
    }

    #[test]
    fn batched_feed_skips_empty_batches() {
        let (tx, rx) = crossbeam_channel::unbounded::<Vec<JobInput>>();
        let source = JobSource::batched(rx);
        tx.send(Vec::new()).unwrap();
        tx.send(inputs(3)).unwrap();
        tx.send(Vec::new()).unwrap();
        tx.send(inputs(2)).unwrap();
        drop(tx);
        let mut feed = WorkerFeed::new(&source);
        let mut got = Vec::new();
        while let Some(job) = feed.next() {
            got.push(job.seq);
        }
        assert_eq!(got, vec![1, 2, 3, 1, 2]);
    }

    #[test]
    fn batched_try_next_reports_pending_then_done() {
        let (tx, rx) = crossbeam_channel::unbounded::<Vec<JobInput>>();
        let source = JobSource::batched(rx);
        let mut feed = WorkerFeed::new(&source);
        assert!(matches!(feed.try_next(), Feed::Pending));
        tx.send(inputs(2)).unwrap();
        assert!(matches!(feed.try_next(), Feed::Job(j) if j.seq == 1));
        assert!(matches!(feed.try_next(), Feed::Job(j) if j.seq == 2));
        tx.send(Vec::new()).unwrap();
        assert!(
            matches!(feed.try_next(), Feed::Pending),
            "an empty batch alone must not signal a job or completion"
        );
        drop(tx);
        assert!(matches!(feed.try_next(), Feed::Done));
    }

    #[test]
    fn continuation_runs_before_the_chunk_and_the_channel() {
        let (tx, rx) = crossbeam_channel::unbounded::<Vec<JobInput>>();
        let source = JobSource::batched(rx);
        tx.send(inputs(2)).unwrap();
        tx.send(inputs(1)).unwrap();
        let mut feed = WorkerFeed::new(&source);
        assert!(matches!(feed.try_next(), Feed::Job(j) if j.seq == 1));
        feed.continue_with(JobInput::new(9, Vec::new()));
        assert!(matches!(feed.try_next(), Feed::Job(j) if j.seq == 9));
        assert!(matches!(feed.try_next(), Feed::Job(j) if j.seq == 2));
        drop(tx);
        feed.continue_with(JobInput::new(8, Vec::new()));
        assert_eq!(feed.next().map(|j| j.seq), Some(8));
        assert_eq!(feed.next().map(|j| j.seq), Some(1));
        assert!(feed.next().is_none());
    }

    #[test]
    fn batched_concurrent_hand_out_never_duplicates() {
        let (tx, rx) = crossbeam_channel::unbounded::<Vec<JobInput>>();
        let source = std::sync::Arc::new(JobSource::batched(rx));
        let producer = std::thread::spawn(move || {
            let all = inputs(10_000);
            for chunk in all.chunks(64) {
                tx.send(chunk.to_vec()).unwrap();
            }
        });
        let mut handles = Vec::new();
        for _ in 0..8 {
            let source = std::sync::Arc::clone(&source);
            handles.push(std::thread::spawn(move || {
                let mut feed = WorkerFeed::new(&source);
                let mut got = Vec::new();
                while let Some(job) = feed.next() {
                    got.push(job.seq);
                }
                got
            }));
        }
        producer.join().unwrap();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all.len(), 10_000);
        all.dedup();
        assert_eq!(all.len(), 10_000, "no seq handed out twice");
    }
}
