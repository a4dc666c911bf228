//! The engine's one way in: every run is fed `Vec<JobInput>` batches
//! down one channel.
//!
//! Each of the `-j` workers pulls a whole batch per channel operation
//! and then works through it with no shared state, so the amortized
//! per-task cost of input hand-out is one channel operation per batch,
//! and there is no central scheduler: a slot takes the next batch the
//! moment it runs dry. Three producers fill the channel, and all of
//! them size their batches by one rule, [`chunk_size`], through
//! [`send_chunks`]:
//!
//! - [`Engine::run`](crate::runner::Engine::run) sends an exact-size
//!   input (argument lists, `--pipe` blocks) before the workers start,
//!   so a `--halt` percentage sees the exact total. An unsized input
//!   (`--follow` queues) is pumped one job per batch from the calling
//!   thread into a bounded channel while the workers run.
//! - The DAG layer sends each release ([`crate::dag`]).
//! - The network agent sends each inbound `Shard` frame.
//!
//! Batches keep their producer's order, so with `-j 1` jobs still run
//! in input order, and small inputs degrade to batches of one.

use crossbeam_channel::{Receiver, Sender, TryRecvError};

use crate::runner::JobInput;

/// Upper bound on batch length: large enough to amortize the channel
/// operation to noise, small enough that a 100k-task run still spreads
/// across every slot.
const MAX_CHUNK: usize = 128;

/// Batch length for `n` inputs across `jobs` slots: aim for ~8 batches
/// per slot so tail imbalance stays small, floor 1 so tiny inputs keep
/// per-task hand-out, cap [`MAX_CHUNK`].
pub fn chunk_size(n: usize, jobs: usize) -> usize {
    (n / (jobs.max(1) * 8)).clamp(1, MAX_CHUNK)
}

/// Send `jobs` down `tx` in order, in [`chunk_size`] batches for
/// `slots` slots, sized by the iterator's length (its lower size
/// bound). What a closed channel would not take is dropped.
pub fn send_chunks(
    tx: &Sender<Vec<JobInput>>,
    jobs: impl IntoIterator<Item = JobInput>,
    slots: usize,
) {
    let mut jobs = jobs.into_iter();
    let size = chunk_size(jobs.size_hint().0, slots);
    loop {
        let batch: Vec<JobInput> = jobs.by_ref().take(size).collect();
        if batch.is_empty() || tx.send(batch).is_err() {
            return;
        }
    }
}

/// Outcome of a non-blocking [`WorkerFeed::try_next`] poll.
pub enum Feed {
    /// A job is ready.
    Job(JobInput),
    /// Nothing ready right now, but a producer still holds the channel
    /// open. The caller should finish any deferrable work, then block in
    /// [`WorkerFeed::next`].
    Pending,
    /// The channel is drained and closed.
    Done,
}

/// One worker's view of the input: a one-job continuation slot, the
/// batch it is working through, and the shared channel, read in that
/// order. `next()` touches no shared state until the slot and the batch
/// run dry.
pub struct WorkerFeed<'a> {
    input: &'a Receiver<Vec<JobInput>>,
    /// A job this worker released for itself (a DAG successor of the
    /// task it just finished), run before anything else it holds.
    next_up: Option<JobInput>,
    local: std::vec::IntoIter<JobInput>,
}

impl<'a> WorkerFeed<'a> {
    pub fn new(input: &'a Receiver<Vec<JobInput>>) -> WorkerFeed<'a> {
        WorkerFeed {
            input,
            next_up: None,
            local: Vec::new().into_iter(),
        }
    }

    /// Make `job` this worker's next job, ahead of its batch and the
    /// shared channel. The slot holds one job: a worker fills it at most
    /// once per job it runs.
    pub fn continue_with(&mut self, job: JobInput) {
        debug_assert!(self.next_up.is_none(), "continuation slot already full");
        self.next_up = Some(job);
    }

    /// The continuation slot, else the local batch.
    fn held(&mut self) -> Option<JobInput> {
        self.next_up.take().or_else(|| self.local.next())
    }

    /// Take `batch` as the local one and return its first job.
    fn start(&mut self, batch: Vec<JobInput>) -> Option<JobInput> {
        self.local = batch.into_iter();
        self.local.next()
    }

    /// The next job, blocking on the channel when the local batch is
    /// exhausted. `None` means every producer hung up and the channel
    /// is drained. Deliberately named like `Iterator::next` — same
    /// contract — but kept inherent because the blocking receive makes
    /// a `for` loop over a worker feed a footgun.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<JobInput> {
        if let Some(job) = self.held() {
            return Some(job);
        }
        loop {
            let batch = self.input.recv().ok()?;
            if let Some(job) = self.start(batch) {
                return Some(job);
            }
        }
    }

    /// Like [`WorkerFeed::next`] but never blocks: an open channel with
    /// nothing queued reports [`Feed::Pending`] instead, letting the
    /// worker hand off buffered completions before it parks.
    pub fn try_next(&mut self) -> Feed {
        if let Some(job) = self.held() {
            return Feed::Job(job);
        }
        loop {
            match self.input.try_recv() {
                Ok(batch) => {
                    if let Some(job) = self.start(batch) {
                        return Feed::Job(job);
                    }
                }
                Err(TryRecvError::Empty) => return Feed::Pending,
                Err(TryRecvError::Disconnected) => return Feed::Done,
            }
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

    /// An exact-size input as `Engine::run` sends it: every batch on
    /// the channel and the sender gone before any worker reads.
    fn sent(n: u64, jobs: usize) -> Receiver<Vec<JobInput>> {
        let (tx, rx) = crossbeam_channel::unbounded();
        send_chunks(&tx, inputs(n), jobs);
        rx
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
    fn send_chunks_sends_chunk_size_batches_in_order() {
        let rx = sent(1000, 4);
        let batches: Vec<Vec<JobInput>> = rx.iter().collect();
        let sizes: Vec<usize> = batches.iter().map(Vec::len).collect();
        assert_eq!(sizes, [[31; 32].as_slice(), &[8]].concat());
        let seqs: Vec<u64> = batches.iter().flatten().map(|j| j.seq).collect();
        assert_eq!(seqs, (1..=1000).collect::<Vec<_>>());
    }

    #[test]
    fn preloaded_hand_out_is_complete_and_disjoint() {
        let rx = sent(1000, 4);
        let mut feeds: Vec<WorkerFeed> = (0..4).map(|_| WorkerFeed::new(&rx)).collect();
        let mut seen = Vec::new();
        // Round-robin across feeds to interleave batch claims.
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
        let rx = sent(500, 1);
        let mut feed = WorkerFeed::new(&rx);
        let mut seqs = Vec::new();
        while let Some(job) = feed.next() {
            seqs.push(job.seq);
        }
        assert_eq!(seqs, (1..=500).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_hand_out_never_duplicates() {
        let rx = sent(10_000, 8);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let rx = rx.clone();
            handles.push(std::thread::spawn(move || {
                let mut feed = WorkerFeed::new(&rx);
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

    /// An unsized input as `Engine::run` pumps it: one job per batch
    /// into a bounded channel while the worker reads.
    #[test]
    fn streaming_feed_pulls_from_channel() {
        let (tx, rx) = crossbeam_channel::bounded(4);
        let producer = std::thread::spawn(move || {
            for job in inputs(100) {
                tx.send(vec![job]).unwrap();
            }
        });
        let mut feed = WorkerFeed::new(&rx);
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
        let producer = std::thread::spawn(move || {
            let all = inputs(100);
            for chunk in all.chunks(7) {
                tx.send(chunk.to_vec()).unwrap();
            }
        });
        let mut feed = WorkerFeed::new(&rx);
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
        tx.send(Vec::new()).unwrap();
        tx.send(inputs(3)).unwrap();
        tx.send(Vec::new()).unwrap();
        tx.send(inputs(2)).unwrap();
        drop(tx);
        let mut feed = WorkerFeed::new(&rx);
        let mut got = Vec::new();
        while let Some(job) = feed.next() {
            got.push(job.seq);
        }
        assert_eq!(got, vec![1, 2, 3, 1, 2]);
    }

    #[test]
    fn batched_try_next_reports_pending_then_done() {
        let (tx, rx) = crossbeam_channel::unbounded::<Vec<JobInput>>();
        let mut feed = WorkerFeed::new(&rx);
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
        tx.send(inputs(2)).unwrap();
        tx.send(inputs(1)).unwrap();
        let mut feed = WorkerFeed::new(&rx);
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
        let producer = std::thread::spawn(move || {
            let all = inputs(10_000);
            for chunk in all.chunks(64) {
                tx.send(chunk.to_vec()).unwrap();
            }
        });
        let mut handles = Vec::new();
        for _ in 0..8 {
            let rx = rx.clone();
            handles.push(std::thread::spawn(move || {
                let mut feed = WorkerFeed::new(&rx);
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
