//! Streaming input queues — the `tail -n+0 -f q.proc | parallel` idiom.
//!
//! Paper §IV-A wires two workflow stages together through a queue file:
//! the fetch stage appends a timestamp per completed batch, and the
//! process stage follows the file with `tail -f` piped into `parallel`,
//! so processing starts the moment data lands. [`FollowQueue`] is that
//! mechanism as a type: a blocking line stream fed either by an in-process
//! producer handle or by following a growing file on disk.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufRead, BufReader, Seek, SeekFrom};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use htpar_telemetry::{Event, EventBus};

/// What a queue's producers, its consumer and its stoppers share: the
/// items under one lock, and one condvar that wakes the consumer on a
/// push, a stop, or the last writer's drop.
#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    wake: Condvar,
}

#[derive(Default)]
struct State {
    items: VecDeque<String>,
    /// Live [`QueueWriter`]s; the stream ends once none is left.
    writers: usize,
    /// [`FollowQueue::stop`] was called: the stream ends once the items
    /// already queued are taken.
    stopped: bool,
    /// The consumer is gone: pushes fail.
    closed: bool,
}

impl Shared {
    /// Every update leaves the state whole (one push, pop, count or
    /// flag), so a lock poisoned by a panicking holder is taken as is.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn stop(&self) {
        self.lock().stopped = true;
        self.wake.notify_all();
    }
}

/// Producer side of an in-process queue.
pub struct QueueWriter {
    shared: Arc<Shared>,
}

impl QueueWriter {
    fn new(shared: &Arc<Shared>) -> QueueWriter {
        shared.lock().writers += 1;
        QueueWriter {
            shared: Arc::clone(shared),
        }
    }

    /// Append one work item. Returns `false` if the consumer is gone.
    pub fn push<S: Into<String>>(&self, item: S) -> bool {
        let mut state = self.shared.lock();
        if state.closed {
            return false;
        }
        state.items.push_back(item.into());
        drop(state);
        self.shared.wake.notify_one();
        true
    }
}

impl Clone for QueueWriter {
    fn clone(&self) -> QueueWriter {
        QueueWriter::new(&self.shared)
    }
}

impl Drop for QueueWriter {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.writers -= 1;
        if state.writers == 0 {
            drop(state);
            self.shared.wake.notify_all();
        }
    }
}

/// A blocking stream of input lines that may still be growing.
///
/// Iteration yields items as they arrive and ends when the producer closes
/// (all [`QueueWriter`] clones dropped) or on [`FollowQueue::stop`], once
/// the items already queued are taken. A consumer blocked on an empty
/// queue sleeps until one of those happens.
pub struct FollowQueue {
    shared: Arc<Shared>,
    bus: Option<Arc<EventBus>>,
}

impl FollowQueue {
    /// An in-process queue. Drop (all clones of) the writer to close it.
    pub fn channel() -> (QueueWriter, FollowQueue) {
        let shared = Arc::new(Shared::default());
        (QueueWriter::new(&shared), FollowQueue { shared, bus: None })
    }

    /// Follow a file like `tail -n+0 -f`: existing lines are delivered
    /// first, then the file is polled for growth every `poll`. The stream
    /// stays open until [`FollowQueue::stop`]; a partially written last
    /// line (no trailing newline yet) is held back until its newline
    /// arrives.
    pub fn tail_file<P: Into<PathBuf>>(path: P, poll: Duration) -> FollowQueue {
        let path = path.into();
        let shared = Arc::new(Shared::default());
        let writer = QueueWriter::new(&shared);
        std::thread::spawn(move || follow_loop(path, poll, writer));
        FollowQueue { shared, bus: None }
    }

    /// Attach a telemetry bus: each dequeue emits a
    /// [`Event::QueueDepth`] gauge with the backlog remaining after
    /// the item was taken.
    pub fn with_telemetry(mut self, bus: Arc<EventBus>) -> FollowQueue {
        self.bus = Some(bus);
        self
    }

    /// Take the front item, reporting the backlog it leaves.
    fn take(&self, state: &mut State) -> Option<String> {
        let item = state.items.pop_front()?;
        if let Some(bus) = &self.bus {
            bus.emit(Event::QueueDepth {
                depth: state.items.len(),
            });
        }
        Some(item)
    }

    /// End the stream once the items already queued are taken. A file
    /// follower stops polling after its next poll; an in-process queue
    /// usually closes by dropping its writers instead.
    pub fn stop(&self) {
        self.shared.stop();
    }

    /// A handle that can stop this queue from another thread.
    pub fn stopper(&self) -> QueueStopper {
        QueueStopper {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Non-blocking poll for the next item.
    pub fn try_next(&self) -> Option<String> {
        self.take(&mut self.shared.lock())
    }

    /// Blocking next: sleeps until an item arrives, the last writer is
    /// dropped, or the queue is stopped.
    pub fn next_item(&self) -> Option<String> {
        let mut state = self.shared.lock();
        loop {
            if let Some(item) = self.take(&mut state) {
                return Some(item);
            }
            if state.writers == 0 || state.stopped {
                return None;
            }
            state = self
                .shared
                .wake
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for FollowQueue {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.closed = true;
        state.items.clear();
    }
}

impl Iterator for FollowQueue {
    type Item = String;
    fn next(&mut self) -> Option<String> {
        self.next_item()
    }
}

/// Stop handle for a [`FollowQueue`].
#[derive(Clone)]
pub struct QueueStopper {
    shared: Arc<Shared>,
}

impl QueueStopper {
    /// Signal the queue to finish.
    pub fn stop(&self) {
        self.shared.stop();
    }
}

fn follow_loop(path: PathBuf, poll: Duration, writer: QueueWriter) {
    let mut offset: u64 = 0;
    let mut partial = String::new();
    loop {
        if let Ok(mut file) = File::open(&path) {
            if file.seek(SeekFrom::Start(offset)).is_ok() {
                let mut reader = BufReader::new(&mut file);
                let mut chunk = String::new();
                loop {
                    chunk.clear();
                    match reader.read_line(&mut chunk) {
                        Ok(0) => break,
                        Ok(n) => {
                            offset += n as u64;
                            if chunk.ends_with('\n') {
                                partial.push_str(chunk.trim_end_matches('\n'));
                                if !writer.push(std::mem::take(&mut partial)) {
                                    return; // consumer gone
                                }
                            } else {
                                // Incomplete final line: keep and retry.
                                partial.push_str(&chunk);
                            }
                        }
                        Err(_) => break,
                    }
                }
            }
        }
        let state = writer.shared.lock();
        if state.stopped || state.closed {
            return;
        }
        drop(state);
        std::thread::sleep(poll);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::time::Instant;

    #[test]
    fn channel_queue_delivers_in_order_and_closes() {
        let (w, q) = FollowQueue::channel();
        w.push("a");
        w.push("b");
        drop(w);
        let items: Vec<String> = q.collect();
        assert_eq!(items, vec!["a", "b"]);
    }

    #[test]
    fn channel_queue_clone_writer() {
        let (w, q) = FollowQueue::channel();
        let w2 = w.clone();
        w.push("1");
        drop(w);
        w2.push("2");
        drop(w2);
        let items: Vec<String> = q.collect();
        assert_eq!(items, vec!["1", "2"]);
    }

    #[test]
    fn push_after_consumer_drop_reports_false() {
        let (w, q) = FollowQueue::channel();
        drop(q);
        assert!(!w.push("x"));
    }

    #[test]
    fn try_next_is_nonblocking() {
        let (w, q) = FollowQueue::channel();
        assert_eq!(q.try_next(), None);
        w.push("x");
        // A push is visible as soon as it returns.
        assert_eq!(q.try_next(), Some("x".to_string()));
    }

    #[test]
    fn stop_delivers_queued_items_then_ends() {
        let (w, q) = FollowQueue::channel();
        w.push("a");
        w.push("b");
        q.stopper().stop();
        let items: Vec<String> = q.collect();
        assert_eq!(items, vec!["a", "b"], "the writer is still live");
    }

    /// A consumer blocked on an empty queue returns as soon as the queue
    /// is stopped (its writer still live) or its last writer drops, not
    /// on a poll tick.
    #[test]
    fn a_blocked_next_item_wakes_at_once() {
        let wake_latency = |stop: bool| {
            let (writer, q) = FollowQueue::channel();
            let stopper = q.stopper();
            let consumer = std::thread::spawn(move || (q.next_item(), Instant::now()));
            std::thread::sleep(Duration::from_millis(2));
            let ended = Instant::now();
            let live_writer = if stop {
                stopper.stop();
                Some(writer)
            } else {
                drop(writer);
                None
            };
            let (item, returned) = consumer.join().unwrap();
            assert_eq!(item, None);
            drop(live_writer);
            returned.saturating_duration_since(ended)
        };
        for stop in [true, false] {
            let mut waits: Vec<Duration> = (0..50).map(|_| wake_latency(stop)).collect();
            waits.sort();
            assert!(
                waits[25] < Duration::from_millis(2),
                "stop {stop}: {waits:?}"
            );
        }
    }

    #[test]
    fn telemetry_reports_backlog_depth_per_dequeue() {
        use htpar_telemetry::{Event, EventBus, Recorder};
        let bus = EventBus::shared();
        let rec = Recorder::shared();
        bus.attach(rec.clone());
        let (w, q) = FollowQueue::channel();
        let q = q.with_telemetry(bus);
        w.push("a");
        w.push("b");
        w.push("c");
        drop(w);
        let items: Vec<String> = q.collect();
        assert_eq!(items.len(), 3);
        let depths: Vec<usize> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::QueueDepth { depth } => Some(*depth),
                _ => None,
            })
            .collect();
        // Backlog after each dequeue: 2, 1, 0.
        assert_eq!(depths, vec![2, 1, 0]);
    }

    #[test]
    fn tail_file_sees_existing_and_appended_lines() {
        let dir = std::env::temp_dir().join(format!("htpar-q-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("q.proc");
        std::fs::write(&path, "t1\nt2\n").unwrap();

        let mut q = FollowQueue::tail_file(&path, Duration::from_millis(5));
        assert_eq!(q.next(), Some("t1".to_string()));
        assert_eq!(q.next(), Some("t2".to_string()));

        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        writeln!(f, "t3").unwrap();
        f.flush().unwrap();
        assert_eq!(q.next(), Some("t3".to_string()));

        q.stop();
        assert_eq!(q.next(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tail_file_holds_back_partial_lines() {
        let dir = std::env::temp_dir().join(format!("htpar-qp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("q.partial");
        std::fs::write(&path, "half").unwrap(); // no newline yet

        let mut q = FollowQueue::tail_file(&path, Duration::from_millis(5));
        assert_eq!(q.try_next(), None);
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(q.try_next(), None, "partial line not delivered");

        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        writeln!(f, "-done").unwrap();
        f.flush().unwrap();
        assert_eq!(q.next(), Some("half-done".to_string()));

        q.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tail_file_on_missing_file_waits_for_creation() {
        let dir = std::env::temp_dir().join(format!("htpar-qm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("later.q");
        let mut q = FollowQueue::tail_file(&path, Duration::from_millis(5));
        assert_eq!(q.try_next(), None);
        std::fs::write(&path, "born\n").unwrap();
        assert_eq!(q.next(), Some("born".to_string()));
        q.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
