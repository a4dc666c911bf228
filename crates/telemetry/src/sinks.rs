//! Built-in sinks: in-memory capture for tests and JSONL output for
//! benches.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::bus::Sink;
use crate::event::{Event, TimedEvent};

/// In-memory sink capturing every event in arrival order. Designed for
/// tests: keep a clone of the `Arc` you attach, run the workload, then
/// assert on [`Recorder::events`].
#[derive(Debug, Default)]
pub struct Recorder {
    captured: Mutex<Vec<TimedEvent>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder::default()
    }

    pub fn shared() -> Arc<Recorder> {
        Arc::new(Recorder::new())
    }

    pub fn len(&self) -> usize {
        self.captured.lock().expect("recorder poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of captured events (without timestamps).
    pub fn events(&self) -> Vec<Event> {
        self.captured
            .lock()
            .expect("recorder poisoned")
            .iter()
            .map(|t| t.event.clone())
            .collect()
    }

    /// Snapshot of captured events with bus-relative timestamps.
    pub fn timed_events(&self) -> Vec<TimedEvent> {
        self.captured.lock().expect("recorder poisoned").clone()
    }

    /// Events for one task, in capture order — the job's lifecycle
    /// trajectory (`queued → slot_acquired → spawned → completed`).
    pub fn lifecycle_of(&self, seq: u64) -> Vec<Event> {
        self.captured
            .lock()
            .expect("recorder poisoned")
            .iter()
            .filter(|t| t.event.seq() == Some(seq))
            .map(|t| t.event.clone())
            .collect()
    }

    /// Kind strings of every captured event, in order. Convenient for
    /// golden-trace assertions.
    pub fn kinds(&self) -> Vec<&'static str> {
        self.captured
            .lock()
            .expect("recorder poisoned")
            .iter()
            .map(|t| t.event.kind())
            .collect()
    }

    /// Count of events matching a predicate.
    pub fn count_matching<F: Fn(&Event) -> bool>(&self, pred: F) -> usize {
        self.captured
            .lock()
            .expect("recorder poisoned")
            .iter()
            .filter(|t| pred(&t.event))
            .count()
    }

    /// Drop everything captured so far (e.g. between test phases).
    pub fn clear(&self) {
        self.captured.lock().expect("recorder poisoned").clear();
    }
}

impl Sink for Recorder {
    fn record(&self, at: Duration, event: &Event) {
        self.captured
            .lock()
            .expect("recorder poisoned")
            .push(TimedEvent {
                at,
                event: event.clone(),
            });
    }
}

/// Sink that appends one JSON object per event to a writer. Lines
/// follow the schema documented in DESIGN.md (`t_us`, `type`, then the
/// variant's fields), so bench trajectories are machine-readable.
pub struct JsonlWriter {
    out: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl JsonlWriter {
    pub fn new(writer: Box<dyn Write + Send>) -> JsonlWriter {
        JsonlWriter {
            out: Mutex::new(BufWriter::new(writer)),
        }
    }

    /// Create (truncate) a JSONL file at `path`.
    pub fn create(path: &Path) -> io::Result<Arc<JsonlWriter>> {
        let file = std::fs::File::create(path)?;
        Ok(Arc::new(JsonlWriter::new(Box::new(file))))
    }

    /// Capture into an in-memory buffer (used by tests to validate the
    /// schema without touching disk). The buffer is shared: read it
    /// back after [`JsonlWriter::flush`].
    pub fn in_memory() -> (Arc<JsonlWriter>, Arc<Mutex<Vec<u8>>>) {
        let buffer = Arc::new(Mutex::new(Vec::new()));
        let writer = SharedBuffer {
            buffer: buffer.clone(),
        };
        (Arc::new(JsonlWriter::new(Box::new(writer))), buffer)
    }

    pub fn flush(&self) -> io::Result<()> {
        self.out.lock().expect("jsonl writer poisoned").flush()
    }
}

impl Sink for JsonlWriter {
    fn record(&self, at: Duration, event: &Event) {
        let line = event.to_jsonl(at);
        let mut out = self.out.lock().expect("jsonl writer poisoned");
        // Telemetry must never take down the workload; drop on I/O error.
        let _ = writeln!(out, "{line}");
    }

    fn flush(&self) {
        let _ = JsonlWriter::flush(self);
    }
}

impl Drop for JsonlWriter {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.flush();
        }
    }
}

struct SharedBuffer {
    buffer: Arc<Mutex<Vec<u8>>>,
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.buffer
            .lock()
            .expect("buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::EventBus;
    use crate::event::LaunchMethod;

    #[test]
    fn recorder_captures_in_order_with_lifecycle_lookup() {
        let bus = EventBus::shared();
        let rec = Recorder::shared();
        bus.attach(rec.clone());
        bus.emit(Event::Queued { seq: 1 });
        bus.emit(Event::SlotAcquired { seq: 1, slot: 1 });
        bus.emit(Event::Queued { seq: 2 });
        bus.emit(Event::Spawned { seq: 1, slot: 1 });
        bus.emit(Event::Completed {
            seq: 1,
            exit: 0,
            runtime: Duration::from_millis(1),
        });
        assert_eq!(
            rec.lifecycle_of(1)
                .iter()
                .map(|e| e.kind())
                .collect::<Vec<_>>(),
            vec!["queued", "slot_acquired", "spawned", "completed"]
        );
        assert_eq!(rec.lifecycle_of(2).len(), 1);
        assert_eq!(rec.kinds()[0], "queued");
        rec.clear();
        assert!(rec.is_empty());
    }

    #[test]
    fn jsonl_writer_emits_parseable_lines() {
        let (writer, buffer) = JsonlWriter::in_memory();
        let bus = EventBus::shared();
        bus.attach(writer.clone());
        bus.emit(Event::Launch {
            method: LaunchMethod::Parallel,
            tasks: 128,
        });
        bus.emit(Event::NodeUp { node: 3 });
        writer.flush().unwrap();
        let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first["type"].as_str(), Some("launch"));
        assert_eq!(first["method"].as_str(), Some("parallel"));
        assert_eq!(first["tasks"].as_u64(), Some(128));
        let second = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(second["type"].as_str(), Some("node_up"));
        assert_eq!(second["node"].as_u64(), Some(3));
    }

    #[test]
    fn bus_flush_writes_out_buffered_jsonl() {
        let (writer, buffer) = JsonlWriter::in_memory();
        let bus = EventBus::shared();
        bus.attach(writer);
        bus.emit(Event::NodeUp { node: 1 });
        assert!(buffer.lock().unwrap().is_empty(), "the line is buffered");
        bus.flush();
        let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 1);
    }

    #[test]
    fn jsonl_writer_to_file_round_trips() {
        let dir = std::env::temp_dir().join(format!("htpar-telemetry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        {
            let writer = JsonlWriter::create(&path).unwrap();
            writer.record(Duration::from_micros(5), &Event::QueueDepth { depth: 9 });
            writer.flush().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let v = serde_json::from_str(text.trim()).unwrap();
        assert_eq!(v["depth"].as_u64(), Some(9));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
