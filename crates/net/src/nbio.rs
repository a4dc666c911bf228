//! Non-blocking framed connections: the buffered read/write state
//! machine between the [`htpar_core::reactor::Reactor`] and the frame
//! codec.
//!
//! A [`FrameConn`] owns one non-blocking byte stream plus a read-side
//! incremental [`Decoder`] and a write-side queue of encoded frames.
//! The reactor loop calls [`FrameConn::fill`] on read-readiness and
//! [`FrameConn::flush`] on write-readiness; both do as much work as the
//! socket allows and report precisely how they stopped (drained,
//! would-block, EOF), so the caller's only job is interest management.
//!
//! Writes are *vectored*: the queue keeps each encoded frame as its own
//! buffer and hands a window of them to one `writev`, so batching many
//! small frames (`DoneBatch` acks, heartbeats) costs one syscall and
//! zero concatenation copies. Partial writes at any byte boundary —
//! including mid-frame, straddling two queued buffers — are resumed
//! exactly where they stopped.
//!
//! The queue is *bounded by the caller*: [`FrameConn::queued_bytes`]
//! against a cap decides whether more frames may be queued, which is
//! what keeps a slow-reading peer from ballooning driver memory
//! (backpressure; the driver parks undispatched shard chunks in its own
//! backlog instead).
//!
//! [`MockConn`] is the fault-injection shim: a scripted stream that
//! returns short reads/writes, `EAGAIN`, `EINTR`, errors, and EOF on
//! cue, pinning the state machine against partial-I/O edge cases
//! without real sockets.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};

use crate::conn::Conn;
use crate::frame::{Decoder, Frame, FrameError};

/// Byte stream as the reactor sees it: non-blocking reads and vectored
/// non-blocking writes. Implemented by [`Conn`] (real sockets) and
/// [`MockConn`] (scripted faults).
pub trait NbStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize>;
}

impl NbStream for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        Read::read(self, buf)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        Write::write_vectored(self, bufs)
    }
}

/// How a [`FrameConn::flush`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flush {
    /// Write queue fully drained; write interest can be dropped.
    Drained,
    /// The socket would block with bytes still queued; keep write
    /// interest and call again on the next writable event.
    Blocked,
}

/// How a [`FrameConn::fill`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fill {
    /// The socket would block; everything readable was consumed.
    Blocked,
    /// The peer closed its write side. Buffered frames may still be
    /// pending — drain [`FrameConn::next_frame`] before acting on it.
    Eof,
}

/// Max buffers handed to one vectored write. Linux caps `iovcnt` at
/// 1024 (IOV_MAX); staying far below keeps the slice array on the
/// stack while still amortizing the syscall across many small frames.
const WRITEV_BATCH: usize = 64;

/// One buffered, framed, non-blocking connection.
pub struct FrameConn<S> {
    stream: S,
    dec: Decoder,
    /// Encoded frames not yet (fully) written, oldest first.
    wq: VecDeque<Vec<u8>>,
    /// Bytes of `wq.front()` already written.
    head_off: usize,
    /// Total unwritten bytes across the queue.
    queued: usize,
    /// High-water mark of `queued` over the connection's life.
    peak_queued: usize,
    /// Bytes actually written to the stream.
    sent: u64,
    /// Bytes actually read from the stream.
    received: u64,
    read_buf: Box<[u8]>,
}

impl<S: NbStream> FrameConn<S> {
    pub fn new(stream: S) -> FrameConn<S> {
        FrameConn::from_parts(stream, Decoder::new())
    }

    /// Adopt a stream plus a decoder that already holds bytes — the
    /// blocking handshake may have over-read into its decoder before
    /// the connection goes non-blocking.
    pub fn from_parts(stream: S, dec: Decoder) -> FrameConn<S> {
        FrameConn {
            stream,
            dec,
            wq: VecDeque::new(),
            head_off: 0,
            queued: 0,
            peak_queued: 0,
            sent: 0,
            received: 0,
            read_buf: vec![0u8; 64 * 1024].into_boxed_slice(),
        }
    }

    pub fn stream(&self) -> &S {
        &self.stream
    }

    /// Unwritten bytes currently queued (the caller's backpressure
    /// signal).
    pub fn queued_bytes(&self) -> usize {
        self.queued
    }

    /// High-water mark of [`FrameConn::queued_bytes`].
    pub fn peak_queued_bytes(&self) -> usize {
        self.peak_queued
    }

    /// Bytes written to the stream so far (telemetry).
    pub fn sent_bytes(&self) -> u64 {
        self.sent
    }

    /// Bytes read from the stream so far (telemetry).
    pub fn received_bytes(&self) -> u64 {
        self.received
    }

    /// Queue one frame for writing. The caller enforces its cap via
    /// [`FrameConn::queued_bytes`] *before* deciding to queue; the
    /// queue itself never refuses (a frame mid-protocol must not be
    /// droppable).
    pub fn queue_frame(&mut self, frame: &Frame) {
        self.queue_bytes(frame.encode());
    }

    /// Queue pre-encoded frame bytes (shared `Hello` broadcast, tests).
    pub fn queue_bytes(&mut self, bytes: Vec<u8>) {
        if bytes.is_empty() {
            return;
        }
        self.queued += bytes.len();
        self.peak_queued = self.peak_queued.max(self.queued);
        self.wq.push_back(bytes);
    }

    /// Write queued frames until drained or the socket blocks. Uses
    /// vectored writes over up to [`WRITEV_BATCH`] frame buffers per
    /// syscall; resumes partial writes at the exact byte offset.
    pub fn flush(&mut self) -> io::Result<Flush> {
        while !self.wq.is_empty() {
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(self.wq.len().min(WRITEV_BATCH));
            for (i, buf) in self.wq.iter().take(WRITEV_BATCH).enumerate() {
                let start = if i == 0 { self.head_off } else { 0 };
                slices.push(IoSlice::new(&buf[start..]));
            }
            match self.stream.write_vectored(&slices) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ));
                }
                Ok(n) => self.advance(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(Flush::Blocked),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(Flush::Drained)
    }

    /// Account `written` bytes off the front of the queue.
    fn advance(&mut self, written: usize) {
        self.sent += written as u64;
        self.queued -= written;
        let mut left = written;
        while left > 0 {
            let head_len = self.wq.front().expect("bytes imply a buffer").len() - self.head_off;
            if left >= head_len {
                left -= head_len;
                self.head_off = 0;
                self.wq.pop_front();
            } else {
                self.head_off += left;
                left = 0;
            }
        }
    }

    /// Read until the socket blocks (or EOF), feeding the decoder.
    /// Frames become available via [`FrameConn::next_frame`].
    pub fn fill(&mut self) -> io::Result<Fill> {
        loop {
            match self.stream.read(&mut self.read_buf) {
                Ok(0) => return Ok(Fill::Eof),
                Ok(n) => {
                    self.received += n as u64;
                    self.dec.extend(&self.read_buf[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(Fill::Blocked),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Next decoded frame, if a complete one is buffered.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        self.dec.next_frame()
    }

    /// Bytes buffered on the read side but not yet decodable (a
    /// truncated trailing frame after EOF means the peer died
    /// mid-frame).
    pub fn pending_read_bytes(&self) -> usize {
        self.dec.pending_bytes()
    }
}

// -- Fault-injection shim ----------------------------------------------

/// One scripted response from a [`MockConn`].
#[derive(Debug, Clone)]
pub enum MockOp {
    /// Deliver exactly these bytes (a short read if fewer than the
    /// caller's buffer).
    Read(Vec<u8>),
    /// `EAGAIN` on read.
    ReadWouldBlock,
    /// `EINTR` on read.
    ReadEintr,
    /// EOF (peer closed).
    ReadEof,
    /// Hard read error.
    ReadErr(io::ErrorKind),
    /// Accept at most this many bytes of the vectored write (a short
    /// write when less than what was offered).
    WriteAccept(usize),
    /// `EAGAIN` on write.
    WriteWouldBlock,
    /// `EINTR` on write.
    WriteEintr,
    /// Hard write error.
    WriteErr(io::ErrorKind),
}

/// A scripted byte stream for pinning the reactor/[`FrameConn`] state
/// machines against partial-I/O edge cases without sockets. Reads and
/// writes consume separate scripts; an exhausted read script blocks
/// forever ([`io::ErrorKind::WouldBlock`]), an exhausted write script
/// accepts everything. All accepted bytes land in [`MockConn::written`]
/// for assertions.
#[derive(Default)]
pub struct MockConn {
    read_script: VecDeque<MockOp>,
    write_script: VecDeque<MockOp>,
    /// Every byte this "socket" accepted, in order.
    pub written: Vec<u8>,
}

impl MockConn {
    pub fn new() -> MockConn {
        MockConn::default()
    }

    /// Append a read-side op (only read ops are legal here).
    pub fn script_read(&mut self, op: MockOp) -> &mut Self {
        debug_assert!(matches!(
            op,
            MockOp::Read(_)
                | MockOp::ReadWouldBlock
                | MockOp::ReadEintr
                | MockOp::ReadEof
                | MockOp::ReadErr(_)
        ));
        self.read_script.push_back(op);
        self
    }

    /// Append a write-side op (only write ops are legal here).
    pub fn script_write(&mut self, op: MockOp) -> &mut Self {
        debug_assert!(matches!(
            op,
            MockOp::WriteAccept(_)
                | MockOp::WriteWouldBlock
                | MockOp::WriteEintr
                | MockOp::WriteErr(_)
        ));
        self.write_script.push_back(op);
        self
    }

    /// Script delivering `bytes` in 1-byte reads with an `EAGAIN`
    /// between every pair — the worst legal stream.
    pub fn script_trickle_read(&mut self, bytes: &[u8]) -> &mut Self {
        for b in bytes {
            self.script_read(MockOp::Read(vec![*b]));
            self.script_read(MockOp::ReadWouldBlock);
        }
        self
    }
}

impl NbStream for MockConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.read_script.pop_front() {
            None | Some(MockOp::ReadWouldBlock) => {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "scripted EAGAIN"))
            }
            Some(MockOp::ReadEintr) => {
                Err(io::Error::new(io::ErrorKind::Interrupted, "scripted EINTR"))
            }
            Some(MockOp::ReadEof) => Ok(0),
            Some(MockOp::ReadErr(kind)) => Err(io::Error::new(kind, "scripted read error")),
            Some(MockOp::Read(bytes)) => {
                let n = bytes.len().min(buf.len());
                buf[..n].copy_from_slice(&bytes[..n]);
                if n < bytes.len() {
                    // Caller's buffer was smaller than the scripted
                    // chunk; requeue the tail.
                    self.read_script
                        .push_front(MockOp::Read(bytes[n..].to_vec()));
                }
                Ok(n)
            }
            Some(other) => panic!("write op {other:?} in read script"),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let offered: usize = bufs.iter().map(|b| b.len()).sum();
        match self.write_script.pop_front() {
            None => {
                for buf in bufs {
                    self.written.extend_from_slice(buf);
                }
                Ok(offered)
            }
            Some(MockOp::WriteWouldBlock) => {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "scripted EAGAIN"))
            }
            Some(MockOp::WriteEintr) => {
                Err(io::Error::new(io::ErrorKind::Interrupted, "scripted EINTR"))
            }
            Some(MockOp::WriteErr(kind)) => Err(io::Error::new(kind, "scripted write error")),
            Some(MockOp::WriteAccept(max)) => {
                let mut take = max.min(offered);
                let accepted = take;
                for buf in bufs {
                    if take == 0 {
                        break;
                    }
                    let n = take.min(buf.len());
                    self.written.extend_from_slice(&buf[..n]);
                    take -= n;
                }
                Ok(accepted)
            }
            Some(other) => panic!("read op {other:?} in write script"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Frame, TaskDoneRec, TaskSpec};

    fn done(seq: u64) -> Frame {
        Frame::DoneBatch {
            results: vec![TaskDoneRec {
                seq,
                exitval: 0,
                signal: 0,
                start_epoch_us: 1,
                runtime_us: 2,
                stdout: String::new(),
                stderr: String::new(),
            }],
        }
    }

    fn shard(seqs: &[u64]) -> Frame {
        Frame::Shard {
            tasks: seqs
                .iter()
                .map(|&seq| TaskSpec {
                    seq,
                    args: vec![format!("arg-{seq}")],
                })
                .collect(),
        }
    }

    #[test]
    fn one_byte_reads_with_eagain_storm_reassemble_frames() {
        let frames = vec![shard(&[1, 2, 3]), done(1), Frame::Drain];
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&f.encode());
        }
        let mut mock = MockConn::new();
        mock.script_trickle_read(&wire);
        mock.script_read(MockOp::ReadEof);
        let mut fc = FrameConn::new(mock);
        let mut got = Vec::new();
        loop {
            let status = fc.fill().unwrap();
            while let Some(f) = fc.next_frame().unwrap() {
                got.push(f);
            }
            if status == Fill::Eof {
                break;
            }
        }
        assert_eq!(got, frames);
        assert_eq!(fc.pending_read_bytes(), 0);
        assert_eq!(fc.received_bytes(), wire.len() as u64);
    }

    #[test]
    fn eintr_on_read_is_retried_transparently() {
        let frame = Frame::Heartbeat {
            done: 5,
            inflight: 1,
        };
        let wire = frame.encode();
        let mut mock = MockConn::new();
        mock.script_read(MockOp::ReadEintr)
            .script_read(MockOp::Read(wire[..3].to_vec()))
            .script_read(MockOp::ReadEintr)
            .script_read(MockOp::Read(wire[3..].to_vec()))
            .script_read(MockOp::ReadWouldBlock);
        let mut fc = FrameConn::new(mock);
        assert_eq!(fc.fill().unwrap(), Fill::Blocked);
        assert_eq!(fc.next_frame().unwrap(), Some(frame));
    }

    #[test]
    fn partial_writes_resume_at_exact_offsets_across_frames() {
        // Three frames; the socket accepts awkward byte counts that
        // straddle frame boundaries, with EAGAIN and EINTR sprinkled in.
        let frames = vec![shard(&[10, 11]), done(10), done(11)];
        let mut expected = Vec::new();
        for f in &frames {
            expected.extend_from_slice(&f.encode());
        }
        let mut mock = MockConn::new();
        mock.script_write(MockOp::WriteAccept(1))
            .script_write(MockOp::WriteWouldBlock)
            .script_write(MockOp::WriteAccept(7))
            .script_write(MockOp::WriteEintr)
            .script_write(MockOp::WriteAccept(expected.len() / 2))
            .script_write(MockOp::WriteWouldBlock)
            .script_write(MockOp::WriteAccept(3));
        // Script exhausted after that: everything else is accepted.
        let mut fc = FrameConn::new(mock);
        for f in &frames {
            fc.queue_frame(f);
        }
        assert_eq!(fc.queued_bytes(), expected.len());
        let mut flushes = 0;
        loop {
            match fc.flush().unwrap() {
                Flush::Drained => break,
                Flush::Blocked => {
                    flushes += 1;
                    assert!(flushes < 10, "flush never drained");
                }
            }
        }
        assert_eq!(fc.queued_bytes(), 0);
        assert_eq!(fc.sent_bytes(), expected.len() as u64);
        assert_eq!(fc.stream().written, expected, "byte-exact resume");
    }

    #[test]
    fn eagain_storm_on_write_preserves_order_and_counts() {
        let frames: Vec<Frame> = (0..50).map(done).collect();
        let mut expected = Vec::new();
        for f in &frames {
            expected.extend_from_slice(&f.encode());
        }
        let mut mock = MockConn::new();
        // Accept one byte between every EAGAIN: the worst legal socket.
        for _ in 0..expected.len() {
            mock.script_write(MockOp::WriteWouldBlock);
            mock.script_write(MockOp::WriteAccept(1));
        }
        let mut fc = FrameConn::new(mock);
        for f in &frames {
            fc.queue_frame(f);
        }
        let mut blocked = 0usize;
        loop {
            match fc.flush().unwrap() {
                Flush::Drained => break,
                Flush::Blocked => blocked += 1,
            }
        }
        assert_eq!(blocked, expected.len(), "one EAGAIN per byte");
        assert_eq!(fc.stream().written, expected);
    }

    #[test]
    fn hard_write_error_surfaces() {
        let mut mock = MockConn::new();
        mock.script_write(MockOp::WriteAccept(2))
            .script_write(MockOp::WriteErr(io::ErrorKind::BrokenPipe));
        let mut fc = FrameConn::new(mock);
        fc.queue_frame(&Frame::Drain);
        let err = fc.flush().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        // The two accepted bytes were accounted before the error.
        assert_eq!(fc.sent_bytes(), 2);
    }

    #[test]
    fn hard_read_error_surfaces_after_delivered_bytes() {
        let frame = Frame::Drain;
        let mut mock = MockConn::new();
        mock.script_read(MockOp::Read(frame.encode()))
            .script_read(MockOp::ReadErr(io::ErrorKind::ConnectionReset));
        let mut fc = FrameConn::new(mock);
        let err = fc.fill().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        // Bytes read before the error still decode.
        assert_eq!(fc.next_frame().unwrap(), Some(Frame::Drain));
    }

    #[test]
    fn peak_queue_tracks_backpressure_high_water() {
        let mut mock = MockConn::new();
        mock.script_write(MockOp::WriteWouldBlock);
        let mut fc = FrameConn::new(mock);
        fc.queue_frame(&shard(&[1, 2, 3, 4, 5]));
        let q1 = fc.queued_bytes();
        assert_eq!(fc.flush().unwrap(), Flush::Blocked);
        fc.queue_frame(&done(1));
        let q2 = fc.queued_bytes();
        assert!(q2 > q1);
        assert_eq!(fc.peak_queued_bytes(), q2);
        assert_eq!(fc.flush().unwrap(), Flush::Drained);
        assert_eq!(fc.queued_bytes(), 0);
        assert_eq!(fc.peak_queued_bytes(), q2, "peak survives the drain");
    }

    #[test]
    fn eof_mid_frame_leaves_pending_bytes_visible() {
        let wire = shard(&[1]).encode();
        let mut mock = MockConn::new();
        mock.script_read(MockOp::Read(wire[..wire.len() - 2].to_vec()))
            .script_read(MockOp::ReadEof);
        let mut fc = FrameConn::new(mock);
        assert_eq!(fc.fill().unwrap(), Fill::Eof);
        assert_eq!(fc.next_frame().unwrap(), None);
        assert!(fc.pending_read_bytes() > 0, "died mid-frame is detectable");
    }
}
