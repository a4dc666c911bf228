//! Blocking session client for the pilot service.
//!
//! `htpar submit`, the load generator, and the test suites all speak to
//! `htpar serve` through this one client: connect + `Hello` handshake,
//! `Submit` batches in, buffered `DoneBatch` completions out,
//! `SessionDone` in both directions to finish. The protocol interleaves
//! admission verdicts with completion traffic (a `DoneBatch` may arrive
//! while the client waits for its `SessionAck`), so the client buffers
//! out-of-band events instead of assuming strict request/response.

use std::collections::VecDeque;
use std::io::Write;

use crate::agent::read_next;
use crate::conn::Conn;
use crate::frame::{encode_submit, Decoder, Frame, Payload, TaskDoneRec, PROTOCOL_VERSION};
use crate::{NetError, Result};

/// How a session presents itself to the pilot.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Pilot address spec (`host:port` or `unix:/path`).
    pub connect: String,
    /// Tenant this session submits under.
    pub tenant: String,
    /// Fair-share weight (relative slot share under `--scheduler fair`).
    pub weight: u32,
    /// Priority level (higher wins under `--scheduler priority`).
    pub priority: u32,
    /// What the submitted tasks run.
    pub payload: Payload,
    /// Command template the pilot expands per task.
    pub command: String,
}

impl SessionConfig {
    pub fn new(connect: impl Into<String>, tenant: impl Into<String>) -> SessionConfig {
        SessionConfig {
            connect: connect.into(),
            tenant: tenant.into(),
            weight: 1,
            priority: 0,
            payload: Payload::Shell,
            command: "{}".to_string(),
        }
    }
}

/// Admission verdict for one [`SessionClient::submit`].
#[derive(Debug, Clone)]
pub struct SubmitVerdict {
    pub accepted: bool,
    /// Tenant queue depth after the verdict.
    pub queued: u64,
    /// Refusal reason; empty when accepted.
    pub reason: String,
}

/// One event from the pilot.
#[derive(Debug, Clone)]
pub enum ClientEvent {
    /// A batch of completions (seqs are session-local).
    Done(Vec<TaskDoneRec>),
    /// The pilot's final frame: every accepted task completed.
    SessionDone { completed: u64, reason: String },
}

/// A connected, handshaken session.
pub struct SessionClient {
    conn: Conn,
    dec: Decoder,
    config: SessionConfig,
    /// Total fleet slots the pilot reported in its `HelloAck`.
    pub fleet_slots: u32,
    next_submit_id: u64,
    next_seq: u64,
    submitted: u64,
    completed: u64,
    buffered: VecDeque<ClientEvent>,
}

impl SessionClient {
    /// Dial the pilot and run the `Hello`/`HelloAck` handshake. A
    /// version-refusal (`AgentExit`) surfaces as a typed protocol
    /// error carrying the pilot's reason.
    pub fn connect(config: SessionConfig) -> Result<SessionClient> {
        let mut conn = Conn::connect(&config.connect)?;
        conn.set_nodelay()?;
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
            jobs: 0,
            heartbeat_ms: 0,
            payload: config.payload,
            command: config.command.clone(),
        };
        conn.write_all(&hello.encode())?;
        conn.flush()?;
        let mut dec = Decoder::new();
        let fleet_slots = match read_next(&mut conn, &mut dec)? {
            Some(Frame::HelloAck { version, slots, .. }) => {
                if version != PROTOCOL_VERSION {
                    return Err(NetError::Protocol(format!(
                        "pilot speaks protocol {version}, client speaks {PROTOCOL_VERSION}"
                    )));
                }
                slots
            }
            Some(Frame::AgentExit { reason, .. }) => {
                return Err(NetError::Protocol(format!("pilot refused: {reason}")))
            }
            Some(other) => {
                return Err(NetError::Protocol(format!(
                    "expected HelloAck, got {other:?}"
                )))
            }
            None => return Err(NetError::Protocol("pilot closed during handshake".into())),
        };
        Ok(SessionClient {
            conn,
            dec,
            config,
            fleet_slots,
            next_submit_id: 1,
            next_seq: 1,
            submitted: 0,
            completed: 0,
            buffered: VecDeque::new(),
        })
    }

    /// Tasks accepted so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Completions received so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Submit one batch of tasks (one `Vec<String>` of template args
    /// per task) and wait for the admission verdict, buffering any
    /// completion traffic that arrives in between. The batch's seqs
    /// continue the session's accepted ones, as the pilot requires. On
    /// refusal they are reused by the next submit, so a caller can
    /// back off and resubmit the same work.
    pub fn submit(&mut self, tasks: &[Vec<String>]) -> Result<SubmitVerdict> {
        let submit_id = self.next_submit_id;
        self.next_submit_id += 1;
        let frame = encode_submit(
            &self.config.tenant,
            self.config.weight,
            self.config.priority,
            submit_id,
            self.next_seq,
            tasks,
        );
        self.conn.write_all(&frame)?;
        self.conn.flush()?;
        loop {
            match read_next(&mut self.conn, &mut self.dec)? {
                Some(Frame::SessionAck {
                    submit_id: ack_id,
                    accepted,
                    queued,
                    reason,
                }) => {
                    if ack_id != submit_id {
                        return Err(NetError::Protocol(format!(
                            "SessionAck for submit {ack_id}, expected {submit_id}"
                        )));
                    }
                    if accepted {
                        self.next_seq += tasks.len() as u64;
                        self.submitted += tasks.len() as u64;
                    }
                    return Ok(SubmitVerdict {
                        accepted,
                        queued,
                        reason,
                    });
                }
                Some(other) => self.buffer_event(other)?,
                None => {
                    return Err(NetError::Protocol(
                        "pilot closed while awaiting SessionAck".into(),
                    ))
                }
            }
        }
    }

    /// Block for the next pilot event (buffered events first).
    pub fn recv(&mut self) -> Result<ClientEvent> {
        if let Some(ev) = self.buffered.pop_front() {
            return Ok(ev);
        }
        loop {
            match read_next(&mut self.conn, &mut self.dec)? {
                Some(frame) => {
                    self.buffer_event(frame)?;
                    if let Some(ev) = self.buffered.pop_front() {
                        return Ok(ev);
                    }
                }
                None => return Err(NetError::Protocol("pilot closed mid-session".into())),
            }
        }
    }

    /// Tell the pilot no more submits will come, without waiting: the
    /// caller keeps the client and drains completions via [`recv`]
    /// until the pilot's final `SessionDone` arrives.
    ///
    /// [`recv`]: SessionClient::recv
    pub fn finish_async(&mut self) -> Result<()> {
        let done = Frame::SessionDone {
            completed: self.completed,
            reason: String::new(),
        };
        self.conn.write_all(&done.encode())?;
        self.conn.flush()?;
        Ok(())
    }

    /// Tell the pilot no more submits will come, then wait for every
    /// accepted task to complete. Returns the completion total from the
    /// pilot's final `SessionDone`.
    pub fn finish(mut self) -> Result<u64> {
        self.finish_async()?;
        loop {
            match self.recv()? {
                ClientEvent::Done(_) => {}
                ClientEvent::SessionDone { completed, .. } => return Ok(completed),
            }
        }
    }

    /// Drop the session without finishing: the pilot purges the
    /// session's queued work and releases its in-flight work as it
    /// completes.
    pub fn abort(self) {
        self.conn.shutdown();
    }

    /// Detach (v4+): ask the pilot to keep this session's accepted
    /// work alive after the socket drops, keyed by `detach_key`. Waits
    /// for the pilot's durable ack (the detach is fsynced first),
    /// buffering completion traffic, then closes the connection.
    /// Returns the number of accepted-but-undelivered tasks the pilot
    /// reported; a refusal surfaces as a typed protocol error.
    pub fn detach(mut self, detach_key: u64) -> Result<u64> {
        let frame = Frame::Detach { detach_key };
        self.conn.write_all(&frame.encode())?;
        self.conn.flush()?;
        loop {
            match read_next(&mut self.conn, &mut self.dec)? {
                Some(Frame::SessionAck {
                    submit_id,
                    accepted,
                    queued,
                    reason,
                }) if submit_id == detach_key => {
                    if !accepted {
                        return Err(NetError::Protocol(format!("detach refused: {reason}")));
                    }
                    self.conn.shutdown();
                    return Ok(queued);
                }
                Some(other) => self.buffer_event(other)?,
                None => {
                    return Err(NetError::Protocol(
                        "pilot closed while awaiting detach ack".into(),
                    ))
                }
            }
        }
    }

    /// Reattach (v4+) to a session previously detached under
    /// `detach_key`: dial, handshake, and adopt the detached session.
    /// The pilot immediately replays every already-recorded completion
    /// (synthesized from the per-tenant joblog), then streams the rest
    /// live; the returned client is collect-only — drain it with
    /// [`SessionClient::collect`]. `submitted()`/`completed()` reflect
    /// the detached session's accepted total and zero collected so far.
    pub fn reattach(config: SessionConfig, detach_key: u64) -> Result<SessionClient> {
        let mut client = SessionClient::connect(config)?;
        let frame = Frame::Reattach {
            tenant: client.config.tenant.clone(),
            detach_key,
        };
        client.conn.write_all(&frame.encode())?;
        client.conn.flush()?;
        loop {
            match read_next(&mut client.conn, &mut client.dec)? {
                Some(Frame::ReattachAck {
                    found,
                    submitted,
                    reason,
                    ..
                }) => {
                    if !found {
                        return Err(NetError::Protocol(format!("reattach refused: {reason}")));
                    }
                    client.submitted = submitted;
                    return Ok(client);
                }
                Some(other) => client.buffer_event(other)?,
                None => {
                    return Err(NetError::Protocol(
                        "pilot closed while awaiting ReattachAck".into(),
                    ))
                }
            }
        }
    }

    /// Drain a reattached session to completion: receive (replayed and
    /// live) `DoneBatch`es until the pilot's `SessionDone`, without
    /// writing anything — the pilot closes the socket after its final
    /// frame, so a write here would race an EPIPE. Each batch is
    /// handed to `on_done`. Returns the pilot's completion total.
    pub fn collect(mut self, mut on_done: impl FnMut(&[TaskDoneRec])) -> Result<u64> {
        loop {
            match self.recv()? {
                ClientEvent::Done(recs) => on_done(&recs),
                ClientEvent::SessionDone { completed, .. } => return Ok(completed),
            }
        }
    }

    fn buffer_event(&mut self, frame: Frame) -> Result<()> {
        match frame {
            Frame::DoneBatch { results } => {
                self.completed += results.len() as u64;
                self.buffered.push_back(ClientEvent::Done(results));
            }
            Frame::SessionDone { completed, reason } => {
                self.buffered
                    .push_back(ClientEvent::SessionDone { completed, reason });
            }
            other => {
                return Err(NetError::Protocol(format!(
                    "unexpected pilot frame {other:?}"
                )))
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    use crate::conn::Listener;
    use crate::frame::TaskSpec;

    /// The client encodes each `Submit` straight from the caller's
    /// arguments: the bytes on the wire are `Frame::Submit { .. }`'s
    /// encoding, seqs continuing across submits.
    #[test]
    fn submit_bytes_are_the_submit_frame() {
        let path = std::env::temp_dir().join(format!("htpar-client-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let spec = format!("unix:{}", path.display());
        let listener = Listener::bind(&spec).unwrap();
        let batches: Vec<Vec<Vec<String>>> = vec![
            vec![vec!["x y".into()], vec![], vec!["λ".into(), String::new()]],
            vec![vec!["next".into()]],
        ];
        let n = batches.len();
        let pilot = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            conn.set_read_timeout(Some(std::time::Duration::from_secs(10)))
                .unwrap();
            let mut dec = Decoder::new();
            assert!(matches!(
                read_next(&mut conn, &mut dec).unwrap(),
                Some(Frame::Hello { .. })
            ));
            let ack = Frame::HelloAck {
                version: PROTOCOL_VERSION,
                slots: 1,
                agent: "pilot".into(),
            };
            conn.write_all(&ack.encode()).unwrap();
            let mut frames = Vec::new();
            for submit_id in 1..=n as u64 {
                let mut len = [0u8; 4];
                conn.read_exact(&mut len).unwrap();
                let mut frame = len.to_vec();
                frame.resize(4 + u32::from_le_bytes(len) as usize, 0);
                conn.read_exact(&mut frame[4..]).unwrap();
                frames.push(frame);
                let verdict = Frame::SessionAck {
                    submit_id,
                    accepted: true,
                    queued: 0,
                    reason: String::new(),
                };
                conn.write_all(&verdict.encode()).unwrap();
            }
            frames
        });
        let mut config = SessionConfig::new(spec, "team/a");
        config.weight = 3;
        config.priority = 2;
        let mut client = SessionClient::connect(config).unwrap();
        for batch in &batches {
            assert!(client.submit(batch).unwrap().accepted);
        }
        let got = pilot.join().unwrap();
        let mut seq = 0;
        for (i, batch) in batches.iter().enumerate() {
            let want = Frame::Submit {
                tenant: "team/a".into(),
                weight: 3,
                priority: 2,
                submit_id: i as u64 + 1,
                tasks: batch
                    .iter()
                    .map(|args| {
                        seq += 1;
                        TaskSpec {
                            seq,
                            args: args.clone(),
                        }
                    })
                    .collect(),
            };
            assert_eq!(got[i], want.encode(), "submit {}", i + 1);
        }
        let _ = std::fs::remove_file(&path);
    }
}
