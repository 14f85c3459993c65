//! Connection state machines for the event-driven controller plane.
//!
//! One [`Conn`] per accepted socket, owned exclusively by the controller's
//! poll loop — no per-connection threads, no locks. Reads go through a
//! [`FrameAssembler`] so partial frames cost buffer space instead of a
//! blocked thread; writes go through an owned write buffer flushed
//! opportunistically, with `EPOLLOUT` interest only while bytes are
//! actually pending (backpressure without busy-polling).
//!
//! A connection can be `eof` (peer finished sending; frames already
//! received are still processed, queued replies still flushed) or `dead`
//! (protocol damage or transport error: the connection is dropped and the
//! peer redials).

use crate::proto::Message;
use crate::wire::{decode_payload, FrameAssembler, FrameCtx};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

pub(crate) struct Conn {
    pub stream: TcpStream,
    assembler: FrameAssembler,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Whether `EPOLLOUT` interest is currently registered for this fd
    /// (tracked so the loop only issues `epoll_ctl` on transitions).
    pub writable_interest: bool,
    pub eof: bool,
    pub dead: bool,
    /// Set when this connection registered as a broker, so its death
    /// retires the broker entry.
    pub broker_dc: Option<String>,
    /// Raw bytes read — the per-connection progress counter the
    /// slow-loris tests assert on.
    pub bytes_in: u64,
    pub frames_in: u64,
    /// Deadline for completing the frame currently being assembled. Armed
    /// when the read buffer goes from empty to mid-frame, cleared when it
    /// drains; deliberately NOT refreshed on partial progress, so a
    /// dribbler trickling one byte per wakeup is reaped just like a
    /// mid-frame staller. Idle connections *between* frames are never
    /// reaped (brokers legitimately sit quiet).
    frame_deadline: Option<Instant>,
}

impl Conn {
    pub fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            assembler: FrameAssembler::new(),
            wbuf: Vec::new(),
            wpos: 0,
            writable_interest: false,
            eof: false,
            dead: false,
            broker_dc: None,
            bytes_in: 0,
            frames_in: 0,
            frame_deadline: None,
        }
    }

    /// Drain everything the socket has, assemble frames, decode messages
    /// into `out` in arrival order. Transport/protocol failures mark the
    /// connection dead; a clean EOF mid-frame is a severed frame and also
    /// dead (mirroring the blocking reader's `Malformed("eof after …")`).
    pub fn read_ready(
        &mut self,
        frame_timeout: Duration,
        out: &mut Vec<(Option<FrameCtx>, Message)>,
    ) {
        let mut tmp = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut tmp) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    self.bytes_in += n as u64;
                    self.assembler.push(&tmp[..n]);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        loop {
            match self.assembler.next_frame() {
                Ok(Some((ctx, payload))) => {
                    self.frames_in += 1;
                    match decode_payload::<Message>(payload) {
                        Ok(msg) => out.push((ctx, msg)),
                        Err(_) => {
                            self.dead = true;
                            return;
                        }
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.assembler.buffered() > 0 {
            if self.eof {
                self.dead = true; // severed mid-frame
            } else if self.frame_deadline.is_none() {
                self.frame_deadline = Some(Instant::now() + frame_timeout);
            }
        } else {
            self.frame_deadline = None;
        }
    }

    /// Queue one pre-encoded frame for delivery (accounted as sent; the
    /// loop flushes at the end of the wakeup).
    pub fn queue_frame(&mut self, frame: &[u8]) {
        crate::wire::note_frame_sent(frame.len());
        self.wbuf.extend_from_slice(frame);
    }

    pub fn wants_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Write as much of the pending buffer as the socket accepts.
    pub fn flush(&mut self) {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.wpos >= self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > 64 * 1024 {
            // Reclaim the flushed prefix so a long-lived slow reader
            // doesn't hold the high-water mark forever.
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
    }

    /// Whether the peer is mid-frame (partial bytes buffered).
    pub fn mid_frame(&self) -> bool {
        self.assembler.buffered() > 0
    }

    /// The reap deadline for the frame in flight, if one is armed.
    pub fn frame_deadline(&self) -> Option<Instant> {
        self.frame_deadline
    }

    pub fn overdue(&self, now: Instant) -> bool {
        self.frame_deadline.is_some_and(|d| now >= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_frame;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (client, server)
    }

    #[test]
    fn partial_frame_arms_deadline_and_completion_clears_it() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server);
        let frame = encode_frame(&Message::Ping { token: 1 }).unwrap();

        client.write_all(&frame[..5]).unwrap();
        // Wait until the bytes are observable on the nonblocking side.
        let mut out = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(2);
        while conn.bytes_in < 5 && Instant::now() < deadline {
            conn.read_ready(Duration::from_secs(1), &mut out);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(out.is_empty());
        assert!(conn.mid_frame());
        assert!(conn.frame_deadline().is_some());
        assert!(!conn.overdue(Instant::now()));
        assert!(conn.overdue(Instant::now() + Duration::from_secs(2)));

        client.write_all(&frame[5..]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        while out.is_empty() && Instant::now() < deadline {
            conn.read_ready(Duration::from_secs(1), &mut out);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(matches!(out[0].1, Message::Ping { token: 1 }));
        assert!(!conn.mid_frame());
        assert!(conn.frame_deadline().is_none());
        assert!(!conn.dead && !conn.eof);
    }

    #[test]
    fn eof_mid_frame_is_dead_eof_at_boundary_is_clean() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server);
        let frame = encode_frame(&Message::Ping { token: 2 }).unwrap();
        client.write_all(&frame[..3]).unwrap();
        drop(client);
        let mut out = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(2);
        while !conn.dead && Instant::now() < deadline {
            conn.read_ready(Duration::from_secs(1), &mut out);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(conn.dead, "severed mid-frame must be terminal");

        let (mut client, server) = pair();
        let mut conn = Conn::new(server);
        client.write_all(&frame).unwrap();
        drop(client);
        let mut out = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(2);
        while !conn.eof && Instant::now() < deadline {
            conn.read_ready(Duration::from_secs(1), &mut out);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(out.len(), 1, "frame before the close is still delivered");
        assert!(!conn.dead, "clean close at a boundary is not damage");
    }

    #[test]
    fn queued_frames_flush_and_clear_write_interest() {
        let (client, server) = pair();
        let mut conn = Conn::new(server);
        let frame = encode_frame(&Message::Pong { token: 3 }).unwrap();
        conn.queue_frame(&frame);
        assert!(conn.wants_write());
        conn.flush();
        assert!(!conn.wants_write());
        let mut reader = client;
        let msg: Message = crate::wire::read_frame(&mut reader).unwrap();
        assert!(matches!(msg, Message::Pong { token: 3 }));
    }
}
