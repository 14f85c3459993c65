//! In-memory spans and the operation log of a traced run.
//!
//! The harness records a span around each of its own calls while the
//! sockets are live; [`crate::replay`] later adds one child span per call
//! into a layer's public function. Nothing here touches the program: the
//! spans are taken from outside.

use bate_system::client::DemandRequest;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent == 0` marks an operation's root span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The operation this span belongs to (index into the op log + 1).
    pub op: u32,
    pub id: u32,
    pub parent: u32,
    /// Module the time belongs to (`bench` for the harness itself).
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// What one operation put on the wire, in the order the controller saw
/// it. The replay feeds exactly this to the reference model.
#[derive(Debug, Clone)]
pub enum OpKind {
    /// One flush on the client lane: withdraws first, then submits.
    Wave {
        withdraws: Vec<u64>,
        submits: Vec<DemandRequest>,
    },
    /// `Controller::run_schedule_round()`.
    Round,
    /// A `LinkReport` written by the probe broker.
    Link { group: u32, up: bool },
}

#[derive(Debug, Clone)]
pub struct Op {
    pub kind: OpKind,
    /// Whether the operation started inside the measured window.
    pub measured: bool,
    /// Id of the root span, and of the span during which the controller
    /// did the operation's work (replayed calls are parented on it).
    pub root: u32,
    pub work: u32,
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    pub ops: Vec<Op>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            ops: Vec::new(),
        }
    }
}

impl Recorder {
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Log an operation; returns its op number (1-based).
    pub fn begin_op(&mut self, kind: OpKind, measured: bool) -> u32 {
        self.ops.push(Op {
            kind,
            measured,
            root: 0,
            work: 0,
        });
        self.ops.len() as u32
    }

    /// Record a span and return its id (1-based).
    pub fn span(
        &mut self,
        op: u32,
        parent: u32,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            op,
            id,
            parent,
            layer,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    pub fn span_at(
        &mut self,
        op: u32,
        parent: u32,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let (s, e) = (self.ns(start), self.ns(end));
        self.span(op, parent, layer, name, s, e)
    }

    /// Set the root and work spans of an operation once they are known.
    pub fn close_op(&mut self, op: u32, root: u32, work: u32) {
        let o = &mut self.ops[op as usize - 1];
        o.root = root;
        o.work = work;
    }
}

/// At most this many spans are written to the trace file; the wire replay
/// stops recording its per-frame spans there.
pub const TRACE_FILE_SPANS: usize = 200_000;

pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter().take(TRACE_FILE_SPANS) {
        writeln!(
            out,
            "{{\"op\": {}, \"span\": {}, \"parent\": {}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.op, s.id, s.parent, s.layer, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
