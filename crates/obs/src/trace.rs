//! Span-based structured tracing: `event!`/`span!` macros over a
//! pluggable [`Subscriber`].
//!
//! ## Model
//!
//! An [`Event`] is a named point-in-time record with a global sequence
//! number, a timestamp from the *installed clock* (see [`install`]), a
//! level, the emitting module, and typed key/value fields. A span
//! ([`SpanGuard`], built by the `span!` macro) is a scoped region that
//! emits one close-event carrying its duration — cheap enough for
//! per-round instrumentation without enter/exit noise.
//!
//! ## Dispatch
//!
//! One process-global subscriber slot guarded by an `AtomicBool` fast
//! path: with nothing installed, `event!` costs one relaxed load and
//! never materializes its fields. [`install`] pairs the subscriber with
//! a [`Clock`] so timestamps come from the same time source as the code
//! under observation.
//!
//! ## Determinism contract
//!
//! Traces are bitwise-deterministic when three rules hold:
//! 1. events are emitted only from *sequential* code: every library crate
//!    (the serving path, the solver, branch-and-bound included) runs on
//!    its caller's thread, and the one fan-out left, the figure sweeps'
//!    workers, carries no context and records to the metrics registry
//!    instead, whose atomic adds commute;
//! 2. event fields carry only deterministic values (counts, verdicts,
//!    virtual-time stamps — never wall-clock durations or addresses);
//! 3. the installed clock is a [`SimClock`](crate::clock::SimClock)
//!    driven by the event source.
//!
//! `scripts/obscheck.sh` enforces the contract end-to-end by diffing two
//! seeded sim runs captured through [`JsonlSubscriber`].

use crate::clock::Clock;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// Event severity, least to most severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Debug,
    Info,
    Warn,
    Error,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// A typed field value. `From` impls cover the workspace's common types
/// so `event!(…, key = expr)` needs no explicit wrapping.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::I64(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl Value {
    /// JSON rendering (non-finite floats become `null`).
    pub(crate) fn to_json(&self) -> String {
        match self {
            Value::U64(v) => format!("{v}"),
            Value::I64(v) => format!("{v}"),
            Value::F64(v) if v.is_finite() => format!("{v}"),
            Value::F64(_) => "null".to_string(),
            Value::Bool(v) => format!("{v}"),
            Value::Str(s) => json_string(s),
        }
    }

    /// Human rendering (for the stderr subscriber).
    fn to_display(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            other => other.to_json(),
        }
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One structured record delivered to the subscriber.
#[derive(Debug, Clone)]
pub struct Event {
    /// Global emission order (monotone per process).
    pub seq: u64,
    /// Timestamp from the installed clock, in nanoseconds since its epoch.
    pub t_ns: u64,
    pub level: Level,
    /// Emitting module (`module_path!()` of the macro call site).
    pub target: &'static str,
    pub name: &'static str,
    /// Causal identity stamped from the thread's current
    /// [`SpanCtx`](crate::context::SpanCtx) ([`SpanCtx::NONE`] when the
    /// event fired outside any traced scope).
    ///
    /// [`SpanCtx::NONE`]: crate::context::SpanCtx::NONE
    pub ctx: crate::context::SpanCtx,
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// One-line JSON with a fixed field order — the JSONL subscriber's
    /// wire format (and the thing obscheck diffs). Traced events carry
    /// `trace`/`span`/`parent` hex ids between `name` and `fields`;
    /// untraced events keep the exact pre-trace-context shape.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"seq\":{},\"t_ns\":{},\"level\":\"{}\",\"target\":\"{}\",\"name\":{}",
            self.seq,
            self.t_ns,
            self.level.as_str(),
            self.target,
            json_string(self.name),
        );
        if self.ctx.is_some() {
            out.push_str(&format!(
                ",\"trace\":\"{}\",\"span\":\"{}\",\"parent\":\"{}\"",
                crate::context::hex(self.ctx.trace_id),
                crate::context::hex(self.ctx.span_id),
                crate::context::hex(self.ctx.parent_span_id),
            ));
        }
        out.push_str(",\"fields\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json_string(k), v.to_json()));
        }
        out.push_str("}}");
        out
    }
}

/// Receives every event emitted while installed.
pub trait Subscriber: Send + Sync {
    fn event(&self, event: &Event);
    fn flush(&self) {}
}

struct Dispatch {
    subscriber: Arc<dyn Subscriber>,
    clock: Arc<dyn Clock>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU64 = AtomicU64::new(0);

fn dispatch_slot() -> &'static RwLock<Option<Dispatch>> {
    static SLOT: std::sync::OnceLock<RwLock<Option<Dispatch>>> = std::sync::OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// Install the process-global subscriber and the clock that stamps its
/// events. Replaces any previous subscriber; resets the sequence counter
/// so a fresh install starts a fresh deterministic stream.
pub fn install(subscriber: Arc<dyn Subscriber>, clock: Arc<dyn Clock>) {
    let mut slot = dispatch_slot().write().unwrap();
    *slot = Some(Dispatch { subscriber, clock });
    SEQ.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Remove the installed subscriber (flushing it first).
pub fn uninstall() {
    let mut slot = dispatch_slot().write().unwrap();
    if let Some(d) = slot.take() {
        d.subscriber.flush();
    }
    ENABLED.store(false, Ordering::SeqCst);
}

/// Fast-path check the macros use to skip field materialization.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Emit an event through the installed subscriber (no-op when none).
/// Callers normally go through the `event!` / level macros. The event is
/// stamped with the thread's current span context and teed into the
/// flight-recorder ring when one is enabled.
pub fn emit(level: Level, target: &'static str, name: &'static str, fields: Vec<(&'static str, Value)>) {
    emit_with_ctx(level, target, name, crate::context::current(), fields)
}

/// [`emit`] with an explicit context (used by span close-events, which
/// must carry the span's own identity after it left the stack).
pub fn emit_with_ctx(
    level: Level,
    target: &'static str,
    name: &'static str,
    ctx: crate::context::SpanCtx,
    fields: Vec<(&'static str, Value)>,
) {
    let slot = dispatch_slot().read().unwrap();
    if let Some(d) = slot.as_ref() {
        let event = Event {
            seq: SEQ.fetch_add(1, Ordering::SeqCst),
            t_ns: d.clock.now().as_nanos().min(u64::MAX as u128) as u64,
            level,
            target,
            name,
            ctx,
            fields,
        };
        crate::flight::record(&event);
        d.subscriber.event(&event);
    }
}

/// `now()` of the installed clock (None with nothing installed).
pub fn clock_now() -> Option<Duration> {
    let slot = dispatch_slot().read().unwrap();
    slot.as_ref().map(|d| d.clock.now())
}

/// A scoped region that emits one close-event with its duration (in the
/// installed clock's time) when dropped. Built by the `span!` macro;
/// inert when no subscriber is installed at entry.
///
/// Inside an active trace (see [`crate::context`]) the span derives a
/// deterministic child context, holds it on the thread's stack for its
/// scope — so nested spans and events parent on it — and stamps the
/// close-event with its own identity.
pub struct SpanGuard {
    name: &'static str,
    target: &'static str,
    start: Option<Duration>,
    ctx: crate::context::SpanCtx,
    entered: Option<crate::context::CtxGuard>,
    fields: Vec<(&'static str, Value)>,
}

impl SpanGuard {
    pub fn begin(
        name: &'static str,
        target: &'static str,
        fields: Vec<(&'static str, Value)>,
    ) -> SpanGuard {
        let active = enabled();
        let ctx = if active {
            crate::context::next_child(name).unwrap_or(crate::context::SpanCtx::NONE)
        } else {
            crate::context::SpanCtx::NONE
        };
        SpanGuard {
            name,
            target,
            start: if active { clock_now() } else { None },
            ctx,
            entered: if ctx.is_some() {
                Some(crate::context::enter(ctx))
            } else {
                None
            },
            fields,
        }
    }

    /// The span's causal identity (NONE outside a trace).
    pub fn ctx(&self) -> crate::context::SpanCtx {
        self.ctx
    }

    /// Attach a field after entry (recorded on the close-event).
    pub fn record(&mut self, key: &'static str, value: impl Into<Value>) {
        if self.start.is_some() {
            self.fields.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        // Leave the context stack before emitting so the close-event's
        // explicit ctx is the span's own, not a self-parented child.
        self.entered.take();
        if let (Some(start), true) = (self.start, enabled()) {
            let dur_ns = clock_now()
                .unwrap_or(start)
                .saturating_sub(start)
                .as_nanos()
                .min(u64::MAX as u128) as u64;
            let mut fields = std::mem::take(&mut self.fields);
            fields.push(("dur_ns", Value::U64(dur_ns)));
            emit_with_ctx(Level::Debug, self.target, self.name, self.ctx, fields);
        }
    }
}

/// Emit a structured event: `event!(Level::Info, "name", key = value, …)`.
#[macro_export]
macro_rules! event {
    ($level:expr, $name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::trace::enabled() {
            $crate::trace::emit(
                $level,
                module_path!(),
                $name,
                vec![$((stringify!($key), $crate::trace::Value::from($val))),*],
            );
        }
    };
}

/// `event!` at `Level::Debug`.
#[macro_export]
macro_rules! debug {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        $crate::event!($crate::trace::Level::Debug, $name $(, $key = $val)*)
    };
}

/// `event!` at `Level::Info`.
#[macro_export]
macro_rules! info {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        $crate::event!($crate::trace::Level::Info, $name $(, $key = $val)*)
    };
}

/// `event!` at `Level::Warn`.
#[macro_export]
macro_rules! warn {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        $crate::event!($crate::trace::Level::Warn, $name $(, $key = $val)*)
    };
}

/// `event!` at `Level::Error`.
#[macro_export]
macro_rules! error {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        $crate::event!($crate::trace::Level::Error, $name $(, $key = $val)*)
    };
}

/// Open a span: `let _s = span!("name", key = value, …);` — the
/// close-event (with `dur_ns`) fires when the guard drops.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        $crate::trace::SpanGuard::begin(
            $name,
            module_path!(),
            if $crate::trace::enabled() {
                vec![$((stringify!($key), $crate::trace::Value::from($val))),*]
            } else {
                Vec::new()
            },
        )
    };
}

/// Bounded in-memory subscriber for tests: keeps the most recent
/// `capacity` events.
pub struct RingBufferSubscriber {
    capacity: usize,
    events: Mutex<VecDeque<Event>>,
}

impl RingBufferSubscriber {
    pub fn new(capacity: usize) -> Arc<RingBufferSubscriber> {
        Arc::new(RingBufferSubscriber {
            capacity: capacity.max(1),
            events: Mutex::new(VecDeque::new()),
        })
    }

    /// Snapshot of the buffered events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap().iter().cloned().collect()
    }

    /// Drain the buffer.
    pub fn take(&self) -> Vec<Event> {
        self.events.lock().unwrap().drain(..).collect()
    }
}

impl Subscriber for RingBufferSubscriber {
    fn event(&self, event: &Event) {
        let mut q = self.events.lock().unwrap();
        if q.len() == self.capacity {
            q.pop_front();
        }
        q.push_back(event.clone());
    }
}

/// Writes one JSON object per event — the same header-line + record-lines
/// JSONL shape as faultline's replayable traces, so the two streams can
/// be diffed and archived with the same tooling.
pub struct JsonlSubscriber {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonlSubscriber {
    /// Wrap a writer, emitting a `{"trace":"<label>"}` header line first
    /// (faultline's trace format leads with `{"plan":"…"}` the same way).
    pub fn new(mut out: Box<dyn Write + Send>, label: &str) -> std::io::Result<Arc<JsonlSubscriber>> {
        writeln!(out, "{{\"trace\":{}}}", json_string(label))?;
        Ok(Arc::new(JsonlSubscriber {
            out: Mutex::new(out),
        }))
    }

    /// Create (truncate) `path` and write the trace there.
    pub fn to_file(path: &std::path::Path, label: &str) -> std::io::Result<Arc<JsonlSubscriber>> {
        let f = std::fs::File::create(path)?;
        JsonlSubscriber::new(Box::new(std::io::BufWriter::new(f)), label)
    }
}

impl Subscriber for JsonlSubscriber {
    fn event(&self, event: &Event) {
        let mut out = self.out.lock().unwrap();
        let _ = writeln!(out, "{}", event.to_json());
    }

    fn flush(&self) {
        let _ = self.out.lock().unwrap().flush();
    }
}

/// Human-oriented stderr subscriber for CLI tools: prints
/// `level: <msg>` (the `msg` field if present, else the event name)
/// followed by the remaining fields as `(k=v, …)`. Only events at or
/// above `min_level` are printed.
pub struct StderrSubscriber {
    min_level: Level,
}

impl StderrSubscriber {
    pub fn new(min_level: Level) -> Arc<StderrSubscriber> {
        Arc::new(StderrSubscriber { min_level })
    }
}

impl Subscriber for StderrSubscriber {
    fn event(&self, event: &Event) {
        if event.level < self.min_level {
            return;
        }
        let msg = event
            .fields
            .iter()
            .find(|(k, _)| *k == "msg")
            .map(|(_, v)| v.to_display())
            .unwrap_or_else(|| event.name.to_string());
        let rest: Vec<String> = event
            .fields
            .iter()
            .filter(|(k, _)| *k != "msg")
            .map(|(k, v)| format!("{k}={}", v.to_display()))
            .collect();
        if rest.is_empty() {
            eprintln!("{}: {}", event.level.as_str(), msg);
        } else {
            eprintln!("{}: {} ({})", event.level.as_str(), msg, rest.join(", "));
        }
    }
}

/// Drops everything (useful as an explicit "telemetry enabled but
/// discarded" baseline in benchmarks).
pub struct NoopSubscriber;

impl NoopSubscriber {
    pub fn new() -> Arc<NoopSubscriber> {
        Arc::new(NoopSubscriber)
    }
}

impl Subscriber for NoopSubscriber {
    fn event(&self, _event: &Event) {}
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::clock::SimClock;

    // The dispatch slot is process-global, and so is the flight ring every
    // dispatched event is teed into: tests that install a subscriber or
    // enable the recorder must not interleave.
    pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn events_flow_to_ring_buffer_with_sim_timestamps() {
        let _guard = serial();
        let clock = SimClock::shared();
        let ring = RingBufferSubscriber::new(8);
        install(ring.clone(), clock.clone());

        crate::info!("test.start", n = 3usize);
        clock.advance(Duration::from_millis(5));
        crate::warn!("test.retry", attempt = 2u64, wait_ms = 1.5f64);
        uninstall();
        crate::info!("test.after_uninstall"); // must be dropped

        let events = ring.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "test.start");
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[0].t_ns, 0);
        assert_eq!(events[0].fields, vec![("n", Value::U64(3))]);
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[1].t_ns, 5_000_000);
        assert_eq!(events[1].level, Level::Warn);
    }

    #[test]
    fn span_close_carries_virtual_duration() {
        let _guard = serial();
        let clock = SimClock::shared();
        let ring = RingBufferSubscriber::new(8);
        install(ring.clone(), clock.clone());
        {
            let mut s = crate::span!("test.span", items = 4usize);
            clock.advance(Duration::from_micros(250));
            s.record("outcome", "ok");
        }
        uninstall();
        let events = ring.take();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.name, "test.span");
        assert!(e.fields.contains(&("items", Value::U64(4))));
        assert!(e.fields.contains(&("outcome", Value::Str("ok".into()))));
        assert!(e.fields.contains(&("dur_ns", Value::U64(250_000))));
    }

    #[test]
    fn ring_buffer_is_bounded() {
        let ring = RingBufferSubscriber::new(2);
        for i in 0..5u64 {
            ring.event(&Event {
                seq: i,
                t_ns: 0,
                level: Level::Info,
                target: "t",
                name: "e",
                ctx: crate::context::SpanCtx::NONE,
                fields: vec![],
            });
        }
        let seqs: Vec<u64> = ring.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn jsonl_format_is_fixed_order_and_escaped() {
        let mut e = Event {
            seq: 7,
            t_ns: 1500,
            level: Level::Error,
            target: "bate_obs::trace::tests",
            name: "io.fail",
            ctx: crate::context::SpanCtx::NONE,
            fields: vec![
                ("msg", Value::Str("bad \"path\"\n".into())),
                ("code", Value::I64(-2)),
                ("ratio", Value::F64(0.5)),
                ("nan", Value::F64(f64::NAN)),
            ],
        };
        // Untraced events keep the exact pre-trace-context shape.
        assert_eq!(
            e.to_json(),
            "{\"seq\":7,\"t_ns\":1500,\"level\":\"error\",\"target\":\"bate_obs::trace::tests\",\"name\":\"io.fail\",\"fields\":{\"msg\":\"bad \\\"path\\\"\\n\",\"code\":-2,\"ratio\":0.5,\"nan\":null}}"
        );
        // Traced events add trace/span/parent between name and fields.
        e.ctx = crate::context::SpanCtx {
            trace_id: 0xA,
            span_id: 0xB,
            parent_span_id: 0,
        };
        e.fields.clear();
        assert_eq!(
            e.to_json(),
            "{\"seq\":7,\"t_ns\":1500,\"level\":\"error\",\"target\":\"bate_obs::trace::tests\",\"name\":\"io.fail\",\"trace\":\"000000000000000a\",\"span\":\"000000000000000b\",\"parent\":\"0000000000000000\",\"fields\":{}}"
        );
    }

    #[test]
    fn spans_and_events_carry_nested_contexts() {
        let _guard = serial();
        let ring = RingBufferSubscriber::new(16);
        install(ring.clone(), SimClock::shared());
        {
            let root = crate::context::root("submit", 42);
            let outer = crate::span!("ctrl.admit");
            crate::info!("admission.verdict", admitted = true);
            let outer_ctx = outer.ctx();
            drop(outer);
            assert!(outer_ctx.is_some());
            assert_eq!(outer_ctx.parent_span_id, root.ctx.span_id);
        }
        crate::info!("untraced.after");
        uninstall();
        let events = ring.take();
        assert_eq!(events.len(), 3);
        let verdict = &events[0];
        let close = &events[1];
        assert_eq!(verdict.name, "admission.verdict");
        assert_eq!(close.name, "ctrl.admit");
        // The event carries the enclosing span's identity; the
        // close-event IS the span, so the two stamps coincide.
        assert_eq!(verdict.ctx, close.ctx);
        assert!(!events[2].ctx.is_some());
    }

    #[test]
    fn jsonl_subscriber_writes_header_then_records() {
        let _guard = serial();
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sub = JsonlSubscriber::new(Box::new(Shared(buf.clone())), "unit").unwrap();
        install(sub, SimClock::shared());
        crate::info!("one", k = 1u64);
        uninstall();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "{\"trace\":\"unit\"}");
        assert!(lines[1].starts_with("{\"seq\":0,"));
        assert!(lines[1].contains("\"name\":\"one\""));
    }
}
