//! Deterministic causal trace contexts: `trace_id`/`span_id`/
//! `parent_span_id` identity for spans and events, carried on a
//! thread-local stack and across processes on the wire.
//!
//! ## Identity derivation
//!
//! Ids are **derived, never drawn**: a root trace id is an FNV-1a hash of
//! a `(kind, request id)` pair, and every child span id is an FNV-1a hash
//! of `(parent span id, child index, span name)`, where the child index
//! is the parent's running child counter. Two same-seed runs therefore
//! produce byte-identical ids — the property `scripts/obscheck.sh` diffs
//! for — and an idempotent retry of the same request reproduces the same
//! subtree rather than minting fresh ids.
//!
//! ## Propagation
//!
//! * **Same thread:** [`SpanGuard`](crate::trace::SpanGuard) (the `span!`
//!   macro) derives a child of the current top-of-stack context and
//!   pushes it for its scope; `event!` stamps the current context onto
//!   every event.
//! * **Across threads:** none. Every traced step of the serving path
//!   runs on the thread that asked for it, so a child's id is a function
//!   of its nesting order alone. Work on another thread (a
//!   branch-and-bound batch, a figure sweep) carries no context and
//!   emits nothing.
//! * **Across processes:** the wire framing carries `(trace_id, span_id)`
//!   (see `bate-system`'s `wire` module); the receiver calls [`adopt`] to
//!   parent its local spans on the sender's span.
//!
//! With no context on the stack, spans and events carry id 0 ("untraced")
//! and behave exactly as before this layer existed.

use std::cell::RefCell;

/// The causal identity of a span: which trace it belongs to, its own id,
/// and its parent's id (0 = root / none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanCtx {
    pub trace_id: u64,
    pub span_id: u64,
    pub parent_span_id: u64,
}

impl SpanCtx {
    /// The absent context (all ids 0) — what untraced events carry.
    pub const NONE: SpanCtx = SpanCtx {
        trace_id: 0,
        span_id: 0,
        parent_span_id: 0,
    };

    pub fn is_some(&self) -> bool {
        self.trace_id != 0
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hash to a non-zero id (0 is reserved for "absent").
fn nonzero(h: u64) -> u64 {
    if h == 0 {
        0x6261_7465_0b5e_1d01 // "bate" | arbitrary fixed odd tail
    } else {
        h
    }
}

/// Deterministic trace id for a `(kind, id)` request: e.g.
/// `("submit", demand_id)` for an admission flow.
pub fn trace_id(kind: &str, id: u64) -> u64 {
    let h = fnv_bytes(FNV_OFFSET, kind.as_bytes());
    nonzero(fnv_bytes(h, &id.to_be_bytes()))
}

/// Deterministic span id: child `index` of span `parent` named `name`.
pub fn span_id(parent: u64, index: u64, name: &str) -> u64 {
    let h = fnv_bytes(FNV_OFFSET, &parent.to_be_bytes());
    let h = fnv_bytes(h, &index.to_be_bytes());
    nonzero(fnv_bytes(h, name.as_bytes()))
}

struct ActiveSpan {
    ctx: SpanCtx,
    /// Running child counter — the `index` input of the next child's id.
    children: u64,
}

thread_local! {
    static STACK: RefCell<Vec<ActiveSpan>> = const { RefCell::new(Vec::new()) };
}

/// The context of the innermost active span on this thread
/// ([`SpanCtx::NONE`] outside any traced scope).
pub fn current() -> SpanCtx {
    STACK.with(|s| s.borrow().last().map(|a| a.ctx).unwrap_or(SpanCtx::NONE))
}

fn push(ctx: SpanCtx) {
    STACK.with(|s| s.borrow_mut().push(ActiveSpan { ctx, children: 0 }));
}

fn pop() {
    STACK.with(|s| {
        s.borrow_mut().pop();
    });
}

/// Derive (and count) the next child of the current span; `None` when no
/// trace is active. Used by `SpanGuard` so nesting order is the only
/// input to the id.
pub(crate) fn next_child(name: &str) -> Option<SpanCtx> {
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let top = stack.last_mut()?;
        let idx = top.children;
        top.children += 1;
        Some(SpanCtx {
            trace_id: top.ctx.trace_id,
            span_id: span_id(top.ctx.span_id, idx, name),
            parent_span_id: top.ctx.span_id,
        })
    })
}

/// Scope guard that holds a context on this thread's stack; popping on
/// drop. Constructed by [`root`], [`adopt`] and [`enter`].
pub struct CtxGuard {
    /// The context this guard pushed (for callers that need to put it on
    /// the wire or into an artifact).
    pub ctx: SpanCtx,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        pop();
    }
}

/// Start a new root trace for request `(kind, id)` and make it current.
/// The root span's id is child 0 of the trace id itself.
pub fn root(kind: &'static str, id: u64) -> CtxGuard {
    let tid = trace_id(kind, id);
    let ctx = SpanCtx {
        trace_id: tid,
        span_id: span_id(tid, 0, kind),
        parent_span_id: 0,
    };
    push(ctx);
    CtxGuard { ctx }
}

/// Adopt a context received from a remote peer: open a local span named
/// `name` parented on the sender's span. Identity is a pure function of
/// the received ids and the name, so retries of the same request
/// reproduce the same local subtree.
pub fn adopt(name: &'static str, trace_id: u64, remote_span_id: u64) -> CtxGuard {
    let ctx = SpanCtx {
        trace_id,
        span_id: span_id(remote_span_id, 0, name),
        parent_span_id: remote_span_id,
    };
    push(ctx);
    CtxGuard { ctx }
}

/// Re-enter an explicit context (e.g. one captured before a queue hop or
/// replayed from a flight-recorder artifact).
pub fn enter(ctx: SpanCtx) -> CtxGuard {
    push(ctx);
    CtxGuard { ctx }
}

/// Render an id as the fixed-width hex used in artifacts (16 lowercase
/// hex digits; id 0 renders as all zeros but is never emitted).
pub fn hex(id: u64) -> String {
    format!("{id:016x}")
}

/// Parse an id from [`hex`] form (also accepts decimal for CLI
/// convenience).
pub fn parse_id(s: &str) -> Option<u64> {
    let t = s.trim();
    if let Ok(v) = u64::from_str_radix(t, 16) {
        return Some(v);
    }
    t.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_deterministic_and_nonzero() {
        assert_eq!(trace_id("submit", 42), trace_id("submit", 42));
        assert_ne!(trace_id("submit", 42), trace_id("submit", 43));
        assert_ne!(trace_id("submit", 42), trace_id("withdraw", 42));
        assert_ne!(trace_id("submit", 42), 0);
        assert_eq!(span_id(7, 0, "a"), span_id(7, 0, "a"));
        assert_ne!(span_id(7, 0, "a"), span_id(7, 1, "a"));
        assert_ne!(span_id(7, 0, "a"), span_id(8, 0, "a"));
    }

    #[test]
    fn stack_nests_and_children_count() {
        assert!(!current().is_some());
        let g = root("submit", 1);
        assert_eq!(current(), g.ctx);
        let c1 = next_child("inner").unwrap();
        let c2 = next_child("inner").unwrap();
        assert_ne!(c1.span_id, c2.span_id);
        assert_eq!(c1.parent_span_id, g.ctx.span_id);
        drop(g);
        assert!(!current().is_some());
        assert!(next_child("x").is_none());
    }

    #[test]
    fn adopt_parents_on_remote_span() {
        let g = adopt("ctrl.submit", 0xABCD, 0x1234);
        assert_eq!(g.ctx.trace_id, 0xABCD);
        assert_eq!(g.ctx.parent_span_id, 0x1234);
        assert_eq!(g.ctx.span_id, span_id(0x1234, 0, "ctrl.submit"));
    }

    #[test]
    fn hex_roundtrip() {
        let id = trace_id("submit", 7);
        assert_eq!(parse_id(&hex(id)), Some(id));
        assert_eq!(parse_id("42"), Some(0x42)); // hex wins when ambiguous
        assert_eq!(parse_id("zz"), None);
    }
}
