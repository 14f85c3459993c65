//! Flight recorder: a bounded ring of recent events that dumps a
//! deterministic, causally-sliced JSONL artifact when a trigger fires.
//!
//! ## Model
//!
//! When enabled, every event that reaches the dispatch layer is teed
//! into a global bounded ring (`enable(capacity)`); the installed
//! subscriber is unaffected. A *trigger* — a cert-gate cold fallback, a
//! storm round breaching its latency bound — calls
//! [`trigger`] with the trace id of the flow that tripped it. The
//! recorder snapshots the ring, extracts the **causal slice** (every
//! buffered event of that trace, re-ordered into canonical causal order
//! and renumbered), and dumps it as a JSONL artifact: to
//! `flight_<n>_<reason>.jsonl` under the configured dump directory, and
//! always to an in-memory list tests and tools can drain with
//! [`take_dumps`].
//!
//! ## Determinism
//!
//! Ring *arrival* order is racy when events come from concurrent
//! connection threads, so dumps never use it: [`causal_slice`] orders
//! spans by their deterministic ids (children sorted by `span_id`) and a
//! span's own events by relative sequence (same-thread order, which the
//! monotone global counter preserves), then renumbers `seq` from 0.
//! Artifacts are therefore byte-identical across same-seed runs even
//! when the recording interleaving was not.

use crate::context::hex;
use crate::trace::Event;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// One dumped artifact: the trigger's reason, the sliced trace, and the
/// canonically ordered events.
#[derive(Debug, Clone)]
pub struct FlightDump {
    pub reason: &'static str,
    pub trace_id: u64,
    /// Causal slice, canonical order, `seq` renumbered from 0.
    pub events: Vec<Event>,
}

impl FlightDump {
    /// The artifact text: a header line then one JSON object per event.
    pub fn render_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"flight\":\"{}\",\"trace\":\"{}\",\"events\":{}}}\n",
            self.reason,
            hex(self.trace_id),
            self.events.len()
        );
        for e in &self.events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

struct FlightState {
    ring: VecDeque<Event>,
    capacity: usize,
    dump_dir: Option<std::path::PathBuf>,
    dumps: Vec<FlightDump>,
    dump_seq: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn state() -> &'static Mutex<FlightState> {
    static S: OnceLock<Mutex<FlightState>> = OnceLock::new();
    S.get_or_init(|| {
        Mutex::new(FlightState {
            ring: VecDeque::new(),
            capacity: 0,
            dump_dir: None,
            dumps: Vec::new(),
            dump_seq: 0,
        })
    })
}

/// Start recording the most recent `capacity` events (clears any prior
/// ring and pending dumps).
pub fn enable(capacity: usize) {
    let mut s = state().lock().unwrap();
    s.ring.clear();
    s.dumps.clear();
    s.dump_seq = 0;
    s.capacity = capacity.max(1);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stop recording and drop the ring (pending dumps stay drainable).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
    state().lock().unwrap().ring.clear();
}

/// Where triggered artifacts are written (`None` keeps them in memory
/// only).
pub fn set_dump_dir(dir: Option<std::path::PathBuf>) {
    state().lock().unwrap().dump_dir = dir;
}

/// Tee an event into the ring (called by the trace dispatch layer; cheap
/// no-op unless [`enable`]d).
#[inline]
pub(crate) fn record(event: &Event) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let mut s = state().lock().unwrap();
    if s.ring.len() == s.capacity {
        s.ring.pop_front();
    }
    s.ring.push_back(event.clone());
}

/// Fire a trigger: slice the ring causally on `trace_id` (0 slices
/// nothing out — the whole ring is dumped in canonical per-trace order),
/// record the dump, and write the artifact when a dump directory is set.
/// Returns `None` when the recorder is disabled.
pub fn trigger(reason: &'static str, trace_id: u64) -> Option<FlightDump> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    let mut s = state().lock().unwrap();
    let buffered: Vec<Event> = s.ring.iter().cloned().collect();
    let events = causal_slice(&buffered, trace_id);
    let dump = FlightDump {
        reason,
        trace_id,
        events,
    };
    if let Some(dir) = s.dump_dir.clone() {
        let path = dir.join(format!("flight_{:04}_{reason}.jsonl", s.dump_seq));
        let _ = std::fs::write(path, dump.render_jsonl());
    }
    s.dump_seq += 1;
    s.dumps.push(dump.clone());
    // Bound the in-memory list: a trigger storm must not grow unbounded.
    if s.dumps.len() > 64 {
        s.dumps.remove(0);
    }
    Some(dump)
}

/// Drain the in-memory dump list (oldest first).
pub fn take_dumps() -> Vec<FlightDump> {
    std::mem::take(&mut state().lock().unwrap().dumps)
}

/// Snapshot of the ring (test/diagnostic use).
pub fn ring_events() -> Vec<Event> {
    state().lock().unwrap().ring.iter().cloned().collect()
}

/// Canonical causal ordering of one trace's events.
///
/// Nodes are span ids; an event belongs to the node it is stamped with.
/// Roots are spans whose parent is 0 or absent from the slice (the trace
/// may continue from a remote parent the ring never saw). Traversal is
/// depth-first: a node's own events in relative-sequence order, then its
/// child spans in ascending span-id order. `seq` is renumbered from 0,
/// and `t_ns` is preserved (constant under a pinned `SimClock`).
/// `trace_id == 0` slices every trace, each rendered in trace-id order.
pub fn causal_slice(events: &[Event], trace_id: u64) -> Vec<Event> {
    let traces: BTreeSet<u64> = if trace_id != 0 {
        [trace_id].into()
    } else {
        events
            .iter()
            .filter(|e| e.ctx.is_some())
            .map(|e| e.ctx.trace_id)
            .collect()
    };
    let mut out = Vec::new();
    for tid in traces {
        let mut slice: Vec<&Event> = events
            .iter()
            .filter(|e| e.ctx.trace_id == tid)
            .collect();
        slice.sort_by_key(|e| e.seq);
        // span id -> (parent, events in seq order)
        let mut nodes: BTreeMap<u64, (u64, Vec<&Event>)> = BTreeMap::new();
        for e in &slice {
            let node = nodes
                .entry(e.ctx.span_id)
                .or_insert((e.ctx.parent_span_id, Vec::new()));
            node.1.push(e);
        }
        let mut children: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut roots: Vec<u64> = Vec::new();
        for (&span, &(parent, _)) in &nodes {
            if parent != 0 && nodes.contains_key(&parent) {
                children.entry(parent).or_default().push(span);
            } else {
                roots.push(span);
            }
        }
        // Iterative DFS (children pre-sorted by BTreeMap id order).
        let mut stack: Vec<u64> = roots.into_iter().rev().collect();
        let mut visited: BTreeSet<u64> = BTreeSet::new();
        while let Some(span) = stack.pop() {
            if !visited.insert(span) {
                continue; // cycle guard: ids are hashes, collisions clamp
            }
            if let Some((_, evs)) = nodes.get(&span) {
                out.extend(evs.iter().map(|e| (*e).clone()));
            }
            if let Some(kids) = children.get(&span) {
                for &k in kids.iter().rev() {
                    stack.push(k);
                }
            }
        }
    }
    for (i, e) in out.iter_mut().enumerate() {
        e.seq = i as u64;
    }
    out
}

/// Structural well-formedness of a set of traced events: every traced
/// event's parent span must exist in the set (or be 0/remote-rooted at a
/// span that is itself present as a parent link), and parent links must
/// be acyclic. Returns a description of the first violation.
pub fn validate_tree(events: &[Event]) -> Result<(), String> {
    let spans: BTreeSet<u64> = events
        .iter()
        .filter(|e| e.ctx.is_some())
        .map(|e| e.ctx.span_id)
        .collect();
    let mut parent_of: BTreeMap<u64, u64> = BTreeMap::new();
    for e in events.iter().filter(|e| e.ctx.is_some()) {
        if let Some(&p) = parent_of.get(&e.ctx.span_id) {
            if p != e.ctx.parent_span_id {
                return Err(format!(
                    "span {} has two parents: {} and {}",
                    hex(e.ctx.span_id),
                    hex(p),
                    hex(e.ctx.parent_span_id)
                ));
            }
        } else {
            parent_of.insert(e.ctx.span_id, e.ctx.parent_span_id);
        }
    }
    for (&span, &parent) in &parent_of {
        // Walk to a root, bounded by the span population (cycle check).
        let mut cur = parent;
        let mut steps = 0usize;
        while cur != 0 {
            if cur == span {
                return Err(format!("cycle through span {}", hex(span)));
            }
            if !spans.contains(&cur) {
                break; // remote root: parent lived in another process
            }
            cur = *parent_of.get(&cur).unwrap_or(&0);
            steps += 1;
            if steps > spans.len() {
                return Err(format!("unterminated parent chain at {}", hex(span)));
            }
        }
    }
    Ok(())
}

/// Human-oriented causal tree of one trace (the `batectl trace`
/// rendering): indentation per depth, span close-events as nodes, plain
/// events as leaves.
pub fn render_tree(events: &[Event], trace_id: u64) -> String {
    let slice = causal_slice(events, trace_id);
    if slice.is_empty() {
        return format!("trace {}: no buffered events\n", hex(trace_id));
    }
    let mut out = format!("trace {} ({} events)\n", hex(trace_id), slice.len());
    // Depth = distance to a root via parent links present in the slice.
    let parents: BTreeMap<u64, u64> = slice
        .iter()
        .map(|e| (e.ctx.span_id, e.ctx.parent_span_id))
        .collect();
    for e in &slice {
        let mut depth = 0usize;
        let mut cur = e.ctx.parent_span_id;
        while cur != 0 {
            match parents.get(&cur) {
                Some(&p) if depth < 64 => {
                    depth += 1;
                    cur = p;
                }
                _ => break,
            }
        }
        let fields: Vec<String> = e
            .fields
            .iter()
            .map(|(k, v)| format!("{k}={}", v.to_json()))
            .collect();
        out.push_str(&format!(
            "{}{} [span {}] {}\n",
            "  ".repeat(depth + 1),
            e.name,
            hex(e.ctx.span_id),
            fields.join(" ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SpanCtx;
    use crate::trace::tests::serial;
    use crate::trace::{Level, Value};

    fn ev(seq: u64, name: &'static str, trace: u64, span: u64, parent: u64) -> Event {
        Event {
            seq,
            t_ns: 0,
            level: Level::Info,
            target: "t",
            name,
            ctx: SpanCtx {
                trace_id: trace,
                span_id: span,
                parent_span_id: parent,
            },
            fields: vec![("k", Value::U64(seq))],
        }
    }

    #[test]
    fn causal_slice_orders_by_tree_not_arrival() {
        // Arrival order interleaves two subtrees; canonical order groups
        // by span id under the shared root.
        let events = vec![
            ev(0, "root", 1, 10, 0),
            ev(1, "b.work", 1, 30, 10),
            ev(2, "a.work", 1, 20, 10),
            ev(3, "a.close", 1, 20, 10),
        ];
        let slice = causal_slice(&events, 1);
        let names: Vec<&str> = slice.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["root", "a.work", "a.close", "b.work"]);
        let seqs: Vec<u64> = slice.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3], "seq renumbered canonically");
        // Other traces are excluded.
        let other = causal_slice(&events, 999);
        assert!(other.is_empty());
    }

    #[test]
    fn validate_tree_catches_orphans_and_cycles() {
        let ok = vec![ev(0, "r", 1, 10, 0), ev(1, "c", 1, 20, 10)];
        assert!(validate_tree(&ok).is_ok());
        // A cycle: 10 -> 20 -> 10.
        let cyc = vec![ev(0, "a", 1, 10, 20), ev(1, "b", 1, 20, 10)];
        assert!(validate_tree(&cyc).is_err());
        // Two parents for one span id.
        let dual = vec![ev(0, "a", 1, 10, 0), ev(1, "a", 1, 10, 99)];
        assert!(validate_tree(&dual).is_err());
    }

    #[test]
    fn trigger_dumps_causal_slice_of_matching_trace() {
        let _guard = serial();
        enable(16);
        set_dump_dir(None);
        for e in [
            ev(0, "keep.root", 7, 10, 0),
            ev(1, "drop.other", 8, 50, 0),
            ev(2, "keep.child", 7, 20, 10),
        ] {
            record(&e);
        }
        let dump = trigger("unit_test", 7).expect("recorder enabled");
        assert_eq!(dump.events.len(), 2);
        assert!(dump.events.iter().all(|e| e.ctx.trace_id == 7));
        let text = dump.render_jsonl();
        assert!(text.starts_with("{\"flight\":\"unit_test\",\"trace\":\"0000000000000007\",\"events\":2}\n"));
        assert_eq!(take_dumps().len(), 1);
        assert!(take_dumps().is_empty());
        disable();
        assert!(trigger("after_disable", 7).is_none());
    }

    #[test]
    fn ring_is_bounded() {
        let _guard = serial();
        enable(2);
        for i in 0..5 {
            record(&ev(i, "e", 1, 10, 0));
        }
        let seqs: Vec<u64> = ring_events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
        disable();
    }
}
