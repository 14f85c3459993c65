//! The simulator's event queue.
//!
//! Time is `f64` seconds. Ties are broken by insertion sequence so runs are
//! fully deterministic under a fixed seed.

use bate_core::{BaDemand, DemandId};
use bate_net::GroupId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Things that can happen.
#[derive(Debug, Clone)]
pub enum Event {
    /// A new BA demand arrives and asks for admission.
    Arrival(BaDemand),
    /// An admitted demand's lifetime ends.
    Departure(DemandId),
    /// A fate group goes down.
    LinkFailure(GroupId),
    /// A fate group comes back.
    LinkRepair(GroupId),
    /// Periodic traffic-scheduling round.
    ScheduleRound,
    /// Delayed application of a recovery allocation (models computation /
    /// activation latency after a failure).
    ApplyRecovery(u64),
}

struct Entry {
    time: f64,
    seq: u64,
    event: Event,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap: earliest time first, then lowest sequence.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic time-ordered event queue.
#[derive(Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    seq: u64,
}

impl EventQueue {
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Schedule `event` at absolute time `time` (seconds).
    pub fn push(&mut self, time: f64, event: Event) {
        assert!(time.is_finite() && time >= 0.0, "bad event time {time}");
        self.heap.push(Entry {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(f64, Event)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_sequence() {
        let mut q = EventQueue::new();
        q.push(5.0, Event::ScheduleRound);
        q.push(1.0, Event::LinkFailure(GroupId(0)));
        q.push(5.0, Event::LinkRepair(GroupId(0)));
        let (t1, e1) = q.pop().unwrap();
        assert_eq!(t1, 1.0);
        assert!(matches!(e1, Event::LinkFailure(_)));
        // Same-time events come out in insertion order.
        let (_, e2) = q.pop().unwrap();
        assert!(matches!(e2, Event::ScheduleRound));
        let (_, e3) = q.pop().unwrap();
        assert!(matches!(e3, Event::LinkRepair(_)));
        assert!(q.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "bad event time")]
    fn rejects_nan_times() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, Event::ScheduleRound);
    }
}
